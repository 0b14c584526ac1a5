// Conservative parallel discrete-event kernel for the multihop simulator
// (docs/PDES.md).
//
// The slot loop in multihop_simulator.cpp advances every node through one
// global slot sequence, so a long run uses one core no matter how many
// nodes. But carrier-sense interactions are local: a node's slot outcome
// depends on transmit state at most 2 hops away, and its local-time
// accrual on outcomes at most 3 hops away — nothing beyond 3·range_m
// (one Euclidean hop ≤ range_m). The PDES kernel exploits that by
// partitioning nodes into spatial regions, giving each region a logical
// process (LP) with its own slot horizon, and letting a region advance
// whenever every region owning nodes within the interference lookahead
// (3·range_m) has published the slot state it needs — the
// min-neighbor-horizon barrier of conservative PDES, with the slotted
// structure providing exactly one slot of lookahead. No rollback is ever
// needed; distant regions drift apart freely (pipelining across space).
//
// Determinism contract: results are bitwise identical to the serial slot
// loop (`run_multihop_slot_loop`, the oracle) at any worker count and any
// partition, because every stochastic decision is keyed per (node, global
// slot) in the parallel::stream_seed discipline (slot_kernel.hpp), every
// published flag is a pure function of (seed, topology, fault plan), and
// per-node tallies are reduced in node order. `ctest -L pdes` pins the
// equivalence over a (topology, fault, mobility, jobs, partition) grid;
// tests/fuzz/pdes_fuzz_test.cpp fuzzes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "multihop/topology.hpp"

namespace smac::multihop {

/// Which engine MultihopSimulator::run_slots uses. Both produce bitwise
/// identical results; kSlotLoop is the serial reference (the oracle).
enum class MultihopKernel {
  kSlotLoop,
  kPdes,
};

const char* to_string(MultihopKernel kernel) noexcept;

/// Tuning of the PDES kernel. Every field is scheduling-only: results
/// never depend on it (pinned by the pdes test tier).
struct PdesOptions {
  /// Worker threads driving the logical processes (1 = serial in the
  /// calling thread, 0 = parallel::ThreadPool::default_jobs()); clamped
  /// to the region count and to parallel::ThreadPool::kMaxThreads.
  std::size_t jobs = 1;
  /// Region tile edge in units of range_m. 3.0 matches the interference
  /// lookahead — smaller tiles give more parallelism but denser region
  /// dependency graphs (correctness is independent of the value: the
  /// dependency sets are always derived from the 3·range_m ball).
  double region_edge_factor = 3.0;
  /// Degenerate partitions, for differential tests: everything in one LP
  /// (the kernel collapses to a slot loop with barrier bookkeeping), or
  /// one LP per node (maximal drift, maximal dependency churn).
  bool single_region = false;
  bool region_per_node = false;

  /// Throws std::invalid_argument on a non-finite/non-positive edge
  /// factor or both degenerate flags at once.
  void validate() const;
};

/// What the last PDES window actually did (MultihopSimulator::
/// last_pdes_stats). regions/dep_edges are pure functions of (positions,
/// range, options); lookahead_violations must always read 0 (a non-zero
/// value would mean a region observed a dependency's unpublished future —
/// the conservative barrier failed); max_horizon_lead is the largest
/// horizon lead a region ever took over one of its dependencies and can
/// never exceed 1 (the slotted lookahead), though its exact value is
/// scheduling-dependent.
struct PdesRunStats {
  std::size_t regions = 0;
  std::size_t dep_edges = 0;  ///< directed dependency pairs (excl. self)
  std::size_t jobs = 0;       ///< workers actually used
  std::uint64_t slots = 0;
  std::uint64_t lookahead_violations = 0;
  std::uint64_t max_horizon_lead = 0;
};

/// Spatial partition of a topology's nodes into PDES regions plus the
/// region dependency graph: regions a and b are dependent iff they own
/// nodes within lookahead_m() = 3·range_m of each other — the carrier-
/// sense interference horizon (1 hop of sender contention + 1 hop of
/// receiver jamming + 1 hop of neighbor-outcome local-time coupling,
/// each hop ≤ range_m). Pure function of (positions, range, options):
/// node order, hash order, and thread count never enter.
///
/// The partition also fixes the kernel's region-major memory layout:
/// nodes are relabeled to *positions* so that every region owns one
/// contiguous range [first(r), last(r)), members ascending by node id,
/// and the unit-disk graph is the topology's NeighborGraph relabeled to
/// positions. Each list keeps the topology's ascending-node-id order, so
/// a receiver pick indexes the same neighbor under either labeling.
/// Tiles and dependency cells both come from sort_into_cells
/// (neighbor_graph.hpp), whose clamped cells keep far-flung but finite
/// coordinates well defined.
class RegionPartition {
 public:
  RegionPartition(const Topology& topology, const PdesOptions& options);

  std::size_t node_count() const noexcept { return region_of_.size(); }
  std::size_t region_count() const noexcept { return deps_.size(); }
  double lookahead_m() const noexcept { return lookahead_m_; }

  std::size_t region_of(std::size_t node) const {
    return region_of_.at(node);
  }
  /// Region r owns positions [first(r), last(r)).
  std::uint32_t first(std::size_t region) const { return first_.at(region); }
  std::uint32_t last(std::size_t region) const {
    return first_.at(region + 1);
  }
  /// The permutation: node_at(position) and its inverse.
  std::size_t node_at(std::uint32_t position) const {
    return node_at_.at(position);
  }
  std::uint32_t position_of(std::size_t node) const {
    return position_of_.at(node);
  }
  /// Neighbor positions of `position`, in ascending node-id order.
  /// Unchecked (the PDES hot path): position must be < node_count().
  std::span<const std::uint32_t> neighbors(std::uint32_t position) const {
    return graph_.neighbors(position);
  }
  /// Dependency region ids, ascending, self excluded. A region may
  /// process slot s only when every dependency has published its
  /// slot-s state.
  const std::vector<std::size_t>& deps(std::size_t region) const {
    return deps_.at(region);
  }
  std::size_t dep_edge_count() const noexcept { return dep_edges_; }

  /// Θ(n²) oracle for the test tier: true iff every cross-region node
  /// pair within lookahead_m() induces a dependency edge both ways.
  bool covers_dependencies(const Topology& topology) const;

 private:
  double lookahead_m_ = 0.0;
  std::vector<std::uint32_t> region_of_;
  std::vector<std::uint32_t> first_;  ///< region_count() + 1 offsets
  std::vector<std::uint32_t> node_at_;
  std::vector<std::uint32_t> position_of_;
  NeighborGraph graph_;  ///< over positions
  std::vector<std::vector<std::size_t>> deps_;
  std::size_t dep_edges_ = 0;
};

}  // namespace smac::multihop
