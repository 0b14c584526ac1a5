#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace smac::util {
namespace {

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"n", "Wc*"});
  t.add_row({"5", "76"});
  t.add_row({"50", "879"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("n   Wc*"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("50  879"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTableTest, StreamsToOstream) {
  TextTable t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  os << t;
  EXPECT_FALSE(os.str().empty());
}

TEST(FormatTest, FixedPrecision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_percent(0.9634, 1), "96.3%");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/smac_csv_test.csv";
  {
    CsvWriter w(path, {"w", "payoff"});
    w.add_row({76.0, 2.014e-05});
    w.add_row({80.0, 2.01e-05});
    EXPECT_EQ(w.rows_written(), 2u);
    EXPECT_THROW(w.add_row({1.0}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "w,payoff");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 3), "76,");
  std::remove(path.c_str());
}

TEST(CsvTest, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace smac::util
