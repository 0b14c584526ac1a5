# artifact_check.cmake — run a bench and byte-compare the deterministic
# artifact it writes with the committed copy (the `artifacts` ctest tier).
#
#   cmake -DBENCH=<binary> "-DARGS=<arguments>" -DOUTPUT=<written file>
#         -DEXPECTED=<committed file> -P cmake/artifact_check.cmake
#
# Fails when the bench exits non-zero or when OUTPUT differs from EXPECTED
# in any byte. Timing files are never compared; they are not deterministic.

foreach(_var BENCH OUTPUT EXPECTED)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "artifact_check: pass -D${_var}=...")
  endif()
endforeach()

separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${_args} RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "artifact_check: ${BENCH} exited with ${_rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT}" "${EXPECTED}"
  RESULT_VARIABLE _diff)
if(NOT _diff EQUAL 0)
  message(FATAL_ERROR
    "artifact_check: ${OUTPUT} differs from the committed ${EXPECTED}; "
    "regenerate the committed file only if the change is intended")
endif()
message(STATUS "artifact_check: ${OUTPUT} matches ${EXPECTED}")
