# Run one paper-reproduction bench header-only and compare its stdout
# with the committed golden text.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file.txt> -P check_golden.cmake
#
# The benchmark filter matches no google-benchmark row, so the binary
# prints only its deterministic reproduction header (virtual time, seeded
# data, seeded survey cohort). The one host-dependent line, fig15's
# OpenMP "N thread greetings" (the core count), is normalized before the
# comparison.
execute_process(
  COMMAND "${BENCH}" --benchmark_filter=^golden-header-only$
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE ignored
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
string(REGEX REPLACE "ran with [0-9]+ thread greetings"
       "ran with N thread greetings" actual "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${BENCH} header differs from ${GOLDEN}\n"
          "--- expected\n${expected}\n--- actual\n${actual}")
endif()
