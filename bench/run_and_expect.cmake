# ctest helper: runs BIN and fails unless it exits 0 and its stdout
# matches EXPECT. (PASS_REGULAR_EXPRESSION alone would ignore the exit
# code.) Usage: cmake -DBIN=<path> -DEXPECT=<regex> -P run_and_expect.cmake
execute_process(COMMAND "${BIN}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} printed no line matching '${EXPECT}'")
endif()
