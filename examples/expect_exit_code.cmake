# Runs EXE with the ;-separated ARGS and fails unless it exits with code
# EXPECT (a signal or any other code fails). Used by the example smoke and
# bad-argument tests in CMakeLists.txt:
#   cmake -DEXE=<program> -DARGS=<a;b> -DEXPECT=2 -P expect_exit_code.cmake
execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', want ${EXPECT}\n${err}")
endif()
