# Runs PROGRAM with the ;-separated ARGS and passes only if it exits with
# status 1 and prints an `error:` line on stderr. An uncaught exception
# aborts instead (status 134, no such line).
#
#   cmake -DPROGRAM=<path> -DARGS=<args> -P expect_error.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status '${status}', "
                      "expected 1\n${err}")
endif()
if(NOT err MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: no 'error:' line\n${err}")
endif()
