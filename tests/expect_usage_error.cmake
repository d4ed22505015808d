# Runs BIN with ARGS (space-separated) and fails unless it exits 2 with
# EXPECT on stderr:
#   cmake -DBIN=<binary> "-DARGS=<args>" "-DEXPECT=<text>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
  RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
string(FIND "${err}" "${EXPECT}" at)
if(NOT code EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code}, stderr:\n${err}"
                      "expected exit 2 and '${EXPECT}'")
endif()
