# ctest driver for dsos_cmd, run in the test's own working directory:
#   cmake -DDSOS_CMD=<path to dsos_cmd> -P dsos_cmd_test.cmake
#
#   * The demo runs twice.  dsos_cmd exits 1 when the rows it reopens
#     differ from the rows the job stored, so the second run passes only
#     if the demo replaces the first run's store directory.
#   * count and a filtered query reopen the directory the demo wrote.
#   * A missing store directory exits 1 and is not created.
#   * A filter value that does not parse as its attribute's type exits 2.
if(NOT DSOS_CMD)
  message(FATAL_ERROR "pass -DDSOS_CMD=<path to dsos_cmd>")
endif()

function(expect_exit want)
  execute_process(COMMAND "${DSOS_CMD}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR
            "dsos_cmd ${args}: exit ${rc}, want ${want}\n${out}${err}")
  endif()
endfunction()

expect_exit(0)
expect_exit(0)
expect_exit(0 dlc_export/dsos_demo count)
expect_exit(0 dlc_export/dsos_demo query job_rank_time rank=3 op=write)

set(missing "${CMAKE_CURRENT_BINARY_DIR}/missing_store")
file(REMOVE_RECURSE "${missing}")
expect_exit(1 "${missing}" count)
if(EXISTS "${missing}")
  message(FATAL_ERROR "dsos_cmd created the missing store ${missing}")
endif()

expect_exit(2 dlc_export/dsos_demo query job_rank_time rank=abc)
