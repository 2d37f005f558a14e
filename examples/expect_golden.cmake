# Runs PROGRAM with no arguments and expects a clean exit and standard
# output byte-identical to GOLDEN (the examples' pinned output).
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -P expect_golden.cmake
#
# The examples seed every trace and sketch, so any difference means the
# sketch state or an estimate moved. Re-record a golden only for a change
# that is meant to move the example's output.
execute_process(COMMAND "${PROGRAM}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
get_filename_component(name "${PROGRAM}" NAME)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${name} exited ${status}:\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR
    "${name} output differs from ${GOLDEN}\n--- got ---\n${out}"
    "--- want ---\n${want}")
endif()
