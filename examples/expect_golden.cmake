# Runs PROGRAM with no arguments and expects a clean exit and standard
# output byte-identical to GOLDEN (the examples' pinned output).
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> [-DMASK=<regex>] -P expect_golden.cmake
#
# The examples and paper benches seed every trace and sketch, so any
# difference means the sketch state or an estimate moved. Re-record a golden
# only for a change that is meant to move the program's output. MASK, if
# set, replaces every match with "<masked>" on both sides before the
# comparison; it is for columns that print wall time, and for nothing else.
execute_process(COMMAND "${PROGRAM}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
get_filename_component(name "${PROGRAM}" NAME)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${name} exited ${status}:\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(DEFINED MASK)
  string(REGEX REPLACE "${MASK}" "<masked>" out "${out}")
  string(REGEX REPLACE "${MASK}" "<masked>" want "${want}")
endif()
if(NOT out STREQUAL want)
  message(FATAL_ERROR
    "${name} output differs from ${GOLDEN}\n--- got ---\n${out}"
    "--- want ---\n${want}")
endif()
