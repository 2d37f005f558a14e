# Runs PROGRAM on a zero-byte capture and expects a clean rejection: a
# non-zero exit status (not a signal) and the "cannot decode" message.
#
#   cmake -DPROGRAM=<binary> -DCAPTURE=<temp file> [-DCAPTURE_ENV=<VAR>] \
#         -P expect_decode_error.cmake
#
# The capture path goes to PROGRAM as its one argument, or, with
# CAPTURE_ENV set, in that environment variable (the benches' FCM_TRACE).
file(WRITE "${CAPTURE}" "")
if(CAPTURE_ENV)
  set(ENV{${CAPTURE_ENV}} "${CAPTURE}")
  set(args "")
else()
  set(args "${CAPTURE}")
endif()
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(REMOVE "${CAPTURE}")
get_filename_component(name "${PROGRAM}" NAME)
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR "${name} did not exit normally: ${status}\n${err}")
endif()
if(status EQUAL 0)
  message(FATAL_ERROR "${name} accepted an empty capture:\n${out}")
endif()
if(NOT err MATCHES "cannot decode")
  message(FATAL_ERROR
    "${name} exited ${status} without the decode error:\n${err}")
endif()
