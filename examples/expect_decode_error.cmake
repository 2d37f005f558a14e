# Runs pcap_demo on a zero-byte capture and expects a clean rejection: a
# non-zero exit status (not a signal) and the "cannot decode" message.
#
#   cmake -DDEMO=<pcap_demo> -DCAPTURE=<temp file> \
#         -P expect_decode_error.cmake
file(WRITE "${CAPTURE}" "")
execute_process(COMMAND "${DEMO}" "${CAPTURE}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(REMOVE "${CAPTURE}")
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR "pcap_demo did not exit normally: ${status}\n${err}")
endif()
if(status EQUAL 0)
  message(FATAL_ERROR "pcap_demo accepted an empty capture:\n${out}")
endif()
if(NOT err MATCHES "cannot decode")
  message(FATAL_ERROR
    "pcap_demo exited ${status} without the decode error:\n${err}")
endif()
