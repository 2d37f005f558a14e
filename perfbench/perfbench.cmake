# Build file of the benchmark harness. run.py configures the repository's own
# top-level CMakeLists.txt with this file as the project include hook
# (-DCMAKE_PROJECT_INCLUDE=.../perfbench.cmake). The hook defers defining the
# harness targets to the end of the top-level file, so they see every library
# target and directory-wide setting (include paths, contract level, warnings)
# exactly as the repository builds them. Only the harness targets are built.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  set(h "${PERFBENCH_DIR}/harness")
  add_executable(fcm_perfbench
    ${h}/main.cpp
    ${h}/stats.cpp
    ${h}/support.cpp
    ${h}/pcap_writer.cpp
    ${h}/probes.cpp
    ${h}/dispersed_keys.cpp
    ${h}/capture_bytes.cpp
    ${h}/network_epochs.cpp
  )
  target_link_libraries(fcm_perfbench PRIVATE
    fcm_agg fcm_runtime fcm_datapath fcm_framework fcm_controlplane fcm_core
    fcm_flow fcm_common fcm_obs Threads::Threads)
  target_compile_definitions(fcm_perfbench PRIVATE
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  add_executable(perfbench_selftest ${h}/selftest.cpp ${h}/stats.cpp)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_targets)
