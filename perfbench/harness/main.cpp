// fcm_perfbench: runs one benchmark workload and prints one JSON line with
// every metric it measured, its correctness ledger and its provenance.
//
//   fcm_perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Exit codes: 0 all gates passed, 1 a gate failed, 2 usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/personality.h>
#include <unistd.h>

#include "common/simd_dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Result;
using perfbench::RunOptions;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  std::ostringstream text;
  text.precision(17);
  text << value;
  return text.str();
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string to_json(const RunOptions& options, const Result& result) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(options.workload)
      << ",\"seed\":" << options.seed << ",\"seconds\":" << json_number(options.seconds)
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"correct\":" << (result.ledger().failed() == 0 ? "true" : "false")
      << ",\"attempted\":" << result.ledger().attempted()
      << ",\"failed\":" << result.ledger().failed()
      << ",\"ops_failed_ratio\":" << json_number(result.ledger().ratio());
  out << ",\"metrics\":{";
  bool first = true;
  for (const perfbench::Metric& metric : result.metrics()) {
    out << (first ? "" : ",") << json_string(metric.name) << ":{\"value\":"
        << json_number(metric.value) << ",\"unit\":" << json_string(metric.unit)
        << ",\"samples\":" << metric.samples
        << ",\"source\":" << json_string(metric.source) << "}";
    first = false;
  }
  out << "},\"params\":{";
  first = true;
  for (const auto& [name, value] : result.params()) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_string(value);
    first = false;
  }
  out << "},\"failures\":[";
  first = true;
  for (const std::string& failure : result.failures()) {
    out << (first ? "" : ",") << json_string(failure);
    first = false;
  }
  out << "],\"provenance\":{\"hardware_concurrency\":"
      << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"kernel_tier\":"
      << json_string(std::string(fcm::common::simd::kernel_tier_name(
             fcm::common::simd::active_kernel_tier())))
      << "},\"spans_file\":" << json_string(result.spans_file) << "}";
  return out.str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fcm_perfbench: %s\n"
               "usage: fcm_perfbench --workload dispersed_keys|capture_bytes|"
               "network_epochs --seed N --seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        options.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
      if (used != 0 && used != value.size()) usage(("bad number for " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad number for " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.workdir.empty()) usage("--workdir is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // Run with address-space randomisation off: where the large arrays land
  // relative to cache sets otherwise changes from process to process, and
  // with it the timings. Re-executes itself once; runs as is if refused.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona | ADDR_NO_RANDOMIZE)) != -1) {
    execv("/proc/self/exe", argv);
  }
  const RunOptions options = parse(argc, argv);
  Result result;
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "dispersed_keys") {
      perfbench::run_dispersed_keys(options, result);
    } else if (options.workload == "capture_bytes") {
      perfbench::run_capture_bytes(options, result);
    } else if (options.workload == "network_epochs") {
      perfbench::run_network_epochs(options, result);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fcm_perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 2;
  }
  std::printf("%s\n", to_json(options, result).c_str());
  return result.ledger().failed() == 0 ? 0 : 1;
}
