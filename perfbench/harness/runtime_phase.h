// The closed-loop epoch driver shared by the two sharded-runtime workloads:
// the calling thread ingests epoch after epoch and calls rotate_async() after
// each, so rotations overlap ingest as in production, while a waiter thread
// blocks in wait_epoch(i) in order and timestamps each publish.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sharded_framework.h"
#include "support.h"

namespace perfbench {

struct RuntimePhase {
  // rotate_async() return -> wait_epoch() return, one per epoch.
  std::vector<double> epoch_result_s;
  std::vector<runtime::ShardedFcmFramework::EpochReport> reports;
  // Phase start and each rotate_async() return, on the now_s() clock.
  double start_s = 0.0;
  std::vector<double> rotate_return_s;
  std::size_t epochs = 0;
  // The merged sketches of the last `keep_last` epochs, oldest first, for the
  // correctness gates and the accuracy figure.
  std::vector<framework::FcmFramework> last_epochs;
  double queue_high_water = 0.0;
  std::string waiter_error;
};

// `feed(epoch)` ingests one epoch into `rt`; `keep_going(next_epoch, elapsed)`
// decides whether to start another. Epochs count from 0 in each call, and
// `rt` may have run earlier phases. `tracer` (may be null) gets one
// runtime.rotate_async span per epoch; feed records its own spans. The
// merged sketches of the last `keep_last` epochs (at most the runtime's
// retained_epochs) are copied out.
template <typename Feed, typename KeepGoing>
RuntimePhase drive_epochs(runtime::ShardedFcmFramework& rt, Feed&& feed,
                          KeepGoing&& keep_going, Tracer* tracer,
                          std::size_t keep_last = 1) {
  RuntimePhase phase;
  std::vector<double>& rotate_return = phase.rotate_return_s;
  std::vector<double> published;
  rotate_return.reserve(1 << 14);
  published.reserve(1 << 14);
  // Epoch count, set before the final empty rotation that releases the waiter.
  std::atomic<std::size_t> final_epoch{std::numeric_limits<std::size_t>::max()};
  // Every earlier rotation has been merged: each phase ends by waiting for
  // its closing rotation.
  const std::size_t base = rt.epochs_completed();

  std::jthread waiter([&] {
    for (std::size_t i = 0;; ++i) {
      runtime::ShardedFcmFramework::EpochReport report;
      try {
        report = rt.wait_epoch(base + i);
      } catch (const std::exception& error) {
        phase.waiter_error = error.what();
        return;
      }
      const double at = now_s();
      if (i >= final_epoch.load(std::memory_order_acquire)) return;
      published.push_back(at);
      phase.reports.push_back(std::move(report));
    }
  });

  try {
    const double start = phase.start_s = now_s();
    std::size_t epoch = 0;
    for (; keep_going(epoch, now_s() - start); ++epoch) {
      feed(epoch);
      {
        const ScopedSpan span(tracer, "runtime.rotate_async", epoch);
        rt.rotate_async();
      }
      rotate_return.push_back(now_s());
    }
    phase.epochs = epoch;
    if (epoch > 0) rt.wait_epoch(base + epoch - 1);
    for (const double water : rt.queue_high_water()) {
      phase.queue_high_water = std::max(phase.queue_high_water, water);
    }
    for (std::size_t back = std::min(keep_last, epoch); back > 0; --back) {
      phase.last_epochs.push_back(rt.merged_epoch(back - 1));
    }
    final_epoch.store(epoch, std::memory_order_release);
    rt.rotate_async();
  } catch (const std::exception& error) {
    // The waiter may be blocked on an epoch that will never close; there is
    // no way to release it, so end the process rather than hang.
    std::fprintf(stderr, "perfbench: epoch driver failed: %s\n", error.what());
    std::fflush(stderr);
    std::_Exit(3);
  }
  waiter.join();

  const std::size_t n = std::min(published.size(), rotate_return.size());
  for (std::size_t i = 0; i < n; ++i) {
    phase.epoch_result_s.push_back(std::max(0.0, published[i] - rotate_return[i]));
  }
  return phase;
}

// Percentile q of the ingest rate in Mpps over consecutive groups of `group`
// epochs, each carrying `packets` packets and timed from the previous group's
// last rotate_async() return (or the phase start) to its own. A percentile
// over many groups keeps stalls elsewhere on the machine out of the figure.
inline double rate_mpps(const RuntimePhase& phase, std::size_t group,
                        std::uint64_t packets, double q) {
  std::vector<double> rates;
  double from = phase.start_s;
  for (std::size_t end = group; end <= phase.rotate_return_s.size(); end += group) {
    const double to = phase.rotate_return_s[end - 1];
    rates.push_back(static_cast<double>(packets) / (to - from) / 1e6);
    from = to;
  }
  return percentile(rates, q);
}

}  // namespace perfbench
