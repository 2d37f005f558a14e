// Self-tests for the harness's statistics helpers: percentiles and their
// sample counts, tail percentiles suppressed below their sample floor, the
// reservoir, and the failure-ratio arithmetic. Exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void test_percentile() {
  using perfbench::percentile;
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({7.0}, 0.5) == 7.0);
  CHECK(percentile({7.0}, 0.99) == 7.0);
  CHECK(percentile(one_to(10), 0.5) == 5.0);   // nearest rank ceil(5) = 5
  CHECK(percentile(one_to(11), 0.5) == 6.0);   // ceil(5.5) = 6
  CHECK(percentile(one_to(100), 0.9) == 90.0);
  CHECK(percentile(one_to(1000), 0.99) == 990.0);
  CHECK(percentile(one_to(4), 1.0) == 4.0);
}

void test_tail_floor() {
  using perfbench::summarize;
  using perfbench::tail_supported;
  CHECK(!tail_supported(0, 0.9));
  CHECK(!tail_supported(99, 0.9));
  CHECK(tail_supported(100, 0.9));
  CHECK(!tail_supported(999, 0.99));
  CHECK(tail_supported(1000, 0.99));

  const perfbench::Distribution few = summarize(one_to(99));
  CHECK(few.count == 99);
  CHECK(few.p50 == 50.0);
  CHECK(!few.p90.has_value());
  CHECK(!few.p99.has_value());

  const perfbench::Distribution hundred = summarize(one_to(100));
  CHECK(hundred.count == 100);
  CHECK(hundred.p90.has_value() && *hundred.p90 == 90.0);
  CHECK(!hundred.p99.has_value());

  const perfbench::Distribution many = summarize(one_to(1000));
  CHECK(many.count == 1000);
  CHECK(many.p99.has_value() && *many.p99 == 990.0);

  const perfbench::Distribution none = summarize({});
  CHECK(none.count == 0 && none.p50 == 0.0 && !none.p90);
}

void test_trimmed_mean() {
  using perfbench::trimmed_mean;
  CHECK(perfbench::mean({}) == 0.0);
  CHECK(perfbench::mean({1.0, 2.0, 6.0}) == 3.0);
  CHECK(trimmed_mean({}, 0.1) == 0.0);
  CHECK(trimmed_mean({3.0}, 0.1) == 3.0);
  // 10 samples, 10% trim: drop 1 from each end, mean of 2..9.
  CHECK(trimmed_mean(one_to(10), 0.1) == 5.5);
  std::vector<double> outlier = one_to(10);
  outlier.back() = 1e9;  // replaces the 1: sorted 2..10, 1e9
  CHECK(trimmed_mean(outlier, 0.1) == 6.5);  // the outlier is trimmed: mean of 3..10
  CHECK(trimmed_mean({1.0, 2.0, 100.0}, 0.0) == 103.0 / 3.0);
}

void test_reservoir() {
  perfbench::Reservoir small(8, 1);
  for (int i = 0; i < 5; ++i) small.add(i);
  CHECK(small.samples().size() == 5 && small.seen() == 5);

  perfbench::Reservoir bounded(1000, 7);
  for (int i = 0; i < 100000; ++i) bounded.add(i);
  CHECK(bounded.samples().size() == 1000);
  CHECK(bounded.seen() == 100000);
  // A uniform sample of 0..99999 has its median near 50000.
  const double median = perfbench::percentile(bounded.samples(), 0.5);
  CHECK(std::abs(median - 50000.0) < 10000.0);
}

void test_failure_ledger() {
  perfbench::FailureLedger ledger;
  CHECK(ledger.ratio() == 0.0);
  ledger.record(1000, 0);
  ledger.record(1, 0);
  CHECK(ledger.attempted() == 1001 && ledger.failed() == 0 && ledger.ratio() == 0.0);
  ledger.record(1, 1);
  ledger.record(998, 3);
  CHECK(ledger.attempted() == 2000);
  CHECK(ledger.failed() == 4);
  CHECK(ledger.ratio() == 4.0 / 2000.0);
}

}  // namespace

int main() {
  test_percentile();
  test_tail_floor();
  test_trimmed_mean();
  test_reservoir();
  test_failure_ledger();
  if (g_failures == 0) std::printf("selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
