// Harness self-tests: the order statistics, span self-time accounting, and
// proof that the correctness gate fires on a single flipped class count or
// a single perturbed prediction. Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_order_statistics() {
  using repobench::median;
  using repobench::percentile;
  using repobench::quartiles;
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  expect(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 50) == 3.0, "p50");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 90), 3.7), "p90 interpolates");
  expect(percentile({7.0}, 99) == 7.0, "percentile of one value");
  expect(percentile({1.0, 9.0}, 0) == 1.0 && percentile({1.0, 9.0}, 100) == 9.0,
         "percentile end points");
  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const std::vector<double> q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25), "quartiles of 1..10");
  // Python: statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
  const std::vector<double> q4 = quartiles({1, 2, 4, 8});
  expect(near(q4[0], 1.25) && near(q4[1], 3.0) && near(q4[2], 7.0), "quartiles of 4 values");
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped ends extrapolate)
  const std::vector<double> q2 = quartiles({2, 1});
  expect(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25), "quartiles of 2 values");
  // Python: statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const std::vector<double> q3 = quartiles({3, 1, 2});
  expect(near(q3[0], 1.0) && near(q3[1], 2.0) && near(q3[2], 3.0), "quartiles of 3 values");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

void test_self_times() {
  using repobench::SpanRecord;
  // parent [0, 10] with children [1, 3] and [2, 5] (overlapping, union 4)
  // and [9, 12] (clipped to 1): self = 10 - 5 = 5. Grandchild [1.5, 2.5]
  // under the first child: that child's self = 2 - 1 = 1.
  const std::vector<SpanRecord> spans = {
      {"parent", 1, 0, 1, 0, 0.0, 10.0},
      {"child", 2, 1, 1, 0, 1.0, 3.0},
      {"child", 3, 1, 1, 0, 2.0, 5.0},
      {"late", 4, 1, 1, 0, 9.0, 12.0},
      {"grandchild", 5, 2, 1, 0, 1.5, 2.5},
  };
  const auto self = repobench::self_times(spans);
  expect(near(self.at("parent"), 5.0), "parent self time = duration - covered children");
  expect(near(self.at("child"), 1.0 + 3.0), "children summed by name");
  expect(near(self.at("late"), 3.0), "leaf self time = duration");
  expect(near(self.at("grandchild"), 1.0), "grandchild self time");

  // Live spans: nesting sets parents, a null tracer records nothing.
  repobench::Tracer tracer;
  {
    const repobench::Span outer(&tracer, "outer");
    const repobench::Span inner(&tracer, "inner");
    const repobench::Span off(nullptr, "off");
  }
  const std::vector<SpanRecord> live = tracer.spans();
  expect(live.size() == 2, "two live spans recorded");
  if (live.size() == 2) {
    expect(live[0].name == "inner" && live[1].name == "outer", "inner closes first");
    expect(live[0].parent == live[1].id && live[1].parent == 0, "inner's parent is outer");
    expect(live[0].op == live[1].op, "spans of one operation share its id");
  }
}

ffr::fault::CampaignResult campaign() {
  ffr::fault::CampaignResult result;
  for (std::size_t i = 0; i < 3; ++i) {
    ffr::fault::FfResult ff;
    ff.ff_index = 10 + i;
    ff.injections = 170;
    ff.classes.counts[0] = 150 - i;
    ff.classes.counts[1] = 20 + i;
    result.per_ff.push_back(ff);
  }
  result.total_injections = 510;
  result.total_sim_passes = 3;
  return result;
}

void test_gate() {
  using repobench::Gate;
  const ffr::fault::CampaignResult oracle = campaign();
  ffr::fault::CampaignResult flipped = campaign();
  ++flipped.per_ff[1].classes.counts[1];
  --flipped.per_ff[1].classes.counts[0];
  expect(repobench::same_class_counts(campaign(), oracle), "identical counts pass");
  expect(!repobench::same_class_counts(flipped, oracle), "one flipped class count fails");
  ffr::fault::CampaignResult missing = campaign();
  missing.per_ff.pop_back();
  expect(!repobench::same_class_counts(missing, oracle), "a missing flip-flop fails");
  ffr::fault::CampaignResult more_passes = campaign();
  ++more_passes.total_sim_passes;
  expect(!repobench::same_counters(more_passes, oracle), "a changed counter fails");

  const std::vector<double> want = {0.1, 0.25, 0.5};
  std::vector<double> perturbed = want;
  perturbed[2] = std::nextafter(perturbed[2], 1.0);
  expect(repobench::same_values(want, want), "identical predictions pass");
  expect(!repobench::same_values(perturbed, want), "one perturbed prediction fails");
  expect(repobench::digest(perturbed) != repobench::digest(want), "digest sees one ulp");

  // The gate counts the failed operation.
  Gate gate;
  gate.record(repobench::same_class_counts(campaign(), oracle));
  gate.record(repobench::same_class_counts(flipped, oracle), "flipped class count");
  gate.record(repobench::same_values(perturbed, want), "perturbed prediction");
  expect(gate.attempted() == 3 && gate.failed() == 2, "gate counts both failures");
}

}  // namespace

int main() {
  test_order_statistics();
  test_self_times();
  test_gate();
  if (failures != 0) return 1;
  std::printf("repobench selftest: ok\n");
  return 0;
}
