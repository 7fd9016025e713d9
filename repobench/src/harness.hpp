#pragma once
/// \file harness.hpp
/// \brief Benchmark harness: order statistics, in-memory spans with self-time
/// accounting, the correctness gate, the metric report and the host
/// fingerprint. Everything here is measured from outside the library: spans
/// wrap the benchmark's own calls into each module's public functions.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"

namespace repobench {

// ---- order statistics ------------------------------------------------------

/// Median of `values` (mean of the two middle values for an even count).
/// \throws std::invalid_argument on an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Percentile `p` in [0, 100] by linear interpolation between closest ranks
/// (rank p/100 * (n - 1)), the usual "linear" definition.
/// \throws std::invalid_argument on an empty input or p outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The three cut points that split `values` into quarters, with the same
/// "exclusive" method as Python's statistics.quantiles(values, n=4).
/// \throws std::invalid_argument on fewer than two values.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> values);

// ---- spans -----------------------------------------------------------------

/// One finished span. `parent` is 0 for a root span; spans of one timed
/// operation share `op`.
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  double start_s = 0.0;  ///< Seconds since the tracer was created.
  double end_s = 0.0;
};

/// Collects spans in memory; written out once, when the benchmark ends.
/// Thread-safe: any number of client threads may record concurrently.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] double now_s() const;
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(SpanRecord span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Writes every span as a Chrome trace-event JSON array (opens in
  /// Perfetto or chrome://tracing); parent and op ids go in "args".
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. A null tracer makes it a no-op, so untraced
/// operations pay one branch. The parent is the innermost open span of the
/// same thread; a root span opens a new operation id.
class Span {
 public:
  Span(Tracer* tracer, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanRecord record_;
  std::uint64_t outer_span_ = 0;
  std::uint64_t outer_op_ = 0;
};

/// Total self time per span name: each span's duration minus the part of
/// its interval covered by its direct children (overlapping children are
/// counted once, and clipped to the parent).
[[nodiscard]] std::map<std::string, double> self_times(
    std::span<const SpanRecord> spans);

// ---- correctness gate ------------------------------------------------------

/// Counts checked operations and failures. An operation is attempted once
/// and fails if any of its checks fails or it throws.
class Gate {
 public:
  /// Records one operation's outcome; `what` names the failed check.
  void record(bool ok, std::string_view what = {});

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// FNV-1a over the bit patterns of `values`: equal iff bit-identical
/// (up to hash collisions).
[[nodiscard]] std::uint64_t digest(std::span<const double> values);

/// True when every flip-flop of `oracle` appears in `got` with the same
/// injection count and per-class outcome counts.
[[nodiscard]] bool same_class_counts(const ffr::fault::CampaignResult& got,
                                     const ffr::fault::CampaignResult& oracle);

/// True when the campaign's deterministic cost counters are equal.
[[nodiscard]] bool same_counters(const ffr::fault::CampaignResult& a,
                                 const ffr::fault::CampaignResult& b);

/// Bitwise equality of two value vectors.
[[nodiscard]] bool same_values(std::span<const double> a, std::span<const double> b);

// ---- run options, timing loop and report -----------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< min(nproc, 4).
  std::filesystem::path work_dir = ".";
};

/// Deterministic sub-seed `stream` of the workload seed (splitmix64), so
/// every generated input (testbenches, campaign, CV split, request mix)
/// follows from the one benchmark argument.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Wall times of the timed operations of one run, split by whether the
/// operation was traced.
struct OpTimes {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
};

/// Calls `op` until `seconds` have elapsed and at least `min_ops` ran.
/// `op` returns the wall seconds of its timed part (checks excluded) and
/// receives the tracer for traced operations, nullptr otherwise. With
/// `trace` set every other operation is traced, so traced and untraced
/// times come from the same conditions and their difference is the
/// tracing overhead. `op` records its own checks in `gate`; an operation
/// that throws is recorded there as failed and contributes no time.
OpTimes run_timed_ops(double seconds, std::size_t min_ops, bool trace,
                      Tracer& tracer, Gate& gate,
                      const std::function<double(Tracer*)>& op);

/// Runs `setup` `repeats` times and returns the median wall seconds; the
/// caller keeps whatever the last call built.
double median_setup_seconds(std::size_t repeats, const std::function<void()>& setup);

/// Metric name -> (value, unit), printed in insertion-independent (sorted)
/// order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  [[nodiscard]] double get(const std::string& name) const { return metrics_.at(name).first; }
  /// The benchmark's result line: correct, attempted, failed, metrics.
  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Where a result came from, so numbers from different hosts are never
/// compared silently.
struct HostInfo {
  std::string cpu_model;
  std::size_t nproc = 0;
  std::size_t threads = 0;
  std::size_t native_lane_width = 0;
  std::size_t lanes_per_pass = 0;   ///< Resolved campaign shape (width x blocks).
  std::size_t blocks_per_pass = 0;
};

[[nodiscard]] HostInfo probe_host(std::size_t threads);
[[nodiscard]] std::string host_json(const HostInfo& host);

/// Formats a double with every digit needed to read it back exactly.
[[nodiscard]] std::string json_number(double value);

}  // namespace repobench
