#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/lane_block.hpp"
#include "util/stopwatch.hpp"

namespace repobench {

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::vector<double> quartiles(std::vector<double> values) {
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4.
  if (values.size() < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  std::vector<double> cuts;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;  // after clamping: may extrapolate
    cuts.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                    values[j] * static_cast<double>(delta)) / 4.0);
  }
  return cuts;
}

// ---- spans -----------------------------------------------------------------

namespace {

thread_local std::uint64_t t_open_span = 0;
thread_local std::uint64_t t_open_op = 0;

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "[\n";
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << s.thread << ",\"ts\":" << json_number(s.start_s * 1e6)
        << ",\"dur\":" << json_number((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

Span::Span(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.name = std::move(name);
  record_.id = tracer_->next_id();
  record_.parent = t_open_span;
  record_.op = t_open_span == 0 ? record_.id : t_open_op;
  record_.thread = thread_tag();
  outer_span_ = t_open_span;
  outer_op_ = t_open_op;
  t_open_span = record_.id;
  t_open_op = record_.op;
  record_.start_s = tracer_->now_s();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_s = tracer_->now_s();
  t_open_span = outer_span_;
  t_open_op = outer_op_;
  tracer_->record(std::move(record_));
}

std::map<std::string, double> self_times(std::span<const SpanRecord> spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> totals;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> kids = it->second;
      std::sort(kids.begin(), kids.end());
      double reach = s.start_s;  // union of intervals, clipped to the parent
      for (auto [begin, end] : kids) {
        begin = std::max(begin, reach);
        end = std::min(end, s.end_s);
        if (end > begin) {
          covered += end - begin;
          reach = end;
        }
      }
    }
    totals[s.name] += (s.end_s - s.start_s) - covered;
  }
  return totals;
}

// ---- correctness gate ------------------------------------------------------

void Gate::record(bool ok, std::string_view what) {
  attempted_.fetch_add(1);
  if (ok) return;
  // Report the first few failures; the count carries the rest.
  if (failed_.fetch_add(1) < 5) {
    std::cerr << "gate: check failed: " << (what.empty() ? "unnamed" : what) << "\n";
  }
}

std::uint64_t digest(std::span<const double> values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xFF;
      hash *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  return hash;
}

bool same_class_counts(const ffr::fault::CampaignResult& got,
                       const ffr::fault::CampaignResult& oracle) {
  std::map<std::size_t, const ffr::fault::FfResult*> by_ff;
  for (const auto& ff : got.per_ff) by_ff[ff.ff_index] = &ff;
  for (const auto& want : oracle.per_ff) {
    const auto it = by_ff.find(want.ff_index);
    if (it == by_ff.end()) return false;
    if (it->second->injections != want.injections ||
        it->second->classes.counts != want.classes.counts) {
      return false;
    }
  }
  return true;
}

bool same_counters(const ffr::fault::CampaignResult& a,
                   const ffr::fault::CampaignResult& b) {
  return a.total_injections == b.total_injections &&
         a.total_sim_passes == b.total_sim_passes &&
         a.cycles_simulated == b.cycles_simulated &&
         a.ops_evaluated == b.ops_evaluated &&
         a.checkpoint_restores == b.checkpoint_restores;
}

bool same_values(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// ---- run options, timing loop and report -----------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

OpTimes run_timed_ops(double seconds, std::size_t min_ops, bool trace,
                      Tracer& tracer, Gate& gate,
                      const std::function<double(Tracer*)>& op) {
  OpTimes times;
  const ffr::util::Stopwatch clock;
  for (std::size_t i = 0; clock.elapsed_seconds() < seconds || i < min_ops; ++i) {
    const bool traced = trace && i % 2 == 1;
    try {
      const double s = op(traced ? &tracer : nullptr);
      (traced ? times.traced_s : times.untraced_s).push_back(s);
    } catch (const std::exception& e) {
      gate.record(false, e.what());
    }
  }
  return times;
}

double median_setup_seconds(std::size_t repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    const ffr::util::Stopwatch clock;
    setup();
    times.push_back(clock.elapsed_seconds());
  }
  return median(times);
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    out << (first ? "" : ", ") << "\"" << json_escape(name)
        << "\": {\"value\": " << json_number(entry.first) << ", \"unit\": \""
        << json_escape(entry.second) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostInfo probe_host(std::size_t threads) {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.nproc = std::max(1U, std::thread::hardware_concurrency());
  host.threads = threads;
  host.native_lane_width = ffr::sim::lanes_of(ffr::sim::native_lane_width());
  return host;
}

std::string host_json(const HostInfo& host) {
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << json_escape(host.cpu_model)
      << "\", \"nproc\": " << host.nproc << ", \"threads\": " << host.threads
      << ", \"native_lane_width\": " << host.native_lane_width
      << ", \"lanes_per_pass\": " << host.lanes_per_pass
      << ", \"blocks_per_pass\": " << host.blocks_per_pass << "}";
  return out.str();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace repobench
