#pragma once
/// \file workloads.hpp
/// \brief The four benchmark workloads. Each builds its inputs from the
/// workload seed (timed as set-up), runs its timed operation until the run's
/// time budget is spent, checks every output and fills the report with its
/// end-to-end and per-layer metrics.

#include "harness.hpp"

namespace repobench {

/// Everything one benchmark run shares between the harness and a workload.
struct Bench {
  RunOptions opts;
  Tracer tracer;
  Gate gate;
  Report report;
  HostInfo host;
  /// Untraced operation latencies behind op_p50_ms, in ms.
  std::vector<double> op_ms;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr std::size_t kSetupRepeats = 3;

/// Pins a testbench config's frame payloads to the midpoint of its default
/// length range. The seed still draws every payload byte, but each seed's
/// workload has the same number of cycles, so run-to-run spread measures
/// the program and not the workload length.
template <typename Config>
void fix_payload_length(Config& config) {
  const std::size_t mid = (config.min_payload + config.max_payload) / 2;
  config.min_payload = mid;
  config.max_payload = mid;
}

void run_relay_campaign(Bench& bench);
void run_mac_flow(Bench& bench);
void run_mac_learning_curve(Bench& bench);
void run_service_mix(Bench& bench);

/// Sets op_ms and op_p50_ms from `ms`.
void report_latencies(Bench& bench, std::vector<double> ms);

/// report_latencies() plus ops_per_s from the untraced operation times of
/// a workload whose operations run one after another.
void report_serial_ops(Bench& bench, const OpTimes& times);

/// Per-span-name self seconds per traced operation, plus the trace.*
/// metrics (span count, traced-vs-untraced overhead) when `trace` is set.
[[nodiscard]] std::map<std::string, double> report_trace(Bench& bench,
                                                         const OpTimes& times);

}  // namespace repobench
