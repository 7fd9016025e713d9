// Repository benchmark binary. One run: one workload, one seed, a time
// budget, traced or not. Prints the host fingerprint and, as its last line,
// the result object {correct, attempted, failed, metrics}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Usually started
// through run.py, which builds it first; see README.md.
//
//   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace repobench {

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;  // name, unit

const MetricList kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"op_p50_ms", "ms"}, {"ops_per_s", "1/s"}};

MetricList per_layer_metrics() {
  MetricList list = {
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"netlist.read_verilog_s", "s"},
      {"fault.engine_build_s", "s"},
      {"fault.campaign_s", "s"},
      {"fault.passes", "count"},
      {"fault.cycles_simulated", "count"},
      {"fault.ops_evaluated", "count"},
      {"fault.checkpoint_restores", "count"},
      {"fault.lane_fill", "ratio"},
      {"fault.ops_per_s", "1/s"},
      {"features.extract_s", "s"},
      {"ml.curve_test_r2", "ratio"},
      {"core.flow_golden_s", "s"},
      {"core.flow_campaign_s", "s"},
      {"core.flow_training_s", "s"},
      {"core.heldout_r2", "ratio"},
      {"core.heldout_mae", "fdr"},
      {"service.content_hash_ms", "ms"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.run_p50_ms.feature_predict", "ms"},
      {"service.run_p50_ms.netlist_predict", "ms"},
      {"service.run_p50_ms.campaign", "ms"},
      {"service.predict_p99_ms", "ms"},
      {"service.campaign_req_p50_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.engine_builds", "count"},
  };
  for (const char* model : {"linear", "knn_paper", "svr_paper"}) {
    for (const char* stage : {"fit_s", "predict_s", "cv_self_s"}) {
      list.emplace_back(std::string("ml.") + stage + "." + model, "s");
    }
  }
  return list;
}

struct Args {
  RunOptions opts;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      args.ok = false;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.opts.work_dir = value;
    } else {
      args.ok = false;
    }
  }
  args.ok = args.ok && have_workload;
  return args;
}

}  // namespace

void report_latencies(Bench& bench, std::vector<double> ms) {
  if (ms.empty()) return;
  bench.report.set("op_p50_ms", median(ms), "ms");
  bench.op_ms = std::move(ms);
}

void report_serial_ops(Bench& bench, const OpTimes& times) {
  std::vector<double> ms;
  double total_s = 0.0;
  for (const double s : times.untraced_s) {
    ms.push_back(s * 1e3);
    total_s += s;
  }
  if (ms.empty()) return;
  bench.report.set("ops_per_s", static_cast<double>(ms.size()) / total_s, "1/s");
  report_latencies(bench, std::move(ms));
}

std::map<std::string, double> report_trace(Bench& bench, const OpTimes& times) {
  std::map<std::string, double> per_op;
  if (!bench.opts.trace) return per_op;
  const std::vector<SpanRecord> spans = bench.tracer.spans();
  const double traced = static_cast<double>(std::max<std::size_t>(1, times.traced_s.size()));
  for (const auto& [name, total] : self_times(spans)) per_op[name] = total / traced;
  bench.report.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!times.traced_s.empty() && !times.untraced_s.empty()) {
    bench.report.set("trace.overhead_pct",
                     (median(times.traced_s) / median(times.untraced_s) - 1.0) * 100.0, "%");
  }
  return per_op;
}

}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception&) {  // a non-numeric --seed or --seconds
    args.ok = false;
  }
  if (!args.ok) {
    std::cerr << "usage: repobench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  Bench bench;
  bench.opts = args.opts;
  bench.opts.threads = std::min<std::size_t>(4, std::max(1U, std::thread::hardware_concurrency()));
  bench.host = probe_host(bench.opts.threads);

  try {
    const std::string& w = bench.opts.workload;
    if (w == "relay_campaign") {
      run_relay_campaign(bench);
    } else if (w == "mac_flow") {
      run_mac_flow(bench);
    } else if (w == "mac_learning_curve") {
      run_mac_learning_curve(bench);
    } else if (w == "service_mix") {
      run_service_mix(bench);
    } else {
      std::cerr << "unknown workload '" << w << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
    return 1;
  }
  bench.report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // The selected metric set; a missing end-to-end metric means the run
  // measured nothing, a layer the workload does not touch reads 0.
  Report out;
  if (bench.opts.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      out.set(name, bench.report.has(name) ? bench.report.get(name) : 0.0, unit);
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      if (!bench.report.has(name)) {
        std::cerr << "benchmark failed: no value for " << name << "\n";
        return 1;
      }
      out.set(name, bench.report.get(name), unit);
    }
  }

  std::cout << "host " << host_json(bench.host) << "\n";
  if (bench.op_ms.size() >= 2) {
    const std::vector<double> q = quartiles(bench.op_ms);
    std::cout << "ops {\"untraced\": " << bench.op_ms.size() << ", \"quartiles_ms\": ["
              << json_number(q[0]) << ", " << json_number(q[1]) << ", " << json_number(q[2])
              << "]}\n";
  }
  if (bench.opts.trace) {
    const std::filesystem::path trace_path =
        bench.opts.work_dir /
        ("trace-" + bench.opts.workload + "-seed" + std::to_string(bench.opts.seed) + ".json");
    try {
      bench.tracer.write_chrome_trace(trace_path);
    } catch (const std::exception& e) {
      std::cerr << "benchmark failed: " << e.what() << "\n";
      return 1;
    }
    std::cout << "spans " << trace_path.string() << "\n";
  }
  const bool correct = bench.gate.attempted() > 0 && bench.gate.failed() == 0;
  std::cout << out.result_json(correct, bench.gate.attempted(), bench.gate.failed())
            << std::endl;
  return 0;
}
