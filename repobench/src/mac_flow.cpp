// mac_flow: the user path on the paper's circuit. MAC Verilog text (written
// in set-up) -> read_verilog -> retarget_testbench -> a fresh
// CampaignEngine -> run_estimation_flow(engine, FlowConfig) at the paper's
// 50% / knn_paper / 170 setting, scored against the MAC ground-truth
// campaign computed in set-up. The fresh engine keeps the golden run in the
// timed path (the (netlist, testbench) overload would hit the registry).

#include <memory>
#include <optional>
#include <string>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "core/estimation_flow.hpp"
#include "features/extractor.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/verilog_writer.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

ffr::circuits::MacTestbenchConfig mac_bench_config(std::uint64_t seed) {
  ffr::circuits::MacTestbenchConfig config;
  config.seed = derive_seed(seed, 1);
  fix_payload_length(config);
  return config;
}

struct MacFlowInputs {
  explicit MacFlowInputs(const RunOptions& opts)
      : mac(ffr::circuits::build_mac_core()),
        workload(ffr::circuits::build_mac_testbench(mac, mac_bench_config(opts.seed))),
        verilog(ffr::netlist::to_verilog(mac.netlist)) {
    ffr::fault::CampaignEngine engine(mac.netlist, workload.tb);
    ffr::fault::CampaignConfig config;
    config.seed = derive_seed(opts.seed, 2);
    config.num_threads = opts.threads;
    truth = engine.run(config);
    flow.seed = derive_seed(opts.seed, 3);
    flow.num_threads = opts.threads;
  }

  ffr::circuits::MacCore mac;
  ffr::circuits::MacTestbench workload;
  std::string verilog;
  ffr::fault::CampaignResult truth;
  ffr::core::FlowConfig flow;
};

/// What one flow produced that must repeat exactly.
struct FlowFingerprint {
  std::uint64_t fdr_digest = 0;
  ffr::ml::RegressionMetrics heldout;
};

}  // namespace

void run_mac_flow(Bench& bench) {
  std::unique_ptr<MacFlowInputs> inputs;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    inputs.reset();
    inputs = std::make_unique<MacFlowInputs>(bench.opts);
  });
  bench.report.set("setup_s", setup_s, "s");
  bench.host.lanes_per_pass = inputs->truth.lanes_per_pass;
  bench.host.blocks_per_pass = inputs->truth.blocks_per_pass;

  std::optional<FlowFingerprint> first;
  std::vector<double> golden_s, campaign_s, training_s;
  const OpTimes times = run_timed_ops(
      bench.opts.seconds, 3, bench.opts.trace, bench.tracer, bench.gate,
      [&](Tracer* tracer) {
        std::optional<ffr::netlist::Netlist> nl;
        std::optional<ffr::sim::Testbench> tb;
        std::unique_ptr<ffr::fault::CampaignEngine> engine;
        ffr::core::FlowResult flow;
        double seconds = 0.0;
        {
          const Span op(tracer, "mac_flow");
          const ffr::util::Stopwatch clock;
          {
            const Span span(tracer, "netlist.read_verilog");
            nl.emplace(ffr::netlist::read_verilog(inputs->verilog, "mac_core.v"));
          }
          tb.emplace(ffr::sim::retarget_testbench(inputs->workload.tb,
                                                  inputs->mac.netlist, *nl));
          {
            const Span span(tracer, "fault.engine_build");
            engine = std::make_unique<ffr::fault::CampaignEngine>(*nl, *tb);
          }
          {
            const Span span(tracer, "core.flow");
            flow = ffr::core::run_estimation_flow(*engine, inputs->flow);
          }
          seconds = clock.elapsed_seconds();
        }
        golden_s.push_back(flow.golden_seconds);
        campaign_s.push_back(flow.campaign_seconds);
        training_s.push_back(flow.training_seconds);

        // Checks, outside the timed part: the flow's features equal a
        // direct extraction, and its FDR vector and held-out scores repeat.
        ffr::features::FeatureMatrix direct;
        {
          const Span span(tracer, "features.extract");
          direct = ffr::features::extract_features(*nl, engine->golden().activity);
        }
        const FlowFingerprint got{digest(flow.fdr),
                                  ffr::core::score_against_campaign(flow, inputs->truth)};
        if (!first) first = got;
        const bool same_features =
            same_values(direct.values.data(), flow.features.values.data());
        const bool repeats =
            got.fdr_digest == first->fdr_digest &&
            same_values(std::vector<double>{got.heldout.r2, got.heldout.mae},
                        std::vector<double>{first->heldout.r2, first->heldout.mae});
        bench.gate.record(same_features && repeats,
                          !same_features ? "mac_flow: features differ from direct extraction"
                                         : "mac_flow: FDR digest or held-out scores did not repeat");
        return seconds;
      });

  report_serial_ops(bench, times);
  const std::map<std::string, double> self = report_trace(bench, times);
  for (const auto& [span, metric] :
       {std::pair{"netlist.read_verilog", "netlist.read_verilog_s"},
        std::pair{"fault.engine_build", "fault.engine_build_s"},
        std::pair{"features.extract", "features.extract_s"}}) {
    if (self.count(span) != 0) bench.report.set(metric, self.at(span), "s");
  }
  if (!first) return;
  bench.report.set("core.flow_golden_s", median(golden_s), "s");
  bench.report.set("core.flow_campaign_s", median(campaign_s), "s");
  bench.report.set("core.flow_training_s", median(training_s), "s");
  bench.report.set("core.heldout_r2", first->heldout.r2, "ratio");
  bench.report.set("core.heldout_mae", first->heldout.mae, "fdr");
}

}  // namespace repobench
