// relay_campaign: one full paper-scale CampaignEngine::run on relay_core
// (1054 flip-flops x 170 injections, default CampaignConfig), engine built
// in set-up. sim/fault do nearly all the work.

#include <algorithm>
#include <memory>
#include <optional>

#include "circuits/relay_core.hpp"
#include "fault/engine.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

/// Flip-flops in the flat-campaign oracle sample.
constexpr std::size_t kOracleFlipFlops = 32;

ffr::circuits::RelayTestbenchConfig relay_bench_config(std::uint64_t seed) {
  ffr::circuits::RelayTestbenchConfig config;
  config.seed = derive_seed(seed, 1);
  fix_payload_length(config);
  return config;
}

struct RelayInputs {
  explicit RelayInputs(const RunOptions& opts)
      : core(ffr::circuits::build_relay_core()),
        bench(ffr::circuits::build_relay_testbench(core, relay_bench_config(opts.seed))),
        engine(core.netlist, bench.tb) {
    config.seed = derive_seed(opts.seed, 2);
    config.num_threads = opts.threads;
    // The oracle: the flat reference campaign on a seeded flip-flop sample.
    ffr::fault::CampaignConfig flat = config;
    ffr::util::Rng rng(derive_seed(opts.seed, 3));
    flat.ff_subset = rng.sample_without_replacement(
        core.netlist.num_flip_flops(),
        std::min(kOracleFlipFlops, core.netlist.num_flip_flops()));
    std::sort(flat.ff_subset.begin(), flat.ff_subset.end());
    oracle = ffr::fault::run_campaign(core.netlist, bench.tb, engine.golden(), flat);
  }

  ffr::circuits::RelayCore core;
  ffr::circuits::RelayTestbench bench;
  ffr::fault::CampaignEngine engine;
  ffr::fault::CampaignConfig config;
  ffr::fault::CampaignResult oracle;
};

}  // namespace

void run_relay_campaign(Bench& bench) {
  std::unique_ptr<RelayInputs> inputs;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    inputs.reset();
    inputs = std::make_unique<RelayInputs>(bench.opts);
  });
  bench.report.set("setup_s", setup_s, "s");

  std::optional<ffr::fault::CampaignResult> first;
  std::uint64_t first_digest = 0;
  const OpTimes times = run_timed_ops(
      bench.opts.seconds, 3, bench.opts.trace, bench.tracer, bench.gate,
      [&](Tracer* tracer) {
        ffr::fault::CampaignResult result;
        double seconds = 0.0;
        {
          const Span op(tracer, "relay_campaign");
          const ffr::util::Stopwatch clock;
          {
            const Span span(tracer, "fault.campaign");
            result = inputs->engine.run(inputs->config);
          }
          seconds = clock.elapsed_seconds();
        }
        const std::uint64_t fdr_digest = digest(result.fdr_vector());
        if (!first) {
          first = result;
          first_digest = fdr_digest;
        }
        const bool matches_oracle = same_class_counts(result, inputs->oracle);
        const bool repeats = fdr_digest == first_digest && same_counters(result, *first);
        bench.gate.record(matches_oracle && repeats,
                          !matches_oracle ? "relay: class counts differ from the flat oracle"
                                          : "relay: FDR digest or counters did not repeat");
        return seconds;
      });

  report_serial_ops(bench, times);
  const std::map<std::string, double> self = report_trace(bench, times);
  if (!first) return;
  const ffr::fault::CampaignResult& result = *first;
  bench.host.lanes_per_pass = result.lanes_per_pass;
  bench.host.blocks_per_pass = result.blocks_per_pass;
  bench.report.set("fault.passes", static_cast<double>(result.total_sim_passes), "count");
  bench.report.set("fault.cycles_simulated", static_cast<double>(result.cycles_simulated),
                   "count");
  bench.report.set("fault.ops_evaluated", static_cast<double>(result.ops_evaluated), "count");
  bench.report.set("fault.checkpoint_restores",
                   static_cast<double>(result.checkpoint_restores), "count");
  double lane_slots = 0.0;
  for (const auto& shape : result.pass_histogram) {
    lane_slots += static_cast<double>(shape.passes) * static_cast<double>(shape.lanes());
  }
  bench.report.set("fault.lane_fill",
                   static_cast<double>(result.total_injections) / lane_slots, "ratio");
  if (self.count("fault.campaign") != 0) {
    const double campaign_s = self.at("fault.campaign");
    bench.report.set("fault.campaign_s", campaign_s, "s");
    bench.report.set("fault.ops_per_s",
                     static_cast<double>(result.ops_evaluated) / campaign_s, "1/s");
  }
}

}  // namespace repobench
