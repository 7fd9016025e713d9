// service_mix: a closed loop of up to 4 clients against one FfrService
// whose registry was warmed in set-up with the drain-phase MAC design and
// relay_core. Each client sends its next request when the previous one
// returns; the seeded mix is 60% feature-matrix predicts (pure model
// serving), 30% netlist+testbench predicts (content hash, registry hit,
// features, model) and 10% small campaigns (8 flip-flops x 16 injections in
// the MAC drain window). The only workload that exercises `service`.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/relay_core.hpp"
#include "core/transfer_flow.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "service/content_hash.hpp"
#include "service/job_queue.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

constexpr std::size_t kMaxClients = 4;
constexpr std::size_t kCampaignPool = 8;     ///< Distinct campaign requests.
constexpr std::size_t kRequestFlipFlops = 8;
constexpr std::size_t kRequestInjections = 16;
constexpr std::size_t kDrainCycles = 512;    ///< Injection window at the end.

enum Kind : std::size_t { kFeaturePredict, kNetlistPredict, kCampaign, kNumKinds };
constexpr std::array<const char*, kNumKinds> kKindNames = {
    "feature_predict", "netlist_predict", "campaign"};

/// One served design: netlist + testbench, and what a direct (non-service)
/// call returns for it.
struct Design {
  const ffr::netlist::Netlist* netlist = nullptr;
  const ffr::sim::Testbench* testbench = nullptr;
  ffr::service::ContentHash hash;
  ffr::features::FeatureMatrix features;
  ffr::linalg::Vector expect_from_features;
  ffr::linalg::Vector expect_from_netlist;
};

struct ServiceInputs {
  explicit ServiceInputs(const RunOptions& opts)
      : mac(ffr::circuits::build_mac_core()),
        mac_bench(ffr::circuits::build_mac_testbench(mac, mac_config(opts.seed))),
        relay(ffr::circuits::build_relay_core()),
        relay_bench(ffr::circuits::build_relay_testbench(relay, relay_config(opts.seed))),
        model_path(opts.work_dir / ("service_model_" + std::to_string(opts.seed) + ".txt")) {
    // Requests probe the drain phase at the end of a long workload, as in
    // bench/bench_service.cpp.
    const std::size_t trace = mac_bench.tb.stimulus.num_cycles();
    mac_bench.tb.inject_begin = trace > kDrainCycles ? trace - kDrainCycles : 0;

    ffr::core::TransferConfig train;
    train.model = "knn_paper";
    train.injections_per_ff = 32;
    train.seed = derive_seed(opts.seed, 3);
    train.num_threads = opts.threads;
    const std::vector<ffr::core::TransferCircuit> train_set = {
        {&mac.netlist, &mac_bench.tb}};
    ffr::core::train_transfer_model(train_set, train).save(model_path);
    const ffr::core::TransferModel direct = ffr::core::TransferModel::load(model_path);

    ffr::service::ServiceConfig config;
    config.num_workers = std::max(1U, std::thread::hardware_concurrency());
    service = std::make_unique<ffr::service::FfrService>(config);
    (void)service->model(model_path);
    designs[0].netlist = &mac.netlist;
    designs[0].testbench = &mac_bench.tb;
    designs[1].netlist = &relay.netlist;
    designs[1].testbench = &relay_bench.tb;
    for (Design& design : designs) {
      const auto engine = service->registry().acquire(*design.netlist, *design.testbench);
      design.hash = ffr::service::content_hash(*design.netlist, *design.testbench);
      design.features =
          ffr::features::extract_features(*design.netlist, engine->golden().activity);
      design.expect_from_features = direct.predict(design.features);
      design.expect_from_netlist = direct.predict(*design.netlist, *design.testbench);
    }

    // The campaign pool and its direct CampaignEngine::run results.
    const ffr::fault::CampaignEngine engine(mac.netlist, mac_bench.tb);
    ffr::util::Rng rng(derive_seed(opts.seed, 4));
    const std::size_t num_ffs = mac.netlist.num_flip_flops();
    for (std::size_t i = 0; i < kCampaignPool; ++i) {
      ffr::fault::CampaignConfig request;
      request.injections_per_ff = kRequestInjections;
      request.seed = derive_seed(opts.seed, 10 + i);
      request.num_threads = 1;
      // <= 64 injections per flip-flop: one scalar pass beats wide blocks.
      request.lane_width = ffr::sim::LaneWidth::k64;
      const std::size_t offset = rng.below(num_ffs);
      for (std::size_t k = 0; k < kRequestFlipFlops && k < num_ffs; ++k) {
        request.ff_subset.push_back((offset + k) % num_ffs);
      }
      expect_campaign.push_back(engine.run(request));
      campaigns.push_back(std::move(request));
    }
  }

  static ffr::circuits::MacTestbenchConfig mac_config(std::uint64_t seed) {
    ffr::circuits::MacTestbenchConfig config;
    config.num_frames = 80;
    config.seed = derive_seed(seed, 1);
    fix_payload_length(config);
    return config;
  }
  static ffr::circuits::RelayTestbenchConfig relay_config(std::uint64_t seed) {
    ffr::circuits::RelayTestbenchConfig config;
    config.seed = derive_seed(seed, 2);
    fix_payload_length(config);
    return config;
  }

  ffr::circuits::MacCore mac;
  ffr::circuits::MacTestbench mac_bench;
  ffr::circuits::RelayCore relay;
  ffr::circuits::RelayTestbench relay_bench;
  std::filesystem::path model_path;
  std::array<Design, 2> designs;
  std::vector<ffr::fault::CampaignConfig> campaigns;
  std::vector<ffr::fault::CampaignResult> expect_campaign;
  std::unique_ptr<ffr::service::FfrService> service;  // last: drains first
};

struct Sample {
  Kind kind = kFeaturePredict;
  bool traced = false;
  double latency_s = 0.0;  ///< Client-observed: submit -> wait returned.
  double queue_s = 0.0;    ///< JobStatus::queue_seconds.
  double run_s = 0.0;      ///< JobStatus::run_seconds.
};

/// Sends one request, waits for it and checks the result against the
/// direct call. Returns whether the result was correct.
bool serve_one(ServiceInputs& in, Kind kind, std::size_t pick, Tracer* tracer,
               Sample& sample) {
  ffr::service::FfrService& service = *in.service;
  const Span request(tracer, std::string("service.request.") + kKindNames[kind]);
  const Design& design = in.designs[pick % in.designs.size()];
  bool hash_ok = true;
  if (kind == kNetlistPredict) {
    // Client-side cache key, checked against set-up; outside the latency.
    const Span span(tracer, "service.content_hash");
    hash_ok = ffr::service::content_hash(*design.netlist, *design.testbench) == design.hash;
  }
  const ffr::util::Stopwatch clock;
  ffr::service::JobId id = 0;
  switch (kind) {
    case kFeaturePredict:
      id = service.submit_predict(in.model_path, design.features);
      break;
    case kNetlistPredict:
      id = service.submit_predict(in.model_path, *design.netlist, *design.testbench);
      break;
    default:
      id = service.submit_campaign(in.mac.netlist, in.mac_bench.tb,
                                   in.campaigns[pick % in.campaigns.size()]);
      break;
  }
  const ffr::service::JobStatus status = service.wait(id);
  sample.latency_s = clock.elapsed_seconds();
  sample.queue_s = status.queue_seconds;
  sample.run_s = status.run_seconds;
  if (status.state != ffr::service::JobState::kDone) return false;
  switch (kind) {
    case kFeaturePredict:
      return same_values(service.prediction(id), design.expect_from_features);
    case kNetlistPredict:
      return hash_ok && same_values(service.prediction(id), design.expect_from_netlist);
    default: {
      const ffr::fault::CampaignResult& want =
          in.expect_campaign[pick % in.expect_campaign.size()];
      const ffr::fault::CampaignResult got = service.campaign_result(id);
      return same_class_counts(got, want) && same_class_counts(want, got) &&
             same_counters(got, want);
    }
  }
}

std::vector<double> select(const std::vector<Sample>& samples,
                           const std::vector<Kind>& kinds, bool untraced_only,
                           double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end()) continue;
    if (untraced_only && s.traced) continue;
    out.push_back(s.*field);
  }
  return out;
}

}  // namespace

void run_service_mix(Bench& bench) {
  std::unique_ptr<ServiceInputs> inputs;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    inputs.reset();
    inputs = std::make_unique<ServiceInputs>(bench.opts);
  });
  bench.report.set("setup_s", setup_s, "s");
  bench.host.lanes_per_pass = inputs->expect_campaign.front().lanes_per_pass;
  bench.host.blocks_per_pass = inputs->expect_campaign.front().blocks_per_pass;

  const std::size_t clients =
      std::min<std::size_t>(kMaxClients, std::max(1U, std::thread::hardware_concurrency()));
  const ffr::service::MetricsSnapshot before = inputs->service->metrics().snapshot();
  std::vector<std::vector<Sample>> per_client(clients);
  const ffr::util::Stopwatch window;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ffr::util::Rng rng(derive_seed(bench.opts.seed, 100 + c));
        for (std::size_t i = 0; window.elapsed_seconds() < bench.opts.seconds; ++i) {
          const double u = rng.uniform();
          Sample sample;
          sample.kind = u < 0.6 ? kFeaturePredict : u < 0.9 ? kNetlistPredict : kCampaign;
          sample.traced = bench.opts.trace && i % 2 == 1;
          const auto pick = static_cast<std::size_t>(rng.below(1U << 16));
          try {
            const bool ok = serve_one(*inputs, sample.kind, pick,
                                      sample.traced ? &bench.tracer : nullptr, sample);
            bench.gate.record(ok, std::string("service_mix: wrong or failed ") +
                                      kKindNames[sample.kind]);
            per_client[c].push_back(sample);
          } catch (const std::exception& e) {
            bench.gate.record(false, e.what());
          }
        }
      });
    }
  }
  const double window_s = window.elapsed_seconds();
  const ffr::service::MetricsSnapshot after = inputs->service->metrics().snapshot();
  std::filesystem::remove(inputs->model_path);

  std::vector<Sample> samples;
  for (const auto& client : per_client) samples.insert(samples.end(), client.begin(), client.end());
  // Predict latencies are the operation times; campaigns are reported
  // per layer.
  OpTimes times;
  times.untraced_s = select(samples, {kFeaturePredict, kNetlistPredict}, true, &Sample::latency_s);
  for (const Sample& s : samples) {
    if (s.traced && s.kind != kCampaign) times.traced_s.push_back(s.latency_s);
  }
  std::vector<double> predict_ms = times.untraced_s;
  for (double& x : predict_ms) x *= 1e3;
  report_latencies(bench, predict_ms);
  bench.report.set("ops_per_s", static_cast<double>(samples.size()) / window_s, "1/s");
  (void)report_trace(bench, times);
  if (!bench.opts.trace) return;

  bench.report.set("service.predict_p99_ms", percentile(predict_ms, 99), "ms");
  const std::vector<double> campaign_ms = select(samples, {kCampaign}, false, &Sample::latency_s);
  if (!campaign_ms.empty()) {
    bench.report.set("service.campaign_req_p50_ms", median(campaign_ms) * 1e3, "ms");
  }
  const std::vector<double> queue = select(
      samples, {kFeaturePredict, kNetlistPredict, kCampaign}, false, &Sample::queue_s);
  if (!queue.empty()) bench.report.set("service.queue_wait_p50_ms", median(queue) * 1e3, "ms");
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const std::vector<double> run = select(samples, {static_cast<Kind>(k)}, false, &Sample::run_s);
    if (!run.empty()) {
      bench.report.set(std::string("service.run_p50_ms.") + kKindNames[k], median(run) * 1e3,
                       "ms");
    }
  }
  std::vector<double> hash_ms;
  for (const SpanRecord& s : bench.tracer.spans()) {
    if (s.name == "service.content_hash") hash_ms.push_back((s.end_s - s.start_s) * 1e3);
  }
  if (!hash_ms.empty()) bench.report.set("service.content_hash_ms", median(hash_ms), "ms");
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const auto misses = static_cast<double>(after.cache_misses - before.cache_misses);
  if (hits + misses > 0) bench.report.set("service.cache_hit_ratio", hits / (hits + misses), "ratio");
  bench.report.set("service.engine_builds",
                   static_cast<double>(after.engine_builds - before.engine_builds), "count");
}

}  // namespace repobench
