// Suite for the service layer (service/content_hash, service/engine_registry,
// service/job_queue, service/metrics):
//  - content hashes are invariant under structurally identical copies (a
//    write -> read -> retarget round trip hits the same cache slot) and
//    distinguish different designs and testbenches;
//  - the registry serves one golden run to repeated and concurrent acquires
//    (hit/miss/build counters), enforces its byte budget LRU-first with the
//    newest entry pinned, and recomputes evicted entries bit-identically;
//  - campaign jobs through FfrService are bit-identical to direct
//    CampaignEngine::run, predict jobs serve a persisted TransferModel
//    (the feature-matrix class without ever constructing a simulator), and
//    job lifecycle (states, cancellation, failure capture, wait/poll) holds;
//  - sharded campaign jobs (N shard jobs + a merge job) reproduce the direct
//    engine run bit-identically, resume from partial files on disk (metrics
//    shards_completed / shards_resumed), and surface invalid partials as
//    job failures naming the shard;
//  - multi-threaded mixed submit/evict/predict stresses — including
//    concurrent sharded campaigns — keep every result bit-identical to
//    single-threaded references; this suite is the service layer's TSan
//    exercise (CI runs it under -fsanitize=thread).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/transfer_flow.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "features/extractor.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/verilog_writer.hpp"
#include "service/content_hash.hpp"
#include "service/engine_registry.hpp"
#include "service/job_queue.hpp"
#include "service/metrics.hpp"
#include "sim/testbench.hpp"

namespace ffr::service {
namespace {

fault::CampaignConfig small_campaign() {
  fault::CampaignConfig config;
  config.injections_per_ff = 8;
  config.num_threads = 2;
  return config;
}

void expect_campaigns_bit_identical(const fault::CampaignResult& a,
                                    const fault::CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].name, b.per_ff[i].name);
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << a.per_ff[i].name;
  }
  EXPECT_EQ(a.fdr_vector(), b.fdr_vector());
  EXPECT_EQ(a.total_injections, b.total_injections);
}

/// A file or directory name in the temp directory that is unique to this
/// process, so concurrent runs of this suite (say a Release and a sanitizer
/// tree) never write or delete each other's files.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "." + std::to_string(::getpid()));
}

/// Shared fixtures: both in-tree circuits, their testbenches, and a small
/// persisted transfer model (trained once per process — campaigns are the
/// expensive part of this suite).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mac_ = new circuits::MacCore(circuits::build_mac_core());
    mac_bench_ = new circuits::MacTestbench(circuits::build_mac_testbench(*mac_));
    pipe_ = new circuits::PipelineCore(circuits::build_pipeline_core());
    pipe_bench_ = new circuits::PipelineTestbench(
        circuits::build_pipeline_testbench(*pipe_));

    core::TransferConfig config;
    config.model = "linear";
    config.injections_per_ff = 8;
    config.num_threads = 2;
    const std::vector<core::TransferCircuit> circuits = {
        {&mac_->netlist, &mac_bench_->tb}};
    model_path_ = new std::filesystem::path(temp_path("ffr_test_service_model"));
    core::train_transfer_model(circuits, config).save(*model_path_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(*model_path_);
    delete model_path_;
    delete pipe_bench_;
    delete pipe_;
    delete mac_bench_;
    delete mac_;
  }

  static circuits::MacCore* mac_;
  static circuits::MacTestbench* mac_bench_;
  static circuits::PipelineCore* pipe_;
  static circuits::PipelineTestbench* pipe_bench_;
  static std::filesystem::path* model_path_;
};

circuits::MacCore* ServiceTest::mac_ = nullptr;
circuits::MacTestbench* ServiceTest::mac_bench_ = nullptr;
circuits::PipelineCore* ServiceTest::pipe_ = nullptr;
circuits::PipelineTestbench* ServiceTest::pipe_bench_ = nullptr;
std::filesystem::path* ServiceTest::model_path_ = nullptr;

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ContentHashIsDeterministicAndDiscriminates) {
  const ContentHash mac_hash = content_hash(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(mac_hash, content_hash(mac_->netlist, mac_bench_->tb));
  EXPECT_FALSE(mac_hash == content_hash(pipe_->netlist, pipe_bench_->tb));

  // A testbench tweak (shorter injection window) must change the key.
  sim::Testbench tweaked = mac_bench_->tb;
  tweaked.inject_end = tweaked.inject_end - 1;
  EXPECT_FALSE(mac_hash == content_hash(mac_->netlist, tweaked));

  EXPECT_EQ(mac_hash.hex().size(), 32u);
}

TEST_F(ServiceTest, ContentHashSurvivesWriteReadRetarget) {
  // An imported structural copy with a retargeted testbench is the same
  // content: the canonical testbench dump uses net names, not ids.
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac_->netlist), "mac_copy.v");
  const sim::Testbench retargeted =
      sim::retarget_testbench(mac_bench_->tb, mac_->netlist, imported);
  EXPECT_EQ(content_hash(mac_->netlist, mac_bench_->tb),
            content_hash(imported, retargeted));
}

// ---------------------------------------------------------------------------
// Engine registry
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RegistryServesRepeatAcquiresFromCache) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);

  const auto first = registry.acquire(mac_->netlist, mac_bench_->tb);
  const auto second = registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(first.get(), second.get());  // literally the same engine

  // The imported copy hits the same slot.
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac_->netlist), "mac_copy.v");
  const sim::Testbench retargeted =
      sim::retarget_testbench(mac_bench_->tb, mac_->netlist, imported);
  const auto third = registry.acquire(imported, retargeted);
  EXPECT_EQ(first.get(), third.get());

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, 2u);
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.resident_engines, 1u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_GT(registry.resident_bytes(), 0u);
  EXPECT_EQ(registry.resident_bytes(), first->resident_bytes());
}

TEST_F(ServiceTest, RegistryCachedEngineOutlivesCallersObjects) {
  // The registry owns copies: an engine acquired with short-lived objects
  // stays valid (and campaign results stay bit-identical to an engine built
  // on the originals).
  EngineRegistry registry;
  std::shared_ptr<const fault::CampaignEngine> engine;
  {
    const netlist::Netlist copy =
        netlist::read_verilog(netlist::to_verilog(mac_->netlist), "m.v");
    const sim::Testbench tb =
        sim::retarget_testbench(mac_bench_->tb, mac_->netlist, copy);
    engine = registry.acquire(copy, tb);
  }  // caller's netlist/testbench die here
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  expect_campaigns_bit_identical(direct.run(small_campaign()),
                                 engine->run(small_campaign()));
}

TEST_F(ServiceTest, ConcurrentAcquiresCoalesceOntoOneBuild) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const fault::CampaignEngine>> engines(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        engines[t] = registry.acquire(mac_->netlist, mac_bench_->tb);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(engines[0].get(), engines[t].get());
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, kThreads - 1);
}

TEST_F(ServiceTest, BudgetEvictionDropsLruKeepsNewestAndRecomputesIdentically) {
  ServiceMetrics metrics;
  RegistryConfig config;
  config.max_resident_bytes = 1;  // every second entry forces an eviction
  EngineRegistry registry(config, &metrics);

  const auto mac_engine = registry.acquire(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult before = mac_engine->run(small_campaign());
  // Pinned: the newest (only) entry stays resident despite the 1-byte budget.
  EXPECT_EQ(registry.size(), 1u);

  const auto pipe_engine = registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(registry.size(), 1u);  // mac evicted, pipeline pinned
  ASSERT_EQ(registry.eviction_log().size(), 1u);
  EXPECT_EQ(registry.eviction_log()[0].circuit, "mac_core");
  EXPECT_GT(registry.eviction_log()[0].bytes, 0u);
  EXPECT_EQ(metrics.snapshot().cache_evictions, 1u);

  // The held shared_ptr keeps the evicted engine usable...
  expect_campaigns_bit_identical(before, mac_engine->run(small_campaign()));
  // ...and re-acquiring rebuilds it with bit-identical campaign results.
  const auto rebuilt = registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_NE(rebuilt.get(), mac_engine.get());
  EXPECT_EQ(metrics.snapshot().engine_builds, 3u);
  expect_campaigns_bit_identical(before, rebuilt->run(small_campaign()));
}

TEST_F(ServiceTest, ExplicitEvictAndClear) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  (void)registry.acquire(mac_->netlist, mac_bench_->tb);
  (void)registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_TRUE(registry.evict(content_hash(mac_->netlist, mac_bench_->tb)));
  EXPECT_FALSE(registry.evict(content_hash(mac_->netlist, mac_bench_->tb)));
  EXPECT_EQ(registry.size(), 1u);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.resident_bytes(), 0u);
  EXPECT_EQ(metrics.snapshot().cache_evictions, 2u);
  EXPECT_EQ(metrics.snapshot().resident_engines, 0u);
}

// ---------------------------------------------------------------------------
// Job queue
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, CampaignJobMatchesDirectEngineRun) {
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  const JobId id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign());
  const JobStatus status = service.wait(id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.job_class, JobClass::kCampaign);
  EXPECT_GE(status.run_seconds, 0.0);
  expect_campaigns_bit_identical(reference, service.campaign_result(id));

  // Sharded variant: an ff_subset config rides through unchanged.
  fault::CampaignConfig shard = small_campaign();
  shard.ff_subset = {0, 2};
  const JobId shard_id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, shard);
  EXPECT_EQ(service.wait(shard_id).state, JobState::kDone);
  expect_campaigns_bit_identical(direct.run(shard),
                                 service.campaign_result(shard_id));
  EXPECT_EQ(service.metrics().snapshot().engine_builds, 1u);  // shared engine
}

TEST_F(ServiceTest, PredictJobServesPersistedModelWithoutInjection) {
  FfrService service;
  const JobId id =
      service.submit_predict(*model_path_, pipe_->netlist, pipe_bench_->tb);
  ASSERT_EQ(service.wait(id).state, JobState::kDone)
      << service.status(id).error;
  const linalg::Vector predicted = service.prediction(id);
  ASSERT_EQ(predicted.size(), pipe_->netlist.flip_flops().size());

  // Reference: the persisted model applied to golden-run features directly.
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector reference =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);
  ASSERT_EQ(reference.size(), predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_EQ(predicted[i], reference[i]) << "row " << i;
  }

  // A second predict on the same design reuses the cached golden run.
  const JobId again =
      service.submit_predict(*model_path_, pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(service.wait(again).state, JobState::kDone);
  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.predict_jobs, 2u);
}

TEST_F(ServiceTest, FeatureMatrixPredictJobNeverBuildsAnEngine) {
  // Pure model serving: features in, FDR out — no simulator anywhere.
  const sim::GoldenResult golden =
      sim::run_golden(pipe_->netlist, pipe_bench_->tb);
  const features::FeatureMatrix features =
      features::extract_features(pipe_->netlist, golden.activity);

  FfrService service;
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(service.submit_predict(*model_path_, features));
  }
  service.wait_all();
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector reference = loaded.predict(features);
  for (const JobId id : ids) {
    ASSERT_EQ(service.status(id).state, JobState::kDone)
        << service.status(id).error;
    const linalg::Vector predicted = service.prediction(id);
    ASSERT_EQ(predicted.size(), reference.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(predicted[i], reference[i]);
    }
  }
  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.engine_builds, 0u);  // the acceptance criterion
  EXPECT_EQ(snap.cache_misses, 0u);
  EXPECT_EQ(snap.predict_jobs, 5u);
  EXPECT_EQ(snap.jobs_completed, 5u);
}

TEST_F(ServiceTest, JobLifecycleStatesCancellationAndErrors) {
  ServiceConfig config;
  config.num_workers = 1;  // serialize so queued jobs stay cancellable
  FfrService service(config);

  // Unknown ids throw.
  EXPECT_THROW((void)service.status(999), std::out_of_range);
  EXPECT_THROW((void)service.wait(999), std::out_of_range);
  EXPECT_THROW((void)service.campaign_result(999), std::out_of_range);

  // A failing job: mac netlist with the pipeline testbench cannot build an
  // engine; the error is captured, not thrown on the worker.
  const JobId bad =
      service.submit_campaign(mac_->netlist, pipe_bench_->tb, small_campaign());
  const JobStatus bad_status = service.wait(bad);
  EXPECT_EQ(bad_status.state, JobState::kFailed);
  EXPECT_FALSE(bad_status.error.empty());
  EXPECT_THROW((void)service.campaign_result(bad), std::logic_error);

  // Queue a burst on the single worker and cancel the tail immediately:
  // at least the last job should still be queued at cancel time.
  std::vector<JobId> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(
        service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign()));
  }
  const bool cancelled = service.cancel(burst.back());
  service.wait_all();
  if (cancelled) {
    EXPECT_EQ(service.status(burst.back()).state, JobState::kCancelled);
    EXPECT_THROW((void)service.campaign_result(burst.back()), std::logic_error);
    EXPECT_GE(service.metrics().snapshot().jobs_cancelled, 1u);
  }
  // Everything not cancelled ran to done.
  for (std::size_t i = 0; i + 1 < burst.size(); ++i) {
    EXPECT_EQ(service.status(burst[i]).state, JobState::kDone);
  }
  // Cancelling a finished job is a no-op.
  EXPECT_FALSE(service.cancel(burst.front()));

  // A missing model file fails the job with a captured error.
  const JobId missing = service.submit_predict(
      std::filesystem::path("/nonexistent/model.txt"), pipe_->netlist,
      pipe_bench_->tb);
  EXPECT_EQ(service.wait(missing).state, JobState::kFailed);
}

TEST_F(ServiceTest, MetricsTextDumpCoversTheSurface) {
  FfrService service;
  const JobId id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign());
  (void)service.wait(id);
  const std::string text = service.metrics().to_text();
  for (const char* key :
       {"ffr_service_cache_misses 1", "ffr_service_engine_builds 1",
        "ffr_service_jobs_completed 1", "ffr_service_queue_depth 0",
        "ffr_service_campaign_seconds_count 1",
        "ffr_service_predict_seconds_count 0"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing '" << key << "' in:\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded stress (the TSan target)
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, StressMixedSubmitEvictPredictStaysBitIdentical) {
  // Single-threaded references.
  const fault::CampaignEngine mac_direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignEngine pipe_direct(pipe_->netlist, pipe_bench_->tb);
  const fault::CampaignResult mac_ref = mac_direct.run(small_campaign());
  const fault::CampaignResult pipe_ref = pipe_direct.run(small_campaign());
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector predict_ref =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);

  ServiceConfig config;
  config.num_workers = 4;
  config.registry.max_resident_bytes = 1;  // constant eviction pressure
  FfrService service(config);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kOpsPerThread = 4;
  std::vector<std::vector<JobId>> campaign_ids(kThreads);
  std::vector<std::vector<JobId>> predict_ids(kThreads);
  std::vector<std::vector<bool>> on_mac(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t op = 0; op < kOpsPerThread; ++op) {
          const bool mac_turn = (t + op) % 2 == 0;
          on_mac[t].push_back(mac_turn);
          campaign_ids[t].push_back(service.submit_campaign(
              mac_turn ? mac_->netlist : pipe_->netlist,
              mac_turn ? mac_bench_->tb : pipe_bench_->tb, small_campaign()));
          predict_ids[t].push_back(service.submit_predict(
              *model_path_, pipe_->netlist, pipe_bench_->tb));
          if (op == 1) {
            // Concurrent explicit eviction against in-flight jobs.
            (void)service.registry().evict(
                content_hash(mac_->netlist, mac_bench_->tb));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  service.wait_all();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t op = 0; op < kOpsPerThread; ++op) {
      const JobId cid = campaign_ids[t][op];
      ASSERT_EQ(service.status(cid).state, JobState::kDone)
          << service.status(cid).error;
      expect_campaigns_bit_identical(on_mac[t][op] ? mac_ref : pipe_ref,
                                     service.campaign_result(cid));
      const JobId pid = predict_ids[t][op];
      ASSERT_EQ(service.status(pid).state, JobState::kDone)
          << service.status(pid).error;
      const linalg::Vector predicted = service.prediction(pid);
      ASSERT_EQ(predicted.size(), predict_ref.size());
      for (std::size_t i = 0; i < predicted.size(); ++i) {
        EXPECT_EQ(predicted[i], predict_ref[i]);
      }
    }
  }

  // Eviction-then-recompute identity under the 1-byte budget: acquiring
  // both designs back-to-back must evict the older (pinned-newest rule) and
  // still serve bit-identical campaigns.
  const auto mac_again = service.registry().acquire(mac_->netlist, mac_bench_->tb);
  const auto pipe_again =
      service.registry().acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(service.registry().size(), 1u);
  expect_campaigns_bit_identical(mac_ref, mac_again->run(small_campaign()));
  expect_campaigns_bit_identical(pipe_ref, pipe_again->run(small_campaign()));

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.jobs_submitted, kThreads * kOpsPerThread * 2);
  EXPECT_EQ(snap.jobs_completed, kThreads * kOpsPerThread * 2);
  EXPECT_EQ(snap.jobs_failed, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  // Every acquire is accounted exactly once, every miss built exactly once,
  // and the byte budget forced real evictions.
  EXPECT_EQ(snap.cache_hits + snap.cache_misses,
            kThreads * kOpsPerThread * 2 + 2);
  EXPECT_EQ(snap.cache_misses, snap.engine_builds);
  EXPECT_GE(snap.cache_evictions, 1u);
}

// ---------------------------------------------------------------------------
// Sharded campaign jobs
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ShardedCampaignJobBitIdenticalToDirectRun) {
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  std::vector<JobId> shard_jobs;
  const JobId merge_id = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, {}, &shard_jobs);
  ASSERT_EQ(shard_jobs.size(), 3u);
  ASSERT_EQ(service.wait(merge_id).state, JobState::kDone)
      << service.status(merge_id).error;

  const fault::CampaignResult merged = service.campaign_result(merge_id);
  expect_campaigns_bit_identical(reference, merged);
  EXPECT_EQ(merged.total_sim_passes, reference.total_sim_passes);
  EXPECT_EQ(merged.cycles_simulated, reference.cycles_simulated);
  EXPECT_EQ(merged.ops_evaluated, reference.ops_evaluated);
  EXPECT_EQ(merged.checkpoint_restores, reference.checkpoint_restores);

  // Each shard job is an ordinary done campaign job holding its own share.
  std::uint64_t share_sum = 0;
  for (const JobId id : shard_jobs) {
    ASSERT_EQ(service.status(id).state, JobState::kDone);
    share_sum += service.campaign_result(id).total_injections;
  }
  EXPECT_EQ(share_sum, reference.total_injections);

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.shards_completed, 3u);
  EXPECT_EQ(snap.shards_resumed, 0u);
  EXPECT_EQ(snap.jobs_completed, 4u);  // 3 shards + merge
  const std::string text = service.metrics().to_text();
  EXPECT_NE(text.find("ffr_service_shards_completed 3"), std::string::npos);
  EXPECT_NE(text.find("ffr_service_shards_resumed 0"), std::string::npos);
}

TEST_F(ServiceTest, ShardedCampaignResumesFromPartialDir) {
  const auto dir = temp_path("ffr_service_shard_resume");
  std::filesystem::remove_all(dir);

  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  const JobId first = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(first).state, JobState::kDone)
      << service.status(first).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(first));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 3u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 0u);

  // Same campaign again: every shard resumes from its partial file.
  const JobId second = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(second).state, JobState::kDone)
      << service.status(second).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(second));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 3u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 3u);

  // Crash recovery: one partial lost, exactly that shard re-runs.
  ASSERT_TRUE(std::filesystem::remove(dir / fault::partial_filename(1, 3)));
  const JobId third = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(third).state, JobState::kDone)
      << service.status(third).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(third));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 4u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 5u);

  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, ShardedCampaignFailsOnInvalidPartial) {
  const auto dir = temp_path("ffr_service_shard_invalid");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir / fault::partial_filename(0, 2));
    os << "ffr-partial 1 campaign_shard\ntruncated";
  }

  FfrService service;
  std::vector<JobId> shard_jobs;
  const JobId merge_id = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 2, dir, &shard_jobs);
  const JobStatus merged = service.wait(merge_id);
  // The corrupt partial fails shard 0, and the merge reports which shard.
  EXPECT_EQ(merged.state, JobState::kFailed);
  EXPECT_NE(merged.error.find("shard 0"), std::string::npos) << merged.error;
  EXPECT_EQ(service.status(shard_jobs[0]).state, JobState::kFailed);
  EXPECT_EQ(service.status(shard_jobs[1]).state, JobState::kDone);

  EXPECT_THROW((void)service.submit_sharded_campaign(
                   mac_->netlist, mac_bench_->tb, small_campaign(), 0),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, ShardedMergeWaitsForAndNamesEveryFailedShard) {
  const auto dir = temp_path("ffr_service_shard_all_invalid");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::size_t kShards = 3;
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    std::ofstream os(dir / fault::partial_filename(k, kShards));
    os << "ffr-partial 1 campaign_shard\ntruncated";
  }

  FfrService service;
  std::vector<JobId> shard_jobs;
  const JobId merge_id = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), kShards, dir, &shard_jobs);
  const JobStatus merged = service.wait(merge_id);
  EXPECT_EQ(merged.state, JobState::kFailed);
  EXPECT_NE(merged.error.find("(shard 0)"), std::string::npos) << merged.error;
  EXPECT_NE(merged.error.find("(shard 2)"), std::string::npos) << merged.error;
  EXPECT_EQ(merged.error.find("(shard 1)"), std::string::npos) << merged.error;
  // The merge went terminal only after every shard did.
  ASSERT_EQ(shard_jobs.size(), kShards);
  EXPECT_EQ(service.status(shard_jobs[0]).state, JobState::kFailed);
  EXPECT_EQ(service.status(shard_jobs[1]).state, JobState::kDone);
  EXPECT_EQ(service.status(shard_jobs[2]).state, JobState::kFailed);
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, StressShardJobsRacingPredictsAndEvictionStayBitIdentical) {
  // The sharded-campaign TSan exercise: concurrent sharded submissions on
  // both circuits, racing predict jobs and explicit eviction under a 1-byte
  // registry budget (every shard job may rebuild the engine). Every merged
  // result must stay bit-identical to the direct single-process runs.
  const fault::CampaignEngine mac_direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignEngine pipe_direct(pipe_->netlist, pipe_bench_->tb);
  const fault::CampaignResult mac_ref = mac_direct.run(small_campaign());
  const fault::CampaignResult pipe_ref = pipe_direct.run(small_campaign());

  ServiceConfig config;
  config.num_workers = 4;
  config.registry.max_resident_bytes = 1;  // constant eviction pressure
  FfrService service(config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kShards = 3;
  std::vector<JobId> merge_ids(kThreads);
  std::vector<std::vector<JobId>> shard_ids(kThreads);
  std::vector<JobId> predict_ids(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const bool mac_turn = t % 2 == 0;
        merge_ids[t] = service.submit_sharded_campaign(
            mac_turn ? mac_->netlist : pipe_->netlist,
            mac_turn ? mac_bench_->tb : pipe_bench_->tb, small_campaign(),
            kShards, {}, &shard_ids[t]);
        predict_ids[t] = service.submit_predict(*model_path_, pipe_->netlist,
                                                pipe_bench_->tb);
        (void)service.registry().evict(
            content_hash(mac_->netlist, mac_bench_->tb));
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  service.wait_all();

  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector predict_ref =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(service.status(merge_ids[t]).state, JobState::kDone)
        << service.status(merge_ids[t]).error;
    const fault::CampaignResult& reference = t % 2 == 0 ? mac_ref : pipe_ref;
    const fault::CampaignResult merged = service.campaign_result(merge_ids[t]);
    expect_campaigns_bit_identical(reference, merged);
    EXPECT_EQ(merged.total_sim_passes, reference.total_sim_passes);
    EXPECT_EQ(merged.cycles_simulated, reference.cycles_simulated);
    EXPECT_EQ(merged.ops_evaluated, reference.ops_evaluated);
    for (const JobId id : shard_ids[t]) {
      EXPECT_EQ(service.status(id).state, JobState::kDone);
    }
    const linalg::Vector predicted = service.prediction(predict_ids[t]);
    ASSERT_EQ(predicted.size(), predict_ref.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(predicted[i], predict_ref[i]);
    }
  }

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.shards_completed, kThreads * kShards);
  EXPECT_EQ(snap.shards_resumed, 0u);
  EXPECT_EQ(snap.jobs_submitted, kThreads * (kShards + 2));
  EXPECT_EQ(snap.jobs_completed, kThreads * (kShards + 2));
  EXPECT_EQ(snap.jobs_failed, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
}

}  // namespace
}  // namespace ffr::service
