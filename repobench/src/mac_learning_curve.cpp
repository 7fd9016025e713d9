// mac_learning_curve: the paper's Fig. 2-4(b) protocol. ml::learning_curve
// for linear, knn_paper and svr_paper over training fractions
// {0.05, 0.1, 0.2, ..., 0.9} x 10 stratified folds, on MAC features and
// ground-truth FDR prepared in set-up. ml/linalg do all the work.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "ml/model_selection.hpp"
#include "ml/model_zoo.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

const std::vector<std::string> kModels = {"linear", "knn_paper", "svr_paper"};
const std::vector<double> kFractions = {0.05, 0.1, 0.2, 0.3, 0.4,
                                        0.5,  0.6, 0.7, 0.8, 0.9};
/// One curve takes 4-7 s, so a time budget alone would leave 3-4 samples;
/// single-threaded ml code also sees the most host noise. Six curves keep
/// the median of a run steady.
constexpr std::size_t kMinCurves = 6;

/// Times fit and predict of the wrapped model as spans "ml.fit.<model>" and
/// "ml.predict.<model>". clone() stays wrapped, so the copies that
/// learning_curve makes per fold are timed too.
class TimedRegressor final : public ffr::ml::Regressor {
 public:
  TimedRegressor(std::unique_ptr<ffr::ml::Regressor> inner, std::string label,
                 Tracer* tracer)
      : inner_(std::move(inner)), label_(std::move(label)), tracer_(tracer) {}

  void fit(const ffr::ml::Matrix& x, std::span<const double> y) override {
    const Span span(tracer_, "ml.fit." + label_);
    inner_->fit(x, y);
  }
  [[nodiscard]] ffr::ml::Vector predict(const ffr::ml::Matrix& x) const override {
    const Span span(tracer_, "ml.predict." + label_);
    return inner_->predict(x);
  }
  [[nodiscard]] std::unique_ptr<ffr::ml::Regressor> clone() const override {
    return std::make_unique<TimedRegressor>(inner_->clone(), label_, tracer_);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_params(const ffr::ml::ParamMap& params) override { inner_->set_params(params); }
  [[nodiscard]] ffr::ml::ParamMap get_params() const override { return inner_->get_params(); }
  [[nodiscard]] bool is_fitted() const noexcept override { return inner_->is_fitted(); }
  void save(std::ostream& os) const override { inner_->save(os); }

 private:
  std::unique_ptr<ffr::ml::Regressor> inner_;
  std::string label_;
  Tracer* tracer_;
};

struct CurveInputs {
  explicit CurveInputs(const RunOptions& opts) {
    const ffr::circuits::MacCore mac = ffr::circuits::build_mac_core();
    ffr::circuits::MacTestbenchConfig bench_config;
    bench_config.seed = derive_seed(opts.seed, 1);
    fix_payload_length(bench_config);
    const ffr::circuits::MacTestbench workload =
        ffr::circuits::build_mac_testbench(mac, bench_config);
    const ffr::fault::CampaignEngine engine(mac.netlist, workload.tb);
    features = ffr::features::extract_features(mac.netlist, engine.golden().activity);
    ffr::fault::CampaignConfig config;
    config.seed = derive_seed(opts.seed, 2);
    config.num_threads = opts.threads;
    const ffr::fault::CampaignResult truth = engine.run(config);
    lanes_per_pass = truth.lanes_per_pass;
    blocks_per_pass = truth.blocks_per_pass;
    fdr = truth.fdr_vector();
    split_seed = derive_seed(opts.seed, 3);
    splits = ffr::ml::stratified_k_fold(fdr, 10, split_seed);
  }

  ffr::features::FeatureMatrix features;
  ffr::linalg::Vector fdr;
  std::uint64_t split_seed = 0;
  std::vector<ffr::ml::Split> splits;
  std::size_t lanes_per_pass = 0;
  std::size_t blocks_per_pass = 0;
};

/// The curve's R2 values at fixed precision; must repeat exactly.
std::string r2_text(const std::vector<std::vector<ffr::ml::LearningCurvePoint>>& curves) {
  std::string text;
  char buffer[64];
  for (const auto& curve : curves) {
    for (const auto& point : curve) {
      std::snprintf(buffer, sizeof buffer, "%.12f %.12f;", point.train_r2_mean,
                    point.test_r2_mean);
      text += buffer;
    }
  }
  return text;
}

}  // namespace

void run_mac_learning_curve(Bench& bench) {
  std::unique_ptr<CurveInputs> inputs;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    inputs.reset();
    inputs = std::make_unique<CurveInputs>(bench.opts);
  });
  bench.report.set("setup_s", setup_s, "s");
  bench.host.lanes_per_pass = inputs->lanes_per_pass;
  bench.host.blocks_per_pass = inputs->blocks_per_pass;

  std::optional<std::string> first;
  double mean_test_r2 = 0.0;
  const OpTimes times = run_timed_ops(
      bench.opts.seconds, kMinCurves, bench.opts.trace, bench.tracer, bench.gate,
      [&](Tracer* tracer) {
        std::vector<std::vector<ffr::ml::LearningCurvePoint>> curves;
        double seconds = 0.0;
        {
          const Span op(tracer, "mac_learning_curve");
          const ffr::util::Stopwatch clock;
          for (const std::string& model : kModels) {
            const Span span(tracer, "ml.learning_curve." + model);
            const TimedRegressor prototype(ffr::ml::make_model(model), model, tracer);
            curves.push_back(ffr::ml::learning_curve(
                prototype, inputs->features.values, inputs->fdr, kFractions,
                inputs->splits, inputs->split_seed));
          }
          seconds = clock.elapsed_seconds();
        }
        const std::string text = r2_text(curves);
        if (!first) {
          first = text;
          double sum = 0.0;
          std::size_t points = 0;
          for (const auto& curve : curves) {
            for (const auto& point : curve) {
              sum += point.test_r2_mean;
              ++points;
            }
          }
          mean_test_r2 = sum / static_cast<double>(points);
        }
        bench.gate.record(text == *first, "mac_learning_curve: R2 values did not repeat");
        return seconds;
      });

  report_serial_ops(bench, times);
  const std::map<std::string, double> self = report_trace(bench, times);
  for (const std::string& model : kModels) {
    for (const char* stage : {"fit", "predict"}) {
      const std::string span = std::string("ml.") + stage + "." + model;
      if (self.count(span) != 0) {
        bench.report.set(std::string("ml.") + stage + "_s." + model, self.at(span), "s");
      }
    }
    const std::string cv = "ml.learning_curve." + model;
    if (self.count(cv) != 0) bench.report.set("ml.cv_self_s." + model, self.at(cv), "s");
  }
  if (first) bench.report.set("ml.curve_test_r2", mean_test_r2, "ratio");
}

}  // namespace repobench
