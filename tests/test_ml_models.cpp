// Tests for the regression models: exactness on problems they must solve
// perfectly, sanity on noisy data, hyperparameter plumbing, clone semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/pipeline.hpp"
#include "ml/scaler.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace ffr::ml {
namespace {

// y = 2*x0 - 3*x1 + 0.5 with noise sigma.
struct LinearProblem {
  Matrix x;
  Vector y;
};

LinearProblem make_linear_problem(std::size_t n, double noise, std::uint64_t seed) {
  util::Rng rng(seed);
  LinearProblem p;
  p.x = Matrix(n, 2);
  p.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.uniform(-2, 2);
    p.x(i, 1) = rng.uniform(-2, 2);
    p.y[i] = 2.0 * p.x(i, 0) - 3.0 * p.x(i, 1) + 0.5 + noise * rng.normal();
  }
  return p;
}

// A smooth non-linear target the linear model cannot fit.
struct NonlinearProblem {
  Matrix x;
  Vector y;
};

NonlinearProblem make_nonlinear_problem(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  NonlinearProblem p;
  p.x = Matrix(n, 2);
  p.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.uniform(-3, 3);
    p.x(i, 1) = rng.uniform(-3, 3);
    p.y[i] = std::sin(p.x(i, 0)) * std::cos(0.5 * p.x(i, 1)) +
             0.3 * p.x(i, 0) * p.x(i, 1) * 0.1;
  }
  return p;
}

TEST(Linear, ExactOnNoiselessLinearData) {
  const auto p = make_linear_problem(100, 0.0, 1);
  LinearLeastSquares model;
  model.fit(p.x, p.y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(model.coefficients()[1], -3.0, 1e-9);
  EXPECT_NEAR(model.intercept(), 0.5, 1e-9);
  const Vector pred = model.predict(p.x);
  EXPECT_GT(r2_score(p.y, pred), 1.0 - 1e-12);
}

TEST(Linear, RobustToNoise) {
  const auto p = make_linear_problem(500, 0.2, 2);
  LinearLeastSquares model;
  model.fit(p.x, p.y);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.1);
  EXPECT_NEAR(model.coefficients()[1], -3.0, 0.1);
}

TEST(Linear, PredictBeforeFitThrows) {
  LinearLeastSquares model;
  EXPECT_THROW((void)model.predict(Matrix(1, 2)), std::logic_error);
}

TEST(Linear, FeatureMismatchThrows) {
  const auto p = make_linear_problem(20, 0.0, 3);
  LinearLeastSquares model;
  model.fit(p.x, p.y);
  EXPECT_THROW((void)model.predict(Matrix(2, 5)), std::invalid_argument);
}

TEST(Knn, InterpolatesTrainingSetAtKOne) {
  const auto p = make_nonlinear_problem(50, 4);
  KnnRegressor model(1, 2.0, KnnWeights::kUniform);
  model.fit(p.x, p.y);
  const Vector pred = model.predict(p.x);
  for (std::size_t i = 0; i < p.y.size(); ++i) EXPECT_DOUBLE_EQ(pred[i], p.y[i]);
}

TEST(Knn, DistanceWeightedExactMatchDominates) {
  Matrix x{{0.0}, {1.0}, {2.0}};
  Vector y{10.0, 20.0, 30.0};
  KnnRegressor model(3, 2.0, KnnWeights::kDistance);
  model.fit(x, y);
  const Vector pred = model.predict(Matrix{{1.0}});
  EXPECT_DOUBLE_EQ(pred[0], 20.0);
}

TEST(Knn, UniformAverageOfNeighbours) {
  Matrix x{{0.0}, {1.0}, {10.0}};
  Vector y{1.0, 3.0, 100.0};
  KnnRegressor model(2, 2.0, KnnWeights::kUniform);
  model.fit(x, y);
  const Vector pred = model.predict(Matrix{{0.4}});
  EXPECT_DOUBLE_EQ(pred[0], 2.0);  // mean of the two nearest
}

TEST(Knn, ManhattanVsEuclideanChangesNeighbours) {
  // Query at origin; A = (3, 0): L1 3, L2 3. B = (2.2, 2.2): L1 4.4, L2 ~3.11.
  Matrix x{{3.0, 0.0}, {2.2, 2.2}};
  Vector y{1.0, 2.0};
  KnnRegressor manhattan(1, 1.0, KnnWeights::kUniform);
  manhattan.fit(x, y);
  KnnRegressor euclidean(1, 2.0, KnnWeights::kUniform);
  euclidean.fit(x, y);
  const Matrix q{{0.0, 0.0}};
  EXPECT_DOUBLE_EQ(manhattan.predict(q)[0], 1.0);
  EXPECT_DOUBLE_EQ(euclidean.predict(q)[0], 1.0);
  // Move A out so the metrics disagree: A = (3.5, 0) -> L1 3.5 vs B 4.4;
  // L2: A 3.5 vs B 3.11 -> B nearer in L2, A nearer in L1.
  Matrix x2{{3.5, 0.0}, {2.2, 2.2}};
  manhattan.fit(x2, y);
  euclidean.fit(x2, y);
  EXPECT_DOUBLE_EQ(manhattan.predict(q)[0], 1.0);
  EXPECT_DOUBLE_EQ(euclidean.predict(q)[0], 2.0);
}

TEST(Knn, BeatsLinearOnNonlinearProblem) {
  const auto p = make_nonlinear_problem(400, 5);
  const auto test = make_nonlinear_problem(100, 6);
  LinearLeastSquares linear;
  linear.fit(p.x, p.y);
  KnnRegressor knn(5, 2.0, KnnWeights::kDistance);
  knn.fit(p.x, p.y);
  const double linear_r2 = r2_score(test.y, linear.predict(test.x));
  const double knn_r2 = r2_score(test.y, knn.predict(test.x));
  EXPECT_GT(knn_r2, linear_r2 + 0.2);
  EXPECT_GT(knn_r2, 0.8);
}

TEST(Knn, ParamPlumbing) {
  KnnRegressor model;
  model.set_params({{"k", 3}, {"p", 1}, {"weights", 1}});
  const ParamMap params = model.get_params();
  EXPECT_EQ(params.at("k"), 3);
  EXPECT_EQ(params.at("p"), 1);
  EXPECT_EQ(params.at("weights"), 1);
  EXPECT_THROW(model.set_params({{"bogus", 1}}), std::invalid_argument);
  EXPECT_THROW(model.set_params({{"k", 0}}), std::invalid_argument);
}

TEST(Svr, FitsLinearDataWithLinearKernel) {
  const auto p = make_linear_problem(80, 0.0, 7);
  SvrConfig config;
  config.kernel = SvrKernel::kLinear;
  config.c = 100.0;
  config.epsilon = 0.01;
  config.gamma = 1.0;
  SvrRegressor model(config);
  model.fit(p.x, p.y);
  const Vector pred = model.predict(p.x);
  // Every point should be inside (or near) the epsilon tube.
  EXPECT_LT(max_absolute_error(p.y, pred), 0.05);
  EXPECT_GT(r2_score(p.y, pred), 0.999);
}

TEST(Svr, RbfFitsNonlinearProblem) {
  const auto p = make_nonlinear_problem(300, 8);
  const auto test = make_nonlinear_problem(80, 9);
  SvrConfig config;
  config.c = 10.0;
  config.gamma = 0.5;
  config.epsilon = 0.02;
  SvrRegressor model(config);
  model.fit(p.x, p.y);
  EXPECT_GT(r2_score(test.y, model.predict(test.x)), 0.9);
  EXPECT_GT(model.num_support_vectors(), 10u);
  EXPECT_LE(model.final_gap(), config.tol);
}

TEST(Svr, ConstantTargetYieldsConstantPrediction) {
  Matrix x{{0.0}, {1.0}, {2.0}, {3.0}};
  Vector y{5.0, 5.0, 5.0, 5.0};
  SvrRegressor model;
  model.fit(x, y);
  const Vector pred = model.predict(x);
  for (const double v : pred) EXPECT_NEAR(v, 5.0, 0.2);
  EXPECT_EQ(model.num_support_vectors(), 0u);
}

TEST(Svr, EpsilonTubeIgnoresSmallNoise) {
  // With a wide tube, noise below epsilon yields (almost) no support vectors
  // relative to a narrow tube.
  const auto p = make_linear_problem(100, 0.05, 10);
  SvrConfig wide;
  wide.kernel = SvrKernel::kLinear;
  wide.epsilon = 0.5;
  wide.c = 10;
  SvrRegressor wide_model(wide);
  wide_model.fit(p.x, p.y);
  SvrConfig narrow = wide;
  narrow.epsilon = 0.001;
  SvrRegressor narrow_model(narrow);
  narrow_model.fit(p.x, p.y);
  EXPECT_LT(wide_model.num_support_vectors(),
            narrow_model.num_support_vectors());
}

TEST(Svr, BetaRespectsBoxAndSumConstraints) {
  // Indirect check: training must converge (gap <= tol) on a problem with a
  // tight C, which forces clipping at the box.
  const auto p = make_nonlinear_problem(120, 11);
  SvrConfig config;
  config.c = 0.05;
  config.gamma = 0.5;
  config.epsilon = 0.01;
  SvrRegressor model(config);
  model.fit(p.x, p.y);
  EXPECT_LE(model.final_gap(), config.tol);
}

TEST(Svr, ParamPlumbing) {
  SvrRegressor model;
  model.set_params({{"C", 3.5}, {"gamma", 0.055}, {"epsilon", 0.025}});
  const ParamMap params = model.get_params();
  EXPECT_DOUBLE_EQ(params.at("C"), 3.5);
  EXPECT_DOUBLE_EQ(params.at("gamma"), 0.055);
  EXPECT_DOUBLE_EQ(params.at("epsilon"), 0.025);
  EXPECT_THROW(model.set_params({{"C", -1}}), std::invalid_argument);
  EXPECT_THROW(model.set_params({{"nope", 1}}), std::invalid_argument);
}

/// Runs `action` and expects std::invalid_argument whose message contains
/// `needle` (the offending parameter or position).
template <typename Action>
void expect_invalid(Action action, const std::string& needle) {
  try {
    action();
    ADD_FAILURE() << "no exception; expected one naming '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Svr, RejectsNonFiniteAndOutOfRangeHyperparameters) {
  const auto set = [](const char* key, double value) {
    return [=] { SvrRegressor().set_params({{key, value}}); };
  };
  for (const double bad : {kNaN, kInf, 0.0, -1.0}) {
    expect_invalid([&] { SvrRegressor{SvrConfig{.c = bad}}; }, "C must");
    expect_invalid(set("C", bad), "C must");
    expect_invalid([&] { SvrRegressor{SvrConfig{.gamma = bad}}; },
                   "gamma must");
    expect_invalid(set("gamma", bad), "gamma must");
  }
  for (const double bad : {kNaN, kInf, -0.5}) {
    expect_invalid([&] { SvrRegressor{SvrConfig{.epsilon = bad}}; },
                   "epsilon must");
    expect_invalid(set("epsilon", bad), "epsilon must");
  }
  for (const double bad : {kNaN, kInf, -1.0, 3.0, 1.5, 1e300}) {
    expect_invalid(set("kernel", bad), "kernel must");
  }
  expect_invalid([] { SvrRegressor{SvrConfig{.kernel = SvrKernel{7}}}; },
                 "kernel must");
  for (const double bad : {kNaN, kInf, 0.0, 2.5, 65.0, 1e300}) {
    expect_invalid(set("degree", bad), "degree must");
  }
  expect_invalid([] { SvrRegressor{SvrConfig{.poly_degree = 0}}; },
                 "degree must");
  // A rejected update leaves every parameter as it was.
  SvrRegressor model;
  EXPECT_THROW(model.set_params({{"C", 2.0}, {"gamma", kNaN}}),
               std::invalid_argument);
  EXPECT_EQ(model.get_params(), SvrRegressor().get_params());
  model.set_params({{"kernel", 2}, {"degree", 4}});
  EXPECT_EQ(model.get_params().at("kernel"), 2);
  EXPECT_EQ(model.get_params().at("degree"), 4);
}

TEST(Knn, RejectsNonFiniteAndOutOfRangeHyperparameters) {
  const auto set = [](const char* key, double value) {
    return [=] { KnnRegressor().set_params({{key, value}}); };
  };
  for (const double bad : {kNaN, kInf, 0.0, 0.5, -3.0, 1e300}) {
    expect_invalid(set("k", bad), "k must");
  }
  for (const double bad : {kNaN, kInf, 0.5}) {
    expect_invalid([&] { KnnRegressor(3, bad); }, "p must");
    expect_invalid(set("p", bad), "p must");
  }
  for (const double bad : {kNaN, kInf}) {
    expect_invalid(set("weights", bad), "weights must");
  }
  KnnRegressor model(3, 1.0, KnnWeights::kUniform);
  EXPECT_THROW(model.set_params({{"k", 7}, {"p", kNaN}}),
               std::invalid_argument);
  EXPECT_EQ(model.get_params(),
            KnnRegressor(3, 1.0, KnnWeights::kUniform).get_params());
}

TEST(Models, RejectNonFiniteInputsNamingThePosition) {
  const auto p = make_linear_problem(20, 0.0, 30);
  const std::vector<std::unique_ptr<Regressor>> models = [] {
    std::vector<std::unique_ptr<Regressor>> out;
    out.push_back(std::make_unique<LinearLeastSquares>());
    out.push_back(std::make_unique<KnnRegressor>(3, 1.0));
    out.push_back(std::make_unique<SvrRegressor>());
    out.push_back(std::make_unique<DecisionTreeRegressor>());
    out.push_back(make_model("knn_paper"));
    return out;
  }();
  for (const auto& model : models) {
    SCOPED_TRACE(model->name());
    for (const double bad : {kNaN, kInf, -kInf}) {
      Matrix x = p.x;
      x(7, 1) = bad;
      expect_invalid([&] { model->fit(x, p.y); }, "X[7][1]");
      Vector y = p.y;
      y[4] = bad;
      expect_invalid([&] { model->fit(p.x, y); }, "y[4]");
    }
    // The -1 feature sentinel is an ordinary finite value.
    Matrix sentinel = p.x;
    sentinel(3, 0) = -1.0;
    model->fit(sentinel, p.y);
    Matrix query = p.x.select_rows(std::vector<std::size_t>{0, 1, 2});
    EXPECT_NO_THROW((void)model->predict(query));
    query(2, 0) = kNaN;
    expect_invalid([&] { (void)model->predict(query); }, "X[2][0]");
  }
}

TEST(Tree, FitsPiecewiseConstantExactly) {
  Matrix x{{0.0}, {1.0}, {2.0}, {3.0}, {10.0}, {11.0}, {12.0}};
  Vector y{1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0};
  DecisionTreeRegressor model;
  model.fit(x, y);
  const Vector pred = model.predict(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_DOUBLE_EQ(pred[i], y[i]);
  EXPECT_LE(model.depth(), 2u);
}

TEST(Tree, MaxDepthOneIsStump) {
  const auto p = make_nonlinear_problem(100, 12);
  DecisionTreeRegressor model(TreeConfig{.max_depth = 1});
  model.fit(p.x, p.y);
  EXPECT_EQ(model.num_nodes(), 1u);  // a single leaf (no split at depth 1)
}

TEST(Tree, MinSamplesLeafRespected) {
  const auto p = make_nonlinear_problem(64, 13);
  DecisionTreeRegressor model(TreeConfig{.max_depth = 50, .min_samples_leaf = 8});
  model.fit(p.x, p.y);
  // With >= 8 samples per leaf, at most 64/8 = 8 leaves -> <= 15 nodes.
  EXPECT_LE(model.num_nodes(), 15u);
}

TEST(Forest, BeatsSingleTreeOnNoisyData) {
  util::Rng rng(14);
  auto p = make_nonlinear_problem(400, 14);
  for (auto& v : p.y) v += 0.15 * rng.normal();
  const auto test = make_nonlinear_problem(150, 15);
  DecisionTreeRegressor tree(TreeConfig{.max_depth = 12});
  tree.fit(p.x, p.y);
  RandomForestRegressor forest(ForestConfig{.n_estimators = 40});
  forest.fit(p.x, p.y);
  const double tree_r2 = r2_score(test.y, tree.predict(test.x));
  const double forest_r2 = r2_score(test.y, forest.predict(test.x));
  EXPECT_GT(forest_r2, tree_r2);
}

TEST(Boosting, ImprovesWithMoreEstimators) {
  const auto p = make_nonlinear_problem(300, 16);
  const auto test = make_nonlinear_problem(100, 17);
  GradientBoostingRegressor small(BoostingConfig{.n_estimators = 5});
  small.fit(p.x, p.y);
  GradientBoostingRegressor big(BoostingConfig{.n_estimators = 200});
  big.fit(p.x, p.y);
  EXPECT_GT(r2_score(test.y, big.predict(test.x)),
            r2_score(test.y, small.predict(test.x)));
  EXPECT_GT(r2_score(test.y, big.predict(test.x)), 0.85);
}

TEST(Scaler, StandardizesColumns) {
  const auto p = make_linear_problem(200, 0.0, 18);
  StandardScaler scaler;
  const Matrix scaled = scaler.fit_transform(p.x);
  for (std::size_t c = 0; c < scaled.cols(); ++c) {
    const Vector col = scaled.col_copy(c);
    EXPECT_NEAR(linalg::mean(col), 0.0, 1e-10);
    EXPECT_NEAR(linalg::stddev(col), 1.0, 1e-10);
  }
}

TEST(Scaler, ConstantColumnCentredNotScaled) {
  Matrix x{{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  StandardScaler scaler;
  const Matrix scaled = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(scaled(r, 0), 0.0);
}

TEST(Scaler, MinMaxMapsToUnitInterval) {
  Matrix x{{0.0}, {5.0}, {10.0}};
  MinMaxScaler scaler;
  const Matrix scaled = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(scaled(2, 0), 1.0);
}

TEST(Pipeline, ScalesBeforeInnerModel) {
  // Feature 1 has a huge scale; unscaled k-NN would ignore feature 0.
  util::Rng rng(19);
  Matrix x(200, 2);
  Vector y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-10000, 10000);
    y[i] = x(i, 0) > 0 ? 1.0 : 0.0;  // depends only on the small feature
  }
  KnnRegressor raw(5, 2.0, KnnWeights::kUniform);
  raw.fit(x, y);
  auto piped = make_scaled<KnnRegressor>(5, 2.0, KnnWeights::kUniform);
  piped->fit(x, y);
  const double raw_r2 = r2_score(y, raw.predict(x));
  const double piped_r2 = r2_score(y, piped->predict(x));
  EXPECT_GT(piped_r2, 0.95);
  EXPECT_GT(piped_r2, raw_r2 + 0.2);
}

TEST(Pipeline, CloneIsIndependent) {
  const auto p = make_linear_problem(50, 0.0, 20);
  auto a = make_scaled<KnnRegressor>(3, 1.0, KnnWeights::kDistance);
  a->fit(p.x, p.y);
  auto b = a->clone();
  EXPECT_TRUE(b->is_fitted());
  const Vector pa = a->predict(p.x);
  const Vector pb = b->predict(p.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Zoo, AllModelsConstructFitPredict) {
  const auto p = make_linear_problem(60, 0.1, 21);
  for (const auto name : model_zoo_names()) {
    auto model = make_model(name);
    ASSERT_NE(model, nullptr) << name;
    model->fit(p.x, p.y);
    const Vector pred = model->predict(p.x);
    EXPECT_EQ(pred.size(), p.y.size()) << name;
    EXPECT_GT(r2_score(p.y, pred), 0.5) << name;
  }
  EXPECT_THROW((void)make_model("nope"), std::invalid_argument);
}

TEST(Metrics, HandComputedValues) {
  const Vector y_true{1.0, 2.0, 3.0, 4.0};
  const Vector y_pred{1.5, 2.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(mean_absolute_error(y_true, y_pred), (0.5 + 0 + 1 + 1) / 4.0);
  EXPECT_DOUBLE_EQ(max_absolute_error(y_true, y_pred), 1.0);
  EXPECT_NEAR(root_mean_squared_error(y_true, y_pred),
              std::sqrt((0.25 + 0 + 1 + 1) / 4.0), 1e-12);
  EXPECT_DOUBLE_EQ(r2_score(y_true, y_true), 1.0);
}

TEST(Metrics, EvEqualsR2WhenResidualMeanIsZero) {
  const Vector y_true{1.0, 2.0, 3.0, 4.0};
  const Vector y_pred{1.2, 1.8, 3.2, 3.8};  // residuals sum to 0
  EXPECT_NEAR(explained_variance(y_true, y_pred), r2_score(y_true, y_pred), 1e-12);
}

TEST(Metrics, EvIgnoresConstantBias) {
  const Vector y_true{1.0, 2.0, 3.0};
  const Vector biased{2.0, 3.0, 4.0};  // +1 everywhere
  EXPECT_DOUBLE_EQ(explained_variance(y_true, biased), 1.0);
  EXPECT_LT(r2_score(y_true, biased), 1.0);
}

TEST(Metrics, MismatchedSizesThrow) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  EXPECT_THROW((void)mean_absolute_error(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace ffr::ml
