// Differential tests for the learning-curve kernels: the SVR's fused SMO
// sweep and k-NN's feature-major top-k predict, each against a test-local
// plain reference (a per-point box-status scan plus a separate f update for
// SMO; row-wise distances plus std::partial_sort over every
// (distance, index) pair for k-NN). Everything is compared bit for bit:
// bias, final gap, support set, saved model text and predictions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/knn.hpp"
#include "ml/serialize.hpp"
#include "ml/svr.hpp"
#include "util/rng.hpp"

namespace ffr::ml {
namespace {

void expect_bits_eq(std::span<const double> expected,
                    std::span<const double> actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << "index " << i << ": " << expected[i] << " vs " << actual[i];
  }
}

struct Problem {
  Matrix x;
  Vector y;
};

/// Smooth target over uniform features; with `grid` > 0 the features and
/// targets are quantized, so rows repeat and distances and bounds tie.
Problem make_problem(std::size_t n, std::size_t dims, std::uint64_t seed,
                     double grid = 0.0) {
  util::Rng rng(seed);
  Problem p;
  p.x = Matrix(n, dims);
  p.y.resize(n);
  const auto draw = [&](double lo, double hi) {
    const double v = rng.uniform(lo, hi);
    return grid > 0.0 ? std::round(v / grid) * grid : v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    double target = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      p.x(i, d) = draw(-2.0, 2.0);
      target += std::sin(p.x(i, d) + static_cast<double>(d));
    }
    p.y[i] = grid > 0.0 ? std::round(target / grid) * grid
                        : target + 0.05 * rng.normal();
  }
  return p;
}

/// Appends copies of the first rows, so duplicated rows produce exactly
/// tied SMO bounds and exactly tied k-NN distances.
Problem with_duplicates(Problem p, std::size_t copies) {
  const std::size_t n = p.x.rows();
  Matrix x(n + copies, p.x.cols());
  for (std::size_t i = 0; i < n + copies; ++i) x.set_row(i, p.x.row(i % n));
  for (std::size_t i = 0; i < copies; ++i) p.y.push_back(p.y[i % n]);
  p.x = std::move(x);
  return p;
}

// ---------------------------------------------------------------------------
// SVR oracle: the SMO loop with a per-point status scan and a separate f
// update, and the predict formula.
// ---------------------------------------------------------------------------

struct OracleSvr {
  double bias = 0.0;
  double gap = 0.0;
  Matrix support_x;
  Vector support_beta;
  std::string text;
};

OracleSvr oracle_svr_fit(const SvrConfig& config_, const Matrix& x,
                         std::span<const double> y) {
  const SvrRegressor kernels(config_);
  const auto kernel = [&](std::span<const double> a,
                          std::span<const double> b) {
    return kernels.kernel(a, b);
  };
  const std::size_t n = x.rows();
  const double c = config_.c;
  const double eps = config_.epsilon;

  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double kij = kernel(x.row(i), x.row(j));
      k(i, j) = kij;
      k(j, i) = kij;
    }
  }

  Vector beta(n, 0.0);
  Vector f(n, 0.0);

  const auto b_bounds = [&](std::size_t i) {
    const double e_i = y[i] - f[i];
    double low = -std::numeric_limits<double>::infinity();
    double up = std::numeric_limits<double>::infinity();
    const double margin = 1e-12 * std::max(1.0, c);
    if (beta[i] > margin && beta[i] < c - margin) {
      low = up = e_i - eps;
    } else if (beta[i] < -margin && beta[i] > -c + margin) {
      low = up = e_i + eps;
    } else if (std::abs(beta[i]) <= margin) {
      low = e_i - eps;
      up = e_i + eps;
    } else if (beta[i] >= c - margin) {
      up = e_i - eps;
    } else {
      low = e_i + eps;
    }
    return std::pair{low, up};
  };

  const auto delta_objective = [&](std::size_t i, std::size_t j, double delta,
                                   double eta) {
    const double smooth =
        0.5 * eta * delta * delta + delta * ((f[i] - y[i]) - (f[j] - y[j]));
    const double l1 = eps * (std::abs(beta[i] + delta) - std::abs(beta[i]) +
                             std::abs(beta[j] - delta) - std::abs(beta[j]));
    return smooth + l1;
  };

  std::size_t passes = 0;
  double gap = std::numeric_limits<double>::infinity();
  while (passes < config_.max_passes) {
    double max_low = -std::numeric_limits<double>::infinity();
    double min_up = std::numeric_limits<double>::infinity();
    std::size_t i_low = 0;
    std::size_t j_up = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const auto [low, up] = b_bounds(t);
      if (low > max_low) {
        max_low = low;
        i_low = t;
      }
      if (up < min_up) {
        min_up = up;
        j_up = t;
      }
    }
    gap = max_low - min_up;
    if (gap <= config_.tol) break;

    const std::size_t i = i_low;
    const std::size_t j = j_up;
    const double eta = k(i, i) + k(j, j) - 2.0 * k(i, j);

    const double lo = std::max(-c - beta[i], beta[j] - c);
    const double hi = std::min(c - beta[i], beta[j] + c);
    if (hi <= lo) {
      ++passes;
      continue;
    }
    std::vector<double> candidates{lo, hi};
    const auto add_candidate = [&](double d) {
      if (d > lo && d < hi) candidates.push_back(d);
    };
    add_candidate(-beta[i]);
    add_candidate(beta[j]);
    if (eta > 1e-12) {
      const double base = -((f[i] - y[i]) - (f[j] - y[j]));
      for (const double si : {-1.0, 1.0}) {
        for (const double sj : {-1.0, 1.0}) {
          add_candidate((base - eps * si + eps * sj) / eta);
        }
      }
    }
    double best_delta = 0.0;
    double best_obj = 0.0;
    for (const double d : candidates) {
      const double obj = delta_objective(i, j, d, eta);
      if (obj < best_obj - 1e-15) {
        best_obj = obj;
        best_delta = d;
      }
    }
    if (best_delta == 0.0) {
      ++passes;
      continue;
    }
    beta[i] += best_delta;
    beta[j] -= best_delta;
    // Through a raw pointer: a bounds-checked f[t] (libstdc++ assertions)
    // puts a branch between the multiply and the add, and the compiler then
    // stops contracting them into the fused multiply-add of release builds.
    double* f_data = f.data();
    for (std::size_t t = 0; t < n; ++t) {
      f_data[t] += best_delta * (k(i, t) - k(j, t));
    }
    ++passes;
  }

  OracleSvr out;
  out.gap = gap;
  {
    double max_low = -std::numeric_limits<double>::infinity();
    double min_up = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      const auto [low, up] = b_bounds(t);
      max_low = std::max(max_low, low);
      min_up = std::min(min_up, up);
    }
    if (std::isfinite(max_low) && std::isfinite(min_up)) {
      out.bias = 0.5 * (max_low + min_up);
    } else if (std::isfinite(max_low)) {
      out.bias = max_low;
    } else if (std::isfinite(min_up)) {
      out.bias = min_up;
    } else {
      out.bias = linalg::mean(y);
    }
  }

  std::vector<std::size_t> support;
  for (std::size_t t = 0; t < n; ++t) {
    if (std::abs(beta[t]) > 1e-10) support.push_back(t);
  }
  out.support_x = x.select_rows(support);
  for (const std::size_t t : support) out.support_beta.push_back(beta[t]);

  std::ostringstream os;
  io::write_header(os, "svr");
  os << "config ";
  io::write_double(os, config_.c);
  os << ' ';
  io::write_double(os, config_.epsilon);
  os << ' ';
  io::write_double(os, config_.gamma);
  os << ' ' << static_cast<int>(config_.kernel) << ' ' << config_.poly_degree
     << ' ';
  io::write_double(os, config_.tol);
  os << ' ' << config_.max_passes << '\n';
  os << "n_features " << x.cols() << "\nbias ";
  io::write_double(os, out.bias);
  os << '\n';
  io::write_matrix(os, "support_x", out.support_x);
  io::write_vector(os, "support_beta", out.support_beta);
  os << "end\n";
  out.text = os.str();
  return out;
}

Vector oracle_svr_predict(const SvrConfig& config, const OracleSvr& fitted,
                          const Matrix& x) {
  const SvrRegressor kernels(config);
  Vector out(x.rows(), fitted.bias);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    double acc = 0.0;
    for (std::size_t s = 0; s < fitted.support_x.rows(); ++s) {
      acc += fitted.support_beta[s] *
             kernels.kernel(fitted.support_x.row(s), query);
    }
    out[q] += acc;
  }
  return out;
}

void expect_svr_matches_oracle(const SvrConfig& config, const Problem& train,
                               const Matrix& queries) {
  const OracleSvr oracle = oracle_svr_fit(config, train.x, train.y);
  SvrRegressor model(config);
  model.fit(train.x, train.y);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.bias),
            std::bit_cast<std::uint64_t>(model.bias()))
      << oracle.bias << " vs " << model.bias();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.gap),
            std::bit_cast<std::uint64_t>(model.final_gap()))
      << oracle.gap << " vs " << model.final_gap();
  EXPECT_EQ(oracle.support_beta.size(), model.num_support_vectors());
  std::ostringstream saved;
  model.save(saved);
  EXPECT_EQ(oracle.text, saved.str());
  expect_bits_eq(oracle_svr_predict(config, oracle, queries),
                 model.predict(queries));
}

SvrConfig svr_config(SvrKernel kernel, double c) {
  SvrConfig config;
  config.kernel = kernel;
  config.c = c;
  config.epsilon = 0.025;
  config.gamma = kernel == SvrKernel::kRbf ? 0.5 : 0.1;
  config.poly_degree = 2;
  return config;
}

constexpr SvrKernel kKernels[] = {SvrKernel::kRbf, SvrKernel::kLinear,
                                  SvrKernel::kPoly};

TEST(SvrDifferential, EverySizeAroundTheSimdChunk) {
  // Sizes below, at and past multiples of every sweep width (2, 4 or 8
  // lanes, by build ISA).
  const Matrix queries = make_problem(17, 3, 99).x;
  for (const std::size_t n : {1, 2, 7, 8, 9, 63, 64, 65, 300}) {
    for (const SvrKernel kernel : kKernels) {
      SCOPED_TRACE("n=" + std::to_string(n) + " kernel=" +
                   std::to_string(static_cast<int>(kernel)));
      expect_svr_matches_oracle(svr_config(kernel, 3.5),
                                make_problem(n, 3, 1000 + n), queries);
    }
  }
}

TEST(SvrDifferential, DuplicatedRowsTieTheViolatingPair) {
  const Matrix queries = make_problem(9, 2, 98, 0.5).x;
  for (const SvrKernel kernel : kKernels) {
    SCOPED_TRACE("kernel=" + std::to_string(static_cast<int>(kernel)));
    expect_svr_matches_oracle(
        svr_config(kernel, 3.5),
        with_duplicates(make_problem(40, 2, 7, 0.5), 30), queries);
  }
}

TEST(SvrDifferential, SmallCForcesBoundSupportVectors) {
  const Matrix queries = make_problem(11, 3, 97).x;
  for (const SvrKernel kernel : kKernels) {
    for (const std::size_t n : {9, 65, 200}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " kernel=" +
                   std::to_string(static_cast<int>(kernel)));
      expect_svr_matches_oracle(svr_config(kernel, 0.05),
                                make_problem(n, 3, 2000 + n), queries);
    }
  }
}

TEST(SvrDifferential, ZeroEpsilonAndTightBudget) {
  // epsilon = 0 makes the bound offsets signed zeros; a small pass budget
  // ends training mid-descent, where the bias comes from the last sweep.
  const Problem train = make_problem(64, 2, 31);
  for (const std::size_t max_passes : {0, 1, 5, 37}) {
    SvrConfig config = svr_config(SvrKernel::kRbf, 3.5);
    config.epsilon = 0.0;
    config.max_passes = max_passes;
    SCOPED_TRACE("max_passes=" + std::to_string(max_passes));
    expect_svr_matches_oracle(config, train, train.x);
  }
}

TEST(SvrDifferential, ConstantTargetNeedsNoSupportVectors) {
  Problem train;
  train.x = Matrix{{0.0}, {1.0}, {2.0}, {3.0}};
  train.y = {5.0, 5.0, 5.0, 5.0};
  expect_svr_matches_oracle(SvrConfig{}, train, train.x);
}

// ---------------------------------------------------------------------------
// k-NN oracle: row-wise Minkowski distances and partial_sort over all pairs.
// ---------------------------------------------------------------------------

double oracle_distance(double p_, std::span<const double> a,
                       std::span<const double> b) {
  double acc = 0.0;
  if (p_ == 1.0) {
    for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
    return acc;
  }
  if (p_ == 2.0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::pow(std::abs(a[i] - b[i]), p_);
  }
  return std::pow(acc, 1.0 / p_);
}

Vector oracle_knn_predict(std::size_t k_, double p_, KnnWeights weights_,
                          const Matrix& train_x_, const Vector& train_y_,
                          const Matrix& x) {
  const std::size_t n_train = train_x_.rows();
  const std::size_t k = std::min(k_, n_train);

  Vector out(x.rows());
  std::vector<std::pair<double, std::size_t>> dist(n_train);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    for (std::size_t t = 0; t < n_train; ++t) {
      dist[t] = {oracle_distance(p_, query, train_x_.row(t)), t};
    }
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                      dist.end());
    if (weights_ == KnnWeights::kUniform) {
      double sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) sum += train_y_[dist[i].second];
      out[q] = sum / static_cast<double>(k);
      continue;
    }
    bool exact = false;
    double exact_sum = 0.0;
    std::size_t exact_count = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (dist[i].first == 0.0) {
        exact = true;
        exact_sum += train_y_[dist[i].second];
        ++exact_count;
      }
    }
    if (exact) {
      out[q] = exact_sum / static_cast<double>(exact_count);
      continue;
    }
    double weight_sum = 0.0;
    double value_sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double w = 1.0 / dist[i].first;
      weight_sum += w;
      value_sum += w * train_y_[dist[i].second];
    }
    out[q] = value_sum / weight_sum;
  }
  return out;
}

void expect_knn_matches_oracle(std::size_t k, double p, KnnWeights weights,
                               const Problem& train, const Matrix& queries) {
  SCOPED_TRACE("k=" + std::to_string(k) + " p=" + std::to_string(p) +
               " weights=" + std::to_string(static_cast<int>(weights)));
  KnnRegressor model(k, p, weights);
  model.fit(train.x, train.y);
  const Vector expected =
      oracle_knn_predict(k, p, weights, train.x, train.y, queries);
  expect_bits_eq(expected, model.predict(queries));
  // Single-row queries take the same path as a batch.
  for (std::size_t q = 0; q < queries.rows(); q += 7) {
    const Matrix one = queries.select_rows(std::vector<std::size_t>{q});
    expect_bits_eq({&expected[q], 1}, model.predict(one));
  }
}

constexpr double kMinkowski[] = {1.0, 2.0, 3.0};
constexpr KnnWeights kWeights[] = {KnnWeights::kUniform, KnnWeights::kDistance};

TEST(KnnDifferential, ContinuousFeatures) {
  // Feature counts around the widths a compiler may vectorize a per-row
  // distance loop with, so every split of body and tail is compared; 25 is
  // the paper's feature set size.
  for (const std::size_t dims : {1, 2, 3, 4, 5, 8, 9, 25}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Problem train = make_problem(300, dims, 11);
    const Matrix queries = make_problem(50, dims, 12).x;
    for (const double p : kMinkowski) {
      for (const KnnWeights weights : kWeights) {
        for (const std::size_t k : {1, 3, 8, 100}) {
          expect_knn_matches_oracle(k, p, weights, train, queries);
        }
      }
    }
  }
}

TEST(KnnDifferential, GridFeaturesTieDistances) {
  // Quantized features and duplicated rows: many neighbours at exactly the
  // same distance, so the (distance, index) tie-break decides the top k.
  const Problem train = with_duplicates(make_problem(120, 3, 13, 1.0), 40);
  const Matrix queries = make_problem(40, 3, 14, 1.0).x;
  for (const double p : kMinkowski) {
    for (const KnnWeights weights : kWeights) {
      for (const std::size_t k : {1, 3, 5, 20}) {
        expect_knn_matches_oracle(k, p, weights, train, queries);
      }
    }
  }
}

TEST(KnnDifferential, ExactMatchesAndKBeyondTrainingSet) {
  // Queries are training rows (distance 0, the exact-match branch); k larger
  // than the training set clamps to every sample.
  const Problem train = with_duplicates(make_problem(9, 2, 15, 0.5), 4);
  for (const double p : kMinkowski) {
    for (const KnnWeights weights : kWeights) {
      for (const std::size_t k : {3, 13, 50}) {
        expect_knn_matches_oracle(k, p, weights, train, train.x);
      }
    }
  }
}

TEST(KnnDifferential, SavedTextIsRowMajorAndRoundTrips) {
  const Problem train = make_problem(23, 4, 16);
  KnnRegressor model(3, 1.0, KnnWeights::kDistance);
  model.fit(train.x, train.y);
  std::ostringstream expected;
  io::write_header(expected, "knn");
  expected << "k 3\np ";
  io::write_double(expected, 1.0);
  expected << "\nweights 1\n";
  io::write_matrix(expected, "train_x", train.x);
  io::write_vector(expected, "train_y", train.y);
  expected << "end\n";
  std::ostringstream saved;
  model.save(saved);
  EXPECT_EQ(expected.str(), saved.str());

  std::istringstream in(saved.str());
  const auto loaded = load_model(in);
  std::ostringstream resaved;
  loaded->save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());
  const Matrix queries = make_problem(10, 4, 17).x;
  expect_bits_eq(model.predict(queries), loaded->predict(queries));
}

}  // namespace
}  // namespace ffr::ml
