#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "ml/serialize.hpp"
#include "ml/simd.hpp"

namespace ffr::ml {

namespace {

/// Largest k set_params() accepts: far above any training set, and exactly
/// representable as both a double and a size_t.
constexpr double kMaxK = 4294967296.0;

[[noreturn]] void reject(const std::string& what, double value) {
  throw std::invalid_argument("knn: " + what + ", got " +
                              std::to_string(value));
}

/// Minkowski exponents: finite and >= 1; the check fails for NaN.
void check_p(double p) {
  if (!(p >= 1.0 && std::isfinite(p))) reject("p must be finite and >= 1", p);
}

double euclidean(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace

KnnRegressor::KnnRegressor(std::size_t k, double minkowski_p, KnnWeights weights)
    : k_(k), p_(minkowski_p), weights_(weights) {
  if (k == 0) throw std::invalid_argument("knn: k must be >= 1");
  check_p(minkowski_p);
}

void KnnRegressor::set_params(const ParamMap& params) {
  std::size_t k = k_;
  double p = p_;
  KnnWeights weights = weights_;
  for (const auto& [key, value] : params) {
    if (key == "k") {
      // Range-checked as a double: converting NaN or a value past the
      // size_t range is undefined behaviour.
      if (!(value >= 1.0 && value <= kMaxK)) {
        reject("k must be in [1, 2^32]", value);
      }
      k = static_cast<std::size_t>(value);
    } else if (key == "p") {
      check_p(value);
      p = value;
    } else if (key == "weights") {
      if (!std::isfinite(value)) reject("weights must be finite", value);
      weights = value != 0.0 ? KnnWeights::kDistance : KnnWeights::kUniform;
    } else {
      throw std::invalid_argument("knn: unknown parameter '" + key + "'");
    }
  }
  k_ = k;
  p_ = p;
  weights_ = weights;
}

ParamMap KnnRegressor::get_params() const {
  return {{"k", static_cast<double>(k_)},
          {"p", p_},
          {"weights", static_cast<double>(static_cast<int>(weights_))}};
}

void KnnRegressor::distances(std::span<const double> query,
                             std::span<double> out) const {
  using simd::Vec;
  // Per sample the dimensions are summed in feature order from +0, as a
  // row-wise loop would; only the loop nest is swapped, so each lane runs
  // over contiguous training values. Four vectors per block keep four
  // independent sums in flight.
  constexpr std::size_t kBlock = 4;
  const auto accumulate = [&](auto term) {
    std::size_t t = 0;
    const auto sweep = [&]<std::size_t kVectors>() {
      Vec acc[kVectors] = {};
      for (std::size_t d = 0; d < train_cols_.rows(); ++d) {
        const Vec q = simd::splat(query[d]);
        const double* col = train_cols_.row(d).data() + t;
        for (std::size_t v = 0; v < kVectors; ++v) {
          acc[v] += term(q - simd::load(col + v * simd::kLanes));
        }
      }
      for (std::size_t v = 0; v < kVectors; ++v) {
        simd::store(out.data() + t + v * simd::kLanes, acc[v]);
      }
      t += kVectors * simd::kLanes;
    };
    while (t + kBlock * simd::kLanes <= out.size()) {
      sweep.template operator()<kBlock>();
    }
    while (t < out.size()) sweep.template operator()<1>();
  };
  if (p_ == 1.0) {
    accumulate([](Vec d) { return simd::abs(d); });
    return;
  }
  accumulate([&](Vec d) {
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      d[l] = std::pow(std::abs(d[l]), p_);
    }
    return d;
  });
  for (double& acc : out) acc = std::pow(acc, 1.0 / p_);
}

void KnnRegressor::build_columns() {
  train_cols_ = Matrix(train_x_.cols(), simd::round_up(train_x_.rows()));
  for (std::size_t t = 0; t < train_x_.rows(); ++t) {
    for (std::size_t d = 0; d < train_x_.cols(); ++d) {
      train_cols_(d, t) = train_x_(t, d);
    }
  }
}

void KnnRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  train_x_ = x;
  build_columns();
  train_y_.assign(y.begin(), y.end());
}

void KnnRegressor::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("knn save: not fitted");
  io::write_header(os, "knn");
  os << "k " << k_ << "\np ";
  io::write_double(os, p_);
  os << "\nweights " << static_cast<int>(weights_) << '\n';
  io::write_matrix(os, "train_x", train_x_);
  io::write_vector(os, "train_y", train_y_);
  os << "end\n";
}

std::unique_ptr<KnnRegressor> KnnRegressor::load_body(std::istream& is) {
  io::expect_token(is, "k");
  const auto k = static_cast<std::size_t>(io::read_size(is));
  io::expect_token(is, "p");
  const double p = io::read_double(is);
  io::expect_token(is, "weights");
  const std::uint64_t weights = io::read_size(is);
  if (weights > 1) {
    throw std::runtime_error("load_model: knn weights must be 0 or 1, got " +
                             std::to_string(weights));
  }
  auto model = std::make_unique<KnnRegressor>(
      k, p, weights != 0 ? KnnWeights::kDistance : KnnWeights::kUniform);
  model->train_x_ = io::read_matrix(is, "train_x");
  model->train_y_ = io::read_vector(is, "train_y");
  if (model->train_y_.size() != model->train_x_.rows()) {
    throw std::runtime_error("load_model: knn train_x/train_y row mismatch");
  }
  model->build_columns();
  io::expect_token(is, "end");
  return model;
}

Vector KnnRegressor::predict(const Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("knn: not fitted");
  check_predict_args(name(), train_x_.cols(), x);
  const std::size_t n_train = train_x_.rows();
  const std::size_t k = std::min(k_, n_train);

  Vector out(x.rows());
  Vector dist(train_cols_.cols());
  // The k smallest (distance, index) pairs, kept as a max-heap while the
  // samples stream past and sorted ascending at the end: the same pairs in
  // the same order as a partial_sort of all pairs. Indices only grow, so a
  // sample displaces the top only at a strictly smaller distance.
  std::vector<std::pair<double, std::size_t>> nearest(k);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    if (p_ == 2.0) {
      // Whether `acc += d * d` contracts to a fused multiply-add depends on
      // the loop's shape (a vectorized row loop fuses only its scalar tail),
      // so Euclidean sums keep the row-wise loop and its exact rounding.
      for (std::size_t t = 0; t < n_train; ++t) {
        dist[t] = euclidean(x.row(q), train_x_.row(t));
      }
    } else {
      distances(x.row(q), dist);
    }
    for (std::size_t t = 0; t < k; ++t) nearest[t] = {dist[t], t};
    std::make_heap(nearest.begin(), nearest.end());
    for (std::size_t t = k; t < n_train; ++t) {
      if (!(dist[t] < nearest.front().first)) continue;
      std::pop_heap(nearest.begin(), nearest.end());
      nearest.back() = {dist[t], t};
      std::push_heap(nearest.begin(), nearest.end());
    }
    std::sort_heap(nearest.begin(), nearest.end());
    if (weights_ == KnnWeights::kUniform) {
      double sum = 0.0;
      for (const auto& [d, t] : nearest) sum += train_y_[t];
      out[q] = sum / static_cast<double>(k);
      continue;
    }
    // Inverse-distance weights; an exact match dominates (scikit-learn
    // returns the exact neighbours' mean in that case).
    bool exact = false;
    double exact_sum = 0.0;
    std::size_t exact_count = 0;
    for (const auto& [d, t] : nearest) {
      if (d == 0.0) {
        exact = true;
        exact_sum += train_y_[t];
        ++exact_count;
      }
    }
    if (exact) {
      out[q] = exact_sum / static_cast<double>(exact_count);
      continue;
    }
    double weight_sum = 0.0;
    double value_sum = 0.0;
    for (const auto& [d, t] : nearest) {
      const double w = 1.0 / d;
      weight_sum += w;
      value_sum += w * train_y_[t];
    }
    out[q] = value_sum / weight_sum;
  }
  return out;
}

}  // namespace ffr::ml
