#include "ml/svr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "ml/serialize.hpp"
#include "ml/simd.hpp"

namespace ffr::ml {

namespace {

/// Highest polynomial-kernel degree a config may ask for.
constexpr int kMaxPolyDegree = 64;

[[noreturn]] void reject(const std::string& what, double value) {
  throw std::invalid_argument("svr: " + what + ", got " +
                              std::to_string(value));
}

/// Every check is written so that NaN fails it.
void validate(const SvrConfig& config) {
  if (!(config.c > 0.0 && std::isfinite(config.c))) {
    reject("C must be finite and > 0", config.c);
  }
  if (!(config.epsilon >= 0.0 && std::isfinite(config.epsilon))) {
    reject("epsilon must be finite and >= 0", config.epsilon);
  }
  if (!(config.gamma > 0.0 && std::isfinite(config.gamma))) {
    reject("gamma must be finite and > 0", config.gamma);
  }
  const int kernel = static_cast<int>(config.kernel);
  if (kernel < 0 || kernel > 2) {
    reject("kernel must be 0 (rbf), 1 (linear) or 2 (poly)", kernel);
  }
  if (config.poly_degree < 1 || config.poly_degree > kMaxPolyDegree) {
    reject("degree must be in [1, " + std::to_string(kMaxPolyDegree) + "]",
           config.poly_degree);
  }
}

}  // namespace

SvrRegressor::SvrRegressor(SvrConfig config) : config_(config) {
  validate(config_);
}

void SvrRegressor::set_params(const ParamMap& params) {
  SvrConfig next = config_;
  for (const auto& [key, value] : params) {
    if (key == "C") {
      next.c = value;
    } else if (key == "epsilon") {
      next.epsilon = value;
    } else if (key == "gamma") {
      next.gamma = value;
    } else if (key == "kernel") {
      // Categorical: checked as a double, before any integer conversion.
      if (value != 0.0 && value != 1.0 && value != 2.0) {
        reject("kernel must be 0 (rbf), 1 (linear) or 2 (poly)", value);
      }
      next.kernel = static_cast<SvrKernel>(static_cast<int>(value));
    } else if (key == "degree") {
      if (!(value >= 1.0 && value <= kMaxPolyDegree) ||
          value != std::floor(value)) {
        reject("degree must be an integer in [1, " +
                   std::to_string(kMaxPolyDegree) + "]",
               value);
      }
      next.poly_degree = static_cast<int>(value);
    } else {
      throw std::invalid_argument("svr: unknown parameter '" + key + "'");
    }
  }
  validate(next);
  config_ = next;
}

ParamMap SvrRegressor::get_params() const {
  return {{"C", config_.c},
          {"epsilon", config_.epsilon},
          {"gamma", config_.gamma},
          {"kernel", static_cast<double>(static_cast<int>(config_.kernel))},
          {"degree", static_cast<double>(config_.poly_degree)}};
}

double SvrRegressor::kernel(std::span<const double> a,
                            std::span<const double> b) const {
  switch (config_.kernel) {
    case SvrKernel::kRbf: {
      double sq = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sq += d * d;
      }
      return std::exp(-config_.gamma * sq);
    }
    case SvrKernel::kLinear:
      return linalg::dot(a, b);
    case SvrKernel::kPoly:
      return std::pow(config_.gamma * linalg::dot(a, b) + 1.0,
                      config_.poly_degree);
  }
  throw std::logic_error("svr: unknown kernel");
}

void SvrRegressor::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("svr save: not fitted");
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
  os << "n_features " << n_features_ << "\nbias ";
  io::write_double(os, bias_);
  os << '\n';
  io::write_matrix(os, "support_x", support_x_);
  io::write_vector(os, "support_beta", support_beta_);
  os << "end\n";
}

std::unique_ptr<SvrRegressor> SvrRegressor::load_body(std::istream& is) {
  io::expect_token(is, "config");
  SvrConfig config;
  config.c = io::read_double(is);
  config.epsilon = io::read_double(is);
  config.gamma = io::read_double(is);
  const std::uint64_t kernel = io::read_size(is);
  if (kernel > 2) {
    throw std::runtime_error("load_model: svr kernel must be 0..2, got " +
                             std::to_string(kernel));
  }
  config.kernel = static_cast<SvrKernel>(static_cast<int>(kernel));
  config.poly_degree = static_cast<int>(io::read_size(is, kMaxPolyDegree));
  config.tol = io::read_double(is);
  config.max_passes = static_cast<std::size_t>(io::read_size(is));
  auto model = std::make_unique<SvrRegressor>(config);
  io::expect_token(is, "n_features");
  model->n_features_ = static_cast<std::size_t>(io::read_size(is));
  io::expect_token(is, "bias");
  model->bias_ = io::read_double(is);
  model->support_x_ = io::read_matrix(is, "support_x");
  model->support_beta_ = io::read_vector(is, "support_beta");
  if (model->support_beta_.size() != model->support_x_.rows()) {
    throw std::runtime_error(
        "load_model: svr support_x/support_beta row mismatch");
  }
  if (model->support_x_.rows() > 0 &&
      model->support_x_.cols() != model->n_features_) {
    throw std::runtime_error(
        "load_model: svr n_features " + std::to_string(model->n_features_) +
        " does not match support_x with " +
        std::to_string(model->support_x_.cols()) + " columns");
  }
  io::expect_token(is, "end");
  model->fitted_ = true;
  return model;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using simd::IndexVec;
using simd::kLanes;
using simd::Vec;

/// Feasible-b interval of one point as offsets from its error
/// E = y - f: low = E + lo, up = E + up. `e - eps` is exactly `e + (-eps)`
/// in IEEE arithmetic and `e + (-inf)` is -inf, so the offsets reproduce the
/// interval of every box status without re-deriving the status per scan.
struct BoundOffsets {
  double lo;
  double up;
};

BoundOffsets bound_offsets(double beta, double c, double eps) {
  const double margin = 1e-12 * std::max(1.0, c);
  if (beta > margin && beta < c - margin) return {-eps, -eps};  // free, > 0
  if (beta < -margin && beta > -c + margin) return {eps, eps};  // free, < 0
  if (std::abs(beta) <= margin) return {-eps, eps};             // zero
  if (beta >= c - margin) return {-kInf, -eps};  // at +C: b <= E - eps
  return {eps, kInf};                            // at -C: b >= E + eps
}

/// The most-violating pair of the optimality condition max low <= min up:
/// i_low is the first index of the largest low, j_up the first index of the
/// smallest up (index 0 when every bound is infinite).
struct ViolatingPair {
  double max_low = -kInf;
  double min_up = kInf;
  std::size_t i_low = 0;
  std::size_t j_up = 0;
};

/// Padded SMO working set: every array has a multiple of kLanes entries and
/// the padding entries have the bounds (-inf, +inf), so they never win.
struct SmoState {
  std::size_t n_pad = 0;
  std::vector<double> k;   // kernel matrix, row stride n_pad, zero padding
  std::vector<double> y;
  std::vector<double> f;   // f_i = sum_j beta_j K_ij (bias-free prediction)
  std::vector<double> lo;  // bound offsets of each point
  std::vector<double> up;
};

/// One pass over the working set: when kUpdate, applies
/// f += delta * (K_i - K_j) first, then selects the most-violating pair of
/// the resulting state. Each lane keeps the first index of its own extreme
/// (strict comparisons), so the first index of the overall extreme is the
/// smallest lane index among the lanes that reach it: the pair a plain
/// first-index scan picks. The inputs are finite, so no NaN breaks the
/// ordering.
template <bool kUpdate>
ViolatingPair sweep(SmoState& s, std::size_t i, std::size_t j, double delta) {
  const double* k_i = s.k.data() + i * s.n_pad;
  const double* k_j = s.k.data() + j * s.n_pad;
  double* f = s.f.data();
  const Vec d = simd::splat(delta);
  Vec max_low = simd::splat(-kInf);
  Vec min_up = simd::splat(kInf);
  IndexVec i_low = {};
  IndexVec j_up = {};
  IndexVec index = simd::iota(0);
  for (std::size_t t = 0; t < s.n_pad; t += kLanes) {
    Vec ft = simd::load(f + t);
    if constexpr (kUpdate) {
      ft += d * (simd::load(k_i + t) - simd::load(k_j + t));
      simd::store(f + t, ft);
    }
    const Vec e = simd::load(s.y.data() + t) - ft;
    const Vec low = e + simd::load(s.lo.data() + t);
    const Vec up = e + simd::load(s.up.data() + t);
    const IndexVec raises = low > max_low;
    max_low = raises ? low : max_low;
    i_low = raises ? index : i_low;
    const IndexVec lowers = up < min_up;
    min_up = lowers ? up : min_up;
    j_up = lowers ? index : j_up;
    index += static_cast<std::int64_t>(kLanes);
  }
  ViolatingPair pair;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto li = static_cast<std::size_t>(i_low[l]);
    if (max_low[l] > pair.max_low ||
        (max_low[l] == pair.max_low && li < pair.i_low)) {
      pair.max_low = max_low[l];
      pair.i_low = li;
    }
    const auto lj = static_cast<std::size_t>(j_up[l]);
    if (min_up[l] < pair.min_up ||
        (min_up[l] == pair.min_up && lj < pair.j_up)) {
      pair.min_up = min_up[l];
      pair.j_up = lj;
    }
  }
  return pair;
}

}  // namespace

void SvrRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  n_features_ = x.cols();
  const std::size_t n = x.rows();
  const double c = config_.c;
  const double eps = config_.epsilon;

  SmoState s;
  s.n_pad = simd::round_up(n);
  // Kernel matrix cache (n is ~1k at most in our workloads: fine).
  s.k.assign(n * s.n_pad, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double kij = kernel(x.row(i), x.row(j));
      s.k[i * s.n_pad + j] = kij;
      s.k[j * s.n_pad + i] = kij;
    }
  }
  const auto k = [&](std::size_t i, std::size_t j) {
    return s.k[i * s.n_pad + j];
  };
  s.y.assign(s.n_pad, 0.0);
  std::copy(y.begin(), y.end(), s.y.begin());
  s.f.assign(s.n_pad, 0.0);
  s.lo.assign(s.n_pad, -kInf);
  s.up.assign(s.n_pad, kInf);
  Vector beta(n, 0.0);
  const auto set_offsets = [&](std::size_t t) {
    const BoundOffsets offsets = bound_offsets(beta[t], c, eps);
    s.lo[t] = offsets.lo;
    s.up[t] = offsets.up;
  };
  for (std::size_t t = 0; t < n; ++t) set_offsets(t);
  const std::span<const double> f(s.f.data(), n);

  // Exact change of the dual objective when beta_i += delta, beta_j -= delta.
  const auto delta_objective = [&](std::size_t i, std::size_t j, double delta,
                                   double eta) {
    const double smooth =
        0.5 * eta * delta * delta + delta * ((f[i] - y[i]) - (f[j] - y[j]));
    const double l1 = eps * (std::abs(beta[i] + delta) - std::abs(beta[i]) +
                             std::abs(beta[j] - delta) - std::abs(beta[j]));
    return smooth + l1;
  };

  // Each pass updates the pair the previous sweep selected, and the sweep
  // that applies the update selects the next pair. A pass that cannot move
  // the pair leaves the state as it is, so every later pass would pick the
  // same pair and stall the same way: stop there instead of spinning out
  // the pass budget.
  ViolatingPair pair = sweep<false>(s, 0, 0, 0.0);
  std::size_t passes = 0;
  double gap = kInf;
  while (passes < config_.max_passes) {
    gap = pair.max_low - pair.min_up;
    if (gap <= config_.tol) break;

    const std::size_t i = pair.i_low;
    const std::size_t j = pair.j_up;
    const double eta = k(i, i) + k(j, j) - 2.0 * k(i, j);

    // Candidate deltas: box ends, sign breakpoints, and the stationary
    // points of the four smooth branches; the exact 1-D objective picks.
    const double lo = std::max(-c - beta[i], beta[j] - c);
    const double hi = std::min(c - beta[i], beta[j] + c);
    if (hi <= lo) break;
    std::array<double, 8> candidates{lo, hi};
    std::size_t num_candidates = 2;
    const auto add_candidate = [&](double d) {
      if (d > lo && d < hi) candidates[num_candidates++] = d;
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
    double best_obj = 0.0;  // objective change of delta = 0
    for (std::size_t m = 0; m < num_candidates; ++m) {
      const double obj = delta_objective(i, j, candidates[m], eta);
      if (obj < best_obj - 1e-15) {
        best_obj = obj;
        best_delta = candidates[m];
      }
    }
    if (best_delta == 0.0) break;  // numerically stuck on this pair
    beta[i] += best_delta;
    beta[j] -= best_delta;
    set_offsets(i);
    set_offsets(j);
    pair = sweep<true>(s, i, j, best_delta);
    ++passes;
  }
  final_gap_ = gap;

  // Bias: midpoint of the residual feasible-b interval. The last sweep saw
  // the final state, and its first-index extrema equal std::max/std::min
  // folds over the same values.
  if (std::isfinite(pair.max_low) && std::isfinite(pair.min_up)) {
    bias_ = 0.5 * (pair.max_low + pair.min_up);
  } else if (std::isfinite(pair.max_low)) {
    bias_ = pair.max_low;
  } else if (std::isfinite(pair.min_up)) {
    bias_ = pair.min_up;
  } else {
    bias_ = linalg::mean(y);
  }

  // Keep only support vectors.
  std::vector<std::size_t> support;
  for (std::size_t t = 0; t < n; ++t) {
    if (std::abs(beta[t]) > 1e-10) support.push_back(t);
  }
  support_x_ = x.select_rows(support);
  support_beta_.clear();
  support_beta_.reserve(support.size());
  for (const std::size_t t : support) support_beta_.push_back(beta[t]);
  fitted_ = true;
}

Vector SvrRegressor::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("svr: not fitted");
  check_predict_args(name(), n_features_, x);
  Vector out(x.rows(), bias_);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    double acc = 0.0;
    for (std::size_t s = 0; s < support_x_.rows(); ++s) {
      acc += support_beta_[s] * kernel(support_x_.row(s), query);
    }
    out[q] += acc;
  }
  return out;
}

}  // namespace ffr::ml
