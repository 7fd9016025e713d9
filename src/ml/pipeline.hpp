#pragma once
/// \file pipeline.hpp
/// \brief Scaler + model pipeline, so distance/kernel models always see
/// standardized features — the moral equivalent of scikit-learn's
/// `make_pipeline(StandardScaler(), model)`. The zoo (model_zoo.hpp) wraps
/// every distance/kernel model this way.

#include "ml/model.hpp"
#include "ml/scaler.hpp"

namespace ffr::ml {

/// A Regressor that standardizes features (StandardScaler, fitted on the
/// training matrix) before delegating to an inner model. Hyperparameter
/// access forwards to the inner model, so search/CV drive the pipeline
/// exactly like a bare model.
class ScaledPipeline final : public Regressor {
 public:
  /// Wraps `inner`; the scaler is fitted later, during fit().
  /// \throws std::invalid_argument when `inner` is null.
  explicit ScaledPipeline(std::unique_ptr<Regressor> inner)
      : inner_(std::move(inner)) {
    if (!inner_) throw std::invalid_argument("pipeline: null model");
  }

  /// Reassembles a pipeline from an already-fitted scaler and inner model;
  /// used by model loading (serialize.hpp).
  /// \throws std::invalid_argument when `inner` is null.
  ScaledPipeline(StandardScaler scaler, std::unique_ptr<Regressor> inner)
      : scaler_(std::move(scaler)), inner_(std::move(inner)) {
    if (!inner_) throw std::invalid_argument("pipeline: null model");
  }

  /// Deep copy, fitted scaler and inner model included.
  ScaledPipeline(const ScaledPipeline& other)
      : scaler_(other.scaler_), inner_(other.inner_->clone()) {}
  ScaledPipeline& operator=(const ScaledPipeline&) = delete;

  /// Fits the scaler on `x`, then the inner model on the scaled features.
  void fit(const Matrix& x, std::span<const double> y) override {
    check_fit_args(x, y);  // before scaling spreads a NaN over its column
    scaler_.fit(x);
    inner_->fit(scaler_.transform(x), y);
  }

  /// Scales `x` with the fitted statistics and delegates to the inner model.
  [[nodiscard]] Vector predict(const Matrix& x) const override {
    check_finite(name() + " predict", x);
    return inner_->predict(scaler_.transform(x));
  }

  /// \return A deep copy, fitted state included.
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<ScaledPipeline>(*this);
  }

  /// \return "scaled_" + the inner model's name.
  [[nodiscard]] std::string name() const override {
    return "scaled_" + inner_->name();
  }

  /// Forwards to the inner model.
  void set_params(const ParamMap& params) override { inner_->set_params(params); }
  /// Forwards to the inner model.
  [[nodiscard]] ParamMap get_params() const override { return inner_->get_params(); }
  /// \return Whether both the scaler and the inner model are fitted.
  [[nodiscard]] bool is_fitted() const noexcept override {
    return scaler_.is_fitted() && inner_->is_fitted();
  }

  /// Writes a `scaled_pipeline` block nesting the inner model's own block
  /// (see serialize.hpp). \throws std::logic_error when not fitted.
  void save(std::ostream& os) const override;

  /// \return The wrapped model (for diagnostics, e.g. support-vector counts).
  [[nodiscard]] const Regressor& inner() const noexcept { return *inner_; }

 private:
  StandardScaler scaler_;
  std::unique_ptr<Regressor> inner_;
};

/// Convenience: wrap a model in a standardizing pipeline.
template <typename Model, typename... Args>
[[nodiscard]] std::unique_ptr<Regressor> make_scaled(Args&&... args) {
  return std::make_unique<ScaledPipeline>(
      std::make_unique<Model>(std::forward<Args>(args)...));
}

}  // namespace ffr::ml
