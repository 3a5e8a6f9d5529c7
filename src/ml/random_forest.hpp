// Random Forest — the scheduler's production classifier (§V-C, Table I).
#pragma once

#include "common/thread_pool.hpp"
#include "ml/decision_tree.hpp"

namespace mw::ml {

/// Forest hyperparameters; names follow Table I of the paper.
struct ForestConfig {
    std::size_t n_estimators = 50;
    std::size_t max_depth = 8;
    std::size_t min_samples_leaf = 1;
    SplitCriterion criterion = SplitCriterion::kGini;
    std::uint64_t seed = 1;

    /// Build from a grid-search ParamSet (n_estimators, max_depth,
    /// min_samples_leaf, criterion as 0/1).
    static ForestConfig from_params(const ParamSet& params);
};

/// Bagged CART ensemble with sqrt-feature subsampling and majority vote.
class RandomForest final : public Classifier {
public:
    explicit RandomForest(ForestConfig config = {}, ThreadPool* pool = nullptr);

    void fit(const MlDataset& data) override;
    [[nodiscard]] int predict(std::span<const double> row) const override;
    [[nodiscard]] int predict_with_scratch(std::span<const double> row,
                                           std::span<double> scratch) const override;
    [[nodiscard]] std::size_t scratch_size() const override { return classes_; }
    [[nodiscard]] ClassifierPtr clone() const override;
    [[nodiscard]] std::string name() const override { return "random-forest"; }

    /// Per-class vote fractions for one row (useful for confidence).
    [[nodiscard]] std::vector<double> predict_proba(std::span<const double> row) const;

    [[nodiscard]] const ForestConfig& config() const { return config_; }

private:
    ForestConfig config_;
    ThreadPool* pool_;
    std::vector<DecisionTree> trees_;
    std::size_t classes_ = 0;
};

}  // namespace mw::ml
