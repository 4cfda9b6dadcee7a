// Random Forest classifier — the model the paper selects (Table II) and
// ships pre-trained with the MPI library.
#pragma once

#include <optional>
#include <vector>

#include "common/json.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"

namespace pml::ml {

struct RandomForestParams {
  int n_trees = 100;
  int max_depth = -1;
  int min_samples_leaf = 1;
  /// Features tried per split; -1 = floor(sqrt(total)) (sklearn default).
  int max_features = -1;
  bool bootstrap = true;
  /// Threads used by fit(); <= 0 = all hardware threads, 1 = serial. Purely
  /// a runtime knob: per-tree RNG streams are pre-split sequentially before
  /// dispatch, so the fitted model (and its JSON) is bit-identical at any
  /// thread count. Not serialized with the model.
  int threads = 0;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestParams params = {}) : params_(params) {}

  std::string name() const override { return "RandomForest"; }
  void fit(const Dataset& train, Rng& rng) override;
  std::vector<double> predict_proba(std::span<const double> row) const override;

  /// Allocation-free prediction through the flattened forest (bit-identical
  /// to the per-tree node walk).
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const override;

  /// Batched prediction through the FlatForest tree-major blocked kernel;
  /// `out` must be rows.rows() x num_classes(). Byte-identical to calling
  /// predict_proba_into row by row.
  void predict_batch(const Matrix& rows, Matrix& out) const override;

  /// The packed forest: the one representation fit() builds, from_json()
  /// restores and inference walks (fitted trees do not outlive fit()).
  const FlatForest& flat() const noexcept { return flat_; }

  /// Normalised Gini-decrease feature importances (sum to 1): per-feature
  /// impurity decreases accumulated across all trees, as described in
  /// paper §V-A.
  std::vector<double> feature_importances() const;

  /// Out-of-bag accuracy estimate (only when bootstrap was enabled).
  std::optional<double> oob_score() const noexcept { return oob_score_; }

  const RandomForestParams& params() const noexcept { return params_; }
  std::size_t tree_count() const noexcept { return flat_.tree_count(); }

  /// The packed forest payload of `pml-mpi-model-v2`: scalars and params,
  /// `tree_sizes`, base64 `nodes` (FlatForest::node_bytes()), base64
  /// `leaves` (the pooled distributions as f64) and per-tree
  /// `importances`.
  Json to_json() const;
  /// Reads that payload, and for one release the `pml-mpi-model-v1`
  /// per-node tree layout (a `trees` array). Throws MlError on an
  /// inconsistent forest, JsonError on a missing or mistyped key.
  static RandomForest from_json(const Json& j);

 private:
  /// Append one fitted or decoded tree to flat_ (unsealed) and keep its
  /// importances.
  void append_tree(const DecisionTree& tree);

  RandomForestParams params_;
  FlatForest flat_;
  /// Unnormalised Gini-decrease importances of each tree, in tree order.
  std::vector<std::vector<double>> tree_importances_;
  std::size_t n_features_ = 0;
  std::optional<double> oob_score_;
};

}  // namespace pml::ml
