#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace pml::ml {

void RandomForest::fit(const Dataset& train, Rng& rng) {
  train.validate();
  if (params_.n_trees < 1) throw MlError("forest: n_trees must be >= 1");
  num_classes_ = train.num_classes;
  n_features_ = train.x.cols();
  oob_score_.reset();

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.min_samples_leaf = params_.min_samples_leaf;
  tp.max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max(1, static_cast<int>(std::floor(
                            std::sqrt(static_cast<double>(n_features_)))));

  const std::size_t n = train.size();
  const auto n_trees = static_cast<std::size_t>(params_.n_trees);

  // Pre-split the per-tree RNG streams sequentially: tree t sees exactly the
  // stream the serial loop would hand it, so the fitted forest is
  // bit-identical to the threads=1 build at any thread count.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) tree_rngs.push_back(rng.split());

  std::vector<DecisionTree> trees(n_trees, DecisionTree(tp));
  // Per-tree OOB contributions (row index, span into the fitted tree's leaf
  // distribution — no copies), merged in tree order after the barrier so the
  // floating-point accumulation order matches the serial loop exactly. The
  // spans stay valid because `trees` is not resized after this point.
  std::vector<std::vector<std::pair<std::size_t, std::span<const double>>>>
      oob_parts(params_.bootstrap ? n_trees : 0);

  parallel_for(params_.threads, n_trees, [&](std::size_t t) {
    obs::Span span("ml.tree_fit");
    Rng& tree_rng = tree_rngs[t];
    if (params_.bootstrap) {
      std::vector<char> in_bag(n, 0);
      std::vector<std::size_t> sample(n);
      for (std::size_t i = 0; i < n; ++i) {
        sample[i] = static_cast<std::size_t>(tree_rng.uniform_index(n));
        in_bag[sample[i]] = 1;
      }
      trees[t].fit(train.x, train.y, num_classes_, tree_rng, sample);
      for (std::size_t i = 0; i < n; ++i) {
        if (in_bag[i]) continue;
        oob_parts[t].emplace_back(i, trees[t].leaf_proba_for(train.x.row(i)));
      }
    } else {
      trees[t].fit(train.x, train.y, num_classes_, tree_rng);
    }
  });

  if (params_.bootstrap) {
    // OOB vote accumulation: votes[i][c] over trees where i was out of bag.
    std::vector<std::vector<double>> oob_votes(
        n, std::vector<double>(static_cast<std::size_t>(num_classes_), 0.0));
    for (std::size_t t = 0; t < n_trees; ++t) {
      for (const auto& [i, p] : oob_parts[t]) {
        for (std::size_t c = 0; c < p.size(); ++c) oob_votes[i][c] += p[c];
      }
    }
    std::size_t scored = 0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = oob_votes[i];
      double total = 0.0;
      for (const double x : v) total += x;
      if (total <= 0.0) continue;  // never out of bag
      ++scored;
      const int pred = static_cast<int>(
          std::max_element(v.begin(), v.end()) - v.begin());
      if (pred == train.y[i]) ++correct;
    }
    if (scored > 0) {
      oob_score_ = static_cast<double>(correct) / static_cast<double>(scored);
    }
  }
  flat_.clear();
  tree_importances_.clear();
  for (const DecisionTree& tree : trees) append_tree(tree);
  flat_.finish(num_classes_);
}

void RandomForest::append_tree(const DecisionTree& tree) {
  tree.append_flat(flat_);
  const auto imp = tree.feature_importances();
  tree_importances_.emplace_back(imp.begin(), imp.end());
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> row) const {
  require_fitted();
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  flat_.predict_proba_into(row, proba);
  return proba;
}

void RandomForest::predict_proba_into(std::span<const double> row,
                                      std::span<double> out) const {
  require_fitted();
  flat_.predict_proba_into(row, out);
}

void RandomForest::predict_batch(const Matrix& rows, Matrix& out) const {
  require_fitted();
  flat_.predict_batch(rows, out);
}

std::vector<double> RandomForest::feature_importances() const {
  require_fitted();
  std::vector<double> total(n_features_, 0.0);
  for (const auto& imp : tree_importances_) {
    // Loaded pre-importances bundles may carry fewer entries than
    // n_features_ (trailing unused features): missing entries are zero.
    const std::size_t m = std::min(total.size(), imp.size());
    for (std::size_t f = 0; f < m; ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (const double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

Json RandomForest::to_json() const {
  require_fitted();
  Json j = Json::object();
  j["model"] = "random_forest";
  j["num_classes"] = num_classes_;
  j["n_features"] = n_features_;
  Json params = Json::object();
  params["n_trees"] = params_.n_trees;
  params["max_depth"] = params_.max_depth;
  params["min_samples_leaf"] = params_.min_samples_leaf;
  params["max_features"] = params_.max_features;
  params["bootstrap"] = params_.bootstrap;
  j["params"] = std::move(params);
  Json sizes = Json::array();
  for (const std::int64_t n : flat_.tree_sizes()) sizes.push_back(n);
  j["tree_sizes"] = std::move(sizes);
  j["nodes"] = base64_encode(flat_.node_bytes());
  const auto pool = flat_.leaf_pool();
  j["leaves"] = base64_encode(
      {reinterpret_cast<const char*>(pool.data()), pool.size_bytes()});
  Json importances = Json::array();
  for (const auto& imp : tree_importances_) {
    Json row = Json::array();
    for (const double v : imp) row.push_back(v);
    importances.push_back(std::move(row));
  }
  j["importances"] = std::move(importances);
  return j;
}

namespace {

/// Decode one base64 field of the packed payload.
std::string packed_field(const Json& j, const std::string& key) {
  std::string bytes;
  if (!base64_decode(j.at(key).as_string(), bytes)) {
    throw MlError("from_json: forest '" + key + "' is not valid base64");
  }
  return bytes;
}

}  // namespace

RandomForest RandomForest::from_json(const Json& j) {
  if (j.at("model").as_string() != "random_forest") {
    throw MlError("from_json: not a random_forest model");
  }
  RandomForestParams params;
  const Json& pj = j.at("params");
  params.n_trees = static_cast<int>(pj.at("n_trees").as_int());
  params.max_depth = static_cast<int>(pj.at("max_depth").as_int());
  params.min_samples_leaf =
      static_cast<int>(pj.at("min_samples_leaf").as_int());
  params.max_features = static_cast<int>(pj.at("max_features").as_int());
  params.bootstrap = pj.at("bootstrap").as_bool();

  RandomForest forest(params);
  forest.num_classes_ = static_cast<int>(j.at("num_classes").as_int());
  if (forest.num_classes_ < 1) {
    throw MlError("from_json: forest num_classes must be >= 1");
  }
  forest.n_features_ =
      static_cast<std::size_t>(j.at("n_features").as_int());
  if (j.contains("trees")) {
    // pml-mpi-model-v1 layout, read for one release: each tree decodes
    // (with its own node-graph checks) and goes straight into the flat
    // builder; nothing of it outlives the loop body.
    for (const Json& tj : j.at("trees").as_array()) {
      const DecisionTree tree = DecisionTree::from_json(tj);
      if (tree.num_classes() != forest.num_classes_) {
        throw MlError("from_json: tree " +
                      std::to_string(forest.flat_.tree_count()) + " has " +
                      std::to_string(tree.num_classes()) +
                      " classes, forest has " +
                      std::to_string(forest.num_classes_));
      }
      forest.append_tree(tree);
    }
    forest.flat_.finish(forest.num_classes_);
  } else {
    std::vector<std::int64_t> sizes;
    for (const Json& n : j.at("tree_sizes").as_array()) {
      sizes.push_back(n.as_int());
    }
    forest.flat_.load_packed(sizes, packed_field(j, "nodes"),
                             packed_field(j, "leaves"), forest.num_classes_);
    for (const Json& row : j.at("importances").as_array()) {
      auto& imp = forest.tree_importances_.emplace_back();
      for (const Json& v : row.as_array()) imp.push_back(v.as_number());
    }
    if (forest.tree_importances_.size() != forest.flat_.tree_count()) {
      throw MlError("from_json: " +
                    std::to_string(forest.tree_importances_.size()) +
                    " importance rows for " +
                    std::to_string(forest.flat_.tree_count()) + " trees");
    }
  }
  // A corrupt or hand-edited bundle must fail here with a clean MlError,
  // not as an out-of-bounds read at inference time: every split must
  // reference a feature the forest's rows actually have.
  if (forest.flat_.min_row_length() > forest.n_features_) {
    throw MlError("from_json: a split references feature " +
                  std::to_string(forest.flat_.min_row_length() - 1) +
                  " but the forest has " + std::to_string(forest.n_features_) +
                  " features");
  }
  return forest;
}

}  // namespace pml::ml
