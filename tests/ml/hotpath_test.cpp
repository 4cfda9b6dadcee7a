// Regression guards for the ML hot-path optimisations:
//  - the incremental-Gini split finder must produce byte-identical trees to
//    the retained reference implementation,
//  - flattened (structure-of-arrays) inference must be bit-identical to the
//    per-tree node walk, for every model family the factory can build,
//  - fitted forests must stay bit-identical across thread counts and across
//    releases (golden hashes captured before the optimisation landed),
//  - corrupt serialized bundles must fail loudly at load time, in the
//    packed v2 layout and in the v1 layout still read for one release
//    (tests/ml/model_format_test.cpp covers the v2 corruptions in full).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "ml/factory.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"

namespace pml::ml {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Mixed discrete/continuous dataset (like the MPI feature table: message
/// sizes and node counts are discrete, bandwidths continuous). Many exact
/// ties in both features and candidate splits — the hard case for split
/// determinism.
Dataset synthetic(std::size_t n, std::size_t cols, int classes,
                  std::uint64_t seed) {
  Dataset d;
  d.num_classes = classes;
  Rng rng(seed);
  Matrix x(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = (c % 3 == 0)
                       ? static_cast<double>(rng.uniform_index(8))
                       : rng.uniform(-2.0, 2.0);
    }
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += x.at(r, c) * ((c % 2) ? 1 : -1);
    const int label = static_cast<int>(
        (static_cast<long long>(s * 3.0) % classes + classes) % classes);
    d.y.push_back(label);
  }
  d.x = x;
  return d;
}

// ---- optimised vs reference split finder -----------------------------------

TEST(SplitFinder, OptimisedMatchesReferenceByteForByte) {
  const TreeParams grids[] = {
      {},
      {.max_depth = 4},
      {.min_samples_leaf = 3},
      {.min_samples_split = 8},
      {.max_features = 2},
      {.max_depth = 6, .min_samples_leaf = 2, .max_features = 3},
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int classes = 2 + static_cast<int>(seed % 3);
    const Dataset d = synthetic(240, 7, classes, seed * 101);
    for (const TreeParams& base : grids) {
      TreeParams fast = base;
      TreeParams slow = base;
      slow.reference_splitter = true;

      DecisionTree a(fast);
      DecisionTree b(slow);
      Rng rng_a(seed);
      Rng rng_b(seed);
      a.fit(d.x, d.y, classes, rng_a);
      b.fit(d.x, d.y, classes, rng_b);
      EXPECT_EQ(a.to_json().dump(), b.to_json().dump())
          << "seed " << seed << " max_depth " << base.max_depth;
    }
  }
}

TEST(SplitFinder, OptimisedMatchesReferenceOnBootstrapSamples) {
  const Dataset d = synthetic(150, 5, 3, 77);
  Rng sample_rng(5);
  std::vector<std::size_t> sample(d.size());
  for (auto& s : sample) {
    s = static_cast<std::size_t>(sample_rng.uniform_index(d.size()));
  }
  DecisionTree a{TreeParams{.max_features = 2}};
  DecisionTree b{TreeParams{.max_features = 2, .reference_splitter = true}};
  Rng rng_a(9);
  Rng rng_b(9);
  a.fit(d.x, d.y, 3, rng_a, sample);
  b.fit(d.x, d.y, 3, rng_b, sample);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

// ---- golden hashes: serialized output is frozen across releases ------------

TEST(Golden, TreeSerializationUnchangedSinceOptimisation) {
  const Dataset d = synthetic(300, 8, 4, 42);
  DecisionTree tree(TreeParams{.max_features = 3});
  Rng rng(7);
  tree.fit(d.x, d.y, d.num_classes, rng);
  // Captured from the pre-optimisation implementation (PR 1 state).
  EXPECT_EQ(fnv1a(tree.to_json().dump()), 7370512707017712398ULL);
}

/// This forest's v1 JSON, as the v1 writer dumped it before the packed
/// v2 layout replaced it (tests/data/golden_forest_v1.json).
std::string golden_forest_v1() {
  return read_file(std::string(PML_TEST_DATA_DIR) + "/golden_forest_v1.json");
}

TEST(Golden, ForestSerializationAndOobUnchangedSinceOptimisation) {
  const Dataset d = synthetic(300, 8, 4, 42);
  RandomForestParams fp;
  fp.n_trees = 16;
  fp.max_features = 3;
  fp.threads = 2;
  RandomForest forest(fp);
  Rng rng(99);
  forest.fit(d, rng);
  // The fixture's v1 bytes hash to the constant captured from the
  // pre-optimisation implementation ...
  const std::string v1 = golden_forest_v1();
  EXPECT_EQ(fnv1a(v1), 3616224656282728536ULL);
  // ... and a fresh fit still encodes to exactly its v2 re-encoding.
  EXPECT_EQ(RandomForest::from_json(Json::parse(v1)).to_json().dump(),
            forest.to_json().dump());
  ASSERT_TRUE(forest.oob_score().has_value());
  EXPECT_DOUBLE_EQ(*forest.oob_score(), 0.23);
}

// ---- flat vs node-walk inference -------------------------------------------

TEST(FlatForestInference, MatchesNodeWalkBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset d = synthetic(200, 6, 3, seed * 31);
    RandomForestParams fp;
    fp.n_trees = 12;
    fp.max_features = 2;
    RandomForest forest(fp);
    Rng rng(seed);
    forest.fit(d, rng);

    std::vector<double> flat(3);
    std::vector<double> walk(3);
    for (std::size_t r = 0; r < d.x.rows(); ++r) {
      forest.predict_proba_into(d.x.row(r), flat);
      // Reference: average the per-tree node walks in tree order, exactly
      // as the pre-flattening implementation did.
      std::fill(walk.begin(), walk.end(), 0.0);
      for (std::size_t t = 0; t < forest.tree_count(); ++t) {
        const auto leaf = forest.flat().tree_leaf(t, d.x.row(r));
        for (std::size_t c = 0; c < walk.size(); ++c) walk[c] += leaf[c];
      }
      for (double& v : walk) v /= static_cast<double>(forest.tree_count());
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(flat[c], walk[c]) << "row " << r << " class " << c;
      }
      const auto alloc_path = forest.predict_proba(d.x.row(r));
      for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(flat[c], alloc_path[c]);
    }
  }
}

TEST(FlatForestInference, SurvivesSerializationRoundTrip) {
  const Dataset d = synthetic(150, 5, 3, 11);
  RandomForest forest(RandomForestParams{.n_trees = 8, .max_features = 2});
  Rng rng(3);
  forest.fit(d, rng);
  const RandomForest loaded = RandomForest::from_json(forest.to_json());
  std::vector<double> a(3);
  std::vector<double> b(3);
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    forest.predict_proba_into(d.x.row(r), a);
    loaded.predict_proba_into(d.x.row(r), b);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a[c], b[c]);
  }
}

TEST(FlatForestInference, PredictBatchMatchesRowByRow) {
  const Dataset d = synthetic(60, 5, 3, 19);
  RandomForest forest(RandomForestParams{.n_trees = 6});
  Rng rng(4);
  forest.fit(d, rng);
  Matrix out(d.x.rows(), 3);
  forest.predict_batch(d.x, out);
  std::vector<double> row(3);
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    forest.predict_proba_into(d.x.row(r), row);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(out.at(r, c), row[c]);
  }
}

TEST(FlatForestInference, RejectsShortRowsAndBadBuffers) {
  const Dataset d = synthetic(80, 5, 3, 23);
  RandomForest forest(RandomForestParams{.n_trees = 4});
  Rng rng(8);
  forest.fit(d, rng);
  std::vector<double> out(3);
  const std::vector<double> short_row = {1.0};
  EXPECT_THROW(forest.predict_proba_into(short_row, out), MlError);
  std::vector<double> bad(2);
  EXPECT_THROW(forest.predict_proba_into(d.x.row(0), bad), MlError);
}

/// Every factory family must agree between predict_proba and the buffer
/// API (the two share one code path in the overriding models; for the rest
/// the base-class fallback must copy faithfully).
TEST(FactoryModels, PredictProbaIntoMatchesPredictProba) {
  const char* families[] = {"RandomForest", "GradientBoost", "KNN", "SVM"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset d = synthetic(120, 5, 3, seed * 7);
    for (const char* family : families) {
      Json params = Json::object();
      if (std::string(family) == "RandomForest") params["n_trees"] = 8;
      if (std::string(family) == "GradientBoost") params["n_rounds"] = 5;
      const auto model = make_classifier(family, params);
      Rng rng(seed);
      model->fit(d, rng);
      std::vector<double> buf(3);
      for (std::size_t r = 0; r < d.x.rows(); ++r) {
        const auto proba = model->predict_proba(d.x.row(r));
        model->predict_proba_into(d.x.row(r), buf);
        ASSERT_EQ(proba.size(), buf.size()) << family;
        for (std::size_t c = 0; c < buf.size(); ++c) {
          EXPECT_EQ(proba[c], buf[c]) << family << " row " << r;
        }
      }
    }
  }
}

// ---- determinism across thread counts --------------------------------------

TEST(ForestThreads, OobAndSerializationIdenticalAt1_2_8Threads) {
  const Dataset d = synthetic(250, 6, 3, 55);
  std::string json_1;
  double oob_1 = 0.0;
  for (const int threads : {1, 2, 8}) {
    RandomForestParams fp;
    fp.n_trees = 12;
    fp.max_features = 2;
    fp.threads = threads;
    RandomForest forest(fp);
    Rng rng(21);
    forest.fit(d, rng);
    ASSERT_TRUE(forest.oob_score().has_value());
    if (threads == 1) {
      json_1 = forest.to_json().dump();
      oob_1 = *forest.oob_score();
    } else {
      EXPECT_EQ(forest.to_json().dump(), json_1) << "threads " << threads;
      EXPECT_DOUBLE_EQ(*forest.oob_score(), oob_1) << "threads " << threads;
    }
  }
}

// ---- hardened deserialization ----------------------------------------------

/// A fitted 2-tree forest in the packed v2 layout, with its node blob
/// decoded.
struct PackedForest {
  Json json;
  std::string nodes;
};

PackedForest packed_forest() {
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  PackedForest p{forest.to_json(), {}};
  EXPECT_TRUE(base64_decode(p.json.at("nodes").as_string(), p.nodes));
  return p;
}

TEST(ForestFromJson, RejectsSplitFeatureBeyondForestWidth) {
  PackedForest p = packed_forest();
  // Point one split at a feature the forest does not have. A record is
  // {f64 threshold, i32 feature, i32 slot}.
  bool corrupted = false;
  for (std::size_t at = 8; at < p.nodes.size() && !corrupted; at += 16) {
    std::int32_t feature = 0;
    std::memcpy(&feature, p.nodes.data() + at, sizeof feature);
    if (feature < 0) continue;
    feature = 99;
    std::memcpy(p.nodes.data() + at, &feature, sizeof feature);
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "fitted forest unexpectedly has no splits";
  p.json["nodes"] = base64_encode(p.nodes);
  EXPECT_THROW(RandomForest::from_json(p.json), MlError);
}

TEST(ForestFromJson, RejectsTreeClassCountMismatch) {
  PackedForest p = packed_forest();
  // The pooled leaves carry 2 classes each; claim one more than the pool
  // length so it cannot divide evenly.
  std::string leaves;
  ASSERT_TRUE(base64_decode(p.json.at("leaves").as_string(), leaves));
  p.json["num_classes"] =
      static_cast<std::int64_t>(leaves.size() / sizeof(double) + 1);
  EXPECT_THROW(RandomForest::from_json(p.json), MlError);
}

TEST(ForestFromJson, RejectsNonPositiveClassCount) {
  PackedForest p = packed_forest();
  p.json["num_classes"] = 0;
  EXPECT_THROW(RandomForest::from_json(p.json), MlError);
}

// The same three corruptions in the v1 layout, on the golden fixture.

TEST(ForestFromJsonV1, RejectsSplitFeatureBeyondForestWidth) {
  Json j = Json::parse(golden_forest_v1());
  // Widen the importances array so the tree-level loader stays happy, then
  // point one split at a feature the forest does not have.
  Json& tree0 = j["trees"].as_array()[0];
  Json& importances = tree0["importances"];
  while (importances.as_array().size() < 100) importances.push_back(0.0);
  bool corrupted = false;
  for (Json& node : tree0["nodes"].as_array()) {
    if (node.at("feature").as_int() >= 0 && !corrupted) {
      node["feature"] = 99;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "fixture tree unexpectedly has no splits";
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJsonV1, RejectsTreeClassCountMismatch) {
  Json j = Json::parse(golden_forest_v1());
  j["num_classes"] = 5;  // trees still carry 4-class leaves
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJsonV1, RejectsNonPositiveClassCount) {
  Json j = Json::parse(golden_forest_v1());
  j["num_classes"] = 0;
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

}  // namespace
}  // namespace pml::ml
