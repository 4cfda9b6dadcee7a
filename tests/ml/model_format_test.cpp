// The packed pml-mpi-model-v2 forest payload: round trips, the pooled
// leaf layout, every corruption the loader must reject, and the v1
// fixtures (tests/data) that stay readable for one release.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"
#include "ml/forest.hpp"

namespace pml {
namespace {

using ml::RandomForest;

std::string data_file(const std::string& name) {
  return read_file(std::string(PML_TEST_DATA_DIR) + "/" + name);
}

/// The golden forest (16 trees, 8 features, 4 classes), decoded from its
/// v1 fixture and re-encoded as v2.
Json golden_v2() {
  return RandomForest::from_json(Json::parse(data_file("golden_forest_v1.json")))
      .to_json();
}

// One node record as FlatForest::node_bytes() lays it out.
constexpr std::size_t kRecord = 16;
constexpr std::size_t kFeatureAt = 8;
constexpr std::size_t kSlotAt = 12;

std::int32_t field(const std::string& nodes, std::size_t node, std::size_t at) {
  std::int32_t v = 0;
  std::memcpy(&v, nodes.data() + node * kRecord + at, sizeof v);
  return v;
}

void set_field(std::string& nodes, std::size_t node, std::size_t at,
               std::int32_t v) {
  std::memcpy(nodes.data() + node * kRecord + at, &v, sizeof v);
}

std::string decoded(const Json& forest, const std::string& key) {
  std::string bytes;
  EXPECT_TRUE(base64_decode(forest.at(key).as_string(), bytes));
  return bytes;
}

/// `forest` with its node blob replaced by `edit(nodes)`.
template <typename Edit>
Json with_nodes(Json forest, Edit edit) {
  std::string nodes = decoded(forest, "nodes");
  edit(nodes);
  forest["nodes"] = base64_encode(nodes);
  return forest;
}

/// First split node at or after `from`.
std::size_t split_at_or_after(const std::string& nodes, std::size_t from) {
  for (std::size_t i = from; i < nodes.size() / kRecord; ++i) {
    if (field(nodes, i, kFeatureAt) >= 0) return i;
  }
  ADD_FAILURE() << "no split node after " << from;
  return 0;
}

std::size_t first_leaf(const std::string& nodes) {
  for (std::size_t i = 0; i < nodes.size() / kRecord; ++i) {
    if (field(nodes, i, kFeatureAt) < 0) return i;
  }
  ADD_FAILURE() << "no leaf node";
  return 0;
}

TEST(ModelFormat, PackedForestRoundTripsByteForByte) {
  const Json v2 = golden_v2();
  const RandomForest loaded = RandomForest::from_json(Json::parse(v2.dump()));
  EXPECT_EQ(loaded.to_json().dump(), v2.dump());
  EXPECT_EQ(loaded.tree_count(), 16u);
  const auto& sizes = v2.at("tree_sizes").as_array();
  ASSERT_EQ(sizes.size(), 16u);
  std::int64_t total = 0;
  for (const Json& n : sizes) total += n.as_int();
  EXPECT_EQ(static_cast<std::size_t>(total), loaded.flat().node_count());
  EXPECT_EQ(decoded(v2, "nodes").size(), loaded.flat().node_count() * kRecord);
}

TEST(ModelFormat, LeafPoolHoldsEachDistributionOnce) {
  const RandomForest forest = RandomForest::from_json(golden_v2());
  const auto pool = forest.flat().leaf_pool();
  const auto k = static_cast<std::size_t>(forest.num_classes());
  ASSERT_EQ(pool.size() % k, 0u);
  std::set<std::string> distinct;
  for (std::size_t s = 0; s < pool.size(); s += k) {
    distinct.emplace(reinterpret_cast<const char*>(pool.data() + s),
                     k * sizeof(double));
  }
  EXPECT_EQ(distinct.size(), pool.size() / k);
}

TEST(ModelFormat, RejectsBadBase64) {
  Json j = golden_v2();
  j["nodes"] = j.at("nodes").as_string().substr(1);
  EXPECT_THROW(RandomForest::from_json(j), MlError);
  j = golden_v2();
  std::string leaves = j.at("leaves").as_string();
  leaves[0] = '*';
  j["leaves"] = leaves;
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ModelFormat, RejectsNodeBlobOfPartialRecords) {
  EXPECT_THROW(RandomForest::from_json(with_nodes(
                   golden_v2(), [](std::string& n) { n.append(8, '\0'); })),
               MlError);
  EXPECT_THROW(RandomForest::from_json(with_nodes(
                   golden_v2(), [](std::string& n) { n.resize(n.size() - 4); })),
               MlError);
}

TEST(ModelFormat, RejectsSplitSlotPointingBackward) {
  const Json v2 = golden_v2();
  const auto tree0 = static_cast<std::size_t>(
      v2.at("tree_sizes").as_array()[0].as_int());
  EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                 // A split of the second tree pointing at the node before it.
                 const std::size_t i = split_at_or_after(n, tree0 + 1);
                 set_field(n, i, kSlotAt, static_cast<std::int32_t>(i - 1));
               })),
               MlError);
  EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                 const std::size_t i = split_at_or_after(n, 0);
                 set_field(n, i, kSlotAt, static_cast<std::int32_t>(i));
               })),
               MlError);
}

TEST(ModelFormat, RejectsSplitSlotPastItsOwnTree) {
  const Json v2 = golden_v2();
  const auto tree0 = static_cast<std::int32_t>(
      v2.at("tree_sizes").as_array()[0].as_int());
  // The first node of tree 1 is a valid forest index, but not a child of
  // any tree-0 split.
  EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                 set_field(n, split_at_or_after(n, 0), kSlotAt, tree0);
               })),
               MlError);
  EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                 set_field(n, split_at_or_after(n, 0), kSlotAt,
                           static_cast<std::int32_t>(n.size() / kRecord));
               })),
               MlError);
}

TEST(ModelFormat, RejectsLeafSlotOutsideThePool) {
  const Json v2 = golden_v2();
  const auto pool_slots = static_cast<std::int32_t>(
      decoded(v2, "leaves").size() / sizeof(double) /
      static_cast<std::size_t>(v2.at("num_classes").as_int()));
  for (const std::int32_t slot : {pool_slots, pool_slots + 1000, -1}) {
    EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                   set_field(n, first_leaf(n), kSlotAt, slot);
                 })),
                 MlError)
        << "slot " << slot;
  }
}

TEST(ModelFormat, RejectsFeatureBeyondForestWidth) {
  const Json v2 = golden_v2();
  const auto width = static_cast<std::int32_t>(v2.at("n_features").as_int());
  EXPECT_THROW(RandomForest::from_json(with_nodes(v2, [&](std::string& n) {
                 set_field(n, split_at_or_after(n, 0), kFeatureAt, width);
               })),
               MlError);
}

TEST(ModelFormat, RejectsTreeSizesNotSummingToNodeCount) {
  for (const std::int64_t delta : {-1, 1}) {
    Json j = golden_v2();
    Json& last = j["tree_sizes"].as_array().back();
    last = last.as_int() + delta;
    EXPECT_THROW(RandomForest::from_json(j), MlError) << "delta " << delta;
  }
  Json j = golden_v2();
  j["tree_sizes"].as_array()[0] = 0;
  EXPECT_THROW(RandomForest::from_json(j), MlError);
  j = golden_v2();
  j["tree_sizes"] = Json::array();
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ModelFormat, RejectsLeafBlobNotAMultipleOfClassCount) {
  Json j = golden_v2();
  std::string leaves = decoded(j, "leaves");
  leaves.resize(leaves.size() - sizeof(double));
  j["leaves"] = base64_encode(leaves);
  EXPECT_THROW(RandomForest::from_json(j), MlError);
  j = golden_v2();
  leaves = decoded(j, "leaves");
  leaves.resize(leaves.size() - 3);  // not even whole doubles
  j["leaves"] = base64_encode(leaves);
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ModelFormat, RejectsImportanceRowsNotMatchingTrees) {
  Json j = golden_v2();
  j["importances"].as_array().pop_back();
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

// ---- the v1 bundle fixture, read for one release ----------------------------

TEST(ModelFormat, V1BundleFixtureReencodesToV2WithIdenticalTables) {
  const std::string text = data_file("model_v1.json");
  const Json payload = artifact_payload(Json::parse(text), "model", 1, false);
  ASSERT_EQ(payload.at("format").as_string(), "pml-mpi-model-v1");
  core::PmlFramework v1 = core::PmlFramework::load(payload);
  const Json v2_bundle = v1.to_json();
  EXPECT_EQ(v2_bundle.at("format").as_string(), "pml-mpi-model-v2");
  core::PmlFramework v2 = core::PmlFramework::load(Json::parse(v2_bundle.dump()));
  EXPECT_EQ(v2.to_json().dump(), v2_bundle.dump());
  const auto& mri = sim::cluster_by_name("MRI");
  EXPECT_EQ(v1.compile_for(mri).to_json().dump(),
            v2.compile_for(mri).to_json().dump());
}

TEST(ModelFormat, FrameworkRejectsUnknownBundleFormat) {
  Json j = core::PmlFramework::load(
               artifact_payload(Json::parse(data_file("model_v1.json")), "model"))
               .to_json();
  j["format"] = "pml-mpi-model-v3";
  EXPECT_THROW(core::PmlFramework::load(j), TuningError);
}

}  // namespace
}  // namespace pml
