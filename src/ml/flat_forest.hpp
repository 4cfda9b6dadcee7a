// Packed decision-forest representation for the inference hot path.
//
// DecisionTree keeps one heap-allocated Node (with its own proba vector) per
// tree node, which is convenient for growth and serialization but walks
// scattered memory at predict time and forces an allocation per call.
// FlatForest packs every tree of a forest into one contiguous array of
// 16-byte node records plus one pooled leaf-probability buffer, so a forest
// prediction is a handful of linear array walks and predict_proba_into()
// touches no allocator at all.
//
// Node layout. Trees serialize their nodes in pre-order (DecisionTree::build
// emits a split node immediately followed by its entire left subtree), so a
// split's left child is always the next record and only the right child
// needs storing. One record therefore holds the whole traversal state —
//
//   { double threshold; int32 feature; int32 slot; }   // 16 bytes
//
// where feature < 0 marks a leaf whose `slot` is its pooled-leaf ordinal,
// and a split's `slot` is its right-child index (left child = self + 1).
// finish() validates the pre-order invariant, so a malformed builder
// sequence or corrupt bundle fails loudly instead of walking garbage.
//
// Leaf pool. add_leaf() pools distributions bitwise: equal leaves share
// one slot (a trained paper model has ~162k leaves but ~4.7k distinct
// distributions), so the pool held in memory is exactly the one the
// packed model artifact stores. node_bytes()/leaf_pool()/tree_sizes()
// expose that sealed state and load_packed() restores it with one copy
// plus the same validation finish() runs.
//
// Inference comes in two shapes that are bit-identical to each other and to
// the per-tree node walk: predict_proba_into() walks one row through all
// trees (tree 0..T in sequence, one divide at the end), and predict_batch()
// runs the tree-major blocked kernel — outer loop over trees, inner loop
// over blocks of rows with eight interleaved row-walks advancing in
// lockstep. Each lane's advance is branchless (all-ones masks select
// left-child/right-child/parked), so the per-split data-dependent branch
// the scalar walk mispredicts becomes a conditional move, the eight
// independent load chains hide each other's latency, and the tree's top
// levels stay in L1/L2 across the whole block. Per-row accumulation order
// is tree 0..T either way, so batched output is byte-identical to the
// scalar path (~2-3x the scalar loop in rows/sec, gated in
// bench/ml_hotpath).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/dataset.hpp"

namespace pml::ml {

class FlatForest {
 public:
  bool empty() const noexcept { return roots_.empty(); }
  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int num_classes() const noexcept { return num_classes_; }

  /// Smallest feature-row length every walk is guaranteed to stay inside
  /// (largest referenced feature index + 1).
  std::size_t min_row_length() const noexcept { return min_row_length_; }

  void clear();

  // --- Builder interface (used by DecisionTree::append_flat) ----------------

  /// Start appending one tree; its nodes arrive in the tree's own node-id
  /// order, so child ids passed to add_split are tree-local.
  void begin_tree();
  void add_split(int feature, double threshold, int left, int right);
  /// Append a leaf. Bitwise-equal distributions share one pooled slot;
  /// every leaf must carry as many probabilities as the first one.
  void add_leaf(std::span<const double> proba);

  /// Validate and seal after all trees are appended: every leaf must carry
  /// `num_classes` probabilities, every split must reference a feature and
  /// a right child inside its own tree, and nodes must be in pre-order
  /// (each split's left child immediately follows it). Throws MlError
  /// otherwise.
  void finish(int num_classes);

  // --- Packed form (the model artifact's forest payload) --------------------

  /// Node count of each tree, in tree order.
  std::vector<std::int64_t> tree_sizes() const;

  /// The node records as stored: little-endian
  /// `{f64 threshold, i32 feature, i32 slot}`, 16 bytes per node, slots
  /// forest-global.
  std::string_view node_bytes() const noexcept;

  /// The pooled leaf distributions, num_classes() values per slot.
  std::span<const double> leaf_pool() const noexcept { return leaf_proba_; }

  /// Replace this forest with a sealed one rebuilt from tree_sizes(),
  /// node_bytes() and the leaf_pool() bytes. Runs finish()'s validation
  /// (record and pool lengths, tree sizes summing to the node count,
  /// every split's right child strictly forward inside its own tree,
  /// every leaf slot inside the pool); throws MlError on any violation.
  void load_packed(std::span<const std::int64_t> tree_sizes,
                   std::string_view node_bytes, std::string_view leaf_bytes,
                   int num_classes);

  // --- Inference -------------------------------------------------------------

  /// Mean class distribution over all trees, written into `out` (size
  /// num_classes()). Allocation-free; bit-identical to averaging the
  /// node-walk predictions tree by tree.
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const;

  /// Un-normalised leaf distribution of one tree for this row (span into
  /// the pooled buffer).
  std::span<const double> tree_leaf(std::size_t tree,
                                    std::span<const double> row) const;

  /// predict_proba_into for many rows at once; `out` is row-major
  /// rows.rows() x num_classes(). Runs the tree-major blocked kernel
  /// (header comment) — byte-identical to calling predict_proba_into row
  /// by row, with all shape validation hoisted to one check per batch and
  /// zero allocations.
  void predict_batch(const Matrix& rows, Matrix& out) const;

 private:
  /// One traversal record (header comment). `slot` is the right-child
  /// index for a split (left child = self + 1) and the pooled-leaf
  /// ordinal for a leaf (feature < 0).
  struct Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t slot = -1;
  };
  static_assert(sizeof(Node) == 16, "traversal record must stay 16 bytes");

  std::span<const double> walk(std::size_t root,
                               std::span<const double> row) const;

  /// The validation finish() and load_packed() share; seals on success.
  void seal(int num_classes);

  /// One past the last node of tree `t`.
  std::size_t tree_end(std::size_t t) const noexcept {
    return t + 1 < roots_.size() ? roots_[t + 1] : nodes_.size();
  }

  std::vector<Node> nodes_;           ///< all trees' packed records
  std::vector<std::size_t> roots_;    ///< global index of each tree's root
  std::vector<double> leaf_proba_;    ///< pooled leaf distributions
  /// Build-time staging, discarded by finish(): left-child index per node
  /// (validated against the pre-order invariant) and the pool index
  /// (distribution bytes -> slot).
  std::vector<std::int32_t> build_left_;
  std::unordered_map<std::string, std::int32_t> build_pool_;
  std::size_t build_width_ = 0;       ///< probabilities per leaf so far
  std::size_t build_base_ = 0;        ///< first node of the tree being built
  std::size_t min_row_length_ = 0;
  int num_classes_ = 0;
  bool sealed_ = false;
};

}  // namespace pml::ml
