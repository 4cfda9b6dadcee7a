#include "ml/flat_forest.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "obs/obs.hpp"

namespace pml::ml {

static_assert(std::endian::native == std::endian::little,
              "node_bytes()/load_packed() copy records in host order, which "
              "the packed artifact defines as little-endian");

void FlatForest::clear() {
  nodes_.clear();
  roots_.clear();
  leaf_proba_.clear();
  build_left_.clear();
  build_pool_.clear();
  build_width_ = 0;
  build_base_ = 0;
  min_row_length_ = 0;
  num_classes_ = 0;
  sealed_ = false;
}

void FlatForest::begin_tree() {
  if (sealed_) throw MlError("flat forest: append after finish");
  build_base_ = nodes_.size();
  roots_.push_back(build_base_);
}

void FlatForest::add_split(int feature, double threshold, int left,
                           int right) {
  if (roots_.empty()) throw MlError("flat forest: add_split before begin_tree");
  Node node;
  node.threshold = threshold;
  node.feature = static_cast<std::int32_t>(feature);
  node.slot = static_cast<std::int32_t>(build_base_) + right;
  nodes_.push_back(node);
  build_left_.push_back(static_cast<std::int32_t>(build_base_) + left);
}

void FlatForest::add_leaf(std::span<const double> proba) {
  if (roots_.empty()) throw MlError("flat forest: add_leaf before begin_tree");
  if (build_pool_.empty()) build_width_ = proba.size();
  if (proba.size() != build_width_) {
    throw MlError("flat forest: leaf node " + std::to_string(nodes_.size()) +
                  " has " + std::to_string(proba.size()) +
                  " probabilities, earlier leaves have " +
                  std::to_string(build_width_));
  }
  const auto [it, inserted] = build_pool_.try_emplace(
      std::string(reinterpret_cast<const char*>(proba.data()),
                  proba.size_bytes()),
      static_cast<std::int32_t>(build_pool_.size()));
  if (inserted) leaf_proba_.insert(leaf_proba_.end(), proba.begin(), proba.end());
  Node node;
  node.feature = -1;
  node.slot = it->second;
  nodes_.push_back(node);
  build_left_.push_back(-1);
}

void FlatForest::finish(int num_classes) {
  if (sealed_) throw MlError("flat forest: finish after finish");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Trees serialize in pre-order: a split's left subtree follows it
    // immediately, so left == i + 1 (which the packed record relies on).
    const std::int32_t l = build_left_[i];
    if (nodes_[i].feature >= 0 && l != static_cast<std::int32_t>(i + 1)) {
      throw MlError("flat forest: split node " + std::to_string(i) +
                    " has left child " + std::to_string(l) +
                    ", pre-order requires " + std::to_string(i + 1));
    }
  }
  seal(num_classes);
  build_left_.clear();
  build_left_.shrink_to_fit();
  build_pool_.clear();
}

std::vector<std::int64_t> FlatForest::tree_sizes() const {
  std::vector<std::int64_t> sizes;
  sizes.reserve(roots_.size());
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    sizes.push_back(static_cast<std::int64_t>(tree_end(t) - roots_[t]));
  }
  return sizes;
}

std::string_view FlatForest::node_bytes() const noexcept {
  return {reinterpret_cast<const char*>(nodes_.data()),
          nodes_.size() * sizeof(Node)};
}

void FlatForest::load_packed(std::span<const std::int64_t> tree_sizes,
                             std::string_view node_bytes,
                             std::string_view leaf_bytes, int num_classes) {
  clear();
  if (node_bytes.size() % sizeof(Node) != 0) {
    throw MlError("flat forest: node block holds " +
                  std::to_string(node_bytes.size()) +
                  " bytes, not a multiple of the 16-byte record");
  }
  if (leaf_bytes.size() % sizeof(double) != 0) {
    throw MlError("flat forest: leaf block holds " +
                  std::to_string(leaf_bytes.size()) +
                  " bytes, not a whole number of doubles");
  }
  const std::size_t n_nodes = node_bytes.size() / sizeof(Node);
  if (n_nodes > static_cast<std::size_t>(INT32_MAX)) {
    throw MlError("flat forest: too many nodes for 32-bit slots");
  }
  std::size_t total = 0;
  for (const std::int64_t size : tree_sizes) {
    if (size < 1 || static_cast<std::uint64_t>(size) > n_nodes - total) {
      throw MlError("flat forest: tree sizes must be >= 1 and sum to the " +
                    std::to_string(n_nodes) + " stored nodes");
    }
    roots_.push_back(total);
    total += static_cast<std::size_t>(size);
  }
  if (total != n_nodes) {
    throw MlError("flat forest: tree sizes sum to " + std::to_string(total) +
                  " nodes, " + std::to_string(n_nodes) + " are stored");
  }
  nodes_.resize(n_nodes);
  std::memcpy(nodes_.data(), node_bytes.data(), node_bytes.size());
  leaf_proba_.resize(leaf_bytes.size() / sizeof(double));
  std::memcpy(leaf_proba_.data(), leaf_bytes.data(), leaf_bytes.size());
  seal(num_classes);
}

void FlatForest::seal(int num_classes) {
  if (num_classes < 1) throw MlError("flat forest: num_classes must be >= 1");
  if (roots_.empty()) throw MlError("flat forest: no trees appended");
  const auto k = static_cast<std::size_t>(num_classes);
  // Builder leaves (load_packed leaves the pool index empty) must all be
  // num_classes wide; the pool length alone cannot tell.
  if (!build_pool_.empty() && build_width_ != k) {
    throw MlError("flat forest: leaves carry " + std::to_string(build_width_) +
                  " probabilities, want " + std::to_string(num_classes));
  }
  if (leaf_proba_.size() % k != 0) {
    throw MlError("flat forest: pooled leaf buffer holds " +
                  std::to_string(leaf_proba_.size()) +
                  " values, not a multiple of " + std::to_string(num_classes) +
                  " classes");
  }
  num_classes_ = num_classes;
  const auto n_leaves = static_cast<std::int32_t>(leaf_proba_.size() / k);
  min_row_length_ = 0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const auto begin = static_cast<std::int32_t>(roots_[t]);
    const auto end = static_cast<std::int32_t>(tree_end(t));
    if (end <= begin) {
      throw MlError("flat forest: tree " + std::to_string(t) + " has no nodes");
    }
    for (std::int32_t i = begin; i < end; ++i) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      if (node.feature >= 0) {
        min_row_length_ =
            std::max(min_row_length_, static_cast<std::size_t>(node.feature) + 1);
        // The left child is i + 1; the right child points strictly
        // forward inside the same tree. That keeps every walk inside its
        // tree and proves it terminates.
        if (node.slot <= i || node.slot >= end) {
          throw MlError("flat forest: split node " + std::to_string(i) +
                        " has right child " + std::to_string(node.slot) +
                        " outside its tree's (" + std::to_string(i) + ", " +
                        std::to_string(end) + ")");
        }
      } else if (node.slot < 0 || node.slot >= n_leaves) {
        throw MlError("flat forest: leaf node " + std::to_string(i) +
                      " references pooled slot " + std::to_string(node.slot) +
                      " of " + std::to_string(n_leaves));
      }
    }
  }
  sealed_ = true;
}

std::span<const double> FlatForest::walk(std::size_t root,
                                         std::span<const double> row) const {
  const Node* const nodes = nodes_.data();
  std::size_t i = root;
  while (nodes[i].feature >= 0) {
    i = row[static_cast<std::size_t>(nodes[i].feature)] <= nodes[i].threshold
            ? i + 1
            : static_cast<std::size_t>(nodes[i].slot);
  }
  return {leaf_proba_.data() + static_cast<std::size_t>(nodes[i].slot) *
                                   static_cast<std::size_t>(num_classes_),
          static_cast<std::size_t>(num_classes_)};
}

void FlatForest::predict_proba_into(std::span<const double> row,
                                    std::span<double> out) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  if (out.size() != static_cast<std::size_t>(num_classes_)) {
    throw MlError("flat forest: output buffer holds " +
                  std::to_string(out.size()) + " classes, want " +
                  std::to_string(num_classes_));
  }
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (const std::size_t root : roots_) {
    const auto leaf = walk(root, row);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += leaf[c];
  }
  const auto n_trees = static_cast<double>(roots_.size());
  for (double& p : out) p /= n_trees;
}

std::span<const double> FlatForest::tree_leaf(
    std::size_t tree, std::span<const double> row) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  if (tree >= roots_.size()) throw MlError("flat forest: tree out of range");
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  return walk(roots_[tree], row);
}

void FlatForest::predict_batch(const Matrix& rows, Matrix& out) const {
  // Batch validation happens once here, not per row: the kernel below walks
  // unchecked.
  if (!sealed_) throw MlError("flat forest: predict before finish");
  const auto k = static_cast<std::size_t>(num_classes_);
  if (out.rows() != rows.rows() || out.cols() != k) {
    throw MlError("flat forest: predict_batch output shape is " +
                  std::to_string(out.rows()) + "x" +
                  std::to_string(out.cols()) + ", want " +
                  std::to_string(rows.rows()) + "x" + std::to_string(k) +
                  " (rows x num_classes)");
  }
  if (rows.cols() < min_row_length_) {
    throw MlError("flat forest: batch rows carry " +
                  std::to_string(rows.cols()) +
                  " features, walks reference up to feature " +
                  std::to_string(min_row_length_ - 1));
  }
  const std::size_t n = rows.rows();
  if (n == 0) return;
  static obs::Counter batch_calls("ml.batch.calls");
  static obs::Counter batch_rows("ml.batch.rows");
  batch_calls.increment();
  batch_rows.add(n);

  // Tree-major blocked traversal (header comment). Rows are processed in
  // blocks sized so the block's output rows and the tree's top levels stay
  // cache-resident while every tree re-walks the block; within a block
  // kLanes row-walks advance in lockstep so their dependent node loads
  // overlap. Each lane's advance is branchless — a parked lane (one that
  // reached its leaf) keeps re-selecting its own index via cmov instead of
  // taking a data-dependent branch, so the only branch in the steady state
  // is the well-predicted "any lane still active" loop check. That is
  // where the speedup over the scalar walk comes from: per split the
  // scalar path pays an unpredictable x-vs-threshold branch, the lanes pay
  // a conditional move. Each row still accumulates tree 0..T in sequence
  // and divides once, so the output is byte-identical to the scalar path.
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kLanes = 8;
  const Node* const nodes = nodes_.data();
  const double* const leaves = leaf_proba_.data();
  const auto n_trees = static_cast<double>(roots_.size());

  const auto accumulate = [&](std::size_t leaf_node, std::span<double> o) {
    const double* const p =
        leaves + static_cast<std::size_t>(nodes[leaf_node].slot) * k;
    for (std::size_t c = 0; c < k; ++c) o[c] += p[c];
  };

  // The branchless advance reads x[0] on parked lanes (the index select
  // discards the result); that needs at least one feature column to exist.
  // A forest with min_row_length_ == 0 is all single-leaf trees and may
  // legitimately see 0-column batches, so route it through the guarded
  // scalar walk instead.
  const bool lanes_ok = rows.cols() > 0;

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t b1 = std::min(n, b0 + kBlock);
    for (std::size_t r = b0; r < b1; ++r) {
      const auto o = out.row(r);
      std::fill(o.begin(), o.end(), 0.0);
    }
    for (const std::size_t root : roots_) {
      std::size_t r = b0;
      for (; lanes_ok && r + kLanes <= b1; r += kLanes) {
        const double* x[kLanes];
        std::size_t idx[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          x[l] = rows.row(r + l).data();
          idx[l] = root;
        }
        for (;;) {
          std::size_t active = 0;
          for (std::size_t l = 0; l < kLanes; ++l) {
            const Node nd = nodes[idx[l]];
            // All-ones masks instead of ternaries: GCC compiles the
            // x-vs-threshold ternary to a jump, which reintroduces the
            // per-split misprediction this kernel exists to avoid.
            const auto go_mask = static_cast<std::size_t>(
                -static_cast<std::ptrdiff_t>(nd.feature >= 0));
            // Parked lanes load x[0] (valid: lanes_ok) and discard it.
            const std::size_t f =
                static_cast<std::size_t>(
                    static_cast<std::uint32_t>(nd.feature)) &
                go_mask;
            const auto le_mask = static_cast<std::size_t>(
                -static_cast<std::ptrdiff_t>(x[l][f] <= nd.threshold));
            const std::size_t next =
                ((idx[l] + 1) & le_mask) |
                (static_cast<std::size_t>(static_cast<std::uint32_t>(nd.slot)) &
                 ~le_mask);
            idx[l] = (next & go_mask) | (idx[l] & ~go_mask);
            active |= go_mask;
          }
          if (!active) break;
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          accumulate(idx[l], out.row(r + l));
        }
      }
      for (; r < b1; ++r) {
        const auto leaf = walk(root, rows.row(r));
        const auto o = out.row(r);
        for (std::size_t c = 0; c < k; ++c) o[c] += leaf[c];
      }
    }
    for (std::size_t r = b0; r < b1; ++r) {
      for (double& p : out.row(r)) p /= n_trees;
    }
  }
}

}  // namespace pml::ml
