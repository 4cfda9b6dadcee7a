// Tuning-dataset construction (paper §V-B, Table I).
//
// For every (cluster, #nodes, ppn, message size) point of a cluster's sweep
// the builder benchmarks every valid algorithm (averaged noisy iterations,
// exactly as the paper averages repeated runs) and labels the point with
// the fastest one. The result is the ~9000-record-per-collective dataset
// the paper trains on.
//
// Two cost sources are available per build (CostSource):
//  - kAnalytic: the closed-form coll::analytic_cost path with multiplicative
//    log-normal jitter — O(log p) per measurement, the default.
//  - kEngine:   the exact event engine via coll::run_collective in
//    timing-only payload mode — O(messages) per measurement, but the only
//    path that understands a sim::FaultPlan (the analytic model is
//    fault-blind), so faulted/contended grids must build through it.
//
// The engine path is made affordable by analytic top-k pruning: per cell,
// all valid algorithms are ranked by their noise-free analytic cost and only
// the top prune_topk contenders (plus a deterministic ε-sample of the rest,
// drawn from the cell's RNG) are measured on the engine. Pruning is
// restricted to clean grids — a non-empty FaultPlan forces exhaustive
// engine measurement, because the analytic ranking knows nothing about
// faults. prune_audit measures everything and counts the cells where
// pruning would have mislabeled (see BuildStats / dataset.* counters).
//
// The sweep is embarrassingly parallel: every grid cell derives its own
// noise stream from cell_seed(), and engine measurements seed their jitter
// from measurement_seed(), so records are bit-identical at any thread
// count and independent of iteration order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coll/collective.hpp"
#include "common/json.hpp"
#include "core/features.hpp"
#include "ml/dataset.hpp"
#include "sim/fault.hpp"
#include "sim/hardware.hpp"

namespace pml::core {

/// One benchmark point: features, per-candidate timings, and the label.
struct TuningRecord {
  std::string cluster;
  int nodes = 0;
  int ppn = 0;
  std::uint64_t msg_bytes = 0;
  coll::Collective collective = coll::Collective::kAllgather;
  std::vector<double> features;  ///< full 14-column row
  /// Measured seconds per candidate, indexed like
  /// coll::selection_space(collective). Flat builds (BuildOptions::
  /// hierarchy == false) measure only the space's flat prefix — whose
  /// indices equal the v1 algorithms_for(collective) label space — so
  /// their vectors are prefix-length. +inf marks candidates invalid at
  /// this topology or skipped by the engine-mode pruning layer (only
  /// measured entries can be the label).
  std::vector<double> times;
  int label = -1;  ///< selection-space index of the fastest measured candidate
};

/// Engine-mode pruning is disabled below this world size: at degenerate
/// tiny worlds the closed forms collapse (at p=2 every alltoall is one
/// exchange and the analytic ordering is meaningless — observed strict
/// rank 4 of the engine argmin), while exhaustive engine measurement
/// costs next to nothing there anyway.
inline constexpr int kPruneWorldFloor = 8;

/// Which cost model a dataset build measures cells with (header comment).
enum class CostSource : std::uint8_t {
  kAnalytic,  ///< closed-form coll::measured_cost (fault-blind, O(log p))
  kEngine,    ///< event engine, timing-only payload mode (exact, O(messages))
};

/// Stable identifier ("analytic" / "engine") and its inverse; the parse
/// throws pml::ConfigError on unknown names (CLI --cost-source).
std::string to_string(CostSource source);
CostSource cost_source_from_string(const std::string& name);

/// Aggregate outcome of one build_records call (also flushed to the
/// dataset.* obs counters when collection is enabled).
struct BuildStats {
  std::uint64_t cells = 0;           ///< records built
  std::uint64_t measured_evals = 0;  ///< (algorithm x cell) points measured
  /// Engine-mode pruning effect: measurements skipped because the algorithm
  /// ranked outside the analytic top-k, and measurements performed only
  /// because the ε-sample drew the algorithm back in. In audit mode both
  /// count the *simulated* pruning decision (nothing is actually skipped).
  std::uint64_t pruned_evals = 0;
  std::uint64_t epsilon_evals = 0;
  /// Audit mode only: cells whose exhaustive engine label lies outside the
  /// pruned measurement set, i.e. cells pruning would have mislabeled.
  std::uint64_t prune_mispredictions = 0;
};

struct BuildOptions {
  int iterations = 5;          ///< averaged per measurement (noise suppression)
  double noise_sigma = 0.015;  ///< dynamic network effects (paper §III)
  std::uint64_t seed = 2024;
  /// Sweep concurrency: 1 = serial, <= 0 = all hardware threads. Records are
  /// bit-identical at any setting (per-cell RNG split, see cell_seed()).
  int threads = 1;
  /// Cost model for the per-algorithm measurements (header comment).
  CostSource cost_source = CostSource::kAnalytic;
  /// Deterministic fault injection for engine-mode builds. Must be empty
  /// with kAnalytic (the analytic model is fault-blind: TuningError), must
  /// validate against every cell's topology, and — being invisible to the
  /// analytic ranking — forces exhaustive engine measurement (no pruning).
  sim::FaultPlan faults{};
  /// Engine-mode pruning: measure only the prune_topk analytically-cheapest
  /// valid algorithms per cell; <= 0 measures exhaustively. The cut is
  /// tie-inclusive — algorithms whose analytic cost equals the k-th ranked
  /// cost are all kept, because the closed forms coincide for whole
  /// algorithm families and an enum-order tie-break would prune the true
  /// winner arbitrarily. Cells with world size below kPruneWorldFloor are
  /// always measured exhaustively. Ignored by the analytic path (ranking
  /// and measuring with the same model is free).
  int prune_topk = 3;
  /// Probability in [0, 1] that an algorithm pruned by the top-k cut is
  /// measured anyway (one deterministic Bernoulli draw per pruned algorithm
  /// from the cell's RNG), bounding the pruning error observably.
  double prune_epsilon = 0.0;
  /// Audit mode (engine + pruning): measure every valid algorithm so the
  /// records stay exhaustive, but count the cells where the pruned
  /// measurement set would have missed the true label (BuildStats::
  /// prune_mispredictions / the dataset.prune_mispredictions counter).
  bool prune_audit = false;
  /// Label space v2: measure the full coll::selection_space(collective) —
  /// flat algorithms plus leader-based hierarchical schedules — instead of
  /// the flat prefix only. Engine builds additionally run under the
  /// cluster's intra-node tier model (sim::HierarchySpec::from_cluster),
  /// so flat and hierarchical candidates are timed in the same world.
  bool hierarchy = false;
};

/// Deterministic per-cell noise-stream seed: a splitmix64 sponge over
/// (seed, cluster, collective, nodes, ppn, msg). Each grid cell of the sweep
/// draws its measurement jitter from an Rng seeded with this value, which
/// makes the dataset independent of cell iteration order and thread count.
std::uint64_t cell_seed(std::uint64_t seed, std::string_view cluster,
                        coll::Collective collective, int nodes, int ppn,
                        std::uint64_t msg_bytes);

/// Deterministic engine jitter seed for one (cell, algorithm, iteration)
/// measurement: the same sponge discipline over the cell seed. A pure
/// function of the measurement's identity, so pruning never perturbs the
/// values of the measurements it keeps and any thread count is
/// bit-identical.
std::uint64_t measurement_seed(std::uint64_t cell, std::size_t algorithm,
                               int iteration);

/// Human-locatable identity of one sweep cell, used in builder error
/// messages: "cluster 'X' <collective> (nodes=.., ppn=.., msg_bytes=..)".
std::string sweep_cell_context(std::string_view cluster,
                               coll::Collective collective, int nodes, int ppn,
                               std::uint64_t msg_bytes);

/// Benchmark one cluster's full Table-I sweep for one collective.
std::vector<TuningRecord> build_cluster_records(const sim::ClusterSpec& cluster,
                                                coll::Collective collective,
                                                const BuildOptions& options);

/// Benchmark a set of clusters (all of Table I by default). The overload
/// with `stats` also reports the build's measurement/pruning tallies.
std::vector<TuningRecord> build_records(
    std::span<const sim::ClusterSpec> clusters, coll::Collective collective,
    const BuildOptions& options);
std::vector<TuningRecord> build_records(
    std::span<const sim::ClusterSpec> clusters, coll::Collective collective,
    const BuildOptions& options, BuildStats& stats);

/// Serialize records to/from a "pml-dataset-v2" document (the payload of a
/// pml-artifact-v1 envelope of kind "dataset"; `pml dataset` writes these).
/// The "selections" array names the encoded label space the `times`
/// columns index. All records must share `collective` and label width;
/// from_json validates shapes and throws TuningError/JsonError on
/// mismatch (any other format, v1 included, is a TuningError).
Json records_to_json(std::span<const TuningRecord> records,
                     coll::Collective collective);
std::vector<TuningRecord> records_from_json(const Json& j);

/// Convert records to an ML dataset. `columns` selects feature columns
/// (empty = all 14). Class labels index coll::selection_space(collective)
/// (whose flat prefix is the v1 algorithm label space), so flat-built and
/// hierarchical datasets train models over one stable class layout.
ml::Dataset to_ml_dataset(std::span<const TuningRecord> records,
                          coll::Collective collective,
                          const std::vector<std::size_t>& columns = {});

/// Row indices whose cluster name is in `clusters` (cluster-based splits).
std::vector<std::size_t> rows_in_clusters(
    std::span<const TuningRecord> records,
    std::span<const std::string> clusters);

/// Row indices with node count <= / > `threshold` (node-based splits).
std::vector<std::size_t> rows_with_nodes_at_most(
    std::span<const TuningRecord> records, int threshold);
std::vector<std::size_t> rows_with_nodes_above(
    std::span<const TuningRecord> records, int threshold);

}  // namespace pml::core
