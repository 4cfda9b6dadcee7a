#include "core/dataset_builder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "coll/cost.hpp"
#include "coll/runner.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"

namespace pml::core {

namespace {

/// Splitmix64 sponge shared by the seed derivations below: fold each
/// component into the state, then replace the state with the splitmix64 mix
/// of it. Folding the *output* back (not just advancing the counter) makes
/// absorption positional — swapping two components yields a different seed,
/// unlike additive chaining.
struct SeedSponge {
  std::uint64_t state;
  explicit SeedSponge(std::uint64_t seed) : state(seed) {}
  void absorb(std::uint64_t value) {
    state ^= value;
    state = splitmix64(state);
  }
  std::uint64_t squeeze() { return splitmix64(state); }
};

}  // namespace

std::uint64_t cell_seed(std::uint64_t seed, std::string_view cluster,
                        coll::Collective collective, int nodes, int ppn,
                        std::uint64_t msg_bytes) {
  SeedSponge sponge(seed);
  for (const char ch : cluster) sponge.absorb(static_cast<unsigned char>(ch));
  sponge.absorb(static_cast<std::uint64_t>(collective));
  sponge.absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(nodes)));
  sponge.absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ppn)));
  sponge.absorb(msg_bytes);
  return sponge.squeeze();
}

std::uint64_t measurement_seed(std::uint64_t cell, std::size_t algorithm,
                               int iteration) {
  SeedSponge sponge(cell);
  sponge.absorb(static_cast<std::uint64_t>(algorithm));
  sponge.absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(iteration)));
  return sponge.squeeze();
}

std::string sweep_cell_context(std::string_view cluster,
                               coll::Collective collective, int nodes, int ppn,
                               std::uint64_t msg_bytes) {
  return "cluster '" + std::string(cluster) + "' " + coll::to_string(collective) +
         " (nodes=" + std::to_string(nodes) + ", ppn=" + std::to_string(ppn) +
         ", msg_bytes=" + std::to_string(msg_bytes) + ")";
}

std::string to_string(CostSource source) {
  switch (source) {
    case CostSource::kAnalytic: return "analytic";
    case CostSource::kEngine: return "engine";
  }
  return "unknown";
}

CostSource cost_source_from_string(const std::string& name) {
  if (name == "analytic") return CostSource::kAnalytic;
  if (name == "engine") return CostSource::kEngine;
  throw ConfigError("unknown cost source '" + name +
                    "' (expected 'analytic' or 'engine')");
}

namespace {

/// One (cluster, nodes, ppn, msg) point of the Table-I sweep grid.
struct GridCell {
  const sim::ClusterSpec* cluster = nullptr;
  int nodes = 0;
  int ppn = 0;
  std::uint64_t msg = 0;
};

/// Per-cell measurement tallies, summed into BuildStats after the parallel
/// loop (each cell writes its own slot, so the sum is order-independent).
struct CellStats {
  std::uint32_t measured = 0;
  std::uint32_t pruned = 0;
  std::uint32_t epsilon = 0;
  std::uint32_t mispredicted = 0;
};

/// Append a cluster's sweep cells in the canonical (nodes, ppn, msg) order.
/// Record order always mirrors this enumeration, at any thread count.
void enumerate_cells(const sim::ClusterSpec& cluster,
                     std::vector<GridCell>& cells) {
  for (const int nodes : cluster.node_counts) {
    for (const int ppn : cluster.ppn_values) {
      if (ppn > cluster.hw.threads) continue;
      for (const std::uint64_t msg : cluster.message_sizes) {
        cells.push_back(GridCell{&cluster, nodes, ppn, msg});
      }
    }
  }
}

/// Engine-mode measurement of one (cell, candidate): averaged timing-only
/// engine runs, one independently seeded jitter stream per iteration. The
/// per-thread engine/arena reuse inside run_selection makes the steady
/// state allocation-free; virtual time is a pure function of the arguments.
/// Hierarchical builds time every candidate under the cluster's intra-node
/// tier model so flat and leader schedules compete in the same world.
double engine_cost(const GridCell& cell, sim::Topology topo,
                   const coll::Selection& selection, std::size_t space_index,
                   std::uint64_t cellseed, const BuildOptions& options) {
  sim::RunOptions run;
  run.payload = sim::PayloadMode::kTimingOnly;
  run.noise_sigma = options.noise_sigma;
  run.faults = options.faults;
  if (options.hierarchy) {
    run.hierarchy = sim::HierarchySpec::from_cluster(*cell.cluster);
  }
  double total = 0.0;
  for (int it = 0; it < options.iterations; ++it) {
    run.seed = measurement_seed(cellseed, space_index, it);
    total += coll::run_selection(*cell.cluster, topo, selection, cell.msg, run)
                 .seconds;
  }
  return total / options.iterations;
}

/// Noise-free analytic cost of one candidate: flat candidates reuse the
/// cell's prebuilt NetworkModel (bit-identical to the v1 flat path);
/// leader candidates go through the composed selection cost model.
double candidate_analytic_cost(const sim::NetworkModel& model,
                               const GridCell& cell, sim::Topology topo,
                               const coll::Selection& selection) {
  return selection.hierarchical()
             ? coll::analytic_cost(*cell.cluster, topo, selection, cell.msg)
             : coll::analytic_cost(model, selection.algorithm, cell.msg);
}

/// The engine-mode measurement plan for one cell: which candidates the
/// pruning layer keeps. Top-k by noise-free analytic cost plus one
/// Bernoulli(ε) draw per pruned candidate, in selection-space order, from
/// the cell's RNG — deterministic for the cell regardless of thread count.
std::vector<bool> pruned_selection(const sim::NetworkModel& model,
                                   std::span<const coll::Selection> candidates,
                                   const std::vector<std::size_t>& valid,
                                   const GridCell& cell, sim::Topology topo,
                                   const BuildOptions& options, Rng& rng,
                                   CellStats& stats) {
  std::vector<double> analytic(candidates.size(),
                               std::numeric_limits<double>::infinity());
  for (const std::size_t a : valid) {
    analytic[a] = candidate_analytic_cost(model, cell, topo, candidates[a]);
  }
  std::vector<std::size_t> order = valid;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return analytic[a] < analytic[b];
  });

  std::vector<bool> keep(candidates.size(), false);
  const auto k = static_cast<std::size_t>(options.prune_topk);
  // The cut is tie-inclusive: every candidate whose cost equals the k-th
  // ranked cost is kept. The closed forms coincide for whole algorithm
  // families (e.g. the log-step alltoalls at power-of-2 p), and breaking
  // such a tie by enum order would prune the true winner on a coin flip.
  const double cutoff = k <= order.size()
                            ? analytic[order[k - 1]]
                            : std::numeric_limits<double>::infinity();
  for (const std::size_t a : valid) {
    if (analytic[a] <= cutoff) keep[a] = true;
  }
  // ε-draws iterate the pruned candidates in space order (a fixed order, so
  // the draw a candidate receives never depends on the analytic ranking).
  for (const std::size_t a : valid) {
    if (keep[a]) continue;
    if (options.prune_epsilon > 0.0 && rng.bernoulli(options.prune_epsilon)) {
      keep[a] = true;
      ++stats.epsilon;
    } else {
      ++stats.pruned;
    }
  }
  return keep;
}

/// Benchmark one cell: valid candidates through the configured cost source,
/// averaged noisy iterations, labelled with the argmin of the measured set.
/// Candidates are a prefix of coll::selection_space(collective): the flat
/// prefix (== the v1 label space, bit-identical records) by default, the
/// full space under BuildOptions::hierarchy. Self-contained (fresh
/// NetworkModel, per-cell RNG), so cells can run concurrently in any order.
TuningRecord build_cell(const GridCell& cell, coll::Collective collective,
                        const BuildOptions& options, CellStats& stats) {
  obs::Span span("dataset.cell");
  const sim::ClusterSpec& cluster = *cell.cluster;
  const sim::Topology topo{cell.nodes, cell.ppn};
  const sim::NetworkModel model(cluster, topo);
  const std::uint64_t cellseed = cell_seed(options.seed, cluster.name,
                                           collective, cell.nodes, cell.ppn,
                                           cell.msg);
  Rng rng(cellseed);

  const auto& space = coll::selection_space(collective);
  const std::size_t width = options.hierarchy
                                ? space.size()
                                : coll::algorithms_for(collective).size();
  const std::span<const coll::Selection> candidates(space.data(), width);
  TuningRecord rec;
  rec.cluster = cluster.name;
  rec.nodes = cell.nodes;
  rec.ppn = cell.ppn;
  rec.msg_bytes = cell.msg;
  rec.collective = collective;
  rec.features = extract_features(cluster, cell.nodes, cell.ppn, cell.msg);
  rec.times.assign(width, std::numeric_limits<double>::infinity());

  std::vector<std::size_t> valid;
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    if (coll::selection_supports(candidates[a], topo)) {
      valid.push_back(a);
    }
  }
  if (valid.empty()) {
    throw TuningError("no valid candidate at world size " +
                      std::to_string(topo.world_size()) + " for " +
                      sweep_cell_context(cluster.name, collective, cell.nodes,
                                         cell.ppn, cell.msg));
  }

  const bool engine = options.cost_source == CostSource::kEngine;
  // Pruning needs the analytic ranking to be meaningful, which a non-empty
  // FaultPlan breaks (the closed forms are fault-blind) and degenerate tiny
  // worlds break too (kPruneWorldFloor): both are measured exhaustively.
  const bool prune = engine && options.prune_topk > 0 &&
                     options.faults.empty() &&
                     topo.world_size() >= kPruneWorldFloor &&
                     static_cast<std::size_t>(options.prune_topk) < valid.size();
  std::vector<bool> keep;
  if (prune) {
    keep = pruned_selection(model, candidates, valid, cell, topo, options, rng,
                            stats);
  }

  for (const std::size_t a : valid) {
    if (prune && !options.prune_audit && !keep[a]) continue;
    rec.times[a] = engine
                       ? engine_cost(cell, topo, candidates[a], a, cellseed,
                                     options)
                       : candidates[a].hierarchical()
                             ? coll::measured_cost(cluster, topo, candidates[a],
                                                   cell.msg, options.iterations,
                                                   rng, options.noise_sigma)
                             : coll::measured_cost(model,
                                                   candidates[a].algorithm,
                                                   cell.msg, options.iterations,
                                                   rng, options.noise_sigma);
    ++stats.measured;
  }
  const auto best = std::min_element(rec.times.begin(), rec.times.end());
  if (!std::isfinite(*best)) {
    throw TuningError("no measured candidate at world size " +
                      std::to_string(topo.world_size()) + " for " +
                      sweep_cell_context(cluster.name, collective, cell.nodes,
                                         cell.ppn, cell.msg));
  }
  rec.label = static_cast<int>(best - rec.times.begin());
  if (prune && options.prune_audit &&
      !keep[static_cast<std::size_t>(rec.label)]) {
    ++stats.mispredicted;
  }
  return rec;
}

void validate_options(const BuildOptions& options) {
  if (options.iterations < 1) throw TuningError("iterations must be >= 1");
  if (options.prune_epsilon < 0.0 || options.prune_epsilon > 1.0 ||
      !std::isfinite(options.prune_epsilon)) {
    throw TuningError("prune_epsilon must be in [0, 1]");
  }
  if (options.cost_source == CostSource::kAnalytic && !options.faults.empty()) {
    throw TuningError(
        "analytic cost source cannot honor a fault plan (the closed-form "
        "model is fault-blind); build faulted grids with "
        "CostSource::kEngine");
  }
}

std::vector<TuningRecord> build_cells(std::span<const sim::ClusterSpec> clusters,
                                      coll::Collective collective,
                                      const BuildOptions& options,
                                      BuildStats& stats) {
  validate_options(options);
  std::vector<GridCell> cells;
  for (const sim::ClusterSpec& cluster : clusters) {
    enumerate_cells(cluster, cells);
  }
  // Pre-sized output slots + per-cell RNG streams: the pool only distributes
  // independent indices, so any thread count is bit-identical to serial.
  obs::Span span("dataset.build");
  std::vector<TuningRecord> records(cells.size());
  std::vector<CellStats> cell_stats(cells.size());
  parallel_for(options.threads, cells.size(), [&](std::size_t i) {
    records[i] = build_cell(cells[i], collective, options, cell_stats[i]);
  });

  stats.cells += records.size();
  for (const CellStats& c : cell_stats) {
    stats.measured_evals += c.measured;
    stats.pruned_evals += c.pruned;
    stats.epsilon_evals += c.epsilon;
    stats.prune_mispredictions += c.mispredicted;
  }
  if (obs::enabled()) {
    static obs::Counter built("dataset.cells");
    static obs::Counter measured("dataset.measured_evals");
    static obs::Counter pruned("dataset.pruned_evals");
    static obs::Counter epsilon("dataset.epsilon_evals");
    static obs::Counter mispredicted("dataset.prune_mispredictions");
    built.add(records.size());
    measured.add(stats.measured_evals);
    pruned.add(stats.pruned_evals);
    epsilon.add(stats.epsilon_evals);
    mispredicted.add(stats.prune_mispredictions);
  }
  return records;
}

}  // namespace

std::vector<TuningRecord> build_cluster_records(const sim::ClusterSpec& cluster,
                                                coll::Collective collective,
                                                const BuildOptions& options) {
  BuildStats stats;
  return build_cells({&cluster, 1}, collective, options, stats);
}

std::vector<TuningRecord> build_records(
    std::span<const sim::ClusterSpec> clusters, coll::Collective collective,
    const BuildOptions& options) {
  BuildStats stats;
  return build_cells(clusters, collective, options, stats);
}

std::vector<TuningRecord> build_records(
    std::span<const sim::ClusterSpec> clusters, coll::Collective collective,
    const BuildOptions& options, BuildStats& stats) {
  return build_cells(clusters, collective, options, stats);
}

Json records_to_json(std::span<const TuningRecord> records,
                     coll::Collective collective) {
  Json j = Json::object();
  j["format"] = "pml-dataset-v2";
  j["collective"] = coll::to_string(collective);
  // The label space the `times` columns index: a prefix of
  // selection_space(collective) — the flat prefix for flat-built records,
  // the full space for hierarchical builds. Recorded explicitly so readers
  // never have to guess the column meaning from the width.
  const auto& space = coll::selection_space(collective);
  const std::size_t width =
      records.empty() ? space.size() : records.front().times.size();
  if (width > space.size()) {
    throw TuningError("record label space wider than selection_space");
  }
  Json selections = Json::array();
  for (std::size_t i = 0; i < width; ++i) {
    selections.push_back(space[i].encode());
  }
  j["selections"] = std::move(selections);
  Json rows = Json::array();
  for (const TuningRecord& rec : records) {
    if (rec.collective != collective) {
      throw TuningError("record collective mismatch");
    }
    if (rec.times.size() != width) {
      throw TuningError("records mix label-space widths (" +
                        std::to_string(rec.times.size()) + " vs " +
                        std::to_string(width) + ")");
    }
    Json row = Json::object();
    row["cluster"] = rec.cluster;
    row["nodes"] = rec.nodes;
    row["ppn"] = rec.ppn;
    row["msg_bytes"] = static_cast<std::int64_t>(rec.msg_bytes);
    Json features = Json::array();
    for (const double f : rec.features) features.push_back(f);
    row["features"] = std::move(features);
    Json times = Json::array();
    for (const double t : rec.times) {
      // +inf (invalid/pruned) is not representable in JSON: encode as null.
      if (std::isfinite(t)) {
        times.push_back(t);
      } else {
        times.push_back(Json());
      }
    }
    row["times"] = std::move(times);
    row["label"] = rec.label;
    rows.push_back(std::move(row));
  }
  j["records"] = std::move(rows);
  return j;
}

std::vector<TuningRecord> records_from_json(const Json& j) {
  if (!j.contains("format") || !j.at("format").is_string()) {
    throw TuningError("not a pml-dataset document");
  }
  if (j.at("format").as_string() != "pml-dataset-v2") {
    throw TuningError("not a pml-dataset-v2 document");
  }
  const auto collective =
      coll::collective_from_string(j.at("collective").as_string());
  // The document names its label space, which must be a selection_space
  // prefix.
  const auto& space = coll::selection_space(collective);
  const auto& sels = j.at("selections").as_array();
  if (sels.size() > space.size()) {
    throw TuningError("dataset label space wider than selection_space");
  }
  for (std::size_t i = 0; i < sels.size(); ++i) {
    if (sels[i].as_string() != space[i].encode()) {
      throw TuningError("dataset label space mismatch at index " +
                        std::to_string(i) + ": '" + sels[i].as_string() +
                        "' != '" + space[i].encode() + "'");
    }
  }
  const std::size_t width = sels.size();
  std::vector<TuningRecord> records;
  for (const Json& row : j.at("records").as_array()) {
    TuningRecord rec;
    rec.collective = collective;
    rec.cluster = row.at("cluster").as_string();
    rec.nodes = static_cast<int>(row.at("nodes").as_int());
    rec.ppn = static_cast<int>(row.at("ppn").as_int());
    rec.msg_bytes = static_cast<std::uint64_t>(row.at("msg_bytes").as_int());
    for (const Json& f : row.at("features").as_array()) {
      rec.features.push_back(f.as_number());
    }
    for (const Json& t : row.at("times").as_array()) {
      rec.times.push_back(t.is_null()
                              ? std::numeric_limits<double>::infinity()
                              : t.as_number());
    }
    rec.label = static_cast<int>(row.at("label").as_int());
    if (rec.times.size() != width || rec.label < 0 ||
        static_cast<std::size_t>(rec.label) >= width ||
        !std::isfinite(rec.times[static_cast<std::size_t>(rec.label)]) ||
        rec.features.size() != feature_count()) {
      throw TuningError("malformed dataset record for " +
                        sweep_cell_context(rec.cluster, collective, rec.nodes,
                                           rec.ppn, rec.msg_bytes));
    }
    records.push_back(std::move(rec));
  }
  return records;
}

ml::Dataset to_ml_dataset(std::span<const TuningRecord> records,
                          coll::Collective collective,
                          const std::vector<std::size_t>& columns) {
  if (records.empty()) throw TuningError("no records to convert");
  ml::Dataset data;
  // Classes index the full selection space regardless of how wide the
  // records' measured space was: flat-built records only ever emit flat
  // labels, and the extra classes just stay unpopulated. One stable class
  // layout lets flat and hierarchical bundles share the inference path.
  const auto& space = coll::selection_space(collective);
  data.num_classes = static_cast<int>(space.size());
  for (const coll::Selection& sel : space) {
    data.class_names.push_back(sel.encode());
  }
  if (columns.empty()) {
    data.feature_names = feature_names();
  } else {
    for (const std::size_t c : columns) {
      data.feature_names.push_back(feature_names().at(c));
    }
  }
  for (const TuningRecord& rec : records) {
    if (rec.collective != collective) {
      throw TuningError("record collective mismatch");
    }
    const auto row = columns.empty() ? rec.features
                                     : project_features(rec.features, columns);
    data.x.push_row(row);
    data.y.push_back(rec.label);
  }
  data.validate();
  return data;
}

std::vector<std::size_t> rows_in_clusters(
    std::span<const TuningRecord> records,
    std::span<const std::string> clusters) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (const std::string& name : clusters) {
      if (records[i].cluster == name) {
        rows.push_back(i);
        break;
      }
    }
  }
  return rows;
}

std::vector<std::size_t> rows_with_nodes_at_most(
    std::span<const TuningRecord> records, int threshold) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].nodes <= threshold) rows.push_back(i);
  }
  return rows;
}

std::vector<std::size_t> rows_with_nodes_above(
    std::span<const TuningRecord> records, int threshold) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].nodes > threshold) rows.push_back(i);
  }
  return rows;
}

}  // namespace pml::core
