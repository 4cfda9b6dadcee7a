#include "core/tuning_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace pml::core {

void TuningTable::add(JobTable job) {
  if (job.entries.empty()) throw TuningError("job table has no entries");
  for (std::size_t i = 1; i < job.entries.size(); ++i) {
    if (job.entries[i].max_bytes <= job.entries[i - 1].max_bytes) {
      throw TuningError("job table entries must have ascending max_bytes");
    }
  }
  if (find(job.collective, job.nodes, job.ppn) != nullptr) {
    throw TuningError("duplicate job table for nodes=" +
                      std::to_string(job.nodes) +
                      " ppn=" + std::to_string(job.ppn));
  }
  jobs_.push_back(std::move(job));
}

const JobTable* TuningTable::find(coll::Collective collective, int nodes,
                                  int ppn) const {
  for (const JobTable& j : jobs_) {
    if (j.collective == collective && j.nodes == nodes && j.ppn == ppn) {
      return &j;
    }
  }
  return nullptr;
}

const JobTable* TuningTable::nearest(coll::Collective collective, int nodes,
                                     int ppn) const {
  const JobTable* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const JobTable& j : jobs_) {
    if (j.collective != collective) continue;
    // Geometric distance in (log nodes, log ppn) space.
    const double dn = std::log2(static_cast<double>(j.nodes)) -
                      std::log2(static_cast<double>(nodes));
    const double dp = std::log2(static_cast<double>(j.ppn)) -
                      std::log2(static_cast<double>(ppn));
    const double dist = dn * dn + dp * dp;
    // Ties (e.g. 2x and 8x nodes around a 4x query) are broken by the
    // fixed (nodes, ppn) order documented in the header, not by which job
    // happened to be registered first, so lookups are reproducible for any
    // job ordering. The comparison is exact: tied shapes compute the same
    // squared distance from identical log2 terms.
    const bool tie_wins =
        best != nullptr && dist == best_dist &&
        (j.nodes < best->nodes ||
         (j.nodes == best->nodes && j.ppn < best->ppn));
    if (dist < best_dist || tie_wins) {
      best_dist = dist;
      best = &j;
    }
  }
  return best;
}

bool TuningTable::matches_cluster(const sim::ClusterSpec& cluster) const {
  return cluster_name_ == cluster.name && cluster_fingerprint_ != 0 &&
         cluster_fingerprint_ == cluster.hardware_fingerprint();
}

bool TuningTable::has(coll::Collective collective, int nodes, int ppn) const {
  return find(collective, nodes, ppn) != nullptr;
}

coll::Selection TuningTable::lookup(coll::Collective collective, int nodes,
                                    int ppn, std::uint64_t msg_bytes) const {
  const JobTable* job = find(collective, nodes, ppn);
  if (job == nullptr) job = nearest(collective, nodes, ppn);
  if (job == nullptr) {
    throw TuningError("tuning table has no entries for collective " +
                      coll::to_string(collective));
  }
  for (const TuningEntry& e : job->entries) {
    if (msg_bytes <= e.max_bytes) return e.selection;
  }
  return job->entries.back().selection;  // open-ended final range
}

void TuningTable::set_sweep(std::span<const int> node_counts,
                            std::span<const int> ppn_values,
                            std::span<const std::uint64_t> msg_sizes) {
  sweep_nodes_.assign(node_counts.begin(), node_counts.end());
  sweep_ppn_.assign(ppn_values.begin(), ppn_values.end());
  sweep_msgs_.assign(msg_sizes.begin(), msg_sizes.end());
}

bool TuningTable::matches_sweep(
    std::span<const int> node_counts, std::span<const int> ppn_values,
    std::span<const std::uint64_t> msg_sizes) const noexcept {
  return !sweep_nodes_.empty() &&
         std::ranges::equal(sweep_nodes_, node_counts) &&
         std::ranges::equal(sweep_ppn_, ppn_values) &&
         std::ranges::equal(sweep_msgs_, msg_sizes);
}

TuningTable TuningTable::generate(Selector& selector,
                                  const sim::ClusterSpec& cluster,
                                  std::span<const int> node_counts,
                                  std::span<const int> ppn_values,
                                  std::span<const std::uint64_t> msg_sizes) {
  return generate(selector, cluster, node_counts, ppn_values, msg_sizes,
                  coll::paper_collectives());
}

TuningTable TuningTable::generate(Selector& selector,
                                  const sim::ClusterSpec& cluster,
                                  std::span<const int> node_counts,
                                  std::span<const int> ppn_values,
                                  std::span<const std::uint64_t> msg_sizes,
                                  std::span<const coll::Collective> collectives,
                                  int threads) {
  if (msg_sizes.empty()) throw TuningError("generate: empty size sweep");
  TuningTable table(cluster.name);
  table.set_sweep(node_counts, ppn_values, msg_sizes);
  table.set_cluster_fingerprint(cluster.hardware_fingerprint());

  // Enumerate the job cells up front and fill them into pre-sized slots, so
  // the parallel sweep registers jobs in exactly the serial order.
  struct Cell {
    coll::Collective collective;
    int nodes;
    int ppn;
  };
  std::vector<Cell> cells;
  for (const auto collective : collectives) {
    for (const int nodes : node_counts) {
      for (const int ppn : ppn_values) {
        if (ppn > cluster.hw.threads) continue;
        cells.push_back(Cell{collective, nodes, ppn});
      }
    }
  }

  std::vector<JobTable> jobs(cells.size());
  parallel_for(threads, cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    obs::Span span("online.sweep_cell");
    JobTable job;
    job.collective = cell.collective;
    job.nodes = cell.nodes;
    job.ppn = cell.ppn;
    // One batched selection per cell: model-backed selectors answer the
    // whole message sweep with a single blocked inference; plain selectors
    // fall back to the per-size select() loop inside select_many. The
    // reused thread_local keeps the sweep allocation-free in steady state.
    thread_local std::vector<coll::Selection> sels;
    sels.resize(msg_sizes.size());
    selector.select_many(cell.collective, cluster,
                         sim::Topology{cell.nodes, cell.ppn}, msg_sizes, sels);
    for (std::size_t m = 0; m < msg_sizes.size(); ++m) {
      const std::uint64_t msg = msg_sizes[m];
      const coll::Selection& sel = sels[m];
      if (!job.entries.empty() && job.entries.back().selection == sel) {
        job.entries.back().max_bytes = msg;  // extend the range
      } else {
        job.entries.push_back(TuningEntry{msg, sel});
      }
    }
    jobs[i] = std::move(job);
  });

  for (JobTable& job : jobs) table.add(std::move(job));
  return table;
}

Json TuningTable::to_json() const {
  obs::Span span("online.table_emission");
  Json j = Json::object();
  j["format"] = "pml-mpi-tuning-table-v2";
  j["cluster"] = cluster_name_;
  if (cluster_fingerprint_ != 0) {
    // Hex string, not a number: uint64 digests overflow the double-backed
    // Json number type.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(cluster_fingerprint_));
    j["cluster_fingerprint"] = std::string(hex);
  }
  if (!sweep_nodes_.empty()) {
    Json sweep = Json::object();
    Json nodes = Json::array();
    for (const int n : sweep_nodes_) nodes.push_back(n);
    sweep["nodes"] = std::move(nodes);
    Json ppn = Json::array();
    for (const int p : sweep_ppn_) ppn.push_back(p);
    sweep["ppn"] = std::move(ppn);
    Json msgs = Json::array();
    for (const std::uint64_t m : sweep_msgs_) msgs.push_back(m);
    sweep["msg_sizes"] = std::move(msgs);
    j["sweep"] = std::move(sweep);
  }
  Json jobs = Json::array();
  for (const JobTable& job : jobs_) {
    Json jj = Json::object();
    jj["collective"] = coll::to_string(job.collective);
    jj["nodes"] = job.nodes;
    jj["ppn"] = job.ppn;
    Json entries = Json::array();
    for (const TuningEntry& e : job.entries) {
      Json ej = Json::object();
      ej["max_bytes"] = e.max_bytes;
      ej["selection"] = e.selection.encode();
      entries.push_back(std::move(ej));
    }
    jj["entries"] = std::move(entries);
    jobs.push_back(std::move(jj));
  }
  j["jobs"] = std::move(jobs);
  return j;
}

TuningTable TuningTable::from_json(const Json& j) {
  if (!j.contains("format") ||
      j.at("format").as_string() != "pml-mpi-tuning-table-v2") {
    throw TuningError("not a pml-mpi-tuning-table-v2 document");
  }
  TuningTable table(j.at("cluster").as_string());
  if (j.contains("cluster_fingerprint")) {  // absent in pre-fingerprint tables
    table.cluster_fingerprint_ = std::strtoull(
        j.at("cluster_fingerprint").as_string().c_str(), nullptr, 16);
  }
  if (j.contains("sweep")) {  // absent in pre-provenance tables
    const Json& sweep = j.at("sweep");
    for (const Json& n : sweep.at("nodes").as_array()) {
      table.sweep_nodes_.push_back(static_cast<int>(n.as_int()));
    }
    for (const Json& p : sweep.at("ppn").as_array()) {
      table.sweep_ppn_.push_back(static_cast<int>(p.as_int()));
    }
    for (const Json& m : sweep.at("msg_sizes").as_array()) {
      table.sweep_msgs_.push_back(static_cast<std::uint64_t>(m.as_int()));
    }
  }
  for (const Json& jj : j.at("jobs").as_array()) {
    JobTable job;
    job.collective = coll::collective_from_string(jj.at("collective").as_string());
    job.nodes = static_cast<int>(jj.at("nodes").as_int());
    job.ppn = static_cast<int>(jj.at("ppn").as_int());
    for (const Json& ej : jj.at("entries").as_array()) {
      TuningEntry e;
      e.max_bytes = static_cast<std::uint64_t>(ej.at("max_bytes").as_int());
      e.selection = coll::Selection::decode(
          job.collective, ej.at("selection").as_string());
      job.entries.push_back(e);
    }
    table.add(std::move(job));
  }
  return table;
}

}  // namespace pml::core
