// pml_bench — helper binary of the repository benchmark (perfbench/run.py).
//
//   pml_bench clusters
//       Print the built-in Table-I cluster specs as one JSON array (the
//       benchmark perturbs them into never-seen inline clusters).
//   pml_bench check JOB.json
//       Output checks on artifacts the `pml` CLI wrote: the model passes
//       the artifact checksum, every CLI table is byte-identical to an
//       in-process compile_for on the same model, every `pml query` answer
//       equals TuningTable::lookup, every table the daemon served equals
//       the CLI's, plus the simulated speedup over the MVAPICH default.
//   pml_bench loadgen CONFIG.json
//       Load generator for a running `pml serve --port` daemon: open-loop
//       phases and closed-loop saturation phases. One thread, at most
//       `connections` sockets, commands on stdin (one JSON line each), one
//       JSON result line per command on stdout.
//   pml_bench replay-train JOB.json | replay-compile JOB.json |
//             replay-serve CONFIG.json
//       In-process replays of `pml train`, `pml compile`/`pml query` and
//       the serve engine, with a span around every library call the CLI
//       path makes. Spans are kept in memory and printed at the end.
//
// Every command prints one JSON document on stdout and exits 0; a failed
// check is reported in that document, an unusable input exits non-zero.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "coll/collective.hpp"
#include "coll/cost.hpp"
#include "common/artifact.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/dataset_builder.hpp"
#include "core/framework.hpp"
#include "core/selectors.hpp"
#include "core/serve.hpp"
#include "core/tuning_table.hpp"
#include "sim/hardware.hpp"

namespace {

using namespace pml;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Spans -------------------------------------------------------------------

/// In-memory span log. Top-level spans (roots) are always recorded so a
/// run with tracing off still yields its root wall times; child spans are
/// recorded only when tracing is on. Spans opened on pool threads name
/// their parent explicitly, so recording is mutex-guarded.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  int open(const char* name, int parent, int req) {
    if (!on_ && parent >= 0) return -1;
    const std::uint64_t start = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, {}, start, 0, parent, req});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    const std::uint64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  void set_tag(int id, std::string tag) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].tag = std::move(tag);
  }

  Json to_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Json out = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      Json j = Json::object();
      j["id"] = static_cast<std::int64_t>(i);
      j["name"] = s.name;
      j["start_ns"] = static_cast<std::int64_t>(s.start);
      j["end_ns"] = static_cast<std::int64_t>(s.end);
      j["parent"] = s.parent;
      j["req"] = s.req;
      if (!s.tag.empty()) j["tag"] = s.tag;
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  struct Rec {
    std::string name;
    std::string tag;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
    int req = -1;
  };

  bool on_;
  mutable std::mutex mutex_;
  std::vector<Rec> spans_;
};

/// RAII span; `parent` < 0 opens a root.
class Span {
 public:
  Span(Trace& trace, const char* name, int parent, int req = -1)
      : trace_(trace), id_(trace.open(name, parent, req)) {}
  ~Span() { trace_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const noexcept { return id_; }

 private:
  Trace& trace_;
  int id_;
};

/// Tracing overhead of a replay: the measured cost of one span (open and
/// close on a scratch log) times the spans `t` recorded, over the wall time
/// of its roots.
double span_overhead_frac(const Trace& t) {
  Trace scratch(true);
  const int root = scratch.open("calibration", -1, -1);
  constexpr int kSpans = 100000;
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) Span s(scratch, "calibration.child", root, i);
  const double per_span =
      static_cast<double>(now_ns() - start) / static_cast<double>(kSpans);
  const Json spans = t.to_json();
  double roots_ns = 0.0;
  for (const Json& sp : spans.as_array()) {
    if (sp.at("parent").as_int() < 0) {
      roots_ns += static_cast<double>(sp.at("end_ns").as_int() - sp.at("start_ns").as_int());
    }
  }
  return roots_ns > 0.0
             ? per_span * static_cast<double>(spans.as_array().size()) / roots_ns
             : 0.0;
}

// --- Small helpers -------------------------------------------------------------

Json read_json(const std::string& path) { return Json::parse(read_file(path)); }

void print_json(const Json& j) {
  const std::string text = j.dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Same resolution as `pml compile --cluster`: a *.json path is a (possibly
/// enveloped) cluster document, anything else a built-in cluster name.
sim::ClusterSpec load_cluster(const std::string& name_or_path) {
  if (name_or_path.size() > 5 &&
      name_or_path.substr(name_or_path.size() - 5) == ".json") {
    return sim::ClusterSpec::from_json(
        artifact_payload(Json::parse(read_file(name_or_path)), "cluster"));
  }
  return sim::cluster_by_name(name_or_path);
}

/// Value of `"key":"<value>"` in a compact serve reply, or "".
std::string reply_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string()
                                  : line.substr(begin, end - begin);
}

bool reply_ok(const std::string& line) {
  return line.rfind("{\"ok\":true", 0) == 0;
}

// --- clusters --------------------------------------------------------------------

int cmd_clusters() {
  Json out = Json::array();
  for (const auto& c : sim::builtin_clusters()) out.push_back(c.to_json());
  print_json(out);
  return 0;
}

// --- check -----------------------------------------------------------------------

/// Geometric-mean simulated speedup (in percent) of a table's selections
/// over MvapichDefaultSelector across every cell of the table's sweep, for
/// the paper's two collectives. Costs are the simulator's noise-free
/// analytic model, so the figure repeats exactly.
double speedup_vs_mvapich(const core::TuningTable& table,
                          const sim::ClusterSpec& cluster, std::size_t& cells) {
  core::MvapichDefaultSelector mvapich;
  double log_sum = 0.0;
  for (const auto collective : coll::paper_collectives()) {
    for (const int nodes : table.sweep_nodes()) {
      for (const int ppn : table.sweep_ppn()) {
        const sim::Topology topo{nodes, ppn};
        for (const std::uint64_t msg : table.sweep_msg_sizes()) {
          const coll::Selection pml_pick =
              table.lookup(collective, nodes, ppn, msg);
          const coll::Selection default_pick =
              mvapich.select(collective, cluster, topo, msg);
          const double t_pml = coll::analytic_cost(cluster, topo, pml_pick, msg);
          const double t_def =
              coll::analytic_cost(cluster, topo, default_pick, msg);
          // A one-rank job costs nothing either way: no ratio to take.
          if (!(t_pml > 0.0) || !(t_def > 0.0) || !std::isfinite(t_pml) ||
              !std::isfinite(t_def)) {
            continue;
          }
          log_sum += std::log(t_def / t_pml);
          ++cells;
        }
      }
    }
  }
  return cells == 0 ? 0.0 : (std::exp(log_sum / static_cast<double>(cells)) - 1.0) * 100.0;
}

core::TuningTable load_table_file(const std::string& path) {
  return core::TuningTable::from_json(
      artifact_payload(read_json(path), "tuning-table"));
}

int cmd_check(const std::string& job_path) {
  const Json job = read_json(job_path);
  Json out = Json::object();
  std::vector<std::string> problems;

  core::PmlFramework fw;
  bool model_ok = false;
  try {
    fw = core::PmlFramework::load(
        artifact_payload(read_json(job.at("model").as_string()), "model",
                         1, /*allow_legacy=*/false));
    model_ok = true;
  } catch (const std::exception& e) {
    problems.push_back(std::string("model: ") + e.what());
  }
  out["model_ok"] = model_ok;

  std::int64_t tables_checked = 0;
  std::int64_t queries_checked = 0;
  double speedup_log = 0.0;
  std::size_t speedup_cells = 0;
  std::set<std::string> speedup_done;
  const std::string scratch = job.at("scratch").as_string();
  if (model_ok) {
    const auto& tables = job.at("tables").as_array();
    std::vector<core::TuningTable> loaded;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      const std::string cli_path = tables[i].at("file").as_string();
      const std::string cluster_arg = tables[i].at("cluster").as_string();
      try {
        const sim::ClusterSpec cluster = load_cluster(cluster_arg);
        const std::string mine = scratch + "/check-table-" + std::to_string(i) + ".json";
        write_artifact(mine, fw.compile_for(cluster).to_json(), "tuning-table");
        if (read_file(mine) != read_file(cli_path)) {
          problems.push_back("table for " + cluster_arg +
                             " differs from in-process compile_for");
        }
        loaded.push_back(load_table_file(cli_path));
        ++tables_checked;
        // Each held-out cluster counts once, however often it was compiled.
        if ((cluster_arg == "Frontera" || cluster_arg == "MRI") &&
            speedup_done.insert(cluster_arg).second) {
          std::size_t cells = 0;
          const double pct = speedup_vs_mvapich(loaded.back(), cluster, cells);
          speedup_log += std::log1p(pct / 100.0) * static_cast<double>(cells);
          speedup_cells += cells;
        }
      } catch (const std::exception& e) {
        problems.push_back("table for " + cluster_arg + ": " + e.what());
        loaded.emplace_back();
      }
    }
    for (const Json& q : job.at("queries").as_array()) {
      const auto index = static_cast<std::size_t>(q.at("table").as_int());
      try {
        const auto collective =
            coll::collective_from_string(q.at("collective").as_string());
        const coll::Selection expected = loaded.at(index).lookup(
            collective, static_cast<int>(q.at("nodes").as_int()),
            static_cast<int>(q.at("ppn").as_int()),
            static_cast<std::uint64_t>(q.at("bytes").as_int()));
        if (expected.encode() != q.at("answer").as_string()) {
          problems.push_back("query answer '" + q.at("answer").as_string() +
                             "' != lookup '" + expected.encode() + "'");
        }
        ++queries_checked;
      } catch (const std::exception& e) {
        problems.push_back(std::string("query: ") + e.what());
      }
    }
    // Tables the daemon served against the CLI's table for the same cluster.
    for (const Json& pair : job.at("served").as_array()) {
      try {
        const Json cli_payload = artifact_payload(
            read_json(pair.at("cli").as_string()), "tuning-table");
        if (read_file(pair.at("served").as_string()) != cli_payload.dump()) {
          problems.push_back("served table " + pair.at("served").as_string() +
                             " differs from the CLI table");
        }
      } catch (const std::exception& e) {
        problems.push_back(std::string("served table: ") + e.what());
      }
    }
  }
  out["tables_checked"] = tables_checked;
  out["queries_checked"] = queries_checked;
  out["speedup_cells"] = static_cast<std::int64_t>(speedup_cells);
  out["speedup_pct"] =
      speedup_cells == 0
          ? 0.0
          : (std::exp(speedup_log / static_cast<double>(speedup_cells)) - 1.0) *
                100.0;
  Json list = Json::array();
  for (const auto& p : problems) list.push_back(p);
  out["problems"] = std::move(list);
  print_json(out);
  return 0;
}

// --- serve request stream (shared by loadgen and replay-serve) ----------------

/// The seeded request stream of one load phase. Request i is a select on a
/// uniformly drawn warm template, except every `miss_every`-th request,
/// which names the next never-seen inline cluster: alternately a
/// {"wait":true} table request (a first miss) and a plain select miss.
struct StreamConfig {
  std::vector<std::string> select_lines;   ///< one per template
  std::vector<std::size_t> template_warm;  ///< template -> warm cluster
  struct Query {
    coll::Collective collective;
    int nodes;
    int ppn;
    std::uint64_t msg_bytes;
  };
  std::vector<Query> template_query;
  std::vector<std::string> warm_values;  ///< warm cluster JSON values
  std::vector<std::string> fresh_values;  ///< never-seen inline cluster values
  std::uint64_t seed = 1;
  int connections = 1;
  double timeout_s = 20.0;

  static StreamConfig from_json(const Json& j) {
    StreamConfig c;
    for (const Json& w : j.at("warm").as_array()) c.warm_values.push_back(w.dump());
    for (const Json& f : j.at("fresh").as_array()) c.fresh_values.push_back(f.dump());
    for (const Json& t : j.at("templates").as_array()) {
      const auto w = static_cast<std::size_t>(t.at("warm").as_int());
      Query q{coll::collective_from_string(t.at("collective").as_string()),
              static_cast<int>(t.at("nodes").as_int()),
              static_cast<int>(t.at("ppn").as_int()),
              static_cast<std::uint64_t>(t.at("msg_bytes").as_int())};
      c.template_warm.push_back(w);
      c.template_query.push_back(q);
      c.select_lines.push_back(
          "{\"op\":\"select\",\"cluster\":" + c.warm_values.at(w) +
          ",\"collective\":\"" + coll::to_string(q.collective) +
          "\",\"nodes\":" + std::to_string(q.nodes) +
          ",\"ppn\":" + std::to_string(q.ppn) +
          ",\"msg_bytes\":" + std::to_string(q.msg_bytes) + "}");
    }
    c.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
    c.connections = static_cast<int>(j.at("connections").as_int());
    if (j.contains("timeout_s")) c.timeout_s = j.at("timeout_s").as_number();
    return c;
  }

  std::string warm_table_line(std::size_t w) const {
    return "{\"op\":\"table\",\"cluster\":" + warm_values.at(w) +
           ",\"wait\":true}";
  }
};

enum class Kind : std::uint8_t { kHit, kMissSelect, kMissTable };

struct Request {
  Kind kind = Kind::kHit;
  std::size_t tmpl = 0;  ///< template (kHit)
  std::string line;      ///< misses only; hits use the template line
};

class StreamGen {
 public:
  StreamGen(const StreamConfig& config, std::uint64_t phase_seed)
      : config_(config), rng_(config.seed * 1000003ULL + phase_seed) {}

  /// Next request and its inter-arrival gap (seconds) at `rate`.
  Request next(int miss_every, std::size_t& fresh_cursor, std::uint64_t index,
               double rate, double& gap) {
    gap = -std::log(1.0 - rng_.uniform()) / rate;  // Poisson arrivals
    Request r;
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform() * static_cast<double>(config_.select_lines.size()));
    r.tmpl = std::min(pick, config_.select_lines.size() - 1);
    if (miss_every > 0 && (index + 1) % static_cast<std::uint64_t>(miss_every) == 0 &&
        fresh_cursor < config_.fresh_values.size()) {
      const std::string& cluster = config_.fresh_values[fresh_cursor];
      if (fresh_cursor % 2 == 0) {
        r.kind = Kind::kMissTable;
        r.line = "{\"op\":\"table\",\"cluster\":" + cluster + ",\"wait\":true}";
      } else {
        const auto& q = config_.template_query[r.tmpl];
        r.kind = Kind::kMissSelect;
        r.line = "{\"op\":\"select\",\"cluster\":" + cluster +
                 ",\"collective\":\"" + coll::to_string(q.collective) +
                 "\",\"nodes\":" + std::to_string(q.nodes) +
                 ",\"ppn\":" + std::to_string(q.ppn) +
                 ",\"msg_bytes\":" + std::to_string(q.msg_bytes) + "}";
      }
      ++fresh_cursor;
    }
    return r;
  }

 private:
  const StreamConfig& config_;
  Rng rng_;
};

// --- loadgen -------------------------------------------------------------------

class LoadGen {
 public:
  explicit LoadGen(const Json& config)
      : config_(StreamConfig::from_json(config)),
        port_(static_cast<int>(config.at("port").as_int())) {
    for (int i = 0; i < std::max(1, config_.connections); ++i) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = connect_loopback(port_);
    }
  }

  ~LoadGen() {
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
    }
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Warm every configured cluster with a {"wait":true} table request
  /// (each one a first miss), keep the served tables for answer checks,
  /// and store their bytes under `dir` for the CLI comparison.
  Json warm(const std::string& dir) {
    Json lat = Json::array();
    std::int64_t failed = 0;
    tables_.clear();
    for (std::size_t w = 0; w < config_.warm_values.size(); ++w) {
      const std::uint64_t start = now_ns();
      std::string reply;
      const bool got = roundtrip(config_.warm_table_line(w), reply);
      lat.push_back(static_cast<std::int64_t>(now_ns() - start));
      core::TuningTable table;
      if (got && reply_ok(reply) && reply_field(reply, "source") == "model") {
        const Json doc = Json::parse(reply);
        const std::string bytes = doc.at("table").dump();
        write_file(dir + "/served-" + std::to_string(w) + ".json", bytes);
        table = core::TuningTable::from_json(doc.at("table"));
      } else {
        ++failed;
      }
      tables_.push_back(std::move(table));
    }
    Json out = Json::object();
    out["first_miss_ns"] = std::move(lat);
    out["failed"] = failed;
    out["attempted"] = static_cast<std::int64_t>(config_.warm_values.size());
    return out;
  }

  /// One synchronous request on connection 0 (ping/stats).
  Json simple(const std::string& line) {
    std::string reply;
    Json out = Json::object();
    out["ok"] = roundtrip(line, reply);
    out["reply"] = reply;
    return out;
  }

  /// Open-loop phase: Poisson arrivals at `rate` for `seconds`, each
  /// request timed from its due time to its reply.
  Json phase(const Json& cmd) {
    const double rate = cmd.at("rate").as_number();
    const double seconds = cmd.at("seconds").as_number();
    const int miss_every =
        cmd.contains("miss_every") ? static_cast<int>(cmd.at("miss_every").as_int()) : 0;
    const std::uint64_t phase_seed =
        static_cast<std::uint64_t>(cmd.at("phase_seed").as_int());
    // With misses in the mix, the last connection carries only the
    // {"wait":true} table requests, so a waited compile never holds up the
    // selects queued behind it on a shared connection.
    const std::size_t n_conn = conns_.size();
    const bool split = miss_every > 0 && n_conn > 1;
    const std::size_t select_conns = split ? n_conn - 1 : n_conn;

    StreamGen gen(config_, phase_seed);
    const std::uint64_t start = now_ns();
    const auto window = static_cast<std::uint64_t>(seconds * 1e9);
    const auto timeout = static_cast<std::uint64_t>(config_.timeout_s * 1e9);

    Stats st;
    std::uint64_t index = 0;
    double next_due_s = 0.0;
    double gap = 0.0;
    Request pending_req = gen.next(miss_every, fresh_cursor_, index, rate, gap);
    next_due_s += gap;
    std::size_t rr = 0;
    std::uint64_t issued = 0;
    std::uint64_t answered = 0;
    bool issuing = true;
    std::vector<pollfd> fds(n_conn);
    char buf[1 << 16];

    while (true) {
      const std::uint64_t now = now_ns();
      // Issue every request that is due.
      while (issuing) {
        const std::uint64_t due = start + static_cast<std::uint64_t>(next_due_s * 1e9);
        if (due - start >= window) {
          issuing = false;
          break;
        }
        if (due > now) break;
        std::size_t c;
        if (pending_req.kind == Kind::kMissTable && split) {
          c = n_conn - 1;
        } else {
          c = rr++ % select_conns;
        }
        Conn& conn = *conns_[c];
        const std::string& line = pending_req.kind == Kind::kHit
                                      ? config_.select_lines[pending_req.tmpl]
                                      : pending_req.line;
        conn.out.append(line);
        conn.out.push_back('\n');
        conn.inflight.push_back({due, pending_req.kind, pending_req.tmpl,
                                 conn.out_base + conn.out.size()});
        ++issued;
        ++index;
        pending_req = gen.next(miss_every, fresh_cursor_, index, rate, gap);
        next_due_s += gap;
      }
      // Flush what the kernel will take; stamp requests fully handed over.
      for (auto& cp : conns_) flush(*cp, st);
      if (!issuing && answered == issued) break;
      if (!issuing && now > start + window + timeout) break;

      // Spin while issuing: a sleeping generator wakes late (milliseconds
      // at p99 on a virtualized host), which would be charged to the
      // daemon. Once every request is out, block for the stragglers.
      const std::uint64_t wait_ns = issuing ? 0 : 1'000'000;
      for (std::size_t i = 0; i < n_conn; ++i) {
        fds[i].fd = conns_[i]->fd;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ULL),
                        static_cast<long>(wait_ns % 1'000'000'000ULL)};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < n_conn; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& conn = *conns_[i];
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            conn.dead = true;
            answered += fail_all(conn, st);
          }
          continue;
        }
        conn.in.append(buf, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = conn.in.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          if (conn.inflight.empty()) break;
          const Inflight req = conn.inflight.front();
          conn.inflight.pop_front();
          // A reply implies its request was sent, hence already stamped.
          if (conn.stamped > 0) --conn.stamped;
          ++answered;
          account(req, conn.in.substr(pos, nl - pos), now_ns(), st);
        }
        conn.in.erase(0, pos);
      }
    }
    // Whatever is still outstanding timed out: failed, and missing every
    // latency limit.
    for (auto& cp : conns_) answered += fail_all(*cp, st);

    Json out = Json::object();
    out["name"] = cmd.at("name");
    out["rate"] = rate;
    out["seconds"] = seconds;
    out["elapsed_s"] = static_cast<double>(now_ns() - start) / 1e9;
    out["attempted"] = static_cast<std::int64_t>(issued);
    out["failed"] = st.failed;
    out["hits"] = st.hits;
    out["misses"] = st.misses;
    out["degraded"] = st.degraded;
    out["shed"] = st.shed;
    out["bad_answers"] = st.bad_answers;
    out["selects"] = st.selects;
    out["lat_ns"] = to_array(st.lat);
    out["lag_ns"] = to_array(st.lag);
    out["miss_table_ns"] = to_array(st.miss_table);
    return out;
  }

  /// Closed-loop saturation phase: every connection keeps `depth` hit
  /// selects outstanding for `seconds`, so the daemon's connection threads
  /// never wait for work. Replies are counted per `window_s` slice; each
  /// slice's count over its length is one sample of the sustained rate.
  /// The generator spins here too: a poll that sleeps wakes late on a
  /// virtualized host, and the daemon's threads would wait on it.
  Json saturate(const Json& cmd) {
    const double seconds = cmd.at("seconds").as_number();
    const double window_s = cmd.at("window_s").as_number();
    const auto depth = static_cast<std::size_t>(cmd.at("depth").as_int());
    const std::uint64_t phase_seed =
        static_cast<std::uint64_t>(cmd.at("phase_seed").as_int());
    StreamGen gen(config_, phase_seed);
    const std::uint64_t start = now_ns();
    const auto window = static_cast<std::uint64_t>(seconds * 1e9);
    const auto slice = static_cast<std::uint64_t>(window_s * 1e9);
    const auto timeout = static_cast<std::uint64_t>(config_.timeout_s * 1e9);
    std::vector<std::int64_t> per_slice(
        static_cast<std::size_t>(std::ceil(seconds / window_s)), 0);

    Stats st;
    std::uint64_t index = 0;
    std::uint64_t issued = 0;
    std::uint64_t answered = 0;
    double gap = 0.0;
    std::size_t no_fresh = config_.fresh_values.size();  // hits only
    const std::size_t n_conn = conns_.size();
    std::vector<pollfd> fds(n_conn);
    char buf[1 << 16];
    while (true) {
      const std::uint64_t now = now_ns();
      const bool issuing = now - start < window;
      if (issuing) {
        for (auto& cp : conns_) {
          Conn& conn = *cp;
          while (!conn.dead && conn.inflight.size() < depth) {
            const Request r = gen.next(0, no_fresh, index++, 1.0, gap);
            conn.out.append(config_.select_lines[r.tmpl]);
            conn.out.push_back('\n');
            conn.inflight.push_back({now, Kind::kHit, r.tmpl,
                                     conn.out_base + conn.out.size()});
            ++issued;
          }
        }
      }
      for (auto& cp : conns_) flush(*cp, st);
      if (!issuing && answered == issued) break;
      if (!issuing && now > start + window + timeout) break;
      for (std::size_t i = 0; i < n_conn; ++i) {
        fds[i].fd = conns_[i]->fd;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
      for (std::size_t i = 0; i < n_conn; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& conn = *conns_[i];
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            conn.dead = true;
            answered += fail_all(conn, st);
          }
          continue;
        }
        conn.in.append(buf, static_cast<std::size_t>(n));
        const std::uint64_t got = now_ns();
        std::size_t pos = 0;
        for (std::size_t nl; (nl = conn.in.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          if (conn.inflight.empty()) break;
          const Inflight req = conn.inflight.front();
          conn.inflight.pop_front();
          if (conn.stamped > 0) --conn.stamped;
          ++answered;
          account(req, conn.in.substr(pos, nl - pos), got, st);
          const std::uint64_t s = (got - start) / slice;
          if (s < per_slice.size()) ++per_slice[s];
        }
        conn.in.erase(0, pos);
      }
    }
    for (auto& cp : conns_) answered += fail_all(*cp, st);

    Json out = Json::object();
    out["attempted"] = static_cast<std::int64_t>(issued);
    out["failed"] = st.failed;
    out["degraded"] = st.degraded;
    out["bad_answers"] = st.bad_answers;
    out["misses"] = st.misses;
    out["window_s"] = window_s;
    out["per_slice"] = to_array(per_slice);
    return out;
  }

 private:
  struct Inflight {
    std::uint64_t due;
    Kind kind;
    std::size_t tmpl;
    std::uint64_t end_offset;  ///< stream offset just past this request
  };
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string out;
    std::uint64_t out_base = 0;  ///< stream offset of out[0]
    std::size_t stamped = 0;  ///< inflight entries already send-stamped
    std::string in;
    std::deque<Inflight> inflight;
  };
  struct Stats {
    std::int64_t failed = 0, hits = 0, misses = 0, degraded = 0, shed = 0,
                 bad_answers = 0, selects = 0;
    std::vector<std::int64_t> lat, lag, miss_table;
  };

  static Json to_array(const std::vector<std::int64_t>& v) {
    Json a = Json::array();
    for (const std::int64_t x : v) a.push_back(x);
    return a;
  }

  static int connect_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw IoError("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw IoError("loadgen: cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  void flush(Conn& conn, Stats& st) {
    if (conn.dead || conn.out.empty()) return;
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) return;
    const std::uint64_t now = now_ns();
    conn.out.erase(0, static_cast<std::size_t>(n));
    conn.out_base += static_cast<std::uint64_t>(n);
    // inflight is FIFO; the first `stamped` entries are already sent. A
    // request's lag runs from its due time until its last byte reached
    // the kernel.
    while (conn.stamped < conn.inflight.size() &&
           conn.inflight[conn.stamped].end_offset <= conn.out_base) {
      st.lag.push_back(static_cast<std::int64_t>(now - conn.inflight[conn.stamped].due));
      ++conn.stamped;
    }
  }

  std::uint64_t fail_all(Conn& conn, Stats& st) {
    std::uint64_t n = 0;
    while (!conn.inflight.empty()) {
      if (conn.inflight.front().kind != Kind::kMissTable) {
        ++st.selects;
        st.lat.push_back(-1);
      }
      conn.inflight.pop_front();
      ++st.failed;
      ++n;
    }
    conn.stamped = 0;
    return n;
  }

  void account(const Inflight& req, const std::string& line, std::uint64_t now,
               Stats& st) {
    const bool ok = reply_ok(line);
    const auto latency = static_cast<std::int64_t>(now - req.due);
    if (req.kind == Kind::kMissTable) {
      if (ok) {
        st.miss_table.push_back(latency);
      } else {
        ++st.failed;
      }
    } else {
      ++st.selects;
      st.lat.push_back(ok ? latency : -1);
      if (!ok) ++st.failed;
    }
    if (!ok) return;
    const std::string cache = reply_field(line, "cache");
    const std::string source = reply_field(line, "source");
    if (source == "heuristic" || source == "shed") ++st.degraded;
    if (source == "shed") ++st.shed;
    if (cache == "hit") {
      ++st.hits;
      if (req.kind == Kind::kHit) {
        const auto& q = config_.template_query[req.tmpl];
        const core::TuningTable& table = tables_.at(config_.template_warm[req.tmpl]);
        if (table.empty() ||
            table.lookup(q.collective, q.nodes, q.ppn, q.msg_bytes).encode() !=
                reply_field(line, "encoded")) {
          ++st.bad_answers;
        }
      }
    } else {
      ++st.misses;
    }
  }

  bool roundtrip(const std::string& line, std::string& reply) {
    Conn& conn = *conns_[0];
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(conn.fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(config_.timeout_s * 1e9);
    char buf[1 << 16];
    while (true) {
      const std::size_t nl = conn.in.find('\n');
      if (nl != std::string::npos) {
        reply = conn.in.substr(0, nl);
        conn.in.erase(0, nl + 1);
        return true;
      }
      if (now_ns() > deadline) return false;
      pollfd p{conn.fd, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n <= 0) return false;
      conn.in.append(buf, static_cast<std::size_t>(n));
    }
  }

  StreamConfig config_;
  int port_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<core::TuningTable> tables_;
  std::size_t fresh_cursor_ = 0;
};

int cmd_loadgen(const std::string& config_path) {
  const Json config = read_json(config_path);
  LoadGen gen(config);
  Json ready = Json::object();
  ready["ready"] = true;
  print_json(ready);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const Json cmd = Json::parse(line);
    const std::string op = cmd.at("op").as_string();
    if (op == "quit") break;
    if (op == "warm") {
      print_json(gen.warm(cmd.at("dir").as_string()));
    } else if (op == "phase" || op == "saturate") {
      const Json result = op == "phase" ? gen.phase(cmd) : gen.saturate(cmd);
      write_file(cmd.at("out").as_string(), result.dump());
      Json done = Json::object();
      done["done"] = true;
      print_json(done);
    } else {
      print_json(gen.simple(cmd.at("line").as_string()));
    }
  }
  return 0;
}

// --- replays -----------------------------------------------------------------------

/// `pml train --out OUT --exclude ...` as library calls. The CLI's
/// PmlFramework::train runs build_records then the forest fit per
/// collective; here the two builds run in parallel first, then
/// train_on_records fits both forests (same seeds, same bytes).
Json replay_train(const Json& job, Trace& t, int req) {
  Json out = Json::object();
  Span root(t, "tools.pml.train", -1, req);
  const int r = root.id();
  std::vector<std::string> excluded;
  for (const Json& e : job.at("exclude").as_array()) excluded.push_back(e.as_string());
  std::vector<sim::ClusterSpec> clusters;
  for (const auto& c : sim::builtin_clusters()) {
    if (std::find(excluded.begin(), excluded.end(), c.name) == excluded.end()) {
      clusters.push_back(c);
    }
  }
  core::TrainOptions options;
  core::BuildOptions build = options.build;
  build.threads = options.threads;

  const std::vector<coll::Collective>& collectives = coll::paper_collectives();
  std::vector<std::vector<core::TuningRecord>> records(collectives.size());
  std::vector<core::BuildStats> stats(collectives.size());
  parallel_for(options.threads, collectives.size(), [&](std::size_t i) {
    Span s(t, "core.dataset_builder.build_records", r, req);
    records[i] = core::build_records(clusters, collectives[i], build, stats[i]);
  });
  core::PmlFramework fw;
  {
    Span s(t, "ml.forest.fit", r, req);
    fw = core::PmlFramework::train_on_records(records.at(0), records.at(1), options);
  }
  Json model;
  {
    Span s(t, "core.framework.to_json", r, req);
    model = fw.to_json();
  }
  {
    Span s(t, "common.artifact.write", r, req);
    write_artifact(job.at("out").as_string(), model, "model");
  }
  std::int64_t cells = 0;
  std::int64_t evals = 0;
  for (const auto& s : stats) {
    cells += static_cast<std::int64_t>(s.cells);
    evals += static_cast<std::int64_t>(s.measured_evals);
  }
  std::int64_t nodes = 0;
  for (const auto c : collectives) {
    nodes += static_cast<std::int64_t>(fw.model(c).flat().node_count());
  }
  {
    Span s(t, "common.json.free", r, req);
    model = Json();
  }
  {
    Span s(t, "core.framework.free", r, req);
    fw = core::PmlFramework();
    records.clear();
  }
  out["cells"] = cells;
  out["measured_evals"] = evals;
  out["forest_nodes"] = nodes;
  return out;
}

/// `pml compile --model M --cluster C --out OUT` as library calls, in the
/// CLI's order (PmlFramework::load_file is read -> parse -> verify -> load).
Json replay_compile_one(const std::string& model_path, const std::string& cluster_arg,
                        const std::string& out_path, Trace& t, int req) {
  Span root(t, "tools.pml.compile", -1, req);
  const int r = root.id();
  std::string text;
  {
    Span s(t, "common.file.read", r, req);
    text = read_file(model_path);
  }
  Json doc;
  {
    Span s(t, "common.json.parse", r, req);
    doc = Json::parse(text);
  }
  Json payload;
  {
    Span s(t, "common.artifact.verify", r, req);
    payload = artifact_payload(doc, "model");
  }
  core::PmlFramework fw;
  {
    Span s(t, "core.framework.load", r, req);
    fw = core::PmlFramework::load(payload);
  }
  {
    Span s(t, "common.json.free", r, req);
    payload = Json();
    doc = Json();
    text = std::string();
  }
  sim::ClusterSpec cluster;
  {
    Span s(t, "sim.hardware.load_cluster", r, req);
    cluster = load_cluster(cluster_arg);
  }
  core::TuningTable table;
  {
    Span s(t, "core.framework.compile_for", r, req);
    table = fw.compile_for(cluster);
  }
  Json tj;
  {
    Span s(t, "core.tuning_table.to_json", r, req);
    tj = table.to_json();
  }
  {
    Span s(t, "common.artifact.write", r, req);
    write_artifact(out_path, tj, "tuning-table");
  }
  {
    Span s(t, "core.framework.free", r, req);
    fw = core::PmlFramework();
  }
  Json out = Json::object();
  out["cells"] = static_cast<std::int64_t>(table.job_count() *
                                           table.sweep_msg_sizes().size());
  return out;
}

/// `pml query --table T ...` as library calls; returns the encoded answer.
std::string replay_query_one(const std::string& table_path, const Json& q, Trace& t,
                             int req) {
  Span root(t, "tools.pml.query", -1, req);
  const int r = root.id();
  std::string text;
  {
    Span s(t, "common.file.read", r, req);
    text = read_file(table_path);
  }
  Json doc;
  {
    Span s(t, "common.json.parse", r, req);
    doc = Json::parse(text);
  }
  Json payload;
  {
    Span s(t, "common.artifact.verify", r, req);
    payload = artifact_payload(doc, "tuning-table");
  }
  core::TuningTable table;
  {
    Span s(t, "core.tuning_table.from_json", r, req);
    table = core::TuningTable::from_json(payload);
  }
  coll::Selection sel = coll::Selection::flat(coll::Algorithm::kAgRing);
  {
    Span s(t, "core.tuning_table.lookup", r, req);
    sel = table.lookup(coll::collective_from_string(q.at("collective").as_string()),
                       static_cast<int>(q.at("nodes").as_int()),
                       static_cast<int>(q.at("ppn").as_int()),
                       static_cast<std::uint64_t>(q.at("bytes").as_int()));
  }
  return sel.encode();
}

/// Mean lookup cost over a fixed set of queries, timed as one root.
double lookup_loop_ns(const std::string& table_path, const Json& queries, Trace& t) {
  const core::TuningTable table = load_table_file(table_path);
  struct Q {
    coll::Collective c;
    int n, p;
    std::uint64_t b;
  };
  std::vector<Q> qs;
  for (const Json& q : queries.as_array()) {
    qs.push_back({coll::collective_from_string(q.at("collective").as_string()),
                  static_cast<int>(q.at("nodes").as_int()),
                  static_cast<int>(q.at("ppn").as_int()),
                  static_cast<std::uint64_t>(q.at("bytes").as_int())});
  }
  if (qs.empty()) return 0.0;
  constexpr int kRounds = 2000;
  std::size_t sink = 0;
  const std::uint64_t start = now_ns();
  {
    Span s(t, "core.tuning_table.lookup_loop", -1);
    for (int round = 0; round < kRounds; ++round) {
      for (const Q& q : qs) sink += table.lookup(q.c, q.n, q.p, q.b).encode().size();
    }
  }
  const double total = static_cast<double>(now_ns() - start);
  if (sink == 0) std::fputc(' ', stderr);
  return total / (static_cast<double>(kRounds) * static_cast<double>(qs.size()));
}

int cmd_replay(const std::string& which, const std::string& job_path) {
  const Json job = read_json(job_path);
  Trace t(true);
  Json out = Json::object();
  if (which == "replay-train") {
    out = replay_train(job, t, 0);
  } else {
    Json cells = Json::array();
    Json answers = Json::array();
    int req = 0;
    for (const Json& target : job.at("targets").as_array()) {
      const std::string out_path = target.at("out").as_string();
      cells.push_back(replay_compile_one(job.at("model").as_string(),
                                         target.at("cluster").as_string(),
                                         out_path, t, req)
                          .at("cells"));
      for (const Json& q : target.at("queries").as_array()) {
        answers.push_back(replay_query_one(out_path, q, t, req));
      }
      ++req;
    }
    out["cells"] = std::move(cells);
    out["answers"] = std::move(answers);
    const auto& first = job.at("targets").as_array().at(0);
    out["lookup_ns"] =
        lookup_loop_ns(first.at("out").as_string(), first.at("queries"), t);
  }
  out["span_overhead_frac"] = span_overhead_frac(t);
  out["spans"] = t.to_json();
  print_json(out);
  return 0;
}

/// In-process replay of the serve engine on the load generator's seeded
/// stream: model load steps, engine start, warm compiles, the request
/// stream through handle_line, then ServeCache::get and
/// ModelHost::revalidate timed on their own.
int cmd_replay_serve(const std::string& config_path) {
  const Json config = read_json(config_path);
  const StreamConfig stream = StreamConfig::from_json(config);
  const std::string model_path = config.at("model").as_string();
  Trace t(true);
  Json out = Json::object();

  {
    Span root(t, "serve.model_load", -1);
    const int r = root.id();
    std::string text;
    {
      Span s(t, "common.file.read", r);
      text = read_file(model_path);
    }
    Json doc;
    {
      Span s(t, "common.json.parse", r);
      doc = Json::parse(text);
    }
    Json payload;
    {
      Span s(t, "common.artifact.verify", r);
      payload = artifact_payload(doc, "model");
    }
    core::PmlFramework fw;
    {
      Span s(t, "core.framework.load", r);
      fw = core::PmlFramework::load(payload);
    }
    {
      Span s(t, "common.json.free", r);
      payload = Json();
      doc = Json();
      text = std::string();
      fw = core::PmlFramework();
    }
  }

  core::ServeOptions options;
  options.model_path = model_path;
  std::unique_ptr<core::ServeEngine> engine;
  {
    Span root(t, "serve.setup", -1);
    {
      Span s(t, "core.serve.engine_init", root.id());
      engine = std::make_unique<core::ServeEngine>(options);
    }
    for (std::size_t w = 0; w < stream.warm_values.size(); ++w) {
      std::string reply;
      int id = -1;
      {
        Span s(t, "core.serve.handle_line", root.id(), static_cast<int>(w));
        reply = engine->handle_line(stream.warm_table_line(w));
        id = s.id();
      }
      t.set_tag(id, reply_field(reply, "cache"));
      if (!reply_ok(reply)) out["warm_failed"] = true;
    }
  }

  // The request stream of each phase, in order, as fast as the engine
  // answers (closed loop: the socket schedule is not replayed).
  // Lines are built before the root and replies classified after it, so
  // the root holds only engine work.
  std::vector<std::string> lines;
  std::size_t fresh_cursor = 0;
  for (const Json& phase : config.at("phases").as_array()) {
    const auto count = static_cast<std::uint64_t>(phase.at("requests").as_int());
    const int miss_every = static_cast<int>(phase.at("miss_every").as_int());
    StreamGen gen(stream, static_cast<std::uint64_t>(phase.at("phase_seed").as_int()));
    double gap = 0.0;
    for (std::uint64_t i = 0; i < count; ++i) {
      Request req = gen.next(miss_every, fresh_cursor, i, 1.0, gap);
      lines.push_back(req.kind == Kind::kHit ? stream.select_lines[req.tmpl]
                                             : std::move(req.line));
    }
  }
  std::vector<std::string> replies(lines.size());
  std::vector<int> ids(lines.size());
  std::int64_t queue_max = 0;
  core::ServeEngine::Stats stats;
  {
    Span root(t, "serve.stream", -1);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Span s(t, "core.serve.handle_line", root.id(), static_cast<int>(i));
      replies[i] = engine->handle_line(lines[i]);
      ids[i] = s.id();
      queue_max = std::max<std::int64_t>(queue_max, engine->queue_depth());
    }
    {
      Span s(t, "core.serve.drain", root.id());
      engine->drain();
    }
    stats = engine->stats();
    {
      Span s(t, "core.serve.engine_free", root.id());
      engine.reset();
    }
  }
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string cache = reply_field(replies[i], "cache");
    t.set_tag(ids[i], cache.empty() ? "error" : cache);
    failed += reply_ok(replies[i]) ? 0 : 1;
  }

  // ServeCache::get on hits, keys shaped like the engine's.
  {
    core::ServeCache cache(4, 8);
    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) {
      char key[80];
      std::snprintf(key, sizeof key, "fnv1a64:%016llx/%016llx/%016llx",
                    static_cast<unsigned long long>(0x3e6bf9d120b92434ULL),
                    static_cast<unsigned long long>(fnv1a64(std::to_string(i))),
                    static_cast<unsigned long long>(fnv1a64("sweep")));
      keys.emplace_back(key);
      cache.put(keys.back(), std::make_shared<core::ServedTable>());
    }
    constexpr int kGets = 200000;
    std::size_t hits = 0;
    const std::uint64_t start = now_ns();
    {
      Span s(t, "core.serve_cache.get_loop", -1);
      for (int i = 0; i < kGets; ++i) {
        hits += cache.get(keys[static_cast<std::size_t>(i) % keys.size()]) != nullptr;
      }
    }
    out["serve_cache_get_ns"] =
        static_cast<double>(now_ns() - start) / static_cast<double>(kGets);
    out["serve_cache_hits"] = static_cast<std::int64_t>(hits);
  }

  // ModelHost::revalidate on an unchanged artifact (what every recompile
  // pays under the host mutex).
  {
    Span root(t, "serve.revalidate", -1);
    std::unique_ptr<core::ModelHost> host;
    {
      Span s(t, "core.model_host.init", root.id());
      host = std::make_unique<core::ModelHost>(model_path);
    }
    for (int i = 0; i < 3; ++i) {
      Span s(t, "core.model_host.revalidate", root.id(), i);
      if (!host->revalidate()) out["revalidate_failed"] = true;
    }
    Span s(t, "core.framework.free", root.id());
    host.reset();
  }

  out["span_overhead_frac"] = span_overhead_frac(t);
  out["queue_depth_max"] = queue_max;
  out["failed"] = failed;
  out["requests"] = static_cast<std::int64_t>(stats.requests);
  out["cache_hits"] = static_cast<std::int64_t>(stats.cache_hits);
  out["cache_misses"] = static_cast<std::int64_t>(stats.cache_misses);
  out["compiles"] = static_cast<std::int64_t>(stats.compiles);
  out["shed"] = static_cast<std::int64_t>(stats.shed);
  out["degraded"] = static_cast<std::int64_t>(stats.degraded);
  out["spans"] = t.to_json();
  print_json(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pml_bench clusters | check JOB | loadgen CONFIG | "
                 "replay-train JOB | replay-compile JOB | replay-serve CONFIG\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "clusters") return cmd_clusters();
    if (argc < 3) throw ConfigError(cmd + ": missing argument");
    if (cmd == "check") return cmd_check(argv[2]);
    if (cmd == "loadgen") return cmd_loadgen(argv[2]);
    if (cmd == "replay-train" || cmd == "replay-compile") return cmd_replay(cmd, argv[2]);
    if (cmd == "replay-serve") return cmd_replay_serve(argv[2]);
    throw ConfigError("unknown command: " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pml_bench: %s\n", e.what());
    return 1;
  }
}
