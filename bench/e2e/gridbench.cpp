// gridbench: one end-to-end workload of the p2pgrid simulator per process.
//
//   gridbench --workload=<name> --seed=<s> [--seconds=S] [--trace=1]
//             [--smoke=1]
//
// Set-up (workload::generate + GridSystem::build) is timed several times.
// The first system then runs the arrival window, from simulated time 0 to
// the last job arrival, and drains until every job is terminal; the
// correctness checks run at the end. Fresh systems repeat the window, timed
// as sim.run_s, until the timed windows add up to S seconds. --trace=1 does
// the same again with a timing proxy in front of every node and client
// handler, for the per-layer numbers. --smoke=1 runs 1/8 of the nodes and
// jobs.
//
// Prints one JSON line, {"correct": b, "attempted": n, "failed": n,
// "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}, and exits 1 when a
// correctness check fails; each failure is named on stderr. README.md lists
// the workloads, the metrics and the checks.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "common/stats.h"
#include "grid/grid_system.h"
#include "net/message_pool.h"
#include "obs/memory.h"
#include "sim/failure.h"
#include "workload/workload.h"

namespace {

using namespace pgrid;
using Clock = std::chrono::steady_clock;
using grid::MatchmakerKind;

// ---------------------------------------------------------------------------
// Workloads: open-loop Poisson arrivals from the paper's job model (mixed
// nodes and jobs, constraint probability 0.4, exponential runtimes) at
// offered load 0.8. README.md gives the reason for each.

struct WorkloadDef {
  const char* name;
  MatchmakerKind kind;
  std::size_t nodes;
  std::size_t jobs;
  double mean_runtime_sec;
  std::size_t shards;  // 0 = sequential engine
  bool churn;          // half the nodes churn, 1% loss, full maintenance
};

// The CAN workloads use CAN-push: basic CAN overloads its hot nodes at this
// load, and draining that backlog took 9-14 s per run for no end-to-end
// number (README.md).
constexpr WorkloadDef kWorkloads[] = {
    {"rn-paper", MatchmakerKind::kRnTree, 2048, 10240, 100.0, 0, false},
    {"rn-large", MatchmakerKind::kRnTree, 10240, 20480, 10.0, 0, false},
    {"can-maint", MatchmakerKind::kCanPush, 1024, 5120, 100.0, 0, false},
    {"churn", MatchmakerKind::kRnTree, 384, 1920, 100.0, 0, true},
    {"can-sharded", MatchmakerKind::kCanPush, 1024, 5120, 100.0, 2, false},
};

constexpr double kOfferedLoad = 0.8;
constexpr double kConstraintProbability = 0.4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kSmokeDivisor = 8;
constexpr double kLostJobRuntimes = 40.0;
// Set-up is timed at least kMinSetupReps times and until kSetupBudgetS
// seconds have been spent on it: the small workloads set up in about a
// millisecond, too short for a steady median of five.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 200;
constexpr double kSetupBudgetS = 0.3;
constexpr std::size_t kMaxRunReps = 9;
// trace.overhead_frac runs ABBA blocks of two traced and two untraced
// windows, whatever --seconds says: at least kMinOverheadBlocks, and more
// until the traced windows add up to kOverheadTracedS. One window's time
// moves by about 10% with host load, so short windows need more blocks.
constexpr std::size_t kMinOverheadBlocks = 2;
constexpr std::size_t kMaxOverheadBlocks = 8;
constexpr double kOverheadTracedS = 12.0;
constexpr double kDrainStepSec = 5.0;
constexpr std::uint32_t kSampleEvery = 16;  // proxy times 1 call in 16
// Seed streams: the workload and the system draw from disjoint derivations
// of --seed.
constexpr std::uint64_t kWorkloadStream = 0x776f726b6c6f6164ULL;  // "workload"
constexpr std::uint64_t kSystemStream = 0x73797374656dULL;        // "system"

workload::WorkloadSpec make_spec(const WorkloadDef& w, std::uint64_t seed,
                                 bool smoke) {
  workload::WorkloadSpec spec;
  spec.node_count = smoke ? w.nodes / kSmokeDivisor : w.nodes;
  spec.job_count = smoke ? w.jobs / kSmokeDivisor : w.jobs;
  spec.node_mix = workload::Mix::kMixed;
  spec.job_mix = workload::Mix::kMixed;
  spec.constraint_probability = kConstraintProbability;
  spec.mean_runtime_sec = w.mean_runtime_sec;
  spec.mean_interarrival_sec =
      w.mean_runtime_sec / (kOfferedLoad * static_cast<double>(spec.node_count));
  spec.client_count = kClients;
  spec.seed = hash_combine(mix64(seed), kWorkloadStream);
  return spec;
}

grid::GridConfig make_config(const WorkloadDef& w, std::uint64_t seed) {
  grid::GridConfig c;
  c.kind = w.kind;
  c.seed = hash_combine(mix64(seed), kSystemStream);
  c.shards = w.shards;
  // Exact wait quantiles need per-job records: the streaming collector's
  // histogram stops at 3600 s, below basic CAN's p99 on some seeds.
  c.obs.streaming_metrics = false;
  if (w.churn) {
    c.light_maintenance = false;
    c.loss_probability = 0.01;
    c.client.resubmit_base_sec = 300.0;
    c.client.resubmit_runtime_factor = 8.0;
    c.client.max_generations = 8;
  } else {
    c.light_maintenance = true;
    // Without failures a job should never need resubmitting, so the client
    // waits far longer than any job does (CAN-push's longest wait over 30
    // seeds was 21 mean runtimes): every job runs exactly once. The backstop
    // still recovers a job the overlay drops on its way to the owner, which
    // CAN does on some seeds (README.md).
    c.client.resubmit_base_sec = kLostJobRuntimes * w.mean_runtime_sec;
  }
  return c;
}

sim::ChurnModel churn_model() {
  sim::ChurnModel m;
  m.mean_lifetime_sec = 600.0;
  m.mean_downtime_sec = 120.0;
  m.churn_fraction = 0.5;
  return m;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(const std::vector<double>& v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class MetricSet {
 public:
  void add(std::string name, double value, const char* unit) {
    items_.push_back(Metric{std::move(name), value, unit});
  }
  void append(const MetricSet& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }
  /// Exact equality of names and values: the simulated metrics are a pure
  /// function of (seed, config), so any difference is a determinism bug.
  [[nodiscard]] bool identical(const MetricSet& other) const {
    if (items_.size() != other.items_.size()) return false;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].name != other.items_[i].name ||
          items_[i].value != other.items_[i].value) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<Metric> items_;
};

// Protocol layers by message tag (type() >> 8; net/message.h).
constexpr std::size_t kLayerSlots = 8;
struct Layer {
  const char* name;
  std::size_t index;
};
constexpr Layer kLayers[] = {{"chord", 1}, {"can", 2}, {"rntree", 3}, {"grid", 4}};

/// Sum of a per-kind counter table (NetworkStats::sent_by_kind or
/// delivered_by_kind) over one layer's tag range.
std::uint64_t in_layer(
    const std::array<std::uint64_t, net::NetworkStats::kKindSlots>& by_kind,
    std::size_t layer) {
  std::uint64_t n = 0;
  for (std::size_t t = layer << 8; t < (layer + 1) << 8; ++t) n += by_kind[t];
  return n;
}

double quantile_or_zero(const Samples& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Simulator counters at the end of the arrival window.
struct WindowStats {
  std::uint64_t events = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  bool operator==(const WindowStats&) const = default;
};

/// Every metric that is a pure function of (seed, config): the same on
/// every repetition and with or without the timing proxy.
MetricSet simulated_metrics(grid::GridSystem& sys, const WindowStats& window) {
  MetricSet m;
  const metrics::Collector& c = sys.collector();
  const net::NetworkStats& net = sys.net_stats();
  const auto jobs = static_cast<double>(c.job_count());
  const Samples waits = c.wait_times();

  m.add("jobs_completed_frac", ratio(static_cast<double>(c.completed_count()), jobs),
        "fraction");
  m.add("msgs_per_job", ratio(static_cast<double>(window.msgs_sent), jobs), "msgs");
  m.add("bytes_per_job", ratio(static_cast<double>(window.bytes_sent), jobs), "B");
  m.add("grid.hops_per_job",
        c.injection_hops_stats().mean() + c.match_hops_stats().mean(), "hops");

  m.add("sim.events", static_cast<double>(window.events), "count");
  m.add("sim.drain_events", static_cast<double>(sys.sim_events() - window.events),
        "count");
  m.add("sim.queue_peak", static_cast<double>(sys.sim_queue_peak()), "count");
  m.add("sim.tombstone_peak", static_cast<double>(sys.sim_tombstone_peak()),
        "count");
  double windows = 0.0;
  double imbalance = 1.0;
  if (sim::ShardedEngine* e = sys.engine()) {
    windows = static_cast<double>(e->windows());
    RunningStats per_shard;
    for (std::size_t s = 0; s < e->shards(); ++s) {
      per_shard.add(static_cast<double>(e->shard(s).executed()));
    }
    imbalance = ratio(per_shard.max(), per_shard.mean());
  }
  m.add("sim.windows", windows, "count");
  m.add("sim.shard_imbalance", imbalance, "ratio");

  const std::uint64_t dropped = net.messages_dropped_dead +
                                net.messages_dropped_loss +
                                net.messages_dropped_partition +
                                net.messages_dropped_fault;
  m.add("net.msgs_sent", static_cast<double>(net.messages_sent), "count");
  m.add("net.bytes_sent", static_cast<double>(net.bytes_sent), "B");
  m.add("net.delivered_frac",
        ratio(static_cast<double>(net.messages_delivered),
              static_cast<double>(net.messages_sent)),
        "fraction");
  m.add("net.msgs_dropped", static_cast<double>(dropped), "count");
  m.add("net.batch_parts_per_envelope",
        ratio(static_cast<double>(net.batch_parts_sent),
              static_cast<double>(net.batches_sent)),
        "ratio");
  for (const Layer& l : kLayers) {
    m.add(std::string(l.name) + ".msgs",
          static_cast<double>(in_layer(net.sent_by_kind, l.index)), "count");
  }

  RunningStats lookup_hops, route_hops, search_hops;
  std::uint64_t lookups_failed = 0, routes_failed = 0, takeovers = 0;
  std::uint64_t searches_started = 0, searches_completed = 0, timed_out = 0;
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    grid::GridNode& n = sys.node(i);
    if (const chord::ChordNode* ch = n.chord()) {
      lookups_failed += ch->stats().lookups_failed;
      lookup_hops.merge(ch->stats().lookup_hops);
    }
    if (const can::CanNode* cn = n.can()) {
      routes_failed += cn->stats().routes_failed;
      takeovers += cn->stats().takeovers;
      route_hops.merge(cn->stats().route_hops);
    }
    if (const rntree::RnTreeService* rn = n.rntree()) {
      searches_started += rn->stats().searches_started;
      searches_completed += rn->stats().searches_completed;
      timed_out += rn->stats().searches_timed_out;
      search_hops.merge(rn->stats().search_hops);
    }
  }
  m.add("chord.lookup_hops_mean", lookup_hops.mean(), "hops");
  m.add("chord.lookups_failed", static_cast<double>(lookups_failed), "count");
  m.add("can.route_hops_mean", route_hops.mean(), "hops");
  m.add("can.routes_failed", static_cast<double>(routes_failed), "count");
  m.add("can.takeovers", static_cast<double>(takeovers), "count");
  m.add("rntree.search_hops_mean", search_hops.mean(), "hops");
  m.add("rntree.searches_timed_out", static_cast<double>(timed_out), "count");
  m.add("rntree.search_success_frac",
        ratio(static_cast<double>(searches_completed),
              static_cast<double>(searches_started)),
        "fraction");

  // Job phases in sim time. owner_sec records the job's last owner, which
  // churn can replace after the job started; such jobs are left out of the
  // owner -> start phase.
  Samples inject, owner_to_start;
  for (std::size_t j = 0; j < c.job_count(); ++j) {
    const metrics::JobOutcome& o = c.job(j);
    if (o.owner_sec == metrics::JobOutcome::kNever ||
        o.submit_sec == metrics::JobOutcome::kNever) {
      continue;
    }
    inject.add(o.owner_sec - o.submit_sec);
    if (o.started() && o.started_sec >= o.owner_sec) {
      owner_to_start.add(o.started_sec - o.owner_sec);
    }
  }
  // Load balance from what each node actually executed. The collector's
  // jobs_per_node() is reported beside it as grid.collector_load_cv: it
  // attributes a remotely dispatched job to node 0 when the run node starts
  // it before the owner's match reply lands (README.md).
  RunningStats executed;
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    executed.add(static_cast<double>(sys.node(i).stats().jobs_executed));
  }
  const grid::GridNodeStats nodes = sys.aggregate_node_stats();
  m.add("grid.wait_p50_s", quantile_or_zero(waits, 0.50), "sim_s");
  m.add("grid.wait_p99_s", quantile_or_zero(waits, 0.99), "sim_s");
  m.add("grid.wait_n", static_cast<double>(waits.count()), "count");
  m.add("grid.load_cv", executed.cv(), "ratio");
  m.add("grid.inject_p50_s", quantile_or_zero(inject, 0.50), "sim_s");
  m.add("grid.inject_p99_s", quantile_or_zero(inject, 0.99), "sim_s");
  m.add("grid.owner_to_start_p50_s", quantile_or_zero(owner_to_start, 0.50),
        "sim_s");
  m.add("grid.owner_to_start_p99_s", quantile_or_zero(owner_to_start, 0.99),
        "sim_s");
  m.add("grid.requeues", static_cast<double>(c.total_requeues()), "count");
  m.add("grid.resubmissions", static_cast<double>(c.total_resubmissions()),
        "count");
  m.add("grid.run_recoveries", static_cast<double>(nodes.run_recoveries), "count");
  m.add("grid.owner_recoveries", static_cast<double>(nodes.owner_recoveries),
        "count");
  m.add("grid.collector_load_cv", c.jobs_per_node().cv(), "ratio");
  return m;
}

MetricSet memory_metrics(const grid::GridSystem& sys) {
  const obs::MemoryAccountant acc = sys.memory_breakdown();
  constexpr double kMB = 1024.0 * 1024.0;
  MetricSet m;
  const auto mb = [&](obs::MemClass c) {
    return static_cast<double>(acc.of(c)) / kMB;
  };
  m.add("mem.sim_events", mb(obs::MemClass::kSimEvents), "MB");
  m.add("mem.msg_pool", mb(obs::MemClass::kMessagePool), "MB");
  m.add("mem.overlay_tables", mb(obs::MemClass::kOverlayTables), "MB");
  m.add("mem.grid_state", mb(obs::MemClass::kGridState), "MB");
  m.add("mem.rpc_pending", mb(obs::MemClass::kRpcPending), "MB");
  m.add("mem.metrics", mb(obs::MemClass::kMetrics), "MB");
  m.add("mem.bytes_per_node",
        ratio(static_cast<double>(acc.total()),
              static_cast<double>(sys.node_count())),
        "B");
  return m;
}

// ---------------------------------------------------------------------------
// Traced run: a proxy in front of every handler, installed with the public
// Network::set_handler after build(). Delivery looks the handler up at
// delivery time and unpacks batch envelopes first, so the proxy sees every
// message part. Handler time is self time: every overlay hop is its own
// message, so no handler runs inside another.

struct LayerLedger {
  std::array<std::uint64_t, kLayerSlots> calls{};
  std::array<std::uint64_t, kLayerSlots> timed_calls{};
  std::array<double, kLayerSlots> timed_s{};

  /// Estimated handler seconds: the timed sample scaled to all calls.
  [[nodiscard]] double handler_s(std::size_t layer) const {
    return timed_calls[layer] == 0
               ? 0.0
               : timed_s[layer] * static_cast<double>(calls[layer]) /
                     static_cast<double>(timed_calls[layer]);
  }
};

class TimingProxy final : public net::MessageHandler {
 public:
  TimingProxy(net::MessageHandler* inner, LayerLedger* ledger)
      : inner_(inner), ledger_(ledger) {}
  TimingProxy(const TimingProxy&) = delete;
  TimingProxy& operator=(const TimingProxy&) = delete;

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    const std::size_t layer = (msg->type() >> 8) % kLayerSlots;
    ++ledger_->calls[layer];
    if (++tick_ % kSampleEvery != 0) {
      inner_->on_message(from, std::move(msg));
      return;
    }
    const Clock::time_point t0 = Clock::now();
    inner_->on_message(from, std::move(msg));
    ledger_->timed_s[layer] += seconds_since(t0);
    ++ledger_->timed_calls[layer];
  }

 private:
  net::MessageHandler* inner_;
  LayerLedger* ledger_;
  std::uint32_t tick_ = 0;
};

// ---------------------------------------------------------------------------

struct Built {
  std::unique_ptr<grid::GridSystem> system;
  double gen_s = 0.0;
  double build_s = 0.0;
};

Built set_up(const WorkloadDef& w, std::uint64_t seed, bool smoke) {
  Built b;
  const Clock::time_point t0 = Clock::now();
  workload::Workload wl = workload::generate(make_spec(w, seed, smoke));
  b.gen_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  b.system = std::make_unique<grid::GridSystem>(make_config(w, seed), std::move(wl));
  b.system->build();
  if (w.churn) b.system->enable_churn(churn_model());
  b.build_s = seconds_since(t1);
  return b;
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "gridbench: check failed: %s\n", what.c_str());
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_ = true;
};

/// The timed leg of a run.
struct Window {
  WindowStats stats;
  double run_s = 0.0;  // host seconds
  double cpu_s = 0.0;  // process CPU seconds
  double pool_reuse_frac = 0.0;
};

/// Run a built system from time 0 to its last arrival. This arrival window
/// is a stretch of simulated time whose length barely depends on the seed:
/// the steady state that sim.run_s measures.
Window run_window(grid::GridSystem& sys) {
  Window r;
  const double window_sec =
      sys.workload().jobs.empty() ? 0.0 : sys.workload().jobs.back().arrival_sec;
  const net::MessagePool::Stats pool_before = net::MessagePool::stats();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  sys.run_for(window_sec);
  r.run_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  const net::MessagePool::Stats pool_after = net::MessagePool::stats();
  const auto reused = static_cast<double>(pool_after.reused - pool_before.reused);
  const auto fresh = static_cast<double>(pool_after.fresh - pool_before.fresh);
  r.pool_reuse_frac = ratio(reused, reused + fresh);
  r.stats = WindowStats{sys.sim_events(), sys.net_stats().messages_sent,
                        sys.net_stats().bytes_sent};
  return r;
}

double median_run_s(const std::vector<Window>& windows) {
  std::vector<double> v;
  for (const Window& r : windows) v.push_back(r.run_s);
  return median(v);
}

struct Drained {
  MetricSet simulated;
  MetricSet memory;
  double drain_s = 0.0;  // host seconds from the last arrival to completion
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
};

/// Run a system past its window until every job is terminal, then check
/// what every run must satisfy. The drain ends when the slowest job does, so
/// its length varies too much between seeds to be an end-to-end number. It
/// steps kDrainStepSec at a time: GridSystem::run checks for completion only
/// every 60 simulated seconds, which would idle the overlay for up to a
/// minute after the last job.
Drained drain(const WorkloadDef& w, grid::GridSystem& sys,
              const WindowStats& window, Checks& checks) {
  Drained r;
  const double limit = sys.now_sec() + sys.config().horizon_slack_sec;
  const Clock::time_point t0 = Clock::now();
  while (!sys.finished() && sys.now_sec() < limit) sys.run_for(kDrainStepSec);
  r.drain_s = seconds_since(t0);
  r.simulated = simulated_metrics(sys, window);
  r.memory = memory_metrics(sys);

  const metrics::Collector& c = sys.collector();
  r.jobs = c.job_count();
  r.completed = c.completed_count();
  std::uint64_t client_done = 0;
  std::uint64_t client_abandoned = 0;
  for (std::size_t i = 0; i < sys.client_count(); ++i) {
    client_done += sys.client(i).completed();
    client_abandoned += sys.client(i).abandoned();
  }
  checks.expect(sys.workload().all_jobs_satisfiable(),
                "every job is satisfiable by some node");
  checks.expect(sys.finished(), "every job reached a terminal state");
  checks.expect(client_done + client_abandoned == r.jobs,
                "clients account for every job as completed or abandoned");
  checks.expect(client_done == r.completed,
                "clients and collector agree on completions");
  if (!w.churn) {
    checks.expect(sys.aggregate_node_stats().jobs_executed == r.completed &&
                      r.completed == r.jobs,
                  "without churn every job executes exactly once");
  }
  for (const Metric& m : r.simulated.items()) {
    checks.expect(std::isfinite(m.value), m.name + " is finite");
  }
  return r;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool bad_args = !config.parse_args(argc, argv).empty();
  for (const auto& item : config.items()) {
    const std::string& key = item.first;
    bad_args |= key != "workload" && key != "seed" && key != "seconds" &&
                key != "trace" && key != "smoke";
  }
  const std::string name = config.get_string("workload", "");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr || bad_args) {
    std::fprintf(stderr,
                 "usage: gridbench --workload=<name> --seed=<s> [--seconds=S] "
                 "[--trace=1] [--smoke=1]\nworkloads:");
    for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadDef& w = *def;
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
  const double budget_s = config.get_double("seconds", 0.0);
  const bool trace = config.get_bool("trace", false);
  const bool smoke = config.get_bool("smoke", false);
  const double shards = static_cast<double>(std::max<std::size_t>(w.shards, 1));

  Checks checks;
  std::vector<double> setup_s, gen_s, build_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetupReps)) {
    const Built b = set_up(w, seed, smoke);
    gen_s.push_back(b.gen_s);
    build_s.push_back(b.build_s);
    setup_s.push_back(b.gen_s + b.build_s);
    setup_total_s += setup_s.back();
  }

  // The first system runs its window and then drains, for the checks and the
  // simulated metrics. It also warms the process: its window starts with an
  // empty message pool and growing event slabs, and ran up to 15% slower than
  // later ones. Fresh systems then repeat the window, at least once and until
  // the timed windows add up to --seconds; each must execute the same events.
  Window cold;
  Drained full;
  {
    Built b = set_up(w, seed, smoke);
    cold = run_window(*b.system);
    full = drain(w, *b.system, cold.stats, checks);
  }
  // One timed window of a fresh system; `prepare` runs between build and run.
  const auto timed_window = [&](const std::function<void(grid::GridSystem&)>& prepare) {
    Built b = set_up(w, seed, smoke);
    prepare(*b.system);
    const Window r = run_window(*b.system);
    checks.expect(r.stats == cold.stats,
                  "repeated windows execute the same events and messages");
    return r;
  };
  const auto untraced = [](grid::GridSystem&) {};
  std::vector<Window> windows;
  double measured_s = 0.0;
  while ((windows.empty() || measured_s < budget_s) && windows.size() < kMaxRunReps) {
    windows.push_back(timed_window(untraced));
    measured_s += windows.back().run_s;
  }

  std::vector<double> cpu_util, pool_reuse;
  for (const Window& r : windows) {
    cpu_util.push_back(r.cpu_s / (r.run_s * shards));
    pool_reuse.push_back(r.pool_reuse_frac);
  }
  const double run_median = median_run_s(windows);
  std::uint64_t attempted = full.jobs;
  std::uint64_t failed = full.jobs - full.completed;

  MetricSet out;
  out.add("setup_s", median(setup_s), "s");
  out.append(full.simulated);
  out.add("sim.run_s", run_median, "s");
  out.add("sim.events_per_s", ratio(static_cast<double>(cold.stats.events), run_median),
          "1/s");
  out.add("sim.drain_s", full.drain_s, "s");
  out.add("sim.cpu_util", median(cpu_util), "fraction");
  out.add("net.pool_reuse_frac", median(pool_reuse), "fraction");
  out.add("grid.build_s", median(build_s), "s");
  out.add("workload.gen_s", median(gen_s), "s");
  out.append(full.memory);

  if (trace) {
    // Proxies attach only to the sequential engine: sharded runs have no
    // single network to install them on, so their handler time reads 0 and
    // all run time counts as outside handlers.
    LayerLedger ledger;
    LayerLedger in_window;  // the first traced window's share of `ledger`
    double first_traced_s = run_median;
    double overhead = 0.0;
    std::vector<std::unique_ptr<TimingProxy>> proxies;
    const auto attach = [&](grid::GridSystem& sys) {
      proxies.clear();  // the previous system is gone
      net::Network& network = sys.network();
      for (std::size_t i = 0; i < sys.node_count(); ++i) {
        grid::GridNode& n = sys.node(i);
        proxies.push_back(std::make_unique<TimingProxy>(&n, &ledger));
        network.set_handler(n.addr(), proxies.back().get());
      }
      for (std::size_t i = 0; i < sys.client_count(); ++i) {
        grid::Client& c = sys.client(i);
        proxies.push_back(std::make_unique<TimingProxy>(&c, &ledger));
        network.set_handler(c.addr(), proxies.back().get());
      }
    };
    if (w.shards == 0) {
      Built b = set_up(w, seed, smoke);
      attach(*b.system);
      const Window first = run_window(*b.system);
      first_traced_s = first.run_s;
      in_window = ledger;
      const Drained t = drain(w, *b.system, first.stats, checks);
      attempted += t.jobs;
      failed += t.jobs - t.completed;
      checks.expect(t.simulated.identical(full.simulated),
                    "traced and untraced runs give identical simulated metrics");
      const net::NetworkStats& net = b.system->net_stats();
      std::uint64_t layered = 0;
      for (const Layer& l : kLayers) {
        layered += ledger.calls[l.index];
        checks.expect(ledger.calls[l.index] == in_layer(net.delivered_by_kind, l.index),
                      std::string(l.name) +
                          " proxy calls equal delivered messages of the layer");
      }
      std::uint64_t total = 0;
      for (std::uint64_t n : ledger.calls) total += n;
      checks.expect(total == layered, "every proxied message is in a known layer");
      b.system.reset();  // before the proxies its network points to

      // The overhead compares traced windows with untraced ones run beside
      // them in ABBA blocks (untraced, traced, traced, untraced), so load
      // phases on the host fall on both sides.
      std::vector<Window> traced, beside;
      double traced_s = 0.0;
      for (std::size_t block = 0;
           block < kMinOverheadBlocks ||
           (traced_s < kOverheadTracedS && block < kMaxOverheadBlocks);
           ++block) {
        beside.push_back(timed_window(untraced));
        for (int i = 0; i < 2; ++i) {
          traced.push_back(timed_window(attach));
          traced_s += traced.back().run_s;
        }
        beside.push_back(timed_window(untraced));
      }
      overhead = median_run_s(traced) / median_run_s(beside) - 1.0;
    }
    double handlers_s = 0.0;
    for (const Layer& l : kLayers) {
      const double h = in_window.handler_s(l.index);
      handlers_s += h;
      out.add(std::string(l.name) + ".handler_s", h, "s");
      out.add(std::string(l.name) + ".ns_per_msg",
              ratio(h * 1e9, static_cast<double>(in_window.calls[l.index])), "ns");
    }
    out.add("sim.outside_handlers_s", first_traced_s - handlers_s, "s");
    out.add("trace.overhead_frac", overhead, "fraction");
    out.add("trace.sample_every", kSampleEvery, "count");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

  print_json(checks.ok(), attempted, failed, out);
  return checks.ok() ? 0 : 1;
}
