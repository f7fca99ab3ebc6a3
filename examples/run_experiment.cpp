// General-purpose experiment runner: the tool a downstream user reaches for
// first. Configures a whole grid experiment from the command line (or a
// key=value config file), runs it, prints a report with per-kind traffic and
// an ASCII wait-time histogram, and optionally exports per-job CSV, the
// exact workload trace for replay, a Chrome/Perfetto event trace, and a
// time-series CSV.
//
//   ./run_experiment --matchmaker=rn-tree --nodes=500 --jobs=2000
//   ./run_experiment --config=experiment.cfg --csv=jobs.csv --workload-out=wl.csv
//   ./run_experiment --replay=wl.csv --matchmaker=can   # same jobs, new scheme
//   ./run_experiment --trace --timeseries   # trace.json + timeseries.csv
//
// Recognized keys (defaults in parentheses): matchmaker (rn-tree), nodes
// (200), jobs (1000), runtime (100), interarrival (0.1), constraint (0.4),
// clustered-nodes (0), clustered-jobs (0), seed (1), churn-lifetime (0 =
// none), queue (fifo|fair-share), kill-factor (0), csv, workload-out,
// replay, config.
//
// Failure-detection keys: every layer evicts silent peers with a φ-accrual
// detector. --heartbeat-period=sec (5) sets the grid heartbeat period and
// --miss-threshold=n (3) the number of periods φ waits for a peer with too
// little history to learn from (its cold-start deadline). Self-healing has
// no switch: the CAN gap check runs in every CAN update round.
//
// Observability keys: --trace[=path] writes a Chrome trace_event JSON
// (default trace.json, load at https://ui.perfetto.dev), --trace-jsonl=path
// writes the raw events as JSONL, --trace-capacity=N sizes the event ring
// (default 1M; oldest events are overwritten past that),
// --trace-sample=N samples every N-th job submission into a cross-node
// causal span tree (implies --trace; the Perfetto export then shows
// per-hop latency trees with flow arrows), --timeseries[=path] writes
// per-interval gauges as CSV (default timeseries.csv), --sample-period=sec
// sets the interval (default 5), --metrics-out=path writes the final
// MetricsRegistry snapshot (one row per gauge) as CSV.

#include <cstdio>
#include <string>

#include "common/config.h"
#include "grid/grid_system.h"
#include "metrics/report.h"
#include "obs/trace.h"
#include "workload/trace.h"

using namespace pgrid;

namespace {

grid::MatchmakerKind parse_kind(const std::string& name) {
  if (name == "centralized") return grid::MatchmakerKind::kCentralized;
  if (name == "random") return grid::MatchmakerKind::kRandom;
  if (name == "can") return grid::MatchmakerKind::kCanBasic;
  if (name == "can-push") return grid::MatchmakerKind::kCanPush;
  return grid::MatchmakerKind::kRnTree;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.parse_args(argc, argv);
  if (config.has("config") &&
      !config.load_file(config.get_string("config", ""))) {
    std::fprintf(stderr, "error: cannot read config file\n");
    return 2;
  }
  // CLI overrides the file. parse_args only understands key=value, so the
  // valueless forms of the observability switches come back as leftovers.
  for (const std::string& token : config.parse_args(argc, argv)) {
    if (token == "--trace") {
      config.set("trace", "1");
    } else if (token == "--timeseries") {
      config.set("timeseries", "1");
    } else {
      std::fprintf(stderr, "error: unrecognized argument %s\n", token.c_str());
      return 2;
    }
  }

  // --- workload: generate or replay ---------------------------------------
  workload::Workload w;
  if (config.has("replay")) {
    if (!workload::load_trace(config.get_string("replay", ""), &w)) {
      std::fprintf(stderr, "error: cannot load workload trace\n");
      return 2;
    }
    std::printf("replaying trace: %zu nodes, %zu jobs\n", w.spec.node_count,
                w.spec.job_count);
  } else {
    workload::WorkloadSpec spec;
    spec.node_count = static_cast<std::size_t>(config.get_int("nodes", 200));
    spec.job_count = static_cast<std::size_t>(config.get_int("jobs", 1000));
    spec.mean_runtime_sec = config.get_double("runtime", 100.0);
    spec.mean_interarrival_sec = config.get_double("interarrival", 0.1);
    spec.constraint_probability = config.get_double("constraint", 0.4);
    spec.node_mix = config.get_bool("clustered-nodes", false)
                        ? workload::Mix::kClustered
                        : workload::Mix::kMixed;
    spec.job_mix = config.get_bool("clustered-jobs", false)
                       ? workload::Mix::kClustered
                       : workload::Mix::kMixed;
    spec.seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
    w = workload::generate(spec);
  }
  if (config.has("workload-out") &&
      !workload::save_trace(w, config.get_string("workload-out", ""))) {
    std::fprintf(stderr, "error: cannot write workload trace\n");
    return 2;
  }

  // --- grid configuration ---------------------------------------------------
  grid::GridConfig gc;
  gc.kind = parse_kind(config.get_string("matchmaker", "rn-tree"));
  gc.seed = static_cast<std::uint64_t>(config.get_int("seed", 1)) + 77;
  gc.light_maintenance = !config.has("churn-lifetime");
  if (config.get_string("queue", "fifo") == "fair-share") {
    gc.node.queue_policy = grid::QueuePolicy::kFairShare;
  }
  gc.node.runaway_kill_factor = config.get_double("kill-factor", 0.0);
  // --shards=N runs N conservative-lookahead shards (DESIGN.md §17); 0 and 1
  // both mean one shard. Several shards take overlay matchmakers only and
  // reject churn/trace/timeseries/metrics-out.
  gc.shards = static_cast<std::size_t>(config.get_int("shards", 0));

  // --- failure detection -----------------------------------------------------
  gc.node.heartbeat_period = sim::SimTime::seconds(
      config.get_double("heartbeat-period",
                        gc.node.heartbeat_period.sec()));
  gc.node.heartbeat_miss_threshold = static_cast<int>(config.get_int(
      "miss-threshold", gc.node.heartbeat_miss_threshold));

  // --- observability ----------------------------------------------------------
  if (config.has("trace") || config.has("trace-jsonl") ||
      config.has("trace-sample")) {
    gc.obs.trace = true;
    std::string chrome = config.get_string("trace", "");
    if (chrome == "1" || chrome == "true") chrome = "trace.json";
    // --trace-sample alone still needs an export to be useful.
    if (chrome.empty() && config.has("trace-sample") &&
        !config.has("trace-jsonl")) {
      chrome = "trace.json";
    }
    gc.obs.chrome_trace_path = chrome;
    gc.obs.jsonl_path = config.get_string("trace-jsonl", "");
    gc.obs.trace_capacity = static_cast<std::size_t>(
        config.get_int("trace-capacity",
                       static_cast<std::int64_t>(gc.obs.trace_capacity)));
    gc.obs.trace_sample_every =
        static_cast<std::uint64_t>(config.get_int("trace-sample", 0));
  }
  if (config.has("timeseries") || config.has("sample-period")) {
    std::string csv = config.get_string("timeseries", "1");
    if (csv == "1" || csv == "true") csv = "timeseries.csv";
    gc.obs.timeseries_csv_path = csv;
    gc.obs.sample_period_sec = config.get_double("sample-period", 5.0);
  }
  gc.obs.metrics_csv_path = config.get_string("metrics-out", "");

  grid::GridSystem system(gc, w);
  const double lifetime = config.get_double("churn-lifetime", 0.0);
  if (lifetime > 0.0) {
    sim::ChurnModel churn;
    churn.mean_lifetime_sec = lifetime;
    churn.mean_downtime_sec = config.get_double("churn-downtime", 120.0);
    churn.churn_fraction = config.get_double("churn-fraction", 0.5);
    system.enable_churn(churn);
  }

  std::printf("running: %s matchmaking, %zu nodes, %zu jobs%s\n",
              grid::matchmaker_name(gc.kind), w.spec.node_count,
              w.spec.job_count, lifetime > 0 ? ", with churn" : "");
  system.run();

  // --- report -----------------------------------------------------------------
  const auto& c = system.collector();
  const Samples waits = c.wait_times();
  std::printf("\n%s\n", c.summary().c_str());
  if (!waits.empty()) {
    std::printf("wait quantiles: p50=%.1fs p90=%.1fs p99=%.1fs max=%.1fs\n",
                waits.median(), waits.quantile(0.9), waits.quantile(0.99),
                waits.max());
  }
  std::printf("makespan: %.0fs   load (jobs/node) cv: %.2f\n",
              c.makespan_sec(), c.jobs_per_node().cv());
  const net::NetworkStats& ns = system.net_stats();
  const auto jobs = static_cast<double>(w.spec.job_count);
  std::printf("network: %llu msgs sent / %llu delivered (%.1f per job), "
              "%.1f MB sent / %.1f MB delivered\n",
              static_cast<unsigned long long>(ns.messages_sent),
              static_cast<unsigned long long>(ns.messages_delivered),
              static_cast<double>(ns.messages_sent) / jobs,
              static_cast<double>(ns.bytes_sent) / 1048576.0,
              static_cast<double>(ns.bytes_delivered) / 1048576.0);
  // One line per kind that carried traffic. An enveloped message counts
  // under its own kind; net/Batch counts the envelopes and their headers.
  for (std::size_t k = 0; k < net::NetworkStats::kKindSlots; ++k) {
    if (ns.sent_by_kind[k] == 0) continue;
    std::printf("  %-20s %9.2f msgs/job %10.1f B/job\n",
                obs::span_tag_name(static_cast<std::uint16_t>(k)).c_str(),
                static_cast<double>(ns.sent_by_kind[k]) / jobs,
                static_cast<double>(ns.bytes_by_kind[k]) / jobs);
  }
  std::printf("profile: %s\n", system.profile().summary().c_str());
  const auto stats = system.aggregate_node_stats();
  if (stats.run_recoveries + stats.owner_recoveries + stats.jobs_killed_quota) {
    std::printf("recovery: %llu reruns, %llu owner handoffs, %llu quota kills\n",
                static_cast<unsigned long long>(stats.run_recoveries),
                static_cast<unsigned long long>(stats.owner_recoveries),
                static_cast<unsigned long long>(stats.jobs_killed_quota));
  }
  std::printf("\nwait-time distribution:\n%s",
              metrics::wait_histogram(c).c_str());

  if (config.has("csv")) {
    const std::string path = config.get_string("csv", "");
    if (!metrics::write_job_csv(c, path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("\nper-job CSV written to %s\n", path.c_str());
  }

  if (!system.write_observability()) {
    std::fprintf(stderr, "error: cannot write observability outputs\n");
    return 2;
  }
  if (const obs::TraceBus* bus = system.trace_bus()) {
    std::printf("\ntrace: %llu events recorded, %llu overwritten (ring "
                "capacity %zu)\n",
                static_cast<unsigned long long>(bus->total_recorded()),
                static_cast<unsigned long long>(bus->dropped()),
                bus->capacity());
    if (!gc.obs.chrome_trace_path.empty()) {
      std::printf("trace: Chrome trace written to %s (load at "
                  "https://ui.perfetto.dev)\n",
                  gc.obs.chrome_trace_path.c_str());
    }
    if (!gc.obs.jsonl_path.empty()) {
      std::printf("trace: JSONL written to %s\n", gc.obs.jsonl_path.c_str());
    }
  }
  if (const obs::TimeSeriesSampler* ts = system.sampler()) {
    std::printf("timeseries: %zu samples x %zu columns written to %s\n",
                ts->row_count(), ts->column_count(),
                gc.obs.timeseries_csv_path.c_str());
  }
  if (const obs::TraceBus* bus = system.trace_bus();
      bus != nullptr && gc.obs.trace_sample_every > 0) {
    std::printf("trace: %llu causal traces sampled (1 in %llu submissions)\n",
                static_cast<unsigned long long>(bus->traces_started()),
                static_cast<unsigned long long>(gc.obs.trace_sample_every));
  }
  if (!gc.obs.metrics_csv_path.empty()) {
    std::printf("metrics: registry snapshot written to %s\n",
                gc.obs.metrics_csv_path.c_str());
  }
  return system.finished() ? 0 : 1;
}
