#pragma once
// Shared plumbing for the experiment benches: config flags, cell sweeps run
// in parallel (deterministic per-cell seeds), and fixed-width table output
// matching the rows/series the paper reports.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "grid/grid_system.h"
#include "net/message_pool.h"
#include "obs/memory.h"
#include "sim/runner.h"
#include "workload/workload.h"

namespace pgrid::bench {

/// Version of the BENCH_*.json row layout. Bump when fields change meaning
/// or move; downstream tooling keys parsing off this.
///  1: original layout (implicit — rows had no version field)
///  2: adds schema_version and the mem_* per-subsystem byte fields
///  3: adds detector-quality fields (fp_evictions, fn_evictions,
///     anti_entropy_repairs, recovery_latency_p50/p99)
///  4: adds maintenance-batching fields (batching flag, batches_sent,
///     batch_parts_sent, batches_delivered, batch_parts_delivered)
///  5: adds sharded-execution fields (shards = configured shard count, 0 and
///     1 both meaning one shard; wall_ms = build+run wall clock in
///     milliseconds)
///  6: replaces anti_entropy_repairs (owner records re-homed by the retired
///     owner audit) with gap_repairs (CAN tiling-gap claims, the sum of
///     CanStats::gap_repairs over every node)
inline constexpr int kBenchJsonSchemaVersion = 6;

/// Build flavor baked into every JSON row so downstream tooling (and
/// reviewers of results/*.txt) can reject numbers recorded from an
/// unoptimized binary. Derived from NDEBUG: the only signal that tracks
/// what the optimizer actually saw.
#ifdef NDEBUG
inline constexpr const char* kBuildType = "release";
#else
inline constexpr const char* kBuildType = "debug";
#endif

/// Experiment scale, overridable from the command line. Defaults reproduce
/// the paper's setup (1000 nodes, 5000 jobs, exp(100 s) service, Poisson
/// 0.1 s inter-arrival); pass --nodes/--jobs/... to rescale.
struct Scale {
  std::size_t nodes = 1000;
  std::size_t jobs = 5000;
  double mean_runtime_sec = 100.0;
  double mean_interarrival_sec = 0.1;
  std::size_t replicates = 1;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 1;

  static Scale from_config(const Config& config) {
    Scale s;
    s.nodes = static_cast<std::size_t>(config.get_int("nodes", 1000));
    s.jobs = static_cast<std::size_t>(config.get_int("jobs", 5000));
    s.mean_runtime_sec = config.get_double("runtime", 100.0);
    s.mean_interarrival_sec = config.get_double("interarrival", 0.1);
    s.replicates = static_cast<std::size_t>(config.get_int("replicates", 1));
    s.threads = static_cast<std::size_t>(config.get_int("threads", 0));
    s.seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
    return s;
  }
};

/// Named derivation streams: every bench draws its workload and system seeds
/// from disjoint regions of the 64-bit space instead of ad-hoc `base + k`
/// offsets. The old scheme collided silently — e.g. scalability's workload
/// seed (`base + nodes`) equals its system seed (`base + 13`) whenever a
/// sweep ever includes 13-node cells, and two benches run with the same
/// --seed reused each other's streams outright.
enum class SeedStream : std::uint64_t {
  kWorkload = 0x9001,
  kSystem = 0x9002,
};

/// Derive a per-cell seed: mix the user's base seed, the stream tag, and a
/// cell-specific salt through the splitmix64-based hash_combine. Bijective
/// mixing means distinct (base, stream, salt) triples collide with only
/// generic birthday probability rather than by construction.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base,
                                               SeedStream stream,
                                               std::uint64_t salt = 0) {
  return hash_combine(hash_combine(mix64(base),
                                   static_cast<std::uint64_t>(stream)),
                      mix64(salt));
}

/// Fail fast if any two derived seeds collide: a collision would silently
/// correlate cells that the bench treats as independent.
inline void assert_distinct_seeds(const std::vector<std::uint64_t>& seeds) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      if (seeds[i] == seeds[j]) {
        std::fprintf(stderr,
                     "bench: derived seed collision between cells %zu and %zu "
                     "(0x%016" PRIx64 ")\n",
                     i, j, seeds[i]);
        std::abort();
      }
    }
  }
}

inline workload::WorkloadSpec make_spec(const Scale& scale,
                                        workload::Mix node_mix,
                                        workload::Mix job_mix,
                                        double constraint_probability,
                                        std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.node_count = scale.nodes;
  spec.job_count = scale.jobs;
  spec.node_mix = node_mix;
  spec.job_mix = job_mix;
  spec.constraint_probability = constraint_probability;
  spec.mean_runtime_sec = scale.mean_runtime_sec;
  spec.mean_interarrival_sec = scale.mean_interarrival_sec;
  spec.seed = seed;
  return spec;
}

inline grid::GridConfig make_grid_config(grid::MatchmakerKind kind,
                                         std::uint64_t seed) {
  grid::GridConfig config;
  config.kind = kind;
  config.seed = seed;
  config.light_maintenance = true;  // no churn in steady-state experiments
  // The paper's steady-state experiments have no failures, so client
  // resubmission is effectively disabled: every job runs exactly once and
  // overloaded schemes show up as long waits, not duplicated work.
  config.client.resubmit_base_sec = 1e9;
  config.horizon_slack_sec = 150000.0;
  return config;
}

/// One experiment cell result, averaged over replicates by the caller.
struct CellResult {
  double wait_avg = 0.0;
  double wait_stdev = 0.0;
  double match_hops_avg = 0.0;
  double injection_hops_avg = 0.0;
  double jobs_per_node_cv = 0.0;
  double completed_fraction = 0.0;
  double makespan_sec = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t requeues = 0;
  std::uint64_t pushes = 0;
  std::uint64_t forwards = 0;
  // Maintenance batching (DESIGN.md §16): envelopes on the wire and the
  // logical messages they carried.
  std::uint64_t batches_sent = 0;
  std::uint64_t batch_parts_sent = 0;
  std::uint64_t batches_delivered = 0;
  std::uint64_t batch_parts_delivered = 0;
  // Sharded execution (DESIGN.md §17): shard count the cell was configured
  // with (0 and 1 both run one shard) and total wall clock, the quantity the
  // sharded speedup series compares.
  std::uint64_t shards = 0;
  double wall_ms = 0.0;
  // Profiling (wall clock of the simulator itself, not sim time).
  double build_wall_sec = 0.0;
  double run_wall_sec = 0.0;
  std::uint64_t sim_events = 0;
  double events_per_wall_sec = 0.0;
  std::uint64_t sim_queue_peak = 0;
  std::uint64_t sim_tombstone_peak = 0;
  // Message-pool recycling over the cell (thread-local delta; see
  // attach_pool_stats). A healthy steady state reuses nearly every block.
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  double pool_reuse_fraction = 0.0;
  // Detector quality (classified by GridSystem's ground-truth liveness
  // oracle) and CAN tiling-gap repair volume.
  std::uint64_t fp_evictions = 0;  // evicted a peer that was alive
  std::uint64_t fn_evictions = 0;  // detected later than the fixed rule
  std::uint64_t gap_repairs = 0;   // CAN tiling-gap claims, all nodes
  double recovery_latency_p50 = 0.0;  // actual death -> eviction, seconds
  double recovery_latency_p99 = 0.0;
  // End-of-run per-subsystem memory footprint (peak across replicates when
  // averaged); always filled — the breakdown walk is cold and obs-independent.
  obs::MemoryAccountant memory;
  std::uint64_t mem_total_bytes = 0;
};

/// Fold the calling thread's MessagePool counters since `before` into `r`.
/// Call on the same thread that ran the cell (the sweep worker), with
/// `before` sampled just before the system was built.
inline void attach_pool_stats(CellResult& r,
                              const net::MessagePool::Stats& before) {
  const net::MessagePool::Stats now = net::MessagePool::stats();
  r.pool_fresh = now.fresh - before.fresh;
  r.pool_reused = now.reused - before.reused;
  const auto total = r.pool_fresh + r.pool_reused;
  r.pool_reuse_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(r.pool_reused) /
                       static_cast<double>(total);
}

inline CellResult summarize(grid::GridSystem& system) {
  CellResult r;
  const auto& c = system.collector();
  const Samples waits = c.wait_times();
  if (!waits.empty()) {
    r.wait_avg = waits.mean();
    r.wait_stdev = waits.stdev();
  }
  const RunningStats hops = c.match_hops_stats();
  if (hops.count() > 0) r.match_hops_avg = hops.mean();
  const RunningStats inj = c.injection_hops_stats();
  if (inj.count() > 0) r.injection_hops_avg = inj.mean();
  r.jobs_per_node_cv = c.jobs_per_node().cv();
  r.completed_fraction = c.job_count() == 0
                             ? 1.0
                             : static_cast<double>(c.completed_count()) /
                                   static_cast<double>(c.job_count());
  r.makespan_sec = c.makespan_sec();
  r.messages = system.net_stats().messages_sent;
  r.messages_delivered = system.net_stats().messages_delivered;
  r.bytes_sent = system.net_stats().bytes_sent;
  r.bytes_delivered = system.net_stats().bytes_delivered;
  r.batches_sent = system.net_stats().batches_sent;
  r.batch_parts_sent = system.net_stats().batch_parts_sent;
  r.batches_delivered = system.net_stats().batches_delivered;
  r.batch_parts_delivered = system.net_stats().batch_parts_delivered;
  r.build_wall_sec = system.profile().phase_sec("build");
  r.run_wall_sec = system.profile().phase_sec("run");
  r.shards = system.config().shards;
  r.wall_ms = (r.build_wall_sec + r.run_wall_sec) * 1000.0;
  r.sim_events = system.profile().events();
  r.events_per_wall_sec = system.profile().events_per_sec();
  // Engine-wide peaks: with several shards each Simulator holds one shard's
  // queue, and system.simulator() is defined for one shard only.
  r.sim_queue_peak = system.sim_queue_peak();
  r.sim_tombstone_peak = system.sim_tombstone_peak();
  r.resubmissions = c.total_resubmissions();
  r.requeues = c.total_requeues();
  const auto node_stats = system.aggregate_node_stats();
  r.pushes = node_stats.can_pushes;
  r.forwards = node_stats.can_forwards;
  r.fp_evictions = node_stats.fp_evictions;
  r.fn_evictions = node_stats.fn_evictions;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (const can::CanNode* can = system.node(i).can(); can != nullptr) {
      r.gap_repairs += can->stats().gap_repairs;
    }
  }
  if (!node_stats.detection_latency.empty()) {
    r.recovery_latency_p50 = node_stats.detection_latency.median();
    r.recovery_latency_p99 = node_stats.detection_latency.quantile(0.99);
  }
  r.memory = system.memory_breakdown();
  r.mem_total_bytes = r.memory.total();
  return r;
}

inline CellResult average(const std::vector<CellResult>& cells) {
  CellResult avg;
  if (cells.empty()) return avg;
  for (const CellResult& c : cells) {
    avg.wait_avg += c.wait_avg;
    avg.wait_stdev += c.wait_stdev;
    avg.match_hops_avg += c.match_hops_avg;
    avg.injection_hops_avg += c.injection_hops_avg;
    avg.jobs_per_node_cv += c.jobs_per_node_cv;
    avg.completed_fraction += c.completed_fraction;
    avg.makespan_sec += c.makespan_sec;
    avg.messages += c.messages;
    avg.messages_delivered += c.messages_delivered;
    avg.bytes_sent += c.bytes_sent;
    avg.bytes_delivered += c.bytes_delivered;
    avg.resubmissions += c.resubmissions;
    avg.requeues += c.requeues;
    avg.pushes += c.pushes;
    avg.forwards += c.forwards;
    avg.batches_sent += c.batches_sent;
    avg.batch_parts_sent += c.batch_parts_sent;
    avg.batches_delivered += c.batches_delivered;
    avg.batch_parts_delivered += c.batch_parts_delivered;
    avg.fp_evictions += c.fp_evictions;
    avg.fn_evictions += c.fn_evictions;
    avg.gap_repairs += c.gap_repairs;
    avg.recovery_latency_p50 += c.recovery_latency_p50;
    avg.recovery_latency_p99 += c.recovery_latency_p99;
    avg.shards = std::max(avg.shards, c.shards);
    avg.wall_ms += c.wall_ms;
    avg.build_wall_sec += c.build_wall_sec;
    avg.run_wall_sec += c.run_wall_sec;
    avg.sim_events += c.sim_events;
    avg.events_per_wall_sec += c.events_per_wall_sec;
    avg.sim_queue_peak = std::max(avg.sim_queue_peak, c.sim_queue_peak);
    avg.sim_tombstone_peak =
        std::max(avg.sim_tombstone_peak, c.sim_tombstone_peak);
    avg.pool_fresh += c.pool_fresh;
    avg.pool_reused += c.pool_reused;
    avg.memory.merge_peak(c.memory);  // peak, not mean: a footprint bound
  }
  avg.mem_total_bytes = avg.memory.total();
  const auto n = static_cast<double>(cells.size());
  avg.wait_avg /= n;
  avg.wait_stdev /= n;
  avg.match_hops_avg /= n;
  avg.injection_hops_avg /= n;
  avg.jobs_per_node_cv /= n;
  avg.completed_fraction /= n;
  avg.makespan_sec /= n;
  avg.messages /= cells.size();
  avg.messages_delivered /= cells.size();
  avg.bytes_sent /= cells.size();
  avg.bytes_delivered /= cells.size();
  avg.batches_sent /= cells.size();
  avg.batch_parts_sent /= cells.size();
  avg.batches_delivered /= cells.size();
  avg.batch_parts_delivered /= cells.size();
  avg.wall_ms /= n;
  avg.build_wall_sec /= n;
  avg.run_wall_sec /= n;
  avg.sim_events /= cells.size();
  avg.events_per_wall_sec /= n;
  avg.recovery_latency_p50 /= n;
  avg.recovery_latency_p99 /= n;
  const auto pool_total = avg.pool_fresh + avg.pool_reused;
  avg.pool_reuse_fraction =
      pool_total == 0 ? 0.0
                      : static_cast<double>(avg.pool_reused) /
                            static_cast<double>(pool_total);
  return avg;
}

inline void print_header(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '-').c_str());
}

/// The bench summary line: network traffic plus simulator throughput for one
/// cell, printed under the result tables.
inline void print_summary_line(const std::string& label, const CellResult& r) {
  std::printf("summary %-14s msgs %" PRIu64 "/%" PRIu64
              " (sent/delivered), bytes %" PRIu64 "/%" PRIu64
              ", run %.2fs wall, %" PRIu64 " events, %.0fk ev/s"
              ", pool reuse %.1f%%\n",
              label.c_str(), r.messages, r.messages_delivered, r.bytes_sent,
              r.bytes_delivered, r.run_wall_sec, r.sim_events,
              r.events_per_wall_sec / 1000.0, r.pool_reuse_fraction * 100.0);
}

/// JSONL writer for bench results: one object per cell so downstream tooling
/// can track wait times *and* simulator throughput across commits. Enabled
/// with --json=1 (default path BENCH_<name>.json) or --json=path.
class BenchJson {
 public:
  BenchJson() = default;
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  BenchJson(BenchJson&& other) noexcept
      : file_(other.file_), bench_(std::move(other.bench_)) {
    other.file_ = nullptr;
  }
  ~BenchJson() {
    if (file_ != nullptr) std::fclose(file_);
  }

  static BenchJson open(const Config& config, const std::string& bench_name) {
    BenchJson out;
    std::string path = config.get_string("json", "");
    if (path == "1" || path == "true") path = "BENCH_" + bench_name + ".json";
    if (path.empty()) return out;
    out.file_ = std::fopen(path.c_str(), "w");
    if (out.file_ == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path.c_str());
    }
    out.bench_ = bench_name;
    out.path_ = path;
    return out;
  }

  [[nodiscard]] bool active() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void row(const std::string& label, const CellResult& r) {
    if (file_ == nullptr) return;
    std::fprintf(
        file_,
        "{\"schema_version\":%d,"
        "\"bench\":\"%s\",\"build_type\":\"%s\",\"cell\":\"%s\","
        "\"wait_avg\":%.6f,"
        "\"wait_stdev\":%.6f,\"match_hops_avg\":%.6f,"
        "\"injection_hops_avg\":%.6f,\"jobs_per_node_cv\":%.6f,"
        "\"completed_fraction\":%.6f,\"makespan_sec\":%.3f,"
        "\"messages_sent\":%" PRIu64 ",\"messages_delivered\":%" PRIu64
        ",\"bytes_sent\":%" PRIu64 ",\"bytes_delivered\":%" PRIu64
        ",\"resubmissions\":%" PRIu64 ",\"requeues\":%" PRIu64
        ",\"batches_sent\":%" PRIu64 ",\"batch_parts_sent\":%" PRIu64
        ",\"batches_delivered\":%" PRIu64 ",\"batch_parts_delivered\":%" PRIu64
        ",\"shards\":%" PRIu64 ",\"wall_ms\":%.3f"
        ",\"build_wall_sec\":%.6f,\"run_wall_sec\":%.6f,"
        "\"sim_events\":%" PRIu64 ",\"events_per_wall_sec\":%.1f,"
        "\"sim_queue_peak\":%" PRIu64 ",\"sim_tombstone_peak\":%" PRIu64
        ",\"pool_fresh\":%" PRIu64 ",\"pool_reused\":%" PRIu64
        ",\"pool_reuse_fraction\":%.4f"
        ",\"fp_evictions\":%" PRIu64 ",\"fn_evictions\":%" PRIu64
        ",\"gap_repairs\":%" PRIu64
        ",\"recovery_latency_p50\":%.6f,\"recovery_latency_p99\":%.6f",
        kBenchJsonSchemaVersion, bench_.c_str(), kBuildType, label.c_str(),
        r.wait_avg, r.wait_stdev, r.match_hops_avg, r.injection_hops_avg,
        r.jobs_per_node_cv, r.completed_fraction, r.makespan_sec, r.messages,
        r.messages_delivered, r.bytes_sent, r.bytes_delivered,
        r.resubmissions, r.requeues, r.batches_sent, r.batch_parts_sent,
        r.batches_delivered, r.batch_parts_delivered, r.shards, r.wall_ms,
        r.build_wall_sec, r.run_wall_sec,
        r.sim_events, r.events_per_wall_sec,
        static_cast<std::uint64_t>(r.sim_queue_peak),
        static_cast<std::uint64_t>(r.sim_tombstone_peak),
        r.pool_fresh, r.pool_reused, r.pool_reuse_fraction,
        r.fp_evictions, r.fn_evictions, r.gap_repairs,
        r.recovery_latency_p50, r.recovery_latency_p99);
    // Per-subsystem memory breakdown: one field per MemClass plus the total.
    for (std::size_t c = 0; c < obs::MemoryAccountant::kClasses; ++c) {
      const auto cls = static_cast<obs::MemClass>(c);
      std::fprintf(file_, ",\"mem_%s\":%" PRIu64, obs::mem_class_name(cls),
                   r.memory.of(cls));
    }
    std::fprintf(file_, ",\"mem_total_bytes\":%" PRIu64 "}\n",
                 r.mem_total_bytes);
  }

 private:
  std::FILE* file_ = nullptr;
  std::string bench_;
  std::string path_;
};

}  // namespace pgrid::bench
