#pragma once
// GridSystem: assembles a complete desktop grid experiment — simulator,
// network, nodes (with the overlay the chosen matchmaker needs), clients,
// workload schedule, optional churn — and runs it to completion.
//
// This is the library's main entry point: every bench and example builds a
// GridConfig + Workload, runs a GridSystem, and reads the Collector.

#include <atomic>
#include <memory>
#include <vector>

#include "grid/central_scheduler.h"
#include "grid/client.h"
#include "grid/grid_node.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "obs/memory.h"
#include "obs/obs_config.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "net/shard_bus.h"
#include "obs/trace.h"
#include "sim/failure.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace pgrid::grid {

struct GridConfig {
  MatchmakerKind kind = MatchmakerKind::kCentralized;
  net::LatencyModel latency{};
  double loss_probability = 0.0;
  GridNodeConfig node;
  ClientConfig client;
  std::uint64_t seed = 1;
  /// Safety horizon past the last arrival (jobs that have not terminated by
  /// then are counted as lost).
  double horizon_slack_sec = 20000.0;
  /// Slow down overlay maintenance (no-churn experiments): same behavior,
  /// far fewer simulation events.
  bool light_maintenance = false;
  /// Skip the automatic arrival-time schedule: jobs are released through
  /// submit_job() instead (used by the DAG runner, §5 future work).
  bool manual_submission = false;
  /// Observability: event tracing, time-series sampling, output paths.
  obs::ObsConfig obs;
  /// Worker shards (DESIGN.md §17). 0 (default) and 1 both run one shard
  /// on the calling thread. N > 1 partitions nodes into N contiguous
  /// Guid-order arcs, each on its own worker thread, synchronized by
  /// conservative-lookahead windows. Outputs are a deterministic function of
  /// (seed, config), the same for every N. Several shards carry the
  /// steady-state plane only: overlay matchmakers, no churn/crash/restart,
  /// no fault plane, no trace/sampler/metrics CSV, no manual submission,
  /// and a positive latency floor.
  std::size_t shards = 0;
};

class GridSystem {
 public:
  GridSystem(GridConfig config, workload::Workload workload);
  ~GridSystem();

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Construct nodes and clients, wire overlays instantly, schedule jobs.
  void build();

  /// Run the experiment to completion (all jobs terminal) or the horizon.
  void run();

  /// Advance simulated time by `sec` (builds first if needed).
  void run_for(double sec);

  /// Release workload job `seq` for submission `delay_sec` from now
  /// (manual_submission mode).
  void submit_job(std::uint64_t seq, double delay_sec = 0.0);

  /// Count a job that will never be submitted (e.g. cancelled by the DAG
  /// runner after a parent failed) toward run() termination.
  void mark_external_terminal() { ++terminal_jobs_; }

  [[nodiscard]] bool finished() const noexcept {
    return built_ &&
           terminal_jobs_.load(std::memory_order_relaxed) >=
               workload_.jobs.size();
  }

  /// Crash / restart a grid node (overlays rejoin through a live peer).
  void crash_node(std::size_t index);
  void restart_node(std::size_t index);
  [[nodiscard]] bool node_running(std::size_t index) const;

  /// Topology-correlated victim set: `fraction` of the live nodes that are
  /// contiguous in overlay order — a Chord arc (GUID order) for ring kinds,
  /// a coordinate slab (first rep-point dimension) for CAN kinds — starting
  /// at position `start_u` ∈ [0,1) of that order. Deterministic given the
  /// current membership; draws no randomness itself.
  [[nodiscard]] std::vector<std::size_t> correlated_victims(
      double fraction, double start_u) const;

  /// Attach continuous churn driven by the failure injector.
  void enable_churn(const sim::ChurnModel& model);
  [[nodiscard]] const sim::FailureInjector* churn() const noexcept {
    return churn_.get();
  }
  /// Mutable access for targeted scenarios (crash bursts, forced crashes).
  [[nodiscard]] sim::FailureInjector* churn() noexcept { return churn_.get(); }

  /// Shard 0's simulator; one shard only (several shards have no single
  /// clock — use the engine-wide aggregates below).
  [[nodiscard]] sim::Simulator& simulator() {
    PGRID_EXPECTS(engine_->shards() == 1);
    return engine_->shard(0);
  }

  // --- engine-wide aggregates (valid for every shard count) ----------------
  [[nodiscard]] sim::ShardedEngine* engine() noexcept { return engine_.get(); }
  [[nodiscard]] std::uint64_t sim_events() const noexcept {
    return engine_->executed();
  }
  [[nodiscard]] std::size_t sim_queued() const noexcept {
    return engine_->queued();
  }
  [[nodiscard]] std::size_t sim_queue_peak() const noexcept {
    return engine_->queue_high_water();
  }
  [[nodiscard]] std::size_t sim_tombstone_peak() const noexcept {
    return engine_->tombstone_high_water();
  }
  [[nodiscard]] double now_sec() const noexcept {
    return engine_->now().sec();
  }
  [[nodiscard]] metrics::Collector& collector() noexcept { return collector_; }
  [[nodiscard]] const metrics::Collector& collector() const noexcept {
    return collector_;
  }
  [[nodiscard]] const net::NetworkStats& net_stats() const;
  /// Shard 0's network; one shard only. Chaos scenarios reach the fault
  /// plane through this.
  [[nodiscard]] net::Network& network() {
    PGRID_EXPECTS(nets_.size() == 1);
    return *nets_[0];
  }
  [[nodiscard]] GridNode& node(std::size_t index) { return *nodes_.at(index); }
  [[nodiscard]] Client& client(std::size_t index) {
    return *clients_.at(index);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return clients_.size();
  }
  [[nodiscard]] const workload::Workload& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] const GridConfig& config() const noexcept { return config_; }

  /// Aggregate grid-node statistics over all nodes.
  [[nodiscard]] GridNodeStats aggregate_node_stats() const;

  // --- observability --------------------------------------------------------
  /// The run's trace bus (null unless config.obs.trace).
  [[nodiscard]] obs::TraceBus* trace_bus() noexcept { return trace_.get(); }
  /// The run's sampler (null unless config.obs.sample_period_sec > 0).
  [[nodiscard]] obs::TimeSeriesSampler* sampler() noexcept {
    return sampler_.get();
  }
  /// The run's metrics registry (null unless the sampler or the metrics CSV
  /// is enabled).
  [[nodiscard]] obs::MetricsRegistry* registry() noexcept {
    return registry_.get();
  }
  [[nodiscard]] const obs::RunProfile& profile() const noexcept {
    return profile_;
  }

  /// Per-subsystem byte breakdown of the whole system right now: simulator
  /// event pool, message-pool slabs, overlay tables, grid bookkeeping, RPC
  /// pending slabs, trace ring, metrics storage. Pure observation — walks
  /// capacity snapshots, touches nothing hot.
  [[nodiscard]] obs::MemoryAccountant memory_breakdown() const;

  /// Write the artifacts named in config.obs (Chrome trace, JSONL,
  /// time-series CSV). Returns false if any configured write failed.
  bool write_observability() const;

 private:
  [[nodiscard]] Peer find_bootstrap(std::size_t excluding) const;
  void register_builtin_metrics();
  /// Nodes, overlay wiring, clients and the job schedule. Node i runs on
  /// nets_[shard_of[i]]; client c on nets_[c % shards]. Consumes
  /// rng_.fork(2) for nodes, then rng_.fork(3) for clients.
  void populate(const GridNodeConfig& node_config,
                const std::vector<std::uint32_t>& shard_of);
  /// The collector shard s's nodes and clients record into.
  [[nodiscard]] metrics::Collector* collector_of(std::size_t s) {
    return shard_collectors_.empty() ? &collector_
                                     : shard_collectors_[s].get();
  }
  /// Rebuild collector_ from the per-shard collectors (several shards
  /// only). Idempotent — called after every run()/run_for() leg.
  void merge_shard_metrics();

  GridConfig config_;
  workload::Workload workload_;
  // One Simulator and one Network per shard (one unless config.shards > 1),
  // all registered in bus_'s global address space.
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<net::ShardBus> bus_;
  std::vector<std::unique_ptr<net::Network>> nets_;
  // Several shards only: each shard records into its own collector,
  // collector_ holds the merged view after a run, merged_stats_ the summed
  // NetworkStats on demand.
  std::vector<std::unique_ptr<metrics::Collector>> shard_collectors_;
  mutable net::NetworkStats merged_stats_;
  metrics::Collector collector_;
  CentralScheduler central_;
  Rng rng_;
  std::vector<std::unique_ptr<GridNode>> nodes_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<sim::FailureInjector> churn_;
  std::unique_ptr<obs::TraceBus> trace_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  /// Per-sample cache for the mem/<class> gauges: seven gauges share one
  /// memory_breakdown() walk per sampling instant.
  struct MemGaugeCache {
    std::int64_t t_ns = -1;
    obs::MemoryAccountant acc;
  };
  mutable MemGaugeCache mem_cache_;
  obs::RunProfile profile_;
  bool owns_log_clock_ = false;
  /// Atomic: client on_terminal callbacks fire on shard worker threads with
  /// several shards (relaxed increments commute; one shard's cost is nil).
  std::atomic<std::uint64_t> terminal_jobs_{0};
  /// Ground-truth liveness ledger every GridNode holds a pointer to: seconds
  /// at which each node address went down, or -1 while it is up. Maintained
  /// on every crash/restart (cheap assignments; read only for eviction
  /// stats).
  std::vector<double> down_since_;
  double last_arrival_sec_ = 0.0;
  double latest_release_sec_ = 0.0;
  bool built_ = false;
};

/// Reduce overlay maintenance rates for static-membership experiments.
void apply_light_maintenance(GridNodeConfig* config);

}  // namespace pgrid::grid
