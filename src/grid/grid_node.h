#pragma once
// A desktop-grid peer (Fig. 1): simultaneously a potential injection node,
// owner node, and run node, stacked on the overlay the configured
// matchmaking framework requires (Chord + RN-Tree, CAN, or none for the
// centralized/random baselines).
//
// Run side: FIFO job queue, one job at a time (§2), heartbeats to each
// job's owner, owner-death recovery via overlay lookup + handoff.
// Owner side: matchmaking, dispatch, heartbeat monitoring, run-death
// recovery by re-matching (§2: "the job profile is replicated both on the
// owner and run nodes").

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "can/can_node.h"
#include "chord/chord_node.h"
#include "common/flat_map.h"
#include "common/phi_detector.h"
#include "common/rng.h"
#include "grid/job.h"
#include "grid/messages.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/memory.h"
#include "rntree/rn_tree.h"
#include "sim/simulator.h"

namespace pgrid::grid {

class CentralScheduler;

/// Run-queue service order (§5 fairness future work): plain FIFO, or
/// round-robin across submitting clients so one user's parameter sweep
/// cannot starve another user's small request.
enum class QueuePolicy { kFifo, kFairShare };

struct GridNodeConfig {
  MatchmakerKind kind = MatchmakerKind::kCentralized;
  QueuePolicy queue_policy = QueuePolicy::kFifo;

  /// §5 quotas: kill a job once it has run for declared runtime x this
  /// factor (<= 0 disables). Protects nodes from runaway/malicious jobs.
  double runaway_kill_factor = 0.0;
  /// §5 quotas: reject jobs declaring more output than this (0 = no limit).
  double max_output_kb = 0.0;

  // Grid protocol timers.
  sim::SimTime heartbeat_period = sim::SimTime::seconds(5.0);
  /// heartbeat_period × heartbeat_miss_threshold is φ's deadline for a
  /// peer with fewer than PhiDetector::kMinSamples observed heartbeat gaps,
  /// in both monitoring directions (owner→run and run→owner).
  int heartbeat_miss_threshold = 3;
  sim::SimTime rpc_timeout = sim::SimTime::seconds(2.0);
  int match_max_attempts = 8;
  sim::SimTime match_retry_delay = sim::SimTime::seconds(3.0);

  // RN-Tree matchmaking (§3.1).
  std::uint32_t rn_walk_len = 2;   // limited random walk after DHT mapping
  std::uint32_t rn_search_k = 4;   // extended search candidate target

  // TTL-walk baseline (§4 related work).
  std::uint32_t ttl_walk_ttl = 20;
  sim::SimTime walk_timeout = sim::SimTime::seconds(10.0);

  // CAN matchmaking (§3.2-3.3).
  std::uint32_t can_forward_budget = 24;  // "no candidate" upward forwards
  std::uint32_t can_max_push = 4;         // CAN-push relocation budget
  double can_push_threshold = 3.0;        // queue length counted as loaded
  double can_light_load = 1.0;            // region load counted as light

  // Overlay configurations.
  chord::ChordConfig chord;
  rntree::RnTreeConfig rntree;
  can::CanConfig can;
};

struct GridNodeStats {
  std::uint64_t jobs_executed = 0;
  std::uint64_t jobs_killed_quota = 0;  // runaway jobs terminated
  std::uint64_t quota_rejects = 0;      // dispatches refused on output quota
  std::uint64_t dispatch_rejects = 0;
  std::uint64_t owner_recoveries = 0;  // run node replaced a dead owner
  std::uint64_t run_recoveries = 0;    // owner replaced a dead run node
  std::uint64_t can_pushes = 0;
  std::uint64_t can_forwards = 0;
  std::uint64_t walks_started = 0;  // TTL-walk probes launched
  std::uint64_t walks_failed = 0;   // probes that found nothing (TTL/timeout)
  // Detector quality (classified by the ground-truth liveness ledger).
  std::uint64_t fp_evictions = 0;  // evicted a peer that was actually alive
  std::uint64_t fn_evictions = 0;  // slower than a fixed deadline would be
  Samples detection_latency;  // actual death → eviction, seconds
};

class GridNode final : public net::MessageHandler {
 public:
  /// `down_since` is the stats-only liveness ledger, indexed by address:
  /// the sim time (in seconds) at which the address went down, or a
  /// negative value while it is up. It only classifies evictions as false
  /// positives / late detections — never a protocol decision.
  GridNode(net::Network& network, std::uint32_t index, Guid id,
           ResourceVector caps, double virtual_coord, GridNodeConfig config,
           CentralScheduler* central, metrics::Collector* collector,
           const std::vector<double>* down_since, Rng rng);
  ~GridNode() override;

  void on_message(net::NodeAddr from, net::MessagePtr msg) override;

  /// Start grid services (heartbeats, owner monitor, RN-Tree aggregation).
  /// Call after the overlay has been wired or joined.
  void start();

  /// Crash: drop all state. The system marks the address dead on the network.
  void crash();

  /// Come back after a crash: rejoin the overlay through `bootstrap` (or
  /// start a fresh singleton overlay if none) and restart grid services.
  void restart(Peer bootstrap);

  // --- observers -----------------------------------------------------------
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return rpc_.self(); }
  [[nodiscard]] Guid id() const noexcept { return id_; }
  [[nodiscard]] Peer self_peer() const noexcept { return Peer{addr(), id_}; }
  [[nodiscard]] const ResourceVector& caps() const noexcept { return caps_; }
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// True while a job occupies the CPU (the sampler's busy gauge).
  [[nodiscard]] bool executing() const noexcept { return executing_; }
  [[nodiscard]] const GridNodeStats& stats() const noexcept { return stats_; }

  /// Jobs in the queue (including the one executing): the load gauge every
  /// matchmaker balances on.
  [[nodiscard]] double queue_length() const noexcept;
  /// Seconds of work remaining in the queue (the centralized scheduler's
  /// global-knowledge gauge).
  [[nodiscard]] double queue_work_remaining() const;
  [[nodiscard]] std::size_t owned_jobs() const noexcept { return owned_.size(); }
  /// Sequence numbers of jobs this node currently owns (monitoring role).
  [[nodiscard]] std::vector<std::uint64_t> owned_seqs() const;
  /// Sequence numbers of jobs in this node's run queue.
  [[nodiscard]] std::vector<std::uint64_t> queued_seqs() const;
  /// Owner of each job in this node's run queue, in queue order: the peers
  /// this node monitors as a run node.
  [[nodiscard]] std::vector<Peer> queued_owners() const;

  [[nodiscard]] chord::ChordNode* chord() noexcept { return chord_.get(); }
  [[nodiscard]] can::CanNode* can() noexcept { return can_.get(); }
  [[nodiscard]] rntree::RnTreeService* rntree() noexcept { return rn_.get(); }

  /// Fold this node's state into `acc`: overlay routing/neighbor tables,
  /// grid-role bookkeeping (run queue, owned jobs, pending walks), and the
  /// RPC pending slabs of every endpoint the node stacks. Capacity
  /// snapshot — cold observation path only.
  void account_memory(obs::MemoryAccountant& acc) const {
    std::size_t overlay = 0;
    std::size_t rpc_bytes = rpc_.memory_bytes();
    if (chord_ != nullptr) {
      overlay += chord_->table_memory_bytes();
      rpc_bytes += chord_->rpc_memory_bytes();
    }
    if (can_ != nullptr) {
      overlay += can_->table_memory_bytes();
      rpc_bytes += can_->rpc_memory_bytes();
    }
    if (rn_ != nullptr) {
      overlay += rn_->table_memory_bytes();
      rpc_bytes += rn_->rpc_memory_bytes();
    }
    const std::size_t grid_state =
        queue_.size() * sizeof(QueuedJob) +
        owned_.capacity() * sizeof(std::pair<Guid, OwnedJob>) +
        pending_walks_.capacity() *
            sizeof(std::pair<std::uint64_t, PendingWalk>);
    acc.add(obs::MemClass::kOverlayTables, overlay);
    acc.add(obs::MemClass::kGridState, grid_state);
    acc.add(obs::MemClass::kRpcPending, rpc_bytes);
  }

 private:
  // --- injection side -------------------------------------------------------
  void on_submit(net::NodeAddr from, net::MessagePtr& msg);
  void inject(const JobProfile& profile);

  // --- owner routing (walk / push / forward) -------------------------------
  void handle_job_to_owner(const JobProfile& profile, std::uint32_t walk,
                           std::uint32_t push, std::uint32_t forward,
                           std::uint32_t hops);
  void forward_to_owner(Peer next, const JobProfile& profile,
                        std::uint32_t walk, std::uint32_t push,
                        std::uint32_t forward, std::uint32_t hops);
  /// CAN-push decision: the +dim neighbor to relocate toward, or invalid.
  [[nodiscard]] Peer can_push_target(std::size_t* out_dim);
  /// CAN upward forward when no local candidate satisfies the job.
  [[nodiscard]] Peer can_upward_target(const JobProfile& profile) const;
  [[nodiscard]] Peer can_up_neighbor_in_dim(std::size_t dim) const;

  // --- owner side -----------------------------------------------------------
  struct OwnedJob {
    JobProfile profile;
    Peer run = kNoPeer;
    bool dispatched = false;
    int attempts = 0;
    std::uint32_t forward_budget = 0;  // CAN: remaining ownership moves
    /// Run-node heartbeat inter-arrivals; seeded whenever `run` is set.
    PhiDetector phi;
  };

  void become_owner(const JobProfile& profile, std::uint32_t hops,
                    std::uint32_t forward_budget = 0);
  void match_and_dispatch(Guid guid);
  /// Resolve a run node for the job; cb(peer, matchmaking_hops).
  void matchmake(const JobProfile& profile,
                 std::function<void(Peer, int)> cb);
  void dispatch(Guid guid, Peer run, int match_hops);
  void monitor_owned_jobs();
  /// Classify an eviction decision against the liveness ledger
  /// (false positive / detection latency / late detection). Stats only.
  void note_eviction(net::NodeAddr peer);
  void on_heartbeat(net::NodeAddr from, net::MessagePtr& msg);
  void on_job_done(const JobDone& msg);
  void on_owner_handoff(net::NodeAddr from, net::MessagePtr& msg);

  /// CAN candidate set per §3.2: self plus dominating neighbors, filtered
  /// by the job's constraints; least-loaded first.
  [[nodiscard]] std::vector<std::pair<Peer, double>> can_candidates(
      const JobProfile& profile) const;

  // --- TTL-walk baseline (§4) ---------------------------------------------
  void start_walk(const JobProfile& profile, std::function<void(Peer, int)> cb);
  void on_walk_probe(net::MessagePtr& msg);
  void on_walk_result(const WalkResult& msg);

  // --- run side ---------------------------------------------------------------
  struct QueuedJob {
    JobProfile profile;
    Peer owner;
    bool recovering_owner = false;
    /// Owner heartbeat-ack inter-arrivals; seeded whenever `owner` is set.
    PhiDetector phi;
    /// Span of the DispatchJob that queued this job (unsampled for most):
    /// completion fires from a bare timer, so the run leg's Result/JobDone
    /// sends re-enter the trace through this saved context.
    obs::TraceContext ctx;
  };

  void on_dispatch(net::NodeAddr from, net::MessagePtr& msg);
  void maybe_start_next();
  /// Fair-share: rotate the next eligible client's oldest job to the queue
  /// front before execution starts.
  void apply_queue_policy();
  void complete_front();
  /// Terminate the running (runaway) job at its quota deadline.
  void kill_front_for_quota();
  void do_heartbeats();
  void recover_owner(Guid guid);
  void update_load_gauge();

  net::Network& net_;
  net::RpcEndpoint rpc_;
  std::uint32_t index_;
  Guid id_;
  ResourceVector caps_;
  GridNodeConfig config_;
  CentralScheduler* central_;
  metrics::Collector* collector_;
  const std::vector<double>* down_since_;
  Rng rng_;

  std::unique_ptr<chord::ChordNode> chord_;
  std::unique_ptr<rntree::RnTreeService> rn_;
  std::unique_ptr<can::CanNode> can_;

  bool running_ = false;
  std::deque<QueuedJob> queue_;
  bool executing_ = false;
  sim::EventId completion_event_ = sim::kInvalidEvent;
  double executing_end_sec_ = 0.0;
  net::NodeAddr last_served_client_ = net::kNullAddr;

  // Owner/run bookkeeping lives in sorted flat vectors (FlatMap): probed on
  // every heartbeat and matchmaking step, and iteration order matches the
  // std::map they replaced, so the simulation stays deterministic. Holders
  // of references re-fetch after any insert/erase (vector semantics).
  FlatMap<Guid, OwnedJob> owned_;

  struct PendingWalk {
    std::function<void(Peer, int)> cb;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };
  std::uint64_t next_probe_id_ = 1;
  FlatMap<std::uint64_t, PendingWalk> pending_walks_;

  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;
  std::unique_ptr<sim::PeriodicTask> owner_monitor_task_;

  GridNodeStats stats_;
};

}  // namespace pgrid::grid
