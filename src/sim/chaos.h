#pragma once
// Scenario-driven chaos harness: randomized fault schedules against a full
// desktop grid, with safety invariants checked after the dust settles.
//
// A chaos run builds a GridSystem, derives a fault schedule from the seed
// (partitions with scheduled heals, crash bursts, congestion/loss windows,
// gray nodes, duplication, reordering), runs the workload to completion plus
// a settle period, and then checks:
//   1. exactly-once completion — every job reaches a terminal state exactly
//      once, and duplicate Result deliveries never double-complete a job;
//   2. overlay re-convergence — after every fault heals, the Chord ring's
//      successor pointers walk the live nodes in Guid order, and the CAN
//      zones of live nodes tile the space (every probe point has exactly
//      one owner);
//   3. no monitor leaks — no live node still owns or queues a job once all
//      jobs are terminal.
// Any violation is reported with a one-line replay command that reproduces
// the failing schedule from its seed.
//
// Self-healing has one fixed path, with no switch: φ-accrual detectors on
// every layer, the CAN gap check in every update round, and the liveness
// oracle that classifies evictions. Every summary line ends with their
// counters: phi(susp= fp= fn=) repairs=.

#include <cstdint>
#include <string>
#include <vector>

#include "grid/job.h"

namespace pgrid::sim {

struct ChaosConfig {
  grid::MatchmakerKind kind = grid::MatchmakerKind::kRnTree;
  std::uint64_t seed = 1;
  std::size_t nodes = 20;
  std::size_t jobs = 40;
  double mean_runtime_sec = 40.0;
  double mean_interarrival_sec = 5.0;

  /// Fault rounds are injected at seed-derived times inside
  /// [0, fault_window_sec]; each lasts up to max_fault_duration_sec. After
  /// the window a clear_all() barrier heals everything that remains.
  int fault_rounds = 6;
  double fault_window_sec = 500.0;
  double max_fault_duration_sec = 90.0;
  /// Quiet time after the run before invariants are checked (overlay
  /// maintenance needs a few periods to re-converge).
  double settle_sec = 300.0;

  // Fault-class toggles (all on by default; tests narrow them).
  bool enable_partitions = true;
  bool enable_crashes = true;
  bool enable_loss = true;
  bool enable_gray = true;
  bool enable_duplication = true;
  bool enable_reorder = true;
  // Extended fault classes — default OFF: the drawn schedule is a pure
  // function of (seed, enabled-class vector), so turning these on changes
  // every round of the run. Existing seeds stay reproducible with them off.
  /// Topology-correlated crash bursts: a contiguous Chord arc / CAN slab
  /// (15-35% of the live nodes) fails at once and rejoins later.
  bool enable_correlated = false;
  /// Rapid join-leave flapping: a contiguous 5-20% of the nodes cycles
  /// through short crash/recover dwells for the round's duration.
  bool enable_flapping = false;

  /// Record a trace; on violation it is exported to trace_jsonl_path
  /// (when non-empty) for post-mortem.
  bool trace = false;
  std::string trace_jsonl_path;

  /// Print the drawn fault schedule and a sim-time progress heartbeat to
  /// stderr (debugging slow or stuck schedules).
  bool verbose = false;

  /// The command that replays exactly this schedule.
  [[nodiscard]] std::string replay_command() const;
};

struct ChaosStats {
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t duplicate_results = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions_cut = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_fault = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  // Maintenance envelopes (net::Batch) put on the wire / handed to a
  // receiver, and the inner messages they carried.
  std::uint64_t batches_sent = 0;
  std::uint64_t batch_parts_sent = 0;
  std::uint64_t batches_delivered = 0;
  double sim_duration_sec = 0.0;
  // Self-healing instrumentation. GridSystem's liveness oracle classifies
  // the grid layer's evictions.
  std::uint64_t suspicions = 0;    // φ downgrades across all layers
  std::uint64_t repairs = 0;       // Chord succ refreshes + CAN gap claims
  std::uint64_t fp_evictions = 0;  // evicted-but-alive
  std::uint64_t fn_evictions = 0;  // later than a fixed deadline would be
};

struct ChaosReport {
  ChaosConfig config;
  bool ok = true;
  /// Human-readable invariant violations (empty iff ok).
  std::vector<std::string> violations;
  /// Non-empty iff !ok: one command reproducing the failing schedule.
  std::string replay_command;
  ChaosStats stats;

  [[nodiscard]] std::string summary() const;
};

/// Run one chaos scenario to completion. Deterministic: the same config
/// (including seed) always produces the same report.
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& config);

/// Parse a matchmaker_name() string ("rn-tree", "can", "can-push", ...).
/// Returns false on unknown names.
[[nodiscard]] bool parse_matchmaker(const std::string& name,
                                    grid::MatchmakerKind* out);

}  // namespace pgrid::sim
