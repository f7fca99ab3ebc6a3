#pragma once
// Experiment metrics: per-job lifecycle timestamps, matchmaking cost,
// per-node load, and the summary statistics the paper's figures report
// (average and standard deviation of job wait time, Fig. 2).
//
// One JobOutcome record per job (80 bytes) is the only store: every
// summary is computed from the records, so it supports exact quantiles,
// per-job inspection (Collector::job) and the shard merge.

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/time.h"

namespace pgrid::metrics {

/// Lifecycle record for one submitted job (indexed by its sequence number).
struct JobOutcome {
  static constexpr double kNever = -1.0;

  double submit_sec = kNever;     // first client submission
  double owner_sec = kNever;      // reached its (final) owner node
  double matched_sec = kNever;    // run node chosen
  double started_sec = kNever;    // execution began on the run node
  double completed_sec = kNever;  // result returned to the client
  int match_hops = 0;             // overlay hops spent on matchmaking
  int injection_hops = 0;         // overlay hops routing job -> owner
  std::uint32_t resubmissions = 0;
  std::uint32_t requeues = 0;     // owner re-dispatched after a failure
  /// The run node of the latest match (a re-dispatch after a failure moves
  /// it); last_matched_sec is when that match was recorded.
  std::uint32_t run_node = 0;
  double last_matched_sec = kNever;
  /// The node that actually began execution (recorded by on_started's
  /// caller). Usually equals run_node; they diverge when a lost dispatch
  /// reply makes the owner re-match while the first run node proceeds, and
  /// run_node is still unset while the owner's match record is in flight.
  /// Per-node job counts are credited here.
  std::uint32_t start_node = 0;
  bool unmatched = false;         // matchmaking gave up

  [[nodiscard]] bool completed() const noexcept {
    return completed_sec != kNever;
  }
  [[nodiscard]] bool started() const noexcept { return started_sec != kNever; }
  /// The paper's "job wait time": submission until execution start.
  [[nodiscard]] double wait_sec() const noexcept {
    return started() ? started_sec - submit_sec : kNever;
  }
};

/// Central collector; one per experiment run. The grid layer writes events,
/// the benches read summaries.
class Collector {
 public:
  Collector(std::size_t job_count, std::size_t node_count);

  // --- event recording (called by the grid layer) -----------------------
  void on_submit(std::uint64_t seq, sim::SimTime t);
  void on_owner(std::uint64_t seq, sim::SimTime t, int injection_hops);
  void on_matched(std::uint64_t seq, sim::SimTime t, int hops,
                  std::uint32_t run_node);
  /// `start_node` is the caller's own address (the node beginning
  /// execution); per-node job counts credit it. The owner's on_matched can
  /// arrive later than the start on a remote dispatch, so run_node is not
  /// yet reliable here.
  void on_started(std::uint64_t seq, sim::SimTime t, std::uint32_t start_node);
  void on_completed(std::uint64_t seq, sim::SimTime t);
  void on_resubmit(std::uint64_t seq);
  void on_requeue(std::uint64_t seq);
  void on_unmatched(std::uint64_t seq);
  void add_node_busy(std::uint32_t node, double seconds);

  /// Rebuild this collector as the merge of a multi-shard run's per-shard
  /// parts. Each lifecycle event lands in the shard collector of the node or
  /// client that observed it; the merge reassembles per-job records
  /// field-wise with the same rules a direct write applies in event order —
  /// first event (minimum time) wins; owner and run node are last-wins
  /// (maximum time); per-job retry counters sum — then recomputes every
  /// aggregate counter from the merged records (node busy-seconds, which
  /// have no record backing, sum element-wise). So the result equals the
  /// record one collector would have written for the same trajectory,
  /// whatever the shard count. Idempotent: existing contents are discarded.
  void merge_from_shards(const std::vector<const Collector*>& parts);

  // --- summaries ----------------------------------------------------------
  [[nodiscard]] const JobOutcome& job(std::uint64_t seq) const {
    return jobs_.at(seq);
  }
  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_.size(); }
  [[nodiscard]] std::size_t completed_count() const noexcept {
    return completed_n_;
  }
  [[nodiscard]] std::size_t started_count() const noexcept {
    return started_n_;
  }
  [[nodiscard]] std::size_t unmatched_count() const noexcept {
    return unmatched_n_;
  }
  [[nodiscard]] std::uint64_t total_resubmissions() const noexcept {
    return resubmissions_n_;
  }
  [[nodiscard]] std::uint64_t total_requeues() const noexcept {
    return requeues_n_;
  }

  /// Wait times of all started jobs (the Fig. 2 quantity), in job order.
  [[nodiscard]] Samples wait_times() const;
  /// First-match hops of all matched jobs (the §3.3 "matchmaking cost").
  [[nodiscard]] RunningStats match_hops_stats() const;
  /// Injection hops of all jobs that reached an owner; the last owner
  /// event of a job counts.
  [[nodiscard]] RunningStats injection_hops_stats() const;

  /// Jobs executed per node — load-balance dispersion across the system.
  [[nodiscard]] RunningStats jobs_per_node() const;
  /// Jobs started on each node, indexed by node address.
  [[nodiscard]] const std::vector<std::uint32_t>& node_jobs() const noexcept {
    return node_jobs_;
  }
  /// Busy seconds per node.
  [[nodiscard]] RunningStats busy_per_node() const;
  /// Completion makespan (latest completion time).
  [[nodiscard]] double makespan_sec() const noexcept { return makespan_sec_; }

  /// Bytes behind job bookkeeping (record vector plus per-node arrays);
  /// capacity snapshot for memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Render a one-line summary (used by benches for per-cell rows).
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<JobOutcome> jobs_;

  // Aggregates kept beside the records (each event's dedup guard lives on
  // its record), so the counts are O(1) to read.
  std::size_t completed_n_ = 0;
  std::size_t started_n_ = 0;
  std::size_t unmatched_n_ = 0;
  std::uint64_t resubmissions_n_ = 0;
  std::uint64_t requeues_n_ = 0;
  double makespan_sec_ = 0.0;

  std::vector<std::uint32_t> node_jobs_;
  std::vector<double> node_busy_;
};

}  // namespace pgrid::metrics
