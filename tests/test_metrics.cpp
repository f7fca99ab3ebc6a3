// Metrics collector: lifecycle recording, summary statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/metrics.h"

namespace pgrid::metrics {
namespace {

using sim::SimTime;

TEST(Collector, LifecycleTimestamps) {
  Collector c(3, 4);
  c.on_submit(0, SimTime::seconds(1.0));
  c.on_owner(0, SimTime::seconds(1.2), 4);
  c.on_matched(0, SimTime::seconds(1.5), 3, 2);
  c.on_started(0, SimTime::seconds(2.0), 2);
  c.on_completed(0, SimTime::seconds(12.0));

  const JobOutcome& j = c.job(0);
  EXPECT_DOUBLE_EQ(j.submit_sec, 1.0);
  EXPECT_DOUBLE_EQ(j.wait_sec(), 1.0);
  EXPECT_EQ(j.match_hops, 3);
  EXPECT_EQ(j.injection_hops, 4);
  EXPECT_EQ(j.run_node, 2u);
  EXPECT_TRUE(j.completed());
  EXPECT_EQ(c.completed_count(), 1u);
  EXPECT_EQ(c.started_count(), 1u);
  EXPECT_DOUBLE_EQ(c.makespan_sec(), 12.0);
}

TEST(Collector, FirstSubmitAndStartWin) {
  Collector c(1, 1);
  c.on_submit(0, SimTime::seconds(1.0));
  c.on_submit(0, SimTime::seconds(5.0));  // resubmission does not reset
  c.on_started(0, SimTime::seconds(7.0), 0);
  c.on_started(0, SimTime::seconds(9.0), 0);  // duplicate execution
  EXPECT_DOUBLE_EQ(c.job(0).wait_sec(), 6.0);
}

TEST(Collector, WaitTimesOnlyCoverStartedJobs) {
  Collector c(3, 1);
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_started(0, SimTime::seconds(4.0), 0);
  c.on_submit(1, SimTime::seconds(0.0));
  c.on_started(1, SimTime::seconds(8.0), 0);
  c.on_submit(2, SimTime::seconds(0.0));  // never started
  const Samples waits = c.wait_times();
  EXPECT_EQ(waits.count(), 2u);
  EXPECT_DOUBLE_EQ(waits.mean(), 6.0);
  // Sample (N−1) estimator: deviations ±2 over two samples → sqrt(8/1).
  EXPECT_DOUBLE_EQ(waits.stdev(), std::sqrt(8.0));
}

TEST(Collector, CountersAccumulate) {
  Collector c(2, 2);
  c.on_resubmit(0);
  c.on_resubmit(0);
  c.on_requeue(1);
  c.on_unmatched(1);
  EXPECT_EQ(c.total_resubmissions(), 2u);
  EXPECT_EQ(c.total_requeues(), 1u);
  EXPECT_EQ(c.unmatched_count(), 1u);
}

TEST(Collector, PerNodeLoadAccounting) {
  Collector c(4, 3);
  for (std::uint64_t j = 0; j < 4; ++j) {
    c.on_submit(j, SimTime::seconds(0.0));
    c.on_matched(j, SimTime::seconds(1.0), 0, j % 2);  // nodes 0 and 1 only
    c.on_started(j, SimTime::seconds(1.0), j % 2);
  }
  c.add_node_busy(0, 10.0);
  c.add_node_busy(0, 5.0);
  c.add_node_busy(1, 3.0);
  const RunningStats jobs = c.jobs_per_node();
  EXPECT_EQ(jobs.count(), 3u);
  EXPECT_DOUBLE_EQ(jobs.max(), 2.0);
  EXPECT_DOUBLE_EQ(jobs.min(), 0.0);  // node 2 idle
  const RunningStats busy = c.busy_per_node();
  EXPECT_DOUBLE_EQ(busy.max(), 15.0);
  EXPECT_DOUBLE_EQ(busy.sum(), 18.0);
}

// On a remote dispatch the run node starts the job before the owner's
// on_matched record names that node; the start still counts at the node
// that began execution.
TEST(Collector, StartBeforeMatchCreditsStartingNode) {
  Collector c(1, 3);
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_started(0, SimTime::seconds(1.0), 2);
  c.on_matched(0, SimTime::seconds(1.1), 4, 2);
  EXPECT_EQ(c.node_jobs(), (std::vector<std::uint32_t>{0, 0, 1}));
  EXPECT_EQ(c.started_count(), 1u);
}

TEST(Collector, SummaryMentionsCompletion) {
  Collector c(2, 1);
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_started(0, SimTime::seconds(2.0), 0);
  c.on_completed(0, SimTime::seconds(3.0));
  const std::string s = c.summary();
  EXPECT_NE(s.find("completed 1/2"), std::string::npos);
}

TEST(Collector, MatchHopsKeepFirstMatch) {
  Collector c(1, 2);
  c.on_matched(0, SimTime::seconds(1.0), 5, 0);
  c.on_matched(0, SimTime::seconds(2.0), 9, 1);  // re-dispatch after failure
  EXPECT_EQ(c.job(0).match_hops, 5);
  EXPECT_EQ(c.job(0).run_node, 1u);  // run node reflects the latest
}

// The aggregates follow the record rules on the tricky paths: duplicate
// events (first wins), re-dispatch (first-match hops, last injection hops),
// unmatched and never-completed jobs.
TEST(Collector, AggregatesFollowRecordRules) {
  Collector c(4, 3);
  // Job 0: clean lifecycle.
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_owner(0, SimTime::seconds(0.5), 2);
  c.on_matched(0, SimTime::seconds(1.0), 3, 1);
  c.on_started(0, SimTime::seconds(2.0), 1);
  c.on_completed(0, SimTime::seconds(10.0));
  // Job 1: duplicate submit/start (first wins), requeue, re-dispatch with
  // new injection hops (last wins), then completes.
  c.on_submit(1, SimTime::seconds(1.0));
  c.on_submit(1, SimTime::seconds(9.0));
  c.on_owner(1, SimTime::seconds(1.5), 4);
  c.on_matched(1, SimTime::seconds(2.0), 6, 2);
  c.on_requeue(1);
  c.on_resubmit(1);
  c.on_owner(1, SimTime::seconds(5.0), 1);
  c.on_matched(1, SimTime::seconds(6.0), 2, 0);
  c.on_started(1, SimTime::seconds(7.0), 0);
  c.on_started(1, SimTime::seconds(8.0), 0);
  c.on_completed(1, SimTime::seconds(20.0));
  // Job 2: submitted, never matched.
  c.on_submit(2, SimTime::seconds(3.0));
  c.on_unmatched(2);
  // Job 3: started but never completes (killed / lost).
  c.on_submit(3, SimTime::seconds(4.0));
  c.on_matched(3, SimTime::seconds(5.0), 1, 0);
  c.on_started(3, SimTime::seconds(6.0), 0);
  c.add_node_busy(0, 12.0);
  c.add_node_busy(1, 8.0);

  EXPECT_EQ(c.job_count(), 4u);
  EXPECT_EQ(c.completed_count(), 2u);
  EXPECT_EQ(c.started_count(), 3u);
  EXPECT_EQ(c.unmatched_count(), 1u);
  EXPECT_EQ(c.total_resubmissions(), 1u);
  EXPECT_EQ(c.total_requeues(), 1u);
  EXPECT_DOUBLE_EQ(c.makespan_sec(), 20.0);

  const Samples waits = c.wait_times();
  EXPECT_EQ(waits.values(), (std::vector<double>{2.0, 6.0, 2.0}));
  EXPECT_DOUBLE_EQ(waits.mean(), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(waits.stdev(), std::sqrt(16.0 / 3.0));

  const RunningStats match = c.match_hops_stats();  // {3, 6, 1}
  EXPECT_EQ(match.count(), 3u);
  EXPECT_DOUBLE_EQ(match.mean(), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(match.min(), 1.0);
  EXPECT_DOUBLE_EQ(match.max(), 6.0);

  const RunningStats inj = c.injection_hops_stats();  // {2, 1}
  EXPECT_EQ(inj.count(), 2u);
  EXPECT_DOUBLE_EQ(inj.mean(), 1.5);
  EXPECT_DOUBLE_EQ(inj.min(), 1.0);

  EXPECT_EQ(c.node_jobs(), (std::vector<std::uint32_t>{2, 1, 0}));
  EXPECT_DOUBLE_EQ(c.busy_per_node().sum(), 20.0);
  EXPECT_GE(c.memory_bytes(), 4 * sizeof(JobOutcome));
}

// An owner event can arrive after the job completed (a late re-homing
// record); the last one wins, so the job's injection hops are the latest.
TEST(Collector, OwnerAfterCompletionWins) {
  Collector c(1, 1);
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_owner(0, SimTime::seconds(1.0), 3);
  c.on_started(0, SimTime::seconds(2.0), 0);
  c.on_completed(0, SimTime::seconds(5.0));
  c.on_owner(0, SimTime::seconds(6.0), 5);

  EXPECT_DOUBLE_EQ(c.job(0).owner_sec, 6.0);
  EXPECT_EQ(c.job(0).injection_hops, 5);
  EXPECT_EQ(c.completed_count(), 1u);
  const RunningStats inj = c.injection_hops_stats();
  EXPECT_EQ(inj.count(), 1u);
  EXPECT_DOUBLE_EQ(inj.mean(), 5.0);
}

}  // namespace
}  // namespace pgrid::metrics
