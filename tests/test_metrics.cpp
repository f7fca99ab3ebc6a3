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
// that began execution, in both storage modes.
TEST(Collector, StartBeforeMatchCreditsStartingNode) {
  for (const bool streaming : {false, true}) {
    Collector c(1, 3, streaming);
    c.on_submit(0, SimTime::seconds(0.0));
    c.on_started(0, SimTime::seconds(1.0), 2);
    c.on_matched(0, SimTime::seconds(1.1), 4, 2);
    EXPECT_EQ(c.node_jobs(), (std::vector<std::uint32_t>{0, 0, 1}))
        << "streaming=" << streaming;
    EXPECT_EQ(c.started_count(), 1u);
  }
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

// The streaming collector must report the same aggregates as batch mode for
// the same event sequence — including the tricky paths: duplicate events
// (first wins), re-dispatch (last injection hops win), unmatched and
// never-started jobs.
TEST(Collector, StreamingMatchesBatchAggregates) {
  auto drive = [](Collector& c) {
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
  };
  Collector batch(4, 3, /*streaming=*/false);
  Collector stream(4, 3, /*streaming=*/true);
  drive(batch);
  drive(stream);
  ASSERT_FALSE(batch.streaming());
  ASSERT_TRUE(stream.streaming());

  EXPECT_EQ(stream.job_count(), batch.job_count());
  EXPECT_EQ(stream.completed_count(), batch.completed_count());
  EXPECT_EQ(stream.started_count(), batch.started_count());
  EXPECT_EQ(stream.unmatched_count(), batch.unmatched_count());
  EXPECT_EQ(stream.total_resubmissions(), batch.total_resubmissions());
  EXPECT_EQ(stream.total_requeues(), batch.total_requeues());
  EXPECT_DOUBLE_EQ(stream.makespan_sec(), batch.makespan_sec());

  const RunningStats bw = batch.wait_stats();
  const RunningStats sw = stream.wait_stats();
  EXPECT_EQ(sw.count(), bw.count());
  EXPECT_DOUBLE_EQ(sw.mean(), bw.mean());
  EXPECT_DOUBLE_EQ(sw.sample_stdev(), bw.sample_stdev());

  const RunningStats bm = batch.match_hops_stats();
  const RunningStats sm = stream.match_hops_stats();
  EXPECT_EQ(sm.count(), bm.count());
  EXPECT_DOUBLE_EQ(sm.mean(), bm.mean());

  const RunningStats bi = batch.injection_hops_stats();
  const RunningStats si = stream.injection_hops_stats();
  EXPECT_EQ(si.count(), bi.count());
  EXPECT_DOUBLE_EQ(si.mean(), bi.mean());

  const Histogram bh = batch.wait_histogram();
  const Histogram sh = stream.wait_histogram();
  ASSERT_EQ(sh.bucket_count(), bh.bucket_count());
  for (std::size_t i = 0; i < bh.bucket_count(); ++i) {
    EXPECT_EQ(sh.bucket(i), bh.bucket(i)) << "bucket " << i;
  }

  // Streaming retires completed jobs: only job 3 (started, unfinished) and
  // nothing else stays in flight, so memory tracks the backlog.
  EXPECT_GT(stream.memory_bytes(), 0u);
}

// Per-job accessors stay available in batch mode and the streaming
// constructor does not reserve the per-job vector.
TEST(Collector, StreamingModeSkipsPerJobRecords) {
  Collector stream(1000000, 4, /*streaming=*/true);
  stream.on_submit(17, SimTime::seconds(1.0));
  stream.on_started(17, SimTime::seconds(2.0), 0);
  stream.on_completed(17, SimTime::seconds(3.0));
  EXPECT_EQ(stream.job_count(), 1000000u);
  EXPECT_EQ(stream.completed_count(), 1u);
  // O(buckets + in-flight), nowhere near 10^6 job records.
  EXPECT_LT(stream.memory_bytes(), 100000u);
}

}  // namespace
}  // namespace pgrid::metrics
