// End-to-end grid lifecycle: jobs submitted -> owned -> matched -> executed
// -> results returned, across all five matchmakers, plus FIFO semantics,
// constraint enforcement, and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "grid/grid_system.h"

namespace pgrid::grid {
namespace {

workload::Workload tiny_workload(std::uint64_t seed = 7,
                                 std::size_t nodes = 24,
                                 std::size_t jobs = 60) {
  workload::WorkloadSpec spec;
  spec.node_count = nodes;
  spec.job_count = jobs;
  spec.mean_runtime_sec = 20.0;
  spec.mean_interarrival_sec = 0.5;
  spec.constraint_probability = 0.4;
  spec.client_count = 2;
  spec.seed = seed;
  return workload::generate(spec);
}

GridConfig base_config(MatchmakerKind kind, std::uint64_t seed = 1) {
  GridConfig config;
  config.kind = kind;
  config.seed = seed;
  config.light_maintenance = true;
  return config;
}

class AllMatchmakers : public ::testing::TestWithParam<MatchmakerKind> {};

TEST_P(AllMatchmakers, AllJobsCompleteAndReturnResults) {
  GridSystem system(base_config(GetParam()), tiny_workload());
  system.run();
  ASSERT_TRUE(system.finished()) << matchmaker_name(GetParam());
  const auto& collector = system.collector();
  EXPECT_EQ(collector.completed_count(), 60u);
  EXPECT_EQ(collector.started_count(), 60u);
  // A decentralized matchmaker may occasionally exhaust its attempts for a
  // generation (the client's resubmission is the designed recovery path);
  // it must stay rare, and every job must still complete.
  EXPECT_LE(collector.unmatched_count(), 2u);
  // Every job waited a non-negative, finite time.
  const Samples waits = collector.wait_times();
  EXPECT_EQ(waits.count(), 60u);
  EXPECT_GE(waits.min(), 0.0);
}

TEST_P(AllMatchmakers, NoJobLandsOnAnIneligibleNode) {
  // The first criterion of matchmaking (§2): constraints must be met.
  GridSystem system(base_config(GetParam(), 3), tiny_workload(9));
  system.run();
  ASSERT_TRUE(system.finished());
  const auto& w = system.workload();
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const auto& outcome = system.collector().job(j);
    ASSERT_TRUE(outcome.started());
    EXPECT_TRUE(w.jobs[j].constraints.satisfied_by(
        w.node_caps[outcome.run_node]))
        << "job " << j << " ran on ineligible node " << outcome.run_node;
  }
}

TEST_P(AllMatchmakers, DeterministicAcrossRuns) {
  auto run_once = [] {
    GridSystem system(base_config(GetParam(), 11), tiny_workload(13));
    system.run();
    std::vector<double> waits;
    for (std::size_t j = 0; j < 60; ++j) {
      waits.push_back(system.collector().job(j).wait_sec());
    }
    return waits;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllMatchmakers,
    ::testing::Values(MatchmakerKind::kCentralized, MatchmakerKind::kRandom,
                      MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic,
                      MatchmakerKind::kCanPush),
    [](const ::testing::TestParamInfo<MatchmakerKind>& info) {
      std::string name = matchmaker_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(GridLifecycle, FifoOrderOnASingleNode) {
  // One node, several jobs: they must execute in arrival (dispatch) order.
  workload::WorkloadSpec spec;
  spec.node_count = 1;
  spec.job_count = 5;
  spec.mean_runtime_sec = 10.0;
  spec.mean_interarrival_sec = 0.1;
  spec.constraint_probability = 0.0;
  spec.client_count = 1;
  spec.seed = 2;
  GridSystem system(base_config(MatchmakerKind::kCentralized),
                    workload::generate(spec));
  system.run();
  ASSERT_TRUE(system.finished());
  double prev_start = -1.0;
  for (std::size_t j = 0; j < 5; ++j) {
    const auto& outcome = system.collector().job(j);
    EXPECT_GT(outcome.started_sec, prev_start);
    prev_start = outcome.started_sec;
  }
  // One job at a time: total busy time equals the serialized sum.
  EXPECT_EQ(system.node(0).stats().jobs_executed, 5u);
}

TEST(GridLifecycle, WaitIncludesQueueingDelay) {
  // Load one node with back-to-back jobs: later jobs wait longer.
  workload::WorkloadSpec spec;
  spec.node_count = 1;
  spec.job_count = 4;
  spec.mean_runtime_sec = 50.0;
  spec.mean_interarrival_sec = 0.1;
  spec.constraint_probability = 0.0;
  spec.client_count = 1;
  spec.seed = 3;
  GridConfig config = base_config(MatchmakerKind::kCentralized);
  config.client.resubmit_base_sec = 10000.0;  // no resubmissions in this test
  GridSystem system(config, workload::generate(spec));
  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  EXPECT_LT(c.job(0).wait_sec(), 2.0);     // head of queue: network delay only
  EXPECT_GT(c.job(3).wait_sec(), 30.0);    // waited for predecessors
}

TEST(GridLifecycle, CentralizedBalancesBetterThanRandom) {
  // The premise of Fig. 2's comparison: global least-loaded placement beats
  // random placement on wait-time dispersion under load.
  const auto run_kind = [](MatchmakerKind kind) {
    workload::WorkloadSpec spec;
    spec.node_count = 20;
    spec.job_count = 400;
    spec.mean_runtime_sec = 30.0;
    spec.mean_interarrival_sec = 0.2;  // heavy: ~7.5x nominal capacity
    spec.constraint_probability = 0.0;
    spec.seed = 5;
    GridSystem system(GridConfig{.kind = kind, .seed = 9,
                                 .light_maintenance = true},
                      workload::generate(spec));
    system.run();
    return system.collector().wait_times().mean();
  };
  const double central = run_kind(MatchmakerKind::kCentralized);
  const double random = run_kind(MatchmakerKind::kRandom);
  EXPECT_LT(central, random);
}

// Without faults every job executes exactly once and no recovery protocol
// runs, over the overlays too: the owner/run pair stays where random walks
// and CAN-push placed it. Moving an owner record while its job completes
// would lose the JobDone, and the new owner would run the job again.
TEST(GridLifecycle, NodeStatsAccumulate) {
  for (const MatchmakerKind kind :
       {MatchmakerKind::kCentralized, MatchmakerKind::kRnTree,
        MatchmakerKind::kCanPush}) {
    GridSystem system(base_config(kind), tiny_workload());
    system.run();
    ASSERT_TRUE(system.finished()) << matchmaker_name(kind);
    const GridNodeStats total = system.aggregate_node_stats();
    EXPECT_EQ(total.jobs_executed, 60u) << matchmaker_name(kind);
    EXPECT_EQ(total.owner_recoveries, 0u) << matchmaker_name(kind);
    EXPECT_EQ(total.run_recoveries, 0u) << matchmaker_name(kind);
  }
}

// Without churn every job starts exactly once, so the collector's per-node
// start counts must equal what each node itself executed — including remote
// dispatches, where the start precedes the owner's match record.
TEST(GridLifecycle, CollectorNodeCountsMatchNodeStats) {
  for (const MatchmakerKind kind :
       {MatchmakerKind::kRnTree, MatchmakerKind::kCanPush}) {
    GridSystem system(base_config(kind), tiny_workload());
    system.run();
    ASSERT_TRUE(system.finished()) << matchmaker_name(kind);
    const std::vector<std::uint32_t>& counts = system.collector().node_jobs();
    ASSERT_EQ(counts.size(), system.node_count());
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      EXPECT_EQ(counts[i], system.node(i).stats().jobs_executed)
          << matchmaker_name(kind) << " node " << i;
    }
  }
}

// The retired streaming collector is refused rather than silently replaced
// by per-job records.
TEST(GridLifecycle, StreamingMetricsRequestIsRejected) {
  GridConfig config = base_config(MatchmakerKind::kRnTree);
  config.obs.streaming_metrics = true;
  EXPECT_DEATH(GridSystem(config, tiny_workload()), "streaming_metrics");
}

// Instant wiring also installs each RN-tree parent: the ring successor of
// the node's parent key, found by one binary search over the wired ring.
// With Chord maintenance off, the first aggregation rounds would otherwise
// be the only Chord lookups before a job arrives.
TEST(GridLifecycle, RnTreeParentsInstalledAtBuild) {
  GridConfig config;
  config.kind = MatchmakerKind::kRnTree;
  config.seed = 4;
  config.node.chord.run_maintenance = false;
  workload::Workload w = tiny_workload(11, 64, 20);
  // Ten aggregation rounds before the first arrival.
  for (auto& job : w.jobs) job.arrival_sec += 20.0;
  GridSystem system(config, std::move(w));
  system.build();

  std::vector<std::pair<Guid, net::NodeAddr>> ring;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    ring.emplace_back(system.node(i).id(), system.node(i).addr());
  }
  std::sort(ring.begin(), ring.end());
  const auto successor = [&](Guid key) {
    const auto it = std::lower_bound(
        ring.begin(), ring.end(), key,
        [](const auto& entry, Guid k) { return entry.first < k; });
    return it == ring.end() ? ring.front().second : it->second;
  };
  const auto check_parents = [&] {
    std::size_t roots = 0;
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      const rntree::RnTreeService& rn = *system.node(i).rntree();
      if (rn.is_root()) {
        ++roots;
        EXPECT_FALSE(rn.cached_parent().valid());
        continue;
      }
      EXPECT_EQ(rn.cached_parent().addr, successor(rn.parent_key()))
          << "node " << i;
    }
    EXPECT_EQ(roots, 1u);
  };
  check_parents();

  system.run_for(19.0);
  std::uint64_t lookups = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    lookups += system.node(i).chord()->stats().lookups_started;
  }
  EXPECT_EQ(lookups, 0u);
  check_parents();
  EXPECT_EQ(system.collector().started_count(), 0u);
}

TEST(GridLifecycle, NetworkTrafficIsAccounted) {
  GridSystem system(base_config(MatchmakerKind::kRnTree), tiny_workload());
  system.run();
  EXPECT_GT(system.net_stats().messages_sent, 100u);
  EXPECT_GT(system.net_stats().bytes_sent,
            system.net_stats().messages_sent * net::Network::kHeaderBytes);
}

TEST(GridLifecycle, InjectionHopsRecordedForOverlayKinds) {
  GridSystem rn(base_config(MatchmakerKind::kRnTree), tiny_workload());
  rn.run();
  ASSERT_TRUE(rn.finished());
  // RN injection = Chord lookup + random walk: some jobs must have hops.
  EXPECT_GT(rn.collector().injection_hops_stats().mean(), 0.5);

  GridSystem central(base_config(MatchmakerKind::kCentralized),
                     tiny_workload());
  central.run();
  EXPECT_DOUBLE_EQ(central.collector().injection_hops_stats().mean(), 0.0);
}

}  // namespace
}  // namespace pgrid::grid
