// Failure recovery (§2): run-node death -> owner re-matches; owner death ->
// run node finds a new owner via the overlay; both die -> client resubmits.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "grid/grid_system.h"
#include "net/fault_plane.h"

namespace pgrid::grid {
namespace {

workload::Workload recovery_workload(std::uint64_t seed, std::size_t nodes,
                                     std::size_t jobs, double runtime,
                                     bool fixed_runtime = true) {
  workload::WorkloadSpec spec;
  spec.node_count = nodes;
  spec.job_count = jobs;
  spec.mean_runtime_sec = runtime;
  spec.mean_interarrival_sec = 0.5;
  spec.constraint_probability = 0.0;  // keep every node eligible
  spec.client_count = 1;
  spec.seed = seed;
  workload::Workload w = workload::generate(spec);
  if (fixed_runtime) {
    // Deterministic service times so crash timing is controlled precisely.
    for (auto& job : w.jobs) job.runtime_sec = runtime;
  }
  return w;
}

GridConfig recovery_config(MatchmakerKind kind, std::uint64_t seed = 1) {
  GridConfig config;
  config.kind = kind;
  config.seed = seed;
  config.node.heartbeat_period = sim::SimTime::seconds(3.0);
  config.node.heartbeat_miss_threshold = 2;
  config.client.resubmit_base_sec = 400.0;
  return config;
}

/// The grid node currently executing job `seq`, or npos.
std::size_t find_run_node(GridSystem& system, std::uint64_t seq) {
  const auto& outcome = system.collector().job(seq);
  if (!outcome.started()) return SIZE_MAX;
  return outcome.run_node;
}

/// Crash an owner that a job queued on another live node monitors, so that
/// run node survives and must hand off monitoring. The victim is read from
/// the run queues, not from the owners' records: under duplication a job
/// can be owned twice, and the collector's run node may be watching the
/// other copy's owner. Returns the crashed index (addresses are indices),
/// or SIZE_MAX if no such owner exists yet.
std::size_t crash_one_remote_owner(GridSystem& system) {
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (!system.node_running(i)) continue;
    for (const Peer& owner : system.node(i).queued_owners()) {
      const auto victim = static_cast<std::size_t>(owner.addr);
      if (owner.valid() && victim != i && system.node_running(victim)) {
        system.crash_node(victim);
        return victim;
      }
    }
  }
  return SIZE_MAX;
}

TEST(GridRecovery, RunNodeDeathTriggersRerun) {
  GridSystem system(recovery_config(MatchmakerKind::kCentralized),
                    recovery_workload(1, 8, 10, 200.0));
  system.run_for(30.0);  // all jobs injected and started queuing

  // Kill whichever node is executing job 0 (runtime is fixed at 200 s, so
  // the job is guaranteed to still be in flight at t=30 s).
  const std::size_t victim = find_run_node(system, 0);
  ASSERT_NE(victim, SIZE_MAX);
  ASSERT_FALSE(system.collector().job(0).completed());
  system.crash_node(victim);

  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  // Every job completed despite the crash; job 0 (at least) was requeued.
  EXPECT_EQ(c.completed_count(), 10u);
  EXPECT_GE(c.total_requeues(), 1u);
  EXPECT_GE(system.aggregate_node_stats().run_recoveries, 1u);
  // The re-run landed on a live node.
  EXPECT_NE(c.job(0).run_node, victim);
}

TEST(GridRecovery, OwnerDeathHandsOffMonitoring) {
  GridSystem system(recovery_config(MatchmakerKind::kRnTree, 2),
                    recovery_workload(2, 10, 6, 300.0));
  system.run_for(40.0);

  const std::size_t owner_idx = crash_one_remote_owner(system);
  ASSERT_NE(owner_idx, SIZE_MAX) << "no suitable owner found";

  system.run();
  ASSERT_TRUE(system.finished());
  EXPECT_EQ(system.collector().completed_count(), 6u);
  // Run nodes detected the dead owner and re-replicated the profile.
  EXPECT_GE(system.aggregate_node_stats().owner_recoveries, 1u);
}

TEST(GridRecovery, DoubleFailureFallsBackToClientResubmission) {
  GridSystem system(recovery_config(MatchmakerKind::kCentralized, 3),
                    recovery_workload(3, 6, 4, 250.0));
  system.run_for(30.0);

  // Kill both the run node of job 0 and its owner (with the centralized
  // baseline the injection node is the owner; kill every node that holds
  // any state for job 0: brute force — crash run node and all owners).
  const std::size_t run_idx = find_run_node(system, 0);
  ASSERT_NE(run_idx, SIZE_MAX);
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (system.node(i).owned_jobs() > 0) owners.push_back(i);
  }
  system.crash_node(run_idx);
  for (std::size_t i : owners) system.crash_node(i);

  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  // The orphaned jobs were resubmitted and eventually completed.
  EXPECT_GE(c.total_resubmissions(), 1u);
  EXPECT_EQ(c.completed_count(), 4u);
}

TEST(GridRecovery, CrashedNodesQueueIsRerunElsewhere) {
  GridSystem system(recovery_config(MatchmakerKind::kCentralized, 4),
                    recovery_workload(4, 4, 12, 100.0));
  system.run_for(20.0);
  // The least capable? Just kill node 0 regardless; its whole queue must
  // resurface elsewhere.
  const double queued = system.node(0).queue_length();
  system.crash_node(0);
  system.run();
  ASSERT_TRUE(system.finished());
  EXPECT_EQ(system.collector().completed_count(), 12u);
  if (queued > 0) {
    EXPECT_GE(system.collector().total_requeues(), 1u);
  }
}

TEST(GridRecovery, RestartedNodeRejoinsAndServes) {
  GridSystem system(recovery_config(MatchmakerKind::kRnTree, 5),
                    recovery_workload(5, 8, 20, 50.0));
  system.run_for(10.0);
  system.crash_node(3);
  system.run_for(30.0);
  EXPECT_FALSE(system.node_running(3));
  system.restart_node(3);
  system.run_for(60.0);
  EXPECT_TRUE(system.node_running(3));
  system.run();
  ASSERT_TRUE(system.finished());
  EXPECT_EQ(system.collector().completed_count(), 20u);
}

// Owner-failure recovery must tolerate a network that duplicates
// heartbeats: a doubled heartbeat from the (dead) owner's last breath or
// from the run node must neither resurrect the dead owner in anyone's
// tables nor double-complete a job. Deterministic: fixed seed, fixed
// runtimes, duplication drawn from the fault plane's seeded RNG.
TEST(GridRecovery, OwnerDeathRecoversUnderDuplicatedHeartbeats) {
  GridSystem system(recovery_config(MatchmakerKind::kRnTree, 7),
                    recovery_workload(7, 10, 6, 300.0));
  system.build();
  system.network().fault_plane().set_duplication(0.5);
  system.run_for(40.0);

  const std::size_t owner_idx = crash_one_remote_owner(system);
  ASSERT_NE(owner_idx, SIZE_MAX) << "no suitable owner found";

  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  // Exactly once despite every message being a coin-flip duplicate.
  EXPECT_EQ(c.completed_count(), 6u);
  EXPECT_GE(system.aggregate_node_stats().owner_recoveries, 1u);
  EXPECT_GT(system.net_stats().messages_duplicated, 0u);
}

// Same shape under reordering: heartbeats (and the recovery protocol's own
// messages) can arrive behind later sends. A stale pre-crash heartbeat
// arriving after the eviction decision must not corrupt monitoring state.
TEST(GridRecovery, OwnerDeathRecoversUnderReorderedHeartbeats) {
  GridSystem system(recovery_config(MatchmakerKind::kRnTree, 8),
                    recovery_workload(8, 10, 6, 300.0));
  system.build();
  system.network().fault_plane().set_reorder(0.5, sim::SimTime::seconds(2.0));
  system.run_for(40.0);

  const std::size_t owner_idx = crash_one_remote_owner(system);
  ASSERT_NE(owner_idx, SIZE_MAX) << "no suitable owner found";

  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  EXPECT_EQ(c.completed_count(), 6u);
  EXPECT_GE(system.aggregate_node_stats().owner_recoveries, 1u);
  EXPECT_GT(system.net_stats().messages_reordered, 0u);
}

// End-to-end with the φ-accrual detector driving evictions: recovery
// happens, and with the ground-truth oracle attached the eviction of a
// genuinely crashed node is not a false positive.
TEST(GridRecovery, PhiDetectorDrivesOwnerRecovery) {
  GridConfig config = recovery_config(MatchmakerKind::kRnTree, 9);
  GridSystem system(config, recovery_workload(9, 10, 6, 300.0));
  system.run_for(40.0);

  const std::size_t owner_idx = crash_one_remote_owner(system);
  ASSERT_NE(owner_idx, SIZE_MAX) << "no suitable owner found";

  system.run();
  ASSERT_TRUE(system.finished());
  const auto& c = system.collector();
  EXPECT_EQ(c.completed_count(), 6u);
  const auto stats = system.aggregate_node_stats();
  EXPECT_GE(stats.owner_recoveries, 1u);
  // The victim was genuinely dead: no eviction was a false positive, and
  // each classified detection carries a positive latency.
  EXPECT_EQ(stats.fp_evictions, 0u);
  for (double latency : stats.detection_latency.values()) {
    EXPECT_GT(latency, 0.0);
  }
}

// A run node that adopts a new owner must judge it by a fresh detector, not
// by the dead owner's silence. The first heartbeat to the new owner is
// lost; with the dead owner's history that one missed ack would already
// look like many seconds of silence and condemn a live owner.
TEST(GridRecovery, AdoptedOwnerSurvivesOneMissedAck) {
  GridConfig config = recovery_config(MatchmakerKind::kRnTree, 2);
  config.node.heartbeat_miss_threshold = 3;  // 9 s cold-start deadline
  GridSystem system(config, recovery_workload(2, 10, 6, 300.0));
  system.run_for(40.0);

  std::size_t owner_idx = SIZE_MAX;
  std::size_t run_idx = SIZE_MAX;
  std::uint64_t job = 0;
  for (std::size_t i = 0; i < system.node_count() && owner_idx == SIZE_MAX;
       ++i) {
    for (std::uint64_t seq : system.node(i).owned_seqs()) {
      const auto& outcome = system.collector().job(seq);
      if (outcome.started() && !outcome.completed() &&
          outcome.run_node != i) {
        owner_idx = i;
        run_idx = outcome.run_node;
        job = seq;
        break;
      }
    }
  }
  ASSERT_NE(owner_idx, SIZE_MAX) << "no suitable owner found";
  system.crash_node(owner_idx);

  // Step until the run node has handed the job to a new owner.
  const GridNode& runner = system.node(run_idx);
  for (int step = 0; step < 1200 && runner.stats().owner_recoveries == 0;
       ++step) {
    system.run_for(0.05);
  }
  ASSERT_EQ(runner.stats().owner_recoveries, 1u);
  std::size_t new_owner = SIZE_MAX;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto seqs = system.node(i).owned_seqs();
    if (i != owner_idx &&
        std::find(seqs.begin(), seqs.end(), job) != seqs.end()) {
      new_owner = i;
    }
  }
  ASSERT_NE(new_owner, SIZE_MAX);
  ASSERT_NE(new_owner, run_idx);

  // Drop the run node's traffic to the new owner for one heartbeat period.
  net::FaultPlane& faults = system.network().fault_plane();
  const auto cut = faults.cut("blip", {runner.addr()},
                              {system.node(new_owner).addr()},
                              /*one_way=*/true);
  faults.heal_after(cut, config.node.heartbeat_period);

  system.run();
  ASSERT_TRUE(system.finished());
  EXPECT_EQ(system.collector().completed_count(), 6u);
  EXPECT_EQ(runner.stats().owner_recoveries, 1u);
  EXPECT_EQ(system.aggregate_node_stats().fp_evictions, 0u);
}

// Under churn, peers keep leaving the Chord fingers, successor lists and
// predecessor slots. Each one's detector must leave with it: a node holds
// detectors only for its predecessor and its routing peers.
TEST(GridRecovery, PhiDetectorsStayWithinChordRoutingState) {
  GridConfig config = recovery_config(MatchmakerKind::kRnTree, 11);
  config.loss_probability = 0.01;
  GridSystem system(config, recovery_workload(11, 128, 200, 100.0, false));
  system.build();
  sim::ChurnModel churn;
  churn.mean_lifetime_sec = 600.0;
  churn.mean_downtime_sec = 120.0;
  churn.churn_fraction = 0.5;
  system.enable_churn(churn);
  system.run_for(600.0);

  std::size_t checked = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const chord::ChordNode* node = system.node(i).chord();
    if (node == nullptr || !node->running()) continue;
    std::vector<net::NodeAddr> peers;
    const auto add = [&](const chord::Peer& p) {
      if (p.valid() && p.addr != node->addr() &&
          std::find(peers.begin(), peers.end(), p.addr) == peers.end()) {
        peers.push_back(p.addr);
      }
    };
    for (int f = 0; f < chord::ChordNode::kBits; ++f) add(node->finger(f));
    for (const chord::Peer& p : node->successor_list()) add(p);
    EXPECT_LE(node->detector_count(), peers.size() + 1) << "node " << i;
    ++checked;
  }
  EXPECT_GT(checked, system.node_count() / 2);
}

class ChurnSweep : public ::testing::TestWithParam<MatchmakerKind> {};

TEST_P(ChurnSweep, JobsCompleteUnderContinuousChurn) {
  GridConfig config = recovery_config(GetParam(), 6);
  GridSystem system(config, recovery_workload(6, 24, 40, 30.0));
  system.build();
  sim::ChurnModel churn;
  churn.mean_lifetime_sec = 600.0;
  churn.mean_downtime_sec = 60.0;
  churn.churn_fraction = 0.5;
  system.enable_churn(churn);
  system.run();
  ASSERT_TRUE(system.finished()) << matchmaker_name(GetParam());
  const auto& c = system.collector();
  // The vast majority completes; a handful may be abandoned after repeated
  // double failures, but the system must not wedge.
  EXPECT_GE(c.completed_count(), 36u) << matchmaker_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ChurnSweep,
    ::testing::Values(MatchmakerKind::kCentralized, MatchmakerKind::kRnTree,
                      MatchmakerKind::kCanBasic),
    [](const ::testing::TestParamInfo<MatchmakerKind>& info) {
      std::string name = matchmaker_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace pgrid::grid
