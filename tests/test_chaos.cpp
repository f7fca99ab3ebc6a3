// Chaos matrix: randomized fault schedules against every P2P matchmaker,
// with the harness's safety invariants (exactly-once completion, overlay
// re-convergence, no monitor leaks) checked after every run.
//
// Each (matchmaker, seed) cell is an independent schedule of partitions,
// crash bursts, congestion, gray nodes, duplication, and reordering. A
// failing cell prints the replay command so the schedule can be reproduced
// outside the test binary.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "grid/job.h"
#include "sim/chaos.h"
#include "sim/runner.h"

namespace pgrid {
namespace {

using grid::MatchmakerKind;
using KindSeed = std::tuple<MatchmakerKind, int>;

// Test name of one (matchmaker, seed) cell, e.g. "can_push_seed3".
std::string cell_name(const testing::TestParamInfo<KindSeed>& info) {
  std::string name = grid::matchmaker_name(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

class ChaosMatrix : public testing::TestWithParam<KindSeed> {};

TEST_P(ChaosMatrix, InvariantsHoldUnderRandomFaultSchedule) {
  sim::ChaosConfig cfg;
  cfg.kind = std::get<0>(GetParam());
  cfg.seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  const sim::ChaosReport report = sim::run_chaos(cfg);
  EXPECT_TRUE(report.ok) << report.summary();
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "invariant violated: " << v
                  << "\n  replay: " << report.replay_command;
  }
  // The workload must actually finish: abandoned jobs would let the leak
  // check pass vacuously.
  EXPECT_EQ(report.stats.completed, cfg.jobs);
  EXPECT_EQ(report.stats.abandoned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosMatrix,
    testing::Combine(testing::Values(MatchmakerKind::kRnTree,
                                     MatchmakerKind::kCanBasic,
                                     MatchmakerKind::kCanPush),
                     testing::Range(1, 21)),
    cell_name);

// Cells that ended with two live owners of one CAN point before the gap
// check ran in every update round (DESIGN.md §15): can 33, can-push 132.
// can 79 and can-push 133 end the same way when an unchanged claim is
// never checked again: no replay on the hello and no answer from the
// double claim's winner (DESIGN.md §16).
INSTANTIATE_TEST_SUITE_P(
    Regressions, ChaosMatrix,
    testing::Values(KindSeed{MatchmakerKind::kCanBasic, 33},
                    KindSeed{MatchmakerKind::kCanPush, 132},
                    KindSeed{MatchmakerKind::kCanBasic, 79},
                    KindSeed{MatchmakerKind::kCanPush, 133}),
    cell_name);

// Extended matrix: topology-correlated crash bursts and join-leave flapping
// added to the drawn fault classes, against the same self-healing machinery
// as every run (φ-accrual liveness, the CAN gap check). The invariants do
// not weaken: exactly-once completion, overlay re-convergence, and no
// monitor leaks must hold through arc/slab-wide blackouts and rapid
// membership oscillation.
class SelfHealingChaosMatrix : public testing::TestWithParam<KindSeed> {};

TEST_P(SelfHealingChaosMatrix, InvariantsHoldUnderCorrelatedFaults) {
  sim::ChaosConfig cfg;
  cfg.kind = std::get<0>(GetParam());
  cfg.seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  cfg.enable_correlated = true;
  cfg.enable_flapping = true;
  const sim::ChaosReport report = sim::run_chaos(cfg);
  EXPECT_TRUE(report.ok) << report.summary();
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "invariant violated: " << v
                  << "\n  replay: " << report.replay_command;
  }
  EXPECT_EQ(report.stats.completed, cfg.jobs);
  EXPECT_EQ(report.stats.abandoned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SelfHealingChaosMatrix,
    testing::Combine(testing::Values(MatchmakerKind::kRnTree,
                                     MatchmakerKind::kCanBasic,
                                     MatchmakerKind::kCanPush),
                     testing::Range(1, 5)),
    cell_name);

// Cells that fail when a site creates a liveness record, or points one at
// a new peer, without seeding its φ detector (DESIGN.md §15). can 106, can
// 132 and rn-tree 155 failed before every such site was seeded: two owner
// monitors leaked and a CAN tiling broke. rn-tree 172 leaks a monitor if
// the record a run node self-adopts as owner goes unseeded: nothing ever
// evicts it after the job moves to another owner. can 108 ended with two
// owners of one CAN point when the gap check ran every 15 s instead of in
// every update round. can-push 83 left a point with no owner while the gap
// check probed only the first uncovered face: the faces of sliver zones
// one ulp wide stay uncovered, and probing them every round starved the
// real hole behind the node's other faces. can 100 ends with two owners of
// one CAN point when an unchanged claim is never checked again (DESIGN.md
// §16). rn-tree 95 ended with a diverged Chord ring (two nodes each naming
// the other's true successor) before Chord maintenance sent state only on
// change (DESIGN.md §16).
INSTANTIATE_TEST_SUITE_P(
    Regressions, SelfHealingChaosMatrix,
    testing::Values(KindSeed{MatchmakerKind::kCanBasic, 106},
                    KindSeed{MatchmakerKind::kCanBasic, 132},
                    KindSeed{MatchmakerKind::kRnTree, 155},
                    KindSeed{MatchmakerKind::kRnTree, 172},
                    KindSeed{MatchmakerKind::kCanBasic, 108},
                    KindSeed{MatchmakerKind::kCanPush, 83},
                    KindSeed{MatchmakerKind::kCanBasic, 100},
                    KindSeed{MatchmakerKind::kRnTree, 95}),
    cell_name);

// Batched matrix: every maintenance round runs inside a batch scope, so
// maintenance traffic rides Batch envelopes, which the fault plane drops,
// duplicates and reorders whole. These cells draw the plain matrix's first
// schedules and hold the same invariants, and they also check that
// envelopes really carried traffic through the faults, so the invariants
// cannot pass on a run whose rounds never coalesced anything.
class BatchedChaosMatrix : public testing::TestWithParam<KindSeed> {};

TEST_P(BatchedChaosMatrix, InvariantsHoldWithBatchedMaintenance) {
  sim::ChaosConfig cfg;
  cfg.kind = std::get<0>(GetParam());
  cfg.seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  const sim::ChaosReport report = sim::run_chaos(cfg);
  EXPECT_TRUE(report.ok) << report.summary();
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "invariant violated: " << v
                  << "\n  replay: " << report.replay_command;
  }
  EXPECT_EQ(report.stats.completed, cfg.jobs);
  EXPECT_EQ(report.stats.abandoned, 0u);
  EXPECT_GT(report.stats.batches_sent, 0u);
  EXPECT_GT(report.stats.batches_delivered, 0u);
  // Singleton groups go out plain, so every envelope holds two parts or more.
  EXPECT_GE(report.stats.batch_parts_sent, 2 * report.stats.batches_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, BatchedChaosMatrix,
    testing::Combine(testing::Values(MatchmakerKind::kRnTree,
                                     MatchmakerKind::kCanBasic,
                                     MatchmakerKind::kCanPush),
                     testing::Range(1, 5)),
    cell_name);

// The full standard matrix (24 cells: 3 kinds x seeds 1..8) plus the
// extended matrix (12 cells: 3 kinds x seeds 1..4), run through
// parallel_for_cells and again serially: chaos runs are confined to their
// worker thread (thread-local logger clock and message pool), so verdicts
// and stats must be identical however cells map onto threads. Closes the
// roadmap item on running the chaos matrices through the parallel runner.
TEST(Chaos, ParallelMatrixVerdictsMatchSerial) {
  struct Cell {
    MatchmakerKind kind;
    std::uint64_t seed;
    bool extended;
  };
  std::vector<Cell> cells;
  for (const MatchmakerKind kind :
       {MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic,
        MatchmakerKind::kCanPush}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      cells.push_back({kind, seed, false});
    }
  }
  for (const MatchmakerKind kind :
       {MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic,
        MatchmakerKind::kCanPush}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      cells.push_back({kind, seed, true});
    }
  }
  const auto run_cell = [&cells](std::size_t i) {
    sim::ChaosConfig cfg;
    cfg.kind = cells[i].kind;
    cfg.seed = cells[i].seed;
    if (cells[i].extended) {
      cfg.enable_correlated = true;
      cfg.enable_flapping = true;
    }
    return sim::run_chaos(cfg);
  };

  std::vector<sim::ChaosReport> parallel(cells.size());
  // Explicit thread count: single-core CI hosts would otherwise degenerate
  // to one worker and compare serial against serial.
  sim::parallel_for_cells(cells.size(), 4, [&](std::size_t i) {
    parallel[i] = run_cell(i);
  });

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::ChaosReport serial = run_cell(i);
    SCOPED_TRACE(serial.config.replay_command());
    EXPECT_EQ(serial.ok, parallel[i].ok);
    EXPECT_EQ(serial.summary(), parallel[i].summary());
    EXPECT_EQ(serial.stats.completed, parallel[i].stats.completed);
    EXPECT_EQ(serial.stats.crashes, parallel[i].stats.crashes);
    EXPECT_EQ(serial.stats.dropped_partition,
              parallel[i].stats.dropped_partition);
    EXPECT_EQ(serial.stats.duplicated, parallel[i].stats.duplicated);
    EXPECT_EQ(serial.stats.reordered, parallel[i].stats.reordered);
    EXPECT_TRUE(parallel[i].ok) << parallel[i].summary();
  }
}

TEST(Chaos, ExtendedClassesAreDeterministic) {
  sim::ChaosConfig cfg;
  cfg.kind = MatchmakerKind::kCanBasic;
  cfg.seed = 7;
  cfg.enable_correlated = true;
  cfg.enable_flapping = true;
  const sim::ChaosReport a = sim::run_chaos(cfg);
  const sim::ChaosReport b = sim::run_chaos(cfg);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stats.crashes, b.stats.crashes);
  EXPECT_EQ(a.stats.suspicions, b.stats.suspicions);
  EXPECT_EQ(a.stats.repairs, b.stats.repairs);
  EXPECT_EQ(a.stats.fp_evictions, b.stats.fp_evictions);
}

TEST(Chaos, ExtendedFlagsAppearInReplayCommand) {
  sim::ChaosConfig cfg;
  cfg.kind = MatchmakerKind::kRnTree;
  cfg.seed = 31;
  cfg.enable_correlated = true;
  cfg.enable_flapping = true;
  const std::string cmd = cfg.replay_command();
  EXPECT_NE(cmd.find("--correlated"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--flapping"), std::string::npos) << cmd;
  // Default config advertises none of them: existing replay commands keep
  // reproducing their original schedules.
  sim::ChaosConfig legacy;
  const std::string legacy_cmd = legacy.replay_command();
  EXPECT_EQ(legacy_cmd.find("--correlated"), std::string::npos) << legacy_cmd;
  EXPECT_EQ(legacy_cmd.find("--flapping"), std::string::npos) << legacy_cmd;
}

TEST(Chaos, DeterministicReport) {
  sim::ChaosConfig cfg;
  cfg.kind = MatchmakerKind::kCanPush;
  cfg.seed = 42;
  const sim::ChaosReport a = sim::run_chaos(cfg);
  const sim::ChaosReport b = sim::run_chaos(cfg);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.crashes, b.stats.crashes);
  EXPECT_EQ(a.stats.dropped_partition, b.stats.dropped_partition);
  EXPECT_EQ(a.stats.dropped_fault, b.stats.dropped_fault);
  EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
  EXPECT_EQ(a.stats.reordered, b.stats.reordered);
}

TEST(Chaos, ReplayCommandNamesTheSchedule) {
  sim::ChaosConfig cfg;
  cfg.kind = MatchmakerKind::kRnTree;
  cfg.seed = 977;
  cfg.nodes = 12;
  cfg.jobs = 17;
  const std::string cmd = cfg.replay_command();
  EXPECT_NE(cmd.find("--kind=rn-tree"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--seed=977"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--nodes=12"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--jobs=17"), std::string::npos) << cmd;
}

TEST(Chaos, ParseMatchmakerRoundTrips) {
  for (const MatchmakerKind kind :
       {MatchmakerKind::kCentralized, MatchmakerKind::kRandom,
        MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic,
        MatchmakerKind::kCanPush, MatchmakerKind::kTtlWalk}) {
    MatchmakerKind parsed{};
    ASSERT_TRUE(sim::parse_matchmaker(grid::matchmaker_name(kind), &parsed))
        << grid::matchmaker_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  MatchmakerKind parsed{};
  EXPECT_FALSE(sim::parse_matchmaker("no-such-matchmaker", &parsed));
}

}  // namespace
}  // namespace pgrid
