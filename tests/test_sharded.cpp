// Sharded execution (DESIGN.md §17): partitioner properties, the
// barrier-window edge cases of the conservative-lookahead engine (driven
// through synthetic drain hooks, no network), and the determinism contract —
// a fixed (seed, config) produces bit-identical per-job outcomes for every
// shard count, 0 and 1 (one shard) included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "grid/grid_system.h"
#include "metrics/metrics.h"
#include "sim/shard_plan.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/workload.h"

namespace {

using namespace pgrid;

// --- plan_shards: contiguous balanced arcs ----------------------------------

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(ShardPlan, CoversEveryEntityExactlyOnceInContiguousArcs) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 129u}) {
    for (std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      // A non-trivial permutation (reverse order) — the plan follows the
      // traversal order, not the entity indices.
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = n - 1 - i;
      const sim::ShardPlan plan = sim::plan_shards(order, shards);
      ASSERT_EQ(plan.shards, shards);
      ASSERT_EQ(plan.shard_of.size(), n);
      ASSERT_EQ(plan.arc_begin.size(), shards + 1u);
      EXPECT_EQ(plan.arc_begin.front(), 0u);
      EXPECT_EQ(plan.arc_begin.back(), n);
      // Arc s owns exactly the contiguous slice order[arc_begin[s]..next).
      for (std::uint32_t s = 0; s < shards; ++s) {
        ASSERT_LE(plan.arc_begin[s], plan.arc_begin[s + 1]);
        for (std::size_t i = plan.arc_begin[s]; i < plan.arc_begin[s + 1];
             ++i) {
          EXPECT_EQ(plan.shard_of[order[i]], s)
              << "n=" << n << " shards=" << shards << " pos=" << i;
        }
      }
      for (std::uint32_t s : plan.shard_of) EXPECT_LT(s, shards);
    }
  }
}

TEST(ShardPlan, ArcSizesDifferByAtMostOneAndFrontArcsTakeExtra) {
  const sim::ShardPlan plan = sim::plan_shards(identity_order(10), 4);
  // 10 = 4 * 2 + 2: the first two arcs get the extra entity.
  EXPECT_EQ(plan.arc_size(0), 3u);
  EXPECT_EQ(plan.arc_size(1), 3u);
  EXPECT_EQ(plan.arc_size(2), 2u);
  EXPECT_EQ(plan.arc_size(3), 2u);

  for (std::size_t n : {5u, 31u, 100u}) {
    for (std::uint32_t shards : {2u, 3u, 7u}) {
      const sim::ShardPlan p = sim::plan_shards(identity_order(n), shards);
      std::size_t lo = n, hi = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        lo = std::min(lo, p.arc_size(s));
        hi = std::max(hi, p.arc_size(s));
      }
      EXPECT_LE(hi - lo, 1u) << "n=" << n << " shards=" << shards;
    }
  }
}

TEST(ShardPlan, MoreShardsThanEntitiesLeavesTrailingArcsEmpty) {
  const sim::ShardPlan plan = sim::plan_shards(identity_order(3), 5);
  EXPECT_EQ(plan.arc_size(0), 1u);
  EXPECT_EQ(plan.arc_size(1), 1u);
  EXPECT_EQ(plan.arc_size(2), 1u);
  EXPECT_EQ(plan.arc_size(3), 0u);
  EXPECT_EQ(plan.arc_size(4), 0u);
  EXPECT_EQ(plan.arc_begin.back(), 3u);
}

// --- ShardedEngine barrier-window edges -------------------------------------

// Synthetic cross-shard transport: senders park (arrival, flag) pairs for a
// destination shard; the engine's drain hook moves them into that shard's
// queue at the start of the next round. This is the ShardBus contract with
// everything except the timing stripped away.
struct SyntheticMail {
  struct Parked {
    sim::SimTime at;
    bool* fired;
    double* fired_at_sec;
  };
  std::vector<std::vector<Parked>> inbox;
  std::mutex mu;

  explicit SyntheticMail(std::size_t shards) : inbox(shards) {}

  void park(std::size_t to, sim::SimTime at, bool* fired,
            double* fired_at_sec) {
    const std::lock_guard<std::mutex> lock(mu);
    inbox[to].push_back({at, fired, fired_at_sec});
  }

  void drain_into(std::size_t s, sim::Simulator& sim) {
    std::vector<Parked> batch;
    {
      const std::lock_guard<std::mutex> lock(mu);
      batch.swap(inbox[s]);
    }
    for (const Parked& p : batch) {
      sim.schedule_at(p.at, [&sim, p] {
        *p.fired = true;
        *p.fired_at_sec = sim.now().sec();
      });
    }
  }
};

TEST(ShardedEngine, MessageAtExactLookaheadHorizonArrivesOnTime) {
  // The tightest legal cross-shard message: sent at t, arriving at t + L.
  // The conservative argument needs it to land in a strictly later window;
  // the receiver must still execute it at exactly t + L.
  const sim::SimTime lookahead = sim::SimTime::millis(20);
  sim::ShardedEngine engine(2, lookahead);
  SyntheticMail mail(2);
  engine.set_drain([&](std::size_t s) { mail.drain_into(s, engine.shard(s)); });

  bool fired = false;
  double fired_at_sec = -1.0;
  const sim::SimTime send_time = sim::SimTime::seconds(1);
  engine.shard(0).schedule_at(send_time, [&] {
    mail.park(1, send_time + lookahead, &fired, &fired_at_sec);
  });

  const std::uint64_t executed = engine.run_until(sim::SimTime::seconds(2));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(fired_at_sec, (send_time + lookahead).sec());
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(engine.executed(), 2u);
}

TEST(ShardedEngine, IdleStretchesCostOneWindowNotHorizonOverLookahead) {
  // Events 999 s apart with a 20 ms lookahead: a naive fixed-step schedule
  // would need ~50k windows; W jumps to the global minimum next event, so
  // the whole run takes a handful of barrier rounds.
  sim::ShardedEngine engine(2, sim::SimTime::millis(20));
  bool a = false, b = false;
  engine.shard(0).schedule_at(sim::SimTime::seconds(1), [&] { a = true; });
  engine.shard(1).schedule_at(sim::SimTime::seconds(1000), [&] { b = true; });

  engine.run_until(sim::SimTime::seconds(1000));
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_LE(engine.windows(), 3u);
}

TEST(ShardedEngine, RunUntilIsInclusiveOfHorizonAcrossShards) {
  // Same contract as Simulator::run_until: events at t == horizon execute,
  // events one tick later stay queued for the next leg.
  sim::ShardedEngine engine(2, sim::SimTime::millis(20));
  const sim::SimTime horizon = sim::SimTime::seconds(5);
  bool at_horizon = false, past_horizon = false;
  engine.shard(1).schedule_at(horizon, [&] { at_horizon = true; });
  engine.shard(0).schedule_at(horizon + sim::SimTime::nanos(1),
                              [&] { past_horizon = true; });

  engine.run_until(horizon);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
  EXPECT_EQ(engine.queued(), 1u);
  EXPECT_EQ(engine.now(), horizon);

  // The straggler runs on the next leg — multi-leg runs resume cleanly.
  engine.run_until(horizon + sim::SimTime::seconds(1));
  EXPECT_TRUE(past_horizon);
  EXPECT_EQ(engine.queued(), 0u);
}

TEST(ShardedEngine, SingleShardRunsInlineWithDrain) {
  // One shard degenerates to a plain sequential run (the reference point for
  // shard-count independence); the drain hook still fires so parked input
  // from a previous leg is not stranded.
  sim::ShardedEngine engine(1, sim::SimTime::millis(20));
  SyntheticMail mail(1);
  engine.set_drain([&](std::size_t s) { mail.drain_into(s, engine.shard(s)); });
  bool fired = false;
  double fired_at_sec = -1.0;
  mail.park(0, sim::SimTime::seconds(3), &fired, &fired_at_sec);

  engine.run_until(sim::SimTime::seconds(10));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(fired_at_sec, 3.0);
}

TEST(ShardedEngine, ThreadInitRunsOncePerWorker) {
  sim::ShardedEngine engine(3, sim::SimTime::millis(20));
  std::mutex mu;
  std::vector<std::size_t> inited;
  engine.set_thread_init([&](std::size_t s) {
    const std::lock_guard<std::mutex> lock(mu);
    inited.push_back(s);
  });
  engine.shard(2).schedule_at(sim::SimTime::seconds(1), [] {});
  engine.run_until(sim::SimTime::seconds(1));
  std::sort(inited.begin(), inited.end());
  EXPECT_EQ(inited, (std::vector<std::size_t>{0, 1, 2}));
}

// --- fixed-seed determinism: shard-count independence ------------------------

workload::Workload small_workload() {
  workload::WorkloadSpec spec;
  spec.node_count = 48;
  spec.job_count = 160;
  spec.mean_runtime_sec = 30.0;
  spec.mean_interarrival_sec = 0.05;
  spec.constraint_probability = 0.2;
  spec.client_count = 4;
  spec.seed = 11;
  return workload::generate(spec);
}

grid::GridConfig sharded_config(grid::MatchmakerKind kind, std::size_t shards) {
  grid::GridConfig gc;
  gc.kind = kind;
  gc.seed = 7;
  gc.light_maintenance = true;
  gc.shards = shards;
  return gc;
}

void expect_jobs_identical(const metrics::Collector& ref,
                           const metrics::Collector& got,
                           std::size_t job_count, const char* label) {
  for (std::uint64_t seq = 0; seq < job_count; ++seq) {
    const metrics::JobOutcome& a = ref.job(seq);
    const metrics::JobOutcome& b = got.job(seq);
    SCOPED_TRACE(std::string(label) + " seq=" + std::to_string(seq));
    EXPECT_EQ(a.submit_sec, b.submit_sec);
    EXPECT_EQ(a.owner_sec, b.owner_sec);
    EXPECT_EQ(a.matched_sec, b.matched_sec);
    EXPECT_EQ(a.started_sec, b.started_sec);
    EXPECT_EQ(a.completed_sec, b.completed_sec);
    EXPECT_EQ(a.match_hops, b.match_hops);
    EXPECT_EQ(a.injection_hops, b.injection_hops);
    EXPECT_EQ(a.resubmissions, b.resubmissions);
    EXPECT_EQ(a.requeues, b.requeues);
    EXPECT_EQ(a.run_node, b.run_node);
    EXPECT_EQ(a.last_matched_sec, b.last_matched_sec);
    EXPECT_EQ(a.start_node, b.start_node);
    EXPECT_EQ(a.unmatched, b.unmatched);
  }
}

TEST(ShardedGrid, FixedSeedOutcomesIdenticalAcrossShardCounts) {
  // 0 and 1 both run one shard on the calling thread; every other count must
  // reproduce that trajectory exactly.
  for (const grid::MatchmakerKind kind :
       {grid::MatchmakerKind::kRnTree, grid::MatchmakerKind::kCanBasic,
        grid::MatchmakerKind::kCanPush}) {
    const char* label = grid::matchmaker_name(kind);
    const workload::Workload w = small_workload();
    grid::GridSystem reference(sharded_config(kind, 0), w);
    reference.build();
    reference.run();
    EXPECT_EQ(reference.collector().completed_count(), w.jobs.size())
        << label;

    for (const std::size_t shards : {1u, 2u, 3u, 4u}) {
      grid::GridSystem system(sharded_config(kind, shards), w);
      system.build();
      system.run();
      SCOPED_TRACE(std::string(label) + " shards=" + std::to_string(shards));
      EXPECT_EQ(reference.collector().completed_count(),
                system.collector().completed_count());
      EXPECT_EQ(reference.sim_events(), system.sim_events());
      const net::NetworkStats& a = reference.net_stats();
      const net::NetworkStats& b = system.net_stats();
      EXPECT_EQ(a.messages_sent, b.messages_sent);
      EXPECT_EQ(a.messages_delivered, b.messages_delivered);
      EXPECT_EQ(a.messages_dropped_dead, b.messages_dropped_dead);
      EXPECT_EQ(a.bytes_sent, b.bytes_sent);
      EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
      EXPECT_EQ(a.sent_by_kind, b.sent_by_kind);
      EXPECT_EQ(a.delivered_by_kind, b.delivered_by_kind);
      expect_jobs_identical(reference.collector(), system.collector(),
                            w.jobs.size(), label);
      EXPECT_DOUBLE_EQ(reference.collector().makespan_sec(),
                       system.collector().makespan_sec());
      EXPECT_DOUBLE_EQ(reference.collector().wait_times().mean(),
                       system.collector().wait_times().mean());
      EXPECT_EQ(reference.collector().node_jobs(),
                system.collector().node_jobs());
    }
  }
}

}  // namespace
