// Chord under failures: successor-list repair, routing around dead nodes,
// predecessor cleanup, rejoin after crash, lost-peer probing and the ring
// merge after a partition heals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "chord/messages.h"
#include "chord/ring.h"
#include "net/fault_plane.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::chord {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1)
      : net(simulator, Rng{seed},
            net::LatencyModel{sim::SimTime::millis(20),
                              sim::SimTime::millis(80)}),
        ring(net, ChordConfig{}, Rng{seed + 1}) {}

  sim::Simulator simulator;
  net::Network net;
  ChordRing ring;

  void build(std::size_t n, std::uint64_t salt = 0xC0FFEE) {
    for (std::size_t i = 0; i < n; ++i) {
      ring.add_host(Guid::of(salt + i * 104729));
    }
    ring.wire_instantly();
  }

  void settle(double seconds) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(seconds));
  }

  Peer lookup_from(std::size_t host, Guid key, int* hops_out = nullptr) {
    Peer result = kNoPeer;
    ring.host(host).node().lookup(key, [&](Peer r, int h) {
      result = r;
      if (hops_out) *hops_out = h;
    });
    settle(120);
    return result;
  }
};

TEST(ChordFailure, SuccessorListSurvivesSuccessorCrash) {
  Fixture fx;
  fx.build(16);
  ChordNode& node = fx.ring.host(0).node();
  const Peer old_succ = node.successor();

  // Find and crash the successor.
  for (std::size_t i = 0; i < 16; ++i) {
    if (fx.ring.host(i).node().addr() == old_succ.addr) {
      fx.ring.crash(i);
      break;
    }
  }
  fx.settle(30);  // stabilization detects the death and repairs

  const Peer new_succ = node.successor();
  ASSERT_TRUE(new_succ.valid());
  EXPECT_NE(new_succ.addr, old_succ.addr);
  // The new successor is the oracle's next live node after us.
  EXPECT_EQ(new_succ.id,
            fx.ring.oracle_successor(Guid{node.id().value() + 1}).id);
}

TEST(ChordFailure, LookupsRouteAroundDeadNodes) {
  Fixture fx{2};
  fx.build(64);
  // Crash 8 random nodes (not node 0, our prober).
  Rng rng{42};
  for (int k = 0; k < 8; ++k) {
    fx.ring.crash(1 + rng.index(63));
  }
  fx.settle(60);
  for (int t = 0; t < 25; ++t) {
    const Guid key{rng.next()};
    const Peer got = fx.lookup_from(0, key);
    ASSERT_TRUE(got.valid()) << "lookup " << t;
    EXPECT_EQ(got.id, fx.ring.oracle_successor(key).id) << "lookup " << t;
  }
}

TEST(ChordFailure, LookupBeforeRepairStillSucceedsViaRetries) {
  Fixture fx{3};
  fx.build(64);
  Rng rng{43};
  // Crash nodes and immediately look up, before stabilization can repair.
  for (int k = 0; k < 6; ++k) {
    fx.ring.crash(1 + rng.index(63));
  }
  int successes = 0;
  for (int t = 0; t < 20; ++t) {
    const Guid key{rng.next()};
    const Peer got = fx.lookup_from(0, key);
    if (got.valid()) {
      EXPECT_EQ(got.id, fx.ring.oracle_successor(key).id);
      ++successes;
    }
  }
  // Retries route around stale fingers; nearly all lookups should land.
  EXPECT_GE(successes, 17);
}

TEST(ChordFailure, PredecessorClearedAfterCrash) {
  Fixture fx{4};
  fx.build(8);
  ChordNode& node = fx.ring.host(0).node();
  const Peer pred = node.predecessor();
  ASSERT_TRUE(pred.valid());
  for (std::size_t i = 0; i < 8; ++i) {
    if (fx.ring.host(i).node().addr() == pred.addr) {
      fx.ring.crash(i);
      break;
    }
  }
  fx.settle(30);
  // check_predecessor pings it and clears; a new predecessor may then be
  // installed by the (live) actual predecessor's notify.
  EXPECT_NE(node.predecessor().addr, pred.addr);
}

// A crashed predecessor stops sending StabilizeReqs, its detector turns
// suspect, and the ping that follows fails. At the default config the clear
// comes within 12 s of the crash: suspicion after about two learned 1 s
// gaps, up to one more round, then the ping's two attempts (2 s, a pause of
// at most 0.75 s, 4 s). The dead node's own predecessor then reaches this
// node through its stabilize round, whose request carries the notify: it is
// installed within 20 s of the crash although no Notify is ever delivered.
// No node evicts the dead node twice: the stabilize calls still out when
// its predecessor evicts it time out with nothing left to judge, and while
// this node has not cleared it, this node's StabilizeResp still names it,
// but a peer in the lost-peer ring becomes head again only by answering a
// probe.
TEST(ChordFailure, CrashedPredecessorClearedAndReplacedWithoutNotify) {
  Fixture fx{9};
  fx.build(16);
  fx.settle(30);
  ChordNode& node = fx.ring.host(0).node();
  const Peer dead = node.predecessor();
  ASSERT_TRUE(dead.valid());
  Peer live = kNoPeer;
  for (std::size_t i = 0; i < 16; ++i) {
    if (fx.ring.host(i).node().addr() == dead.addr) {
      live = fx.ring.host(i).node().predecessor();
      fx.ring.crash(i);
      break;
    }
  }
  ASSERT_TRUE(live.valid());
  const std::uint64_t notifies = fx.net.stats().delivered_of(kNotify);
  const sim::SimTime crashed_at = fx.simulator.now();

  double cleared = -1.0;
  double installed = -1.0;
  while (fx.simulator.now() - crashed_at < sim::SimTime::seconds(40) &&
         installed < 0.0) {
    fx.settle(0.05);
    const double since = (fx.simulator.now() - crashed_at).sec();
    if (cleared < 0.0 && !(node.predecessor() == dead)) cleared = since;
    if (node.predecessor() == live) installed = since;
  }
  ASSERT_GE(cleared, 0.0) << "dead predecessor never cleared";
  EXPECT_LE(cleared, 12.0);
  ASSERT_GE(installed, 0.0) << "live predecessor never installed";
  EXPECT_LE(installed, 20.0);
  EXPECT_EQ(fx.net.stats().delivered_of(kNotify), notifies);
  // The crashed node is the only dead one, and no message is lost.
  for (std::size_t i = 0; i < fx.ring.size(); ++i) {
    EXPECT_LE(fx.ring.host(i).node().stats().evictions, 1u) << "host " << i;
  }
}

// Eviction needs a failed RPC, not silence alone: at 5% loss a predecessor
// whose StabilizeReqs go missing is probed, answers, and is kept. Nor does
// loss evict a finger: one with no arrival history is evicted only by a
// second consecutive failed lookup hop, so no live peer is evicted at all.
TEST(ChordFailure, LossyRingNeverClearsALivePredecessor) {
  sim::Simulator simulator;
  net::Network net(simulator, Rng{10},
                   net::LatencyModel{sim::SimTime::millis(20),
                                     sim::SimTime::millis(80)},
                   0.05);
  ChordRing ring(net, ChordConfig{}, Rng{11});
  for (std::size_t i = 0; i < 32; ++i) {
    ring.add_host(Guid::of(std::uint64_t{0xC0FFEE} + i * 104729));
  }
  ring.wire_instantly();
  simulator.run_until(sim::SimTime::seconds(300));
  EXPECT_GT(net.stats().messages_dropped_loss, 0u);
  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ChordNode& node = ring.host(i).node();
    EXPECT_EQ(node.stats().predecessor_clears, 0u) << "host " << i;
    EXPECT_TRUE(node.predecessor().valid()) << "host " << i;
    evictions += node.stats().evictions;
  }
  EXPECT_EQ(evictions, 0u);
}

// A peer that stays dead is probed on a doubling schedule, not every round:
// each node that evicted it sends at most log2(kMaxProbeGap) + 1 probes
// while the gap grows, then one per kMaxProbeGap rounds. Its successor also
// pings it as a suspect predecessor, one call per round until the first
// call fails; a call of two attempts lasts at most 8 s at the default
// config, so that is at most 9 calls of 2 pings.
TEST(ChordFailure, DeadPeerProbesBackOff) {
  Fixture fx{14};
  fx.build(64);
  fx.settle(30);
  const std::uint64_t pings_before = fx.net.stats().sent_of(kPingReq);
  fx.ring.crash(17);
  constexpr double kWindow = 600.0;
  fx.settle(kWindow);
  std::uint64_t evictors = 0;
  for (std::size_t i = 0; i < fx.ring.size(); ++i) {
    const std::uint64_t e = fx.ring.host(i).node().stats().evictions;
    EXPECT_LE(e, 1u) << "host " << i;
    if (e > 0) ++evictors;
  }
  EXPECT_GT(evictors, 0u);
  const double rounds = kWindow / ChordConfig{}.stabilize_period.sec();
  const double per_evictor = std::log2(ChordNode::kMaxProbeGap) + 1 +
                             rounds / ChordNode::kMaxProbeGap;
  const std::uint64_t pings = fx.net.stats().sent_of(kPingReq) - pings_before;
  EXPECT_LE(static_cast<double>(pings),
            static_cast<double>(evictors) * per_evictor + 18)
      << evictors << " evictors";
}

// What reconcile_lost is for: a 32-node ring cut into halves for 120 s
// closes into one ring per half, since each half evicts the other, and
// stabilize alone never reconnects disjoint rings. After the heal each lost
// peer is probed within kMaxProbeGap rounds; the answer puts it back as
// head, and stabilize walks the rest of the merge, given 30 s here.
TEST(ChordPartitionHeal, RingsMergeAfterHeal) {
  Fixture fx{12};
  fx.build(32);
  fx.settle(30);
  std::vector<net::NodeAddr> side_a, side_b;
  for (std::size_t i = 0; i < fx.ring.size(); ++i) {
    (i % 2 == 0 ? side_a : side_b).push_back(fx.ring.host(i).addr());
  }
  net::FaultPlane& fp = fx.net.fault_plane();
  const auto cut = fp.cut("halves", side_a, side_b);
  fx.settle(120);
  // Every node's successor now sits on its own side.
  for (std::size_t i = 0; i < fx.ring.size(); ++i) {
    const Peer succ = fx.ring.host(i).node().successor();
    ASSERT_TRUE(succ.valid());
    const auto& own = i % 2 == 0 ? side_a : side_b;
    EXPECT_NE(std::find(own.begin(), own.end(), succ.addr), own.end())
        << "host " << i;
  }
  fp.heal(cut);
  const sim::SimTime healed_at = fx.simulator.now();
  const sim::SimTime bound =
      ChordConfig{}.stabilize_period * ChordNode::kMaxProbeGap +
      sim::SimTime::seconds(30);
  auto merged = [&] {
    for (std::size_t i = 0; i < fx.ring.size(); ++i) {
      const ChordNode& node = fx.ring.host(i).node();
      if (node.successor().id !=
          fx.ring.oracle_successor(Guid{node.id().value() + 1}).id) {
        return false;
      }
    }
    return true;
  };
  while (!merged() && fx.simulator.now() - healed_at < bound) fx.settle(1);
  EXPECT_TRUE(merged()) << "not merged " << bound.sec() << " s after heal";
}

TEST(ChordFailure, CrashedNodeRejoins) {
  Fixture fx{5};
  fx.build(24);
  const Guid id9 = fx.ring.host(9).node().id();
  fx.ring.crash(9);
  fx.settle(60);
  // While down, its keys belong to its old successor.
  const Peer interim = fx.lookup_from(0, id9);
  ASSERT_TRUE(interim.valid());
  EXPECT_NE(interim.id, id9);

  fx.ring.restart(9);
  fx.settle(180);  // rejoin + stabilize + fix fingers
  const Peer after = fx.lookup_from(0, id9);
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.id, id9);
}

TEST(ChordFailure, MassiveFailureHalfRingSurvives) {
  Fixture fx{6};
  fx.build(64);
  // Crash every other node simultaneously.
  for (std::size_t i = 1; i < 64; i += 2) {
    fx.ring.crash(i);
  }
  fx.settle(240);
  Rng rng{7};
  int ok = 0;
  for (int t = 0; t < 20; ++t) {
    const Guid key{rng.next()};
    const Peer got = fx.lookup_from(0, key);
    if (got.valid() && got.id == fx.ring.oracle_successor(key).id) ++ok;
  }
  EXPECT_GE(ok, 18);
}

TEST(ChordFailure, IsolatedSurvivorBecomesSingleton) {
  Fixture fx{8};
  fx.build(4);
  fx.ring.crash(1);
  fx.ring.crash(2);
  fx.ring.crash(3);
  fx.settle(120);
  ChordNode& survivor = fx.ring.host(0).node();
  ASSERT_TRUE(survivor.successor().valid());
  EXPECT_EQ(survivor.successor().addr, survivor.addr());
  const Peer got = fx.lookup_from(0, Guid{0xDEAD});
  EXPECT_EQ(got.addr, survivor.addr());
}

}  // namespace
}  // namespace pgrid::chord
