// CAN under failures: takeover reclaims dead zones, routing recovers,
// zone merge-on-takeover, crashed node rejoin, and the gap check closes a
// hole no takeover reaches.

#include <gtest/gtest.h>

#include "can/space.h"
#include "net/fault_plane.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::can {
namespace {

Point random_point(Rng& rng, std::size_t dims) {
  Point p(dims);
  for (std::size_t d = 0; d < dims; ++d) p[d] = rng.uniform();
  return p;
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1, CanConfig config = CanConfig{})
      : net(simulator, Rng{seed},
            net::LatencyModel{sim::SimTime::millis(20),
                              sim::SimTime::millis(80)}),
        space(net, config, Rng{seed + 1}),
        rng(seed + 2) {}

  sim::Simulator simulator;
  net::Network net;
  CanSpace space;
  Rng rng;

  void build(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      space.add_host(Guid::of(std::uint64_t{0xF00D} + i * 13),
                     random_point(rng, space.config().dims));
    }
    space.wire_instantly();
  }

  void settle(double seconds) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(seconds));
  }

  Peer route_from(std::size_t host, const Point& target) {
    Peer owner = kNoPeer;
    space.host(host).node().route(target, [&](Peer o, int) { owner = o; });
    settle(180);
    return owner;
  }

  /// Live nodes whose zones contain `p`.
  int live_owners(const Point& p) const {
    int owners = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (!space.crashed(i) && space.host(i).node().owns(p)) ++owners;
    }
    return owners;
  }

  /// Total volume owned by live nodes.
  double live_volume() const {
    double v = 0.0;
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (space.crashed(i)) continue;
      for (const Zone& z : space.host(i).node().zones()) v += z.volume();
    }
    return v;
  }
};

TEST(CanTakeover, SingleFailureZoneIsReclaimed) {
  Fixture fx;
  fx.build(32);
  const Zone dead_zone = fx.space.host(5).node().zones().front();
  fx.space.crash(5);
  fx.settle(60);  // timeout detection + takeover timer
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
  // Some live node now owns the dead zone's center.
  const Point probe = dead_zone.center();
  const Peer owner = fx.space.oracle_owner(probe);
  ASSERT_TRUE(owner.valid());
  EXPECT_NE(owner.addr, fx.space.host(5).addr());
}

TEST(CanTakeover, RoutingWorksAfterFailure) {
  Fixture fx{2};
  fx.build(48);
  fx.space.crash(11);
  fx.space.crash(23);
  fx.settle(90);
  for (int t = 0; t < 25; ++t) {
    const Point target = random_point(fx.rng, 4);
    const Peer owner = fx.route_from(0, target);
    ASSERT_TRUE(owner.valid()) << t;
    EXPECT_EQ(owner.id, fx.space.oracle_owner(target).id) << t;
  }
}

TEST(CanTakeover, ExactlyOneClaimant) {
  Fixture fx{3};
  fx.build(40);
  const auto before = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 40; ++i) {
      total += fx.space.host(i).node().stats().takeovers;
    }
    return total;
  };
  const auto t0 = before();
  fx.space.crash(17);
  fx.settle(120);
  EXPECT_EQ(before() - t0, 1u);  // one neighbor claimed, others stood down
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
}

TEST(CanTakeover, SoleSurvivorReclaimsWholeSpace) {
  // Two nodes: one dies; the survivor's takeover leaves it owning the whole
  // cube (as two complementary zones — claims are not coalesced).
  Fixture fx{4};
  fx.build(2);
  fx.space.crash(1);
  fx.settle(60);
  const CanNode& survivor = fx.space.host(0).node();
  double volume = 0.0;
  for (const Zone& z : survivor.zones()) volume += z.volume();
  EXPECT_DOUBLE_EQ(volume, 1.0);
  EXPECT_TRUE(survivor.owns(Point{0.1, 0.1, 0.1, 0.1}));
  EXPECT_TRUE(survivor.owns(Point{0.9, 0.9, 0.9, 0.9}));
}

TEST(CanTakeover, MultipleScatteredFailures) {
  Fixture fx{5};
  fx.build(64);
  fx.space.crash(3);
  fx.space.crash(31);
  fx.space.crash(55);
  fx.settle(150);
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
  for (int t = 0; t < 15; ++t) {
    const Point target = random_point(fx.rng, 4);
    const Peer owner = fx.route_from(1, target);
    ASSERT_TRUE(owner.valid());
    EXPECT_EQ(owner.id, fx.space.oracle_owner(target).id);
  }
}

TEST(CanTakeover, CrashedNodeRejoins) {
  Fixture fx{6};
  fx.build(24);
  fx.space.crash(9);
  fx.settle(90);
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
  fx.space.restart(9);
  fx.settle(90);
  const CanNode& back = fx.space.host(9).node();
  EXPECT_FALSE(back.zones().empty());
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
  // Routes to its representative point land somewhere valid.
  const Peer owner = fx.route_from(0, back.rep_point());
  ASSERT_TRUE(owner.valid());
  EXPECT_EQ(owner.id, fx.space.oracle_owner(back.rep_point()).id);
}

TEST(CanPartitionHeal, DoubleClaimsReconcileAfterHeal) {
  // Both sides of a partition take over the other side's zones; after the
  // heal every contested region has two claimants. The lost-peer probes plus
  // the lower-GUID-wins subtraction must restore an exact tiling.
  Fixture fx{8};
  fx.build(16);
  std::vector<net::NodeAddr> side_a, side_b;
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    (i % 2 == 0 ? side_a : side_b).push_back(fx.space.host(i).addr());
  }
  net::FaultPlane& fp = fx.net.fault_plane();
  const auto id = fp.cut("split", side_a, side_b);
  fx.settle(120);  // suspicion + takeover on both sides
  fp.heal(id);
  fx.settle(240);  // probes re-link the sides, conflicts subtract away
  EXPECT_TRUE(fx.space.zones_tile_space());
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
}

TEST(CanPartitionHeal, OneWayCutReconcilesToo) {
  // Asymmetric cut: only one side suspects the other, so only one side
  // double-claims; reconciliation must still converge after the heal.
  Fixture fx{9};
  fx.build(12);
  std::vector<net::NodeAddr> side_a, side_b;
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    (i < 6 ? side_a : side_b).push_back(fx.space.host(i).addr());
  }
  net::FaultPlane& fp = fx.net.fault_plane();
  const auto id = fp.cut("oneway", side_a, side_b, /*one_way=*/true);
  fx.settle(120);
  fp.heal(id);
  fx.settle(240);
  EXPECT_TRUE(fx.space.zones_tile_space());
  EXPECT_NEAR(fx.live_volume(), 1.0, 1e-9);
}

// Two nodes whose claims overlap, each holding the other's current claim
// version, with no full claim in flight: nothing sends a full claim, and
// hellos alone never compare geometry. Every
// CanNode::kFullRefreshContacts-th hello asks for a replay, which runs the
// double-claim rule on the stored claim, so the overlap resolves within that
// many rounds. A one-period cut drops the full claims of the first round
// (their entries have no full_sent_version yet).
TEST(CanPartitionHeal, StandingDoubleClaimResolvesByReplay) {
  Fixture fx{13};
  const sim::SimTime period = fx.space.config().update_period;
  auto& a = fx.space.add_host(Guid::of(std::uint64_t{1}),
                              Point{0.2, 0.5, 0.5, 0.5});
  auto& b = fx.space.add_host(Guid::of(std::uint64_t{2}),
                              Point{0.8, 0.5, 0.5, 0.5});
  // The two zones cover the cube, so the gap check probes nothing.
  const Zone za(Point{0.0, 0.0, 0.0, 0.0}, Point{0.6, 1.0, 1.0, 1.0});
  const Zone zb(Point{0.4, 0.0, 0.0, 0.0}, Point{1.0, 1.0, 1.0, 1.0});
  // install_state on a node that never ran advertises claim version 1.
  auto entry = [](const CanNode& of, const Zone& zone, net::NodeAddr peer) {
    NeighborState ns;
    ns.id = of.id();
    ns.zones.assign(1, zone);
    ns.rep_point = of.rep_point();
    ns.their_neighbors.assign(1, peer);
    ns.claim_version = 1;
    return ns;
  };
  FlatMap<net::NodeAddr, NeighborState> table_a;
  FlatMap<net::NodeAddr, NeighborState> table_b;
  table_a.emplace(b.addr(), entry(b.node(), zb, a.addr()));
  table_b.emplace(a.addr(), entry(a.node(), za, b.addr()));
  net::FaultPlane& fp = fx.net.fault_plane();
  fp.heal_after(fp.cut("first round", {a.addr()}, {b.addr()}), period);
  a.node().install_state({za}, std::move(table_a));
  b.node().install_state({zb}, std::move(table_b));
  ASSERT_EQ(a.node().claim_version(), 1u);
  ASSERT_EQ(b.node().claim_version(), 1u);

  const Point contested{0.5, 0.5, 0.5, 0.5};
  fx.simulator.run_until(period);
  ASSERT_EQ(fx.live_owners(contested), 2);
  fx.simulator.run_until(period *
                         (CanNode::kFullRefreshContacts + 2));
  for (int t = 0; t < 500; ++t) {
    const Point p = random_point(fx.rng, 4);
    ASSERT_EQ(fx.live_owners(p), 1) << "sample " << t;
  }
  EXPECT_EQ(fx.live_owners(contested), 1);
  EXPECT_TRUE(fx.space.zones_tile_space());
}

// A correlated crash of a node and every one of its neighbors leaves the
// node's zone owned by nobody: the survivors only knew (and took over) the
// dead neighbors, so no timeout ever fires for the zone beyond them. The gap
// check in each update round finds the uncovered face, routes to it, finds
// no owner, and claims the hole.
TEST(CanGapCheck, InteriorHoleIsClaimedAfterCorrelatedCrash) {
  Fixture fx{11};
  fx.build(300);
  // An interior node: no face of its zone on the boundary of the cube.
  std::size_t center = fx.space.size();
  for (std::size_t i = 0; i < fx.space.size() && center == fx.space.size();
       ++i) {
    const CanNode& node = fx.space.host(i).node();
    bool interior = node.zones().size() == 1;
    for (std::size_t d = 0; interior && d < node.zones().front().dims(); ++d) {
      interior = node.zones().front().lo()[d] > 0.0 &&
                 node.zones().front().hi()[d] < 1.0;
    }
    if (interior) center = i;
  }
  ASSERT_LT(center, fx.space.size()) << "no interior zone";
  std::vector<std::size_t> victims{center};
  for (const auto& [addr, ns] : fx.space.host(center).node().neighbors()) {
    for (std::size_t i = 0; i < fx.space.size(); ++i) {
      if (fx.space.host(i).addr() == addr) victims.push_back(i);
    }
  }
  ASSERT_GT(victims.size(), 2u);
  const Point hole = fx.space.host(center).node().zones().front().center();
  for (std::size_t v : victims) fx.space.crash(v);

  // 30 update periods (2 s each) for detection, takeover and gap claims;
  // every sample is owned once after 12.
  fx.settle(60);
  EXPECT_EQ(fx.live_owners(hole), 1);
  for (int t = 0; t < 2000; ++t) {
    const Point p = random_point(fx.rng, 4);
    ASSERT_EQ(fx.live_owners(p), 1) << "sample " << t;
  }
  std::uint64_t gap_repairs = 0;
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    gap_repairs += fx.space.host(i).node().stats().gap_repairs;
  }
  EXPECT_GT(gap_repairs, 0u);
}

// A whole tiling sends nothing on the check's behalf: every face of every
// zone is covered by a known neighbor, so no round starts a route.
TEST(CanGapCheck, WholeTilingStartsNoRoute) {
  Fixture fx{12};
  fx.build(64);
  fx.settle(60);
  EXPECT_GT(fx.net.stats().messages_sent, 0u) << "no update round ran";
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    EXPECT_EQ(fx.space.host(i).node().stats().routes_started, 0u) << i;
  }
}

TEST(CanTakeover, RouteDuringOutageEventuallyResolvesViaRetries) {
  Fixture fx{7};
  fx.build(48);
  // Crash a node and immediately route toward its zone.
  const Point probe = fx.space.host(20).node().rep_point();
  fx.space.crash(20);
  int ok = 0;
  for (int t = 0; t < 5; ++t) {
    const Peer owner = fx.route_from(1, probe);
    if (owner.valid()) ++ok;
    fx.settle(30);
  }
  // Early attempts may fail (zone unclaimed), but after takeover all succeed.
  const Peer final_owner = fx.route_from(1, probe);
  EXPECT_TRUE(final_owner.valid());
  EXPECT_GE(ok, 1);
}

}  // namespace
}  // namespace pgrid::can
