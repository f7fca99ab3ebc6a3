// CAN protocol: instant wiring invariants, greedy routing vs the oracle,
// join protocol, load exchange, per-dimension load propagation, maintenance
// cadence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "can/space.h"
#include "common/flat_map.h"
#include "grid/grid_system.h"
#include "net/fault_plane.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/workload.h"

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
        space(net, config, Rng{seed + 1000}),
        rng(seed + 2000) {}

  sim::Simulator simulator;
  net::Network net;
  CanSpace space;
  Rng rng;

  void build(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      space.add_host(Guid::of(std::uint64_t{0xBEEF} + i * 31),
                     random_point(rng, space.config().dims));
    }
    space.wire_instantly();
  }

  struct RouteResult {
    Peer owner;
    int hops = -1;
    bool completed = false;
  };
  RouteResult route_from(std::size_t host, const Point& target) {
    RouteResult out;
    space.host(host).node().route(target, [&](Peer owner, int hops) {
      out.owner = owner;
      out.hops = hops;
      out.completed = true;
    });
    simulator.run_until(simulator.now() + sim::SimTime::seconds(180));
    return out;
  }

  void settle(double seconds) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(seconds));
  }
};

TEST(CanWiring, ZonesTileSpaceAndPointsHaveOneOwner) {
  Fixture fx;
  fx.build(64);
  EXPECT_TRUE(fx.space.zones_tile_space());
  for (int t = 0; t < 200; ++t) {
    const Point p = random_point(fx.rng, fx.space.config().dims);
    EXPECT_TRUE(fx.space.oracle_owner(p).valid());
  }
}

TEST(CanWiring, EveryNodeOwnsItsRepresentativePoint) {
  // split_for keeps each party's point in its own zone, so after instant
  // wiring each node must own its own representative point — the property
  // the matchmaking layer relies on ("node coordinates = capabilities").
  Fixture fx{3};
  fx.build(128);
  for (std::size_t i = 0; i < 128; ++i) {
    const CanNode& node = fx.space.host(i).node();
    EXPECT_TRUE(node.owns(node.rep_point())) << i;
  }
}

TEST(CanWiring, NeighborTablesAreSymmetric) {
  Fixture fx{4};
  fx.build(48);
  for (std::size_t i = 0; i < 48; ++i) {
    const CanNode& a = fx.space.host(i).node();
    for (const auto& [naddr, ns] : a.neighbors()) {
      // Find the neighbor and check it lists us back.
      bool reciprocal = false;
      for (std::size_t j = 0; j < 48; ++j) {
        const CanNode& b = fx.space.host(j).node();
        if (b.addr() != naddr) continue;
        reciprocal = b.neighbors().find(a.addr()) != b.neighbors().end();
      }
      EXPECT_TRUE(reciprocal);
    }
  }
}

TEST(CanRoute, ResolvesToOracleOwner) {
  Fixture fx{5};
  fx.build(100);
  for (int t = 0; t < 50; ++t) {
    const Point target = random_point(fx.rng, fx.space.config().dims);
    const auto res = fx.route_from(fx.rng.index(100), target);
    ASSERT_TRUE(res.completed) << t;
    ASSERT_TRUE(res.owner.valid()) << t;
    EXPECT_EQ(res.owner.id, fx.space.oracle_owner(target).id) << t;
  }
}

TEST(CanRoute, LocalHitIsZeroHops) {
  Fixture fx{6};
  fx.build(32);
  const CanNode& node = fx.space.host(7).node();
  const auto res = fx.route_from(7, node.rep_point());
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.owner.addr, node.addr());
  EXPECT_EQ(res.hops, 0);
}

TEST(CanRoute, HopsScaleAsDTimesNthRoot) {
  // CAN path length averages (d/4) * N^(1/d); allow a loose factor.
  CanConfig config;
  config.dims = 3;
  Fixture fx{7, config};
  fx.build(216);  // 6^3
  double total = 0;
  constexpr int kRoutes = 60;
  for (int t = 0; t < kRoutes; ++t) {
    const auto res = fx.route_from(fx.rng.index(216), random_point(fx.rng, 3));
    ASSERT_TRUE(res.completed);
    total += res.hops;
  }
  const double mean = total / kRoutes;
  // (3/4) * 216^(1/3) = 4.5 expected.
  EXPECT_LT(mean, 12.0);
  EXPECT_GT(mean, 1.0);
}

TEST(CanJoin, ProtocolJoinSplitsOwnersZone) {
  Fixture fx{8};
  fx.build(16);
  EXPECT_TRUE(fx.space.zones_tile_space());
  auto& joiner = fx.space.add_host(Guid::of(std::uint64_t{0x777}),
                                   random_point(fx.rng, 4));
  const CanNode& boot = fx.space.host(0).node();
  bool ok = false;
  joiner.node().join(Peer{boot.addr(), boot.id()}, [&](bool r) { ok = r; });
  fx.settle(60);
  ASSERT_TRUE(ok);
  EXPECT_EQ(joiner.node().zones().size(), 1u);
  EXPECT_TRUE(joiner.node().owns(joiner.node().rep_point()));
  EXPECT_TRUE(fx.space.zones_tile_space());
  EXPECT_FALSE(joiner.node().neighbors().empty());
}

// A zone one ulp wide is left where a gap claim or a conflict carve meets a
// boundary computed another way (here 0.3 against 0.1 + 0.2), and resource
// ladder rungs sit on exactly such boundaries, so joiners land in it. Its
// centre rounds onto its upper face, outside it: the split must keep a
// point the zone does contain.
TEST(CanJoin, JoinIntoUlpWideZoneSplitsIt) {
  Fixture fx{10};
  const double lo = 0.3;
  const double hi = 0.1 + 0.2;
  ASSERT_EQ(std::nextafter(lo, 1.0), hi);
  auto& owner = fx.space.add_host(Guid::of(std::uint64_t{1}),
                                  Point{0.5, 0.5, 0.5, 0.5});
  owner.node().install_state(
      {Zone(Point{0.0, 0.0, 0.0, 0.0}, Point{1.0, lo, 1.0, 1.0}),
       Zone(Point{0.0, lo, 0.0, 0.0}, Point{1.0, hi, 1.0, 1.0}),
       Zone(Point{0.0, hi, 0.0, 0.0}, Point{1.0, 1.0, 1.0, 1.0})},
      {});
  auto& joiner = fx.space.add_host(Guid::of(std::uint64_t{2}),
                                   Point{0.5, lo, 0.5, 0.5});
  bool ok = false;
  joiner.node().join(Peer{owner.node().addr(), owner.node().id()},
                     [&](bool r) { ok = r; });
  fx.settle(30);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(joiner.node().owns(joiner.node().rep_point()));
  EXPECT_TRUE(owner.node().owns(owner.node().rep_point()));
  EXPECT_TRUE(fx.space.zones_tile_space());
}

TEST(CanJoin, SequentialProtocolJoinsBuildWholeSpace) {
  Fixture fx{9};
  auto& first = fx.space.add_host(Guid::of(std::uint64_t{1}),
                                  random_point(fx.rng, 4));
  first.node().create();
  const Peer boot{first.node().addr(), first.node().id()};
  for (std::size_t i = 2; i <= 20; ++i) {
    auto& host = fx.space.add_host(Guid::of(i), random_point(fx.rng, 4));
    bool ok = false;
    host.node().join(boot, [&](bool r) { ok = r; });
    fx.settle(30);
    ASSERT_TRUE(ok) << "join " << i;
  }
  fx.settle(30);
  EXPECT_TRUE(fx.space.zones_tile_space());
  // Routing works across the organically grown space.
  for (int t = 0; t < 20; ++t) {
    const Point target = random_point(fx.rng, 4);
    const auto res = fx.route_from(fx.rng.index(20), target);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.owner.id, fx.space.oracle_owner(target).id);
  }
}

// A zone claim the owner sent before splitting for a joiner is stale once
// the joiner holds the grant, but the network can replay it right after
// the join (duplication). The joiner must not hand the granted zone back to
// the owner's lower Guid for it: the JoinResp carries the owner's update
// counter, below which its claims are dropped.
TEST(CanJoin, ReplayedPreGrantClaimCannotUndoJoin) {
  Fixture fx{12};
  // The owner must hold the lower Guid, so that a claim of its that
  // overlaps the joiner's zone wins the double-claim rule.
  const Guid a = Guid::of(std::uint64_t{1});
  const Guid b = Guid::of(std::uint64_t{3});
  const Guid low = std::min(a, b);
  const Guid high = std::max(a, b);
  auto& owner = fx.space.add_host(low, random_point(fx.rng, 4));
  owner.node().create();
  const Peer boot{owner.node().addr(), owner.node().id()};
  auto& first = fx.space.add_host(Guid::of(std::uint64_t{2}),
                                  random_point(fx.rng, 4));
  first.node().join(boot, nullptr);
  fx.settle(30);  // the owner has sent zone updates since: its counter > 1
  const std::vector<Zone> before = owner.node().zones();
  const Point inside = before.front().center();

  auto& joiner = fx.space.add_host(high, inside);
  bool replayed = false;
  joiner.node().join(boot, [&](bool ok) {
    ASSERT_TRUE(ok);
    auto snap = std::make_shared<ZoneUpdate::Snapshot>();
    snap->sender = boot;
    snap->zones = before;
    snap->rep_point = owner.node().rep_point();
    auto stale = std::make_unique<ZoneUpdate>(std::move(snap));
    stale->seq = 1;
    joiner.on_message(boot.addr, std::move(stale));
    EXPECT_TRUE(joiner.node().owns(inside));
    replayed = true;
  });
  fx.settle(60);
  ASSERT_TRUE(replayed);
  EXPECT_TRUE(joiner.node().owns(inside));
  EXPECT_TRUE(fx.space.zones_tile_space());
}

// A joiner whose every JoinResp is lost is left without zones while the
// owner keeps the split-off grant unsettled: no node owns the grant's space,
// so the joiner's retried join, routed to its own point inside it,
// dead-ends. The owner must take the grant back once the joiner goes quiet;
// the zoneless joiner must not keep its entry fresh by answering the
// owner's hellos.
TEST(CanJoin, OrphanRecoversGrantWhoseResponsesWereLost) {
  sim::Simulator simulator;
  net::Network net(simulator, Rng{21},
                   net::LatencyModel{sim::SimTime::millis(20),
                                     sim::SimTime::millis(20)});
  CanSpace space(net, CanConfig{}, Rng{22});
  Rng rng(23);
  auto& owner = space.add_host(Guid::of(std::uint64_t{1}), random_point(rng, 4));
  owner.node().create();
  auto& joiner =
      space.add_host(Guid::of(std::uint64_t{2}), random_point(rng, 4));
  // The route takes 40 ms and the owner's JoinResp leaves at 60 ms: a
  // one-way cut from 50 ms to 7.5 s drops it and the retry's answer, then
  // heals before the owner's neighbor timeout would expire the joiner.
  net::FaultPlane& faults = net.fault_plane();
  simulator.schedule_at(sim::SimTime::millis(50), [&] {
    const auto cut = faults.cut("owner to joiner", {owner.addr()},
                                {joiner.addr()}, /*one_way=*/true);
    faults.heal_after(cut, sim::SimTime::millis(7450));
  });
  bool joined = true;
  joiner.node().join(Peer{owner.node().addr(), owner.node().id()},
                     [&](bool ok) { joined = ok; });
  simulator.run_until(sim::SimTime::millis(7500));
  ASSERT_FALSE(joined);
  ASSERT_TRUE(joiner.node().zones().empty());

  simulator.run_until(sim::SimTime::seconds(120));
  EXPECT_TRUE(joiner.node().owns(joiner.node().rep_point()));
  EXPECT_TRUE(space.zones_tile_space());
}

TEST(CanLoad, LoadPropagatesToNeighbors) {
  Fixture fx{10};
  fx.build(32);
  CanNode& loaded = fx.space.host(3).node();
  loaded.set_load(42.0);
  fx.settle(10);  // a few update periods
  for (std::size_t i = 0; i < 32; ++i) {
    const CanNode& other = fx.space.host(i).node();
    const auto it = other.neighbors().find(loaded.addr());
    if (it != other.neighbors().end()) {
      EXPECT_DOUBLE_EQ(it->second.load, 42.0);
    }
  }
}

TEST(CanLoad, DimensionalLoadReportsFlowDownward) {
  // Two nodes splitting the space along some dimension: the lower node
  // must eventually hear a load report for that dimension.
  CanConfig config;
  config.dims = 2;
  Fixture fx{11, config};
  auto& low = fx.space.add_host(Guid::of(std::uint64_t{1}), Point{0.25, 0.5});
  auto& high = fx.space.add_host(Guid::of(std::uint64_t{2}), Point{0.75, 0.5});
  fx.space.wire_instantly();
  high.node().set_load(8.0);
  fx.settle(15);
  // The split separates them along dim 0; low is below high.
  EXPECT_DOUBLE_EQ(low.node().upstream_load(0), 8.0);
  // Nothing above `high` in dim 0, so it has heard nothing.
  EXPECT_LT(high.node().upstream_load(0), 0.0);
}

// Every maintenance round contacts every neighbor: CAN-push matches on the
// dim-load reports riding those contacts, and a round that skips some
// neighbors leaves it working from stale loads (DESIGN.md §16). A neighbor's
// latest round is at most one period old and its message at most one
// maximum latency (80 ms) in flight.
TEST(CanMaintenance, EveryNeighborHeardEveryRound) {
  Fixture fx{12};
  fx.build(64);
  const sim::SimTime period = fx.space.config().update_period;
  const sim::SimTime bound = period + sim::SimTime::millis(80);
  std::size_t contacts = 0;
  std::size_t violations = 0;
  for (int round = 3; round <= 20; ++round) {
    fx.simulator.run_until(period * round);
    const sim::SimTime now = fx.simulator.now();
    for (std::size_t i = 0; i < 64; ++i) {
      for (const auto& [addr, ns] : fx.space.host(i).node().neighbors()) {
        ++contacts;
        if (now - ns.phi.last_arrival() > bound) ++violations;
      }
    }
  }
  EXPECT_GT(contacts, 0u);
  EXPECT_EQ(violations, 0u);
}

// A neighbor holding our current claim version gets a hello, not a full
// claim: once every node's first round has delivered its claim, a space
// whose zones and neighbor sets do not change sends no ZoneUpdate at all,
// and every neighbor is still heard every round (the bound of
// EveryNeighborHeardEveryRound).
TEST(CanMaintenance, SteadyRoundSendsNoZoneUpdate) {
  Fixture fx{13};
  fx.build(64);
  const sim::SimTime period = fx.space.config().update_period;
  const sim::SimTime bound = period + sim::SimTime::millis(80);
  fx.simulator.run_until(period);  // every node's first round has run
  const std::uint64_t updates = fx.net.stats().sent_of(kZoneUpdate);
  const std::uint64_t hellos = fx.net.stats().sent_of(kNeighborHello);
  EXPECT_GT(updates, 0u);
  std::size_t violations = 0;
  for (int round = 2; round <= 30; ++round) {
    fx.simulator.run_until(period * round);
    const sim::SimTime now = fx.simulator.now();
    for (std::size_t i = 0; i < 64; ++i) {
      for (const auto& [addr, ns] : fx.space.host(i).node().neighbors()) {
        if (now - ns.phi.last_arrival() > bound) ++violations;
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(fx.net.stats().sent_of(kZoneUpdate), updates);
  EXPECT_GT(fx.net.stats().sent_of(kNeighborHello), hellos);
}

// The claim version covers the neighbor set, so a node whose neighbors
// change sends its new neighbor list in its next round, not at its
// neighbors' next replay. A join changes the neighbor sets around the split
// zone within one message latency; one round later each of those nodes has
// sent its new list, and it arrives within another latency.
TEST(CanMaintenance, NeighborListFreshAfterJoin) {
  Fixture fx{14};
  fx.build(32);
  fx.settle(10);
  const sim::SimTime period = fx.space.config().update_period;
  const CanNode& boot = fx.space.host(5).node();
  auto& joiner = fx.space.add_host(Guid::of(std::uint64_t{0x5157}),
                                   random_point(fx.rng, 4));
  bool joined = false;
  sim::SimTime joined_at;
  joiner.node().join(Peer{boot.addr(), boot.id()}, [&](bool ok) {
    joined = ok;
    joined_at = fx.simulator.now();
  });
  while (!joined && fx.simulator.now() < sim::SimTime::seconds(60)) {
    fx.simulator.run_until(fx.simulator.now() + sim::SimTime::millis(10));
  }
  ASSERT_TRUE(joined);
  fx.simulator.run_until(joined_at + period * 2 + sim::SimTime::millis(80));

  FlatMap<net::NodeAddr, const CanNode*> by_addr;
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    by_addr.emplace(fx.space.host(i).addr(), &fx.space.host(i).node());
  }
  std::size_t entries = 0;
  for (std::size_t i = 0; i < fx.space.size(); ++i) {
    const CanNode& node = fx.space.host(i).node();
    for (const auto& [addr, ns] : node.neighbors()) {
      ++entries;
      std::vector<net::NodeAddr> table;
      for (const auto& entry : by_addr.at(addr)->neighbors()) {
        table.push_back(entry.first);
      }
      EXPECT_EQ(ns.their_neighbors, table)
          << "node " << node.addr() << "'s copy of " << addr << "'s list";
    }
  }
  EXPECT_GT(entries, 0u);
  EXPECT_TRUE(fx.space.zones_tile_space());
}

// A full claim lost in flight leaves the neighbor at the old version only
// until the sender's next hello: the neighbor sees the version differ and
// pulls the claim. Here the owner's split for a joiner is announced into a
// one-way cut that lasts one period, so the owner's next round may fall in
// the cut too, and the pull takes three message latencies after the first
// hello that gets through.
TEST(CanMaintenance, LostFullClaimIsPulled) {
  Fixture fx{15};
  fx.build(16);
  fx.settle(10);
  const sim::SimTime period = fx.space.config().update_period;
  CanNode& owner = fx.space.host(3).node();
  std::vector<net::NodeAddr> others;
  for (const auto& [addr, ns] : owner.neighbors()) others.push_back(addr);
  ASSERT_FALSE(others.empty());
  auto& joiner = fx.space.add_host(Guid::of(std::uint64_t{0x1057}),
                                   owner.zones().front().center());
  net::FaultPlane& fp = fx.net.fault_plane();
  const auto cut = fp.cut("owner out", {owner.addr()}, others,
                          /*one_way=*/true);
  fp.heal_after(cut, period);
  const sim::SimTime cut_at = fx.simulator.now();
  const std::uint64_t before = owner.claim_version();
  bool joined = false;
  joiner.node().join(Peer{owner.addr(), owner.id()},
                     [&](bool ok) { joined = ok; });
  fx.simulator.run_until(cut_at + period);
  ASSERT_TRUE(joined);
  const std::uint64_t changed = owner.claim_version();
  ASSERT_GT(changed, before);  // the split: a full claim into the cut

  fx.simulator.run_until(cut_at + period * 2 + sim::SimTime::millis(3 * 80));
  ASSERT_EQ(owner.claim_version(), changed) << "a later change sent it";
  std::size_t pulled = 0;
  for (const auto& [addr, ns] : owner.neighbors()) {
    if (addr == joiner.addr()) continue;
    for (std::size_t i = 0; i < fx.space.size(); ++i) {
      if (fx.space.host(i).addr() != addr) continue;
      const auto& table = fx.space.host(i).node().neighbors();
      const auto it = table.find(owner.addr());
      ASSERT_NE(it, table.end()) << addr;
      EXPECT_EQ(it->second.claim_version, changed) << addr;
      ++pulled;
    }
  }
  EXPECT_GT(pulled, 0u);
  EXPECT_TRUE(fx.space.zones_tile_space());
}

// Property sweep: routing matches the oracle across sizes and dims.
struct SweepParam {
  std::size_t nodes;
  std::size_t dims;
};

class CanSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CanSweep, RoutesMatchOracle) {
  CanConfig config;
  config.dims = GetParam().dims;
  Fixture fx{GetParam().nodes * 7 + GetParam().dims, config};
  fx.build(GetParam().nodes);
  EXPECT_TRUE(fx.space.zones_tile_space());
  for (int t = 0; t < 15; ++t) {
    const Point target = random_point(fx.rng, config.dims);
    const auto res =
        fx.route_from(fx.rng.index(GetParam().nodes), target);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.owner.id, fx.space.oracle_owner(target).id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDims, CanSweep,
    ::testing::Values(SweepParam{2, 2}, SweepParam{5, 2}, SweepParam{16, 2},
                      SweepParam{64, 2}, SweepParam{16, 3}, SweepParam{64, 3},
                      SweepParam{128, 4}, SweepParam{32, 6}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.nodes) + "d" +
             std::to_string(info.param.dims);
    });

// Job points sit on constraint ladder levels that are also split planes, so a
// target can lie on the upper faces of several zones that do not own it
// (zones are half-open, the routing distance measures the closed box). On
// the 1024-node CAN-push grid below, two such routes once walked the
// distance-0 plateau into a dead end and returned no owner; ranking hops by
// the count of upper faces touching the target makes them descend to it.
// Inputs: the end-to-end benchmark's can-maint workload at seed 15.
TEST(CanRoute, UpperFacePlateauReachesOwner) {
  const std::uint64_t seed = 15;
  workload::WorkloadSpec spec;
  spec.node_count = 1024;
  spec.job_count = 5120;
  spec.node_mix = workload::Mix::kMixed;
  spec.job_mix = workload::Mix::kMixed;
  spec.constraint_probability = 0.4;
  spec.mean_runtime_sec = 100.0;
  spec.mean_interarrival_sec = 100.0 / (0.8 * 1024.0);
  spec.client_count = 4;
  spec.seed = hash_combine(mix64(seed), 0x776f726b6c6f6164ULL);  // "workload"
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kCanPush;
  config.seed = hash_combine(mix64(seed), 0x73797374656dULL);  // "system"
  config.light_maintenance = true;
  config.manual_submission = true;  // overlay only: no job ever arrives
  grid::GridSystem system(config, workload::generate(spec));
  system.build();

  struct Case {
    std::size_t from;
    double virtual_coord;
  };
  for (const Case c : {Case{320, 0.88151729851670879},
                       Case{270, 0.39225910748316373}}) {
    SCOPED_TRACE("from node " + std::to_string(c.from));
    Point target(4);
    target[0] = 0.5;
    target[1] = 0.41666666666666669;
    target[2] = 0.29999999999999999;
    target[3] = c.virtual_coord;
    Peer owner = kNoPeer;
    bool done = false;
    system.node(c.from).can()->route(target, [&](Peer p, int) {
      owner = p;
      done = true;
    });
    system.run_for(30.0);
    ASSERT_TRUE(done);
    ASSERT_TRUE(owner.valid());
    EXPECT_TRUE(system.node(owner.addr).can()->owns(target));
  }
}

}  // namespace
}  // namespace pgrid::can
