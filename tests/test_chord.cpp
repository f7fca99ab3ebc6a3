// Chord: lookup correctness against the oracle, join protocol convergence,
// hop-count scaling, instant wiring invariants.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "chord/messages.h"
#include "chord/ring.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::chord {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1,
                   ChordConfig config = ChordConfig{})
      : net(simulator, Rng{seed},
            net::LatencyModel{sim::SimTime::millis(20),
                              sim::SimTime::millis(80)}),
        ring(net, config, Rng{seed + 1000}) {}

  sim::Simulator simulator;
  net::Network net;
  ChordRing ring;

  void build(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ring.add_host(Guid::of(std::uint64_t{0xC0FFEE} + i * 7919));
    }
    ring.wire_instantly();
  }

  /// Synchronous-style lookup: runs the simulator until the callback fires.
  struct LookupResult {
    Peer result;
    int hops = -1;
    bool completed = false;
  };
  LookupResult lookup_from(std::size_t host, Guid key) {
    LookupResult out;
    ring.host(host).node().lookup(key, [&](Peer r, int h) {
      out.result = r;
      out.hops = h;
      out.completed = true;
    });
    simulator.run_until(simulator.now() + sim::SimTime::seconds(120));
    return out;
  }
};

TEST(ChordWiring, InstantRingIsConsistent) {
  Fixture fx;
  fx.build(32);
  // Every node's successor's predecessor is the node itself.
  std::set<Guid> ids;
  for (std::size_t i = 0; i < 32; ++i) {
    ids.insert(fx.ring.host(i).node().id());
  }
  ASSERT_EQ(ids.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    const ChordNode& node = fx.ring.host(i).node();
    const Peer succ = node.successor();
    ASSERT_TRUE(succ.valid());
    bool found = false;
    for (std::size_t j = 0; j < 32; ++j) {
      const ChordNode& other = fx.ring.host(j).node();
      if (other.addr() == succ.addr) {
        EXPECT_EQ(other.predecessor().addr, node.addr());
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ChordWiring, FingersMatchOracle) {
  Fixture fx;
  fx.build(64);
  for (std::size_t i = 0; i < 64; ++i) {
    const ChordNode& node = fx.ring.host(i).node();
    for (int f = 0; f < ChordNode::kBits; f += 7) {
      const Guid start{node.id().value() + (std::uint64_t{1} << f)};
      EXPECT_EQ(node.finger(f).id, fx.ring.oracle_successor(start).id);
    }
  }
}

TEST(ChordLookup, ResolvesOwnKeyRange) {
  Fixture fx;
  fx.build(16);
  // A key equal to a node id is owned by that node.
  for (std::size_t i = 0; i < 16; ++i) {
    const Guid id = fx.ring.host(i).node().id();
    const auto res = fx.lookup_from((i + 5) % 16, id);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.result.id, id);
  }
}

TEST(ChordLookup, MatchesOracleForRandomKeys) {
  Fixture fx{7};
  fx.build(100);
  Rng rng{99};
  for (int t = 0; t < 60; ++t) {
    const Guid key{rng.next()};
    const auto from = rng.index(100);
    const auto res = fx.lookup_from(from, key);
    ASSERT_TRUE(res.completed) << "lookup " << t;
    const Peer expect = fx.ring.oracle_successor(key);
    EXPECT_EQ(res.result.id, expect.id) << "key " << key.str();
    EXPECT_GE(res.hops, 0);
  }
}

TEST(ChordLookup, HopCountIsLogarithmic) {
  Fixture fx{11};
  fx.build(256);
  Rng rng{5};
  double total_hops = 0;
  constexpr int kLookups = 100;
  for (int t = 0; t < kLookups; ++t) {
    const auto res = fx.lookup_from(rng.index(256), Guid{rng.next()});
    ASSERT_TRUE(res.completed);
    total_hops += res.hops;
    EXPECT_LE(res.hops, 16);  // 2*log2(256)
  }
  // ~0.5 * log2(256) = 4 expected; generous envelope.
  EXPECT_LT(total_hops / kLookups, 7.0);
  EXPECT_GT(total_hops / kLookups, 1.0);
}

TEST(ChordLookup, SingletonRingOwnsEverything) {
  Fixture fx;
  fx.build(1);
  const auto res = fx.lookup_from(0, Guid{0x1234});
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.result.addr, fx.ring.host(0).node().addr());
  EXPECT_EQ(res.hops, 0);
}

TEST(ChordJoin, SequentialJoinsConvergeToConsistentRing) {
  Fixture fx{3};
  // Build a 12-node ring purely through the join protocol.
  auto& first = fx.ring.add_host(Guid::of(std::uint64_t{1}));
  first.node().create();
  const Peer boot{first.node().addr(), first.node().id()};
  for (std::size_t i = 2; i <= 12; ++i) {
    auto& host = fx.ring.add_host(Guid::of(i));
    bool joined = false;
    host.node().join(boot, [&](bool ok) { joined = ok; });
    fx.simulator.run_until(fx.simulator.now() + sim::SimTime::seconds(10));
    ASSERT_TRUE(joined) << "node " << i;
  }
  // Let stabilization settle rings and fingers.
  fx.simulator.run_until(fx.simulator.now() + sim::SimTime::seconds(120));

  // Successor pointers must form a single cycle covering all 12 nodes.
  std::map<Guid, Guid> succ_of;
  for (std::size_t i = 0; i < 12; ++i) {
    const ChordNode& node = fx.ring.host(i).node();
    ASSERT_TRUE(node.successor().valid());
    succ_of[node.id()] = node.successor().id;
  }
  Guid cursor = fx.ring.host(0).node().id();
  std::set<Guid> visited;
  for (int steps = 0; steps < 12; ++steps) {
    visited.insert(cursor);
    cursor = succ_of.at(cursor);
  }
  EXPECT_EQ(visited.size(), 12u);
  EXPECT_EQ(cursor, fx.ring.host(0).node().id());  // closed cycle

  // Lookups now match the oracle.
  Rng rng{77};
  for (int t = 0; t < 20; ++t) {
    const Guid key{rng.next()};
    const auto res = fx.lookup_from(rng.index(12), key);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.result.id, fx.ring.oracle_successor(key).id);
  }
}

TEST(ChordJoin, JoinThroughAnyBootstrapNode) {
  Fixture fx{4};
  fx.build(20);
  auto& joiner = fx.ring.add_host(Guid::of(std::uint64_t{0xABCDEF}));
  const ChordNode& boot = fx.ring.host(13).node();
  bool ok = false;
  joiner.node().join(Peer{boot.addr(), boot.id()}, [&](bool r) { ok = r; });
  fx.simulator.run_until(fx.simulator.now() + sim::SimTime::seconds(60));
  ASSERT_TRUE(ok);
  // After stabilization the joiner is fully inserted: its successor's
  // predecessor points back at it.
  const Peer succ = joiner.node().successor();
  ASSERT_TRUE(succ.valid());
  const auto res = fx.lookup_from(3, joiner.node().id());
  EXPECT_EQ(res.result.id, joiner.node().id());
}

TEST(ChordStats, LookupAccounting) {
  // Maintenance off so fix_fingers' internal lookups don't pollute counts.
  ChordConfig config;
  config.run_maintenance = false;
  Fixture fx{5, config};
  fx.build(64);
  auto& node = fx.ring.host(0).node();
  for (int t = 0; t < 10; ++t) {
    fx.lookup_from(0, Guid::of(std::uint64_t{900} + t));
  }
  EXPECT_EQ(node.stats().lookups_started, 10u);
  EXPECT_EQ(node.stats().lookups_ok, 10u);
  EXPECT_EQ(node.stats().lookups_failed, 0u);
  EXPECT_EQ(node.stats().lookup_hops.count(), 10u);
}

TEST(ChordNodeUnit, RandomPeerDrawsFromRoutingState) {
  Fixture fx{6};
  fx.build(32);
  Rng rng{8};
  const ChordNode& node = fx.ring.host(0).node();
  for (int t = 0; t < 50; ++t) {
    const Peer p = node.random_peer(rng);
    ASSERT_TRUE(p.valid());
    EXPECT_NE(p.addr, node.addr());
  }
}

// The lean maintenance round: in a steady ring the StabilizeReq carries the
// notify, and a predecessor heard every round is never pinged. The classic
// round would send one Notify and one PingReq per node per round here.
TEST(ChordMaintenance, SteadyRoundSendsOnlyStabilize) {
  Fixture fx{7};
  fx.build(64);
  fx.simulator.run_until(sim::SimTime::seconds(60));
  const net::NetworkStats& st = fx.net.stats();
  EXPECT_EQ(st.sent_of(kNotify), 0u);
  EXPECT_EQ(st.sent_of(kPingReq), 0u);
  // One StabilizeReq per node per 1 s round (each node's first round falls
  // at a random phase inside the first second), and no retransmissions.
  EXPECT_GE(st.sent_of(kStabilizeReq), 64u * 59u);
  EXPECT_LE(st.sent_of(kStabilizeReq), 64u * 61u);
  // Every request is answered, apart from those still in flight at 60 s.
  EXPECT_LE(st.sent_of(kStabilizeResp), st.sent_of(kStabilizeReq));
  EXPECT_GE(st.sent_of(kStabilizeResp) + 64u, st.sent_of(kStabilizeReq));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(fx.ring.host(i).node().stats().predecessor_clears, 0u);
  }
}

// A host that shows the test each message before its node handles it.
struct TapHost final : net::MessageHandler {
  TapHost(net::Network& network, Guid id, Rng rng)
      : addr(network.add_handler(this)),
        node(network, addr, id, ChordConfig{}, rng) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    if (tap) tap(from, *msg);
    node.handle(from, msg);
  }

  net::NodeAddr addr;
  ChordNode node;
  std::function<void(net::NodeAddr, const net::Message&)> tap;
};

// Maintenance sends only what changed: in a steady ring every finger fix
// past the successor is one NextHopReq to the held finger, which owns the
// start and confirms itself, and a StabilizeResp carries the successor list
// only in each node's first round, since no list changes afterwards. The
// tables still match the oracle at the end.
TEST(ChordMaintenance, SteadyRingSendsOnlyWhatChanged) {
  sim::Simulator simulator;
  net::Network net(simulator, Rng{7},
                   net::LatencyModel{sim::SimTime::millis(20),
                                     sim::SimTime::millis(80)});
  constexpr std::size_t kNodes = 64;
  std::vector<std::unique_ptr<TapHost>> hosts;
  std::vector<ChordNode*> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    hosts.push_back(std::make_unique<TapHost>(
        net, Guid::of(std::uint64_t{0xC0FFEE} + i * 7919), Rng{100 + i}));
    nodes.push_back(&hosts.back()->node);
  }
  const std::vector<Peer> ring = wire_ring_instantly(nodes);
  std::vector<const ChordNode*> oracle(nodes.begin(), nodes.end());

  std::map<net::NodeAddr, int> lists_received;
  std::uint64_t next_hop_reqs = 0;
  for (auto& h : hosts) {
    h->tap = [&, me = h->addr](net::NodeAddr, const net::Message& m) {
      if (m.type() == kStabilizeResp &&
          !net::msg_cast<StabilizeResp>(&m)->successors.empty()) {
        ++lists_received[me];
      }
      if (m.type() == kNextHopReq) {
        ++next_hop_reqs;
        // Asked about a key it owns: a check, not a routing hop.
        const Guid key = net::msg_cast<NextHopReq>(&m)->key;
        EXPECT_EQ(ring_oracle_successor(oracle, key).addr, me);
      }
    };
  }
  simulator.run_until(sim::SimTime::seconds(120));

  std::uint64_t checks = 0;
  for (const ChordNode* n : nodes) checks += n->stats().finger_checks;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(net.stats().sent_of(kNextHopReq), checks);
  EXPECT_GT(next_hop_reqs, 0u);
  for (const ChordNode* n : nodes) {
    EXPECT_EQ(lists_received[n->addr()], 1) << "node " << n->addr();
    for (int f = 0; f < ChordNode::kBits; ++f) {
      const Guid start{n->id().value() + (std::uint64_t{1} << f)};
      EXPECT_EQ(n->finger(f), ring_successor(ring, start)) << "finger " << f;
    }
    const std::vector<Peer>& succs = n->successor_list();
    ASSERT_EQ(succs.size(), ChordConfig{}.successor_list_len);
    Guid cursor = n->id();
    for (const Peer& p : succs) {
      const Peer want = ring_successor(ring, Guid{cursor.value() + 1});
      EXPECT_EQ(p, want);
      cursor = want.id;
    }
  }
}

// Property sweep: lookup correctness holds across ring sizes.
class ChordSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChordSizeSweep, LookupsMatchOracle) {
  Fixture fx{GetParam()};
  fx.build(GetParam());
  Rng rng{GetParam() * 31 + 1};
  const int lookups = 20;
  for (int t = 0; t < lookups; ++t) {
    const Guid key{rng.next()};
    const auto res = fx.lookup_from(rng.index(GetParam()), key);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.result.id, fx.ring.oracle_successor(key).id);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordSizeSweep,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64, 129, 512));

}  // namespace
}  // namespace pgrid::chord
