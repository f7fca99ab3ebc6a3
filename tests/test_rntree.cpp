// RN-Tree: trie-region construction (levels, parents, single root), O(log N)
// height, aggregation correctness vs an oracle, the cached parent and its
// re-resolution, the push-on-change rule, and the extended DFS search.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "net/network.h"
#include "rntree/rn_tree.h"
#include "sim/simulator.h"

namespace pgrid::rntree {
namespace {

/// Network host stacking an RnTreeService on a ChordNode.
class RnHost final : public net::MessageHandler {
 public:
  RnHost(net::Network& network, Guid id, chord::ChordConfig chord_config,
         RnTreeConfig tree_config, Rng rng)
      : addr_(network.add_handler(this)),
        chord_(network, addr_, id, chord_config, rng.fork(1)),
        tree_(network, chord_, tree_config,
              [this] { return RnTreeService::LocalInfo{caps, load}; },
              rng.fork(2)) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    if (chord_.handle(from, msg)) return;
    if (msg->type() == kAggAck &&
        !net::msg_cast<AggAck>(msg.get())->represents) {
      refused_by.push_back(from);
    }
    tree_.handle(from, msg);
  }

  [[nodiscard]] chord::ChordNode& chord() noexcept { return chord_; }
  [[nodiscard]] RnTreeService& tree() noexcept { return tree_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return addr_; }

  Caps caps{};
  double load = 0.0;
  /// Senders of every AggAck that refused this node's parent key.
  std::vector<net::NodeAddr> refused_by;

 private:
  net::NodeAddr addr_;
  chord::ChordNode chord_;
  RnTreeService tree_;
};

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1)
      : net(simulator, Rng{seed},
            net::LatencyModel{sim::SimTime::millis(20),
                              sim::SimTime::millis(80)}),
        rng(seed + 2) {}

  sim::Simulator simulator;
  net::Network net;
  Rng rng;
  chord::ChordConfig chord_config;
  std::vector<std::unique_ptr<RnHost>> hosts;

  void build(std::size_t n, double settle_sec = 30.0) {
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<RnHost>(
          net, Guid::of(std::uint64_t{0xABCD} + i * 7919), chord_config,
          RnTreeConfig{}, rng.fork(i)));
      // Default capabilities: spread over [1, 4].
      hosts.back()->caps = Caps{1.0 + static_cast<double>(i % 4), 1.0, 1.0, 0.0};
    }
    wire_chord_instantly();
    for (auto& h : hosts) h->tree().start();
    settle(settle_sec);  // several aggregation periods
  }

  /// Install exact Chord state into the RnHosts (mirrors ChordRing logic).
  void wire_chord_instantly() {
    std::vector<std::size_t> order(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return hosts[a]->chord().id() < hosts[b]->chord().id();
    });
    const std::size_t n = order.size();
    auto peer_at = [&](std::size_t pos) {
      auto& c = hosts[order[pos % n]]->chord();
      return chord::Peer{c.addr(), c.id()};
    };
    for (std::size_t pos = 0; pos < n; ++pos) {
      auto& node = hosts[order[pos]]->chord();
      std::vector<chord::Peer> succs;
      const std::size_t len =
          std::min(node.config().successor_list_len, n > 1 ? n - 1 : 1);
      for (std::size_t k = 1; k <= len; ++k) succs.push_back(peer_at(pos + k));
      std::array<chord::Peer, chord::ChordNode::kBits> fingers{};
      for (int i = 0; i < chord::ChordNode::kBits; ++i) {
        fingers[static_cast<std::size_t>(i)] = oracle_successor(
            Guid{node.id().value() + (std::uint64_t{1} << i)});
      }
      node.install_state(peer_at(pos + n - 1), std::move(succs), fingers);
    }
  }

  /// The Chord successor of `key` among the live hosts.
  chord::Peer oracle_successor(Guid key) const {
    chord::Peer best = chord::kNoPeer;
    std::uint64_t best_dist = 0;
    for (const auto& h : hosts) {
      if (!net.alive(h->addr())) continue;
      const std::uint64_t dist = key.clockwise_to(h->chord().id());
      if (!best.valid() || dist < best_dist) {
        best = h->chord().self_peer();
        best_dist = dist;
      }
    }
    return best;
  }

  void settle(double seconds) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(seconds));
  }

  /// Run until `done()` holds, checking every 100 ms; false on timeout.
  template <typename Pred>
  bool settle_until(Pred done, double max_seconds) {
    const auto deadline =
        simulator.now() + sim::SimTime::seconds(max_seconds);
    while (!done()) {
      if (simulator.now() >= deadline) return false;
      simulator.run_until(simulator.now() + sim::SimTime::millis(100));
    }
    return true;
  }

  /// Fail-stop crash of one host.
  void crash(RnHost& h) {
    net.set_alive(h.addr(), false);
    h.tree().stop();
    h.chord().crash();
  }

  /// True once every live host's successor and predecessor are the live
  /// oracle's.
  bool ring_repaired() const {
    for (const auto& h : hosts) {
      if (!net.alive(h->addr())) continue;
      const chord::ChordNode& c = h->chord();
      if (c.successor() != oracle_successor(Guid{c.id().value() + 1})) {
        return false;
      }
      const chord::Peer pred = c.predecessor();
      if (!pred.valid() || !net.alive(pred.addr) ||
          oracle_successor(Guid{pred.id.value() + 1}) != c.self_peer()) {
        return false;
      }
    }
    return true;
  }

  /// Per-resource maximum over every host: what the root aggregate must say.
  Caps oracle_max_caps() const {
    Caps oracle{};
    for (const auto& h : hosts) {
      for (std::size_t r = 0; r < kMaxResources; ++r) {
        oracle[r] = std::max(oracle[r], h->caps[r]);
      }
    }
    return oracle;
  }

  RnHost* root() {
    for (auto& h : hosts) {
      if (net.alive(h->addr()) && h->tree().is_root()) return h.get();
    }
    return nullptr;
  }

  /// Root count and reachability of all nodes by following parents.
  std::size_t root_count() const {
    std::size_t roots = 0;
    for (const auto& h : hosts) roots += h->tree().is_root() ? 1 : 0;
    return roots;
  }

  RnHost* host_by_addr(net::NodeAddr a) {
    for (auto& h : hosts) {
      if (h->addr() == a) return h.get();
    }
    return nullptr;
  }

  struct SearchOutcome {
    std::vector<Candidate> candidates;
    int hops = -1;
    bool completed = false;
  };
  SearchOutcome search_from(std::size_t host, const Query& q,
                            std::uint32_t k) {
    SearchOutcome out;
    hosts[host]->tree().search(q, k, [&](std::vector<Candidate> c, int hops) {
      out.candidates = std::move(c);
      out.hops = hops;
      out.completed = true;
    });
    settle(60);
    return out;
  }
};

TEST(RnTreeStructure, ExactlyOneRoot) {
  Fixture fx;
  fx.build(64);
  EXPECT_EQ(fx.root_count(), 1u);
}

TEST(RnTreeStructure, SingletonIsItsOwnRoot) {
  Fixture fx{2};
  fx.build(1);
  EXPECT_TRUE(fx.hosts[0]->tree().is_root());
  EXPECT_EQ(fx.hosts[0]->tree().child_count(), 0u);
}

TEST(RnTreeStructure, ParentChainsReachRootWithLogHeight) {
  Fixture fx{3};
  fx.build(128);
  // Follow cached parents from every node; all chains must reach the root.
  int max_depth = 0;
  for (auto& h : fx.hosts) {
    int depth = 0;
    RnHost* cursor = h.get();
    std::set<net::NodeAddr> seen;
    while (!cursor->tree().is_root()) {
      ASSERT_TRUE(seen.insert(cursor->addr()).second)
          << "parent cycle at depth " << depth;
      const chord::Peer p = cursor->tree().cached_parent();
      ASSERT_TRUE(p.valid());
      cursor = fx.host_by_addr(p.addr);
      ASSERT_NE(cursor, nullptr);
      ++depth;
      ASSERT_LT(depth, 64);
    }
    max_depth = std::max(max_depth, depth);
  }
  // Expected height O(log N): log2(128) = 7; allow a generous multiple.
  EXPECT_LE(max_depth, 21);
}

TEST(RnTreeStructure, LevelsAreConsistentWithParents) {
  Fixture fx{4};
  fx.build(64);
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    const chord::Peer p = h->tree().cached_parent();
    ASSERT_TRUE(p.valid());
    RnHost* parent = fx.host_by_addr(p.addr);
    ASSERT_NE(parent, nullptr);
    // A parent represents a strictly larger region.
    EXPECT_LT(parent->tree().level(), h->tree().level());
  }
}

// level() is computed from the predecessor in O(1); it must equal the
// definition: the smallest l whose level-l region low key lies in
// (predecessor, self].
TEST(RnTreeStructure, LevelIsSmallestRepresentedRegion) {
  Fixture fx{7};
  fx.build(200, 0.0);
  const auto scan_level = [](Guid self, Guid pred) {
    for (int l = 0; l < 64; ++l) {
      const std::uint64_t low =
          l == 0 ? 0 : self.value() & (~std::uint64_t{0} << (64 - l));
      if (in_interval_oc(Guid{low}, pred, self)) return l;
    }
    return 64;
  };
  for (auto& h : fx.hosts) {
    const chord::Peer pred = h->chord().predecessor();
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(h->tree().level(), scan_level(h->chord().id(), pred.id));
  }
}

TEST(RnTreeAggregation, RootAggregateCoversAllNodes) {
  Fixture fx{5};
  fx.build(48, 60.0);
  RnHost* root = fx.root();
  ASSERT_NE(root, nullptr);
  const Aggregate agg = root->tree().subtree_aggregate();
  EXPECT_EQ(agg.nodes, 48u);
  const Caps oracle = fx.oracle_max_caps();
  for (std::size_t r = 0; r < kMaxResources; ++r) {
    EXPECT_DOUBLE_EQ(agg.max_caps[r], oracle[r]) << "resource " << r;
  }
}

// --- push on change ---------------------------------------------------------

TEST(RnTreeMaintenance, SteadyTreeSendsOnlyRefreshes) {
  Fixture fx{31};
  fx.build(64);
  // Nothing changes once the tree has settled, so each of the 63 non-root
  // nodes pushes only its liveness refresh, once per kRefreshRounds rounds.
  // Nodes pushing every round would send 63 × 40.
  constexpr int kRounds = 40;
  const std::uint64_t before = fx.net.stats().sent_of(kAggUpdate);
  fx.settle(kRounds * RnTreeConfig{}.aggregation_period.sec());
  const double sent =
      static_cast<double>(fx.net.stats().sent_of(kAggUpdate) - before);
  const double per_node =
      static_cast<double>(kRounds) / RnTreeService::kRefreshRounds;
  EXPECT_GE(sent, 63 * (per_node - 1));
  EXPECT_LE(sent, 63 * (per_node + 1));

  ASSERT_NE(fx.root(), nullptr);
  const Aggregate agg = fx.root()->tree().subtree_aggregate();
  EXPECT_EQ(agg.nodes, 64u);
  EXPECT_EQ(agg.max_caps, fx.oracle_max_caps());
}

TEST(RnTreeMaintenance, ChangeReachesRootWithoutWaitingForRefresh) {
  Fixture fx{32};
  fx.build(64);
  // The deepest node: its change climbs the whole height.
  RnHost* deepest = nullptr;
  int height = 0;
  for (auto& h : fx.hosts) {
    int depth = 0;
    for (RnHost* c = h.get(); !c->tree().is_root(); ++depth) {
      c = fx.host_by_addr(c->tree().cached_parent().addr);
      ASSERT_NE(c, nullptr);
      ASSERT_LT(depth, 64);
    }
    if (depth > height) {
      height = depth;
      deepest = h.get();
    }
  }
  ASSERT_NE(deepest, nullptr);
  ASSERT_GE(height, 2);

  // Each level forwards the change in its next round, one period and one
  // latency later, so the root sees it within height + 1 rounds; waiting
  // for refreshes would take up to kRefreshRounds × height.
  deepest->caps[3] = 9.0;
  const double period = RnTreeConfig{}.aggregation_period.sec();
  EXPECT_TRUE(fx.settle_until(
      [&] {
        return fx.root()->tree().subtree_aggregate().max_caps[3] == 9.0;
      },
      (height + 1) * period));
}

TEST(RnTreeMaintenance, CrashedLeafDropsOutWithinScaledExpiry) {
  Fixture fx{33};
  fx.build(64);
  RnHost* leaf = nullptr;
  for (auto& h : fx.hosts) {
    if (!h->tree().is_root() && h->tree().child_count() == 0) {
      leaf = h.get();
      break;
    }
  }
  ASSERT_NE(leaf, nullptr);
  fx.crash(*leaf);
  // The parent drops the silent leaf within child_expiry × kRefreshRounds,
  // and the smaller count climbs one level per round.
  const RnTreeConfig config;
  const double deadline =
      (config.child_expiry * RnTreeService::kRefreshRounds).sec() +
      10 * config.aggregation_period.sec();
  EXPECT_TRUE(fx.settle_until(
      [&] {
        RnHost* root = fx.root();
        return root != nullptr &&
               root->tree().subtree_aggregate().nodes == 63u;
      },
      deadline));
}

// --- cached parent ----------------------------------------------------------

TEST(RnTreeCachedParent, SteadyStateSendsNoParentLookups) {
  Fixture fx{21};
  // Without Chord maintenance every Chord lookup is an RN-tree one.
  fx.chord_config.run_maintenance = false;
  fx.build(64);
  const auto lookups = [&] {
    std::uint64_t sum = 0;
    for (auto& h : fx.hosts) sum += h->chord().stats().lookups_started;
    return sum;
  };
  const std::uint64_t settled = lookups();
  ASSERT_GT(settled, 0u);  // the first round looked every parent up

  fx.settle(10 * RnTreeConfig{}.aggregation_period.sec());
  EXPECT_EQ(lookups(), settled);
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    EXPECT_EQ(h->tree().cached_parent(),
              fx.oracle_successor(h->tree().parent_key()));
  }
  ASSERT_NE(fx.root(), nullptr);
  EXPECT_EQ(fx.root()->tree().subtree_aggregate().nodes, 64u);
}

TEST(RnTreeCachedParent, ReResolvesParentAfterCrash) {
  Fixture fx{22};
  fx.build(64);
  // The non-root node with the most children.
  RnHost* victim = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    if (victim == nullptr ||
        h->tree().child_count() > victim->tree().child_count()) {
      victim = h.get();
    }
  }
  ASSERT_NE(victim, nullptr);
  std::vector<RnHost*> children;
  for (auto& h : fx.hosts) {
    if (h->tree().cached_parent().addr == victim->addr()) {
      children.push_back(h.get());
    }
  }
  ASSERT_GE(children.size(), 2u);

  fx.crash(*victim);
  // Until Chord has repaired the ring, a lookup can still return the dead
  // node. A child notices at its next push, at most kRefreshRounds rounds
  // after the crash, once rpc_timeout passes unanswered, and looks its
  // parent up in the round after. The repair (about 9 s here) outlasts the
  // refresh gap, so by then every child's push to the victim is out.
  ASSERT_TRUE(fx.settle_until([&] { return fx.ring_repaired(); }, 60));
  const RnTreeConfig config;
  fx.settle((config.rpc_timeout + config.aggregation_period * 2).sec());
  for (RnHost* c : children) {
    EXPECT_EQ(c->tree().cached_parent(),
              fx.oracle_successor(c->tree().parent_key()));
  }
  // Refused and dead children expire, and the repaired subtrees' counts
  // reach the root one level per aggregation period.
  fx.settle(config.child_expiry.sec() +
            20 * config.aggregation_period.sec());
  ASSERT_NE(fx.root(), nullptr);
  EXPECT_EQ(fx.root()->tree().subtree_aggregate().nodes, 63u);
}

TEST(RnTreeCachedParent, ReResolvesParentAfterJoin) {
  Fixture fx{23};
  fx.build(64);
  // A child whose parent key is no node's Guid, so a node can join there.
  RnHost* child = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    if (fx.oracle_successor(h->tree().parent_key()).id ==
        h->tree().parent_key()) {
      continue;
    }
    child = h.get();
    break;
  }
  ASSERT_NE(child, nullptr);
  const Guid key = child->tree().parent_key();
  const chord::Peer old_parent = child->tree().cached_parent();
  ASSERT_EQ(old_parent, fx.oracle_successor(key));

  fx.hosts.push_back(std::make_unique<RnHost>(
      fx.net, key, fx.chord_config, RnTreeConfig{}, fx.rng.fork(1000)));
  RnHost& newcomer = *fx.hosts.back();
  bool joined = false;
  newcomer.chord().join(old_parent, [&](bool ok) {
    joined = ok;
    if (ok) newcomer.tree().start();
  });
  fx.settle(30);
  ASSERT_TRUE(joined);
  // The newcomer took the key from the old parent, which refused the
  // child's next push; the child's own key did not move.
  EXPECT_EQ(child->tree().parent_key(), key);
  EXPECT_NE(std::find(child->refused_by.begin(), child->refused_by.end(),
                      old_parent.addr),
            child->refused_by.end());
  EXPECT_EQ(child->tree().cached_parent(), newcomer.chord().self_peer());
}

TEST(RnTreeSearch, FindsSatisfyingNodeWhenOneExists) {
  Fixture fx{7};
  fx.build(64);
  // Exactly one node has capability 9 in resource 0.
  fx.hosts[23]->caps[0] = 9.0;
  fx.settle(60);  // aggregates must refresh up the whole tree
  Query q;
  q.constrained[0] = true;
  q.min[0] = 8.5;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[23]->addr());
  EXPECT_GE(res.hops, 1);
}

TEST(RnTreeSearch, UnconstrainedQueryFindsAnyNodeFast) {
  Fixture fx{8};
  fx.build(64);
  const Query q;  // no constraints: every node qualifies
  const auto res = fx.search_from(5, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.candidates.size(), 1u);
  // The initiator itself qualifies: zero hops.
  EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[5]->addr());
  EXPECT_EQ(res.hops, 0);
}

TEST(RnTreeSearch, ExtendedSearchCollectsKCandidates) {
  Fixture fx{9};
  fx.build(64);
  // Eight nodes have the rare capability.
  for (std::size_t i = 0; i < 8; ++i) fx.hosts[i * 8]->caps[1] = 7.0;
  fx.settle(60);
  Query q;
  q.constrained[1] = true;
  q.min[1] = 6.0;
  const auto res = fx.search_from(3, q, 4);
  ASSERT_TRUE(res.completed);
  EXPECT_GE(res.candidates.size(), 4u);
  for (const auto& c : res.candidates) {
    RnHost* h = fx.host_by_addr(c.peer.addr);
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->caps[1], 6.0);  // every candidate actually satisfies
  }
}

TEST(RnTreeSearch, ImpossibleQueryReturnsEmpty) {
  Fixture fx{10};
  fx.build(32);
  Query q;
  q.constrained[0] = true;
  q.min[0] = 1e9;  // nobody has this
  const auto res = fx.search_from(2, q, 1);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.candidates.empty());
}

TEST(RnTreeSearch, CandidatesCarryLoad) {
  Fixture fx{11};
  fx.build(16);
  for (auto& h : fx.hosts) h->load = 3.25;
  const Query q;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(res.candidates.empty());
  EXPECT_DOUBLE_EQ(res.candidates[0].load, 3.25);
}

TEST(RnTreeSearch, SearchSurvivesNodeFailures) {
  Fixture fx{12};
  fx.build(48);
  fx.hosts[30]->caps[2] = 5.0;
  fx.settle(60);
  // Crash a handful of nodes (none of them the target or initiator).
  for (std::size_t i : {7u, 19u, 41u}) fx.crash(*fx.hosts[i]);
  Query q;
  q.constrained[2] = true;
  q.min[2] = 4.0;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  // Either found (normal) or empty after the tree routed around the dead
  // nodes; it must not hang. Finding it is expected most of the time.
  if (!res.candidates.empty()) {
    EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[30]->addr());
  }
}

TEST(RnTreeQuery, ConstraintAlgebra) {
  Query q;
  q.constrained[0] = true;
  q.min[0] = 2.0;
  q.constrained[2] = true;
  q.min[2] = 5.0;
  EXPECT_EQ(q.constraint_count(), 2u);
  EXPECT_TRUE(q.satisfied_by(Caps{2.0, 0.0, 5.0, 0.0}));
  EXPECT_FALSE(q.satisfied_by(Caps{1.9, 9.0, 9.0, 9.0}));
  EXPECT_FALSE(q.satisfied_by(Caps{9.0, 9.0, 4.9, 9.0}));

  Aggregate agg;
  agg.max_caps = Caps{3.0, 0.0, 6.0, 0.0};
  agg.nodes = 5;
  EXPECT_TRUE(q.possibly_satisfied_by(agg));
  agg.nodes = 0;
  EXPECT_FALSE(q.possibly_satisfied_by(agg));
}

TEST(RnTreeAggregateUnit, MergeTakesMaxAndSumsNodes) {
  Aggregate a;
  a.max_caps = Caps{1.0, 5.0, 0.0, 0.0};
  a.nodes = 2;
  Aggregate b;
  b.max_caps = Caps{4.0, 2.0, 0.0, 0.0};
  b.nodes = 3;
  a.merge(b);
  EXPECT_EQ(a.nodes, 5u);
  EXPECT_DOUBLE_EQ(a.max_caps[0], 4.0);
  EXPECT_DOUBLE_EQ(a.max_caps[1], 5.0);
  // Merging an empty aggregate changes nothing.
  a.merge(Aggregate{});
  EXPECT_EQ(a.nodes, 5u);
}

// Property: single-root and bounded height across sizes.
class RnTreeSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RnTreeSizeSweep, OneRootBoundedHeight) {
  Fixture fx{GetParam() * 13 + 1};
  fx.build(GetParam());
  EXPECT_EQ(fx.root_count(), 1u);
  for (auto& h : fx.hosts) {
    int depth = 0;
    RnHost* cursor = h.get();
    while (!cursor->tree().is_root() && depth < 64) {
      const chord::Peer p = cursor->tree().cached_parent();
      ASSERT_TRUE(p.valid());
      cursor = fx.host_by_addr(p.addr);
      ASSERT_NE(cursor, nullptr);
      ++depth;
    }
    EXPECT_LT(depth, 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RnTreeSizeSweep,
                         ::testing::Values(2, 4, 9, 17, 33, 65, 200));

}  // namespace
}  // namespace pgrid::rntree
