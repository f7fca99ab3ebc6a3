// Property tests for the O(N log N) instant-wiring paths: the fast
// wire_ring_instantly / wire_space_instantly must produce *bit-identical*
// routing state (fingers, successor lists, predecessors, zones, neighbor
// tables) to the naive O(N²) references below across randomized sizes and
// dimensions, and the cached oracle indexes must agree with the O(N)
// ground-truth scans after interleaved crash/restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "can/space.h"
#include "chord/ring.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace {

using namespace pgrid;

// --- naive references -------------------------------------------------------

/// Reference for chord::wire_ring_instantly: resolves each of the 64
/// fingers per node with the O(N) oracle scan, O(64 · N²) in all.
void wire_ring_naive(const std::vector<chord::ChordNode*>& nodes) {
  const std::vector<const chord::ChordNode*> view(nodes.begin(), nodes.end());
  const std::size_t n = nodes.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a]->id().value() < nodes[b]->id().value();
  });
  const auto peer_at = [&](std::size_t ring_pos) {
    const chord::ChordNode& node = *nodes[order[ring_pos % n]];
    return chord::Peer{node.addr(), node.id()};
  };

  for (std::size_t pos = 0; pos < n; ++pos) {
    chord::ChordNode& node = *nodes[order[pos]];
    std::vector<chord::Peer> succs;
    const std::size_t list_len =
        std::min(node.config().successor_list_len, n > 1 ? n - 1 : 1);
    for (std::size_t k = 1; k <= std::max<std::size_t>(list_len, 1); ++k) {
      succs.push_back(peer_at(pos + k));
    }
    std::array<chord::Peer, chord::ChordNode::kBits> fingers{};
    for (int i = 0; i < chord::ChordNode::kBits; ++i) {
      const Guid start{node.id().value() + (std::uint64_t{1} << i)};
      fingers[static_cast<std::size_t>(i)] =
          chord::ring_oracle_successor(view, start);
    }
    node.install_state(peer_at(pos + n - 1), std::move(succs), fingers);
  }
}

/// Reference for can::wire_space_instantly: O(N²) point location plus
/// O(N²) all-pairs neighbor discovery.
void wire_space_naive(const std::vector<can::CanNode*>& nodes,
                      std::size_t dims) {
  const std::size_t n = nodes.size();
  // Logical replay of sequential joins: node k's zone is found by splitting
  // the zone currently containing its representative point, with the same
  // split_for rule the protocol uses.
  std::vector<can::Zone> zone_of(n);
  zone_of[0] = can::Zone::whole(dims);
  for (std::size_t k = 1; k < n; ++k) {
    const can::Point& jp = nodes[k]->rep_point();
    std::size_t owner = 0;
    for (std::size_t m = 0; m < k; ++m) {
      if (zone_of[m].contains(jp)) {
        owner = m;
        break;
      }
    }
    const can::Point& op = nodes[owner]->rep_point();
    const can::Point keeper =
        zone_of[owner].contains(op) ? op : zone_of[owner].center();
    const auto [mine, theirs] = zone_of[owner].split_for(keeper, jp);
    zone_of[owner] = mine;
    zone_of[k] = theirs;
  }

  std::vector<std::vector<std::size_t>> nbrs(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b && zone_of[a].abuts(zone_of[b])) nbrs[a].push_back(b);
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    FlatMap<net::NodeAddr, can::NeighborState> table;
    for (std::size_t b : nbrs[a]) {
      can::NeighborState& ns = table[nodes[b]->addr()];
      ns.id = nodes[b]->id();
      ns.zones.assign(1, zone_of[b]);
      ns.rep_point = nodes[b]->rep_point();
      for (std::size_t c : nbrs[b]) {
        ns.their_neighbors.push_back(nodes[c]->addr());
      }
    }
    nodes[a]->install_state({zone_of[a]}, std::move(table));
  }
}

// --- Chord: fast wiring == naive wiring -------------------------------------

struct ChordSnapshot {
  chord::Peer pred;
  std::vector<chord::Peer> succs;
  std::array<chord::Peer, chord::ChordNode::kBits> fingers;
};

ChordSnapshot snapshot_of(const chord::ChordNode& node) {
  ChordSnapshot s;
  s.pred = node.predecessor();
  s.succs = node.successor_list();
  for (int i = 0; i < chord::ChordNode::kBits; ++i) {
    s.fingers[static_cast<std::size_t>(i)] = node.finger(i);
  }
  return s;
}

void expect_chord_equal(const ChordSnapshot& naive,
                        const chord::ChordNode& node, std::size_t n,
                        std::size_t host) {
  EXPECT_TRUE(naive.pred == node.predecessor())
      << "predecessor mismatch n=" << n << " host=" << host;
  ASSERT_EQ(naive.succs.size(), node.successor_list().size());
  for (std::size_t k = 0; k < naive.succs.size(); ++k) {
    EXPECT_TRUE(naive.succs[k] == node.successor_list()[k])
        << "successor[" << k << "] mismatch n=" << n << " host=" << host;
  }
  for (int i = 0; i < chord::ChordNode::kBits; ++i) {
    EXPECT_TRUE(naive.fingers[static_cast<std::size_t>(i)] == node.finger(i))
        << "finger[" << i << "] mismatch n=" << n << " host=" << host;
  }
}

TEST(WiringEquivalence, ChordFastMatchesNaiveAcrossSizes) {
  std::vector<std::size_t> sizes{1, 2, 3, 4, 5, 9, 17, 64, 129, 256, 257};
  Rng extra{0xC0FFEE};
  for (int t = 0; t < 5; ++t) sizes.push_back(1 + extra.index(257));

  for (std::size_t n : sizes) {
    sim::Simulator simulator;
    net::Network network(simulator, Rng{1});
    chord::ChordConfig config;
    config.run_maintenance = false;
    chord::ChordRing ring(network, config, Rng{2});
    Rng id_rng{0x51D * (n + 1)};
    for (std::size_t i = 0; i < n; ++i) ring.add_host(Guid{id_rng.next()});

    std::vector<chord::ChordNode*> nodes;
    for (std::size_t i = 0; i < n; ++i) nodes.push_back(&ring.host(i).node());

    wire_ring_naive(nodes);
    std::vector<ChordSnapshot> naive;
    naive.reserve(n);
    for (const chord::ChordNode* node : nodes) {
      naive.push_back(snapshot_of(*node));
    }

    chord::wire_ring_instantly(nodes);
    for (std::size_t i = 0; i < n; ++i) {
      expect_chord_equal(naive[i], *nodes[i], n, i);
    }
  }
}

// --- CAN: fast wiring == naive wiring ----------------------------------------

struct CanSnapshot {
  std::vector<can::Zone> zones;
  FlatMap<net::NodeAddr, can::NeighborState> neighbors;
};

void expect_can_equal(const CanSnapshot& naive, const can::CanNode& node,
                      std::size_t n, std::size_t dims, std::size_t host) {
  ASSERT_EQ(naive.zones.size(), node.zones().size());
  for (std::size_t z = 0; z < naive.zones.size(); ++z) {
    EXPECT_TRUE(naive.zones[z] == node.zones()[z])
        << "zone mismatch n=" << n << " dims=" << dims << " host=" << host;
  }
  const auto& got = node.neighbors();
  ASSERT_EQ(naive.neighbors.size(), got.size())
      << "neighbor count mismatch n=" << n << " dims=" << dims
      << " host=" << host;
  auto nit = naive.neighbors.begin();
  auto git = got.begin();
  for (; nit != naive.neighbors.end(); ++nit, ++git) {
    EXPECT_EQ(nit->first, git->first) << "neighbor addr order mismatch";
    EXPECT_EQ(nit->second.id, git->second.id);
    ASSERT_EQ(nit->second.zones.size(), git->second.zones.size());
    for (std::size_t z = 0; z < nit->second.zones.size(); ++z) {
      EXPECT_TRUE(nit->second.zones[z] == git->second.zones[z]);
    }
    EXPECT_TRUE(nit->second.rep_point == git->second.rep_point);
    EXPECT_EQ(nit->second.load, git->second.load);
    EXPECT_EQ(nit->second.their_neighbors, git->second.their_neighbors);
    EXPECT_EQ(nit->second.update_seq, git->second.update_seq);
  }
}

void run_can_case(std::size_t n, std::size_t dims,
                  const std::vector<can::Point>& points) {
  sim::Simulator simulator;
  net::Network network(simulator, Rng{1});
  can::CanConfig config;
  config.dims = dims;
  config.run_maintenance = false;
  can::CanSpace space(network, config, Rng{2});
  for (std::size_t i = 0; i < n; ++i) {
    space.add_host(Guid::of(std::uint64_t{0xCA} + i * 131), points[i]);
  }

  std::vector<can::CanNode*> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(&space.host(i).node());

  wire_space_naive(nodes, dims);
  std::vector<CanSnapshot> naive;
  naive.reserve(n);
  for (const can::CanNode* node : nodes) {
    naive.push_back(CanSnapshot{node->zones(), node->neighbors()});
  }
  EXPECT_TRUE(space.zones_tile_space());

  can::wire_space_instantly(nodes, dims);
  EXPECT_TRUE(space.zones_tile_space());
  for (std::size_t i = 0; i < n; ++i) {
    expect_can_equal(naive[i], *nodes[i], n, dims, i);
  }
}

TEST(WiringEquivalence, CanFastMatchesNaiveAcrossSizesAndDims) {
  for (std::size_t dims : {2u, 3u, 4u}) {
    std::vector<std::size_t> sizes{1, 2, 3, 5, 17, 64, 129, 257};
    Rng extra{0xBADA55 + dims};
    sizes.push_back(1 + extra.index(257));
    sizes.push_back(1 + extra.index(257));
    for (std::size_t n : sizes) {
      Rng point_rng{0xF00D * (n + 1) + dims};
      std::vector<can::Point> points;
      points.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        can::Point p(dims);
        for (std::size_t d = 0; d < dims; ++d) p[d] = point_rng.uniform();
        points.push_back(p);
      }
      run_can_case(n, dims, points);
    }
  }
}

TEST(WiringEquivalence, CanHandlesCoincidentAndBoundaryPoints) {
  // All joiners share one representative point: every split takes the
  // midpoint fallback, exercising deep splits of a single lineage.
  {
    const std::size_t n = 33, dims = 3;
    std::vector<can::Point> points(n, can::Point{0.375, 0.5, 0.625});
    run_can_case(n, dims, points);
  }
  // Coordinates snapped to a coarse grid: representative points land
  // exactly on split planes, stressing the half-open contains/descent
  // agreement and duplicate-point splits.
  {
    const std::size_t n = 129, dims = 2;
    Rng grid_rng{77};
    std::vector<can::Point> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      can::Point p(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        p[d] = 0.25 * static_cast<double>(grid_rng.index(4));
      }
      points.push_back(p);
    }
    run_can_case(n, dims, points);
  }
  // (Representative points outside [0,1)^d are a contract violation:
  // Zone::split_for PGRID_EXPECTS the joiner point, so both wiring paths
  // reject them identically before any state diverges.)
}

// --- cached oracle indexes vs ground-truth scans ------------------------------

TEST(OracleIndex, ChordOracleConsistentUnderCrashRestart) {
  sim::Simulator simulator;
  net::Network network(simulator, Rng{1});
  chord::ChordConfig config;
  config.run_maintenance = false;
  chord::ChordRing ring(network, config, Rng{2});
  const std::size_t n = 64;
  for (std::size_t i = 0; i < n; ++i) {
    ring.add_host(Guid::of(std::uint64_t{0xAB} + i * 2654435761ULL));
  }
  ring.wire_instantly();

  Rng ops{1234};
  for (int step = 0; step < 200; ++step) {
    const std::size_t idx = ops.index(n);
    if (ops.uniform() < 0.5) {
      ring.crash(idx);
    } else {
      ring.restart(idx);
    }
    std::vector<const chord::ChordNode*> live;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ring.crashed(i)) live.push_back(&ring.host(i).node());
    }
    for (int q = 0; q < 8; ++q) {
      const Guid key{ops.next()};
      const chord::Peer expect = chord::ring_oracle_successor(live, key);
      const chord::Peer got = ring.oracle_successor(key);
      ASSERT_TRUE(expect == got) << "step=" << step << " q=" << q;
    }
  }
  for (std::size_t i = 0; i < n; ++i) ring.crash(i);
  EXPECT_FALSE(ring.oracle_successor(Guid{42}).valid());
}

TEST(OracleIndex, CanOracleConsistentUnderCrashRestart) {
  sim::Simulator simulator;
  net::Network network(simulator, Rng{1});
  can::CanConfig config;
  config.dims = 3;
  config.run_maintenance = false;
  can::CanSpace space(network, config, Rng{2});
  const std::size_t n = 48;
  Rng point_rng{7};
  for (std::size_t i = 0; i < n; ++i) {
    can::Point p(config.dims);
    for (std::size_t d = 0; d < config.dims; ++d) p[d] = point_rng.uniform();
    space.add_host(Guid::of(std::uint64_t{0xCD} + i * 17), p);
  }
  space.wire_instantly();

  Rng ops{4321};
  for (int step = 0; step < 150; ++step) {
    const std::size_t idx = ops.index(n);
    if (ops.uniform() < 0.5) {
      space.crash(idx);
    } else {
      space.restart(idx);
    }
    for (int q = 0; q < 8; ++q) {
      can::Point p(config.dims);
      for (std::size_t d = 0; d < config.dims; ++d) p[d] = ops.uniform();
      // Ground truth: first live host (in host order) owning p.
      can::Peer expect = can::kNoPeer;
      for (std::size_t i = 0; i < n; ++i) {
        if (!space.crashed(i) && space.host(i).node().owns(p)) {
          expect = can::Peer{space.host(i).addr(), space.host(i).node().id()};
          break;
        }
      }
      const can::Peer got = space.oracle_owner(p);
      ASSERT_TRUE(expect == got) << "step=" << step << " q=" << q;
    }
  }
  for (std::size_t i = 0; i < n; ++i) space.crash(i);
  EXPECT_FALSE(space.oracle_owner(can::Point{0.5, 0.5, 0.5}).valid());
}

}  // namespace
