#include "can/space.h"

#include <algorithm>
#include <cstdint>
#include <thread>

#include "common/expects.h"
#include "sim/runner.h"

namespace pgrid::can {

CanSpace::CanSpace(net::Network& network, CanConfig config, Rng rng)
    : net_(network), config_(config), rng_(rng) {}

CanHost& CanSpace::add_host(Guid id, Point rep_point) {
  hosts_.push_back(std::make_unique<CanHost>(net_, id, rep_point, config_,
                                             rng_.fork(hosts_.size())));
  alive_.push_back(true);
  live_dirty_ = true;
  return *hosts_.back();
}

namespace {

/// Install the final per-node tables given each node's zone and its sorted
/// neighbor index list. their_neighbors lists addresses in ascending node
/// index, the order of an all-pairs scan.
void install_tables(const std::vector<CanNode*>& nodes,
                    const std::vector<Zone>& zone_of,
                    const std::vector<std::vector<std::uint32_t>>& nbrs) {
  const std::size_t n = nodes.size();
  std::vector<std::vector<net::NodeAddr>> nbr_addrs(n);
  for (std::size_t a = 0; a < n; ++a) {
    nbr_addrs[a].reserve(nbrs[a].size());
    for (std::uint32_t b : nbrs[a]) nbr_addrs[a].push_back(nodes[b]->addr());
  }

  // Building the tables is the memory-bound bulk of instant wiring (the
  // total table size is sum-of-squared-degrees), and each node's table
  // only reads shared immutable inputs — so build them in parallel chunks
  // at large N. install_state stays serial: it may schedule maintenance
  // events, and the simulator is single-threaded.
  std::vector<FlatMap<net::NodeAddr, NeighborState>> tables(n);
  auto build_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t a = lo; a < hi; ++a) {
      FlatMap<net::NodeAddr, NeighborState>& table = tables[a];
      table.reserve(nbrs[a].size());
      for (std::uint32_t b : nbrs[a]) {
        // Neighbor indices are sorted and addresses ascend with index, so
        // each emplace appends; the entry is filled in place.
        NeighborState& ns = table.emplace(nodes[b]->addr()).first->second;
        ns.id = nodes[b]->id();
        ns.zones.assign(1, zone_of[b]);
        ns.rep_point = nodes[b]->rep_point();
        ns.load = 0.0;
        ns.their_neighbors = nbr_addrs[b];
      }
    }
  };
  // Serial below the threshold: bootstraps that already run on sweep worker
  // threads (scalability cells, chaos replicates) stay single-threaded.
  constexpr std::size_t kParallelThreshold = 4096;
  if (n < kParallelThreshold) {
    build_range(0, n);
  } else {
    const std::size_t chunks = 4 * std::max(
        std::size_t{1},
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
    const std::size_t chunk = (n + chunks - 1) / chunks;
    sim::parallel_for_cells(chunks, 0, [&](std::size_t c) {
      build_range(c * chunk, std::min(n, (c + 1) * chunk));
    });
  }

  for (std::size_t a = 0; a < n; ++a) {
    nodes[a]->install_state({zone_of[a]}, std::move(tables[a]));
  }
}

}  // namespace

void wire_space_instantly(const std::vector<CanNode*>& nodes,
                          std::size_t dims) {
  PGRID_EXPECTS(!nodes.empty());
  const std::size_t n = nodes.size();
  std::vector<Zone> zone_of(n);
  zone_of[0] = Zone::whole(dims);
  const Zone whole = Zone::whole(dims);

  // Point location over the split history: the sequential-split replay is
  // naturally a binary tree — each split turns one leaf (a current zone)
  // into an internal node holding the cut plane, with the two halves as
  // children. Descending the cut planes finds the zone containing a
  // joining point in O(depth). Leaves are encoded as ~owner (< 0).
  struct SplitNode {
    std::size_t dim;
    double cut;
    std::int32_t lo_child;
    std::int32_t hi_child;
  };
  auto leaf = [](std::size_t owner) {
    return ~static_cast<std::int32_t>(owner);
  };
  std::vector<SplitNode> tree;
  tree.reserve(n);
  std::int32_t root = leaf(0);
  // Where each node's leaf currently hangs: (tree index, hi side), with
  // tree index -1 meaning the root slot. Needed to patch the tree when a
  // zone is found by the out-of-space fallback rather than by descent.
  struct LeafSlot {
    std::int32_t parent = -1;
    bool hi = false;
  };
  std::vector<LeafSlot> slot_of(n);

  // Exact neighbor sets (sorted by node index), maintained incrementally:
  // any zone abutting a half of a just-split zone Z either abutted Z or is
  // the other half (a foreign zone touching the interior cut plane would
  // overlap Z), so each split only re-examines Z's old neighborhood.
  std::vector<std::vector<std::uint32_t>> nbrs(n);

  for (std::size_t k = 1; k < n; ++k) {
    const Point& jp = nodes[k]->rep_point();
    std::size_t owner = 0;
    if (whole.contains(jp)) {
      std::int32_t cur = root;
      while (cur >= 0) {
        const SplitNode& s = tree[static_cast<std::size_t>(cur)];
        cur = jp[s.dim] < s.cut ? s.lo_child : s.hi_child;
      }
      owner = static_cast<std::size_t>(~cur);
    }
    // else: out-of-space point — same fallback as the sequential scan,
    // which finds no containing zone and splits node 0's zone.

    const Point& op = nodes[owner]->rep_point();
    const Point keeper =
        zone_of[owner].contains(op) ? op : zone_of[owner].center();
    const auto [mine, theirs] = zone_of[owner].split_for(keeper, jp);

    // Recover the cut plane: the halves differ from each other only along
    // the split dimension, where one's hi face is the other's lo face.
    std::size_t sd = 0;
    double cut = 0.0;
    bool owner_low = true;
    for (std::size_t d = 0; d < dims; ++d) {
      if (mine.lo()[d] != theirs.lo()[d]) {
        sd = d;
        owner_low = mine.lo()[d] < theirs.lo()[d];
        cut = owner_low ? theirs.lo()[d] : mine.lo()[d];
        break;
      }
    }

    const auto tnode = static_cast<std::int32_t>(tree.size());
    tree.push_back(SplitNode{sd, cut, owner_low ? leaf(owner) : leaf(k),
                             owner_low ? leaf(k) : leaf(owner)});
    const LeafSlot at = slot_of[owner];
    if (at.parent < 0) {
      root = tnode;
    } else if (at.hi) {
      tree[static_cast<std::size_t>(at.parent)].hi_child = tnode;
    } else {
      tree[static_cast<std::size_t>(at.parent)].lo_child = tnode;
    }
    slot_of[owner] = LeafSlot{tnode, !owner_low};
    slot_of[k] = LeafSlot{tnode, owner_low};
    zone_of[owner] = mine;
    zone_of[k] = theirs;

    // Re-derive adjacency within the old neighborhood; both lists stay
    // sorted because `old` is sorted and k exceeds every prior index.
    const std::vector<std::uint32_t> old = std::move(nbrs[owner]);
    std::vector<std::uint32_t>& owner_n = nbrs[owner];
    std::vector<std::uint32_t>& new_n = nbrs[k];
    owner_n.clear();
    for (std::uint32_t b : old) {
      const bool with_owner = zone_of[owner].abuts(zone_of[b]);
      const bool with_new = zone_of[k].abuts(zone_of[b]);
      if (with_owner) owner_n.push_back(b);
      if (with_new) new_n.push_back(b);
      if (!with_owner) {
        std::vector<std::uint32_t>& bn = nbrs[b];
        bn.erase(std::lower_bound(bn.begin(), bn.end(),
                                  static_cast<std::uint32_t>(owner)));
      }
      if (with_new) nbrs[b].push_back(static_cast<std::uint32_t>(k));
    }
    // The halves share the cut face, so they always abut each other.
    owner_n.push_back(static_cast<std::uint32_t>(k));
    new_n.insert(std::lower_bound(new_n.begin(), new_n.end(),
                                  static_cast<std::uint32_t>(owner)),
                 static_cast<std::uint32_t>(owner));
  }

  install_tables(nodes, zone_of, nbrs);
}

void CanSpace::ensure_live_index() const {
  if (!live_dirty_) return;
  live_hosts_.clear();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (alive_[i]) live_hosts_.push_back(i);
  }
  live_dirty_ = false;
}

void CanSpace::wire_instantly() {
  ensure_live_index();
  std::vector<CanNode*> live;
  live.reserve(live_hosts_.size());
  for (std::size_t i : live_hosts_) live.push_back(&hosts_[i]->node());
  wire_space_instantly(live, config_.dims);
}

Peer CanSpace::oracle_owner(const Point& p) const {
  ensure_live_index();
  for (std::size_t i : live_hosts_) {
    if (hosts_[i]->node().owns(p)) {
      return Peer{hosts_[i]->addr(), hosts_[i]->node().id()};
    }
  }
  return kNoPeer;
}

void CanSpace::crash(std::size_t index) {
  PGRID_EXPECTS(index < hosts_.size());
  if (!alive_[index]) return;
  alive_[index] = false;
  live_dirty_ = true;
  net_.set_alive(hosts_[index]->addr(), false);
  hosts_[index]->node().crash();
}

void CanSpace::restart(std::size_t index) {
  PGRID_EXPECTS(index < hosts_.size());
  if (alive_[index]) return;
  alive_[index] = true;
  live_dirty_ = true;
  net_.set_alive(hosts_[index]->addr(), true);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (i != index && alive_[i]) {
      const CanNode& boot = hosts_[i]->node();
      hosts_[index]->node().join(Peer{boot.addr(), boot.id()}, nullptr);
      return;
    }
  }
  hosts_[index]->node().create();
}

bool CanSpace::zones_tile_space(double tolerance) const {
  double total = 0.0;
  std::vector<Zone> all;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (!alive_[i]) continue;
    for (const Zone& z : hosts_[i]->node().zones()) {
      total += z.volume();
      all.push_back(z);
    }
  }
  if (std::abs(total - 1.0) > tolerance) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (all[i].overlaps(all[j])) return false;
    }
  }
  return true;
}

}  // namespace pgrid::can
