#include "chord/ring.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/expects.h"

namespace pgrid::chord {

ChordRing::ChordRing(net::Network& network, ChordConfig config, Rng rng)
    : net_(network), config_(config), rng_(rng) {}

ChordHost& ChordRing::add_host(Guid id) {
  hosts_.push_back(
      std::make_unique<ChordHost>(net_, id, config_, rng_.fork(hosts_.size())));
  alive_.push_back(true);
  live_dirty_ = true;
  return *hosts_.back();
}

Peer ring_oracle_successor(const std::vector<const ChordNode*>& nodes,
                           Guid key) {
  Peer best = kNoPeer;
  std::uint64_t best_dist = 0;
  for (const ChordNode* node : nodes) {
    // successor(key): minimal clockwise distance from key to a node id,
    // where distance 0 (the node exactly at the key) counts as owner.
    const std::uint64_t dist = key.clockwise_to(node->id());
    if (!best.valid() || dist < best_dist) {
      best = Peer{node->addr(), node->id()};
      best_dist = dist;
    }
  }
  return best;
}

namespace {

/// Ring positions sorted by GUID. Sorts flat (id, index) pairs — one linear pass of node dereferences —
/// instead of an index sort whose comparator would chase node pointers on
/// every comparison (a cache miss per compare at 10k+ nodes).
std::vector<std::size_t> sorted_order(const std::vector<ChordNode*>& nodes) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    keyed[i] = {nodes[i]->id().value(), static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) order[i] = keyed[i].second;
  return order;
}

}  // namespace

Peer ring_successor(const std::vector<Peer>& sorted, Guid key) {
  PGRID_EXPECTS(!sorted.empty());
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), key,
      [](const Peer& p, Guid k) { return p.id < k; });
  return it == sorted.end() ? sorted.front() : *it;
}

std::vector<Peer> wire_ring_instantly(const std::vector<ChordNode*>& nodes) {
  PGRID_EXPECTS(!nodes.empty());
  const std::size_t n = nodes.size();
  const std::vector<std::size_t> order = sorted_order(nodes);

  // Flat sorted ring: ids[pos] / ring[pos] is the pos-th node clockwise.
  std::vector<Guid> ids(n);
  std::vector<Peer> ring(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const ChordNode& node = *nodes[order[pos]];
    ids[pos] = node.id();
    ring[pos] = Peer{node.addr(), node.id()};
  }

  // successor(key) = first id >= key, wrapping to the smallest id. Minimal
  // clockwise distance and lower_bound semantics agree because ids are
  // unique: every id >= key is closer (clockwise) than any id < key, which
  // must wrap.
  //
  for (std::size_t pos = 0; pos < n; ++pos) {
    ChordNode& node = *nodes[order[pos]];

    const Peer pred = ring[(pos + n - 1) % n];
    std::vector<Peer> succs;
    const std::size_t list_len =
        std::min(node.config().successor_list_len, n > 1 ? n - 1 : 1);
    succs.reserve(std::max<std::size_t>(list_len, 1));
    for (std::size_t k = 1; k <= std::max<std::size_t>(list_len, 1); ++k) {
      succs.push_back(ring[(pos + k) % n]);
    }

    // finger[i] = successor(id + 2^i). Every bit whose span 2^i is at most
    // the clockwise gap to the next node lands inside (id, next] and
    // resolves to the immediate successor without a search — at N nodes
    // that is all but ~log2(N) of the 64 bits. The remaining targets
    // ascend with i (wrapping past zero at most once), so each
    // lower_bound searches only above the previous result, resetting its
    // floor once at the wrap.
    std::array<Peer, ChordNode::kBits> fingers{};
    const Peer next = ring[(pos + 1) % n];
    const std::uint64_t gap = node.id().clockwise_to(next.id);
    int i = 0;
    for (; i < ChordNode::kBits; ++i) {
      const std::uint64_t span = std::uint64_t{1} << i;
      if (gap != 0 && span > gap) break;  // gap 0 only when n == 1
      fingers[static_cast<std::size_t>(i)] = next;
    }
    std::size_t floor_pos = 0;
    std::uint64_t prev_key = 0;
    for (; i < ChordNode::kBits; ++i) {
      const std::uint64_t key = node.id().value() + (std::uint64_t{1} << i);
      if (key < prev_key) floor_pos = 0;  // wrapped past zero
      prev_key = key;
      const auto it =
          std::lower_bound(ids.begin() + static_cast<std::ptrdiff_t>(floor_pos),
                           ids.end(), Guid{key});
      const auto j = static_cast<std::size_t>(it - ids.begin());
      fingers[static_cast<std::size_t>(i)] = ring[j == n ? 0 : j];
      floor_pos = j;
    }
    node.install_state(pred, std::move(succs), fingers);
  }
  return ring;
}

void ChordRing::ensure_live_index() const {
  if (!live_dirty_) return;
  live_hosts_.clear();
  live_peers_.clear();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (alive_[i]) live_hosts_.push_back(i);
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(live_hosts_.size());
  for (std::size_t i : live_hosts_) {
    keyed.emplace_back(hosts_[i]->node().id().value(),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  live_peers_.reserve(keyed.size());
  for (const auto& [id, i] : keyed) {
    live_peers_.push_back(Peer{hosts_[i]->addr(), Guid{id}});
  }
  live_dirty_ = false;
}

void ChordRing::wire_instantly() {
  ensure_live_index();
  std::vector<ChordNode*> live;
  live.reserve(live_hosts_.size());
  for (std::size_t i : live_hosts_) live.push_back(&hosts_[i]->node());
  wire_ring_instantly(live);
}

Peer ChordRing::oracle_successor(Guid key) const {
  ensure_live_index();
  return live_peers_.empty() ? kNoPeer : ring_successor(live_peers_, key);
}

void ChordRing::crash(std::size_t index) {
  PGRID_EXPECTS(index < hosts_.size());
  if (!alive_[index]) return;
  alive_[index] = false;
  live_dirty_ = true;
  net_.set_alive(hosts_[index]->addr(), false);
  hosts_[index]->node().crash();
}

void ChordRing::restart(std::size_t index) {
  PGRID_EXPECTS(index < hosts_.size());
  if (alive_[index]) return;
  alive_[index] = true;
  live_dirty_ = true;
  net_.set_alive(hosts_[index]->addr(), true);
  // Rejoin through the first live host.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (i != index && alive_[i]) {
      const ChordNode& boot = hosts_[i]->node();
      hosts_[index]->node().join(Peer{boot.addr(), boot.id()}, nullptr);
      return;
    }
  }
  hosts_[index]->node().create();  // nobody else alive: new singleton ring
}

}  // namespace pgrid::chord
