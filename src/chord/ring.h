#pragma once
// Chord ring harness: owns a set of ChordNodes, supports both protocol-level
// joins and instant ("oracle") wiring, and answers ground-truth successor
// queries for tests and for the centralized matchmaker baseline.

#include <memory>
#include <vector>

#include "chord/chord_node.h"
#include "common/rng.h"
#include "net/network.h"

namespace pgrid::chord {

/// Standalone network host owning exactly one ChordNode (tests/benches;
/// the grid layer embeds ChordNode in its own host instead).
class ChordHost final : public net::MessageHandler {
 public:
  ChordHost(net::Network& network, Guid id, ChordConfig config, Rng rng)
      : addr_(network.add_handler(this)),
        node_(network, addr_, id, config, rng) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    node_.handle(from, msg);
  }

  [[nodiscard]] ChordNode& node() noexcept { return node_; }
  [[nodiscard]] const ChordNode& node() const noexcept { return node_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return addr_; }

 private:
  net::NodeAddr addr_;
  ChordNode node_;
};

/// Install exact routing state (successors, predecessors, fingers) into a
/// set of live ChordNodes, forming a perfectly consistent ring. Used for
/// instant experiment bootstrap by ChordRing and by the grid layer.
/// Sorts once into a flat (Guid, Peer) ring; successors and predecessors
/// are neighbors in ring order. Per node, every finger bit whose span fits
/// inside the gap to the next node is the immediate successor (all but
/// ~log2(N) of 64 bits); the rest resolve via monotone-floor binary
/// searches. O(N log N) sort + O(N · (64 + log²N)). Returns the ring in
/// GUID order, for ring_successor queries over the wired membership.
std::vector<Peer> wire_ring_instantly(const std::vector<ChordNode*>& nodes);

/// successor(key) on a non-empty ring in GUID order (as
/// wire_ring_instantly returns it): one binary search.
[[nodiscard]] Peer ring_successor(const std::vector<Peer>& sorted, Guid key);

/// Ground-truth successor among the given nodes (O(N) scan).
[[nodiscard]] Peer ring_oracle_successor(
    const std::vector<const ChordNode*>& nodes, Guid key);

class ChordRing {
 public:
  ChordRing(net::Network& network, ChordConfig config, Rng rng);

  /// Create a host with the given GUID. Does not start any protocol.
  ChordHost& add_host(Guid id);

  /// Wire all current hosts into a consistent ring instantly: exact
  /// successors/predecessors, full successor lists and fingers.
  void wire_instantly();

  /// Ground truth: the live node owning `key` (successor among live nodes).
  /// O(log N): answered from a cached sorted index of live nodes that is
  /// invalidated only by add_host/crash/restart, since the benches and the
  /// centralized matchmaker baseline call this once per job.
  [[nodiscard]] Peer oracle_successor(Guid key) const;

  /// Mark a host crashed: network-dead plus protocol shutdown.
  void crash(std::size_t index);

  /// Restart a crashed host and rejoin through any live node.
  void restart(std::size_t index);

  [[nodiscard]] std::size_t size() const noexcept { return hosts_.size(); }
  [[nodiscard]] ChordHost& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] const ChordHost& host(std::size_t i) const {
    return *hosts_.at(i);
  }
  [[nodiscard]] bool crashed(std::size_t i) const { return !alive_.at(i); }
  [[nodiscard]] net::Network& network() noexcept { return net_; }

 private:
  void ensure_live_index() const;

  net::Network& net_;
  ChordConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<ChordHost>> hosts_;
  std::vector<bool> alive_;

  // Cached live index: host indices in host order (for wiring) plus the
  // same peers sorted by GUID (for O(log N) oracle queries). Rebuilt lazily
  // after any membership change.
  mutable bool live_dirty_ = true;
  mutable std::vector<std::size_t> live_hosts_;
  mutable std::vector<Peer> live_peers_;  // sorted by GUID
};

}  // namespace pgrid::chord
