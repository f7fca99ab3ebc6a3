#pragma once
// CAN space harness: owns a set of CanNodes, supports protocol joins and
// instant wiring (logical sequence of splits), answers ground-truth owner
// queries, and drives crash/restart for failure tests.

#include <memory>
#include <vector>

#include "can/can_node.h"
#include "common/rng.h"
#include "net/network.h"

namespace pgrid::can {

/// Standalone network host owning exactly one CanNode.
class CanHost final : public net::MessageHandler {
 public:
  CanHost(net::Network& network, Guid id, Point rep_point, CanConfig config,
          Rng rng)
      : addr_(network.add_handler(this)),
        node_(network, addr_, id, rep_point, config, rng) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    node_.handle(from, msg);
  }

  [[nodiscard]] CanNode& node() noexcept { return node_; }
  [[nodiscard]] const CanNode& node() const noexcept { return node_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return addr_; }

 private:
  net::NodeAddr addr_;
  CanNode node_;
};

/// Install zones and exact neighbor tables into a set of live CanNodes,
/// replaying the deterministic split sequence logically. Used for instant
/// experiment bootstrap by CanSpace and by the grid layer.
/// Near-linear: each joiner is point-located by descending the split
/// history's binary tree (each split yields two children), and neighbor
/// sets are maintained incrementally — a split can only create adjacency
/// within the split zone's old neighborhood, so discovery is
/// output-sensitive instead of an O(N²) all-pairs abuts() scan.
void wire_space_instantly(const std::vector<CanNode*>& nodes,
                          std::size_t dims);

class CanSpace {
 public:
  CanSpace(net::Network& network, CanConfig config, Rng rng);

  CanHost& add_host(Guid id, Point rep_point);

  /// Replay the deterministic split sequence logically and install the
  /// resulting zones plus exact neighbor tables into every host.
  void wire_instantly();

  /// Ground truth: the live node owning `p`. Scans a cached live-host
  /// index (invalidated only by add_host/crash/restart) instead of
  /// re-filtering the full host list per query.
  [[nodiscard]] Peer oracle_owner(const Point& p) const;

  void crash(std::size_t index);
  void restart(std::size_t index);

  [[nodiscard]] std::size_t size() const noexcept { return hosts_.size(); }
  [[nodiscard]] CanHost& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] const CanHost& host(std::size_t i) const {
    return *hosts_.at(i);
  }
  [[nodiscard]] bool crashed(std::size_t i) const { return !alive_.at(i); }
  [[nodiscard]] const CanConfig& config() const noexcept { return config_; }

  /// Invariant check: live zones tile the unit cube exactly (total volume 1,
  /// pairwise disjoint). Used by property tests.
  [[nodiscard]] bool zones_tile_space(double tolerance = 1e-9) const;

 private:
  void ensure_live_index() const;

  net::Network& net_;
  CanConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<CanHost>> hosts_;
  std::vector<bool> alive_;

  // Cached live-host indices (host order), rebuilt lazily after any
  // membership change; oracle_owner runs once per job in the benches.
  mutable bool live_dirty_ = true;
  mutable std::vector<std::size_t> live_hosts_;
};

}  // namespace pgrid::can
