#pragma once
// CAN protocol messages: greedy routing (iterative, initiator-driven so the
// matchmaking-cost hop counts accrue at the initiator), zone join/split,
// periodic neighbor refresh doubling as failure detector, takeover claims,
// and the per-dimension load reports used by the improved ("push")
// matchmaking variant of §3.3.

#include <cstdint>
#include <memory>
#include <vector>

#include "can/geometry.h"
#include "chord/peer.h"
#include "net/message.h"

namespace pgrid::can {

using chord::Peer;  // same (addr, GUID) pair shape
using chord::kNoPeer;

enum MsgType : std::uint16_t {
  kRouteReq = net::kTagCanBase + 0,
  kRouteResp = net::kTagCanBase + 1,
  kJoinReq = net::kTagCanBase + 2,
  kJoinResp = net::kTagCanBase + 3,
  kZoneUpdate = net::kTagCanBase + 4,
  kDimLoadReport = net::kTagCanBase + 5,
  kNeighborHint = net::kTagCanBase + 6,
  kNeighborHello = net::kTagCanBase + 7,
};

/// Wire snapshot of a node's zone holdings, for join handoff.
struct NeighborInfo {
  Peer peer;
  std::vector<Zone> zones;
  Point rep_point;  // the node's coordinates (its capabilities)
  double load = 0.0;
};

struct RouteReq final : net::Message {
  static constexpr std::uint16_t kType = kRouteReq;

  explicit RouteReq(Point t) : Message(kType), target(t) {}

  Point target;
  /// Dead nodes observed by the initiator during this route.
  std::vector<Guid> avoid;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return target.dims() * 8 + avoid.size() * 8;
  }
  PGRID_MESSAGE_CLONE(RouteReq)
};

struct RouteResp final : net::Message {
  static constexpr std::uint16_t kType = kRouteResp;

  RouteResp(bool d, Peer n) : Message(kType), done(d), node(n) {}

  /// done: the responder owns the target point (node == responder).
  /// !done: `node` is the responder's neighbor closest to the target;
  ///        invalid node means the responder is a greedy dead end.
  bool done;
  Peer node;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 13;
  }
  PGRID_MESSAGE_CLONE(RouteResp)
};

struct JoinReq final : net::Message {
  static constexpr std::uint16_t kType = kJoinReq;

  JoinReq(Peer j, Point p, std::uint64_t s)
      : Message(kType), joiner(j), point(p), seq(s) {}

  Peer joiner;
  Point point;
  /// The joiner's ZoneUpdate counter when it asked: every claim it sent
  /// before is stale from the owner's point of view.
  std::uint64_t seq = 0;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + point.dims() * 8 + 8;
  }
  PGRID_MESSAGE_CLONE(JoinReq)
};

struct JoinResp final : net::Message {
  static constexpr std::uint16_t kType = kJoinResp;

  JoinResp() : Message(kType) {}

  bool accepted = false;
  Zone zone;  // the joiner's new zone
  /// The owner's ZoneUpdate counter at the split: its claims with this seq
  /// or lower predate the grant.
  std::uint64_t seq = 0;
  /// The splitting owner and its neighbors: the joiner's initial contacts.
  std::vector<NeighborInfo> contacts;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    std::size_t s = 1 + 2 * kMaxDims * 8 + 8;
    for (const auto& c : contacts) s += 12 + 8 + c.zones.size() * 2 * kMaxDims * 8;
    return s;
  }
  PGRID_MESSAGE_CLONE(JoinResp)
};

/// A node's full claim: zones + load + (for takeover) the sender's neighbor
/// addresses. Sent only when the receiver does not hold the sender's current
/// claim version, or pulls one (DESIGN.md §16); hellos carry every other
/// contact.
struct ZoneUpdate final : net::Message {
  static constexpr std::uint16_t kType = kZoneUpdate;

  /// The sender-side state advertised by one maintenance round. A broadcast
  /// fans the same snapshot out to every neighbor (degree sends), so the
  /// zones and neighbor-address vectors are built once and shared immutably
  /// instead of being copied per message — the dominant allocation in CAN
  /// steady state. Receivers read through the accessors below; the wire
  /// accounting still charges every copy its full serialized size.
  struct Snapshot {
    Peer sender;
    std::vector<Zone> zones;
    Point rep_point;
    double load = 0.0;
    std::vector<net::NodeAddr> neighbor_addrs;
    /// The sender's claim version, bumped every time its zone set or its
    /// neighbor set changes. A receiver that already holds this version
    /// knows `zones` and `neighbor_addrs` equal what it stored, without
    /// comparing them.
    std::uint64_t claim_version = 0;
  };

  explicit ZoneUpdate(std::shared_ptr<const Snapshot> s)
      : Message(kType), snap(std::move(s)) {}

  std::shared_ptr<const Snapshot> snap;
  /// Per-sender send counter. Receivers drop updates at or below the last
  /// seq seen from that sender, so duplicated or reordered copies (fault
  /// plane) can never roll a neighbor's zone view backwards. Per message,
  /// not per snapshot: each fan-out copy gets its own seq.
  std::uint64_t seq = 0;

  [[nodiscard]] const Peer& sender() const noexcept { return snap->sender; }
  [[nodiscard]] const std::vector<Zone>& zones() const noexcept {
    return snap->zones;
  }
  [[nodiscard]] const Point& rep_point() const noexcept {
    return snap->rep_point;
  }
  [[nodiscard]] double load() const noexcept { return snap->load; }
  [[nodiscard]] std::uint64_t claim_version() const noexcept {
    return snap->claim_version;
  }
  [[nodiscard]] const std::vector<net::NodeAddr>& neighbor_addrs()
      const noexcept {
    return snap->neighbor_addrs;
  }

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 20 + snap->zones.size() * 2 * kMaxDims * 8 + 8 +
           snap->neighbor_addrs.size() * 4;
  }
  PGRID_MESSAGE_CLONE(ZoneUpdate)
};

/// "You two should talk": sent when a node notices that the claims of two
/// of its neighbors overlap — double claims after a partition heal can sit
/// between nodes that do not know each other (e.g. a zone granted by a
/// not-yet-reconciled owner). The receiver probes `peer` with a ZoneUpdate
/// so the pairwise lower-GUID-wins resolution can run.
struct NeighborHint final : net::Message {
  static constexpr std::uint16_t kType = kNeighborHint;

  explicit NeighborHint(Peer p) : Message(kType), peer(p) {}

  Peer peer;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12;
  }
  PGRID_MESSAGE_CLONE(NeighborHint)
};

/// Compact liveness/load beacon of the maintenance round (DESIGN.md §16):
/// sent instead of a full ZoneUpdate when the receiver already holds the
/// sender's current claim version (tracked sender-side by
/// full_sent_version). The receiver knows the sender by the message's
/// source address, so the beacon names no sender: 25 bytes on the wire.
struct NeighborHello final : net::Message {
  static constexpr std::uint16_t kType = kNeighborHello;

  /// Bits of the one flag byte.
  enum Flag : std::uint8_t {
    /// Answer with a full ZoneUpdate — the pull half of loss recovery: a
    /// receiver whose stored claim version disagrees with the beacon's
    /// requests a resync. Requests never chain.
    kRequestFull = 1,
    /// Re-run every check of a full claim on the stored copy of the
    /// sender's claim (set on every CanNode::kFullRefreshContacts-th
    /// contact). The stored claim is current, so this costs no bytes.
    kReplay = 2,
  };

  NeighborHello(std::uint64_t v, std::uint64_t seq_, double l,
                std::uint8_t f = 0)
      : Message(kType), claim_version(v), seq(seq_), load(l), flags(f) {}

  std::uint64_t claim_version;
  /// The sender's current outgoing ZoneUpdate counter. Receivers advance
  /// their stored per-neighbor seq watermark from it, so the staleness
  /// guard in on_zone_update keeps rejecting duplicated old snapshots even
  /// when hellos (not full updates) carry most of the contact cadence.
  std::uint64_t seq;
  double load;
  std::uint8_t flags;

  [[nodiscard]] bool request_full() const noexcept {
    return (flags & kRequestFull) != 0;
  }
  [[nodiscard]] bool replay() const noexcept { return (flags & kReplay) != 0; }

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 8 + 8 + 8 + 1;
  }
  PGRID_MESSAGE_CLONE(NeighborHello)
};

/// Exponentially-weighted load of the region "above" the sender along one
/// dimension, propagated hop-by-hop in the negative direction (the "fixed
/// amount of current system load information ... propagated along each
/// dimension" of §3.3).
struct DimLoadReport final : net::Message {
  static constexpr std::uint16_t kType = kDimLoadReport;

  DimLoadReport(std::uint32_t d, double r)
      : Message(kType), dim(d), report(r) {}

  std::uint32_t dim;
  double report;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12;
  }
  PGRID_MESSAGE_CLONE(DimLoadReport)
};

}  // namespace pgrid::can
