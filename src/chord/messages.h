#pragma once
// Chord protocol messages (Stoica et al., SIGCOMM'01), iterative style:
// the lookup initiator drives routing hop by hop, so hop counts — the
// paper's "matchmaking cost" denominator — are counted at the initiator.

#include <cstdint>
#include <vector>

#include "chord/peer.h"
#include "net/message.h"

namespace pgrid::chord {

enum MsgType : std::uint16_t {
  kNextHopReq = net::kTagChordBase + 0,
  kNextHopResp = net::kTagChordBase + 1,
  kStabilizeReq = net::kTagChordBase + 2,
  kStabilizeResp = net::kTagChordBase + 3,
  kNotify = net::kTagChordBase + 4,
  kPingReq = net::kTagChordBase + 5,
  kPingResp = net::kTagChordBase + 6,
};

/// "Who is the next hop toward `key`?" The receiver answers done when it
/// can resolve the key itself (the key lies in (its predecessor, itself] or
/// (itself, its successor]), and otherwise names its closest preceding
/// finger for the key. A finger check asks the held finger this question
/// about the finger's start: done(finger) confirms it in one hop.
struct NextHopReq final : net::Message {
  static constexpr std::uint16_t kType = kNextHopReq;

  explicit NextHopReq(Guid k) : Message(kType), key(k) {}

  Guid key;
  /// Nodes the initiator has observed dead during this lookup; the receiver
  /// skips them when picking the next hop (bounded fault-avoidance state).
  std::vector<Guid> avoid;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 8 + avoid.size() * 8;
  }
  PGRID_MESSAGE_CLONE(NextHopReq)
};

struct NextHopResp final : net::Message {
  static constexpr std::uint16_t kType = kNextHopResp;

  NextHopResp(bool d, Peer n) : Message(kType), done(d), node(n) {}

  /// True: `node` is successor(key). False: `node` is the next node to ask.
  bool done;
  Peer node;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 1 + 12;
  }
  PGRID_MESSAGE_CLONE(NextHopResp)
};

/// Stabilize: fetch the successor's predecessor and successor list in one
/// round trip (the classic get-predecessor plus successor-list pull). It
/// also carries notify(sender): the receiver applies the notify rule to
/// `sender` before it replies, so a round that keeps its successor needs no
/// separate Notify. `sender` is kNoPeer on a read-only pull (the successor-
/// tail refresh), and is ignored unless it names the transport sender.
struct StabilizeReq final : net::Message {
  static constexpr std::uint16_t kType = kStabilizeReq;

  StabilizeReq(Peer s, std::uint32_t v)
      : Message(kType), sender(s), version(v) {}

  Peer sender;
  /// The receiver's successor-list version that the sender's list was last
  /// copied at; 0 when it holds no such copy (a new head, a local edit, a
  /// read-only pull), which always fetches the list.
  std::uint32_t version;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + 4;
  }
  PGRID_MESSAGE_CLONE(StabilizeReq)
};

/// The successor list rides only when the requester does not hold its
/// current version: `version` equal to the request's (non-zero) one means
/// "unchanged", and `successors` is then empty.
struct StabilizeResp final : net::Message {
  static constexpr std::uint16_t kType = kStabilizeResp;

  StabilizeResp(Peer pred, std::uint32_t v, std::vector<Peer> succs)
      : Message(kType),
        predecessor(pred),
        version(v),
        successors(std::move(succs)) {}

  Peer predecessor;
  std::uint32_t version;
  std::vector<Peer> successors;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + 4 + successors.size() * 12;
  }
  PGRID_MESSAGE_CLONE(StabilizeResp)
};

/// notify(n'): "I believe I might be your predecessor." Sent on its own
/// only when the StabilizeReq cannot carry it: on join, when stabilize
/// adopts a new successor, and to a revived peer.
struct Notify final : net::Message {
  static constexpr std::uint16_t kType = kNotify;

  explicit Notify(Peer p) : Message(kType), peer(p) {}

  Peer peer;

  [[nodiscard]] std::size_t payload_size() const noexcept override { return 12; }
  PGRID_MESSAGE_CLONE(Notify)
};

struct PingReq final : net::Message {
  static constexpr std::uint16_t kType = kPingReq;
  PingReq() : Message(kType) {}
  PGRID_MESSAGE_CLONE(PingReq)
};

struct PingResp final : net::Message {
  static constexpr std::uint16_t kType = kPingResp;
  PingResp() : Message(kType) {}
  PGRID_MESSAGE_CLONE(PingResp)
};

}  // namespace pgrid::chord
