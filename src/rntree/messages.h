#pragma once
// RN-Tree protocol messages: bottom-up aggregation updates (acknowledged by
// the parent) and the token-DFS extended search.

#include <cstdint>
#include <vector>

#include "chord/peer.h"
#include "net/message.h"
#include "rntree/aggregate.h"

namespace pgrid::rntree {

using chord::Peer;
using chord::kNoPeer;

enum MsgType : std::uint16_t {
  kAggUpdate = net::kTagRnTreeBase + 0,
  kTokenPass = net::kTagRnTreeBase + 1,
  kTokenAck = net::kTagRnTreeBase + 2,
  kSearchResult = net::kTagRnTreeBase + 3,
  kAggAck = net::kTagRnTreeBase + 4,
};

/// Child -> parent RPC: "here is my subtree's summary", sent when it changed
/// and as a liveness refresh. Carries the key the child resolved its parent
/// from, so the receiver can say whether it still represents that key.
struct AggUpdate final : net::Message {
  static constexpr std::uint16_t kType = kAggUpdate;

  AggUpdate(Peer s, Aggregate a, Guid key)
      : Message(kType), sender(s), aggregate(a), parent_key(key) {}

  Peer sender;
  Aggregate aggregate;
  Guid parent_key;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + kMaxResources * 8 + 4 + 8;
  }
  PGRID_MESSAGE_CLONE(AggUpdate)
};

/// Parent -> child reply to AggUpdate: `represents` is false when the
/// child's parent key no longer lies in (receiver's predecessor, receiver],
/// i.e. the child must look its parent up again.
struct AggAck final : net::Message {
  static constexpr std::uint16_t kType = kAggAck;

  explicit AggAck(bool r) : Message(kType), represents(r) {}

  bool represents;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 1;
  }
  PGRID_MESSAGE_CLONE(AggAck)
};

/// A matchmaking candidate discovered by the search.
struct Candidate {
  Peer peer;
  double load = 0.0;

  friend bool operator==(const Candidate&, const Candidate&) noexcept = default;
};

/// The traveling DFS token. Passed holder-to-holder as an RPC (ack'd) so a
/// dead next hop is detected by the current holder, which then reroutes.
struct TokenPass final : net::Message {
  static constexpr std::uint16_t kType = kTokenPass;

  TokenPass() : Message(kType) {}

  std::uint64_t search_id = 0;
  Peer initiator;
  Query query;
  std::uint32_t k = 1;           // stop after this many candidates
  std::uint32_t max_visits = 64; // hard cap on nodes visited
  std::uint32_t hops = 0;        // token forwards so far
  std::vector<Guid> visited;     // nodes already processed
  std::vector<Candidate> candidates;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + kMaxResources * 9 + 16 + visited.size() * 8 +
           candidates.size() * 20;
  }
  PGRID_MESSAGE_CLONE(TokenPass)
};

struct TokenAck final : net::Message {
  static constexpr std::uint16_t kType = kTokenAck;
  TokenAck() : Message(kType) {}
  PGRID_MESSAGE_CLONE(TokenAck)
};

/// Final answer, sent directly to the initiator.
struct SearchResult final : net::Message {
  static constexpr std::uint16_t kType = kSearchResult;

  SearchResult() : Message(kType) {}

  std::uint64_t search_id = 0;
  std::uint32_t hops = 0;
  std::vector<Candidate> candidates;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + candidates.size() * 20;
  }
  PGRID_MESSAGE_CLONE(SearchResult)
};

}  // namespace pgrid::rntree
