#pragma once
// Maintenance-traffic batching (DESIGN.md §16): a per-(from, to) envelope
// that coalesces every unicast message a node emits toward the same
// destination within one synchronous scope — one maintenance round, one
// heartbeat fan-out — into a single wire message. Handlers never see the
// envelope: the network unpacks it at delivery, so protocol logic is
// untouched and per-kind statistics keep accounting the inner messages.

#include <cstdint>
#include <vector>

#include "net/message.h"

namespace pgrid::net {

/// The wire envelope. `parts` holds the coalesced inner messages in send
/// order; delivery unpacks them in that order. An envelope is judged by the
/// fault plane as one datagram: dropped whole, duplicated whole.
struct Batch final : Message {
  static constexpr std::uint16_t kType = kTagNetBase + 0;
  /// Per-part framing charge (type tag + length prefix + flags): what an
  /// inner message costs on the wire instead of a full kHeaderBytes header.
  static constexpr std::size_t kPartHeaderBytes = 8;

  Batch() : Message(kType) {}

  std::vector<MessagePtr> parts;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    std::size_t s = 0;
    for (const MessagePtr& p : parts) s += kPartHeaderBytes + p->payload_size();
    return s;
  }

  /// Deep copy for fault-plane duplication. A part whose clone() returns
  /// nullptr (non-cloneable message) is dropped from the copy, mirroring
  /// how the network already declines to duplicate such messages.
  [[nodiscard]] MessagePtr clone() const override {
    auto copy = std::make_unique<Batch>();
    copy->rpc_id = rpc_id;
    copy->is_reply = is_reply;
    copy->trace = trace;
    copy->parts.reserve(parts.size());
    for (const MessagePtr& p : parts) {
      if (MessagePtr pc = p->clone()) copy->parts.push_back(std::move(pc));
    }
    return copy;
  }
};

class Network;

/// RAII batch scope: while alive, every Network::send from `from` is
/// buffered and grouped by destination; destruction flushes one wire
/// message per destination (a plain send for singleton groups). Scopes
/// nest per sender — only the outermost flush emits traffic.
class BatchScope {
 public:
  BatchScope(Network& net, NodeAddr from);
  ~BatchScope();

  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

 private:
  Network& net_;
  NodeAddr from_;
};

}  // namespace pgrid::net
