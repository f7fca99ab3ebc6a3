#pragma once
// Request/response correlation with timeouts over the simulated network.
//
// Every protocol in this repository (Chord lookups, CAN routing probes,
// RN-Tree searches, grid job transfer) is an asynchronous RPC exchange:
// the caller registers a continuation, the endpoint matches replies by
// correlation id, and a timeout fires the continuation with nullptr —
// which is how callers observe crashed peers.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::net {

class RpcEndpoint {
 public:
  /// Continuation: reply message, or nullptr on timeout.
  using Continuation = std::function<void(MessagePtr reply)>;

  RpcEndpoint(Network& network, NodeAddr self);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Send `request` to `to`; invoke `k` with the reply or nullptr after
  /// `timeout`. Returns the correlation id (also usable to cancel).
  std::uint64_t call(NodeAddr to, MessagePtr request, sim::SimTime timeout,
                     Continuation k);

  /// Like call(), but make up to `attempts` transmissions before reporting
  /// failure: one lost datagram must not condemn a live peer. `make` builds
  /// a fresh copy of the request for each transmission. Attempt i waits
  /// min(timeout × 2^i, 4 × timeout) (the classic growing RTO), and the
  /// pause before a retransmit is drawn from U(timeout/4, 3 × previous
  /// pause), capped at `timeout` ("decorrelated jitter"), so concurrent
  /// callers hitting the same dead peer do not retransmit in lockstep.
  void call_retry(NodeAddr to, std::function<MessagePtr()> make,
                  sim::SimTime timeout, int attempts, Continuation k);

  /// Send a reply correlated with `request` back to `to`.
  void reply(NodeAddr to, const Message& request, MessagePtr response);

  /// Fire-and-forget send (no correlation).
  void send(NodeAddr to, MessagePtr msg);

  /// Offer an incoming message; consumes it (returns true) iff it is a
  /// reply addressed to this endpoint's id stream. Replies for calls that
  /// already timed out are consumed and dropped; replies for other
  /// endpoints sharing the address are left for them.
  bool consume_reply(MessagePtr& msg);

  /// Drop an outstanding call without invoking its continuation.
  void cancel(std::uint64_t rpc_id);

  /// Drop all outstanding calls (node crash / shutdown).
  void cancel_all();

  [[nodiscard]] NodeAddr self() const noexcept { return self_; }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }

  /// Bytes held by the pending-call slab and backoff set (memory
  /// accounting; capacity snapshot, nothing on the hot path).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return pending_.capacity() * sizeof(Pending) +
           backoff_waits_.size() * (sizeof(sim::EventId) + 2 * sizeof(void*));
  }

 private:
  /// Pending calls live in a slab addressed by the correlation id itself:
  /// rpc_id = stream << 32 | generation << 16 | slot. Reply matching is an
  /// O(1) array probe with generation-tagged staleness (a late reply whose
  /// slot was recycled fails the generation check), mirroring the
  /// simulator's event pool. No per-call map node allocation.
  struct Pending {
    Continuation k;
    sim::EventId timeout_event = sim::kInvalidEvent;
    /// Caller's span at call() time: restored around the timeout
    /// continuation so retries and failure handling stay inside the sampled
    /// trace (a timer has no ambient context of its own).
    obs::TraceContext ctx;
    std::uint16_t generation = 1;
    bool live = false;
    std::uint16_t next_free = 0;
  };
  struct RetryState;

  static constexpr std::uint16_t kNoFreeSlot = 0xffff;
  static constexpr std::uint64_t kMaxPending = 0x10000;

  void retry_attempt(std::shared_ptr<RetryState> st);
  [[nodiscard]] Pending* find_pending(std::uint64_t rpc_id) noexcept;
  void release_pending(std::uint16_t slot) noexcept;

  Network& net_;
  NodeAddr self_;
  std::uint64_t stream_;
  std::uint64_t timeouts_ = 0;
  std::size_t outstanding_ = 0;
  Rng rng_;
  std::vector<Pending> pending_;
  std::uint16_t free_head_ = kNoFreeSlot;
  /// Pending between-attempt backoff pauses; cancelled with the calls.
  std::unordered_set<sim::EventId> backoff_waits_;
};

}  // namespace pgrid::net
