#pragma once
// Simulated point-to-point network.
//
// Delivers messages between registered handlers with sampled latency and
// optional loss. A message addressed to (or sent by) a dead node is dropped,
// which is exactly how crash failures manifest to the protocols above.
// Overlay routing is expressed as chains of point-to-point sends by the
// protocol layers; "direct connections" (the paper's heartbeat sockets) are
// single sends.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "net/shard_bus.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace pgrid::net {

class FaultPlane;

/// Latency model for one-way point-to-point delivery.
struct LatencyModel {
  /// Uniform in [min, max); set equal for a constant-latency network.
  sim::SimTime min = sim::SimTime::millis(20);
  sim::SimTime max = sim::SimTime::millis(80);

  /// Single validation point: a config with max < min is a programming
  /// error, caught here rather than as UB-adjacent wraparound inside the
  /// RNG range call. Network's constructor validates its model once.
  void validate() const { PGRID_EXPECTS(min <= max); }

  /// Uniform in [min, max) at nanosecond granularity: offset + below(width)
  /// covers {min .. max-1ns} exactly, including the width == 1ns edge where
  /// the only representable value is min.
  [[nodiscard]] sim::SimTime sample(Rng& rng) const {
    validate();
    if (min == max) return min;
    const auto lo = min.ns();
    const auto width = static_cast<std::uint64_t>(max.ns() - lo);
    return sim::SimTime::nanos(
        lo + static_cast<std::int64_t>(rng.below(width)));
  }
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped_dead = 0;   // destination/source down
  std::uint64_t messages_dropped_loss = 0;   // random loss
  // Fault-plane outcomes. Duplicated copies also count as delivered, so
  // messages_delivered can exceed messages_sent under duplication.
  std::uint64_t messages_dropped_partition = 0;
  std::uint64_t messages_dropped_fault = 0;  // link/gray/congestion loss
  std::uint64_t messages_duplicated = 0;     // extra copies injected
  std::uint64_t messages_reordered = 0;      // reorder jitter applied
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  // Maintenance batching (DESIGN.md §16). Envelopes count once in
  // messages_sent/delivered; their inner messages count only in the
  // per-kind tables plus these rollups, so wire traffic and logical
  // traffic stay separately observable.
  std::uint64_t batches_sent = 0;
  std::uint64_t batch_parts_sent = 0;
  std::uint64_t batches_delivered = 0;
  std::uint64_t batch_parts_delivered = 0;

  /// Per-message-kind counters, indexed by the low bits of the type tag.
  /// All tag ranges in message.h fit in [0, kKindSlots) without aliasing.
  static constexpr std::size_t kKindSlots = 2048;
  std::array<std::uint64_t, kKindSlots> sent_by_kind{};
  std::array<std::uint64_t, kKindSlots> delivered_by_kind{};
  /// Wire bytes sent per kind, summing to bytes_sent: a lone message
  /// counts whole under its own kind, an enveloped part counts its framing
  /// (Batch::kPartHeaderBytes) and payload under the part's kind, and the
  /// envelope's header counts under Batch.
  std::array<std::uint64_t, kKindSlots> bytes_by_kind{};

  [[nodiscard]] std::uint64_t sent_of(std::uint16_t tag) const noexcept {
    return sent_by_kind[tag & (kKindSlots - 1)];
  }
  [[nodiscard]] std::uint64_t delivered_of(std::uint16_t tag) const noexcept {
    return delivered_by_kind[tag & (kKindSlots - 1)];
  }
};

class Network {
 public:
  /// `bus` null: a standalone network (unit tests, micro benches) that owns
  /// a one-shard bus seeded from `rng`. Otherwise this network is shard
  /// `shard` of a run over `bus` (not owned; must outlive the network).
  Network(sim::Simulator& simulator, Rng rng, LatencyModel latency = {},
          double loss_probability = 0.0, ShardBus* bus = nullptr,
          std::uint32_t shard = 0);
  ~Network();

  // The bus and scheduled deliveries hold this network's address.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a handler and get its address. Handlers must outlive the
  /// network or be detached first.
  NodeAddr add_handler(MessageHandler* handler);

  /// Replace the handler at an existing address (node restart).
  void set_handler(NodeAddr addr, MessageHandler* handler);

  void set_alive(NodeAddr addr, bool alive);
  [[nodiscard]] bool alive(NodeAddr addr) const { return bus_->alive(addr); }

  /// Send a message; delivery is scheduled at now + latency. Messages from
  /// or to dead nodes are dropped (at send and delivery time respectively:
  /// a node that dies in flight still loses the message). Loss and latency
  /// are drawn from the sender's own stream and the delivery is ordered by
  /// the sender's provenance key (DESIGN.md §17), so one sender's traffic
  /// does not depend on how other senders' sends interleave with it.
  void send(NodeAddr from, NodeAddr to, MessagePtr msg);

  /// Batch scopes (DESIGN.md §16; prefer the RAII BatchScope in batch.h).
  /// While a scope is open for `from`, its unicast sends are buffered and
  /// grouped by destination; the outermost close flushes one wire message
  /// per destination (plain send for singleton groups, Batch envelope
  /// otherwise). Scopes nest per sender. Delivery of an envelope re-opens a
  /// scope for the *receiver*, so replies emitted while handling the parts
  /// coalesce on the way back without any protocol-level cooperation.
  void open_batch(NodeAddr from);
  void close_batch(NodeAddr from);

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Attach (or detach, with nullptr) a trace bus; not owned. Protocol
  /// layers reach the run's bus through trace() so a single wiring point
  /// instruments the whole stack. One shard only.
  void set_trace(obs::TraceBus* bus) noexcept;
  [[nodiscard]] obs::TraceBus* trace() const noexcept { return trace_; }

  /// The adversarial fault layer, created on first use (a network that
  /// never asks for it pays nothing per send). One shard only.
  [[nodiscard]] FaultPlane& fault_plane();
  [[nodiscard]] bool has_fault_plane() const noexcept {
    return fault_ != nullptr;
  }

  /// Derive an independent RNG stream (fault plane, tests).
  [[nodiscard]] Rng fork_rng() noexcept { return rng_.fork(++rng_forks_); }

  /// RNG stream for a per-address consumer (RpcEndpoint backoff jitter),
  /// derived from (bus seed, addr) so it does not depend on construction
  /// order or on which shard's network the endpoint lives in.
  [[nodiscard]] Rng fork_rng_for(NodeAddr addr);

  [[nodiscard]] std::size_t size() const noexcept {
    return bus_->addr_count();
  }

  /// Schedule a delivery parked by a remote shard (ShardBus::drain_into).
  /// `at` is absolute and, by the lookahead argument, never in this shard's
  /// past; `key` is the sender's provenance key.
  void deliver_remote(NodeAddr from, NodeAddr to, sim::SimTime at,
                      std::uint64_t key, MessagePtr msg) {
    schedule_keyed_delivery(from, to, at, key, std::move(msg));
  }

  /// Allocate a unique RPC id stream. Several RpcEndpoints can share one
  /// address (e.g. the Chord layer and the grid layer of the same node);
  /// distinct streams keep their correlation ids disjoint.
  [[nodiscard]] std::uint64_t next_rpc_stream() noexcept {
    return next_rpc_stream_++;
  }

  /// Base per-message header charge for byte accounting.
  static constexpr std::size_t kHeaderBytes = 48;

 private:
  /// Provenance key, then a local keyed delivery or a mailbox handoff to
  /// the destination's shard.
  void post(NodeAddr from, NodeAddr to, sim::SimTime at, MessagePtr msg);

  /// The delivery event for local sends and drained remote ones.
  void schedule_keyed_delivery(NodeAddr from, NodeAddr to, sim::SimTime at,
                               std::uint64_t key, MessagePtr msg);

  /// Hand a delivered message to the receiving handler, unpacking Batch
  /// envelopes (per-part kind accounting + receiver-side batch scope).
  void dispatch(NodeAddr from, NodeAddr to, MessagePtr msg);

  /// One destination's buffered messages within an open batch scope.
  struct PendingGroup {
    NodeAddr to;
    std::vector<MessagePtr> parts;
  };
  /// An open (possibly nested) batch scope for one sender. Groups keep
  /// first-send order so the flush sequence is deterministic.
  struct PendingBatch {
    NodeAddr from;
    int depth = 0;
    std::vector<PendingGroup> groups;
  };

  [[nodiscard]] PendingBatch* find_batch(NodeAddr from) noexcept;

  sim::Simulator& sim_;
  Rng rng_;
  LatencyModel latency_;
  double loss_probability_;
  NetworkStats stats_;
  obs::TraceBus* trace_ = nullptr;
  std::unique_ptr<FaultPlane> fault_;
  std::uint64_t next_rpc_stream_ = 1;
  std::uint64_t rng_forks_ = 0;
  std::unique_ptr<ShardBus> owned_bus_;  // standalone networks only
  ShardBus* bus_ = nullptr;
  std::uint32_t shard_ = 0;
  /// Open batch scopes. At most a handful exist at once (one per node
  /// currently inside a maintenance round), so linear scan beats a map.
  std::vector<PendingBatch> batches_;
};

}  // namespace pgrid::net
