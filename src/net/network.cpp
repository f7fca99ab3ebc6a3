#include "net/network.h"

#include <utility>

#include "net/batch.h"
#include "net/fault_plane.h"
#include "net/shard_bus.h"

namespace pgrid::net {

Network::Network(sim::Simulator& simulator, Rng rng, LatencyModel latency,
                 double loss_probability)
    : sim_(simulator),
      rng_(rng),
      latency_(latency),
      loss_probability_(loss_probability) {
  PGRID_EXPECTS(loss_probability >= 0.0 && loss_probability < 1.0);
  latency.validate();
  latency_lo_ns_ = latency_.min.ns();
  latency_width_ns_ = static_cast<std::uint64_t>(latency_.max.ns() - latency_lo_ns_);
  refresh_fast_path();
}

Network::~Network() = default;

NodeAddr Network::add_handler(MessageHandler* handler) {
  PGRID_EXPECTS(handler != nullptr);
  if (bus_ != nullptr) return bus_->register_handler(handler, shard_);
  handlers_.push_back(handler);
  alive_.push_back(true);
  return static_cast<NodeAddr>(handlers_.size() - 1);
}

void Network::set_handler(NodeAddr addr, MessageHandler* handler) {
  if (bus_ != nullptr) {
    bus_->set_handler(addr, handler);
    return;
  }
  PGRID_EXPECTS(addr < handlers_.size());
  handlers_[addr] = handler;
}

void Network::set_alive(NodeAddr addr, bool is_alive) {
  if (bus_ != nullptr) {
    bus_->set_alive(addr, is_alive);
    return;
  }
  PGRID_EXPECTS(addr < alive_.size());
  alive_[addr] = is_alive;
}

bool Network::alive(NodeAddr addr) const {
  if (bus_ != nullptr) return bus_->alive(addr);
  PGRID_EXPECTS(addr < alive_.size());
  return alive_[addr];
}

std::size_t Network::addr_count() const noexcept {
  return bus_ != nullptr ? bus_->addr_count() : handlers_.size();
}

bool Network::addr_alive(NodeAddr addr) const {
  return bus_ != nullptr ? bus_->alive(addr) : alive_[addr];
}

MessageHandler* Network::handler_of(NodeAddr addr) const {
  return bus_ != nullptr ? bus_->handler(addr) : handlers_[addr];
}

void Network::enable_sharding(ShardBus* bus, std::uint32_t shard) {
  PGRID_EXPECTS(bus != nullptr);
  PGRID_EXPECTS(bus_ == nullptr);
  // Sharded v1 carries the steady-state plane only: no fault plane, no trace
  // bus, and an empty local address space (the directory is the only one).
  PGRID_EXPECTS(handlers_.empty());
  PGRID_EXPECTS(fault_ == nullptr);
  PGRID_EXPECTS(trace_ == nullptr);
  bus_ = bus;
  shard_ = shard;
}

Rng Network::fork_rng_for(NodeAddr addr) {
  if (bus_ != nullptr) return bus_->fork_endpoint_rng(addr);
  return fork_rng();
}

void Network::set_trace(obs::TraceBus* bus) noexcept {
  PGRID_EXPECTS(bus == nullptr || bus_ == nullptr);  // no tracing when sharded
  trace_ = bus;
  if (fault_ != nullptr) fault_->set_trace(bus);
  refresh_fast_path();
}

FaultPlane& Network::fault_plane() {
  PGRID_EXPECTS(bus_ == nullptr);  // no adversarial plane when sharded
  if (fault_ == nullptr) {
    fault_ = std::make_unique<FaultPlane>(sim_, fork_rng());
    fault_->set_trace(trace_);
    refresh_fast_path();
  }
  return *fault_;
}

void Network::deliver(NodeAddr from, NodeAddr to, sim::SimTime delay,
                      MessagePtr msg) {
  const std::uint16_t tag = msg->type();
  const std::size_t wire_bytes = kHeaderBytes + msg->payload_size();
  // Move-through delivery: the event callback owns the datagram directly
  // (SmallFn accepts move-only captures), so the payload is never copied or
  // boxed between send and handler. If the event never fires the callback's
  // destructor still frees the message.
  sim_.schedule_in(
      delay, [this, from, to, tag, wire_bytes, msg = std::move(msg)]() mutable {
        if (!alive_[to]) {
          ++stats_.messages_dropped_dead;
          PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropDead, to, from,
                            tag, msg->rpc_id);
          return;
        }
        ++stats_.messages_delivered;
        ++stats_.delivered_by_kind[tag & (NetworkStats::kKindSlots - 1)];
        stats_.bytes_delivered += wire_bytes;
        PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDeliver, to, from, tag,
                          msg->rpc_id, static_cast<double>(wire_bytes));
        if (trace_ != nullptr && msg->trace.sampled()) {
          // End the hop span (its duration is the one-way latency) and run
          // the handler under the message's context, so every message it
          // sends becomes a child span — the causal chain crosses the hop.
          trace_->record_span(obs::EventKind::kSpanEnd, msg->trace, to, from,
                              tag, msg->rpc_id);
          obs::SpanScope scope(trace_, msg->trace);
          dispatch(from, to, std::move(msg));
          return;
        }
        dispatch(from, to, std::move(msg));
      });
}

void Network::dispatch(NodeAddr from, NodeAddr to, MessagePtr msg) {
  if (msg->type() == Batch::kType) {
    auto* batch = msg_cast<Batch>(msg.get());
    ++stats_.batches_delivered;
    stats_.batch_parts_delivered += batch->parts.size();
    // Unpack under a receiver-side scope: replies the handler emits while
    // working through the parts coalesce into one return envelope, so the
    // savings apply to both directions of an exchange for free.
    open_batch(to);
    for (MessagePtr& part : batch->parts) {
      ++stats_.delivered_by_kind[part->type() & (NetworkStats::kKindSlots - 1)];
      handler_of(to)->on_message(from, std::move(part));
    }
    close_batch(to);
    return;
  }
  handler_of(to)->on_message(from, std::move(msg));
}

Network::PendingBatch* Network::find_batch(NodeAddr from) noexcept {
  for (PendingBatch& b : batches_) {
    if (b.from == from) return &b;
  }
  return nullptr;
}

void Network::open_batch(NodeAddr from) {
  PGRID_EXPECTS(from < addr_count());
  if (PendingBatch* b = find_batch(from)) {
    ++b->depth;
    return;
  }
  batches_.push_back(PendingBatch{from, 1, {}});
}

void Network::close_batch(NodeAddr from) {
  PendingBatch* b = find_batch(from);
  PGRID_EXPECTS(b != nullptr);
  if (--b->depth > 0) return;
  // Steal the groups before erasing: the flush below re-enters send(),
  // which may push new scopes and reallocate batches_.
  std::vector<PendingGroup> groups = std::move(b->groups);
  batches_.erase(batches_.begin() + (b - batches_.data()));
  for (PendingGroup& g : groups) {
    if (g.parts.size() == 1) {
      // Singleton group: the envelope would only add overhead.
      send(from, g.to, std::move(g.parts[0]));
    } else {
      auto envelope = std::make_unique<Batch>();
      envelope->parts = std::move(g.parts);
      send(from, g.to, std::move(envelope));
    }
  }
}

void Network::send(NodeAddr from, NodeAddr to, MessagePtr msg) {
  PGRID_EXPECTS(msg != nullptr);
  PGRID_EXPECTS(from < addr_count());
  PGRID_EXPECTS(to < addr_count());

  // An open batch scope for this sender buffers the message instead of
  // putting it on the wire; accounting happens when the scope flushes.
  if (!batches_.empty()) {
    if (PendingBatch* b = find_batch(from)) {
      for (PendingGroup& g : b->groups) {
        if (g.to == to) {
          g.parts.push_back(std::move(msg));
          return;
        }
      }
      b->groups.push_back(PendingGroup{to, {}});
      b->groups.back().parts.push_back(std::move(msg));
      return;
    }
  }

  const std::uint16_t tag = msg->type();
  const std::size_t wire_bytes = kHeaderBytes + msg->payload_size();
  ++stats_.messages_sent;
  ++stats_.sent_by_kind[tag & (NetworkStats::kKindSlots - 1)];
  stats_.bytes_sent += wire_bytes;
  if (tag == Batch::kType) {
    // The envelope counts as one wire message; its parts keep per-kind
    // visibility so protocol mix breakdowns survive batching.
    const auto* batch = msg_cast<Batch>(msg.get());
    ++stats_.batches_sent;
    stats_.batch_parts_sent += batch->parts.size();
    for (const MessagePtr& part : batch->parts) {
      ++stats_.sent_by_kind[part->type() & (NetworkStats::kKindSlots - 1)];
    }
  }

  // Sharded tail: per-sender draws and mailbox routing (DESIGN.md §17). The
  // sequential paths below are untouched — a non-sharded network never takes
  // this branch, keeping its runs byte-identical.
  if (bus_ != nullptr) {
    send_sharded(from, to, std::move(msg));
    return;
  }

  // Plain-delivery fast path: no fault plane, no trace bus, zero base loss.
  // Every branch below is then a no-op, and the latency draw here consumes
  // the RNG identically to the general path — same simulation either way.
  if (plain_delivery_) {
    if (!alive_[from]) {
      ++stats_.messages_dropped_dead;
      return;
    }
    deliver(from, to, sample_latency(), std::move(msg));
    return;
  }

  PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgSend, from, to, tag,
                    msg->rpc_id, static_cast<double>(wire_bytes));

  // Causal propagation: a message sent while a sampled span is ambient
  // becomes a child span of it. The span begins here (hand-off to the
  // network); it ends at delivery — or never, making drops visible.
  if (trace_ != nullptr) {
    if (!msg->trace.sampled()) msg->trace = trace_->child_of(trace_->current());
    if (msg->trace.sampled()) {
      trace_->record_span(obs::EventKind::kSpanBegin, msg->trace, from, to,
                          tag, msg->rpc_id, static_cast<double>(wire_bytes));
    }
  }

  if (!alive_[from]) {
    ++stats_.messages_dropped_dead;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropDead, from, to, tag,
                      msg->rpc_id);
    return;
  }

  // The fault plane judges every message before the base loss model: a
  // partitioned or faulted link eats the datagram regardless of global loss.
  FaultPlane::Verdict verdict;
  MessagePtr duplicate;
  if (fault_ != nullptr) {
    verdict = fault_->judge(from, to, /*cloneable=*/true);
    if (verdict.drop) {
      if (verdict.cause == FaultPlane::DropCause::kPartition) {
        ++stats_.messages_dropped_partition;
        PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropPartition, from, to,
                          tag, msg->rpc_id);
      } else {
        ++stats_.messages_dropped_fault;
        PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropFault, from, to,
                          tag, msg->rpc_id);
      }
      return;
    }
    if (verdict.copies > 1) {
      duplicate = msg->clone();  // null for non-cloneable types: no copy
    }
    if (verdict.reordered) {
      ++stats_.messages_reordered;
      PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgReorder, from, to, tag,
                        msg->rpc_id, verdict.extra_delay.sec());
    }
  }

  if (loss_probability_ > 0.0 && rng_.bernoulli(loss_probability_)) {
    ++stats_.messages_dropped_loss;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropLoss, from, to, tag,
                      msg->rpc_id);
    return;
  }

  const auto delay_once = [&] {
    const sim::SimTime base = sample_latency();
    return sim::SimTime::nanos(static_cast<std::int64_t>(
               static_cast<double>(base.ns()) * verdict.latency_scale)) +
           verdict.extra_delay;
  };

  if (duplicate != nullptr) {
    ++stats_.messages_duplicated;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDuplicate, from, to, tag,
                      msg->rpc_id);
    deliver(from, to, delay_once(), std::move(duplicate));
  }
  deliver(from, to, delay_once(), std::move(msg));
}

void Network::send_sharded(NodeAddr from, NodeAddr to, MessagePtr msg) {
  // Same decision order as the sequential general path (alive → loss →
  // latency), but every draw comes from the *sender's* stream: the sender's
  // send sequence is deterministic by induction over windows, so the draws —
  // unlike draws from a network-global stream — do not depend on how sends
  // from different nodes interleave across shards.
  if (!bus_->alive(from)) {
    ++stats_.messages_dropped_dead;
    return;
  }
  Rng& rng = bus_->sender_rng(from);
  if (loss_probability_ > 0.0 && rng.bernoulli(loss_probability_)) {
    ++stats_.messages_dropped_loss;
    return;
  }
  sim::SimTime lat = latency_.min;
  if (latency_width_ns_ != 0) {
    lat = sim::SimTime::nanos(
        latency_lo_ns_ +
        static_cast<std::int64_t>(rng.below(latency_width_ns_)));
  }
  const sim::SimTime at = sim_.now() + lat;
  const std::uint64_t key = bus_->next_key(from);
  const std::uint32_t dst_shard = bus_->shard_of(to);
  if (dst_shard == shard_) {
    schedule_keyed_delivery(from, to, at, key, std::move(msg));
    return;
  }
  // Cross-shard: park in the (src, dst) mailbox; the destination worker
  // drains it next round. Lookahead guarantees `at` lands at or beyond the
  // window barrier, never in the destination's past.
  bus_->enqueue(shard_, dst_shard,
                ShardBus::RemoteMessage{at, from, to, key, std::move(msg)});
}

void Network::schedule_keyed_delivery(NodeAddr from, NodeAddr to,
                                      sim::SimTime at, std::uint64_t key,
                                      MessagePtr msg) {
  const std::uint16_t tag = msg->type();
  const std::size_t wire_bytes = kHeaderBytes + msg->payload_size();
  sim_.schedule_at_keyed(
      at, key, [this, from, to, tag, wire_bytes, msg = std::move(msg)]() mutable {
        if (!bus_->alive(to)) {
          ++stats_.messages_dropped_dead;
          return;
        }
        ++stats_.messages_delivered;
        ++stats_.delivered_by_kind[tag & (NetworkStats::kKindSlots - 1)];
        stats_.bytes_delivered += wire_bytes;
        dispatch(from, to, std::move(msg));
      });
}

void Network::deliver_remote(NodeAddr from, NodeAddr to, sim::SimTime at,
                             std::uint64_t key, MessagePtr msg) {
  PGRID_EXPECTS(bus_ != nullptr);
  schedule_keyed_delivery(from, to, at, key, std::move(msg));
}

}  // namespace pgrid::net
