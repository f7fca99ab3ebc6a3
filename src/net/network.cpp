#include "net/network.h"

#include <utility>

#include "net/batch.h"
#include "net/fault_plane.h"
#include "net/shard_bus.h"

namespace pgrid::net {

Network::Network(sim::Simulator& simulator, Rng rng, LatencyModel latency,
                 double loss_probability, ShardBus* bus, std::uint32_t shard)
    : sim_(simulator),
      rng_(rng),
      latency_(latency),
      loss_probability_(loss_probability),
      bus_(bus),
      shard_(shard) {
  PGRID_EXPECTS(loss_probability >= 0.0 && loss_probability < 1.0);
  latency.validate();
  if (bus_ == nullptr) {
    owned_bus_ = std::make_unique<ShardBus>(1, rng_.next());
    bus_ = owned_bus_.get();
  }
  bus_->attach(shard_, *this);
}

Network::~Network() = default;

NodeAddr Network::add_handler(MessageHandler* handler) {
  return bus_->register_handler(handler, shard_);
}

void Network::set_handler(NodeAddr addr, MessageHandler* handler) {
  bus_->set_handler(addr, handler);
}

void Network::set_alive(NodeAddr addr, bool is_alive) {
  bus_->set_alive(addr, is_alive);
}

Rng Network::fork_rng_for(NodeAddr addr) {
  return bus_->fork_endpoint_rng(addr);
}

void Network::set_trace(obs::TraceBus* bus) noexcept {
  // One trace ring per run: several shards would record into it from
  // several threads (DESIGN.md §17).
  PGRID_EXPECTS(bus == nullptr || bus_->shards() == 1);
  trace_ = bus;
  if (fault_ != nullptr) fault_->set_trace(bus);
}

FaultPlane& Network::fault_plane() {
  // The plane's draws come from one stream in global event order, which
  // several shards cannot reproduce (DESIGN.md §17).
  PGRID_EXPECTS(bus_->shards() == 1);
  if (fault_ == nullptr) {
    fault_ = std::make_unique<FaultPlane>(sim_, fork_rng());
    fault_->set_trace(trace_);
  }
  return *fault_;
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
      bus_->handler(to)->on_message(from, std::move(part));
    }
    close_batch(to);
    return;
  }
  bus_->handler(to)->on_message(from, std::move(msg));
}

Network::PendingBatch* Network::find_batch(NodeAddr from) noexcept {
  for (PendingBatch& b : batches_) {
    if (b.from == from) return &b;
  }
  return nullptr;
}

void Network::open_batch(NodeAddr from) {
  PGRID_EXPECTS(from < size());
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
  PGRID_EXPECTS(from < size());
  PGRID_EXPECTS(to < size());

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

  if (!bus_->alive(from)) {
    ++stats_.messages_dropped_dead;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropDead, from, to, tag,
                      msg->rpc_id);
    return;
  }

  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kMsgSend, from, to, tag, msg->rpc_id,
                   static_cast<double>(wire_bytes));
    // Causal propagation: a message sent while a sampled span is ambient
    // becomes a child span of it. The span begins here (hand-off to the
    // network); it ends at delivery — or never, making drops visible.
    if (!msg->trace.sampled()) msg->trace = trace_->child_of(trace_->current());
    if (msg->trace.sampled()) {
      trace_->record_span(obs::EventKind::kSpanBegin, msg->trace, from, to,
                          tag, msg->rpc_id, static_cast<double>(wire_bytes));
    }
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

  // Every draw comes from the *sender's* stream: its send sequence is
  // deterministic by induction over windows, so the draws — unlike draws
  // from a network-global stream — do not depend on how sends from
  // different nodes interleave, within a shard or across shards.
  Rng& rng = bus_->sender_rng(from);
  if (loss_probability_ > 0.0 && rng.bernoulli(loss_probability_)) {
    ++stats_.messages_dropped_loss;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropLoss, from, to, tag,
                      msg->rpc_id);
    return;
  }

  const auto arrival = [&] {
    sim::SimTime lat = latency_.sample(rng);
    if (fault_ != nullptr) {
      lat = sim::SimTime::nanos(static_cast<std::int64_t>(
                static_cast<double>(lat.ns()) * verdict.latency_scale)) +
            verdict.extra_delay;
    }
    return sim_.now() + lat;
  };

  if (duplicate != nullptr) {
    ++stats_.messages_duplicated;
    PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDuplicate, from, to, tag,
                      msg->rpc_id);
    post(from, to, arrival(), std::move(duplicate));
  }
  post(from, to, arrival(), std::move(msg));
}

void Network::post(NodeAddr from, NodeAddr to, sim::SimTime at,
                   MessagePtr msg) {
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
  // Move-through delivery: the event callback owns the datagram directly
  // (SmallFn accepts move-only captures), so the payload is never copied or
  // boxed between send and handler. If the event never fires the callback's
  // destructor still frees the message.
  sim_.schedule_at_keyed(
      at, key, [this, from, to, tag, wire_bytes, msg = std::move(msg)]() mutable {
        if (!bus_->alive(to)) {
          ++stats_.messages_dropped_dead;
          PGRID_TRACE_EVENT(trace_, obs::EventKind::kMsgDropDead, to, from,
                            tag, msg->rpc_id);
          return;
        }
        ++stats_.messages_delivered;
        ++stats_.delivered_by_kind[tag & (NetworkStats::kKindSlots - 1)];
        stats_.bytes_delivered += wire_bytes;
        if (trace_ != nullptr) {
          trace_->record(obs::EventKind::kMsgDeliver, to, from, tag,
                         msg->rpc_id, static_cast<double>(wire_bytes));
          if (msg->trace.sampled()) {
            // End the hop span (its duration is the one-way latency) and run
            // the handler under the message's context, so every message it
            // sends becomes a child span — the causal chain crosses the hop.
            trace_->record_span(obs::EventKind::kSpanEnd, msg->trace, to, from,
                                tag, msg->rpc_id);
            obs::SpanScope scope(trace_, msg->trace);
            dispatch(from, to, std::move(msg));
            return;
          }
        }
        dispatch(from, to, std::move(msg));
      });
}

}  // namespace pgrid::net
