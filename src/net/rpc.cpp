#include "net/rpc.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pgrid::net {

namespace {

// call_retry's schedule (rpc.h), derived from the caller's one timeout.
constexpr double kTimeoutFactor = 2.0;
constexpr int kMaxTimeoutMultiple = 4;
constexpr std::int64_t kMinPauseDivisor = 4;

}  // namespace

RpcEndpoint::RpcEndpoint(Network& network, NodeAddr self)
    : net_(network),
      self_(self),
      stream_(network.next_rpc_stream()),
      rng_(network.fork_rng_for(self)) {}

RpcEndpoint::~RpcEndpoint() { cancel_all(); }

RpcEndpoint::Pending* RpcEndpoint::find_pending(std::uint64_t rpc_id) noexcept {
  const auto slot = static_cast<std::uint16_t>(rpc_id & 0xffff);
  const auto gen = static_cast<std::uint16_t>((rpc_id >> 16) & 0xffff);
  if (slot >= pending_.size()) return nullptr;
  Pending& p = pending_[slot];
  return (p.live && p.generation == gen) ? &p : nullptr;
}

void RpcEndpoint::release_pending(std::uint16_t slot) noexcept {
  Pending& p = pending_[slot];
  p.k = nullptr;
  p.live = false;
  // A recycled slot's generation no longer matches stale correlation ids, so
  // a reply that outlives its call can never complete a newer one. (16-bit
  // generations wrap after 65536 reuses of one slot — far beyond any
  // message's in-flight lifetime.)
  if (++p.generation == 0) p.generation = 1;
  p.next_free = free_head_;
  free_head_ = slot;
  --outstanding_;
}

std::uint64_t RpcEndpoint::call(NodeAddr to, MessagePtr request,
                                sim::SimTime timeout, Continuation k) {
  PGRID_EXPECTS(request != nullptr);
  PGRID_EXPECTS(k != nullptr);
  std::uint16_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = pending_[slot].next_free;
  } else {
    PGRID_EXPECTS(pending_.size() < kMaxPending);
    pending_.emplace_back();
    slot = static_cast<std::uint16_t>(pending_.size() - 1);
  }
  Pending& p = pending_[slot];
  p.live = true;
  p.k = std::move(k);
  p.ctx = obs::TraceContext{};
  if (obs::TraceBus* bus = net_.trace(); bus != nullptr) p.ctx = bus->current();
  ++outstanding_;
  const std::uint64_t id =
      stream_ << 32 | std::uint64_t{p.generation} << 16 | slot;
  request->rpc_id = id;
  request->is_reply = false;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kRpcIssue, self_, to,
                    request->type(), id);

  p.timeout_event = net_.simulator().schedule_in(timeout, [this, to, id] {
    Pending* pending = find_pending(id);
    if (pending == nullptr) return;
    Continuation cont = std::move(pending->k);
    const obs::TraceContext caller_ctx = pending->ctx;
    release_pending(static_cast<std::uint16_t>(id & 0xffff));
    ++timeouts_;
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kRpcTimeout, self_, to, 0,
                      id);
    obs::SpanScope scope(net_.trace(), caller_ctx);
    cont(nullptr);
  });

  net_.send(self_, to, std::move(request));
  return id;
}

struct RpcEndpoint::RetryState {
  NodeAddr to = kNullAddr;
  std::function<MessagePtr()> make;
  Continuation k;
  sim::SimTime timeout;
  int attempts = 1;
  int attempt = 0;
  sim::SimTime prev_backoff;
  /// Caller's span: re-installed for every attempt so retransmissions fired
  /// from backoff timers stay inside the sampled trace.
  obs::TraceContext ctx;
};

void RpcEndpoint::call_retry(NodeAddr to, std::function<MessagePtr()> make,
                             sim::SimTime timeout, int attempts,
                             Continuation k) {
  PGRID_EXPECTS(make != nullptr);
  PGRID_EXPECTS(k != nullptr);
  PGRID_EXPECTS(attempts >= 1);
  auto st = std::make_shared<RetryState>();
  st->to = to;
  st->make = std::move(make);
  st->k = std::move(k);
  st->timeout = timeout;
  st->attempts = attempts;
  st->prev_backoff = sim::SimTime::nanos(timeout.ns() / kMinPauseDivisor);
  if (obs::TraceBus* bus = net_.trace(); bus != nullptr) {
    st->ctx = bus->current();
  }
  retry_attempt(std::move(st));
}

void RpcEndpoint::retry_attempt(std::shared_ptr<RetryState> st) {
  obs::SpanScope span_scope(net_.trace(), st->ctx);
  const sim::SimTime timeout = std::min(
      sim::SimTime::nanos(static_cast<std::int64_t>(
          static_cast<double>(st->timeout.ns()) *
          std::pow(kTimeoutFactor, st->attempt))),
      st->timeout * kMaxTimeoutMultiple);

  call(st->to, st->make(), timeout, [this, st](MessagePtr reply) mutable {
    if (reply != nullptr || st->attempt + 1 >= st->attempts) {
      st->k(std::move(reply));
      return;
    }
    ++st->attempt;
    // Decorrelated jitter: pause ~ U(timeout/4, 3 × previous pause), capped
    // at the timeout.
    const std::int64_t lo = st->timeout.ns() / kMinPauseDivisor;
    const std::int64_t hi =
        std::min(st->timeout.ns(), std::max(lo, st->prev_backoff.ns() * 3));
    const sim::SimTime pause =
        sim::SimTime::nanos(lo >= hi ? lo : rng_.range(lo, hi));
    st->prev_backoff = pause;
    auto event = std::make_shared<sim::EventId>(sim::kInvalidEvent);
    *event = net_.simulator().schedule_in(
        pause, [this, st = std::move(st), event] {
          backoff_waits_.erase(*event);
          retry_attempt(st);
        });
    backoff_waits_.insert(*event);
  });
}

void RpcEndpoint::reply(NodeAddr to, const Message& request,
                        MessagePtr response) {
  PGRID_EXPECTS(response != nullptr);
  PGRID_EXPECTS(request.rpc_id != 0);
  response->rpc_id = request.rpc_id;
  response->is_reply = true;
  net_.send(self_, to, std::move(response));
}

void RpcEndpoint::send(NodeAddr to, MessagePtr msg) {
  PGRID_EXPECTS(msg != nullptr);
  net_.send(self_, to, std::move(msg));
}

bool RpcEndpoint::consume_reply(MessagePtr& msg) {
  PGRID_EXPECTS(msg != nullptr);
  if (!msg->is_reply || msg->rpc_id == 0) return false;
  if ((msg->rpc_id >> 32) != stream_) return false;  // another endpoint's
  Pending* p = find_pending(msg->rpc_id);
  if (p == nullptr) return true;  // late reply after timeout: drop
  Continuation cont = std::move(p->k);
  net_.simulator().cancel(p->timeout_event);
  release_pending(static_cast<std::uint16_t>(msg->rpc_id & 0xffff));
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kRpcComplete, self_,
                    obs::kNoActor, msg->type(), msg->rpc_id);
  cont(std::move(msg));
  return true;
}

void RpcEndpoint::cancel(std::uint64_t rpc_id) {
  Pending* p = find_pending(rpc_id);
  if (p == nullptr) return;
  net_.simulator().cancel(p->timeout_event);
  release_pending(static_cast<std::uint16_t>(rpc_id & 0xffff));
}

void RpcEndpoint::cancel_all() {
  for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
    if (!pending_[slot].live) continue;
    net_.simulator().cancel(pending_[slot].timeout_event);
    release_pending(static_cast<std::uint16_t>(slot));
  }
  // Also stop retry chains waiting out a backoff pause; without this a
  // crashed node would keep retransmitting from beyond the grave.
  for (const sim::EventId id : backoff_waits_) {
    net_.simulator().cancel(id);
  }
  backoff_waits_.clear();
}

}  // namespace pgrid::net
