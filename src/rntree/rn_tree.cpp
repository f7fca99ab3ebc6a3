#include "rntree/rn_tree.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace pgrid::rntree {

namespace {

bool contains_id(const std::vector<Guid>& ids, Guid id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

std::unique_ptr<TokenPass> clone_token(const TokenPass& t) {
  auto copy = std::make_unique<TokenPass>();
  copy->search_id = t.search_id;
  copy->initiator = t.initiator;
  copy->query = t.query;
  copy->k = t.k;
  copy->max_visits = t.max_visits;
  copy->hops = t.hops;
  copy->visited = t.visited;
  copy->candidates = t.candidates;
  return copy;
}

/// Low key of the level-`l` trie region containing `id` (l in [0, 64]).
std::uint64_t region_low(std::uint64_t id, int l) {
  if (l <= 0) return 0;
  if (l >= 64) return id;
  return id & (~std::uint64_t{0} << (64 - l));
}

}  // namespace

RnTreeService::RnTreeService(net::Network& network, chord::ChordNode& chord,
                             RnTreeConfig config, InfoProvider info, Rng rng)
    : net_(network),
      chord_(chord),
      rpc_(network, chord.addr()),
      config_(config),
      info_(std::move(info)),
      rng_(rng) {
  PGRID_EXPECTS(info_ != nullptr);
}

RnTreeService::~RnTreeService() { stop(); }

void RnTreeService::start() {
  if (running_) return;
  running_ = true;
  const auto phase =
      sim::SimTime::nanos(rng_.range(0, config_.aggregation_period.ns() - 1));
  agg_task_ = std::make_unique<sim::PeriodicTask>(
      net_.simulator(), config_.aggregation_period,
      [this] { do_aggregation_push(); }, phase);
}

void RnTreeService::stop() {
  running_ = false;
  agg_task_.reset();
  rpc_.cancel_all();
  for (auto& [id, pending] : pending_searches_) {
    net_.simulator().cancel(pending.timeout_event);
  }
  pending_searches_.clear();
  children_.clear();
  seen_tokens_.clear();
  seen_cursor_ = 0;
  parent_ = kNoPeer;
  parent_key_ = Guid{};
  parent_stale_ = false;
}

// --- tree structure ---------------------------------------------------------

bool RnTreeService::represents(Guid key) const {
  const chord::Peer pred = chord_.predecessor();
  if (!pred.valid() || pred.addr == chord_.addr()) return true;
  return in_interval_oc(key, pred.id, chord_.id());
}

int RnTreeService::level() const {
  // The smallest l whose region low key lies in (pred, self]. Low keys
  // ascend with l and never pass self, so without a wrap that is the first
  // low key above pred: the level-l low keeps self's top l bits, and it
  // clears pred once it includes the first bit where self (1) and pred (0)
  // differ.
  const chord::Peer pred = chord_.predecessor();
  if (!pred.valid() || pred.addr == chord_.addr()) return 0;
  const std::uint64_t self = chord_.id().value();
  const std::uint64_t below = pred.id.value();
  if (below >= self) return 0;  // (pred, self] wraps through key 0: root
  return std::countl_zero(self ^ below) + 1;
}

Guid RnTreeService::parent_key() const {
  const int l = level();
  PGRID_EXPECTS(l > 0);
  return Guid{region_low(chord_.id().value(), l - 1)};
}

void RnTreeService::install_parent(Peer parent) {
  if (is_root()) return;
  parent_ = parent;
  parent_key_ = parent_key();
  parent_stale_ = false;
}

Aggregate RnTreeService::subtree_aggregate() const {
  const LocalInfo local = info_();
  Aggregate agg;
  agg.max_caps = local.caps;
  agg.nodes = 1;
  agg.min_load = local.load;
  for (const auto& [addr, child] : children_) {
    agg.merge(child.aggregate);
  }
  return agg;
}

void RnTreeService::expire_children() {
  const auto now = net_.simulator().now();
  for (auto it = children_.begin(); it != children_.end();) {
    const ChildState& c = it->second;
    const bool expired = c.phi.evict(now, config_.child_expiry);
    if (!expired && now - c.phi.last_arrival() > config_.child_expiry) {
      // A fixed child_expiry would have dropped this child; φ judges its
      // slowed cadence survivable, keeping the subtree aggregate intact.
      ++stats_.suspicions;
      PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kPhiSuspect,
                        chord_.addr(), it->first, 3, 0,
                        c.phi.phi(now, config_.child_expiry));
    }
    it = expired ? children_.erase(it) : std::next(it);
  }
}

void RnTreeService::do_aggregation_push() {
  if (!running_ || !chord_.running()) return;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayMaintain,
                    chord_.addr(), obs::kNoActor, 5, 0,
                    static_cast<double>(children_.size()));
  expire_children();
  if (level() == 0) {
    parent_ = kNoPeer;  // we are the root
    return;
  }
  // The parent is soft state: keep it while it acknowledges that it still
  // represents our parent key, and look it up again only when there is
  // none, the key moved with our predecessor, or the last push failed.
  const Guid key = parent_key();
  if (parent_.valid() && key == parent_key_ && !parent_stale_) {
    push_aggregate();
    return;
  }
  chord_.lookup(key, [this, key](chord::Peer parent, int /*hops*/) {
    if (!running_) return;
    if (!parent.valid() || parent.addr == chord_.addr()) return;
    parent_ = parent;
    parent_key_ = key;
    parent_stale_ = false;
    push_aggregate();
  });
}

void RnTreeService::push_aggregate() {
  const Peer to = parent_;
  rpc_.call(to.addr,
            std::make_unique<AggUpdate>(chord_.self_peer(),
                                        subtree_aggregate(), parent_key_),
            config_.rpc_timeout, [this, to](net::MessagePtr reply) {
              const bool kept =
                  reply != nullptr &&
                  net::msg_cast<AggAck>(reply.get())->represents;
              if (!kept && parent_ == to) parent_stale_ = true;
            });
}

// --- search ------------------------------------------------------------------

void RnTreeService::search(const Query& query, std::uint32_t k,
                           SearchCallback cb) {
  PGRID_EXPECTS(cb != nullptr);
  PGRID_EXPECTS(k >= 1);
  ++stats_.searches_started;
  if (!running_) {
    cb({}, 0);
    return;
  }
  const std::uint64_t id = next_search_id_++;
  auto token = std::make_unique<TokenPass>();
  token->search_id = id;
  token->initiator = chord_.self_peer();
  token->query = query;
  token->k = k;
  token->max_visits = config_.max_visits;

  PendingSearch pending;
  pending.cb = std::move(cb);
  // A token lost with no hop observing it (the holder crashed after acking
  // custody) ends here; the caller's match retry starts a fresh search.
  pending.timeout_event =
      net_.simulator().schedule_in(config_.search_timeout, [this, id] {
        auto it = pending_searches_.find(id);
        if (it == pending_searches_.end()) return;
        SearchCallback callback = std::move(it->second.cb);
        pending_searches_.erase(it);
        ++stats_.searches_timed_out;
        callback({}, 0);
      });
  pending_searches_.emplace(id, std::move(pending));

  process_token(std::move(token));
}

void RnTreeService::process_token(std::unique_ptr<TokenPass> token) {
  if (!running_) return;  // token dies here; initiator's timeout handles it
  ++stats_.tokens_processed;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kMatchStep, chord_.addr(),
                    static_cast<std::uint32_t>(token->initiator.addr),
                    static_cast<std::uint16_t>(token->hops),
                    token->search_id,
                    static_cast<double>(token->candidates.size()));
  const Guid self = chord_.id();

  if (!contains_id(token->visited, self)) {
    token->visited.push_back(self);
    const LocalInfo local = info_();
    if (token->query.satisfied_by(local.caps)) {
      token->candidates.push_back(Candidate{chord_.self_peer(), local.load});
    }
  }

  const bool exhausted =
      token->visited.size() >= token->max_visits ||
      token->hops >= 3 * token->max_visits;
  if (token->candidates.size() >= token->k || exhausted) {
    finish_search(std::move(token));
    return;
  }

  // Descend: the unvisited child with a qualifying aggregate (lowest GUID
  // first for determinism).
  expire_children();
  const ChildState* best = nullptr;
  net::NodeAddr best_addr = net::kNullAddr;
  for (const auto& [caddr, child] : children_) {
    if (contains_id(token->visited, child.id)) continue;
    if (!token->query.possibly_satisfied_by(child.aggregate)) continue;
    if (best == nullptr || child.id < best->id) {
      best = &child;
      best_addr = caddr;
    }
  }
  if (best != nullptr) {
    forward_token(std::move(token), Peer{best_addr, best->id});
    return;
  }

  // Ascend (extended search): move to the parent unless we are the root.
  if (level() == 0 || !parent_.valid()) {
    finish_search(std::move(token));
    return;
  }
  forward_token(std::move(token), parent_);
}

void RnTreeService::forward_token(std::unique_ptr<TokenPass> token,
                                  Peer next) {
  ++token->hops;
  // Keep a recovery copy: if the next holder never acks, the token would be
  // lost, so we re-route it from here. shared_ptr because std::function
  // requires copyable captures.
  std::shared_ptr<TokenPass> backup{clone_token(*token).release()};
  rpc_.call(next.addr, std::move(token), config_.rpc_timeout,
            [this, backup, next](net::MessagePtr reply) {
              if (reply != nullptr) return;  // ack'd: the next holder owns it
              if (!running_) return;
              // Dead hop: mark it visited and re-route from here.
              if (!contains_id(backup->visited, next.id)) {
                backup->visited.push_back(next.id);
              }
              if (parent_ == next) parent_ = kNoPeer;
              children_.erase(next.addr);
              process_token(clone_token(*backup));
            });
}

void RnTreeService::finish_search(std::unique_ptr<TokenPass> token) {
  if (token->initiator.addr == chord_.addr()) {
    auto result = std::make_unique<SearchResult>();
    result->search_id = token->search_id;
    result->hops = token->hops;
    result->candidates = std::move(token->candidates);
    on_search_result(*result);
    return;
  }
  auto result = std::make_unique<SearchResult>();
  result->search_id = token->search_id;
  result->hops = token->hops + 1;  // the result message itself is a hop
  result->candidates = std::move(token->candidates);
  rpc_.send(token->initiator.addr, std::move(result));
}

// --- message handling ----------------------------------------------------------

bool RnTreeService::handle(net::NodeAddr from, net::MessagePtr& msg) {
  PGRID_EXPECTS(msg != nullptr);
  if (rpc_.consume_reply(msg)) return true;
  if (!running_) {
    const auto t = msg->type();
    return t >= net::kTagRnTreeBase && t < net::kTagRnTreeBase + 0x100;
  }
  switch (msg->type()) {
    case kAggUpdate:
      on_agg_update(from, *net::msg_cast<AggUpdate>(msg.get()));
      return true;
    case kTokenPass:
      on_token(from, msg);
      return true;
    case kSearchResult:
      on_search_result(*net::msg_cast<SearchResult>(msg.get()));
      return true;
    default:
      return false;
  }
}

void RnTreeService::on_agg_update(net::NodeAddr from, const AggUpdate& msg) {
  // Record the child even when refusing it: until its lookup finds the new
  // representative, its tokens still ascend to this node, and this node is
  // its subtree's only path into the root aggregate.
  ChildState& child = children_[msg.sender.addr];
  child.id = msg.sender.id;
  child.aggregate = msg.aggregate;
  child.phi.heartbeat(net_.simulator().now());
  rpc_.reply(from, msg, std::make_unique<AggAck>(represents(msg.parent_key)));
}

void RnTreeService::on_token(net::NodeAddr from, net::MessagePtr& msg) {
  const auto* t = net::msg_cast<TokenPass>(msg.get());
  // Duplicate suppression: a network-duplicated token would fork the walk
  // (both copies keep walking), which compounds exponentially per hop. A
  // genuine revisit of this node arrives with a different hop count, so
  // (initiator, search_id, hops) seen before means this copy is a twin.
  for (const SeenToken& s : seen_tokens_) {
    if (s.initiator == t->initiator.addr && s.search_id == t->search_id &&
        s.hops == t->hops) {
      ++stats_.tokens_deduplicated;
      // Still ack: the reply correlates to the sender's single call; an
      // extra reply is dropped by RPC correlation.
      rpc_.reply(from, *msg, std::make_unique<TokenAck>());
      return;
    }
  }
  if (seen_tokens_.size() < kSeenTokenCap) {
    seen_tokens_.push_back(
        SeenToken{t->initiator.addr, t->search_id, t->hops});
  } else {
    seen_tokens_[seen_cursor_++ % kSeenTokenCap] =
        SeenToken{t->initiator.addr, t->search_id, t->hops};
  }
  // Acknowledge custody, then take ownership and process.
  rpc_.reply(from, *msg, std::make_unique<TokenAck>());
  std::unique_ptr<TokenPass> token(net::msg_cast<TokenPass>(msg.release()));
  process_token(std::move(token));
}

void RnTreeService::on_search_result(const SearchResult& msg) {
  auto it = pending_searches_.find(msg.search_id);
  if (it == pending_searches_.end()) return;  // timed out already
  SearchCallback callback = std::move(it->second.cb);
  net_.simulator().cancel(it->second.timeout_event);
  pending_searches_.erase(it);
  ++stats_.searches_completed;
  stats_.search_hops.add(msg.hops);
  stats_.candidates_found.add(static_cast<double>(msg.candidates.size()));
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kMatchResult, chord_.addr(),
                    obs::kNoActor, static_cast<std::uint16_t>(msg.hops),
                    msg.search_id,
                    static_cast<double>(msg.candidates.size()));
  callback(msg.candidates, static_cast<int>(msg.hops));
}

}  // namespace pgrid::rntree
