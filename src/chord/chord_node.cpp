#include "chord/chord_node.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "net/batch.h"

namespace pgrid::chord {

namespace {
constexpr int kMaxLookupHops = 128;  // loop guard far above log2(N)

bool contains_id(const std::vector<Guid>& ids, Guid id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
}  // namespace

ChordNode::ChordNode(net::Network& network, net::NodeAddr self, Guid id,
                     ChordConfig config, Rng rng)
    : net_(network), rpc_(network, self), id_(id), config_(config), rng_(rng) {
  PGRID_EXPECTS(config.successor_list_len >= 1);
}

ChordNode::~ChordNode() = default;

void ChordNode::create() {
  running_ = true;
  predecessor_ = kNoPeer;
  set_successors({self_peer()}, 0);
  fingers_.fill(kNoPeer);
  rebuild_route_scan();
  start_maintenance();
}

void ChordNode::join(Peer bootstrap, std::function<void(bool ok)> done) {
  PGRID_EXPECTS(bootstrap.valid());
  running_ = true;
  predecessor_ = kNoPeer;
  set_successors({}, 0);
  fingers_.fill(kNoPeer);
  rebuild_route_scan();
  // Maintenance runs from the start: if the bootstrap lookup fails (the
  // bootstrap died or sits behind a partition), reconcile_lost keeps
  // probing it until the ring becomes reachable, instead of leaving this
  // node a permanent orphan.
  start_maintenance();

  // Resolve successor(id) through the bootstrap node: a one-off remote
  // lookup driven by this node before it has any routing state.
  auto st = std::make_shared<LookupState>();
  st->key = id_;
  st->retries_left = config_.lookup_retries;
  st->cb = [this, bootstrap, done = std::move(done)](Peer succ, int /*hops*/) {
    if (!running_) return;
    if (!succ.valid()) {
      note_lost(bootstrap);
      if (done) done(false);
      return;
    }
    // A singleton bootstrap may answer with the joiner itself once the
    // joiner's GUID equals the key; guard against self-successorship.
    if (succ.addr == addr()) succ = kNoPeer;
    if (succ.valid()) {
      set_successors({succ}, 0);
      rebuild_route_scan();
      rpc_.send(succ.addr, std::make_unique<Notify>(self_peer()));
      if (done) done(true);
    } else {
      note_lost(bootstrap);
      if (done) done(false);
    }
  };
  lookup_ask(st, bootstrap);
}

void ChordNode::crash() {
  running_ = false;
  maintenance_task_.reset();
  rpc_.cancel_all();
  predecessor_ = kNoPeer;
  set_successors({}, 0);
  fingers_.fill(kNoPeer);
  rebuild_route_scan();
  lost_.clear();
  struck_.clear();
  detectors_.clear();
}

void ChordNode::install_state(Peer predecessor, std::vector<Peer> successor_list,
                              const std::array<Peer, kBits>& fingers) {
  running_ = true;
  predecessor_ = predecessor;
  set_successors(std::move(successor_list), 0);
  fingers_ = fingers;
  rebuild_route_scan();
  seed_predecessor_detector();
  PGRID_EXPECTS(!successors_.empty());
  start_maintenance();
}

void ChordNode::start_maintenance() {
  if (!config_.run_maintenance) return;
  // Desynchronize the rounds across nodes with a random initial phase.
  const auto phase = sim::SimTime::nanos(
      rng_.range(0, config_.stabilize_period.ns() - 1));
  maintenance_task_ = std::make_unique<sim::PeriodicTask>(
      net_.simulator(), config_.stabilize_period,
      [this] { do_maintenance_round(); }, phase);
}

void ChordNode::do_maintenance_round() {
  // The stabilize probe (which also notifies the successor) and the finger
  // lookups' first hops that target the same peer share one wire message.
  // In a steady ring that is the whole round: the predecessor is probed
  // only once its detector turns suspect.
  const net::BatchScope batch(net_, addr());
  do_stabilize();
  for (int i = 0; i < kFingerFixesPerRound; ++i) do_fix_fingers();
  do_check_predecessor();
}

// --- lookups ---------------------------------------------------------------

void ChordNode::lookup(Guid key, LookupCallback cb) {
  start_lookup(key, std::move(cb), kNoPeer);
}

void ChordNode::start_lookup(Guid key, LookupCallback cb, Peer check) {
  PGRID_EXPECTS(cb != nullptr);
  ++stats_.lookups_started;
  if (!running_ || successors_.empty()) {
    ++stats_.lookups_failed;
    cb(kNoPeer, 0);
    return;
  }
  auto st = std::make_shared<LookupState>();
  st->key = key;
  st->cb = std::move(cb);
  st->retries_left = config_.lookup_retries;
  if (check.valid()) {
    st->check = true;
    lookup_ask(st, check);
  } else {
    lookup_restart(st);
  }
}

Peer ChordNode::local_owner(Guid key) const {
  if (predecessor_.valid() && in_interval_oc(key, predecessor_.id, id_)) {
    return self_peer();
  }
  const Peer succ = successor();
  if (succ.addr == addr() || in_interval_oc(key, id_, succ.id)) return succ;
  return kNoPeer;
}

void ChordNode::lookup_restart(const std::shared_ptr<LookupState>& st) {
  if (!running_ || successors_.empty()) {
    lookup_failed(st);
    return;
  }
  if (const Peer owner = local_owner(st->key); owner.valid()) {
    lookup_done(st, owner);
    return;
  }
  Peer target = closest_preceding(st->key, st->avoid);
  if (!target.valid() || target.addr == addr()) target = successor();
  lookup_ask(st, target);
}

void ChordNode::lookup_ask(const std::shared_ptr<LookupState>& st,
                           Peer target) {
  if (st->hops >= kMaxLookupHops) {
    lookup_failed(st);
    return;
  }
  ++st->hops;
  auto make = [key = st->key, avoid = st->avoid]() -> net::MessagePtr {
    auto req = std::make_unique<NextHopReq>(key);
    req->avoid = avoid;
    return req;
  };
  rpc_.call_retry(target.addr, std::move(make), config_.rpc_timeout,
                  config_.rpc_attempts,
                  [this, st, target](net::MessagePtr reply) {
              if (!running_) return;
              const auto* resp =
                  reply ? net::msg_cast<NextHopResp>(reply.get()) : nullptr;
              if (st->check && (resp == nullptr || !resp->done)) {
                // The finger did not confirm itself: look the start up from
                // here. An unanswered check judges nothing; the lookup's own
                // hops carry the eviction rule.
                st->check = false;
                lookup_restart(st);
                return;
              }
              if (resp == nullptr) {
                // Dead hop: remember to route around it and retry. A peer
                // heard from recently is only suspected — route around it
                // this lookup, but keep its table entries until φ says the
                // silence is implausible. A hop another node named is not
                // in this node's tables, so there is nothing to judge.
                if (is_routing_peer(target.addr)) {
                  if (hop_failure_evicts(target.addr)) {
                    remove_failed(target);
                  } else {
                    ++stats_.suspicions;
                    PGRID_TRACE_EVENT(
                        net_.trace(), obs::EventKind::kPhiSuspect, addr(),
                        static_cast<std::uint32_t>(target.addr), 1);
                  }
                }
                if (!contains_id(st->avoid, target.id)) {
                  st->avoid.push_back(target.id);
                }
                if (--st->retries_left > 0) {
                  lookup_restart(st);
                } else {
                  lookup_failed(st);
                }
                return;
              }
              if (!resp->node.valid()) {
                lookup_failed(st);
                return;
              }
              if (resp->done) {
                lookup_done(st, resp->node);
              } else {
                lookup_ask(st, resp->node);
              }
            });
}

void ChordNode::lookup_done(const std::shared_ptr<LookupState>& st,
                            Peer result) {
  ++stats_.lookups_ok;
  stats_.lookup_hops.add(st->hops);
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayLookup, addr(),
                    static_cast<std::uint32_t>(result.addr), 1,
                    static_cast<std::uint64_t>(std::max(st->hops, 0)));
  st->cb(result, st->hops);
}

void ChordNode::lookup_failed(const std::shared_ptr<LookupState>& st) {
  ++stats_.lookups_failed;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayLookup, addr(),
                    obs::kNoActor, 0,
                    static_cast<std::uint64_t>(std::max(st->hops, 0)));
  st->cb(kNoPeer, st->hops);
}

Peer ChordNode::closest_preceding(Guid key,
                                  const std::vector<Guid>& avoid) const {
  // Scan the deduplicated routing list (fingers high-to-low, then the
  // successor list — see route_scan_) for the entry closest to (but
  // strictly before) the key. In ring-relative coordinates rel(x) = x - id_
  // (unsigned wraparound), x lies in the open interval (id_, key) iff
  // 0 < rel(x) < rel(key), and "closest preceding" is the qualifying
  // maximum of rel(x). The rel(x) - 1 < rel(key) - 1 form folds both
  // bounds into one unsigned compare and, when key == id_ (rel(key) == 0,
  // whole ring minus the endpoint), wraps to admit everything but id_.
  const std::uint64_t rk = id_.clockwise_to(key);
  Peer best = kNoPeer;
  std::uint64_t best_rel = 0;
  for (const Peer& p : route_scan_) {
    const std::uint64_t rp = id_.clockwise_to(p.id);
    if (rp - 1 >= rk - 1) continue;  // outside (id_, key)
    if (rp <= best_rel) continue;    // not closer than the current best
    if (!avoid.empty() && contains_id(avoid, p.id)) continue;
    best = p;
    best_rel = rp;
  }
  return best;
}

void ChordNode::rebuild_route_scan() {
  route_scan_.clear();
  auto push = [&](const Peer& p) {
    if (!p.valid() || p.addr == addr()) return;
    if (!route_scan_.empty() && route_scan_.back() == p) return;
    route_scan_.push_back(p);
  };
  for (int i = kBits - 1; i >= 0; --i) {
    push(fingers_[static_cast<std::size_t>(i)]);
  }
  for (const Peer& p : successors_) push(p);
  // A peer displaced from the fingers and successors takes its detector
  // and its strike with it, so both stay O(table size).
  for (auto it = detectors_.begin(); it != detectors_.end();) {
    it = is_routing_peer(it->first) ? std::next(it) : detectors_.erase(it);
  }
  std::erase_if(struck_,
                [this](net::NodeAddr p) { return !is_routing_peer(p); });
}

bool ChordNode::is_routing_peer(net::NodeAddr peer) const noexcept {
  if (predecessor_.valid() && predecessor_.addr == peer) return true;
  return std::any_of(route_scan_.begin(), route_scan_.end(),
                     [peer](const Peer& p) { return p.addr == peer; });
}

// --- incoming messages -------------------------------------------------------

bool ChordNode::handle(net::NodeAddr from, net::MessagePtr& msg) {
  PGRID_EXPECTS(msg != nullptr);
  const auto t = msg->type();
  const bool chord_msg =
      t >= net::kTagChordBase && t < net::kTagChordBase + 0x100;
  // A Chord message from a routing peer is proof of life; other layers'
  // traffic feeds their own detectors.
  if (running_ && chord_msg) note_alive(from);
  if (rpc_.consume_reply(msg)) return true;
  // Stale message for a crashed incarnation; consume Chord-tagged ones.
  if (!running_) return chord_msg;
  switch (msg->type()) {
    case kNextHopReq:
      on_next_hop(from, *net::msg_cast<NextHopReq>(msg.get()));
      return true;
    case kStabilizeReq:
      on_stabilize(from, *net::msg_cast<StabilizeReq>(msg.get()));
      return true;
    case kNotify:
      consider_predecessor(net::msg_cast<Notify>(msg.get())->peer);
      return true;
    case kPingReq:
      on_ping(from, *net::msg_cast<PingReq>(msg.get()));
      return true;
    default:
      return false;
  }
}

void ChordNode::on_next_hop(net::NodeAddr from, const NextHopReq& req) {
  const Peer succ = successor();
  if (!succ.valid()) return;  // still joining; initiator will time out & retry
  // What this node's own lookup would resolve locally it answers as done:
  // for a finger check that is the finger confirming itself.
  if (const Peer owner = local_owner(req.key); owner.valid()) {
    rpc_.reply(from, req, std::make_unique<NextHopResp>(true, owner));
    return;
  }
  Peer next = closest_preceding(req.key, req.avoid);
  if (!next.valid() || next.addr == addr()) {
    // No usable finger: hand back the successor as a linear-scan fallback.
    rpc_.reply(from, req, std::make_unique<NextHopResp>(false, succ));
    return;
  }
  rpc_.reply(from, req, std::make_unique<NextHopResp>(false, next));
}

void ChordNode::on_stabilize(net::NodeAddr from, const StabilizeReq& req) {
  // The request is also notify(sender). Applying it first lets the reply
  // name the sender as predecessor, which the sender then keeps as head.
  if (req.sender.addr == from) consider_predecessor(req.sender);
  // The list goes only to a requester that does not hold its current
  // version; no per-requester copy is kept.
  std::vector<Peer> list;
  if (req.version == 0 || req.version != succ_version_) list = successors_;
  rpc_.reply(from, req,
             std::make_unique<StabilizeResp>(predecessor_, succ_version_,
                                             std::move(list)));
}

void ChordNode::consider_predecessor(Peer cand) {
  if (!cand.valid() || cand.addr == addr()) return;
  if (predecessor_.valid() && !in_interval_oo(cand.id, predecessor_.id, id_)) {
    return;
  }
  predecessor_ = cand;
  rebuild_route_scan();
  seed_predecessor_detector();
}

void ChordNode::on_ping(net::NodeAddr from, const PingReq& req) {
  rpc_.reply(from, req, std::make_unique<PingResp>());
}

// --- maintenance -------------------------------------------------------------

void ChordNode::do_stabilize() {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayMaintain, addr(),
                    obs::kNoActor, 1);
  reconcile_lost();
  if (successors_.empty()) return;
  const Peer succ = successor();
  if (succ.addr == addr()) {
    // Singleton ring: adopt the predecessor as successor once one appears.
    if (predecessor_.valid() && predecessor_.addr != addr()) {
      set_successors({predecessor_}, 0);
      rebuild_route_scan();
    }
    return;
  }
  const std::uint32_t held = head_version_;
  rpc_.call_retry(succ.addr,
                  [self = self_peer(), held] {
                    return std::make_unique<StabilizeReq>(self, held);
                  },
                  config_.rpc_timeout, config_.rpc_attempts,
                  [this, succ, held](net::MessagePtr reply) {
              if (!running_) return;
              if (reply == nullptr) {
                // Rounds overlap a call's attempts, so the calls sent while
                // succ was head keep timing out after it is evicted.
                if (std::find(successors_.begin(), successors_.end(), succ) ==
                    successors_.end()) {
                  return;
                }
                if (!phi_allows_evict(succ.addr)) {
                  // Suspect, don't evict: the successor has been heard from
                  // recently enough that this timeout is more likely loss or
                  // congestion. Refresh the list tail from the first backup
                  // so an eventual eviction starts from fresh state.
                  ++stats_.suspicions;
                  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kPhiSuspect,
                                    addr(),
                                    static_cast<std::uint32_t>(succ.addr), 1);
                  refresh_successor_tail();
                  return;
                }
                remove_failed(succ);
                if (successors_.empty()) {
                  set_successors({self_peer()}, 0);
                  rebuild_route_scan();
                }
                return;
              }
              const auto* resp = net::msg_cast<StabilizeResp>(reply.get());
              // No list: this node's copy of succ's list is still current.
              const bool unchanged = held != 0 && resp->version == held;
              const Peer cand = resp->predecessor;
              const bool closer = cand.valid() && cand.addr != addr() &&
                                  in_interval_oo(cand.id, id_, succ.id);
              // A peer this node evicted comes back as head only once it
              // answers a probe, sent now (revive makes it head), and not
              // because succ has not cleared it yet.
              LostPeer* lost = closer ? find_lost(cand) : nullptr;
              if (lost != nullptr) probe_lost(*lost);
              if (!closer || lost != nullptr) {
                if (!unchanged) {
                  adopt_successor_list(succ, resp->successors, resp->version);
                }
                return;  // the request already notified succ
              }
              // A closer successor slipped in between. succ stays right
              // behind it, and only the new head has not heard from us.
              const std::vector<Peer>& rest =
                  unchanged ? successors_ : resp->successors;
              std::vector<Peer> tail;
              tail.reserve(rest.size() + 1);
              tail.push_back(succ);
              tail.insert(tail.end(), rest.begin(), rest.end());
              adopt_successor_list(cand, tail, 0);
              rpc_.send(cand.addr, std::make_unique<Notify>(self_peer()));
            });
}

bool ChordNode::set_successors(std::vector<Peer> list, std::uint32_t version) {
  if (list == successors_) {
    if (version != 0) head_version_ = version;
    return false;
  }
  successors_ = std::move(list);
  ++succ_version_;
  head_version_ = version;
  return true;
}

void ChordNode::adopt_successor_list(Peer head, const std::vector<Peer>& tail,
                                     std::uint32_t version) {
  std::vector<Peer> fresh;
  fresh.reserve(config_.successor_list_len);
  fresh.push_back(head);
  for (const Peer& p : tail) {
    if (fresh.size() >= config_.successor_list_len) break;
    if (!p.valid() || p.addr == addr()) continue;
    if (std::find(fresh.begin(), fresh.end(), p) != fresh.end()) continue;
    fresh.push_back(p);
  }
  // Most rounds confirm the list they already hold: nothing to rebuild.
  if (set_successors(std::move(fresh), version)) rebuild_route_scan();
}

void ChordNode::do_fix_fingers() {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayMaintain, addr(),
                    obs::kNoActor, 2);
  const auto i = static_cast<std::size_t>(next_finger_);
  next_finger_ = (next_finger_ + 1) % kBits;
  const Guid start{id_.value() + (std::uint64_t{1} << i)};
  auto install = [this, i](Peer result, int /*hops*/) {
    if (!running_) return;
    if (result.valid() && !(fingers_[i] == result)) {
      fingers_[i] = result;
      rebuild_route_scan();
    }
  };
  // A start past the successor is usually still owned by the finger held
  // for it, which confirms that in one hop; the multi-hop lookup runs only
  // when it does not.
  const Peer held = fingers_[i];
  if (held.valid() && held.addr != addr() && !local_owner(start).valid()) {
    ++stats_.finger_checks;
    start_lookup(start, std::move(install), held);
  } else {
    lookup(start, std::move(install));
  }
}

void ChordNode::do_check_predecessor() {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayMaintain, addr(),
                    obs::kNoActor, 3);
  if (!predecessor_.valid()) return;
  const Peer pred = predecessor_;
  // A live predecessor proves itself every round with its own StabilizeReq;
  // probe it only once that stream has gone quiet enough to suspect.
  if (const auto it = detectors_.find(pred.addr);
      it != detectors_.end() && it->second.seen() &&
      !it->second.suspect(net_.simulator().now(),
                          predecessor_suspect_deadline())) {
    return;
  }
  rpc_.call_retry(pred.addr, [] { return std::make_unique<PingReq>(); },
                  config_.rpc_timeout, config_.rpc_attempts,
                  [this, pred](net::MessagePtr reply) {
              if (!running_) return;
              if (reply == nullptr && predecessor_ == pred) {
                if (!phi_allows_evict(pred.addr)) {
                  ++stats_.suspicions;
                  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kPhiSuspect,
                                    addr(),
                                    static_cast<std::uint32_t>(pred.addr), 1);
                  return;
                }
                predecessor_ = kNoPeer;
                ++stats_.predecessor_clears;
                rebuild_route_scan();
              }
            });
}

void ChordNode::remove_failed(Peer peer) {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayRepair, addr(),
                    static_cast<std::uint32_t>(peer.addr), 1);
  ++stats_.evictions;
  if (auto it = detectors_.find(peer.addr); it != detectors_.end()) {
    detectors_.erase(it);
  }
  note_lost(peer);
  std::vector<Peer> kept = successors_;
  std::erase(kept, peer);
  set_successors(std::move(kept), 0);
  for (auto& f : fingers_) {
    if (f == peer) f = kNoPeer;
  }
  if (predecessor_ == peer) {
    predecessor_ = kNoPeer;
    ++stats_.predecessor_clears;
  }
  rebuild_route_scan();
}

void ChordNode::note_lost(Peer peer) {
  if (!peer.valid() || peer.addr == addr() || find_lost(peer) != nullptr) {
    return;
  }
  if (lost_.size() >= kLostCap) lost_.erase(lost_.begin());
  lost_.push_back(LostPeer{peer});
}

ChordNode::LostPeer* ChordNode::find_lost(Peer peer) noexcept {
  const auto it = std::find_if(
      lost_.begin(), lost_.end(),
      [peer](const LostPeer& l) { return l.peer == peer; });
  return it == lost_.end() ? nullptr : &*it;
}

void ChordNode::reconcile_lost() {
  for (LostPeer& l : lost_) {
    if (--l.wait > 0) continue;
    l.gap = std::min(l.gap * 2, kMaxProbeGap);
    l.wait = l.gap;
    probe_lost(l);
  }
}

void ChordNode::probe_lost(LostPeer& lost) {
  if (lost.probing) return;
  lost.probing = true;
  // One transmission only: a background probe that runs again on the
  // peer's schedule; a lost datagram costs nothing.
  const Peer peer = lost.peer;
  rpc_.call_retry(peer.addr, [] { return std::make_unique<PingReq>(); },
                  config_.rpc_timeout, 1, [this, peer](net::MessagePtr reply) {
                    if (!running_) return;
                    if (reply == nullptr) {
                      if (LostPeer* l = find_lost(peer)) l->probing = false;
                      return;
                    }
                    std::erase_if(lost_, [peer](const LostPeer& l) {
                      return l.peer == peer;
                    });
                    revive(peer);
                  });
}

void ChordNode::revive(Peer peer) {
  if (peer.addr == addr()) return;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayRepair, addr(),
                    static_cast<std::uint32_t>(peer.addr), 2);
  const Peer succ = successor();
  if (!succ.valid() || succ.addr == addr() ||
      in_interval_oo(peer.id, id_, succ.id)) {
    // The revived peer sits between us and our current successor — or we
    // degraded to a singleton — so it becomes the new head; stabilize
    // against it walks the rest of the merge.
    std::vector<Peer> list{peer};
    for (const Peer& p : successors_) {
      if (list.size() >= config_.successor_list_len) break;
      if (!(p == peer)) list.push_back(p);
    }
    if (set_successors(std::move(list), 0)) rebuild_route_scan();
  }
  // Either way, let the peer consider us as predecessor; its own
  // reconciliation and stabilize rounds extend the merge from its side.
  rpc_.send(peer.addr, std::make_unique<Notify>(self_peer()));
}

// --- φ-accrual liveness ------------------------------------------------------

void ChordNode::note_alive(net::NodeAddr from) {
  if (from == addr()) return;
  const auto now = net_.simulator().now();
  if (auto it = detectors_.find(from); it != detectors_.end()) {
    it->second.heartbeat(now);
    return;
  }
  // Admit only current routing peers so the map stays O(table size).
  if (!is_routing_peer(from)) return;
  PhiDetector det;
  det.heartbeat(now);
  detectors_.emplace(from, det);
}

void ChordNode::seed_predecessor_detector() {
  if (!predecessor_.valid() || predecessor_.addr == addr()) return;
  // An existing detector already holds this peer's history (handle() has
  // fed it the message that installed the peer); a heartbeat here would
  // add a zero gap.
  if (detectors_.find(predecessor_.addr) != detectors_.end()) return;
  PhiDetector det;
  det.heartbeat(net_.simulator().now());
  detectors_.emplace(predecessor_.addr, det);
}

sim::SimTime ChordNode::predecessor_suspect_deadline() const {
  // Two quiet rounds plus one failed RPC: the suspect level, 2/3 of this,
  // stays above one stabilize period at any period, so a young
  // predecessor's normal gap is never mistaken for silence.
  return config_.stabilize_period * 2 +
         config_.rpc_timeout * config_.rpc_attempts;
}

bool ChordNode::phi_allows_evict(net::NodeAddr peer) const {
  const auto it = detectors_.find(peer);
  // No arrival history to judge by: a timed-out RPC condemns the peer, so a
  // born-dead peer cannot linger forever.
  if (it == detectors_.end() || !it->second.seen()) return true;
  return it->second.evict(net_.simulator().now(),
                          config_.rpc_timeout * config_.rpc_attempts);
}

bool ChordNode::hop_failure_evicts(net::NodeAddr peer) {
  if (const auto it = detectors_.find(peer);
      it != detectors_.end() && it->second.seen()) {
    return phi_allows_evict(peer);
  }
  // Most fingers never send this node Chord traffic, so they have no
  // history, and one failed call under loss is no proof of death. Any
  // answer in between gives the peer history, so two strikes in a row are
  // consecutive failures; a born-dead peer still goes on its second.
  if (std::find(struck_.begin(), struck_.end(), peer) != struck_.end()) {
    return true;  // remove_failed's route-scan rebuild drops the strike
  }
  struck_.push_back(peer);
  return false;
}

void ChordNode::refresh_successor_tail() {
  if (successors_.size() < 2) return;
  const Peer head = successors_.front();
  const Peer backup = successors_[1];
  if (!backup.valid() || backup.addr == addr()) return;
  // A read-only pull: this node is not backup's predecessor, so the
  // request offers no notify.
  rpc_.call_retry(
      backup.addr, [] { return std::make_unique<StabilizeReq>(kNoPeer, 0); },
      config_.rpc_timeout, 1, [this, head, backup](net::MessagePtr reply) {
        if (!running_ || reply == nullptr) return;
        // Only apply if the suspected head is still in place: an eviction
        // meanwhile already rebuilt the list.
        if (successors_.empty() || !(successors_.front() == head)) return;
        const auto* resp = net::msg_cast<StabilizeResp>(reply.get());
        std::vector<Peer> tail;
        tail.reserve(resp->successors.size() + 1);
        tail.push_back(backup);
        for (const Peer& p : resp->successors) tail.push_back(p);
        adopt_successor_list(head, tail, 0);
        ++stats_.succ_refreshes;
        PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kAntiEntropyRepair,
                          addr(), static_cast<std::uint32_t>(backup.addr), 3);
      });
}

Peer ChordNode::random_peer(Rng& rng) const {
  std::vector<Peer> candidates;
  candidates.reserve(kBits + successors_.size());
  for (const Peer& f : fingers_) {
    if (f.valid() && f.addr != addr()) candidates.push_back(f);
  }
  for (const Peer& p : successors_) {
    if (p.valid() && p.addr != addr()) candidates.push_back(p);
  }
  if (candidates.empty()) return kNoPeer;
  return candidates[rng.index(candidates.size())];
}

}  // namespace pgrid::chord
