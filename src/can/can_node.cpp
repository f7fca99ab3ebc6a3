#include "can/can_node.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/batch.h"

namespace pgrid::can {

namespace {
constexpr int kMaxRouteHops = 256;

bool contains_id(const std::vector<Guid>& ids, Guid id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Greedy-routing rank of a zone set for target p: the closed-box distance,
/// then the number of dimensions where p lies on the zone's upper face.
/// Zones are half-open, so a zone whose upper face passes through p is at
/// distance 0 without owning it. A zone touching p through k upper faces
/// always has a face neighbour touching it through k - 1, so ranking by the
/// face count makes a walk on that plateau descend to the owner at (0, 0).
using HopRank = std::pair<double, std::size_t>;

HopRank hop_rank(const std::vector<Zone>& zones, const Point& p) {
  HopRank best{std::numeric_limits<double>::infinity(), 0};
  for (const Zone& z : zones) {
    std::size_t faces = 0;
    for (std::size_t d = 0; d < p.dims(); ++d) {
      if (p[d] == z.hi()[d]) ++faces;
    }
    best = std::min(best, HopRank{z.distance_to(p), faces});
  }
  return best;
}
}  // namespace

CanNode::CanNode(net::Network& network, net::NodeAddr self, Guid id,
                 Point rep_point, CanConfig config, Rng rng)
    : net_(network),
      rpc_(network, self),
      id_(id),
      rep_point_(rep_point),
      config_(config),
      rng_(rng),
      upstream_load_(config.dims, -1.0) {
  PGRID_EXPECTS(rep_point.dims() == config.dims);
}

CanNode::~CanNode() = default;

void CanNode::create() {
  running_ = true;
  joining_ = false;
  zones_.assign(1, Zone::whole(config_.dims));
  neighbors_.clear();
  note_claim_changed();
  start_maintenance();
}

void CanNode::join(Peer bootstrap, std::function<void(bool ok)> done) {
  PGRID_EXPECTS(bootstrap.valid());
  running_ = true;
  joining_ = true;
  bootstrap_ = bootstrap;
  zones_.clear();
  neighbors_.clear();
  pending_grants_.clear();
  note_claim_changed();
  // Maintenance starts immediately, not on join success: if the join fails
  // (bootstrap unreachable behind a partition), do_update keeps retrying
  // instead of leaving a permanently zoneless orphan.
  start_maintenance();

  // Phase 1: route to the owner of our representative point, driving the
  // greedy walk ourselves starting from the bootstrap node.
  auto st = std::make_shared<RouteState>();
  st->target = rep_point_;
  st->retries_left = config_.route_retries;
  st->cb = [this, done = std::move(done)](Peer owner, int /*hops*/) {
    if (!running_) return;
    if (!owner.valid()) {
      joining_ = false;
      note_lost(bootstrap_);
      if (done) done(false);
      return;
    }
    // Phase 2: ask the owner to split its zone for us.
    rpc_.call_retry(owner.addr,
              [this] {
                return std::make_unique<JoinReq>(self_peer(), rep_point_,
                                                 update_seq_);
              },
              config_.rpc_timeout, config_.rpc_attempts,
              [this, done, owner](net::MessagePtr reply) {
                if (!running_) return;
                joining_ = false;
                if (reply == nullptr) {
                  note_lost(owner);
                  if (done) done(false);
                  return;
                }
                const auto* resp = net::msg_cast<JoinResp>(reply.get());
                if (!resp->accepted) {
                  note_lost(owner);
                  if (done) done(false);
                  return;
                }
                zones_.assign(1, resp->zone);
                note_claim_changed();  // also covers the contacts below
                for (const NeighborInfo& c : resp->contacts) {
                  if (c.peer.addr == addr()) continue;
                  NeighborState ns;
                  // The owner's claims sent before it split for us are
                  // stale; replayed copies must not undo the grant.
                  if (c.peer.addr == owner.addr) ns.update_seq = resp->seq;
                  ns.id = c.peer.id;
                  ns.zones = c.zones;
                  ns.rep_point = c.rep_point;
                  ns.load = c.load;
                  ns.phi.heartbeat(net_.simulator().now());
                  neighbors_.emplace(c.peer.addr, std::move(ns));
                }
                prune_neighbors();
                broadcast_zone_update();
                if (done) done(true);
              });
  };
  route_ask(st, bootstrap);
}

void CanNode::crash() {
  running_ = false;
  joining_ = false;
  update_task_.reset();
  gap_probe_inflight_ = false;
  gap_dead_ends_.clear();
  rpc_.cancel_all();
  for (auto& [addr, timer] : takeover_timers_) {
    net_.simulator().cancel(timer);
  }
  takeover_timers_.clear();
  zones_.clear();
  neighbors_.clear();
  note_claim_changed();
  lost_.clear();
  lost_cursor_ = 0;
  pending_grants_.clear();
  std::fill(upstream_load_.begin(), upstream_load_.end(), -1.0);
}

void CanNode::install_state(std::vector<Zone> zones,
                            FlatMap<net::NodeAddr, NeighborState> neighbors) {
  PGRID_EXPECTS(!zones.empty());
  running_ = true;
  zones_ = std::move(zones);
  neighbors_ = std::move(neighbors);
  note_claim_changed();
  for (auto& [addr, ns] : neighbors_) {
    ns.phi.heartbeat(net_.simulator().now());
  }
  start_maintenance();
}

bool CanNode::owns(const Point& p) const noexcept {
  for (const Zone& z : zones_) {
    if (z.contains(p)) return true;
  }
  return false;
}

double CanNode::total_volume() const noexcept {
  double v = 0.0;
  for (const Zone& z : zones_) v += z.volume();
  return v;
}

// --- routing -----------------------------------------------------------------

void CanNode::route(Point target, RouteCallback cb) {
  PGRID_EXPECTS(cb != nullptr);
  PGRID_EXPECTS(target.dims() == config_.dims);
  auto st = std::make_shared<RouteState>();
  st->target = target;
  st->cb = std::move(cb);
  start_route(st);
}

void CanNode::start_route(const std::shared_ptr<RouteState>& st) {
  ++stats_.routes_started;
  if (!running_ || zones_.empty()) {
    ++stats_.routes_failed;
    st->cb(kNoPeer, 0);
    return;
  }
  st->retries_left = config_.route_retries;
  route_restart(st);
}

void CanNode::route_restart(const std::shared_ptr<RouteState>& st) {
  if (!running_ || zones_.empty()) {
    route_failed(st);
    return;
  }
  if (owns(st->target)) {
    route_done(st, self_peer());
    return;
  }
  const Peer next = best_next_hop(st->target, st->avoid);
  if (!next.valid()) {
    route_failed(st);
    return;
  }
  route_ask(st, next);
}

void CanNode::route_ask(const std::shared_ptr<RouteState>& st, Peer target) {
  if (st->hops >= kMaxRouteHops) {
    route_failed(st);
    return;
  }
  ++st->hops;
  auto make = [t = st->target, avoid = st->avoid]() -> net::MessagePtr {
    auto req = std::make_unique<RouteReq>(t);
    req->avoid = avoid;
    return req;
  };
  rpc_.call_retry(target.addr, std::move(make), config_.rpc_timeout,
                  config_.rpc_attempts,
                  [this, st, target](net::MessagePtr reply) {
              if (!running_) return;
              if (reply == nullptr) {
                st->timed_out = true;
                if (!contains_id(st->avoid, target.id)) {
                  st->avoid.push_back(target.id);
                }
                // Suspect the dead hop locally so maintenance reclaims it —
                // unless φ says it has been heard from too recently for the
                // silence to mean death (gray node, transient congestion).
                for (auto it = neighbors_.begin(); it != neighbors_.end();
                     ++it) {
                  if (it->second.id == target.id) {
                    const auto now = net_.simulator().now();
                    if (it->second.phi.evict(now, config_.neighbor_timeout)) {
                      schedule_takeover(it->first);
                    } else {
                      ++stats_.suspicions;
                      PGRID_TRACE_EVENT(
                          net_.trace(), obs::EventKind::kPhiSuspect, addr(),
                          it->first, 2, 0,
                          it->second.phi.phi(now, config_.neighbor_timeout));
                    }
                    break;
                  }
                }
                if (--st->retries_left > 0) {
                  route_restart(st);
                } else {
                  route_failed(st);
                }
                return;
              }
              const auto* resp = net::msg_cast<RouteResp>(reply.get());
              if (resp->done) {
                route_done(st, resp->node);
              } else if (resp->node.valid()) {
                // Mark the hop visited: equal-distance (plateau) moves are
                // permitted, so revisits must be excluded for termination.
                if (!contains_id(st->avoid, target.id)) {
                  st->avoid.push_back(target.id);
                }
                route_ask(st, resp->node);
              } else {
                route_failed(st);  // greedy dead end at the responder
              }
            });
}

void CanNode::route_done(const std::shared_ptr<RouteState>& st, Peer owner) {
  ++stats_.routes_ok;
  stats_.route_hops.add(st->hops);
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayLookup, addr(),
                    static_cast<std::uint32_t>(owner.addr), 1,
                    static_cast<std::uint64_t>(std::max(st->hops, 0)));
  st->cb(owner, st->hops);
}

void CanNode::route_failed(const std::shared_ptr<RouteState>& st) {
  ++stats_.routes_failed;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayLookup, addr(),
                    obs::kNoActor, 0,
                    static_cast<std::uint64_t>(std::max(st->hops, 0)));
  st->cb(kNoPeer, st->hops);
}

Peer CanNode::best_next_hop(const Point& p,
                            const std::vector<Guid>& avoid) const {
  // Equal-distance moves are allowed: a target point lying exactly on zone
  // boundaries produces distance plateaus, and strict-descent greedy would
  // dead-end there. The initiator records every visited hop in `avoid`, so
  // plateau walks cannot cycle and the route still terminates.
  const double mine = hop_rank(zones_, p).first;
  Peer best = kNoPeer;
  HopRank best_rank{std::numeric_limits<double>::infinity(), 0};
  for (const auto& [naddr, ns] : neighbors_) {
    if (contains_id(avoid, ns.id)) continue;
    const HopRank r = hop_rank(ns.zones, p);
    if (r.first > mine) continue;
    if (r < best_rank || (r == best_rank && best.valid() && ns.id < best.id)) {
      best = Peer{naddr, ns.id};
      best_rank = r;
    }
  }
  return best;
}

// --- message handling ----------------------------------------------------------

bool CanNode::handle(net::NodeAddr from, net::MessagePtr& msg) {
  PGRID_EXPECTS(msg != nullptr);
  if (rpc_.consume_reply(msg)) return true;
  if (!running_) {
    const auto t = msg->type();
    return t >= net::kTagCanBase && t < net::kTagCanBase + 0x100;
  }
  switch (msg->type()) {
    case kRouteReq:
      on_route(from, *net::msg_cast<RouteReq>(msg.get()));
      return true;
    case kJoinReq:
      on_join(from, *net::msg_cast<JoinReq>(msg.get()));
      return true;
    case kZoneUpdate:
      on_zone_update(from, *net::msg_cast<ZoneUpdate>(msg.get()));
      return true;
    case kDimLoadReport:
      on_dim_load(*net::msg_cast<DimLoadReport>(msg.get()));
      return true;
    case kNeighborHello:
      on_neighbor_hello(from, *net::msg_cast<NeighborHello>(msg.get()));
      return true;
    case kNeighborHint: {
      // A third party saw our claim collide with this peer's: probe it so
      // the pairwise conflict resolution can run.
      const Peer peer = net::msg_cast<NeighborHint>(msg.get())->peer;
      if (peer.addr != addr() && neighbors_.find(peer.addr) == neighbors_.end()) {
        note_lost(peer);
        send_zone_update(peer.addr);
      }
      return true;
    }
    default:
      return false;
  }
}

void CanNode::on_route(net::NodeAddr from, const RouteReq& req) {
  if (owns(req.target)) {
    rpc_.reply(from, req, std::make_unique<RouteResp>(true, self_peer()));
    return;
  }
  const Peer next = best_next_hop(req.target, req.avoid);
  rpc_.reply(from, req, std::make_unique<RouteResp>(false, next));
}

void CanNode::on_join(net::NodeAddr from, const JoinReq& req) {
  auto resp = std::make_unique<JoinResp>();
  // Find our zone containing the joiner's point.
  auto zit = std::find_if(zones_.begin(), zones_.end(), [&](const Zone& z) {
    return z.contains(req.point);
  });
  if (zit == zones_.end() || req.joiner.addr == addr()) {
    // Idempotent re-grant: if we already split for this joiner and its point
    // lies in the pending grant, the earlier JoinResp was lost in flight —
    // re-issue the same grant instead of stranding the zone.
    if (auto git = pending_grants_.find(req.joiner.addr);
        git != pending_grants_.end() && git->second.contains(req.point) &&
        req.joiner.addr != addr()) {
      if (auto jt = neighbors_.find(req.joiner.addr); jt != neighbors_.end()) {
        jt->second.update_seq = std::max(jt->second.update_seq, req.seq);
      }
      resp->accepted = true;
      resp->seq = update_seq_;
      resp->zone = git->second;
      NeighborInfo me;
      me.peer = self_peer();
      me.zones = zones_;
      me.rep_point = rep_point_;
      me.load = load_;
      resp->contacts.push_back(std::move(me));
      for (const auto& [naddr, ns] : neighbors_) {
        if (naddr == req.joiner.addr) continue;
        NeighborInfo info;
        info.peer = Peer{naddr, ns.id};
        info.zones = ns.zones;
        info.rep_point = ns.rep_point;
        info.load = ns.load;
        resp->contacts.push_back(std::move(info));
      }
      rpc_.reply(from, req, std::move(resp));
      return;
    }
    resp->accepted = false;  // we no longer own the point; joiner retries
    rpc_.reply(from, req, std::move(resp));
    return;
  }

  // Split so both parties keep their representative points where possible.
  // Across an extent of one ulp (a gap claim or a conflict carve meeting a
  // boundary computed another way) the centre can round onto the upper
  // face, outside the zone; the lower corner is always inside.
  Point keeper = zit->contains(rep_point_) ? rep_point_ : zit->center();
  if (!zit->contains(keeper)) keeper = zit->lo();
  const auto [mine, theirs] = zit->split_for(keeper, req.point);
  *zit = mine;
  note_claim_changed();  // also covers the joiner's entry added below

  resp->accepted = true;
  resp->seq = update_seq_;
  resp->zone = theirs;
  // Hand over everything the joiner needs to seed its neighbor table:
  // ourselves plus all our current neighbors.
  NeighborInfo me;
  me.peer = self_peer();
  me.zones = zones_;
  me.rep_point = rep_point_;
  me.load = load_;
  resp->contacts.push_back(std::move(me));
  for (const auto& [naddr, ns] : neighbors_) {
    NeighborInfo info;
    info.peer = Peer{naddr, ns.id};
    info.zones = ns.zones;
    info.rep_point = ns.rep_point;
    info.load = ns.load;
    resp->contacts.push_back(std::move(info));
  }
  rpc_.reply(from, req, std::move(resp));

  // Track the joiner as a neighbor immediately (its zone abuts ours by
  // construction) and tell everyone about our shrunken zone.
  NeighborState ns;
  ns.id = req.joiner.id;
  ns.zones.assign(1, theirs);
  ns.rep_point = req.point;
  ns.load = 0.0;
  // Claims the joiner sent before asking (a previous life's zones) are
  // stale: replayed copies must not make settle_grant reclaim the grant.
  ns.update_seq = req.seq;
  if (auto prev = neighbors_.find(req.joiner.addr); prev != neighbors_.end()) {
    ns.update_seq = std::max(ns.update_seq, prev->second.update_seq);
  }
  ns.phi.heartbeat(net_.simulator().now());
  neighbors_[req.joiner.addr] = std::move(ns);
  pending_grants_.insert_or_assign(req.joiner.addr, theirs);
  broadcast_zone_update();
  prune_neighbors();
}

void CanNode::on_zone_update(net::NodeAddr from, const ZoneUpdate& msg) {
  if (from == addr()) return;
  // Drop stale copies (duplicated or reordered by the fault plane): acting
  // on an out-of-date zone claim could roll our view backwards and, worse,
  // make the conflict-resolution below subtract space the sender has since
  // handed to a joiner.
  const auto known = neighbors_.find(from);
  if (known != neighbors_.end() && msg.seq <= known->second.update_seq) {
    return;
  }
  // The sender is demonstrably alive and talking. (forget_lost does not
  // touch neighbors_, so `known` stays valid.)
  forget_lost(from);

  // Steady-state fast path. A full claim at the version we stored repeats
  // the claim we hold (a lost-peer probe or suspicion re-link, say). While
  // claim_scan_current holds, every check would reproduce its empty
  // outcome, so only liveness and load are refreshed.
  if (known != neighbors_.end() &&
      known->second.claim_version == msg.claim_version() &&
      claim_scan_current(from, known->second)) {
    NeighborState& ns = known->second;
    ns.load = msg.load();
    ns.phi.heartbeat(net_.simulator().now());
    ns.update_seq = msg.seq;
    return;
  }
  check_claim(from, msg.sender(), msg.zones(), &msg);
}

bool CanNode::claim_scan_current(net::NodeAddr from,
                                 const NeighborState& ns) const {
  return ns.scan_epoch == geometry_epoch_ && takeover_timers_.empty() &&
         pending_grants_.find(from) == pending_grants_.end();
}

void CanNode::check_claim(net::NodeAddr from, Peer sender,
                          const std::vector<Zone>& zones,
                          const ZoneUpdate* update) {
  // A live claim cancels any pending takeover of the sender...
  if (auto it = takeover_timers_.find(from); it != takeover_timers_.end()) {
    net_.simulator().cancel(it->second);
    takeover_timers_.erase(it);
  }
  // ...and a claim overlapping a suspect's zones means someone (possibly
  // the sender) already took them over. Overlap, not equality: healthy
  // zones are disjoint, so any overlap implies a claim.
  for (auto it = takeover_timers_.begin(); it != takeover_timers_.end();) {
    const auto suspect = neighbors_.find(it->first);
    bool covered = false;
    if (suspect != neighbors_.end()) {
      for (const Zone& sz : suspect->second.zones) {
        for (const Zone& mz : zones) {
          if (sz.overlaps(mz)) {
            covered = true;
            break;
          }
        }
        if (covered) break;
      }
    }
    if (covered) {
      net_.simulator().cancel(it->second);
      neighbors_.erase(it->first);
      note_claim_changed();
      it = takeover_timers_.erase(it);
    } else {
      ++it;
    }
  }

  // A pending join grant is settled by the grantee's first claim: covering
  // zones confirm it, non-covering zones mean the joiner never installed it
  // (lost JoinResp, rejoined elsewhere) and we reclaim the stranded space.
  settle_grant(from, zones);

  // Double-claim resolution (takeovers on both sides of a partition, or a
  // plain takeover race): the lower GUID keeps contested space.
  const Conflict conflict = resolve_conflict(sender, zones);
  if (conflict == Conflict::kLostAll) return;  // rejoining through the winner

  // Transitive conflict discovery: if the sender's claim collides with
  // another neighbor's known zones, the two claimants may not know each
  // other (a double claim can sit between strangers after a heal).
  // Introduce them; the pairwise rule does the rest. The sender need not
  // abut us: a claim inside a neighbor's zone may abut no zone of ours.
  // Healthy zone sets are disjoint, so this sends nothing in normal
  // operation.
  bool hints_sent = false;
  for (const auto& [oaddr, other] : neighbors_) {
    if (oaddr == from) continue;
    bool collide = false;
    for (const Zone& sz : zones) {
      for (const Zone& oz : other.zones) {
        if (sz.overlaps(oz)) {
          collide = true;
          break;
        }
      }
      if (collide) break;
    }
    if (collide) {
      rpc_.send(oaddr, std::make_unique<NeighborHint>(sender));
      hints_sent = true;
    }
  }

  // Refresh or create the neighbor entry. Overlap counts as adjacency: it
  // only happens mid-conflict, and dropping the link then would stall the
  // resolution above.
  bool abuts_me = false;
  for (const Zone& mz : zones_) {
    for (const Zone& oz : zones) {
      if (mz.abuts(oz) || mz.overlaps(oz)) {
        abuts_me = true;
        break;
      }
    }
    if (abuts_me) break;
  }
  if (!abuts_me) {
    if (neighbors_.erase(from) != 0) note_claim_changed();
    return;
  }
  NeighborState* ns = nullptr;
  if (update != nullptr) {
    const auto prev = neighbors_.find(from);
    if (prev == neighbors_.end()) {
      note_claim_changed();  // a new neighbor joins our advertised set
    } else if (prev->second.zones != zones) {
      ++geometry_epoch_;  // the entry's stored zone set changes below
    }
    ns = &neighbors_[from];
    ns->id = sender.id;
    ns->zones = zones;
    ns->rep_point = update->rep_point();
    ns->load = update->load();
    ns->phi.heartbeat(net_.simulator().now());
    ns->their_neighbors = update->neighbor_addrs();
    ns->update_seq = update->seq;
    ns->claim_version = update->claim_version();
  } else {
    const auto it = neighbors_.find(from);
    if (it == neighbors_.end()) return;  // pruned above; its next hello pulls
    ns = &it->second;
  }

  // A quiet scan (no hints, no answer) of the current geometry makes the
  // next same-version claim from this sender, full or replayed, eligible
  // for the fast path (claim_scan_current). Hints and answers must keep
  // repeating while the collision stands, so they bar eligibility until
  // something changes. The epoch is read after any bumps this call did:
  // the scans above ran against that post-change state.
  ns->scan_epoch =
      hints_sent || conflict == Conflict::kAnswered ? 0 : geometry_epoch_;
}

void CanNode::settle_grant(net::NodeAddr from,
                           const std::vector<Zone>& claim) {
  auto git = pending_grants_.find(from);
  if (git == pending_grants_.end()) return;
  // The claim must contain the whole granted zone. A grantee that
  // installed the grant claims exactly it; a partial overlap is a stale
  // pre-grant snapshot (the fault plane replaying the joiner's previous
  // life, whose old zone can sit inside the larger regrant). Confirming on
  // such a claim strands the grant: nobody owns it and nobody tracks it. A
  // false *reclaim*, by contrast, self-corrects through the double-claim
  // GUID rule, so when in doubt reclaim.
  bool covers = false;
  for (const Zone& z : claim) {
    bool contains = true;
    for (std::size_t d = 0; d < config_.dims; ++d) {
      if (z.lo()[d] > git->second.lo()[d] ||
          z.hi()[d] < git->second.hi()[d]) {
        contains = false;
        break;
      }
    }
    if (contains) {
      covers = true;
      break;
    }
  }
  if (!covers) {
    // The grantee claims space elsewhere (or nothing): the granted zone is
    // owned by nobody. Take it back; if the grantee did install it after
    // all, the transient double claim resolves via the GUID rule.
    zones_.push_back(git->second);
    coalesce(zones_);
    note_claim_changed();
    pending_grants_.erase(git);
    prune_neighbors();
    broadcast_zone_update();
    return;
  }
  pending_grants_.erase(git);
}

CanNode::Conflict CanNode::resolve_conflict(Peer sender,
                                            const std::vector<Zone>& claim) {
  // Disjoint fast path: subtracting a non-overlapping zone returns its
  // input unchanged, so when no claim of theirs overlaps any zone of ours —
  // every healthy steady-state claim — the allocating subtract machinery
  // below would be an expensive no-op, and there is nothing to answer.
  bool any_overlap = false;
  for (const Zone& mine : zones_) {
    for (const Zone& w : claim) {
      if (mine.overlaps(w)) {
        any_overlap = true;
        break;
      }
    }
    if (any_overlap) break;
  }
  if (!any_overlap) return Conflict::kSettled;
  if (!(sender.id < id_)) {
    // We keep the contested space. The loser carves it out when it checks
    // our claim; send it now rather than leave the loser to wait for our
    // next full claim, which an unchanged claim never sends.
    send_zone_update(sender.addr);
    return Conflict::kAnswered;
  }
  std::vector<Zone> kept;
  bool changed = false;
  for (const Zone& mine : zones_) {
    std::vector<Zone> pieces{mine};
    for (const Zone& w : claim) {
      std::vector<Zone> next;
      for (const Zone& piece : pieces) {
        std::vector<Zone> sub = subtract(piece, w);
        next.insert(next.end(), sub.begin(), sub.end());
      }
      pieces = std::move(next);
    }
    if (pieces.size() != 1 || !(pieces.front() == mine)) changed = true;
    kept.insert(kept.end(), pieces.begin(), pieces.end());
  }
  if (!changed) return Conflict::kSettled;
  coalesce(kept);
  zones_ = std::move(kept);
  note_claim_changed();
  if (zones_.empty()) {
    // The winner covers everything we held: start over as a fresh joiner
    // through it (a clean split, no further conflict).
    join(sender, nullptr);
    return Conflict::kLostAll;
  }
  prune_neighbors();
  broadcast_zone_update();
  return Conflict::kSettled;
}

void CanNode::on_dim_load(const DimLoadReport& msg) {
  if (msg.dim < upstream_load_.size()) {
    upstream_load_[msg.dim] = msg.report;
  }
}

void CanNode::on_neighbor_hello(net::NodeAddr from, const NeighborHello& msg) {
  // A zoneless node (joining, or orphaned by the double-claim rule) is no
  // one's neighbor. Answering would keep a former neighbor's entry for it
  // fresh, so a grant made to it that it never installed could never time
  // out into that neighbor's takeover, and the granted space would stay
  // unowned.
  if (from == addr() || zones_.empty()) return;
  // A pull is always honored with a full snapshot. Requests never chain
  // (see below), so hello traffic per periodic contact stays bounded.
  if (msg.request_full()) send_zone_update(from);
  const auto it = neighbors_.find(from);
  if (it == neighbors_.end()) {
    // The sender believes we are neighbors but we hold no entry (pruned, or
    // seeded state diverged): pull its full claim so check_claim's
    // adjacency logic can decide.
    if (!msg.request_full()) {
      rpc_.send(from, std::make_unique<NeighborHello>(
                          claim_version_, update_seq_, load_,
                          NeighborHello::kRequestFull));
    }
    return;
  }
  NeighborState& ns = it->second;
  const auto now = net_.simulator().now();
  ns.load = msg.load;
  ns.phi.heartbeat(now);
  // Advance the staleness watermark: every full update the sender has
  // already emitted carries seq <= msg.seq, so any such copy that arrives
  // after this hello is a duplicate or reordering and must not be applied.
  // Without this, hello-heavy cadence starves the watermark and lets the
  // fault plane replay obsolete zone claims into conflict resolution.
  if (msg.seq > ns.update_seq) ns.update_seq = msg.seq;
  // The sender is demonstrably alive: cancel any pending takeover, exactly
  // as a full update would.
  if (auto t = takeover_timers_.find(from); t != takeover_timers_.end()) {
    net_.simulator().cancel(t->second);
    takeover_timers_.erase(t);
  }
  if (ns.claim_version != msg.claim_version) {
    // Our stored claim of the sender is stale — its full update was lost
    // or predates us. Pull a resync now.
    if (!msg.request_full()) {
      rpc_.send(from, std::make_unique<NeighborHello>(
                          claim_version_, update_seq_, load_,
                          NeighborHello::kRequestFull));
    }
  } else if (msg.replay()) {
    // The stored claim is the sender's current one: run it through every
    // check a full claim would. Conflict resolution, grant settlement and
    // hints act only when a claim is checked, so without this a standing
    // double claim that no full claim carries would never resolve.
    forget_lost(from);
    if (!claim_scan_current(from, ns)) {
      const std::vector<Zone> zones = ns.zones;  // check_claim moves entries
      check_claim(from, Peer{from, ns.id}, zones, nullptr);
    }
  }
}

// --- maintenance -----------------------------------------------------------

void CanNode::start_maintenance() {
  if (!config_.run_maintenance) return;
  if (update_task_ != nullptr) return;  // already ticking (rejoin path)
  const auto phase =
      sim::SimTime::nanos(rng_.range(0, config_.update_period.ns() - 1));
  update_task_ = std::make_unique<sim::PeriodicTask>(
      net_.simulator(), config_.update_period, [this] { do_update(); }, phase);
}

void CanNode::do_update() {
  if (zones_.empty()) {
    // Orphan: the join failed (bootstrap behind a partition) or every zone
    // was relinquished to a lower-GUID claimant. Keep retrying entry
    // through the last bootstrap or a recently lost peer.
    if (!joining_) {
      Peer target = bootstrap_;
      if (!lost_.empty()) target = lost_[lost_cursor_++ % lost_.size()];
      if (target.valid()) join(target, nullptr);
    }
    return;
  }
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayMaintain, addr(),
                    obs::kNoActor, 4, 0,
                    static_cast<double>(neighbors_.size()));
  // One batch scope for the whole round: everything below addressed to the
  // same neighbor — snapshot or hello plus its dim-load reports — leaves as
  // a single wire message, and the replies coalesce symmetrically.
  const net::BatchScope batch(net_, addr());

  // Per-dimension load reports: our load blended with the report heard
  // from above, pushed to every neighbor strictly below us.
  std::array<double, kMaxDims> report{};
  for (std::size_t d = 0; d < config_.dims; ++d) {
    const double above = upstream_load_[d];
    report[d] = above < 0.0 ? load_
                            : config_.push_alpha * load_ +
                                  (1.0 - config_.push_alpha) * above;
  }

  // Every neighbor is contacted every round: CAN-push matches on the
  // dim-load reports riding these contacts, and a sparser cadence measured
  // far longer CAN-push waits (DESIGN.md §16). A full claim goes only to a
  // neighbor that does not hold our current version; every
  // kFullRefreshContacts-th hello asks for a replay of the stored one.
  std::shared_ptr<const ZoneUpdate::Snapshot> snap;  // built on first use
  for (auto& [naddr, ns] : neighbors_) {
    if (ns.full_sent_version != claim_version_) {
      if (snap == nullptr) snap = make_zone_snapshot();
      send_zone_update(naddr, snap);  // resets the bookkeeping fields
    } else {
      const bool replay = ++ns.contacts_since_check >= kFullRefreshContacts;
      if (replay) ns.contacts_since_check = 0;
      rpc_.send(naddr, std::make_unique<NeighborHello>(
                           claim_version_, update_seq_, load_,
                           replay ? NeighborHello::kReplay : 0));
    }
    // This neighbor's dim-load reports ride the same envelope. "Below
    // along d": some zone of theirs abuts some zone of ours with their high
    // face touching our low face in dimension d.
    for (std::size_t d = 0; d < config_.dims; ++d) {
      bool below = false;
      for (const Zone& mz : zones_) {
        for (const Zone& oz : ns.zones) {
          if (oz.hi()[d] == mz.lo()[d] && mz.abuts(oz)) {
            below = true;
            break;
          }
        }
        if (below) break;
      }
      if (below) {
        rpc_.send(naddr, std::make_unique<DimLoadReport>(
                             static_cast<std::uint32_t>(d), report[d]));
      }
    }
  }

  // Probe one lost peer per round: if it is alive (healed partition,
  // restarted node) the zone exchange re-links the tables and any double
  // claim resolves via resolve_conflict.
  if (!lost_.empty()) {
    send_zone_update(lost_[lost_cursor_++ % lost_.size()].addr);
  }

  // Dangling-grant backstop: a pending grant is normally settled (or
  // reclaimed) by the grantee's first ZoneUpdate, and a silent grantee is
  // handled by takeover — but only while its neighbor entry exists. If a
  // stale claim got the entry dropped as non-adjacent while the grant was
  // still pending, nobody owns or tracks the granted space. Reclaim it; a
  // grantee that did install it resurfaces as a double claim and the GUID
  // rule settles ownership.
  bool reclaimed = false;
  for (auto it = pending_grants_.begin(); it != pending_grants_.end();) {
    if (neighbors_.find(it->first) == neighbors_.end()) {
      zones_.push_back(it->second);
      it = pending_grants_.erase(it);
      reclaimed = true;
    } else {
      ++it;
    }
  }
  if (reclaimed) {
    coalesce(zones_);
    note_claim_changed();
    prune_neighbors();
    broadcast_zone_update();
  }

  // Failure detection: schedule takeover for stale neighbors, judged
  // against each neighbor's learned update cadence. Suspect-level silence
  // only re-sends our claim (re-links tables that went asymmetric) instead
  // of arming the takeover timer.
  const auto now = net_.simulator().now();
  for (const auto& [naddr, ns] : neighbors_) {
    if (ns.phi.evict(now, config_.neighbor_timeout)) {
      schedule_takeover(naddr);
    } else if (ns.phi.suspect(now, config_.neighbor_timeout) &&
               takeover_timers_.find(naddr) == takeover_timers_.end()) {
      ++stats_.suspicions;
      PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kPhiSuspect, addr(),
                        naddr, 2, 0, ns.phi.phi(now, config_.neighbor_timeout));
      send_zone_update(naddr);
    }
  }

  do_gap_audit();
}

void CanNode::forget_lost(net::NodeAddr peer) {
  lost_.erase(std::remove_if(lost_.begin(), lost_.end(),
                             [peer](const Peer& p) { return p.addr == peer; }),
              lost_.end());
}

void CanNode::note_lost(Peer peer) {
  if (!peer.valid() || peer.addr == addr()) return;
  for (const Peer& p : lost_) {
    if (p.addr == peer.addr) return;
  }
  if (lost_.size() >= kLostCap) lost_.erase(lost_.begin());
  lost_.push_back(peer);
}

std::shared_ptr<const ZoneUpdate::Snapshot> CanNode::make_zone_snapshot()
    const {
  auto snap = std::make_shared<ZoneUpdate::Snapshot>();
  snap->sender = self_peer();
  snap->zones = zones_;
  snap->claim_version = claim_version_;
  snap->rep_point = rep_point_;
  snap->load = load_;
  snap->neighbor_addrs.reserve(neighbors_.size());
  for (const auto& [naddr, ns] : neighbors_) {
    snap->neighbor_addrs.push_back(naddr);
  }
  return snap;
}

void CanNode::send_zone_update(net::NodeAddr to) {
  send_zone_update(to, make_zone_snapshot());
}

void CanNode::send_zone_update(
    net::NodeAddr to, std::shared_ptr<const ZoneUpdate::Snapshot> snap) {
  // Any full send — periodic, broadcast, suspicion re-link, answer —
  // marks the receiver as holding this claim version, so the next round's
  // contact can downgrade to a hello.
  if (auto it = neighbors_.find(to); it != neighbors_.end()) {
    it->second.full_sent_version = snap->claim_version;
    it->second.contacts_since_check = 0;
  }
  auto msg = std::make_unique<ZoneUpdate>(std::move(snap));
  msg->seq = ++update_seq_;
  rpc_.send(to, std::move(msg));
}

void CanNode::broadcast_zone_update(const std::vector<net::NodeAddr>& extra) {
  if (neighbors_.empty() && extra.empty()) return;
  // One snapshot per broadcast: nothing below mutates zones_ or neighbors_,
  // so every recipient sees exactly what per-send snapshotting produced,
  // minus degree-1 redundant vector builds.
  const auto snap = make_zone_snapshot();
  for (const auto& [naddr, ns] : neighbors_) send_zone_update(naddr, snap);
  for (net::NodeAddr a : extra) {
    if (neighbors_.find(a) == neighbors_.end() && a != addr()) {
      send_zone_update(a, snap);
    }
  }
}

void CanNode::prune_neighbors() {
  for (auto it = neighbors_.begin(); it != neighbors_.end();) {
    bool abuts_me = false;
    for (const Zone& mz : zones_) {
      for (const Zone& oz : it->second.zones) {
        if (mz.abuts(oz)) {
          abuts_me = true;
          break;
        }
      }
      if (abuts_me) break;
    }
    if (abuts_me) {
      ++it;
    } else {
      it = neighbors_.erase(it);
      note_claim_changed();
    }
  }
}

void CanNode::schedule_takeover(net::NodeAddr dead) {
  if (takeover_timers_.find(dead) != takeover_timers_.end()) return;
  if (neighbors_.find(dead) == neighbors_.end()) return;
  // Smaller claimants fire first; a deterministic GUID-derived stagger
  // separates near-equal volumes by much more than one network latency,
  // so the winner's announcement cancels the others' timers in time.
  const double share = std::min(1.0, total_volume());
  const auto stagger = static_cast<std::int64_t>(id_.value() % 1024) *
                       sim::SimTime::millis(2).ns();
  const auto delay = sim::SimTime::nanos(
      config_.takeover_base_delay.ns() +
      static_cast<std::int64_t>(share *
                                static_cast<double>(
                                    config_.takeover_base_delay.ns()) * 4.0) +
      stagger);
  takeover_timers_[dead] =
      net_.simulator().schedule_in(delay, [this, dead] {
        takeover_timers_.erase(dead);
        execute_takeover(dead);
      });
}

void CanNode::execute_takeover(net::NodeAddr dead) {
  auto it = neighbors_.find(dead);
  if (it == neighbors_.end() || !running_) return;
  // Claim the dead node's zones and announce to everyone either of us knew.
  // Claimed zones stay as distinct zone objects (no merging): claims are
  // then always whole-zone, which keeps the double-claim conflict
  // resolution in on_zone_update a simple equality test. (Classic CAN
  // likewise defers zone coalescing to a background reassignment.)
  std::vector<net::NodeAddr> to_notify = it->second.their_neighbors;
  for (const Zone& z : it->second.zones) zones_.push_back(z);
  note_claim_changed();  // also covers the erase below
  note_lost(Peer{dead, it->second.id});
  neighbors_.erase(it);
  pending_grants_.erase(dead);  // its zone view included any grant
  ++stats_.takeovers;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOverlayRepair, addr(),
                    dead, 2, 0, static_cast<double>(zones_.size()));
  prune_neighbors();
  broadcast_zone_update(to_notify);
}

// --- tiling gap check --------------------------------------------------------

bool CanNode::point_known_covered(const Point& p) const noexcept {
  for (const Zone& z : zones_) {
    if (z.contains(p)) return true;
  }
  for (const auto& [naddr, ns] : neighbors_) {
    for (const Zone& z : ns.zones) {
      if (z.contains(p)) return true;
    }
  }
  return false;
}

void CanNode::do_gap_audit() {
  if (!running_ || zones_.empty() || gap_probe_inflight_) return;
  if (gap_clear_epoch_ == geometry_epoch_) return;  // nothing moved: clear
  if (gap_futile_epoch_ != geometry_epoch_) gap_futile_.clear();
  // Probe the first face of our zones whose far side no known zone covers.
  // A correlated crash of a whole region leaves interior zones owned by
  // nobody: the survivors on the region's rim only ever knew (and took
  // over) the outermost dead layer, so the hole beyond their new frontier
  // is invisible to the timeout/takeover machinery. Routing towards the
  // uncovered point settles it: an owner means the tables merely went
  // asymmetric (re-link them); a greedy dead end with every hop answering
  // means a genuine hole (claim it; see local_dead_end_settled for a dead
  // end in our own table). A silent hop settles nothing: the owner may be
  // alive behind it, so the face is probed again next round. A whole
  // tiling sends nothing.
  constexpr double kEps = 1e-9;
  for (const Zone& z : zones_) {
    for (std::size_t d = 0; d < z.dims(); ++d) {
      for (const bool hi_side : {false, true}) {
        const double face = hi_side ? z.hi()[d] : z.lo()[d];
        if (hi_side ? face >= 1.0 : face <= 0.0) continue;  // space boundary
        Point probe = z.center();
        probe[d] = hi_side ? face : face - kEps;
        if (point_known_covered(probe)) {
          std::erase_if(gap_dead_ends_,
                        [&probe](const auto& e) { return e.first == probe; });
          continue;
        }
        if (std::find(gap_futile_.begin(), gap_futile_.end(), probe) !=
            gap_futile_.end()) {
          continue;
        }
        gap_probe_inflight_ = true;
        auto st = std::make_shared<RouteState>();
        st->target = probe;
        // st owns the callback and outlives every call of it, so the
        // callback may read st's timeout flag through a plain pointer.
        st->cb = [this, z, d, hi_side, probe, state = st.get()](
                     Peer owner, int hops) {
          gap_probe_inflight_ = false;
          if (!running_ || zones_.empty()) return;
          if (owner.valid() && owner.addr != addr()) {
            // Someone does own the space; we just lost track of them.
            // Exchange claims so the neighbor tables re-link.
            note_lost(owner);
            send_zone_update(owner.addr);
            return;
          }
          if (owner.valid()) return;  // resolved to us: closed meanwhile
          if (point_known_covered(probe)) return;  // likewise
          if (state->timed_out) return;  // no verdict: probe again later
          if (hops == 0 && !local_dead_end_settled(probe)) return;
          claim_gap(z, d, hi_side);
          if (point_known_covered(probe)) return;
          // Nothing claimable covers the probe (the claim's pieces fell
          // short of it by an ulp, say): skip this face until the geometry
          // moves, so the scan reaches the faces behind it.
          if (gap_futile_epoch_ != geometry_epoch_) {
            gap_futile_.clear();
            gap_futile_epoch_ = geometry_epoch_;
          }
          gap_futile_.push_back(probe);
        };
        start_route(st);
        return;  // one probe per round keeps claims serialized
      }
    }
  }
  gap_clear_epoch_ = geometry_epoch_;
  gap_dead_ends_.clear();
}

bool CanNode::local_dead_end_settled(const Point& probe) {
  // A dead end found in our own table, with no hop asked, may only mean the
  // table is stale: the owner died moments ago and a neighbor's takeover of
  // its whole zone is due, or a zone update was lost. Such a face is
  // claimed only once it has stayed a dead end past the takeover deadline.
  // Claiming sooner lets a mirror bite race the takeover, and the double
  // claim's carve fragments both zone sets.
  const sim::SimTime now = net_.simulator().now();
  for (auto it = gap_dead_ends_.begin(); it != gap_dead_ends_.end(); ++it) {
    if (!(it->first == probe)) continue;
    if (now - it->second <
        config_.neighbor_timeout + config_.takeover_base_delay) {
      return false;
    }
    gap_dead_ends_.erase(it);
    return true;
  }
  gap_dead_ends_.emplace_back(probe, now);
  return false;
}

void CanNode::claim_gap(const Zone& z, std::size_t d, bool hi_side) {
  // The hole's true extent is unknown (its owners are dead and gone), so
  // claim the mirror of our own zone across the shared face — a bounded,
  // deterministic bite — minus every zone we know to be owned. Later
  // update rounds grow the claim until the tiling closes; if the bite
  // overlaps a live stranger's zone after all, the GUID-ordered conflict
  // rule in on_zone_update resolves the double claim on first contact.
  Point lo = z.lo();
  Point hi = z.hi();
  if (hi_side) {
    lo[d] = z.hi()[d];
    hi[d] = std::min(1.0, z.hi()[d] + z.extent(d));
  } else {
    hi[d] = z.lo()[d];
    lo[d] = std::max(0.0, z.lo()[d] - z.extent(d));
  }
  if (!(lo[d] < hi[d])) return;
  std::vector<Zone> pieces{Zone(lo, hi)};
  auto carve = [&pieces](const Zone& owned) {
    std::vector<Zone> next;
    for (const Zone& piece : pieces) {
      std::vector<Zone> sub = subtract(piece, owned);
      next.insert(next.end(), sub.begin(), sub.end());
    }
    pieces = std::move(next);
  };
  for (const Zone& mine : zones_) carve(mine);
  for (const auto& [naddr, ns] : neighbors_) {
    for (const Zone& theirs : ns.zones) carve(theirs);
  }
  if (pieces.empty()) return;
  for (const Zone& piece : pieces) zones_.push_back(piece);
  coalesce(zones_);
  note_claim_changed();
  ++stats_.gap_repairs;
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kAntiEntropyRepair, addr(),
                    obs::kNoActor, 2, 0, static_cast<double>(zones_.size()));
  prune_neighbors();
  broadcast_zone_update();
}

}  // namespace pgrid::can
