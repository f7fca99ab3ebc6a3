#include "grid/grid_node.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "grid/central_scheduler.h"
#include "net/batch.h"

namespace pgrid::grid {

const char* matchmaker_name(MatchmakerKind kind) noexcept {
  switch (kind) {
    case MatchmakerKind::kCentralized: return "centralized";
    case MatchmakerKind::kRandom: return "random";
    case MatchmakerKind::kRnTree: return "rn-tree";
    case MatchmakerKind::kCanBasic: return "can";
    case MatchmakerKind::kCanPush: return "can-push";
    case MatchmakerKind::kTtlWalk: return "ttl-walk";
  }
  return "?";
}

GridNode::GridNode(net::Network& network, std::uint32_t index, Guid id,
                   ResourceVector caps, double virtual_coord,
                   GridNodeConfig config, CentralScheduler* central,
                   metrics::Collector* collector,
                   const std::vector<double>* down_since, Rng rng)
    : net_(network),
      rpc_(network, network.add_handler(this)),
      index_(index),
      id_(id),
      caps_(caps),
      config_(config),
      central_(central),
      collector_(collector),
      down_since_(down_since),
      rng_(rng) {
  PGRID_EXPECTS(collector_ != nullptr);
  PGRID_EXPECTS(down_since_ != nullptr);
  if (uses_chord(config_.kind)) {
    chord_ = std::make_unique<chord::ChordNode>(net_, addr(), id_,
                                                config_.chord, rng_.fork(1));
    if (config_.kind == MatchmakerKind::kRnTree) {
      rn_ = std::make_unique<rntree::RnTreeService>(
          net_, *chord_, config_.rntree,
          [this] {
            return rntree::RnTreeService::LocalInfo{to_rn_caps(caps_),
                                                    queue_length()};
          },
          rng_.fork(2));
    }
  } else if (uses_can(config_.kind)) {
    can::CanConfig can_config = config_.can;
    can_config.dims = kCanDims;
    can_ = std::make_unique<can::CanNode>(net_, addr(), id_,
                                          to_can_point(caps_, virtual_coord),
                                          can_config, rng_.fork(3));
  } else {
    PGRID_EXPECTS(central_ != nullptr);
  }
}

GridNode::~GridNode() = default;

void GridNode::start() {
  running_ = true;
  const auto phase = [&](sim::SimTime period) {
    return sim::SimTime::nanos(rng_.range(0, period.ns() - 1));
  };
  heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
      net_.simulator(), config_.heartbeat_period, [this] { do_heartbeats(); },
      phase(config_.heartbeat_period));
  owner_monitor_task_ = std::make_unique<sim::PeriodicTask>(
      net_.simulator(), config_.heartbeat_period,
      [this] { monitor_owned_jobs(); }, phase(config_.heartbeat_period));
  if (rn_) rn_->start();
  update_load_gauge();
}

void GridNode::crash() {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kNodeCrash, addr(),
                    obs::kNoActor, 0, 0, queue_length());
  running_ = false;
  heartbeat_task_.reset();
  owner_monitor_task_.reset();
  net_.simulator().cancel(completion_event_);
  completion_event_ = sim::kInvalidEvent;
  executing_ = false;
  queue_.clear();
  owned_.clear();
  for (auto& [id, walk] : pending_walks_) {
    net_.simulator().cancel(walk.timeout_event);
  }
  pending_walks_.clear();
  rpc_.cancel_all();
  if (rn_) rn_->stop();
  if (chord_) chord_->crash();
  if (can_) can_->crash();
}

void GridNode::restart(Peer bootstrap) {
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kNodeRestart, addr(),
                    bootstrap.valid() ? static_cast<std::uint32_t>(bootstrap.addr)
                                      : obs::kNoActor);
  if (chord_) {
    if (bootstrap.valid()) {
      chord_->join(bootstrap, nullptr);
    } else {
      chord_->create();
    }
  }
  if (can_) {
    if (bootstrap.valid()) {
      can_->join(bootstrap, nullptr);
    } else {
      can_->create();
    }
  }
  start();
}

double GridNode::queue_length() const noexcept {
  return static_cast<double>(queue_.size());
}

double GridNode::queue_work_remaining() const {
  double work = 0.0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (i == 0 && executing_) {
      work += std::max(0.0, executing_end_sec_ - net_.simulator().now().sec());
    } else {
      work += queue_[i].profile.runtime_sec();
    }
  }
  return work;
}

void GridNode::update_load_gauge() {
  if (can_) can_->set_load(queue_length());
}

// --- message dispatch --------------------------------------------------------

void GridNode::on_message(net::NodeAddr from, net::MessagePtr msg) {
  if (chord_ && chord_->handle(from, msg)) return;
  if (rn_ && rn_->handle(from, msg)) return;
  if (can_ && can_->handle(from, msg)) return;
  if (rpc_.consume_reply(msg)) return;
  if (!running_) return;
  switch (msg->type()) {
    case kSubmitJob:
      on_submit(from, msg);
      return;
    case kJobToOwner: {
      const auto* m = net::msg_cast<JobToOwner>(msg.get());
      rpc_.reply(from, *m, std::make_unique<JobToOwnerAck>());
      handle_job_to_owner(m->profile, m->walk_remaining, m->push_remaining,
                          m->forward_remaining, m->hops);
      return;
    }
    case kDispatchJob:
      on_dispatch(from, msg);
      return;
    case kHeartbeat:
      on_heartbeat(from, msg);
      return;
    case kJobDone:
      on_job_done(*net::msg_cast<JobDone>(msg.get()));
      return;
    case kOwnerHandoff:
      on_owner_handoff(from, msg);
      return;
    case kWalkProbe:
      on_walk_probe(msg);
      return;
    case kWalkResult:
      on_walk_result(*net::msg_cast<WalkResult>(msg.get()));
      return;
    default:
      return;  // results go to clients; anything else is stale traffic
  }
}

// --- injection ---------------------------------------------------------------

void GridNode::on_submit(net::NodeAddr from, net::MessagePtr& msg) {
  const auto* m = net::msg_cast<SubmitJob>(msg.get());
  rpc_.reply(from, *m, std::make_unique<SubmitAck>());
  inject(m->profile);
}

void GridNode::inject(const JobProfile& profile) {
  switch (config_.kind) {
    case MatchmakerKind::kCentralized:
    case MatchmakerKind::kRandom:
      // No overlay: the injection node owns the job directly.
      handle_job_to_owner(profile, 0, 0, 0, 0);
      return;
    case MatchmakerKind::kTtlWalk:
      // TTL schemes have no DHT job mapping: the injection node owns the
      // job and probes from there.
      handle_job_to_owner(profile, 0, 0, 0, 0);
      return;
    case MatchmakerKind::kRnTree:
      chord_->lookup(profile.guid, [this, profile](Peer owner, int hops) {
        if (!running_ || !owner.valid()) return;  // client resubmit recovers
        const auto h = static_cast<std::uint32_t>(std::max(hops, 0));
        if (owner.addr == addr()) {
          handle_job_to_owner(profile, config_.rn_walk_len, 0, 0, h);
        } else {
          forward_to_owner(owner, profile, config_.rn_walk_len, 0, 0, h);
        }
      });
      return;
    case MatchmakerKind::kCanBasic:
    case MatchmakerKind::kCanPush: {
      const std::uint32_t push =
          config_.kind == MatchmakerKind::kCanPush ? config_.can_max_push : 0;
      can_->route(profile.can_coords(),
                  [this, profile, push](Peer owner, int hops) {
                    if (!running_ || !owner.valid()) return;
                    const auto h =
                        static_cast<std::uint32_t>(std::max(hops, 0));
                    if (owner.addr == addr()) {
                      handle_job_to_owner(profile, 0, push,
                                          config_.can_forward_budget, h);
                    } else {
                      forward_to_owner(owner, profile, 0, push,
                                       config_.can_forward_budget, h);
                    }
                  });
      return;
    }
  }
}

void GridNode::forward_to_owner(Peer next, const JobProfile& profile,
                                std::uint32_t walk, std::uint32_t push,
                                std::uint32_t forward, std::uint32_t hops) {
  auto msg = std::make_unique<JobToOwner>(profile);
  msg->walk_remaining = walk;
  msg->push_remaining = push;
  msg->forward_remaining = forward;
  msg->hops = hops;
  rpc_.call(next.addr, std::move(msg), config_.rpc_timeout,
            [this, profile](net::MessagePtr reply) {
              if (reply != nullptr || !running_) return;
              // The next owner died with the job in flight: re-inject from
              // scratch (a fresh overlay lookup routes around the corpse).
              inject(profile);
            });
}

void GridNode::handle_job_to_owner(const JobProfile& profile,
                                   std::uint32_t walk, std::uint32_t push,
                                   std::uint32_t forward, std::uint32_t hops) {
  // RN-Tree: limited random walk spreads ownership (§3.1).
  if (walk > 0 && chord_) {
    const Peer next = chord_->random_peer(rng_);
    if (next.valid()) {
      forward_to_owner(next, profile, walk - 1, push, forward, hops + 1);
      return;
    }
  }
  // CAN-push: relocate the job toward underloaded / more capable regions
  // before matchmaking (§3.3 "improved").
  if (push > 0 && can_) {
    std::size_t dim = 0;
    const Peer target = can_push_target(&dim);
    if (target.valid()) {
      ++stats_.can_pushes;
      forward_to_owner(target, profile, walk, push - 1, forward, hops + 1);
      return;
    }
  }
  // CAN basic: if no local candidate can run the job, move toward more
  // capable coordinates (§3.2 "meet or exceed the job's requirements").
  if (can_ && forward > 0 && can_candidates(profile).empty()) {
    const Peer target = can_upward_target(profile);
    if (target.valid()) {
      ++stats_.can_forwards;
      forward_to_owner(target, profile, walk, push, forward - 1, hops + 1);
      return;
    }
  }
  become_owner(profile, hops, forward);
}

std::vector<std::uint64_t> GridNode::owned_seqs() const {
  std::vector<std::uint64_t> out;
  out.reserve(owned_.size());
  for (const auto& [guid, od] : owned_) out.push_back(od.profile.seq);
  return out;
}

std::vector<std::uint64_t> GridNode::queued_seqs() const {
  std::vector<std::uint64_t> out;
  out.reserve(queue_.size());
  for (const QueuedJob& q : queue_) out.push_back(q.profile.seq);
  return out;
}

std::vector<Peer> GridNode::queued_owners() const {
  std::vector<Peer> out;
  out.reserve(queue_.size());
  for (const QueuedJob& q : queue_) out.push_back(q.owner);
  return out;
}

// --- CAN matchmaking helpers ---------------------------------------------------

std::vector<std::pair<Peer, double>> GridNode::can_candidates(
    const JobProfile& profile) const {
  std::vector<std::pair<Peer, double>> out;
  if (!can_) return out;
  const can::Point& mine = can_->rep_point();
  if (can_point_satisfies(mine, profile.can_coords(), profile.constraints())) {
    out.emplace_back(self_peer(), queue_length());
  }
  for (const auto& [naddr, ns] : can_->neighbors()) {
    if (ns.rep_point.dims() != mine.dims()) continue;  // not yet refreshed
    // §3.2: candidates are "at least as capable as the original owner in
    // all dimensions". We admit *equally* capable neighbors too (split
    // along the virtual dimension): the virtual dimension exists precisely
    // so clusters of identical machines share load, which requires them to
    // be candidates for each other's jobs.
    if (!ns.rep_point.dominates(mine, kNumResources)) continue;
    if (!can_point_satisfies(ns.rep_point, profile.can_coords(),
                             profile.constraints())) {
      continue;
    }
    out.emplace_back(Peer{naddr, ns.id}, ns.load);
  }
  return out;
}

Peer GridNode::can_up_neighbor_in_dim(std::size_t dim) const {
  Peer best = kNoPeer;
  double best_load = std::numeric_limits<double>::infinity();
  for (const auto& [naddr, ns] : can_->neighbors()) {
    bool above = false;
    for (const can::Zone& mz : can_->zones()) {
      for (const can::Zone& oz : ns.zones) {
        if (oz.lo()[dim] == mz.hi()[dim] && mz.abuts(oz)) {
          above = true;
          break;
        }
      }
      if (above) break;
    }
    if (!above) continue;
    if (!best.valid() || ns.load < best_load ||
        (ns.load == best_load && ns.id < best.id)) {
      best = Peer{naddr, ns.id};
      best_load = ns.load;
    }
  }
  return best;
}

Peer GridNode::can_push_target(std::size_t* out_dim) {
  if (!can_) return kNoPeer;
  const double mine = queue_length();
  std::size_t best_dim = kNumResources;
  double best_up = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < kNumResources; ++d) {
    const double up = can_->upstream_load(d);
    if (up >= 0.0 && up < best_up) {
      best_up = up;
      best_dim = d;
    }
  }
  if (best_dim == kNumResources) return kNoPeer;
  const bool overloaded_push =
      mine >= config_.can_push_threshold && best_up < mine - 1.0;
  const bool light_push = mine <= config_.can_light_load &&
                          best_up <= config_.can_light_load &&
                          rng_.bernoulli(0.5);
  if (!overloaded_push && !light_push) return kNoPeer;
  const Peer target = can_up_neighbor_in_dim(best_dim);
  if (target.valid() && out_dim != nullptr) *out_dim = best_dim;
  return target;
}

Peer GridNode::can_upward_target(const JobProfile& profile) const {
  // Score = number of constrained resources whose requirement the node's
  // coordinates meet; move to a strictly better neighbor (least loaded).
  const auto score = [&](const can::Point& p) {
    std::size_t s = 0;
    for (std::size_t r = 0; r < kNumResources; ++r) {
      if (!profile.constraints().active[r] || p[r] >= profile.can_coords()[r]) {
        ++s;
      }
    }
    return s;
  };
  const std::size_t self_score = score(can_->rep_point());
  Peer best = kNoPeer;
  std::size_t best_score = self_score;
  double best_load = std::numeric_limits<double>::infinity();
  for (const auto& [naddr, ns] : can_->neighbors()) {
    if (ns.rep_point.dims() != can_->rep_point().dims()) continue;
    const std::size_t s = score(ns.rep_point);
    if (s > best_score ||
        (s == best_score && s > self_score && ns.load < best_load)) {
      best = Peer{naddr, ns.id};
      best_score = s;
      best_load = ns.load;
    }
  }
  return best;
}

// --- TTL-walk baseline (§4) -----------------------------------------------------

void GridNode::start_walk(const JobProfile& profile,
                          std::function<void(Peer, int)> cb) {
  // The walk begins at the owner itself.
  if (profile.constraints().satisfied_by(caps_)) {
    cb(self_peer(), 0);
    return;
  }
  ++stats_.walks_started;
  const Peer first = chord_->random_peer(rng_);
  if (!first.valid()) {
    ++stats_.walks_failed;
    cb(kNoPeer, 0);
    return;
  }
  const std::uint64_t id = next_probe_id_++;
  PendingWalk pending;
  pending.cb = std::move(cb);
  pending.timeout_event =
      net_.simulator().schedule_in(config_.walk_timeout, [this, id] {
        auto it = pending_walks_.find(id);
        if (it == pending_walks_.end()) return;
        auto callback = std::move(it->second.cb);
        pending_walks_.erase(it);
        ++stats_.walks_failed;
        callback(kNoPeer, static_cast<int>(config_.ttl_walk_ttl));
      });
  pending_walks_.emplace(id, std::move(pending));
  rpc_.send(first.addr,
            std::make_unique<WalkProbe>(id, self_peer(), profile.constraints(),
                                        config_.ttl_walk_ttl));
}

void GridNode::on_walk_probe(net::MessagePtr& msg) {
  auto* m = net::msg_cast<WalkProbe>(msg.get());
  ++m->hops;
  if (m->constraints.satisfied_by(caps_)) {
    rpc_.send(m->initiator.addr,
              std::make_unique<WalkResult>(m->probe_id, true, self_peer(),
                                           queue_length(), m->hops));
    return;
  }
  if (m->ttl == 0 || !chord_) {
    // This is exactly the weakness the paper notes for TTL schemes: the
    // walk gives up even though a capable node may exist elsewhere.
    rpc_.send(m->initiator.addr,
              std::make_unique<WalkResult>(m->probe_id, false, kNoPeer, 0.0,
                                           m->hops));
    return;
  }
  const Peer next = chord_->random_peer(rng_);
  if (!next.valid()) {
    rpc_.send(m->initiator.addr,
              std::make_unique<WalkResult>(m->probe_id, false, kNoPeer, 0.0,
                                           m->hops));
    return;
  }
  auto fwd = std::make_unique<WalkProbe>(m->probe_id, m->initiator,
                                         m->constraints, m->ttl - 1);
  fwd->hops = m->hops;
  rpc_.send(next.addr, std::move(fwd));
}

void GridNode::on_walk_result(const WalkResult& msg) {
  auto it = pending_walks_.find(msg.probe_id);
  if (it == pending_walks_.end()) return;  // timed out already
  auto callback = std::move(it->second.cb);
  net_.simulator().cancel(it->second.timeout_event);
  pending_walks_.erase(it);
  if (!msg.found) ++stats_.walks_failed;
  callback(msg.found ? msg.node : kNoPeer, static_cast<int>(msg.hops));
}

// --- owner side ----------------------------------------------------------------

void GridNode::become_owner(const JobProfile& profile, std::uint32_t hops,
                            std::uint32_t forward_budget) {
  if (owned_.find(profile.guid) != owned_.end()) return;  // duplicate
  // CAN maps every generation of a job into the same constraint region (a
  // resubmission redraws only the virtual coordinate), so one owner often
  // receives several. A later one adds nothing there: the live record is
  // monitored and re-dispatched if its run node dies, so the job is
  // waiting, not lost, and dispatching the copy would only queue a second
  // execution of it on the same few candidates. Ring GUIDs scatter
  // generations over unrelated owners, so the Chord kinds rarely gather them.
  if (can_ != nullptr) {
    for (const auto& [guid, owned] : owned_) {
      if (owned.profile.seq == profile.seq &&
          owned.profile.client == profile.client) {
        return;
      }
    }
  }
  OwnedJob od;
  od.profile = profile;
  od.forward_budget = forward_budget;
  owned_.emplace(profile.guid, std::move(od));
  collector_->on_owner(profile.seq, net_.simulator().now(),
                       static_cast<int>(hops));
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobOwner, addr(),
                    obs::kNoActor, static_cast<std::uint16_t>(hops),
                    profile.seq, static_cast<double>(owned_.size()));
  match_and_dispatch(profile.guid);
}

void GridNode::match_and_dispatch(Guid guid) {
  auto it = owned_.find(guid);
  if (it == owned_.end() || it->second.dispatched) return;
  OwnedJob& od = it->second;
  if (++od.attempts > config_.match_max_attempts) {
    collector_->on_unmatched(od.profile.seq);
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobUnmatched, addr(),
                      obs::kNoActor,
                      static_cast<std::uint16_t>(od.attempts),
                      od.profile.seq);
    // Tell the client so it can resubmit straight away (new GUID lands the
    // job elsewhere) instead of waiting out its deadline timer.
    rpc_.send(od.profile.client,
              std::make_unique<JobFailed>(od.profile.seq,
                                          od.profile.generation));
    owned_.erase(it);
    return;
  }
  matchmake(od.profile, [this, guid](Peer run, int hops) {
    auto jt = owned_.find(guid);
    if (!running_ || jt == owned_.end() || jt->second.dispatched) return;
    if (run.valid()) {
      dispatch(guid, run, hops);
      return;
    }
    // No candidate here. In CAN mode, move ownership toward more capable
    // coordinates (the remaining forward budget bounds the walk)...
    OwnedJob& job = jt->second;
    if (uses_can(config_.kind) && job.forward_budget > 0) {
      const Peer target = can_upward_target(job.profile);
      if (target.valid()) {
        ++stats_.can_forwards;
        const JobProfile profile = job.profile;
        const std::uint32_t budget = job.forward_budget - 1;
        owned_.erase(jt);
        forward_to_owner(target, profile, 0, 0, budget, 0);
        return;
      }
      // The neighbor-by-neighbor dominance walk dead-ended (a capability
      // "valley": no single neighbor is better in every failing resource).
      // Escalate by sampling a random point of the job's *feasible
      // orthant* [requirement, 1) in each constrained dimension: every
      // node capable of running the job keeps its representative point in
      // that orthant (split_for guarantees point ownership), so repeated
      // samples land in a satisfying node's zone — or next to one, where
      // the neighbor fallback finishes the match.
      can::Point sample = job.profile.can_coords();
      for (std::size_t r = 0; r < kNumResources; ++r) {
        if (job.profile.constraints().active[r]) {
          sample[r] = rng_.uniform(sample[r], 1.0);
        } else {
          sample[r] = rng_.uniform();
        }
      }
      sample[kVirtualDim] = rng_.uniform();
      const JobProfile profile = job.profile;
      const std::uint32_t budget = job.forward_budget - 1;
      can_->route(sample, [this, profile, budget, guid](Peer owner, int) {
        auto kt = owned_.find(guid);
        if (!running_ || kt == owned_.end() || kt->second.dispatched) return;
        if (owner.valid() && owner.addr != addr()) {
          ++stats_.can_forwards;
          owned_.erase(kt);
          forward_to_owner(owner, profile, 0, 0, budget, 0);
        } else {
          net_.simulator().schedule_in(config_.match_retry_delay,
                                       [this, guid] {
                                         if (running_)
                                           match_and_dispatch(guid);
                                       });
        }
      });
      return;
    }
    // ...otherwise retry after a delay (loads change and overlay soft
    // state refreshes).
    net_.simulator().schedule_in(config_.match_retry_delay, [this, guid] {
      if (running_) match_and_dispatch(guid);
    });
  });
}

void GridNode::matchmake(const JobProfile& profile,
                         std::function<void(Peer, int)> cb) {
  switch (config_.kind) {
    case MatchmakerKind::kCentralized: {
      const double now = net_.simulator().now().sec();
      const Peer pick = central_->pick_least_loaded(profile.constraints(), now);
      if (pick.valid()) {
        // Keep the global view coherent while the dispatch is in flight.
        central_->note_assignment(static_cast<std::uint32_t>(pick.addr),
                                  profile.runtime_sec(), now + 2.0);
      }
      cb(pick, 0);
      return;
    }
    case MatchmakerKind::kRandom:
      cb(central_->pick_random(profile.constraints(), rng_), 0);
      return;
    case MatchmakerKind::kTtlWalk:
      start_walk(profile, std::move(cb));
      return;
    case MatchmakerKind::kRnTree:
      rn_->search(to_rn_query(profile.constraints()), config_.rn_search_k,
                  [cb = std::move(cb)](std::vector<rntree::Candidate> cands,
                                       int hops) {
                    Peer best = kNoPeer;
                    double best_load = std::numeric_limits<double>::infinity();
                    for (const auto& c : cands) {
                      if (!best.valid() || c.load < best_load ||
                          (c.load == best_load && c.peer.id < best.id)) {
                        best = c.peer;
                        best_load = c.load;
                      }
                    }
                    cb(best, hops);
                  });
      return;
    case MatchmakerKind::kCanBasic:
    case MatchmakerKind::kCanPush: {
      auto cands = can_candidates(profile);
      if (cands.empty()) {
        // Relaxed fallback: any neighbor whose coordinates satisfy the job
        // (the strict "dominates the owner" filter can be empty even when a
        // neighbor qualifies).
        for (const auto& [naddr, ns] : can_->neighbors()) {
          if (ns.rep_point.dims() == can_->rep_point().dims() &&
              can_point_satisfies(ns.rep_point, profile.can_coords(),
                                  profile.constraints())) {
            cands.emplace_back(Peer{naddr, ns.id}, ns.load);
          }
        }
      }
      Peer best = kNoPeer;
      double best_load = std::numeric_limits<double>::infinity();
      for (const auto& [peer, load] : cands) {
        if (!best.valid() || load < best_load ||
            (load == best_load && peer.id < best.id)) {
          best = peer;
          best_load = load;
        }
      }
      cb(best, 0);  // decided from local neighbor state: no extra hops
      return;
    }
  }
}

void GridNode::dispatch(Guid guid, Peer run, int match_hops) {
  auto it = owned_.find(guid);
  if (it == owned_.end()) return;
  OwnedJob& od = it->second;
  if (run.addr == addr()) {
    // Dispatch to self: no network round trip needed.
    od.run = run;
    od.dispatched = true;
    od.phi.reset();
    od.phi.heartbeat(net_.simulator().now());
    collector_->on_matched(od.profile.seq, net_.simulator().now(), match_hops,
                           static_cast<std::uint32_t>(run.addr));
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobMatched, addr(),
                      static_cast<std::uint32_t>(run.addr),
                      static_cast<std::uint16_t>(std::max(match_hops, 0)),
                      od.profile.seq);
    net::MessagePtr self_msg =
        std::make_unique<DispatchJob>(od.profile, self_peer());
    on_dispatch(addr(), self_msg);
    return;
  }
  rpc_.call(run.addr, std::make_unique<DispatchJob>(od.profile, self_peer()),
            config_.rpc_timeout,
            [this, guid, run, match_hops](net::MessagePtr reply) {
              auto jt = owned_.find(guid);
              if (!running_ || jt == owned_.end()) return;
              OwnedJob& job = jt->second;
              bool accepted = false;
              if (reply != nullptr) {
                accepted = net::msg_cast<DispatchResp>(reply.get())->accepted;
              }
              if (accepted) {
                job.run = run;
                job.dispatched = true;
                job.phi.reset();
                job.phi.heartbeat(net_.simulator().now());
                collector_->on_matched(job.profile.seq, net_.simulator().now(),
                                       match_hops,
                                       static_cast<std::uint32_t>(run.addr));
                PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobMatched,
                                  addr(), static_cast<std::uint32_t>(run.addr),
                                  static_cast<std::uint16_t>(
                                      std::max(match_hops, 0)),
                                  job.profile.seq);
              } else {
                // Dead or ineligible run node: go around again.
                match_and_dispatch(guid);
              }
            });
}

void GridNode::monitor_owned_jobs() {
  const auto now = net_.simulator().now();
  const auto deadline =
      config_.heartbeat_period * config_.heartbeat_miss_threshold;
  std::vector<Guid> lost;
  for (auto& [guid, od] : owned_) {
    // φ judges the run node by its learned heartbeat inter-arrival
    // distribution; while the history is still thin, by the cold-start
    // deadline.
    if (od.dispatched && od.phi.evict(now, deadline)) lost.push_back(guid);
  }
  for (Guid guid : lost) {
    OwnedJob& od = owned_.at(guid);
    ++stats_.run_recoveries;
    note_eviction(od.run.addr);
    collector_->on_requeue(od.profile.seq);
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kHeartbeatMiss, addr(),
                      static_cast<std::uint32_t>(od.run.addr), 1,
                      od.profile.seq);
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kRunRecovery, addr(),
                      static_cast<std::uint32_t>(od.run.addr), 0,
                      od.profile.seq);
    od.dispatched = false;
    od.run = kNoPeer;
    od.attempts = 0;  // fresh matchmaking round for the re-run
    match_and_dispatch(guid);
  }
}

void GridNode::on_heartbeat(net::NodeAddr from, net::MessagePtr& msg) {
  const auto* m = net::msg_cast<Heartbeat>(msg.get());
  auto it = owned_.find(m->guid);
  const bool known =
      it != owned_.end() && it->second.profile.generation == m->generation;
  if (known && it->second.run.addr == from) {
    it->second.phi.heartbeat(net_.simulator().now());
  }
  rpc_.reply(from, *m, std::make_unique<HeartbeatAck>(known));
}

void GridNode::on_job_done(const JobDone& msg) {
  auto it = owned_.find(msg.guid);
  if (it != owned_.end() && it->second.profile.generation == msg.generation) {
    owned_.erase(it);
  }
}

void GridNode::on_owner_handoff(net::NodeAddr from, net::MessagePtr& msg) {
  const auto* m = net::msg_cast<OwnerHandoff>(msg.get());
  auto it = owned_.find(m->profile.guid);
  if (it == owned_.end()) {
    OwnedJob od;
    od.profile = m->profile;
    od.run = m->run_node;
    od.dispatched = true;
    od.phi.heartbeat(net_.simulator().now());
    owned_.emplace(m->profile.guid, std::move(od));
  } else {
    it->second.run = m->run_node;
    it->second.dispatched = true;
    it->second.phi.reset();
    it->second.phi.heartbeat(net_.simulator().now());
  }
  rpc_.reply(from, *m, std::make_unique<OwnerHandoffAck>());
}

// --- run side ------------------------------------------------------------------

void GridNode::on_dispatch(net::NodeAddr from, net::MessagePtr& msg) {
  const auto* m = net::msg_cast<DispatchJob>(msg.get());
  // §5 quota: refuse jobs declaring more output than this node allows.
  if (config_.max_output_kb > 0.0 &&
      m->profile.output_kb() > config_.max_output_kb) {
    ++stats_.quota_rejects;
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobDispatchReject,
                      addr(), from, 1, m->profile.seq);
    if (m->rpc_id != 0) {
      rpc_.reply(from, *m,
                 std::make_unique<DispatchResp>(false, queue_length()));
    }
    return;
  }
  // First criterion of matchmaking (§2): the constraints must be met. A
  // stale owner view can still pick us wrongly; reject so it retries.
  if (!m->profile.constraints().satisfied_by(caps_)) {
    ++stats_.dispatch_rejects;
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobDispatchReject,
                      addr(), from, 2, m->profile.seq);
    if (m->rpc_id != 0) {
      rpc_.reply(from, *m,
                 std::make_unique<DispatchResp>(false, queue_length()));
    }
    return;
  }
  // Idempotent re-dispatch of a job already queued here.
  for (QueuedJob& q : queue_) {
    if (q.profile.guid == m->profile.guid &&
        q.profile.generation == m->profile.generation) {
      q.owner = m->owner;
      q.phi.heartbeat(net_.simulator().now());
      if (m->rpc_id != 0) {
        rpc_.reply(from, *m,
                   std::make_unique<DispatchResp>(true, queue_length()));
      }
      return;
    }
  }
  QueuedJob q;
  q.profile = m->profile;
  q.owner = m->owner;
  q.phi.heartbeat(net_.simulator().now());
  // Save the dispatch message's span: the handler runs under it now, but
  // execution completes from a timer later, outside any ambient context.
  if (obs::TraceBus* bus = net_.trace(); bus != nullptr) q.ctx = bus->current();
  queue_.push_back(std::move(q));
  if (m->rpc_id != 0) {
    rpc_.reply(from, *m, std::make_unique<DispatchResp>(true, queue_length()));
  }
  update_load_gauge();
  maybe_start_next();
}

void GridNode::maybe_start_next() {
  if (executing_ || queue_.empty() || !running_) return;
  apply_queue_policy();
  executing_ = true;
  const QueuedJob& job = queue_.front();
  // Attribute the start event to the dispatch span that queued this job
  // (this function is reached from timers as often as from handlers).
  obs::SpanScope start_scope(net_.trace(), job.ctx);
  collector_->on_started(job.profile.seq, net_.simulator().now(),
                         static_cast<std::uint32_t>(addr()));
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobStart, addr(),
                    static_cast<std::uint32_t>(job.owner.addr), 0,
                    job.profile.seq, queue_length());

  // §5 quota: a job whose actual demand exceeds its declared runtime by the
  // kill factor is terminated at the quota deadline instead of completing.
  double run_for = job.profile.runtime_sec();
  bool will_be_killed = false;
  if (config_.runaway_kill_factor > 0.0) {
    const double quota =
        job.profile.declared_or_actual() * config_.runaway_kill_factor;
    if (quota < run_for) {
      run_for = quota;
      will_be_killed = true;
    }
  }
  executing_end_sec_ = net_.simulator().now().sec() + run_for;
  completion_event_ = net_.simulator().schedule_in(
      sim::SimTime::seconds(run_for), [this, will_be_killed] {
        if (will_be_killed) {
          kill_front_for_quota();
        } else {
          complete_front();
        }
      });
}

void GridNode::apply_queue_policy() {
  if (config_.queue_policy != QueuePolicy::kFairShare || queue_.size() < 2) {
    return;
  }
  // Round-robin over submitting clients: serve the smallest client address
  // strictly after the last one served, wrapping to the smallest overall.
  net::NodeAddr next_client = net::kNullAddr;
  net::NodeAddr min_client = net::kNullAddr;
  for (const QueuedJob& q : queue_) {
    const net::NodeAddr c = q.profile.client;
    if (c < min_client) min_client = c;
    if (c > last_served_client_ && c < next_client) next_client = c;
  }
  if (next_client == net::kNullAddr) next_client = min_client;
  // Rotate that client's oldest job to the front (FIFO within a client).
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].profile.client == next_client) {
      if (i != 0) {
        QueuedJob job = std::move(queue_[i]);
        queue_.erase(queue_.begin() + static_cast<long>(i));
        queue_.push_front(std::move(job));
      }
      return;
    }
  }
}

void GridNode::kill_front_for_quota() {
  PGRID_ASSERT(executing_ && !queue_.empty());
  completion_event_ = sim::kInvalidEvent;
  const QueuedJob job = queue_.front();
  queue_.pop_front();
  executing_ = false;
  last_served_client_ = job.profile.client;
  ++stats_.jobs_killed_quota;
  {
    // Block-scoped so the next job's start is not attributed to this span.
    obs::SpanScope run_scope(net_.trace(), job.ctx);
    // `v` is the occupied duration: the Chrome exporter renders the slice.
    PGRID_TRACE_EVENT(
        net_.trace(), obs::EventKind::kJobKilled, addr(),
        static_cast<std::uint32_t>(job.owner.addr), 0, job.profile.seq,
        job.profile.declared_or_actual() * config_.runaway_kill_factor);
    // The node was occupied up to the quota deadline.
    collector_->add_node_busy(
        index_,
        job.profile.declared_or_actual() * config_.runaway_kill_factor);
    // Tell the owner to stop monitoring and give the client fast feedback
    // (its generation will never produce a result).
    if (job.owner.valid()) {
      rpc_.send(job.owner.addr, std::make_unique<JobDone>(
                                    job.profile.guid, job.profile.generation));
    }
    rpc_.send(job.profile.client, std::make_unique<JobFailed>(
                                      job.profile.seq, job.profile.generation));
  }
  update_load_gauge();
  maybe_start_next();
}

void GridNode::complete_front() {
  PGRID_ASSERT(executing_ && !queue_.empty());
  completion_event_ = sim::kInvalidEvent;
  const QueuedJob job = queue_.front();
  queue_.pop_front();
  executing_ = false;
  last_served_client_ = job.profile.client;
  ++stats_.jobs_executed;
  {
    // Block-scoped so the next job's start is not attributed to this span.
    obs::SpanScope run_scope(net_.trace(), job.ctx);
    collector_->add_node_busy(index_, job.profile.runtime_sec());
    // `v` is the execution duration: the Chrome exporter renders the slice.
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobComplete, addr(),
                      static_cast<std::uint32_t>(job.owner.addr), 0,
                      job.profile.seq, job.profile.runtime_sec());
    // Fig. 1 step 6: result straight back to the client...
    rpc_.send(job.profile.client, std::make_unique<Result>(
                                      job.profile.seq, job.profile.generation));
    // ...and release the owner's monitoring state.
    if (job.owner.valid()) {
      rpc_.send(job.owner.addr, std::make_unique<JobDone>(
                                    job.profile.guid, job.profile.generation));
    }
  }
  update_load_gauge();
  maybe_start_next();
}

void GridNode::do_heartbeats() {
  // Heartbeat every queued job, including those not yet running (§2).
  // Jobs are identified by GUID: distinct generations of the same job can
  // legitimately coexist in one queue and each has its own owner.
  //
  // Heartbeats for jobs monitored by the same owner coalesce into one wire
  // message per owner per round (DESIGN.md §16); the owner's acks coalesce
  // on the way back via the network's receiver-side scope.
  const net::BatchScope batch(net_, addr());
  std::vector<Guid> guids;
  guids.reserve(queue_.size());
  for (const QueuedJob& q : queue_) guids.push_back(q.profile.guid);
  for (Guid guid : guids) {
    QueuedJob* job = nullptr;
    for (QueuedJob& q : queue_) {
      if (q.profile.guid == guid) job = &q;
    }
    if (job == nullptr || !job->owner.valid()) continue;
    auto hb = std::make_unique<Heartbeat>(job->profile.guid,
                                          job->profile.generation);
    rpc_.call(job->owner.addr, std::move(hb), config_.rpc_timeout,
              [this, guid](net::MessagePtr reply) {
                if (!running_) return;
                QueuedJob* q = nullptr;
                for (QueuedJob& cand : queue_) {
                  if (cand.profile.guid == guid) q = &cand;
                }
                if (q == nullptr) return;  // completed meanwhile
                if (reply == nullptr) {
                  // Give up when the silence since the last ack is
                  // implausible under the learned ack-gap distribution.
                  const bool dead = q->phi.evict(
                      net_.simulator().now(),
                      config_.heartbeat_period *
                          config_.heartbeat_miss_threshold);
                  if (dead && !q->recovering_owner) {
                    PGRID_TRACE_EVENT(net_.trace(),
                                      obs::EventKind::kHeartbeatMiss, addr(),
                                      static_cast<std::uint32_t>(
                                          q->owner.addr),
                                      2, q->profile.seq);
                    note_eviction(q->owner.addr);
                    recover_owner(guid);
                  }
                  return;
                }
                q->phi.heartbeat(net_.simulator().now());
                if (!net::msg_cast<HeartbeatAck>(reply.get())->known &&
                    !q->recovering_owner) {
                  // The owner lost (or never had) the record: re-replicate.
                  recover_owner(guid);
                }
              });
  }
}

void GridNode::note_eviction(net::NodeAddr peer) {
  const double down_since =
      peer < down_since_->size() ? (*down_since_)[peer] : -1.0;
  if (down_since < 0.0) {
    ++stats_.fp_evictions;
    return;
  }
  const double latency = net_.simulator().now().sec() - down_since;
  stats_.detection_latency.add(latency);
  // A fixed deadline of heartbeat_period × miss_threshold detects at worst
  // one monitor/heartbeat round after it elapses; anything slower than that
  // bound is a late detection the fixed rule would have beaten.
  const double fixed_bound =
      (config_.heartbeat_period * (config_.heartbeat_miss_threshold + 1)).sec();
  if (latency > fixed_bound + 1e-9) ++stats_.fn_evictions;
}

void GridNode::recover_owner(Guid guid) {
  QueuedJob* job = nullptr;
  for (QueuedJob& q : queue_) {
    if (q.profile.guid == guid) job = &q;
  }
  if (job == nullptr || job->recovering_owner) return;
  job->recovering_owner = true;
  const JobProfile profile = job->profile;

  const auto adopt = [this, guid](Peer new_owner) {
    QueuedJob* q = nullptr;
    for (QueuedJob& cand : queue_) {
      if (cand.profile.guid == guid) q = &cand;
    }
    if (q == nullptr) return;
    q->recovering_owner = false;
    if (!new_owner.valid()) return;  // retry on the next heartbeat round
    // A new owner gets a fresh detector: judging it by the old owner's
    // silence would give up on it within one missed ack.
    q->owner = new_owner;
    q->phi.reset();
    q->phi.heartbeat(net_.simulator().now());
    ++stats_.owner_recoveries;
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kOwnerRecovery, addr(),
                      static_cast<std::uint32_t>(new_owner.addr), 0,
                      q->profile.seq);
  };

  const auto handoff_to = [this, profile, adopt](Peer target) {
    if (!target.valid()) {
      adopt(kNoPeer);
      return;
    }
    if (target.addr == addr()) {
      // We are the new owner ourselves: adopt the record locally.
      if (owned_.find(profile.guid) == owned_.end()) {
        OwnedJob od;
        od.profile = profile;
        od.run = self_peer();
        od.dispatched = true;
        od.phi.heartbeat(net_.simulator().now());
        owned_.emplace(profile.guid, std::move(od));
      }
      adopt(self_peer());
      return;
    }
    rpc_.call(target.addr, std::make_unique<OwnerHandoff>(profile, self_peer()),
              config_.rpc_timeout, [adopt, target](net::MessagePtr reply) {
                adopt(reply == nullptr ? kNoPeer : target);
              });
  };

  // The new owner is whoever the overlay maps the job to now (§2: "the
  // other node will detect the failure and initiate a recovery mechanism").
  if (chord_) {
    chord_->lookup(profile.guid, [handoff_to](Peer p, int) { handoff_to(p); });
  } else if (can_) {
    can_->route(profile.can_coords(),
                [handoff_to](Peer p, int) { handoff_to(p); });
  } else {
    handoff_to(self_peer());  // no overlay: the run node adopts ownership
  }
}

}  // namespace pgrid::grid
