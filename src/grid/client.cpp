#include "grid/client.h"

#include <utility>

namespace pgrid::grid {

Client::Client(net::Network& network, ClientConfig config,
               metrics::Collector* collector, Rng rng)
    : net_(network),
      rpc_(network, network.add_handler(this)),
      config_(config),
      collector_(collector),
      rng_(rng) {
  PGRID_EXPECTS(collector != nullptr);
}

void Client::set_injection_pool(std::vector<net::NodeAddr> pool) {
  PGRID_EXPECTS(!pool.empty());
  pool_ = std::move(pool);
}

void Client::schedule_job(std::uint64_t seq, double arrival_sec,
                          const Constraints& constraints, double runtime_sec,
                          double declared_runtime_sec, double output_kb) {
  ++scheduled_;
  net_.simulator().schedule_at(
      sim::SimTime::seconds(arrival_sec),
      [this, seq, constraints, runtime_sec, declared_runtime_sec, output_kb] {
        PendingJob job;
        job.constraints = constraints;
        job.runtime_sec = runtime_sec;
        job.declared_runtime_sec = declared_runtime_sec;
        job.output_kb = output_kb;
        auto [it, inserted] = pending_.emplace(seq, job);
        collector_->on_submit(seq, net_.simulator().now());
        PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobSubmit, addr(),
                          obs::kNoActor, 0, seq);
        // 1-in-N sampled jobs start a root span here; everything the job
        // causes — submission RPCs, matchmaking hops, dispatch, the result —
        // becomes a descendant span of it.
        if (obs::TraceBus* bus = net_.trace(); bus != nullptr) {
          it->second.ctx = bus->maybe_start_trace();
          if (it->second.ctx.sampled()) {
            bus->record_span(obs::EventKind::kSpanBegin, it->second.ctx,
                             addr(), obs::kNoActor, 0, seq);
          }
        }
        submit(seq, config_.submit_retries);
        arm_deadline(seq);
      });
}

JobProfile Client::make_profile(std::uint64_t seq, PendingJob& job) {
  // One interned statics block per submission; every downstream copy of the
  // profile (messages, owner/run records) shares it by refcount.
  auto statics = std::make_shared<JobStatics>();
  statics->constraints = job.constraints;
  statics->runtime_sec = job.runtime_sec;
  statics->declared_runtime_sec = job.declared_runtime_sec;
  statics->output_kb = job.output_kb;
  // A fresh virtual coordinate per submission: the paper's cluster-breaking
  // randomization for CAN job placement (§3.2).
  statics->can_coords = to_can_point(job.constraints, rng_.uniform());
  JobProfile profile;
  profile.seq = seq;
  profile.generation = job.generation;
  profile.guid = JobProfile::derive_guid(seq, job.generation);
  profile.client = addr();
  profile.statics = std::move(statics);
  return profile;
}

void Client::submit(std::uint64_t seq, int retries_left) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  // Submissions (and deadline-fired resubmissions, which arrive here from a
  // bare timer) run under the job's root span so the SubmitJob message and
  // the whole cascade behind it join the sampled trace.
  obs::SpanScope submit_scope(net_.trace(), it->second.ctx);
  const net::NodeAddr injection = pool_[rng_.index(pool_.size())];
  auto msg = std::make_unique<SubmitJob>(make_profile(seq, it->second));
  rpc_.call(injection, std::move(msg), config_.rpc_timeout,
            [this, seq, retries_left](net::MessagePtr reply) {
              if (reply != nullptr) return;  // accepted by the injection node
              if (retries_left > 0) {
                submit(seq, retries_left - 1);  // try another node
              }
              // Out of retries: the resubmission deadline is the backstop.
            });
}

void Client::arm_deadline(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  double wait = config_.resubmit_base_sec +
                config_.resubmit_runtime_factor * it->second.runtime_sec;
  if (config_.resubmit_jitter > 0.0) {
    wait *= rng_.uniform(1.0, 1.0 + config_.resubmit_jitter);
  }
  it->second.deadline_event = net_.simulator().schedule_in(
      sim::SimTime::seconds(wait), [this, seq] { on_deadline(seq); });
}

void Client::on_deadline(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  it->second.deadline_event = sim::kInvalidEvent;
  if (it->second.generation + 1 >= config_.max_generations) {
    finish(seq, /*completed_ok=*/false);
    return;
  }
  ++it->second.generation;
  collector_->on_resubmit(seq);
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobResubmit, addr(),
                    obs::kNoActor, 1, seq,
                    static_cast<double>(it->second.generation));
  submit(seq, config_.submit_retries);
  arm_deadline(seq);
}

void Client::finish(std::uint64_t seq, bool completed_ok) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  net_.simulator().cancel(it->second.deadline_event);
  if (it->second.ctx.sampled()) {
    if (obs::TraceBus* bus = net_.trace(); bus != nullptr) {
      bus->record_span(obs::EventKind::kSpanEnd, it->second.ctx, addr(),
                       obs::kNoActor, 0, seq, completed_ok ? 1.0 : 0.0);
    }
  }
  pending_.erase(it);
  if (completed_ok) {
    ++completed_;
  } else {
    ++abandoned_;
  }
  if (on_terminal) on_terminal();
  if (on_job_terminal) on_job_terminal(seq, completed_ok);
}

void Client::on_message(net::NodeAddr /*from*/, net::MessagePtr msg) {
  if (rpc_.consume_reply(msg)) return;
  if (msg->type() == kJobFailed) {
    // Matchmaking gave up on the current generation: resubmit now rather
    // than waiting for the deadline timer.
    const auto* m = net::msg_cast<JobFailed>(msg.get());
    auto it = pending_.find(m->seq);
    if (it == pending_.end() || it->second.generation != m->generation) {
      return;  // stale failure for an already-resolved generation
    }
    net_.simulator().cancel(it->second.deadline_event);
    it->second.deadline_event = sim::kInvalidEvent;
    if (it->second.generation + 1 >= config_.max_generations) {
      finish(m->seq, /*completed_ok=*/false);
      return;
    }
    ++it->second.generation;
    collector_->on_resubmit(m->seq);
    PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobResubmit, addr(),
                      obs::kNoActor, 2, m->seq,
                      static_cast<double>(it->second.generation));
    submit(m->seq, config_.submit_retries);
    arm_deadline(m->seq);
    return;
  }
  if (msg->type() != kResult) return;
  const auto* m = net::msg_cast<Result>(msg.get());
  // Duplicate results (re-executed jobs, network duplication) are accepted
  // once; later copies find no pending entry and are dropped.
  if (pending_.find(m->seq) == pending_.end()) {
    ++duplicate_results_;
    return;
  }
  collector_->on_completed(m->seq, net_.simulator().now());
  PGRID_TRACE_EVENT(net_.trace(), obs::EventKind::kJobResult, addr(),
                    obs::kNoActor, 0, m->seq);
  finish(m->seq, /*completed_ok=*/true);
}

}  // namespace pgrid::grid
