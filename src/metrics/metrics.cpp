#include "metrics/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/expects.h"

namespace pgrid::metrics {

Collector::Collector(std::size_t job_count, std::size_t node_count,
                     bool streaming)
    : streaming_(streaming),
      job_count_(job_count),
      jobs_(streaming ? 0 : job_count),
      node_jobs_(node_count, 0),
      node_busy_(node_count, 0.0) {}

void Collector::on_submit(std::uint64_t seq, sim::SimTime t) {
  if (streaming_) {
    // First submission creates the in-flight entry; a duplicate submit for a
    // live job keeps the original timestamp (first-event-wins, matching the
    // batch path). The grid layer never re-submits a completed seq.
    auto [it, inserted] = inflight_.try_emplace(seq);
    if (it->second.submit_sec == JobOutcome::kNever) {
      it->second.submit_sec = t.sec();
    }
    return;
  }
  JobOutcome& j = jobs_.at(seq);
  if (j.submit_sec == JobOutcome::kNever) j.submit_sec = t.sec();
}

void Collector::on_owner(std::uint64_t seq, sim::SimTime t,
                         int injection_hops) {
  if (streaming_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end()) return;  // late event for a retired job
    it->second.owner_sec = t.sec();
    it->second.injection_hops = injection_hops;
    return;
  }
  JobOutcome& j = jobs_.at(seq);
  j.owner_sec = t.sec();
  j.injection_hops = injection_hops;
}

void Collector::on_matched(std::uint64_t seq, sim::SimTime t, int hops,
                           std::uint32_t run_node) {
  if (streaming_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end()) return;
    if (!it->second.matched) {
      it->second.matched = true;
      match_hops_stats_.add(static_cast<double>(hops));
    }
    return;
  }
  JobOutcome& j = jobs_.at(seq);
  if (j.matched_sec == JobOutcome::kNever) {
    j.matched_sec = t.sec();
    j.match_hops = hops;
  }
  j.run_node = run_node;
  j.last_matched_sec = t.sec();
}

void Collector::on_started(std::uint64_t seq, sim::SimTime t,
                           std::uint32_t start_node) {
  if (streaming_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end() || it->second.started) return;
    it->second.started = true;
    if (it->second.submit_sec != JobOutcome::kNever) {
      const double wait = t.sec() - it->second.submit_sec;
      wait_stats_.add(wait);
      wait_hist_.add(wait);
    }
  } else {
    JobOutcome& j = jobs_.at(seq);
    if (j.started_sec != JobOutcome::kNever) return;
    j.started_sec = t.sec();
    j.start_node = start_node;
  }
  ++started_n_;
  if (start_node < node_jobs_.size()) ++node_jobs_[start_node];
}

void Collector::on_completed(std::uint64_t seq, sim::SimTime t) {
  if (streaming_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end()) return;  // duplicate result
    ++completed_n_;
    makespan_sec_ = std::max(makespan_sec_, t.sec());
    // Retire: injection hops are last-wins, so they fold in only now.
    if (it->second.owner_sec != JobOutcome::kNever) {
      injection_hops_retired_.add(
          static_cast<double>(it->second.injection_hops));
    }
    inflight_.erase(it);
    return;
  }
  JobOutcome& j = jobs_.at(seq);
  if (j.completed_sec == JobOutcome::kNever) {
    j.completed_sec = t.sec();
    ++completed_n_;
    makespan_sec_ = std::max(makespan_sec_, t.sec());
  }
}

void Collector::on_resubmit(std::uint64_t seq) {
  ++resubmissions_n_;
  if (!streaming_) ++jobs_.at(seq).resubmissions;
}

void Collector::on_requeue(std::uint64_t seq) {
  ++requeues_n_;
  if (!streaming_) ++jobs_.at(seq).requeues;
}

void Collector::on_unmatched(std::uint64_t seq) {
  if (streaming_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end() || it->second.unmatched) return;
    it->second.unmatched = true;
    ++unmatched_n_;
    return;
  }
  JobOutcome& j = jobs_.at(seq);
  if (!j.unmatched) {
    j.unmatched = true;
    ++unmatched_n_;
  }
}

void Collector::add_node_busy(std::uint32_t node, double seconds) {
  if (node < node_busy_.size()) node_busy_[node] += seconds;
}

void Collector::merge_from_shards(const std::vector<const Collector*>& parts) {
  PGRID_EXPECTS(!streaming_);
  jobs_.assign(job_count_, JobOutcome{});
  node_jobs_.assign(node_jobs_.size(), 0);
  node_busy_.assign(node_busy_.size(), 0.0);
  completed_n_ = started_n_ = unmatched_n_ = 0;
  resubmissions_n_ = requeues_n_ = 0;
  makespan_sec_ = 0.0;

  const auto first_wins = [](double& dst, double src) {
    if (src != JobOutcome::kNever &&
        (dst == JobOutcome::kNever || src < dst)) {
      dst = src;
      return true;
    }
    return false;
  };

  for (const Collector* part : parts) {
    PGRID_EXPECTS(part != nullptr && !part->streaming_);
    PGRID_EXPECTS(part->jobs_.size() == jobs_.size());
    PGRID_EXPECTS(part->node_busy_.size() == node_busy_.size());
    for (std::size_t seq = 0; seq < jobs_.size(); ++seq) {
      const JobOutcome& s = part->jobs_[seq];
      JobOutcome& d = jobs_[seq];
      first_wins(d.submit_sec, s.submit_sec);
      if (first_wins(d.matched_sec, s.matched_sec)) d.match_hops = s.match_hops;
      first_wins(d.completed_sec, s.completed_sec);
      // The first started record pins the executing node. Exact time ties
      // (two dup-dispatched starts in the same nanosecond) break toward the
      // smaller address so the result is independent of the parts'
      // iteration order, hence of the shard count.
      if (first_wins(d.started_sec, s.started_sec) ||
          (s.started_sec != JobOutcome::kNever &&
           s.started_sec == d.started_sec && s.start_node < d.start_node)) {
        d.start_node = s.start_node;
      }
      // Owner and run node are last-wins (re-homing, re-dispatch); merge by
      // latest time.
      if (s.owner_sec != JobOutcome::kNever && s.owner_sec >= d.owner_sec) {
        d.owner_sec = s.owner_sec;
        d.injection_hops = s.injection_hops;
      }
      if (s.last_matched_sec != JobOutcome::kNever &&
          s.last_matched_sec >= d.last_matched_sec) {
        d.last_matched_sec = s.last_matched_sec;
        d.run_node = s.run_node;
      }
      d.resubmissions += s.resubmissions;
      d.requeues += s.requeues;
      d.unmatched = d.unmatched || s.unmatched;
    }
    for (std::size_t n = 0; n < node_busy_.size(); ++n) {
      node_busy_[n] += part->node_busy_[n];
    }
  }

  for (std::size_t seq = 0; seq < jobs_.size(); ++seq) {
    const JobOutcome& j = jobs_[seq];
    if (j.started_sec != JobOutcome::kNever) {
      ++started_n_;
      if (j.start_node < node_jobs_.size()) ++node_jobs_[j.start_node];
    }
    if (j.completed_sec != JobOutcome::kNever) {
      ++completed_n_;
      makespan_sec_ = std::max(makespan_sec_, j.completed_sec);
    }
    if (j.unmatched) ++unmatched_n_;
    resubmissions_n_ += j.resubmissions;
    requeues_n_ += j.requeues;
  }
}

const JobOutcome& Collector::job(std::uint64_t seq) const {
  PGRID_EXPECTS(!streaming_);
  return jobs_.at(seq);
}

Samples Collector::wait_times() const {
  PGRID_EXPECTS(!streaming_);
  Samples s;
  s.reserve(jobs_.size());
  for (const auto& j : jobs_) {
    if (j.started()) s.add(j.wait_sec());
  }
  return s;
}

Samples Collector::matchmaking_hops() const {
  PGRID_EXPECTS(!streaming_);
  Samples s;
  for (const auto& j : jobs_) {
    if (j.matched_sec != JobOutcome::kNever) {
      s.add(static_cast<double>(j.match_hops));
    }
  }
  return s;
}

Samples Collector::injection_hops() const {
  PGRID_EXPECTS(!streaming_);
  Samples s;
  for (const auto& j : jobs_) {
    if (j.owner_sec != JobOutcome::kNever) {
      s.add(static_cast<double>(j.injection_hops));
    }
  }
  return s;
}

RunningStats Collector::wait_stats() const {
  if (streaming_) return wait_stats_;
  RunningStats s;
  for (const auto& j : jobs_) {
    if (j.started()) s.add(j.wait_sec());
  }
  return s;
}

RunningStats Collector::match_hops_stats() const {
  if (streaming_) return match_hops_stats_;
  RunningStats s;
  for (const auto& j : jobs_) {
    if (j.matched_sec != JobOutcome::kNever) {
      s.add(static_cast<double>(j.match_hops));
    }
  }
  return s;
}

RunningStats Collector::injection_hops_stats() const {
  if (!streaming_) {
    RunningStats s;
    for (const auto& j : jobs_) {
      if (j.owner_sec != JobOutcome::kNever) {
        s.add(static_cast<double>(j.injection_hops));
      }
    }
    return s;
  }
  // Retired jobs are already folded; never-completed jobs that did reach an
  // owner still carry their hops in the in-flight table. Fold them in seq
  // order so the result is independent of hash iteration order.
  RunningStats s = injection_hops_retired_;
  std::vector<std::pair<std::uint64_t, int>> live;
  live.reserve(inflight_.size());
  for (const auto& [seq, f] : inflight_) {
    if (f.owner_sec != JobOutcome::kNever) live.emplace_back(seq, f.injection_hops);
  }
  std::sort(live.begin(), live.end());
  for (const auto& [seq, hops] : live) s.add(static_cast<double>(hops));
  return s;
}

Histogram Collector::wait_histogram() const {
  if (streaming_) return wait_hist_;
  Histogram h{kWaitHistLo, kWaitHistHi, kWaitHistBuckets};
  for (const auto& j : jobs_) {
    if (j.started()) h.add(j.wait_sec());
  }
  return h;
}

RunningStats Collector::jobs_per_node() const {
  RunningStats stats;
  for (auto n : node_jobs_) stats.add(static_cast<double>(n));
  return stats;
}

RunningStats Collector::busy_per_node() const {
  RunningStats stats;
  for (double b : node_busy_) stats.add(b);
  return stats;
}

std::size_t Collector::memory_bytes() const noexcept {
  const std::size_t inflight_bytes =
      inflight_.size() * (sizeof(std::pair<const std::uint64_t, InFlight>) +
                          2 * sizeof(void*)) +
      inflight_.bucket_count() * sizeof(void*);
  return jobs_.capacity() * sizeof(JobOutcome) + inflight_bytes +
         node_jobs_.capacity() * sizeof(std::uint32_t) +
         node_busy_.capacity() * sizeof(double) +
         wait_hist_.bucket_count() * sizeof(std::uint64_t);
}

std::string Collector::summary() const {
  const RunningStats waits = wait_stats();
  const RunningStats hops = match_hops_stats();
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "completed %zu/%zu  wait avg=%.1fs stdev=%.1fs  hops avg=%.2f  "
      "requeues=%llu resubmits=%llu",
      completed_count(), job_count(), waits.mean(), waits.sample_stdev(),
      hops.mean(), static_cast<unsigned long long>(total_requeues()),
      static_cast<unsigned long long>(total_resubmissions()));
  return buf;
}

}  // namespace pgrid::metrics
