#include "metrics/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/expects.h"

namespace pgrid::metrics {

Collector::Collector(std::size_t job_count, std::size_t node_count)
    : jobs_(job_count),
      node_jobs_(node_count, 0),
      node_busy_(node_count, 0.0) {}

void Collector::on_submit(std::uint64_t seq, sim::SimTime t) {
  JobOutcome& j = jobs_.at(seq);
  if (j.submit_sec == JobOutcome::kNever) j.submit_sec = t.sec();
}

void Collector::on_owner(std::uint64_t seq, sim::SimTime t,
                         int injection_hops) {
  JobOutcome& j = jobs_.at(seq);
  j.owner_sec = t.sec();
  j.injection_hops = injection_hops;
}

void Collector::on_matched(std::uint64_t seq, sim::SimTime t, int hops,
                           std::uint32_t run_node) {
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
  JobOutcome& j = jobs_.at(seq);
  if (j.started_sec != JobOutcome::kNever) return;
  j.started_sec = t.sec();
  j.start_node = start_node;
  ++started_n_;
  if (start_node < node_jobs_.size()) ++node_jobs_[start_node];
}

void Collector::on_completed(std::uint64_t seq, sim::SimTime t) {
  JobOutcome& j = jobs_.at(seq);
  if (j.completed_sec == JobOutcome::kNever) {
    j.completed_sec = t.sec();
    ++completed_n_;
    makespan_sec_ = std::max(makespan_sec_, t.sec());
  }
}

void Collector::on_resubmit(std::uint64_t seq) {
  ++resubmissions_n_;
  ++jobs_.at(seq).resubmissions;
}

void Collector::on_requeue(std::uint64_t seq) {
  ++requeues_n_;
  ++jobs_.at(seq).requeues;
}

void Collector::on_unmatched(std::uint64_t seq) {
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
  std::fill(jobs_.begin(), jobs_.end(), JobOutcome{});
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
    PGRID_EXPECTS(part != nullptr);
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

Samples Collector::wait_times() const {
  Samples s;
  s.reserve(jobs_.size());
  for (const auto& j : jobs_) {
    if (j.started()) s.add(j.wait_sec());
  }
  return s;
}

RunningStats Collector::match_hops_stats() const {
  RunningStats s;
  for (const auto& j : jobs_) {
    if (j.matched_sec != JobOutcome::kNever) {
      s.add(static_cast<double>(j.match_hops));
    }
  }
  return s;
}

RunningStats Collector::injection_hops_stats() const {
  RunningStats s;
  for (const auto& j : jobs_) {
    if (j.owner_sec != JobOutcome::kNever) {
      s.add(static_cast<double>(j.injection_hops));
    }
  }
  return s;
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
  return jobs_.capacity() * sizeof(JobOutcome) +
         node_jobs_.capacity() * sizeof(std::uint32_t) +
         node_busy_.capacity() * sizeof(double);
}

std::string Collector::summary() const {
  const Samples waits = wait_times();
  const RunningStats hops = match_hops_stats();
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "completed %zu/%zu  wait avg=%.1fs stdev=%.1fs  hops avg=%.2f  "
      "requeues=%llu resubmits=%llu",
      completed_count(), job_count(), waits.mean(), waits.stdev(),
      hops.mean(), static_cast<unsigned long long>(total_requeues()),
      static_cast<unsigned long long>(total_resubmissions()));
  return buf;
}

}  // namespace pgrid::metrics
