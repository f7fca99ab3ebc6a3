#pragma once
// φ-accrual failure detection (Hayashibara et al., SRDS 2004).
//
// Instead of a binary alive/dead verdict at a fixed timeout, the detector
// learns each peer's heartbeat inter-arrival distribution and outputs a
// continuous suspicion level:
//
//   φ(t_now) = -log10( P(next heartbeat arrives later than t_now) )
//
// φ = 1 means "90% of historical gaps were shorter than the current
// silence", φ = 3 means 99.9%, and so on. Callers act at two levels: a
// cheap refresh at kSuspectThreshold, eviction only at kEvictThreshold.
// Under gray nodes and congestion the learned distribution widens, so
// transiently slow peers stop getting evicted; a genuinely dead peer's φ
// grows without bound, so detection is never lost.
//
// The tail probability uses the exponential-CDF approximation from the
// Akka/Cassandra lineage of accrual detectors: with mean m and stdev s of
// the inter-arrival history, P_later(t) = exp(-t / (m + s)), giving
// φ = -ln P_later = silence / (m + s). Reporting in nats instead of the
// literature's bans (log10) makes thresholds directly readable as
// "multiples of the learned mean gap": kEvictThreshold = 3 fires after
// ~3 quiet gaps — the same latency as a fixed deadline of
// heartbeat_period × miss_threshold(3) — but the gap length is *learned*,
// so a congested peer whose acks stretch does not get evicted. Monotone in
// t (φ never decreases during silence) and cheap (no erf).
//
// Determinism contract: the detector is passive arithmetic over sim-time
// stamps — it draws no randomness and schedules no events.

#include <cmath>
#include <cstddef>

#include "common/stats.h"
#include "sim/time.h"

namespace pgrid {

/// Per-peer accrual state: inter-arrival history + last arrival stamp.
/// One instance per monitored peer; ~64 bytes, no allocation.
class PhiDetector {
 public:
  /// Suspicion level that triggers cheap refresh actions (extra stabilize
  /// round, successor-list refresh, zone-update nudge) but no eviction.
  static constexpr double kSuspectThreshold = 2.0;
  /// Suspicion level at which the peer is declared failed and evicted.
  /// In gap units: 3.0 ≈ the fixed deadline of 3 heartbeat periods.
  static constexpr double kEvictThreshold = 3.0;
  /// Below this many observed inter-arrivals the distribution is not yet
  /// trustworthy and phi() judges by the caller's cold-start deadline.
  static constexpr std::size_t kMinSamples = 4;
  /// Floor on the learned stdev (seconds): protects against a peer whose
  /// first few gaps were metronome-regular, which would otherwise make the
  /// detector hair-triggered.
  static constexpr double kMinStdevSec = 0.05;

  /// Record a proof of life (heartbeat, ack, any message from the peer).
  void heartbeat(sim::SimTime now) noexcept {
    if (has_last_) {
      const double gap = (now - last_).sec();
      if (gap >= 0.0) intervals_.add(gap);
    }
    has_last_ = true;
    last_ = now;
  }

  /// Suspicion level at `now`. Returns 0 until the first arrival is seen.
  /// Below kMinSamples observed gaps, judges by a linear ramp that crosses
  /// kEvictThreshold exactly at `cold_start_deadline`, so a brand-new peer
  /// is evicted after the same silence as a fixed timeout of that length.
  [[nodiscard]] double phi(sim::SimTime now,
                           sim::SimTime cold_start_deadline) const noexcept {
    if (!has_last_) return 0.0;
    const double silence = (now - last_).sec();
    if (silence <= 0.0) return 0.0;
    if (intervals_.count() < kMinSamples) {
      const double deadline = cold_start_deadline.sec();
      if (deadline <= 0.0) return 0.0;
      return silence / deadline * kEvictThreshold;
    }
    const double mean_gap = intervals_.mean();
    double stdev_gap = intervals_.sample_stdev();
    if (stdev_gap < kMinStdevSec) stdev_gap = kMinStdevSec;
    // Effective scale: mean inflated by spread. φ = -ln P_later with
    // P_later = exp(-silence / (m + s)).
    const double scale = mean_gap + stdev_gap;
    if (scale <= 0.0) return 0.0;
    return silence / scale;
  }

  [[nodiscard]] bool suspect(sim::SimTime now,
                             sim::SimTime cold_start_deadline) const noexcept {
    return phi(now, cold_start_deadline) >= kSuspectThreshold;
  }
  [[nodiscard]] bool evict(sim::SimTime now,
                           sim::SimTime cold_start_deadline) const noexcept {
    return phi(now, cold_start_deadline) >= kEvictThreshold;
  }

  [[nodiscard]] std::size_t samples() const noexcept {
    return intervals_.count();
  }
  [[nodiscard]] double mean_interval_sec() const noexcept {
    return intervals_.mean();
  }
  [[nodiscard]] bool seen() const noexcept { return has_last_; }
  [[nodiscard]] sim::SimTime last_arrival() const noexcept { return last_; }

  void reset() noexcept { *this = PhiDetector{}; }

 private:
  RunningStats intervals_;
  sim::SimTime last_{};
  bool has_last_ = false;
};

}  // namespace pgrid
