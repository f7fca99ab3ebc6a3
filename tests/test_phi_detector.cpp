// φ-accrual failure detector: threshold calibration against the cold-start
// fixed deadline, adaptation to learned inter-arrival gaps, monotone
// suspicion growth, and the suspect/evict two-level contract.

#include <gtest/gtest.h>

#include "common/phi_detector.h"

namespace pgrid {
namespace {

using sim::SimTime;

SimTime at(double sec) { return SimTime::seconds(sec); }

TEST(PhiDetector, SilentBeforeFirstHeartbeat) {
  PhiDetector d;
  EXPECT_FALSE(d.seen());
  EXPECT_EQ(d.phi(at(100.0), at(15.0)), 0.0);
  EXPECT_FALSE(d.suspect(at(100.0), at(15.0)));
  EXPECT_FALSE(d.evict(at(100.0), at(15.0)));
}

TEST(PhiDetector, RampCrossesEvictExactlyAtLegacyDeadline) {
  // With fewer than kMinSamples gaps the detector judges by the caller's
  // cold-start deadline: a fresh peer that goes silent is evicted at that
  // fixed deadline, no sooner and no later.
  PhiDetector d;
  const SimTime deadline = at(15.0);  // e.g. 5 s period x 3 misses
  d.heartbeat(at(0.0));
  ASSERT_LT(d.samples(), PhiDetector::kMinSamples);
  EXPECT_FALSE(d.evict(at(14.9), deadline));
  EXPECT_TRUE(d.evict(at(15.0), deadline));
  // The ramp is linear: the suspect level (2/3 of evict) fires at 10 s.
  EXPECT_FALSE(d.suspect(at(9.9), deadline));
  EXPECT_TRUE(d.suspect(at(10.0), deadline));
}

TEST(PhiDetector, LearnedSlowPeerIsNotEvictedAtTheFixedDeadline) {
  // A peer whose heartbeats arrive every 10 s (congested, gray — but alive)
  // would be evicted by a fixed 15 s deadline. Once the detector has
  // learned the 10 s gap distribution, 15 s of silence is only ~1.5 gaps:
  // far below the eviction threshold.
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 8; ++i, t += 10.0) d.heartbeat(at(t));
  ASSERT_GE(d.samples(), PhiDetector::kMinSamples);
  const SimTime last = at(t - 10.0);
  EXPECT_FALSE(d.evict(last + at(15.0), at(15.0)));
  EXPECT_FALSE(d.suspect(last + at(15.0), at(15.0)));
  // A genuinely dead peer still gets detected: phi grows without bound.
  EXPECT_TRUE(d.evict(last + at(40.0), at(15.0)));
}

TEST(PhiDetector, FastPeerEvictsNearThreeLearnedGaps) {
  // Metronome 1 s heartbeats: the stdev floor (0.05 s) keeps the scale at
  // 1.05 s, so eviction fires a hair past 3 learned gaps — the same
  // latency contract as a fixed 3-period rule, but in learned units.
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 10; ++i, t += 1.0) d.heartbeat(at(t));
  const SimTime last = at(t - 1.0);
  EXPECT_FALSE(d.evict(last + at(3.0), at(15.0)));
  EXPECT_TRUE(d.evict(last + at(3.2), at(15.0)));
}

TEST(PhiDetector, PhiIsMonotoneDuringSilence) {
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 6; ++i, t += 2.0) d.heartbeat(at(t));
  const SimTime last = at(t - 2.0);
  double prev = -1.0;
  for (double s = 0.5; s <= 30.0; s += 0.5) {
    const double phi = d.phi(last + at(s), at(15.0));
    EXPECT_GE(phi, prev) << "phi decreased at silence " << s;
    prev = phi;
  }
}

TEST(PhiDetector, SuspectFiresBeforeEvict) {
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 8; ++i, t += 5.0) d.heartbeat(at(t));
  const SimTime last = at(t - 5.0);
  bool saw_suspect_only = false;
  for (double s = 1.0; s <= 60.0; s += 1.0) {
    const bool sus = d.suspect(last + at(s), at(15.0));
    const bool ev = d.evict(last + at(s), at(15.0));
    EXPECT_TRUE(!ev || sus) << "evict without suspect at " << s;
    if (sus && !ev) saw_suspect_only = true;
  }
  EXPECT_TRUE(saw_suspect_only)
      << "no window where the cheap refresh action fires before eviction";
}

TEST(PhiDetector, HeartbeatResetsSuspicion) {
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 8; ++i, t += 2.0) d.heartbeat(at(t));
  const SimTime last = at(t - 2.0);
  ASSERT_TRUE(d.evict(last + at(20.0), at(15.0)));
  // Proof of life: suspicion collapses back to zero silence.
  d.heartbeat(last + at(20.0));
  EXPECT_FALSE(d.suspect(last + at(20.5), at(15.0)));
}

TEST(PhiDetector, ResetForgetsHistory) {
  PhiDetector d;
  double t = 0.0;
  for (int i = 0; i < 8; ++i, t += 1.0) d.heartbeat(at(t));
  ASSERT_TRUE(d.seen());
  ASSERT_GT(d.samples(), 0u);
  d.reset();
  EXPECT_FALSE(d.seen());
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_EQ(d.phi(at(1000.0), at(15.0)), 0.0);
}

}  // namespace
}  // namespace pgrid
