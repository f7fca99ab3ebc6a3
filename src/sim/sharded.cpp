#include "sim/sharded.h"

#include <atomic>
#include <barrier>
#include <thread>

#include "common/expects.h"

namespace pgrid::sim {

ShardedEngine::ShardedEngine(std::size_t shards, SimTime lookahead)
    : lookahead_(lookahead) {
  PGRID_EXPECTS(shards >= 1);
  // Windows of length L need L > 0; one shard never opens a window.
  PGRID_EXPECTS(shards == 1 || lookahead > SimTime::zero());
  sims_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
}

std::uint64_t ShardedEngine::executed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->executed();
  return n;
}

std::size_t ShardedEngine::queued() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->queued();
  return n;
}

std::size_t ShardedEngine::queue_high_water() const noexcept {
  // Sum of per-shard peaks: an upper bound on the global peak (the shard
  // maxima need not coincide in time), reported as the total working set.
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->queue_high_water();
  return n;
}

std::size_t ShardedEngine::tombstone_high_water() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->tombstone_high_water();
  return n;
}

std::size_t ShardedEngine::memory_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->memory_bytes();
  return n;
}

std::uint64_t ShardedEngine::run_until(SimTime horizon) {
  const std::size_t n = sims_.size();
  const std::uint64_t before = executed();

  if (n == 1) {
    // One shard: no cross-shard traffic can exist (every destination is
    // local), so the window machinery degenerates to a plain run on the
    // calling thread — the default engine of every GridSystem.
    if (thread_init_ != nullptr) thread_init_(0);
    if (drain_ != nullptr) drain_(0);
    sims_[0]->run_until(horizon);
    ++windows_;
    if (horizon != SimTime::max()) {
      now_ = horizon;
    } else if (sims_[0]->now() > now_) {
      now_ = sims_[0]->now();
    }
    return executed() - before;
  }

  // Window state shared between the barrier-A completion (runs on exactly
  // one worker while all others are parked) and the workers; the barrier
  // sequencing is the only synchronization it needs.
  std::vector<SimTime> local_min(n, SimTime::max());
  SimTime window_end = SimTime::zero();
  std::atomic<bool> stop{false};

  auto on_window = [&]() noexcept {
    SimTime m = SimTime::max();
    for (const SimTime t : local_min) {
      if (t < m) m = t;
    }
    if (m == SimTime::max() || m > horizon) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    // Window [m, m + L): executed via run_until(end - 1ns), which is
    // inclusive. The horizon itself must be runnable, hence the +1ns clamp.
    SimTime end = (m > SimTime::max() - lookahead_) ? SimTime::max()
                                                    : m + lookahead_;
    if (horizon != SimTime::max() && end > horizon + SimTime::nanos(1)) {
      end = horizon + SimTime::nanos(1);
    }
    window_end = end;
    ++windows_;
  };

  std::barrier barrier_a(static_cast<std::ptrdiff_t>(n), on_window);
  std::barrier barrier_b(static_cast<std::ptrdiff_t>(n));

  auto worker = [&](std::size_t s) {
    if (thread_init_ != nullptr) thread_init_(s);
    for (;;) {
      // Inboxes were filled during the previous round's run phase; barrier B
      // ordered those writes before this read.
      if (drain_ != nullptr) drain_(s);
      local_min[s] = sims_[s]->next_time();
      barrier_a.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) return;
      sims_[s]->run_until(window_end - SimTime::nanos(1));
      barrier_b.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t s = 0; s < n; ++s) threads.emplace_back(worker, s);
  for (std::thread& t : threads) t.join();

  // Clean-exit invariant: the stop decision follows a drain on every shard,
  // so no message is parked in an inbox — everything is in some shard's
  // queue (possibly beyond the horizon, same as the sequential contract).
  if (horizon != SimTime::max()) {
    now_ = horizon;
  } else {
    for (const auto& s : sims_) {
      if (s->now() > now_) now_ = s->now();
    }
  }
  return executed() - before;
}

}  // namespace pgrid::sim
