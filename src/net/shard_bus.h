#pragma once
// Cross-shard message fabric for the sharded engine (DESIGN.md §17).
//
// One ShardBus backs a set of shard-local Networks — a single one for a
// one-shard run or a standalone Network, which owns its own one-shard bus.
// It owns what must be global to the run:
//
//  - the address space: NodeAddr stays one flat namespace (addr == node
//    index, the invariant every layer relies on), so handler registration
//    goes through the bus's directory no matter which shard's Network the
//    handler registered with;
//  - per-shard-pair mailboxes: a cross-shard send parks the message in
//    box(src, dst) during a window's run phase; the destination worker
//    drains it into its own Simulator at the next round's drain phase. The
//    engine's barriers make each box strictly single-producer during runs
//    and single-consumer during drains — no locks, no atomics on the
//    message path;
//  - per-sender determinism state: the latency/loss RNG stream and the
//    send counter for every address. Seeded from (bus seed, addr) alone when
//    the address registers and consumed in the sender's deterministic
//    execution order, the draws — and the provenance tie-break keys built
//    from the counters — are identical for every shard count, which is what
//    makes outputs a pure function of (seed, config) rather than
//    (seed, config, shards).
//
// Provenance keys: bit 63 set | sender addr (31 bits) | per-sender send
// counter (32 bits). Unique per message, reproducible from the trajectory,
// and ordered after every locally-scheduled event at the same timestamp (see
// Simulator::schedule_at_keyed).

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/expects.h"
#include "common/rng.h"
#include "net/message.h"
#include "sim/time.h"

namespace pgrid::net {

class Network;

class ShardBus {
 public:
  /// A message parked between windows: everything the destination needs to
  /// schedule the delivery exactly as if it had been local.
  struct RemoteMessage {
    sim::SimTime at;
    NodeAddr from = 0;
    NodeAddr to = 0;
    std::uint64_t key = 0;
    MessagePtr msg;
  };

  ShardBus(std::size_t shards, std::uint64_t seed);
  ~ShardBus();

  ShardBus(const ShardBus&) = delete;
  ShardBus& operator=(const ShardBus&) = delete;

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Record `net` as shard `shard`'s network (the Network constructor calls
  /// this); drain_into schedules that shard's parked messages through it.
  void attach(std::uint32_t shard, Network& net);

  // --- global address directory (build-time registration, run-time reads) --
  NodeAddr register_handler(MessageHandler* handler, std::uint32_t shard);
  void set_handler(NodeAddr addr, MessageHandler* handler);
  void set_alive(NodeAddr addr, bool alive);
  [[nodiscard]] bool alive(NodeAddr addr) const {
    PGRID_EXPECTS(addr < alive_.size());
    return alive_[addr];
  }
  [[nodiscard]] MessageHandler* handler(NodeAddr addr) const {
    PGRID_EXPECTS(addr < handlers_.size());
    return handlers_[addr];
  }
  [[nodiscard]] std::uint32_t shard_of(NodeAddr addr) const {
    PGRID_EXPECTS(addr < shard_of_.size());
    return shard_of_[addr];
  }
  [[nodiscard]] std::size_t addr_count() const noexcept {
    return handlers_.size();
  }

  /// Freeze the address space after build. With several shards the worker
  /// threads read the directory and per-sender tables concurrently, so they
  /// must never grow once a run starts.
  void freeze() noexcept { frozen_ = true; }

  // --- per-sender determinism state (owner-shard threads only) -------------
  [[nodiscard]] Rng& sender_rng(NodeAddr addr) {
    PGRID_EXPECTS(addr < senders_.size());
    return senders_[addr].rng;
  }
  [[nodiscard]] std::uint64_t next_key(NodeAddr addr) {
    PGRID_EXPECTS(addr < senders_.size());
    SenderState& s = senders_[addr];
    PGRID_ASSERT(s.sends < 0xffffffffULL);  // 32-bit counter field
    return (1ULL << 63) | (static_cast<std::uint64_t>(addr) << 32) | ++s.sends;
  }
  /// Addr-derived RPC endpoint stream (Network::fork_rng_for); several
  /// endpoints share one addr, hence the per-addr counter.
  [[nodiscard]] Rng fork_endpoint_rng(NodeAddr addr);

  // --- mailboxes (producer side during run phases, consumer during drains) -
  void enqueue(std::uint32_t src, std::uint32_t dst, RemoteMessage m);
  /// Schedule every message parked for shard `dst` into its Network, in
  /// deterministic (source shard, FIFO) order. Called on dst's worker.
  void drain_into(std::uint32_t dst);

  /// Cross-shard messages drained so far (relaxed; exact at barriers).
  [[nodiscard]] std::uint64_t handoffs() const noexcept {
    return handoffs_.load(std::memory_order_relaxed);
  }

 private:
  struct SenderState {
    Rng rng{0};
    std::uint64_t sends = 0;
    std::uint64_t endpoint_forks = 0;
  };

  [[nodiscard]] std::vector<RemoteMessage>& box(std::uint32_t src,
                                                std::uint32_t dst) {
    return boxes_[static_cast<std::size_t>(src) * shards_ + dst];
  }

  std::size_t shards_;
  std::uint64_t seed_;
  bool frozen_ = false;
  std::vector<MessageHandler*> handlers_;
  std::vector<std::uint32_t> shard_of_;
  std::vector<bool> alive_;
  std::vector<SenderState> senders_;
  std::vector<std::vector<RemoteMessage>> boxes_;
  std::vector<Network*> nets_;
  std::atomic<std::uint64_t> handoffs_{0};
};

}  // namespace pgrid::net
