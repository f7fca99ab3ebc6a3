// Simulation-core microbenchmark: raw events-per-second of the substrate
// every matchmaker and the chaos harness run on (DESIGN.md §11).
//
// Cells:
//   schedule_fire        — pure schedule/fire pump (pool + heap + SmallFn).
//   schedule_cancel_fire — each fired event schedules and cancels a far-
//                          future timeout, the RPC-success pattern that used
//                          to leave tombstones rotting for the full RTO
//                          horizon; reports tombstone/heap peaks so the
//                          O(live) bound is visible in the json trail.
//   rpc_echo             — full stack: RpcEndpoint call -> Network send ->
//                          handler -> reply -> continuation, with the
//                          timeout cancel on every success.
//   shard_barrier        — barrier-round cost of the sharded engine
//                          (DESIGN.md §17): every window fires exactly one
//                          event per shard, so windows/sec is the pure
//                          synchronization overhead a sharded run pays per
//                          lookahead window.
//   shard_handoff        — cross-shard inbox throughput: a 2-shard ping-pong
//                          through the production ShardBus path (send ->
//                          mailbox park -> drain -> keyed delivery), batched
//                          so the mailbox dominates the barriers.
//
// Flags: --events=N (default 2M; fired events per cell), --smoke=1 (50k
// events, for CI), --json[=path] (one row per cell, BENCH_simcore_micro.json
// by default), --seed=S, --threads=N (worker-thread count = shard count for
// the shard_barrier cell; 0 = default 4. The scalar cells are timing-
// sensitive and always run serially).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "common/config.h"
#include "common/rng.h"
#include "net/message.h"
#include "net/network.h"
#include "net/rpc.h"
#include "net/shard_bus.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace {

using namespace pgrid;

struct CellResult {
  std::string cell;
  std::uint64_t events = 0;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t queue_peak = 0;
  std::uint64_t tombstone_peak = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t compactions = 0;
  // Sharded cells only (0 on the scalar cells).
  std::uint64_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

void finish(CellResult& r, const sim::Simulator& sim, double wall,
            std::uint64_t heap_peak) {
  r.events = sim.executed();
  r.wall_sec = wall;
  r.events_per_sec = wall > 0.0 ? static_cast<double>(r.events) / wall : 0.0;
  r.queue_peak = sim.queue_high_water();
  r.tombstone_peak = sim.tombstone_high_water();
  r.heap_peak = heap_peak;
  r.compactions = sim.compactions();
}

CellResult bench_schedule_fire(std::uint64_t target) {
  CellResult r{.cell = "schedule_fire"};
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const WallTimer timer;
  // Self-rescheduling pump: every event schedules its successor, measuring
  // the steady-state schedule -> pop -> invoke cycle.
  struct Pump {
    sim::Simulator& sim;
    std::uint64_t& fired;
    std::uint64_t target;
    void operator()() const {
      if (++fired >= target) return;
      sim.schedule_in(sim::SimTime::millis(1), *this);
    }
  };
  sim.schedule_in(sim::SimTime::millis(1), Pump{sim, fired, target});
  sim.run();
  finish(r, sim, timer.sec(), sim.heap_size());
  return r;
}

CellResult bench_schedule_cancel_fire(std::uint64_t target) {
  CellResult r{.cell = "schedule_cancel_fire"};
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t heap_peak = 0;
  const WallTimer timer;
  // The RPC-success pattern: every pump tick schedules a far-future timeout
  // (the retransmission RTO) and a near event that cancels it — one
  // tombstone per tick, exactly what call_retry leaves behind.
  struct Pump {
    sim::Simulator& sim;
    std::uint64_t& fired;
    std::uint64_t& heap_peak;
    std::uint64_t target;
    void operator()() const {
      if (++fired >= target) return;
      const sim::EventId timeout =
          sim.schedule_in(sim::SimTime::seconds(30), [] {});
      const Pump self = *this;
      sim.schedule_in(sim::SimTime::millis(1), [self, timeout] {
        self.sim.cancel(timeout);
        if (self.sim.heap_size() > self.heap_peak) {
          self.heap_peak = self.sim.heap_size();
        }
        self();
      });
    }
  };
  sim.schedule_in(sim::SimTime::millis(1), Pump{sim, fired, heap_peak, target});
  sim.run();
  finish(r, sim, timer.sec(), heap_peak);
  return r;
}

struct EchoMsg final : net::Message {
  static constexpr std::uint16_t kType = net::kTagTestBase + 0x10;
  explicit EchoMsg(std::uint64_t v) : Message(kType), value(v) {}
  std::uint64_t value;
};

struct EchoPeer final : net::MessageHandler {
  explicit EchoPeer(net::Network& network)
      : rpc(network, network.add_handler(this)) {}
  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    if (rpc.consume_reply(msg)) return;
    const auto* m = net::msg_cast<EchoMsg>(msg.get());
    rpc.reply(from, *m, std::make_unique<EchoMsg>(m->value + 1));
  }
  net::RpcEndpoint rpc;
};

CellResult bench_rpc_echo(std::uint64_t target, std::uint64_t seed) {
  CellResult r{.cell = "rpc_echo"};
  sim::Simulator sim;
  net::Network network(
      sim, Rng{seed},
      net::LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(2)});
  EchoPeer caller(network);
  EchoPeer callee(network);
  std::uint64_t completed = 0;
  const WallTimer timer;
  // Closed-loop echo: each completed round trip (which cancels its timeout
  // on success, feeding the tombstone path) immediately issues the next.
  struct Loop {
    EchoPeer& caller;
    EchoPeer& callee;
    std::uint64_t& completed;
    std::uint64_t target;
    void operator()() const {
      const Loop self = *this;
      caller.rpc.call(callee.rpc.self(), std::make_unique<EchoMsg>(completed),
                      sim::SimTime::seconds(10), [self](net::MessagePtr reply) {
                        if (reply == nullptr) return;
                        if (++self.completed >= self.target) return;
                        self();
                      });
    }
  };
  Loop{caller, callee, completed, target}();
  sim.run();
  finish(r, sim, timer.sec(), sim.heap_size());
  r.events = completed;  // report round trips, not raw events
  r.events_per_sec =
      r.wall_sec > 0.0 ? static_cast<double>(sim.executed()) / r.wall_sec : 0.0;
  return r;
}

CellResult bench_shard_barrier(std::size_t shards, std::uint64_t rounds) {
  CellResult r{.cell = "shard_barrier"};
  r.shards = shards;
  const sim::SimTime lookahead = sim::SimTime::millis(1);
  sim::ShardedEngine engine(shards, lookahead);
  // One self-rescheduling pump per shard, period == lookahead: every barrier
  // window executes exactly one event per shard and immediately exposes the
  // next, so the run is `rounds` back-to-back windows with no idle jumps —
  // wall time is almost entirely drain + barrier A + barrier B overhead.
  struct Pump {
    sim::Simulator& sim;
    sim::SimTime period;
    void operator()() const { sim.schedule_in(period, *this); }
  };
  for (std::size_t s = 0; s < shards; ++s) {
    engine.shard(s).schedule_in(lookahead, Pump{engine.shard(s), lookahead});
  }
  const WallTimer timer;
  engine.run_until(sim::SimTime::millis(static_cast<std::int64_t>(rounds)));
  r.wall_sec = timer.sec();
  r.events = engine.executed();
  r.windows = engine.windows();
  // The headline rate for this cell is windows/sec, not events/sec.
  r.events_per_sec =
      r.wall_sec > 0.0 ? static_cast<double>(r.windows) / r.wall_sec : 0.0;
  r.queue_peak = engine.queue_high_water();
  r.tombstone_peak = engine.tombstone_high_water();
  return r;
}

struct HandoffPeer final : net::MessageHandler {
  net::Network& net;
  net::NodeAddr self = 0;
  net::NodeAddr peer = 0;
  std::uint64_t batch = 0;
  std::uint64_t target = 0;
  std::uint64_t received = 0;

  explicit HandoffPeer(net::Network& network) : net(network) {}

  void send_batch() {
    for (std::uint64_t i = 0; i < batch; ++i) {
      net.send(self, peer, std::make_unique<EchoMsg>(received + i));
    }
  }
  void on_message(net::NodeAddr, net::MessagePtr) override {
    ++received;
    // Volley back once the whole batch has landed; stop at the target so the
    // queues drain and the engine's stop rule ends the run.
    if (received % batch == 0 && received < target) send_batch();
  }
};

CellResult bench_shard_handoff(std::uint64_t target) {
  CellResult r{.cell = "shard_handoff"};
  r.shards = 2;
  // Batched 2-shard ping-pong: every message crosses the shard boundary, and
  // 64 messages ride each window so mailbox park/drain/keyed-delivery — not
  // the barrier — dominates. handoffs/sec is the headline rate.
  constexpr std::uint64_t kBatch = 64;
  const sim::SimTime lookahead = sim::SimTime::millis(1);
  sim::ShardedEngine engine(2, lookahead);
  net::ShardBus bus(2, /*seed=*/42);
  const net::LatencyModel latency{sim::SimTime::millis(1),
                                  sim::SimTime::millis(2)};
  net::Network net0(engine.shard(0), Rng{1}, latency, 0.0, &bus, 0);
  net::Network net1(engine.shard(1), Rng{2}, latency, 0.0, &bus, 1);
  HandoffPeer a(net0);
  HandoffPeer b(net1);
  a.self = net0.add_handler(&a);
  b.self = net1.add_handler(&b);
  a.peer = b.self;
  b.peer = a.self;
  a.batch = b.batch = kBatch;
  a.target = b.target = target / 2;
  bus.freeze();
  engine.set_drain([&bus](std::size_t s) {
    bus.drain_into(static_cast<std::uint32_t>(s));
  });
  engine.shard(0).schedule_in(lookahead, [&a] { a.send_batch(); });

  const WallTimer timer;
  engine.run_until(sim::SimTime::max());
  r.wall_sec = timer.sec();
  r.events = engine.executed();
  r.windows = engine.windows();
  r.handoffs = bus.handoffs();
  r.events_per_sec =
      r.wall_sec > 0.0 ? static_cast<double>(r.handoffs) / r.wall_sec : 0.0;
  r.queue_peak = engine.queue_high_water();
  r.tombstone_peak = engine.tombstone_high_water();
  return r;
}

void print_cell(const CellResult& r) {
  if (r.shards > 0) {
    std::printf("%-22s %10" PRIu64 " events in %6.3fs  %8.0fk %s/s  shards %"
                PRIu64 "  windows %" PRIu64 "  handoffs %" PRIu64 "\n",
                r.cell.c_str(), r.events, r.wall_sec,
                r.events_per_sec / 1000.0,
                r.handoffs > 0 ? "handoffs" : "windows", r.shards, r.windows,
                r.handoffs);
    return;
  }
  std::printf(
      "%-22s %10" PRIu64 " events in %6.3fs  %8.0fk ev/s  queue peak %" PRIu64
      "  tombstone peak %" PRIu64 "  heap peak %" PRIu64 "  compactions %" PRIu64
      "\n",
      r.cell.c_str(), r.events, r.wall_sec, r.events_per_sec / 1000.0,
      r.queue_peak, r.tombstone_peak, r.heap_peak, r.compactions);
}

void json_row(std::FILE* f, const CellResult& r) {
  std::fprintf(f,
               "{\"bench\":\"simcore_micro\",\"cell\":\"%s\",\"events\":%" PRIu64
               ",\"wall_sec\":%.6f,\"events_per_sec\":%.1f,\"queue_peak\":%" PRIu64
               ",\"tombstone_peak\":%" PRIu64 ",\"heap_peak\":%" PRIu64
               ",\"compactions\":%" PRIu64 ",\"shards\":%" PRIu64
               ",\"windows\":%" PRIu64 ",\"handoffs\":%" PRIu64 "}\n",
               r.cell.c_str(), r.events, r.wall_sec, r.events_per_sec,
               r.queue_peak, r.tombstone_peak, r.heap_peak, r.compactions,
               r.shards, r.windows, r.handoffs);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.parse_args(argc, argv);
  const bool smoke = config.get_bool("smoke", false);
  const auto target = static_cast<std::uint64_t>(
      config.get_int("events", smoke ? 50'000 : 2'000'000));
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
  const auto threads =
      static_cast<std::size_t>(config.get_int("threads", 0));
  const std::size_t barrier_shards = threads > 0 ? threads : 4;
  // Barrier rounds are far slower than heap events (two std::barrier waits
  // each); cap them so the default run stays in the seconds range.
  const std::uint64_t rounds =
      std::min<std::uint64_t>(target / barrier_shards, 100'000);

  std::printf("simcore_micro: %" PRIu64 " events per cell%s\n", target,
              smoke ? " (smoke)" : "");

  const CellResult cells[] = {
      bench_schedule_fire(target),
      bench_schedule_cancel_fire(target),
      bench_rpc_echo(smoke ? target / 10 : target / 4, seed),
      bench_shard_barrier(barrier_shards, rounds),
      bench_shard_handoff(smoke ? target / 10 : target / 4),
  };
  for (const CellResult& r : cells) print_cell(r);

  std::string path = config.get_string("json", "");
  if (path == "1" || path == "true") path = "BENCH_simcore_micro.json";
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "simcore_micro: cannot open %s\n", path.c_str());
      return 1;
    }
    for (const CellResult& r : cells) json_row(f, r);
    std::fclose(f);
    std::printf("json rows written to %s\n", path.c_str());
  }
  return 0;
}
