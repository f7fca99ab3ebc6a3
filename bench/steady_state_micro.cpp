// Steady-state hot-path microbenchmark (DESIGN.md §13): the send ->
// deliver -> handler cycle that dominates every experiment's wall clock,
// isolated from matchmaking logic so pool recycling and the per-send cost
// are directly visible.
//
// Cells:
//   ping_pong        — closed-loop request/response between two handlers on
//                      a lossless network. Every delivery
//                      frees one pooled message and the response allocates
//                      one, so the pool's reuse fraction approaches 1.
//   ping_pong_lossy  — identical topology with a vanishingly small base
//                      loss probability, which adds one loss draw per
//                      send, for comparison against ping_pong.
//   clone_fanout     — one sender clones a message to 32 receivers per
//                      round (the ZoneUpdate broadcast shape); exercises
//                      clone() through the pool.
//   heartbeat_storm  — 512 periodic senders firing at one sink (the grid
//                      layer's heartbeat fan-in shape), driven by
//                      PeriodicTask like GridNode itself.
//
// Flags: --messages=N (default 1M deliveries per cell), --smoke=1 (50k, for
// CI), --json[=path] (one row per cell, BENCH_steady_state_micro.json by
// default), --seed=S, --obs=1 (attach an enabled TraceBus to every cell's
// network; CI keeps one such run as an artifact),
// --detector=1 (append a heartbeat_storm_phi cell that runs a φ-accrual
// detector per sender on the fan-in path — the A/B that bounds the
// detector's bookkeeping cost; default output is unchanged),
// --threads=N (accepted for CLI uniformity with the experiment benches;
// these cells time a single hot loop each and co-scheduling them would
// contaminate the wall clocks, so they always run serially).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/phi_detector.h"
#include "common/rng.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace {

using namespace pgrid;

#ifdef NDEBUG
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

struct CellResult {
  std::string cell;
  std::uint64_t messages = 0;   // deliveries observed by handlers
  std::uint64_t sim_events = 0;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  double msgs_per_sec = 0.0;
  bool obs = false;              // TraceBus attached for this cell
  net::MessagePool::Stats pool;  // delta over the cell
};

/// Obs-on leg of the CI A/B: an enabled bus with a bounded ring, attached
/// before any traffic so every send/deliver pays the recording cost.
std::unique_ptr<obs::TraceBus> maybe_attach_trace(net::Network& network,
                                                  const sim::Simulator& sim,
                                                  bool obs) {
  if (!obs) return nullptr;
  auto bus = std::make_unique<obs::TraceBus>(sim, 1u << 16);
  network.set_trace(bus.get());
  return bus;
}

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

net::MessagePool::Stats pool_delta(const net::MessagePool::Stats& before) {
  const net::MessagePool::Stats now = net::MessagePool::stats();
  net::MessagePool::Stats d;
  d.fresh = now.fresh - before.fresh;
  d.reused = now.reused - before.reused;
  d.oversize = now.oversize - before.oversize;
  d.foreign = now.foreign - before.foreign;
  d.cached_blocks = now.cached_blocks;
  d.cached_bytes = now.cached_bytes;
  return d;
}

void finish(CellResult& r, const sim::Simulator& sim, double wall,
            std::uint64_t messages, const net::MessagePool::Stats& before) {
  r.messages = messages;
  r.sim_events = sim.executed();
  r.wall_sec = wall;
  r.events_per_sec =
      wall > 0.0 ? static_cast<double>(r.sim_events) / wall : 0.0;
  r.msgs_per_sec = wall > 0.0 ? static_cast<double>(messages) / wall : 0.0;
  r.pool = pool_delta(before);
}

struct PingMsg final : net::Message {
  static constexpr std::uint16_t kType = net::kTagTestBase + 0x20;
  explicit PingMsg(std::uint64_t v) : Message(kType), value(v) {}
  std::uint64_t value;
  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 8;
  }
  PGRID_MESSAGE_CLONE(PingMsg)
};

/// Bounces every received message straight back until `target` deliveries.
struct Bouncer final : net::MessageHandler {
  net::Network& net;
  net::NodeAddr self = net::kNullAddr;
  net::NodeAddr peer = net::kNullAddr;
  std::uint64_t delivered = 0;
  std::uint64_t target = 0;

  explicit Bouncer(net::Network& network) : net(network) {
    self = network.add_handler(this);
  }
  void on_message(net::NodeAddr /*from*/, net::MessagePtr msg) override {
    if (++delivered >= target) return;
    const auto* m = net::msg_cast<PingMsg>(msg.get());
    net.send(self, peer, std::make_unique<PingMsg>(m->value + 1));
  }
};

CellResult bench_ping_pong(std::uint64_t target, std::uint64_t seed,
                           double loss, const char* name, bool obs) {
  CellResult r{.cell = name, .obs = obs};
  const net::MessagePool::Stats before = net::MessagePool::stats();
  sim::Simulator sim;
  net::Network network(
      sim, Rng{seed},
      net::LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(2)},
      loss);
  const auto bus = maybe_attach_trace(network, sim, obs);
  Bouncer a(network);
  Bouncer b(network);
  a.peer = b.self;
  b.peer = a.self;
  // Each side stops bouncing at its own cap, so the joint delivery count
  // lands on the cell's message budget.
  a.target = b.target = target / 2;
  const WallTimer timer;
  network.send(a.self, b.self, std::make_unique<PingMsg>(0));
  // Run until the combined delivery count reaches the target: each side
  // stops bouncing at its own cap, so the loop drains naturally.
  sim.run();
  finish(r, sim, timer.sec(), a.delivered + b.delivered, before);
  return r;
}

/// Counts deliveries and drops them (the fan-out sink).
struct Sink final : net::MessageHandler {
  net::NodeAddr self = net::kNullAddr;
  std::uint64_t delivered = 0;
  explicit Sink(net::Network& network) { self = network.add_handler(this); }
  void on_message(net::NodeAddr /*from*/, net::MessagePtr /*msg*/) override {
    ++delivered;
  }
};

CellResult bench_clone_fanout(std::uint64_t target, std::uint64_t seed,
                              bool obs) {
  constexpr std::size_t kReceivers = 32;
  CellResult r{.cell = "clone_fanout", .obs = obs};
  const net::MessagePool::Stats before = net::MessagePool::stats();
  sim::Simulator sim;
  net::Network network(
      sim, Rng{seed},
      net::LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(2)});
  const auto bus = maybe_attach_trace(network, sim, obs);
  Sink sender(network);
  std::vector<std::unique_ptr<Sink>> receivers;
  receivers.reserve(kReceivers);
  for (std::size_t i = 0; i < kReceivers; ++i) {
    receivers.push_back(std::make_unique<Sink>(network));
  }
  const std::uint64_t rounds = target / kReceivers;
  std::uint64_t round = 0;
  const WallTimer timer;
  // The broadcast shape: one template message per round, one clone per
  // receiver (the template itself is never sent, matching a node that
  // builds an update and fans copies to its neighbor set).
  struct Driver {
    sim::Simulator& sim;
    net::Network& net;
    Sink& sender;
    std::vector<std::unique_ptr<Sink>>& receivers;
    std::uint64_t& round;
    std::uint64_t rounds;
    void operator()() const {
      if (round++ >= rounds) return;
      const PingMsg tmpl(round);
      for (const auto& rx : receivers) {
        net.send(sender.self, rx->self, tmpl.clone());
      }
      sim.schedule_in(sim::SimTime::millis(5), *this);
    }
  };
  sim.schedule_in(sim::SimTime::millis(1),
                  Driver{sim, network, sender, receivers, round, rounds});
  sim.run();
  std::uint64_t delivered = 0;
  for (const auto& rx : receivers) delivered += rx->delivered;
  finish(r, sim, timer.sec(), delivered, before);
  return r;
}

/// Fan-in sink that also maintains one φ-accrual detector per sender,
/// like the grid layer's owner-side heartbeat monitor: heartbeat() per
/// delivery, plus a 1 s scan evaluating every detector. The sender index
/// rides in the message payload.
struct PhiSink final : net::MessageHandler {
  const sim::Simulator& sim;
  net::NodeAddr self = net::kNullAddr;
  std::uint64_t delivered = 0;
  std::uint64_t suspects = 0;
  std::vector<PhiDetector> detectors;
  PhiSink(net::Network& network, const sim::Simulator& s, std::size_t peers)
      : sim(s), detectors(peers) {
    self = network.add_handler(this);
  }
  void on_message(net::NodeAddr /*from*/, net::MessagePtr msg) override {
    ++delivered;
    const auto* m = net::msg_cast<PingMsg>(msg.get());
    detectors[static_cast<std::size_t>(m->value)].heartbeat(sim.now());
  }
};

CellResult bench_heartbeat_storm(std::uint64_t target, std::uint64_t seed,
                                 bool obs, bool phi) {
  constexpr std::size_t kSenders = 512;
  CellResult r{.cell = phi ? "heartbeat_storm_phi" : "heartbeat_storm",
               .obs = obs};
  const net::MessagePool::Stats before = net::MessagePool::stats();
  sim::Simulator sim;
  net::Network network(
      sim, Rng{seed},
      net::LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(2)});
  const auto bus = maybe_attach_trace(network, sim, obs);
  Sink owner(network);
  std::unique_ptr<PhiSink> phi_owner;
  if (phi) phi_owner = std::make_unique<PhiSink>(network, sim, kSenders);
  const net::NodeAddr owner_addr = phi ? phi_owner->self : owner.self;
  std::vector<std::unique_ptr<Sink>> senders;
  senders.reserve(kSenders);
  for (std::size_t i = 0; i < kSenders; ++i) {
    senders.push_back(std::make_unique<Sink>(network));
  }
  // One heartbeat per sender per simulated second, like GridNode's run side;
  // the horizon is sized so the total delivery count hits the target.
  const auto horizon_sec = static_cast<double>(target) / kSenders;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  tasks.reserve(kSenders);
  const WallTimer timer;
  for (std::size_t i = 0; i < kSenders; ++i) {
    Sink* s = senders[i].get();
    net::Network* net = &network;
    net::NodeAddr to = owner_addr;
    tasks.push_back(std::make_unique<sim::PeriodicTask>(
        sim, sim::SimTime::seconds(1.0),
        [s, net, to, i] {
          net->send(s->self, to, std::make_unique<PingMsg>(i));
        },
        sim::SimTime::millis(static_cast<std::int64_t>(i % 997))));
  }
  // The monitor scan: like GridNode's eviction sweep, evaluate every
  // detector once per second against the suspect threshold.
  std::unique_ptr<sim::PeriodicTask> scan;
  if (phi) {
    PhiSink* sink = phi_owner.get();
    const sim::Simulator* sp = &sim;
    std::uint64_t* suspects = &phi_owner->suspects;
    scan = std::make_unique<sim::PeriodicTask>(
        sim, sim::SimTime::seconds(1.0), [sink, sp, suspects] {
          const sim::SimTime now = sp->now();
          const sim::SimTime cold_start = sim::SimTime::seconds(3.0);
          for (const PhiDetector& d : sink->detectors) {
            if (d.seen() && d.suspect(now, cold_start)) ++*suspects;
          }
        },
        sim::SimTime::millis(499));
  }
  sim.run_until(sim::SimTime::seconds(horizon_sec));
  for (auto& t : tasks) t->stop();
  if (scan) scan->stop();
  sim.run();  // drain in-flight deliveries
  finish(r, sim, timer.sec(), phi ? phi_owner->delivered : owner.delivered,
         before);
  return r;
}

void print_cell(const CellResult& r) {
  std::printf("%-16s %10" PRIu64 " msgs in %6.3fs  %8.0fk ev/s  %8.0fk msg/s"
              "  pool reuse %4.1f%% (%" PRIu64 " fresh, %" PRIu64 " reused)\n",
              r.cell.c_str(), r.messages, r.wall_sec,
              r.events_per_sec / 1000.0, r.msgs_per_sec / 1000.0,
              r.pool.reuse_fraction() * 100.0, r.pool.fresh, r.pool.reused);
}

void json_row(std::FILE* f, const CellResult& r) {
  std::fprintf(
      f,
      "{\"bench\":\"steady_state_micro\",\"build_type\":\"%s\",\"cell\":\"%s\","
      "\"obs\":\"%s\","
      "\"messages\":%" PRIu64 ",\"sim_events\":%" PRIu64
      ",\"wall_sec\":%.6f,\"events_per_sec\":%.1f,\"msgs_per_sec\":%.1f,"
      "\"pool_fresh\":%" PRIu64 ",\"pool_reused\":%" PRIu64
      ",\"pool_oversize\":%" PRIu64 ",\"pool_reuse_fraction\":%.4f}\n",
      kBuildType, r.cell.c_str(), r.obs ? "on" : "off", r.messages,
      r.sim_events, r.wall_sec, r.events_per_sec, r.msgs_per_sec,
      r.pool.fresh, r.pool.reused, r.pool.oversize, r.pool.reuse_fraction());
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.parse_args(argc, argv);
  const bool smoke = config.get_bool("smoke", false);
  const auto target = static_cast<std::uint64_t>(
      config.get_int("messages", smoke ? 50'000 : 1'000'000));
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
  const bool obs = config.get_bool("obs", false);
  const bool detector = config.get_bool("detector", false);
  // Accepted so every bench takes --threads; timing cells stay serial (see
  // the header comment).
  (void)config.get_int("threads", 0);

  std::printf("steady_state_micro [%s%s]: %" PRIu64 " messages per cell%s\n",
              kBuildType, obs ? ", obs-on" : "", target,
              smoke ? " (smoke)" : "");

  std::vector<CellResult> cells;
  cells.push_back(bench_ping_pong(target, seed, 0.0, "ping_pong", obs));
  net::MessagePool::trim();
  cells.push_back(
      bench_ping_pong(target, seed, 1e-12, "ping_pong_lossy", obs));
  net::MessagePool::trim();
  cells.push_back(bench_clone_fanout(target, seed, obs));
  net::MessagePool::trim();
  cells.push_back(bench_heartbeat_storm(target, seed, obs, false));
  if (detector) {
    // φ leg appended last so the default four-cell output is unchanged.
    net::MessagePool::trim();
    cells.push_back(bench_heartbeat_storm(target, seed, obs, true));
  }
  for (const CellResult& r : cells) print_cell(r);

  std::string path = config.get_string("json", "");
  if (path == "1" || path == "true") path = "BENCH_steady_state_micro.json";
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "steady_state_micro: cannot open %s\n",
                   path.c_str());
      return 1;
    }
    for (const CellResult& r : cells) json_row(f, r);
    std::fclose(f);
    std::printf("json rows written to %s\n", path.c_str());
  }
  return 0;
}
