// Regenerates the §3.3 substrate validation: "an event-driven simulator to
// investigate the basic behavior of a P2P network, namely creating and
// maintaining the network and performing lookups into the distributed hash
// table based on peer IDs."
//
// google-benchmark microbenchmarks:
//   - Chord lookup: hops ~ 0.5 log2(N), resolution latency.
//   - CAN routing: hops ~ (d/4) N^(1/d) for d dimensions.
//   - Ring / space construction cost (instant wiring, per node).
// Counters report simulated hops and simulated latency; wall time measures
// simulator throughput.
//
// Accepts --threads=N for CLI uniformity with the experiment benches;
// google-benchmark times each case in isolation, so the flag is stripped
// before Initialize (which would otherwise reject it) and the cases run
// serially.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include <cmath>

#include "can/space.h"
#include "chord/ring.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace {

using namespace pgrid;

void BM_ChordLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  net::Network network(simulator, Rng{1});
  chord::ChordConfig config;
  config.run_maintenance = false;  // static membership: measure pure lookup
  chord::ChordRing ring(network, config, Rng{2});
  for (std::size_t i = 0; i < n; ++i) {
    ring.add_host(Guid::of(std::uint64_t{0x1234} + i * 2654435761ULL));
  }
  ring.wire_instantly();

  Rng rng{3};
  double total_hops = 0;
  double total_latency = 0;
  std::uint64_t lookups = 0;
  for (auto _ : state) {
    const Guid key{rng.next()};
    const auto start = simulator.now();
    bool done = false;
    sim::SimTime done_at = start;
    ring.host(rng.index(n)).node().lookup(key, [&](chord::Peer p, int hops) {
      benchmark::DoNotOptimize(p);
      total_hops += hops;
      done_at = simulator.now();
      done = true;
    });
    simulator.run_until(simulator.now() + sim::SimTime::seconds(60));
    benchmark::DoNotOptimize(done);
    total_latency += (done_at - start).sec();
    ++lookups;
  }
  state.counters["hops"] = total_hops / static_cast<double>(lookups);
  state.counters["log2N"] = std::log2(static_cast<double>(n));
  state.counters["sim_latency_s"] =
      total_latency / static_cast<double>(lookups);
}
BENCHMARK(BM_ChordLookup)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_CanRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  sim::Simulator simulator;
  net::Network network(simulator, Rng{1});
  can::CanConfig config;
  config.dims = dims;
  config.run_maintenance = false;
  can::CanSpace space(network, config, Rng{2});
  Rng point_rng{7};
  auto random_point = [&] {
    can::Point p(dims);
    for (std::size_t d = 0; d < dims; ++d) p[d] = point_rng.uniform();
    return p;
  };
  for (std::size_t i = 0; i < n; ++i) {
    space.add_host(Guid::of(std::uint64_t{0x77} + i * 31), random_point());
  }
  space.wire_instantly();

  Rng rng{3};
  double total_hops = 0;
  std::uint64_t routes = 0;
  for (auto _ : state) {
    bool done = false;
    space.host(rng.index(n)).node().route(
        random_point(), [&](can::Peer p, int hops) {
          benchmark::DoNotOptimize(p);
          total_hops += hops;
          done = true;
        });
    simulator.run_until(simulator.now() + sim::SimTime::seconds(120));
    benchmark::DoNotOptimize(done);
    ++routes;
  }
  state.counters["hops"] = total_hops / static_cast<double>(routes);
  state.counters["dN^(1/d)/4"] =
      static_cast<double>(dims) / 4.0 *
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(dims));
}
BENCHMARK(BM_CanRoute)
    ->Args({64, 2})
    ->Args({256, 2})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4})
    ->Args({256, 6});

void BM_ChordRingConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Network network(simulator, Rng{1});
    chord::ChordConfig config;
    config.run_maintenance = false;
    chord::ChordRing ring(network, config, Rng{2});
    for (std::size_t i = 0; i < n; ++i) {
      ring.add_host(Guid::of(std::uint64_t{9} + i * 31));
    }
    ring.wire_instantly();
    benchmark::DoNotOptimize(ring.oracle_successor(Guid{42}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChordRingConstruction)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(10240)
    ->Unit(benchmark::kMillisecond);

void BM_CanSpaceConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Network network(simulator, Rng{1});
    can::CanConfig config;
    config.run_maintenance = false;
    can::CanSpace space(network, config, Rng{2});
    Rng rng{3};
    for (std::size_t i = 0; i < n; ++i) {
      can::Point p(config.dims);
      for (std::size_t d = 0; d < config.dims; ++d) p[d] = rng.uniform();
      space.add_host(Guid::of(std::uint64_t{11} + i * 17), p);
    }
    space.wire_instantly();
    // An O(log N)-ish oracle probe keeps the wiring honest without the
    // O(N²) zones_tile_space() sweep dominating the timing at large N
    // (the tiling invariant itself is covered by test_wiring_equivalence).
    can::Point probe(config.dims);
    for (std::size_t d = 0; d < config.dims; ++d) probe[d] = 0.5;
    benchmark::DoNotOptimize(space.oracle_owner(probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CanSpaceConstruction)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(10240)
    ->Unit(benchmark::kMillisecond);

/// Raw event-queue throughput of the simulation substrate itself.
void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (int i = 0; i < 10000; ++i) {
      simulator.schedule_at(sim::SimTime::micros(i % 997), [&] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorThroughput);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads", 9) == 0) continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
