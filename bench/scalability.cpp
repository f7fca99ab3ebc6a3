// Regenerates the §1/§2 scalability claim: matchmaking cost grows
// logarithmically (Chord) / sub-linearly (CAN) with system size while wait
// times stay flat when load is scaled proportionally.
//
//   scalability [--max-nodes=2048] [--max-batched=10240] [--mega-can=0] ...
//
// Nodes sweep {128..max} with jobs = 5 x nodes (constant per-node load);
// reports wait time, overlay hops, and messages per job for RN and CAN.
// RN and CAN also run at 4096 and 10240 nodes, the large-N rows, unless
// --max-batched caps them. --mega-can=1 additionally runs a gated 100k-node
// CAN bootstrap + short steady-state smoke.
//
// Sharded engine (DESIGN.md §17): --shards=N re-runs RN and CAN at
// {1024, 2048, 4096, 10240} (capped by --max-batched) on N worker shards and
// reports wall_ms per row. --shards-ab=N runs the determinism + speedup gate
// on one cell (--ab-nodes=1024): shards=1 and shards=N must produce
// bit-identical aggregates, and N shards must be >= 2x faster than one when
// the host has at least N cores (the speedup check is skipped, not failed,
// on smaller machines).

#include <chrono>
#include <cmath>
#include <thread>

#include "bench/bench_util.h"
#include "can/space.h"
#include "chord/ring.h"

int main(int argc, char** argv) {
  using namespace pgrid;
  using namespace pgrid::bench;
  using grid::MatchmakerKind;
  using workload::Mix;

  Config config;
  config.parse_args(argc, argv);
  Scale base = Scale::from_config(config);
  const auto max_nodes =
      static_cast<std::size_t>(config.get_int("max-nodes", 2048));
  const auto max_batched =
      static_cast<std::size_t>(config.get_int("max-batched", 10240));

  std::vector<std::size_t> sizes;
  for (std::size_t n = 128; n <= max_nodes; n *= 2) sizes.push_back(n);

  const std::vector<MatchmakerKind> kinds{MatchmakerKind::kRnTree,
                                          MatchmakerKind::kCanBasic,
                                          MatchmakerKind::kCentralized};

  struct Cell {
    std::size_t nodes;
    MatchmakerKind kind;
  };
  std::vector<Cell> cells;
  for (std::size_t n : sizes) {
    for (MatchmakerKind kind : kinds) cells.push_back(Cell{n, kind});
  }
  // The large-N rows: overlay matchmakers only, whose maintenance is what
  // grows with N.
  for (std::size_t n : {std::size_t{4096}, std::size_t{10240}}) {
    if (n <= max_nodes || n > max_batched) continue;
    cells.push_back(Cell{n, MatchmakerKind::kRnTree});
    cells.push_back(Cell{n, MatchmakerKind::kCanBasic});
  }

  // Per-cell seeds: workload varies per size (same workload across the
  // matchmakers at one size, so those rows stay comparable); the system
  // stream is disjoint from every workload stream.
  std::vector<std::uint64_t> seed_audit;
  for (std::size_t n : sizes) {
    seed_audit.push_back(derive_seed(base.seed, SeedStream::kWorkload, n));
  }
  seed_audit.push_back(derive_seed(base.seed, SeedStream::kSystem));
  assert_distinct_seeds(seed_audit);

  std::printf("scalability: jobs = 5 x nodes, arrival rate scaled to keep "
              "per-node load constant\n");

  const auto results = sim::run_sweep<CellResult>(
      cells.size(), base.threads, [&](std::size_t i) {
        const Cell& cell = cells[i];
        Scale scale = base;
        scale.nodes = cell.nodes;
        scale.jobs = cell.nodes * 5;
        // Offered load ~ runtime / (interarrival * nodes); keep it constant
        // (~0.8) across sizes.
        scale.mean_interarrival_sec =
            scale.mean_runtime_sec / (0.8 * static_cast<double>(cell.nodes));
        const auto spec =
            make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4,
                      derive_seed(base.seed, SeedStream::kWorkload,
                                  cell.nodes));
        const auto pool_before = net::MessagePool::stats();
        grid::GridConfig gc = make_grid_config(
            cell.kind, derive_seed(base.seed, SeedStream::kSystem));
        grid::GridSystem system(gc, workload::generate(spec));
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  print_header("Scaling of wait time and overlay cost");
  std::printf("%-8s %-13s %10s %10s %12s %12s %12s\n", "nodes",
              "matchmaker", "wait-avg", "wait-sd", "hops/job", "msgs/job",
              "completed");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const CellResult& r = results[i];
    std::printf("%-8zu %-13s %10.1f %10.1f %12.2f %12.0f %11.1f%%\n",
                cell.nodes, grid::matchmaker_name(cell.kind), r.wait_avg,
                r.wait_stdev, r.injection_hops_avg + r.match_hops_avg,
                static_cast<double>(r.messages) /
                    static_cast<double>(cell.nodes * 5),
                100.0 * r.completed_fraction);
  }

  print_header("Traffic & throughput");
  BenchJson json = BenchJson::open(config, "scalability");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const std::string label =
        std::to_string(cell.nodes) + "/" + grid::matchmaker_name(cell.kind);
    print_summary_line(label, results[i]);
    json.row(label, results[i]);
  }
  bool gate_failed = false;

  // --- sharded engine series (--shards=N, DESIGN.md §17) --------------------
  // RN and CAN from 1024 nodes up, on N worker shards. Cells run one at a
  // time — each already spawns its own shard workers, so sweeping them in
  // parallel on top would oversubscribe the host.
  const auto shard_count =
      static_cast<std::size_t>(config.get_int("shards", 0));
  if (shard_count > 0) {
    print_header("Sharded engine (" + std::to_string(shard_count) +
                 " shards)");
    std::printf("%-8s %-13s %12s %12s %10s %10s\n", "nodes", "matchmaker",
                "wall-ms", "events", "ev/s-k", "completed");
    for (std::size_t n : {std::size_t{1024}, std::size_t{2048},
                          std::size_t{4096}, std::size_t{10240}}) {
      if (n > max_batched) continue;
      for (MatchmakerKind kind :
           {MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic}) {
        Scale scale = base;
        scale.nodes = n;
        scale.jobs = n * 5;
        scale.mean_interarrival_sec =
            scale.mean_runtime_sec / (0.8 * static_cast<double>(n));
        const auto spec =
            make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4,
                      derive_seed(base.seed, SeedStream::kWorkload, n));
        grid::GridConfig gc = make_grid_config(
            kind, derive_seed(base.seed, SeedStream::kSystem));
        gc.shards = shard_count;
        grid::GridSystem system(gc, workload::generate(spec));
        system.run();
        const CellResult r = summarize(system);
        std::printf("%-8zu %-13s %12.0f %12" PRIu64 " %10.0f %9.1f%%\n", n,
                    grid::matchmaker_name(kind), r.wall_ms, r.sim_events,
                    r.events_per_wall_sec / 1000.0,
                    100.0 * r.completed_fraction);
        json.row(std::to_string(n) + "/" + grid::matchmaker_name(kind) +
                     "/sh" + std::to_string(shard_count),
                 r);
      }
    }
  }

  // --- one-vs-N-shards A/B gate (--shards-ab=N) -----------------------------
  const auto ab_shards =
      static_cast<std::size_t>(config.get_int("shards-ab", 0));
  if (ab_shards > 0) {
    const auto ab_nodes =
        static_cast<std::size_t>(config.get_int("ab-nodes", 1024));
    print_header("Sharded A/B gate (" + std::to_string(ab_nodes) +
                 " nodes, shards 1 vs " + std::to_string(ab_shards) + ")");
    Scale scale = base;
    scale.nodes = ab_nodes;
    scale.jobs = ab_nodes * 5;
    scale.mean_interarrival_sec =
        scale.mean_runtime_sec / (0.8 * static_cast<double>(ab_nodes));
    const auto spec =
        make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4,
                  derive_seed(base.seed, SeedStream::kWorkload, ab_nodes));
    const workload::Workload w = workload::generate(spec);
    const auto run_cell = [&](std::size_t shards) {
      grid::GridConfig gc = make_grid_config(
          MatchmakerKind::kCanBasic, derive_seed(base.seed,
                                                 SeedStream::kSystem));
      gc.shards = shards;
      grid::GridSystem system(gc, w);
      system.run();
      return summarize(system);
    };
    const CellResult sh1 = run_cell(1);
    const CellResult shn = run_cell(ab_shards);
    const std::string shn_name = "shards=" + std::to_string(ab_shards);
    const auto print_cell = [](const std::string& name, const CellResult& r) {
      std::printf("%-12s wall %8.0f ms, events %" PRIu64 ", msgs %" PRIu64
                  ", completed %.1f%%, makespan %.0fs, wait %.2fs\n",
                  name.c_str(), r.wall_ms, r.sim_events, r.messages,
                  100.0 * r.completed_fraction, r.makespan_sec, r.wait_avg);
    };
    print_cell("shards=1", sh1);
    print_cell(shn_name, shn);
    // Exact shard-count independence: every aggregate bit-identical between
    // shards=1 and shards=N (same keyed trajectory, merged the same way).
    const bool identical =
        sh1.sim_events == shn.sim_events && sh1.messages == shn.messages &&
        sh1.messages_delivered == shn.messages_delivered &&
        sh1.bytes_sent == shn.bytes_sent &&
        sh1.bytes_delivered == shn.bytes_delivered &&
        sh1.completed_fraction == shn.completed_fraction &&
        sh1.makespan_sec == shn.makespan_sec &&
        sh1.wait_avg == shn.wait_avg && sh1.wait_stdev == shn.wait_stdev &&
        sh1.match_hops_avg == shn.match_hops_avg &&
        sh1.jobs_per_node_cv == shn.jobs_per_node_cv;
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: sharded aggregates differ between 1 and %zu "
                   "shards\n",
                   ab_shards);
      gate_failed = true;
    }
    const unsigned cores = std::thread::hardware_concurrency();
    const double speedup =
        shn.run_wall_sec > 0.0 ? sh1.run_wall_sec / shn.run_wall_sec : 0.0;
    if (cores >= ab_shards) {
      std::printf("speedup: %.2fx at %zu shards (%u cores)\n", speedup,
                  ab_shards, cores);
      if (speedup < 2.0) {
        std::fprintf(stderr, "FAIL: sharded speedup %.2fx < 2x\n", speedup);
        gate_failed = true;
      }
    } else {
      std::printf("speedup: %.2fx at %zu shards — gate skipped (%u cores "
                  "< %zu)\n",
                  speedup, ab_shards, cores, ab_shards);
    }
    if (identical) {
      std::printf("aggregates: bit-identical across shard counts (events, "
                  "traffic, waits, makespan)\n");
    }
  }

  // --- overlay construction throughput --------------------------------------
  // Instant-wiring cost alone, past the full-simulation sweep's sizes: the
  // O(N log N) bootstrap is what makes 10k+ node experiments feasible, so
  // track it (wall clock, one shot per cell) alongside the steady-state
  // numbers. Recorded rows carry build_type so debug-binary runs are
  // rejectable downstream.
  print_header("Overlay construction (instant wiring, wall clock)");
  std::printf("%-8s %-8s %12s %14s\n", "nodes", "overlay", "build-sec",
              "nodes/sec");
  const std::vector<std::size_t> construct_sizes{1024, 4096, 10240};
  for (std::size_t n : construct_sizes) {
    for (const bool is_chord : {true, false}) {
      sim::Simulator simulator;
      net::Network network(simulator, Rng{1});
      const auto start = std::chrono::steady_clock::now();
      if (is_chord) {
        chord::ChordConfig overlay_config;
        overlay_config.run_maintenance = false;
        chord::ChordRing ring(network, overlay_config, Rng{2});
        for (std::size_t i = 0; i < n; ++i) {
          ring.add_host(Guid::of(std::uint64_t{9} + i * 31));
        }
        ring.wire_instantly();
      } else {
        can::CanConfig overlay_config;
        overlay_config.run_maintenance = false;
        can::CanSpace space(network, overlay_config, Rng{2});
        Rng point_rng{3};
        for (std::size_t i = 0; i < n; ++i) {
          can::Point p(overlay_config.dims);
          for (std::size_t d = 0; d < overlay_config.dims; ++d) {
            p[d] = point_rng.uniform();
          }
          space.add_host(Guid::of(std::uint64_t{11} + i * 17), p);
        }
        space.wire_instantly();
      }
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const char* overlay = is_chord ? "chord" : "can";
      std::printf("%-8zu %-8s %12.4f %14.0f\n", n, overlay, sec,
                  static_cast<double>(n) / sec);
      CellResult r;
      r.build_wall_sec = sec;
      json.row("construct/" + std::string(overlay) + "/" + std::to_string(n),
               r);
    }
  }
  // --- gated 100k-node CAN smoke (--mega-can=1) -----------------------------
  // Bootstrap (instant wiring) plus a fixed steady-state window: the
  // "does the 10k barrier actually move" check. The window is bounded (not
  // run-to-completion) on purpose: at this scale a handful of straggler jobs
  // would otherwise drag the cell to the 20000 s completion horizon, and the
  // smoke's question — does a 100k-node CAN build, stay live, and move
  // jobs — is answered well before that. Excluded from the default run
  // because it needs a release build and a few GB of RAM.
  if (config.get_bool("mega-can", false)) {
    print_header("Mega-CAN smoke: 100k nodes");
    Scale scale = base;
    scale.nodes = 100000;
    scale.jobs = 2000;  // a short arrival burst, not a full sweep cell
    scale.mean_interarrival_sec =
        scale.mean_runtime_sec / (0.8 * static_cast<double>(scale.nodes));
    const auto spec = make_spec(
        scale, Mix::kMixed, Mix::kMixed, 0.4,
        derive_seed(base.seed, SeedStream::kWorkload, scale.nodes));
    grid::GridConfig gc = make_grid_config(
        MatchmakerKind::kCanBasic, derive_seed(base.seed, SeedStream::kSystem));
    const auto pool_before = net::MessagePool::stats();
    grid::GridSystem system(gc, workload::generate(spec));
    system.run_for(config.get_double("mega-window", 900.0));
    CellResult r = summarize(system);
    attach_pool_stats(r, pool_before);
    print_summary_line("100000/can", r);
    std::printf("completed %.1f%% within the %.0f s window, build %.1fs, "
                "peak table memory %.1f MB\n",
                100.0 * r.completed_fraction,
                config.get_double("mega-window", 900.0), r.build_wall_sec,
                static_cast<double>(r.mem_total_bytes) / 1e6);
    json.row("100000/can", r);
    if (r.completed_fraction <= 0.0) {
      std::fprintf(stderr, "FAIL: mega-CAN smoke completed no jobs\n");
      gate_failed = true;
    }
  }

  if (json.active()) std::printf("\nwrote %s\n", json.path().c_str());

  std::printf("\nExpected shape: hops/job grow ~log2(nodes) for RN and\n"
              "~(d/4)N^(1/d) for CAN; wait stays roughly flat; construction\n"
              "build-sec grows ~N log N (near-linear nodes/sec).\n");
  return gate_failed ? 1 : 0;
}
