// Survival under hostile churn: detector quality and burst recovery.
//
//   churn_survival [--nodes=100] [--jobs=400] [--json=1] ...
//
// Sweep A (detector quality) runs each overlay matchmaker under background
// churn plus a sustained "lying network" window — gray nodes (slow and
// lossy but alive) or congestion loss. The ground-truth liveness oracle
// classifies every eviction the φ-accrual detector makes, so each cell
// reports false-positive evictions of healthy-but-slow nodes, late
// detections (slower than the paper's fixed three-period deadline would
// have been), and the death-to-eviction latency of real failures.
// EXPERIMENTS.md §2 keeps the fixed-deadline counts these cells retired.
//
// Sweep B (correlated burst survival) crashes a contiguous 30% overlay
// arc/slab at once — a rack power loss in overlay coordinates, the worst
// case for neighbor-replicated state — with victims rejoining minutes
// later: one row per matchmaker, with the CAN gap check's repairs counted.
// Completion should stay >= 99%.
//
// --json=1 emits one BENCH row per cell (schema v6 carries the detector
// fields and gap_repairs).

#include "bench/bench_util.h"

#include "net/fault_plane.h"

int main(int argc, char** argv) {
  using namespace pgrid;
  using namespace pgrid::bench;
  using grid::MatchmakerKind;
  using workload::Mix;

  Config config;
  config.parse_args(argc, argv);
  Scale scale = Scale::from_config(config);
  // Well below paper scale by default: 9 full churn runs, and every false
  // positive costs a requeue + re-match cycle. --nodes/--jobs rescale.
  if (!config.has("nodes")) scale.nodes = 100;
  if (!config.has("jobs")) scale.jobs = 400;

  const std::vector<MatchmakerKind> kinds{MatchmakerKind::kRnTree,
                                          MatchmakerKind::kCanBasic,
                                          MatchmakerKind::kCanPush};

  std::printf("churn_survival: %zu nodes, %zu jobs\n", scale.nodes,
              scale.jobs);

  // Derived seeds, one workload/system pair per sweep. Cells *within* a
  // sweep intentionally share them: every cell replays the same workload
  // under the same system stream, so differences are the treatment, not
  // sampling noise. The four streams must be distinct.
  const std::uint64_t seed_wl_a =
      derive_seed(scale.seed, SeedStream::kWorkload, /*salt=*/1);
  const std::uint64_t seed_sys_a =
      derive_seed(scale.seed, SeedStream::kSystem, /*salt=*/1);
  const std::uint64_t seed_wl_b =
      derive_seed(scale.seed, SeedStream::kWorkload, /*salt=*/2);
  const std::uint64_t seed_sys_b =
      derive_seed(scale.seed, SeedStream::kSystem, /*salt=*/2);
  assert_distinct_seeds({seed_wl_a, seed_sys_a, seed_wl_b, seed_sys_b});

  // --- sweep A: detector quality under lying networks ----------------------
  enum class Fault { kGray, kCongestion };
  struct Cell {
    MatchmakerKind kind;
    Fault fault;
  };
  std::vector<Cell> cells;
  for (MatchmakerKind kind : kinds) {
    for (Fault fault : {Fault::kGray, Fault::kCongestion}) {
      cells.push_back(Cell{kind, fault});
    }
  }

  const auto results = sim::run_sweep<CellResult>(
      cells.size(), scale.threads, [&](std::size_t i) {
        const Cell& cell = cells[i];
        const auto spec =
            make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4, seed_wl_a);
        grid::GridConfig gc = make_grid_config(cell.kind, seed_sys_a);
        gc.light_maintenance = false;
        gc.client.resubmit_base_sec = 300.0;
        gc.client.resubmit_runtime_factor = 8.0;
        gc.client.max_generations = 8;
        gc.node.heartbeat_period = sim::SimTime::seconds(5.0);
        gc.node.heartbeat_miss_threshold = 3;
        const auto pool_before = net::MessagePool::stats();
        grid::GridSystem system(gc, workload::generate(spec));
        system.build();
        // Background churn provides real deaths so detection latency is
        // measured, not only FP behavior.
        sim::ChurnModel churn;
        churn.mean_lifetime_sec = 1200.0;
        churn.mean_downtime_sec = 120.0;
        churn.churn_fraction = 0.4;
        system.enable_churn(churn);
        net::FaultPlane& fp = system.network().fault_plane();
        sim::Simulator& simr = system.simulator();
        switch (cell.fault) {
          case Fault::kGray:
            // A sixth of the nodes go gray for a long window: alive, still
            // heartbeating, but 8x slower and dropping a quarter of traffic.
            simr.schedule_in(sim::SimTime::seconds(60.0), [&fp, &system] {
              for (net::NodeAddr n = 0;
                   n < system.node_count() / 6 && n < system.node_count();
                   ++n) {
                fp.set_gray(n, net::GrayFault{8.0, 0.25});
              }
            });
            simr.schedule_in(sim::SimTime::seconds(460.0), [&fp, &system] {
              for (net::NodeAddr n = 0;
                   n < system.node_count() / 6 && n < system.node_count();
                   ++n) {
                fp.clear_gray(n);
              }
            });
            break;
          case Fault::kCongestion:
            simr.schedule_in(sim::SimTime::seconds(60.0), [&fp] {
              fp.set_congestion(0.25, 2.0);
            });
            simr.schedule_in(sim::SimTime::seconds(460.0),
                             [&fp] { fp.clear_congestion(); });
            break;
        }
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  print_header("Detector quality under gray nodes / congestion (with churn)");
  std::printf("%-10s %-11s %10s %9s %9s %9s %9s\n", "matchmaker", "fault",
              "completed", "fp-evict", "fn-evict", "lat-p50", "lat-p99");
  BenchJson json = BenchJson::open(config, "churn_survival");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const CellResult& r = results[i];
    const char* fault = cell.fault == Fault::kGray ? "gray" : "congestion";
    std::printf("%-10s %-11s %9.1f%% %9llu %9llu %8.1fs %8.1fs\n",
                grid::matchmaker_name(cell.kind), fault,
                100.0 * r.completed_fraction,
                static_cast<unsigned long long>(r.fp_evictions),
                static_cast<unsigned long long>(r.fn_evictions),
                r.recovery_latency_p50, r.recovery_latency_p99);
    char label[64];
    std::snprintf(label, sizeof label, "%s/%s",
                  grid::matchmaker_name(cell.kind), fault);
    json.row(label, r);
  }

  // --- sweep B: 30% correlated crash burst ----------------------------------
  const auto bresults = sim::run_sweep<CellResult>(
      kinds.size(), scale.threads, [&](std::size_t i) {
        const auto spec =
            make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4, seed_wl_b);
        grid::GridConfig gc = make_grid_config(kinds[i], seed_sys_b);
        gc.light_maintenance = false;
        gc.client.resubmit_base_sec = 300.0;
        gc.client.resubmit_runtime_factor = 8.0;
        gc.client.max_generations = 8;
        gc.node.heartbeat_period = sim::SimTime::seconds(5.0);
        gc.node.heartbeat_miss_threshold = 3;
        const auto pool_before = net::MessagePool::stats();
        grid::GridSystem system(gc, workload::generate(spec));
        system.build();
        // Injector with no background churn: it only executes the burst and
        // the staggered rejoins.
        system.enable_churn(sim::ChurnModel{});
        sim::Simulator& simr = system.simulator();
        simr.schedule_in(sim::SimTime::seconds(120.0), [&system] {
          const auto victims = system.correlated_victims(0.30, 0.25);
          system.churn()->crash_burst_members(victims, 300.0);
        });
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  print_header("30% correlated crash burst (contiguous arc/slab, rejoin ~300s)");
  std::printf("%-10s %10s %10s %10s %12s\n", "matchmaker", "completed",
              "resubmits", "requeues", "gap-repairs");
  std::size_t survived = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const CellResult& r = bresults[i];
    std::printf("%-10s %9.1f%% %10llu %10llu %12llu\n",
                grid::matchmaker_name(kinds[i]), 100.0 * r.completed_fraction,
                static_cast<unsigned long long>(r.resubmissions),
                static_cast<unsigned long long>(r.requeues),
                static_cast<unsigned long long>(r.gap_repairs));
    char label[64];
    std::snprintf(label, sizeof label, "%s/burst30",
                  grid::matchmaker_name(kinds[i]));
    json.row(label, r);
    if (r.completed_fraction >= 0.99) ++survived;
  }
  std::printf("\nverdict: completion >= 99%% in %zu/%zu matchmakers\n",
              survived, kinds.size());
  if (json.active()) {
    std::printf("bench rows written to %s\n", json.path().c_str());
  }
  return 0;
}
