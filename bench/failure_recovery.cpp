// Regenerates the §2 robustness claims: the owner/run pair replicates the
// job profile and heartbeats detect failures, so single failures are
// absorbed without client involvement and only owner+run double failures
// need client resubmission.
//
//   failure_recovery [--nodes=500] [--jobs=2000] [--json=1] ...
//
// Sweeps mean node lifetime (infinity, 3600 s, 1200 s, 600 s) for each
// matchmaker and reports completion, recoveries, resubmissions, and the
// wait-time degradation under churn. A second sweep drives the fault plane
// directly — a partition that heals mid-run, sustained congestion loss, and
// gray (slow-lossy) nodes — and reports each cell's completion relative to
// the fault-free baseline. --json=1 emits one BENCH row per cell.

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
  // Churn runs disable light maintenance (failure detection needs live
  // overlay repair), so default below paper scale; --nodes/--jobs rescale.
  if (!config.has("nodes")) scale.nodes = 300;
  if (!config.has("jobs")) scale.jobs = 1200;

  const std::vector<MatchmakerKind> kinds{MatchmakerKind::kCentralized,
                                          MatchmakerKind::kRnTree,
                                          MatchmakerKind::kCanBasic};
  const std::vector<double> lifetimes{0.0, 3600.0, 1200.0, 600.0};  // 0 = none

  struct Cell {
    MatchmakerKind kind;
    double lifetime;
  };
  std::vector<Cell> cells;
  for (MatchmakerKind kind : kinds) {
    for (double lifetime : lifetimes) cells.push_back(Cell{kind, lifetime});
  }

  std::printf("failure_recovery: %zu nodes, %zu jobs; exponential node "
              "lifetimes, mean downtime 120 s, half the nodes churn\n",
              scale.nodes, scale.jobs);

  const auto results = sim::run_sweep<CellResult>(
      cells.size(), scale.threads, [&](std::size_t i) {
        const Cell& cell = cells[i];
        const auto spec = make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4,
                                    scale.seed + 17);
        grid::GridConfig gc = make_grid_config(cell.kind, scale.seed + 3);
        // Churn experiments need live failure detection and real client
        // resubmission deadlines (unlike the steady-state benches).
        gc.light_maintenance = false;
        gc.client.resubmit_base_sec = 300.0;
        gc.client.resubmit_runtime_factor = 8.0;
        gc.client.max_generations = 8;
        gc.node.heartbeat_period = sim::SimTime::seconds(5.0);
        gc.node.heartbeat_miss_threshold = 3;
        const auto pool_before = net::MessagePool::stats();
        grid::GridSystem system(gc, workload::generate(spec));
        system.build();
        if (cell.lifetime > 0.0) {
          sim::ChurnModel churn;
          churn.mean_lifetime_sec = cell.lifetime;
          churn.mean_downtime_sec = 120.0;
          churn.churn_fraction = 0.5;
          system.enable_churn(churn);
        }
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  print_header("Job completion and recovery under churn");
  std::printf("%-13s %-10s %10s %10s %10s %10s %10s\n", "matchmaker",
              "lifetime", "completed", "wait-avg", "requeues", "resubmits",
              "wait-sd");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const CellResult& r = results[i];
    char lifetime[24];
    if (cell.lifetime == 0.0) {
      std::snprintf(lifetime, sizeof lifetime, "none");
    } else {
      std::snprintf(lifetime, sizeof lifetime, "%.0fs", cell.lifetime);
    }
    std::printf("%-13s %-10s %9.1f%% %10.1f %10llu %10llu %10.1f\n",
                grid::matchmaker_name(cell.kind), lifetime,
                100.0 * r.completed_fraction, r.wait_avg,
                static_cast<unsigned long long>(r.requeues),
                static_cast<unsigned long long>(r.resubmissions), r.wait_stdev);
  }
  std::printf("\nExpected shape: single failures are absorbed (requeues and\n"
              "owner handoffs, near-100%% completion); resubmissions appear\n"
              "only for owner+run double failures and stay small.\n");

  BenchJson json = BenchJson::open(config, "failure_recovery");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    char label[48];
    std::snprintf(label, sizeof label, "%s/lifetime-%.0f",
                  grid::matchmaker_name(cells[i].kind), cells[i].lifetime);
    json.row(label, results[i]);
  }

  // --- fault-plane sweep ---------------------------------------------------
  // No churn here: the network itself misbehaves. A partition cuts the grid
  // in half and heals; congestion drops a fifth of all traffic; gray nodes
  // stay up but answer slowly and lossily. Completion is reported relative
  // to the fault-free baseline of the same matchmaker.
  enum class Fault { kNone, kPartition, kLoss, kGray };
  const std::vector<std::pair<Fault, const char*>> faults{
      {Fault::kNone, "baseline"},
      {Fault::kPartition, "partition-heal"},
      {Fault::kLoss, "loss-20%"},
      {Fault::kGray, "gray-nodes"}};
  const std::vector<MatchmakerKind> fault_kinds{MatchmakerKind::kRnTree,
                                                MatchmakerKind::kCanBasic,
                                                MatchmakerKind::kCanPush};
  struct FaultCell {
    MatchmakerKind kind;
    Fault fault;
  };
  std::vector<FaultCell> fcells;
  for (MatchmakerKind kind : fault_kinds) {
    for (const auto& [fault, name] : faults) {
      fcells.push_back(FaultCell{kind, fault});
    }
  }

  const auto fresults = sim::run_sweep<CellResult>(
      fcells.size(), scale.threads, [&](std::size_t i) {
        const FaultCell& cell = fcells[i];
        const auto spec = make_spec(scale, Mix::kMixed, Mix::kMixed, 0.4,
                                    scale.seed + 29);
        grid::GridConfig gc = make_grid_config(cell.kind, scale.seed + 7);
        gc.light_maintenance = false;
        gc.client.resubmit_base_sec = 300.0;
        gc.client.resubmit_runtime_factor = 8.0;
        gc.client.max_generations = 8;
        const auto pool_before = net::MessagePool::stats();
        grid::GridSystem system(gc, workload::generate(spec));
        system.build();
        net::FaultPlane& fp = system.network().fault_plane();
        sim::Simulator& simr = system.simulator();
        switch (cell.fault) {
          case Fault::kNone:
            break;
          case Fault::kPartition: {
            // Even/odd split from t=60 s, healed at t=180 s.
            std::vector<net::NodeAddr> a, b;
            for (std::size_t n = 0; n < scale.nodes; ++n) {
              (n % 2 == 0 ? a : b).push_back(static_cast<net::NodeAddr>(n));
            }
            simr.schedule_in(sim::SimTime::seconds(60.0),
                             [&fp, a = std::move(a), b = std::move(b)] {
                               const auto id = fp.cut("bench", a, b);
                               fp.heal_after(id, sim::SimTime::seconds(120.0));
                             });
            break;
          }
          case Fault::kLoss:
            simr.schedule_in(sim::SimTime::seconds(60.0), [&fp] {
              fp.set_congestion(0.2, 1.5);
            });
            simr.schedule_in(sim::SimTime::seconds(240.0),
                             [&fp] { fp.clear_congestion(); });
            break;
          case Fault::kGray:
            simr.schedule_in(sim::SimTime::seconds(60.0), [&fp, &system] {
              for (net::NodeAddr n = 0; n < 4 && n < system.node_count();
                   ++n) {
                fp.set_gray(n, net::GrayFault{6.0, 0.1});
              }
            });
            simr.schedule_in(sim::SimTime::seconds(240.0), [&fp, &system] {
              for (net::NodeAddr n = 0; n < 4 && n < system.node_count();
                   ++n) {
                fp.clear_gray(n);
              }
            });
            break;
        }
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  print_header("Completion under network faults (vs fault-free baseline)");
  std::printf("%-13s %-15s %10s %10s %10s %10s\n", "matchmaker", "fault",
              "completed", "vs-base", "wait-avg", "resubmits");
  for (std::size_t i = 0; i < fcells.size(); ++i) {
    const FaultCell& cell = fcells[i];
    const CellResult& r = fresults[i];
    // The baseline cell of this matchmaker leads its group of faults.
    const CellResult& base = fresults[(i / faults.size()) * faults.size()];
    const double ratio = base.completed_fraction > 0.0
                             ? r.completed_fraction / base.completed_fraction
                             : 0.0;
    std::printf("%-13s %-15s %9.1f%% %9.1f%% %10.1f %10llu\n",
                grid::matchmaker_name(cell.kind), faults[i % faults.size()].second,
                100.0 * r.completed_fraction, 100.0 * ratio, r.wait_avg,
                static_cast<unsigned long long>(r.resubmissions));
    char label[48];
    std::snprintf(label, sizeof label, "%s/%s",
                  grid::matchmaker_name(cell.kind),
                  faults[i % faults.size()].second);
    json.row(label, fresults[i]);
  }
  std::printf("\nExpected shape: the partitioned-then-healed grid completes\n"
              ">= 99%% of the fault-free baseline; loss and gray windows cost\n"
              "wait time (retries, backoff) but not completion.\n");

  // Detector quality across both sweeps: oracle-classified evictions and
  // death-to-eviction latency. p50/p99 are averaged over cells that saw at
  // least one real eviction.
  std::uint64_t fp_total = 0, fn_total = 0;
  double p50_sum = 0.0, p99_sum = 0.0;
  std::size_t latency_cells = 0;
  for (const auto* sweep : {&results, &fresults}) {
    for (const CellResult& r : *sweep) {
      fp_total += r.fp_evictions;
      fn_total += r.fn_evictions;
      if (r.recovery_latency_p50 > 0.0) {
        p50_sum += r.recovery_latency_p50;
        p99_sum += r.recovery_latency_p99;
        ++latency_cells;
      }
    }
  }
  std::printf("\ndetector: %llu false-positive evictions, %llu late "
              "detections; recovery latency p50=%.1fs p99=%.1fs (over %zu "
              "cells with evictions)\n",
              static_cast<unsigned long long>(fp_total),
              static_cast<unsigned long long>(fn_total),
              latency_cells ? p50_sum / static_cast<double>(latency_cells)
                            : 0.0,
              latency_cells ? p99_sum / static_cast<double>(latency_cells)
                            : 0.0,
              latency_cells);
  if (json.active()) {
    std::printf("bench rows written to %s\n", json.path().c_str());
  }
  return 0;
}
