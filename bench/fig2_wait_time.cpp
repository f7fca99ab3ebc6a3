// Regenerates Figure 2 of the paper: average and standard deviation of job
// wait time for clustered and mixed workloads, lightly (avg 1.2/3) vs
// heavily (avg 2.4/3) constrained jobs, comparing CAN-based matchmaking,
// the RN-Tree, and the omniscient centralized scheduler.
//
//   fig2_wait_time [--nodes=1000] [--jobs=5000] [--replicates=1]
//                  [--threads=N] [--seed=1] [--with-push=0]
//
// Expected shape (paper §3.3): centralized <= RN ~ CAN in most scenarios;
// CAN degrades badly on lightly-constrained mixed workloads (Fig. 2(c,d)).

#include <array>

#include "bench/bench_util.h"

namespace {

using namespace pgrid;
using namespace pgrid::bench;
using grid::MatchmakerKind;
using workload::Mix;

struct Cell {
  Mix mix;            // both nodes and jobs (the paper's two panels)
  double constraint;  // 0.4 light, 0.8 heavy
  MatchmakerKind kind;
  std::size_t replicate;
};

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.parse_args(argc, argv);
  const Scale scale = Scale::from_config(config);
  const bool with_push = config.get_bool("with-push", false);

  std::vector<MatchmakerKind> kinds{MatchmakerKind::kCanBasic,
                                    MatchmakerKind::kRnTree,
                                    MatchmakerKind::kCentralized};
  if (with_push) kinds.push_back(MatchmakerKind::kCanPush);

  const std::array<Mix, 2> mixes{Mix::kClustered, Mix::kMixed};
  const std::array<double, 2> constraints{0.4, 0.8};

  // Enumerate all cells, run them in parallel, then group for printing.
  std::vector<Cell> cells;
  for (Mix mix : mixes) {
    for (double p : constraints) {
      for (MatchmakerKind kind : kinds) {
        for (std::size_t r = 0; r < scale.replicates; ++r) {
          cells.push_back(Cell{mix, p, kind, r});
        }
      }
    }
  }

  std::printf("fig2_wait_time: %zu nodes, %zu jobs, %zu replicate(s), "
              "mean runtime %.0fs, mean inter-arrival %.2fs\n",
              scale.nodes, scale.jobs, scale.replicates,
              scale.mean_runtime_sec, scale.mean_interarrival_sec);

  const auto results = sim::run_sweep<CellResult>(
      cells.size(), scale.threads, [&](std::size_t i) {
        const Cell& cell = cells[i];
        // The workload (hence its seed) is shared by all schemes in a cell
        // group, so every matchmaker sees the identical job stream.
        const std::uint64_t wl_seed =
            hash_combine(scale.seed,
                         hash_combine(static_cast<std::uint64_t>(cell.mix),
                                      mix64(cell.replicate * 1000 +
                                            (cell.constraint > 0.5 ? 1 : 0))));
        const auto spec = make_spec(scale, cell.mix, cell.mix,
                                    cell.constraint, wl_seed);
        grid::GridConfig gc = make_grid_config(cell.kind, wl_seed ^ 0x5bd1e995);
        const auto pool_before = net::MessagePool::stats();
        grid::GridSystem system(gc, workload::generate(spec));
        system.run();
        CellResult r = summarize(system);
        attach_pool_stats(r, pool_before);
        return r;
      });

  auto cell_avg = [&](Mix mix, double p, MatchmakerKind kind) {
    std::vector<CellResult> group;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].mix == mix && cells[i].constraint == p &&
          cells[i].kind == kind) {
        group.push_back(results[i]);
      }
    }
    return average(group);
  };

  const char* panel_names[2][2] = {{"Figure 2(a): Average Job Wait Time (s)",
                                    "Figure 2(b): STDEV of Job Wait Time (s)"},
                                   {"Figure 2(c): Average Job Wait Time (s)",
                                    "Figure 2(d): STDEV of Job Wait Time (s)"}};

  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (int panel = 0; panel < 2; ++panel) {
      print_header(std::string(panel_names[m][panel]) + " — " +
                   workload::mix_name(mixes[m]) + " workloads");
      std::printf("%-22s", "constraints");
      for (MatchmakerKind kind : kinds) {
        std::printf("%14s", grid::matchmaker_name(kind));
      }
      std::printf("\n");
      for (double p : constraints) {
        std::printf("%-22s", p < 0.5 ? "light (avg 1.2/3)" : "heavy (avg 2.4/3)");
        for (MatchmakerKind kind : kinds) {
          const CellResult r = cell_avg(mixes[m], p, kind);
          std::printf("%14.1f", panel == 0 ? r.wait_avg : r.wait_stdev);
        }
        std::printf("\n");
      }
    }
  }

  // Sanity footer: completion rates (all schemes must finish the workload).
  print_header("Completion fraction (sanity)");
  for (Mix mix : mixes) {
    for (double p : constraints) {
      std::printf("%-10s %-7s", workload::mix_name(mix),
                  p < 0.5 ? "light" : "heavy");
      for (MatchmakerKind kind : kinds) {
        std::printf("%14.3f", cell_avg(mix, p, kind).completed_fraction);
      }
      std::printf("\n");
    }
  }

  // Traffic + simulator-throughput summary, one line per cell average, and
  // an optional JSONL dump for regression tracking (--json=1 or --json=path).
  print_header("Traffic & throughput");
  BenchJson json = BenchJson::open(config, "fig2_wait_time");
  for (Mix mix : mixes) {
    for (double p : constraints) {
      for (MatchmakerKind kind : kinds) {
        const std::string label = std::string(workload::mix_name(mix)) + "/" +
                                  (p < 0.5 ? "light" : "heavy") + "/" +
                                  grid::matchmaker_name(kind);
        const CellResult r = cell_avg(mix, p, kind);
        print_summary_line(label, r);
        json.row(label, r);
      }
    }
  }
  if (json.active()) std::printf("\nwrote %s\n", json.path().c_str());
  return 0;
}
