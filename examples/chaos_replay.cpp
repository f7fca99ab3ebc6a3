// Replay (or explore) one chaos schedule by seed.
//
// The chaos harness prints a command of this form whenever an invariant is
// violated; running it reproduces the exact fault schedule — same
// partitions, same crash bursts, same gray nodes — because everything is
// derived from the seed.
//
//   ./chaos_replay [--kind=rn-tree] [--seed=1] [--nodes=20] [--jobs=40]
//                  [--rounds=6] [--trace=1] [--correlated] [--flapping]
//
// --correlated / --flapping extend the drawn fault classes with
// topology-correlated crash bursts (a contiguous Chord arc / CAN slab) and
// rapid join-leave flapping; enabling them redraws the whole schedule, so
// they are part of the replay identity and appear in replay commands.
// Self-healing has no switch: φ-accrual liveness, the CAN gap check and the
// liveness oracle that classifies evictions run in every schedule.
//
// --matrix ignores the single-schedule flags and runs the standard 24-cell
// matrix (rn-tree/can/can-push x seeds 1..8) through parallel_for_cells;
// --extended appends the 12-cell extended matrix (x seeds 1..4, with
// correlated bursts and flapping). --threads=N sets the worker count
// (0 = hardware concurrency). Per-cell verdict lines print in cell order and
// are byte-identical for every thread count, so CI can diff a --threads=1
// pass against a parallel one.
//
// Exits 0 when every invariant holds; on violation prints the violations,
// writes chaos_<kind>_<seed>.jsonl if tracing, and exits 1.

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/chaos.h"
#include "sim/runner.h"

using namespace pgrid;

int main(int argc, char** argv) {
  Config config;
  // parse_args only understands key=value; the valueless switch forms the
  // harness prints in replay commands come back as leftovers.
  for (const std::string& token : config.parse_args(argc, argv)) {
    if (token == "--correlated") {
      config.set("correlated", "1");
    } else if (token == "--flapping") {
      config.set("flapping", "1");
    } else if (token == "--matrix") {
      config.set("matrix", "1");
    } else if (token == "--extended") {
      config.set("extended", "1");
    } else {
      std::fprintf(stderr, "chaos_replay: unrecognized argument %s\n",
                   token.c_str());
      return 2;
    }
  }

  if (config.get_bool("matrix", false)) {
    struct Cell {
      grid::MatchmakerKind kind;
      std::uint64_t seed;
      bool ext;
    };
    std::vector<Cell> cells;
    for (const grid::MatchmakerKind k :
         {grid::MatchmakerKind::kRnTree, grid::MatchmakerKind::kCanBasic,
          grid::MatchmakerKind::kCanPush}) {
      for (std::uint64_t s = 1; s <= 8; ++s) cells.push_back({k, s, false});
    }
    if (config.get_bool("extended", false)) {
      for (const grid::MatchmakerKind k :
           {grid::MatchmakerKind::kRnTree, grid::MatchmakerKind::kCanBasic,
            grid::MatchmakerKind::kCanPush}) {
        for (std::uint64_t s = 1; s <= 4; ++s) cells.push_back({k, s, true});
      }
    }
    std::vector<sim::ChaosReport> reports(cells.size());
    sim::parallel_for_cells(
        cells.size(),
        static_cast<std::size_t>(config.get_int("threads", 0)),
        [&](std::size_t i) {
          sim::ChaosConfig cell;
          cell.kind = cells[i].kind;
          cell.seed = cells[i].seed;
          if (cells[i].ext) {
            cell.enable_correlated = true;
            cell.enable_flapping = true;
          }
          reports[i] = sim::run_chaos(cell);
        });
    bool all_ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s\n", reports[i].summary().c_str());
      if (!reports[i].ok) {
        all_ok = false;
        for (const std::string& v : reports[i].violations) {
          std::printf("  VIOLATION: %s\n", v.c_str());
        }
        std::printf("  replay: %s\n", reports[i].replay_command.c_str());
      }
    }
    return all_ok ? 0 : 1;
  }

  sim::ChaosConfig cfg;
  const std::string kind = config.get_string("kind", "rn-tree");
  if (!sim::parse_matchmaker(kind, &cfg.kind)) {
    std::fprintf(stderr,
                 "chaos_replay: unknown --kind=%s (try rn-tree, can, "
                 "can-push, ttl-walk, centralized, random)\n",
                 kind.c_str());
    return 2;
  }
  cfg.seed = static_cast<std::uint64_t>(config.get_int("seed", 1));
  cfg.nodes = static_cast<std::size_t>(config.get_int("nodes", 20));
  cfg.jobs = static_cast<std::size_t>(config.get_int("jobs", 40));
  cfg.fault_rounds = static_cast<int>(config.get_int("rounds", 6));
  cfg.enable_correlated = config.get_bool("correlated", false);
  cfg.enable_flapping = config.get_bool("flapping", false);
  cfg.trace = config.get_bool("trace", false);
  cfg.verbose = config.get_bool("verbose", false);
  if (cfg.trace) {
    cfg.trace_jsonl_path = "chaos_" + kind + "_" +
                           std::to_string(cfg.seed) + ".jsonl";
  }

  const sim::ChaosReport report = sim::run_chaos(cfg);
  std::printf("%s\n", report.summary().c_str());
  if (!report.ok) {
    for (const std::string& v : report.violations) {
      std::printf("  VIOLATION: %s\n", v.c_str());
    }
    std::printf("  replay: %s\n", report.replay_command.c_str());
    if (!cfg.trace_jsonl_path.empty()) {
      std::printf("  trace:  %s\n", cfg.trace_jsonl_path.c_str());
    }
    return 1;
  }
  return 0;
}
