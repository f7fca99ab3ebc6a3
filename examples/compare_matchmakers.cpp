// Side-by-side comparison of every matchmaking framework on one identical
// workload — a miniature of the paper's whole evaluation, handy for getting
// a feel for the trade-offs before running the full benches.
//
//   ./compare_matchmakers [--nodes=150] [--jobs=900] [--constraint=0.4]
//                         [--clustered=0] [--threads=N]

#include <cstdio>
#include <vector>

#include "common/config.h"
#include "grid/grid_system.h"
#include "sim/runner.h"

using namespace pgrid;

int main(int argc, char** argv) {
  Config config;
  config.parse_args(argc, argv);

  workload::WorkloadSpec spec;
  spec.node_count = static_cast<std::size_t>(config.get_int("nodes", 150));
  spec.job_count = static_cast<std::size_t>(config.get_int("jobs", 900));
  spec.constraint_probability = config.get_double("constraint", 0.4);
  const bool clustered = config.get_bool("clustered", false);
  spec.node_mix =
      clustered ? workload::Mix::kClustered : workload::Mix::kMixed;
  spec.job_mix = spec.node_mix;
  spec.mean_runtime_sec = 60.0;
  spec.mean_interarrival_sec = 0.4;
  spec.seed = static_cast<std::uint64_t>(config.get_int("seed", 5));
  const workload::Workload w = workload::generate(spec);

  const std::vector<grid::MatchmakerKind> kinds{
      grid::MatchmakerKind::kCentralized, grid::MatchmakerKind::kRandom,
      grid::MatchmakerKind::kRnTree, grid::MatchmakerKind::kCanBasic,
      grid::MatchmakerKind::kCanPush};

  std::printf("compare_matchmakers: %zu nodes, %zu jobs, %s workload, "
              "constraint prob %.1f — identical job stream for all schemes\n\n",
              spec.node_count, spec.job_count,
              workload::mix_name(spec.node_mix), spec.constraint_probability);

  struct Row {
    double wait_avg, wait_sd, wait_p99, hops, msgs_per_job, load_cv;
    std::size_t completed;
  };
  const auto rows = sim::run_sweep<Row>(
      kinds.size(), static_cast<std::size_t>(config.get_int("threads", 0)),
      [&](std::size_t i) {
        grid::GridConfig gc;
        gc.kind = kinds[i];
        gc.seed = spec.seed + 100;
        gc.light_maintenance = true;
        gc.client.resubmit_base_sec = 1e9;  // steady state: no resubmission
        gc.horizon_slack_sec = 100000.0;
        grid::GridSystem system(gc, w);
        system.run();
        const auto& c = system.collector();
        const Samples waits = c.wait_times();
        Row row{};
        row.wait_avg = waits.empty() ? 0 : waits.mean();
        row.wait_sd = waits.empty() ? 0 : waits.stdev();
        row.wait_p99 = waits.empty() ? 0 : waits.quantile(0.99);
        row.hops = c.injection_hops_stats().mean() +
                   c.match_hops_stats().mean();
        row.msgs_per_job =
            static_cast<double>(system.net_stats().messages_sent) /
            static_cast<double>(spec.job_count);
        row.load_cv = c.jobs_per_node().cv();
        row.completed = c.completed_count();
        return row;
      });

  std::printf("%-13s %9s %9s %9s %9s %10s %9s %10s\n", "matchmaker",
              "wait-avg", "wait-sd", "wait-p99", "hops/job", "msgs/job",
              "load-cv", "completed");
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-13s %9.1f %9.1f %9.1f %9.2f %10.0f %9.3f %7zu/%zu\n",
                grid::matchmaker_name(kinds[i]), r.wait_avg, r.wait_sd,
                r.wait_p99, r.hops, r.msgs_per_job, r.load_cv, r.completed,
                spec.job_count);
  }

  std::printf("\nreading the table: 'centralized' is the omniscient target; "
              "'random' shows\nwhat ignoring load costs; the P2P schemes pay "
              "hops and messages for\ndecentralization. CAN struggles most "
              "when jobs are lightly constrained and\nnodes heterogeneous "
              "(try --constraint=0.4 vs --constraint=0.8, "
              "--clustered=1).\n");
  return 0;
}
