#include "sim/chaos.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "can/geometry.h"
#include "common/hash.h"
#include "grid/grid_system.h"
#include "net/fault_plane.h"
#include "workload/workload.h"

namespace pgrid::sim {

namespace {

/// One scheduled fault episode, fully drawn up front so the schedule is a
/// pure function of the seed.
struct FaultRound {
  enum class Kind {
    kPartition,
    kCrashBurst,
    kCongestion,
    kGray,
    kDuplication,
    kReorder,
    kCorrelatedBurst,
    kFlapping,
  };
  Kind kind = Kind::kPartition;
  double start_sec = 0.0;
  double duration_sec = 0.0;

  // Partition parameters.
  std::vector<net::NodeAddr> side_a;
  std::vector<net::NodeAddr> side_b;
  bool one_way = false;

  double fraction = 0.0;      // crash burst
  double loss = 0.0;          // congestion / gray
  double latency_scale = 1.0; // congestion / gray
  std::vector<net::NodeAddr> gray_nodes;
  double probability = 0.0;   // duplication / reorder
  double window_sec = 0.0;    // reorder
  double start_u = 0.0;       // correlated burst / flapping: arc position
  double up_sec = 0.0;        // flapping: mean up dwell
  double down_sec = 0.0;      // flapping: mean down dwell
};

std::vector<FaultRound> draw_schedule(const ChaosConfig& cfg, Rng& rng) {
  std::vector<FaultRound::Kind> classes;
  if (cfg.enable_partitions) classes.push_back(FaultRound::Kind::kPartition);
  if (cfg.enable_crashes) classes.push_back(FaultRound::Kind::kCrashBurst);
  if (cfg.enable_loss) classes.push_back(FaultRound::Kind::kCongestion);
  if (cfg.enable_gray) classes.push_back(FaultRound::Kind::kGray);
  if (cfg.enable_duplication) {
    classes.push_back(FaultRound::Kind::kDuplication);
  }
  if (cfg.enable_reorder) classes.push_back(FaultRound::Kind::kReorder);
  // New classes append after the legacy six: with them off (the default)
  // the class vector — and every draw below — is unchanged for old seeds.
  if (cfg.enable_correlated) {
    classes.push_back(FaultRound::Kind::kCorrelatedBurst);
  }
  if (cfg.enable_flapping) classes.push_back(FaultRound::Kind::kFlapping);

  std::vector<FaultRound> schedule;
  if (classes.empty()) return schedule;
  schedule.reserve(static_cast<std::size_t>(cfg.fault_rounds));
  for (int r = 0; r < cfg.fault_rounds; ++r) {
    FaultRound round;
    round.kind = classes[rng.index(classes.size())];
    round.start_sec = rng.uniform(5.0, cfg.fault_window_sec);
    round.duration_sec = rng.uniform(15.0, cfg.max_fault_duration_sec);
    switch (round.kind) {
      case FaultRound::Kind::kPartition: {
        for (std::size_t i = 0; i < cfg.nodes; ++i) {
          const auto addr = static_cast<net::NodeAddr>(i);
          (rng.bernoulli(0.5) ? round.side_a : round.side_b).push_back(addr);
        }
        // A one-sided draw is no partition at all; force a minimal split.
        if (round.side_a.empty()) {
          round.side_a.push_back(round.side_b.back());
          round.side_b.pop_back();
        }
        if (round.side_b.empty()) {
          round.side_b.push_back(round.side_a.back());
          round.side_a.pop_back();
        }
        round.one_way = rng.bernoulli(0.25);
        break;
      }
      case FaultRound::Kind::kCrashBurst:
        round.fraction = rng.uniform(0.1, 0.3);
        break;
      case FaultRound::Kind::kCongestion:
        round.loss = rng.uniform(0.05, 0.25);
        round.latency_scale = rng.uniform(1.0, 2.0);
        break;
      case FaultRound::Kind::kGray: {
        std::vector<net::NodeAddr> all;
        all.reserve(cfg.nodes);
        for (std::size_t i = 0; i < cfg.nodes; ++i) {
          all.push_back(static_cast<net::NodeAddr>(i));
        }
        rng.shuffle(all);
        const std::size_t count = 1 + rng.index(3);
        all.resize(std::min(count, all.size()));
        round.gray_nodes = std::move(all);
        round.latency_scale = rng.uniform(4.0, 10.0);
        round.loss = rng.uniform(0.0, 0.15);
        break;
      }
      case FaultRound::Kind::kDuplication:
        round.probability = rng.uniform(0.1, 0.4);
        break;
      case FaultRound::Kind::kReorder:
        round.probability = rng.uniform(0.1, 0.4);
        round.window_sec = rng.uniform(0.05, 0.4);
        break;
      case FaultRound::Kind::kCorrelatedBurst:
        round.fraction = rng.uniform(0.15, 0.35);
        round.start_u = rng.uniform();
        break;
      case FaultRound::Kind::kFlapping:
        round.fraction = rng.uniform(0.05, 0.2);
        round.start_u = rng.uniform();
        round.up_sec = rng.uniform(3.0, 10.0);
        round.down_sec = rng.uniform(2.0, 8.0);
        break;
    }
    schedule.push_back(std::move(round));
  }
  return schedule;
}

void arm_schedule(const std::vector<FaultRound>& schedule,
                  grid::GridSystem& system, net::FaultPlane& fp) {
  Simulator& sim = system.simulator();
  int round_no = 0;
  for (const FaultRound& round : schedule) {
    ++round_no;
    const SimTime start = SimTime::seconds(round.start_sec);
    const SimTime end = SimTime::seconds(round.start_sec + round.duration_sec);
    switch (round.kind) {
      case FaultRound::Kind::kPartition:
        sim.schedule_in(start, [&fp, &round, round_no] {
          const auto id =
              fp.cut("round" + std::to_string(round_no), round.side_a,
                     round.side_b, round.one_way);
          fp.heal_after(id, SimTime::seconds(round.duration_sec));
        });
        break;
      case FaultRound::Kind::kCrashBurst:
        sim.schedule_in(start, [&system, &round] {
          system.churn()->crash_burst(round.fraction, round.duration_sec);
        });
        break;
      case FaultRound::Kind::kCongestion:
        sim.schedule_in(start, [&fp, &round] {
          fp.set_congestion(round.loss, round.latency_scale);
        });
        sim.schedule_in(end, [&fp] { fp.clear_congestion(); });
        break;
      case FaultRound::Kind::kGray:
        sim.schedule_in(start, [&fp, &round] {
          for (const net::NodeAddr n : round.gray_nodes) {
            fp.set_gray(n, net::GrayFault{round.latency_scale, round.loss});
          }
        });
        sim.schedule_in(end, [&fp, &round] {
          for (const net::NodeAddr n : round.gray_nodes) fp.clear_gray(n);
        });
        break;
      case FaultRound::Kind::kDuplication:
        sim.schedule_in(
            start, [&fp, &round] { fp.set_duplication(round.probability); });
        sim.schedule_in(end, [&fp] { fp.set_duplication(0.0); });
        break;
      case FaultRound::Kind::kReorder:
        sim.schedule_in(start, [&fp, &round] {
          fp.set_reorder(round.probability, SimTime::seconds(round.window_sec));
        });
        sim.schedule_in(end,
                        [&fp] { fp.set_reorder(0.0, SimTime::zero()); });
        break;
      case FaultRound::Kind::kCorrelatedBurst:
        // Victims are resolved at fire time against the then-current live
        // membership: a contiguous overlay arc/slab, not a uniform sample.
        sim.schedule_in(start, [&system, &round] {
          const auto victims =
              system.correlated_victims(round.fraction, round.start_u);
          system.churn()->crash_burst_members(victims, round.duration_sec);
        });
        break;
      case FaultRound::Kind::kFlapping:
        sim.schedule_in(start, [&system, &round] {
          const auto victims =
              system.correlated_victims(round.fraction, round.start_u);
          system.churn()->flap(victims, round.up_sec, round.down_sec,
                               round.duration_sec);
        });
        break;
    }
  }
}

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void check_exactly_once(const std::vector<int>& terminal_count,
                        const std::vector<int>& completion_count,
                        ChaosReport* report) {
  for (std::size_t seq = 0; seq < terminal_count.size(); ++seq) {
    if (terminal_count[seq] != 1) {
      report->violations.push_back(
          format("job %zu reached a terminal state %d times (want 1)", seq,
                 terminal_count[seq]));
    }
    if (completion_count[seq] > 1) {
      report->violations.push_back(format(
          "job %zu completed %d times (duplicate result accepted twice)", seq,
          completion_count[seq]));
    }
  }
}

void check_chord_convergence(grid::GridSystem& system, ChaosReport* report) {
  std::vector<grid::GridNode*> live;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    grid::GridNode& n = system.node(i);
    if (n.running() && n.chord() != nullptr) live.push_back(&n);
  }
  if (live.size() < 2) return;
  std::sort(live.begin(), live.end(),
            [](const grid::GridNode* a, const grid::GridNode* b) {
              return a->id() < b->id();
            });
  for (std::size_t i = 0; i < live.size(); ++i) {
    const grid::GridNode& node = *live[i];
    const grid::GridNode& expected = *live[(i + 1) % live.size()];
    const chord::Peer actual = live[i]->chord()->successor();
    if (actual.addr != expected.addr()) {
      report->violations.push_back(format(
          "chord ring diverged: node %u's successor is addr %u, want the "
          "next live node %u",
          node.addr(), actual.addr, expected.addr()));
    }
  }
}

void check_can_coverage(grid::GridSystem& system, Rng probe_rng,
                        ChaosReport* report) {
  std::vector<grid::GridNode*> live;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    grid::GridNode& n = system.node(i);
    if (n.running() && n.can() != nullptr) live.push_back(&n);
  }
  if (live.empty()) return;
  constexpr int kProbes = 64;
  for (int p = 0; p < kProbes; ++p) {
    can::Point point(grid::kCanDims);
    for (std::size_t d = 0; d < grid::kCanDims; ++d) {
      point[d] = probe_rng.uniform();
    }
    int owners = 0;
    for (grid::GridNode* node : live) {
      if (node->can()->owns(point)) ++owners;
    }
    if (owners != 1) {
      report->violations.push_back(
          format("CAN zones do not tile: probe %s has %d owners (want 1)",
                 point.str().c_str(), owners));
    }
  }
}

void check_monitor_leaks(grid::GridSystem& system, ChaosReport* report) {
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    grid::GridNode& n = system.node(i);
    if (!n.running()) continue;
    for (const std::uint64_t seq : n.owned_seqs()) {
      report->violations.push_back(format(
          "monitor leak: node %u still owns job %llu after quiescence",
          n.addr(), static_cast<unsigned long long>(seq)));
    }
    for (const std::uint64_t seq : n.queued_seqs()) {
      report->violations.push_back(format(
          "queue leak: node %u still queues job %llu after quiescence",
          n.addr(), static_cast<unsigned long long>(seq)));
    }
  }
}

}  // namespace

std::string ChaosConfig::replay_command() const {
  std::string cmd =
      format("./build/examples/chaos_replay --kind=%s --seed=%llu "
             "--nodes=%zu --jobs=%zu",
             grid::matchmaker_name(kind),
             static_cast<unsigned long long>(seed), nodes, jobs);
  // Extended flags appear only when set, so legacy replay lines are
  // byte-identical to what the 24-run matrix always printed.
  if (enable_correlated) cmd += " --correlated";
  if (enable_flapping) cmd += " --flapping";
  return cmd;
}

std::string ChaosReport::summary() const {
  std::string line = format(
      "chaos kind=%s seed=%llu %s: completed=%llu/%zu abandoned=%llu "
      "dup_results=%llu crashes=%llu recoveries=%llu partitions=%llu/%llu "
      "drops(part=%llu fault=%llu) dup=%llu reorder=%llu t=%.0fs",
      grid::matchmaker_name(config.kind),
      static_cast<unsigned long long>(config.seed), ok ? "OK" : "VIOLATED",
      static_cast<unsigned long long>(stats.completed), config.jobs,
      static_cast<unsigned long long>(stats.abandoned),
      static_cast<unsigned long long>(stats.duplicate_results),
      static_cast<unsigned long long>(stats.crashes),
      static_cast<unsigned long long>(stats.recoveries),
      static_cast<unsigned long long>(stats.partitions_cut),
      static_cast<unsigned long long>(stats.partitions_healed),
      static_cast<unsigned long long>(stats.dropped_partition),
      static_cast<unsigned long long>(stats.dropped_fault),
      static_cast<unsigned long long>(stats.duplicated),
      static_cast<unsigned long long>(stats.reordered),
      stats.sim_duration_sec);
  line += format(" phi(susp=%llu fp=%llu fn=%llu) repairs=%llu",
                 static_cast<unsigned long long>(stats.suspicions),
                 static_cast<unsigned long long>(stats.fp_evictions),
                 static_cast<unsigned long long>(stats.fn_evictions),
                 static_cast<unsigned long long>(stats.repairs));
  return line;
}

bool parse_matchmaker(const std::string& name, grid::MatchmakerKind* out) {
  using grid::MatchmakerKind;
  static const std::map<std::string, MatchmakerKind> kNames = {
      {"centralized", MatchmakerKind::kCentralized},
      {"random", MatchmakerKind::kRandom},
      {"rn-tree", MatchmakerKind::kRnTree},
      {"rn_tree", MatchmakerKind::kRnTree},
      {"can", MatchmakerKind::kCanBasic},
      {"can-push", MatchmakerKind::kCanPush},
      {"can_push", MatchmakerKind::kCanPush},
      {"ttl-walk", MatchmakerKind::kTtlWalk},
      {"ttl_walk", MatchmakerKind::kTtlWalk},
  };
  const auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  *out = it->second;
  return true;
}

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport report;
  report.config = cfg;

  workload::WorkloadSpec spec;
  spec.node_count = cfg.nodes;
  spec.job_count = cfg.jobs;
  spec.mean_runtime_sec = cfg.mean_runtime_sec;
  spec.mean_interarrival_sec = cfg.mean_interarrival_sec;
  spec.client_count = 2;
  spec.seed = cfg.seed;

  grid::GridConfig gcfg;
  gcfg.kind = cfg.kind;
  gcfg.seed = cfg.seed;
  // Generous generation budget: under heavy faults completion must win
  // eventually; abandonment would hide lost jobs from the leak check.
  gcfg.client.max_generations = 12;
  gcfg.client.resubmit_base_sec = 60.0;
  gcfg.client.resubmit_runtime_factor = 2.0;
  gcfg.obs.trace = cfg.trace;

  grid::GridSystem system(gcfg, workload::generate(spec));
  system.build();
  // Churn model with no background crashes: the injector only executes the
  // schedule's bursts (and their recoveries).
  system.enable_churn(ChurnModel{});

  std::vector<int> terminal_count(cfg.jobs, 0);
  std::vector<int> completion_count(cfg.jobs, 0);
  for (std::size_t c = 0; c < system.client_count(); ++c) {
    system.client(c).on_job_terminal = [&terminal_count, &completion_count](
                                           std::uint64_t seq, bool ok) {
      ++terminal_count[seq];
      if (ok) ++completion_count[seq];
    };
  }

  // The whole schedule is a pure function of the seed.
  Rng chaos_rng(hash_combine(mix64(cfg.seed), 0x9e3779b97f4a7c15ULL));
  const std::vector<FaultRound> schedule = draw_schedule(cfg, chaos_rng);
  if (cfg.verbose) {
    static const char* kKindNames[] = {
        "partition",  "crash-burst",      "congestion", "gray",
        "duplication", "reorder",         "correlated-burst", "flapping"};
    for (const FaultRound& r : schedule) {
      std::fprintf(stderr,
                   "chaos-schedule %s t=[%.0f,%.0f] frac=%.2f loss=%.2f "
                   "scale=%.1f p=%.2f win=%.2f gray=%zu one_way=%d\n",
                   kKindNames[static_cast<int>(r.kind)], r.start_sec,
                   r.start_sec + r.duration_sec, r.fraction, r.loss,
                   r.latency_scale, r.probability, r.window_sec,
                   r.gray_nodes.size(), r.one_way ? 1 : 0);
    }
  }
  net::FaultPlane& fp = system.network().fault_plane();
  arm_schedule(schedule, system, fp);
  std::unique_ptr<PeriodicTask> heartbeat;
  if (cfg.verbose) {
    heartbeat = std::make_unique<PeriodicTask>(
        system.simulator(), SimTime::seconds(10.0), [&system] {
          std::size_t terminal = 0;
          for (std::size_t c = 0; c < system.client_count(); ++c) {
            terminal += system.client(c).completed() +
                        system.client(c).abandoned();
          }
          const net::NetworkStats& hb = system.net_stats();
          std::uint64_t lk_started = 0, lk_ok = 0, lk_failed = 0;
          double lk_hops = 0.0;
          for (std::size_t i = 0; i < system.node_count(); ++i) {
            if (system.node(i).chord() == nullptr) continue;
            const chord::ChordStats& cs = system.node(i).chord()->stats();
            lk_started += cs.lookups_started;
            lk_ok += cs.lookups_ok;
            lk_failed += cs.lookups_failed;
            lk_hops += cs.lookup_hops.sum();
          }
          std::fprintf(stderr,
                       "chaos-heartbeat t=%.0fs terminal=%zu sent=%llu "
                       "delivered=%llu dropped=%llu lookups=%llu/%llu/%llu "
                       "hops=%.0f\n",
                       system.simulator().now().sec(), terminal,
                       static_cast<unsigned long long>(hb.messages_sent),
                       static_cast<unsigned long long>(hb.messages_delivered),
                       static_cast<unsigned long long>(
                           hb.messages_dropped_partition +
                           hb.messages_dropped_fault +
                           hb.messages_dropped_loss +
                           hb.messages_dropped_dead),
                       static_cast<unsigned long long>(lk_started),
                       static_cast<unsigned long long>(lk_ok),
                       static_cast<unsigned long long>(lk_failed), lk_hops);
          for (std::size_t k = 0; k < net::NetworkStats::kKindSlots; ++k) {
            if (hb.sent_by_kind[k] > 5000) {
              std::fprintf(
                  stderr, "  kind=0x%zx sent=%llu\n", k,
                  static_cast<unsigned long long>(hb.sent_by_kind[k]));
            }
          }
        });
  }
  // Barrier: whatever the rounds left armed is cleared here, so the settle
  // period always starts from a fault-free network.
  const SimTime barrier = SimTime::seconds(
      cfg.fault_window_sec + cfg.max_fault_duration_sec + 5.0);
  system.simulator().schedule_in(barrier, [&fp] { fp.clear_all(); });

  system.run();
  // Settle counts from the barrier: if the workload finished early the sim
  // must still advance past it (and the rounds' own end events) before the
  // quiescence and convergence checks run.
  const double now_sec = system.simulator().now().sec();
  system.run_for(std::max(barrier.sec() - now_sec, 0.0) + cfg.settle_sec);

  // --- invariants ----------------------------------------------------------
  check_exactly_once(terminal_count, completion_count, &report);
  if (grid::uses_chord(cfg.kind)) check_chord_convergence(system, &report);
  if (grid::uses_can(cfg.kind)) {
    check_can_coverage(system, chaos_rng.fork(0x10ca1), &report);
  }
  const bool all_terminal =
      std::all_of(terminal_count.begin(), terminal_count.end(),
                  [](int c) { return c == 1; });
  if (all_terminal) check_monitor_leaks(system, &report);
  if (!fp.quiescent()) {
    report.violations.emplace_back(
        "fault plane still armed after the clear_all barrier");
  }

  report.ok = report.violations.empty();
  if (!report.ok) {
    report.replay_command = cfg.replay_command();
    if (cfg.trace && !cfg.trace_jsonl_path.empty() &&
        system.trace_bus() != nullptr) {
      system.trace_bus()->export_jsonl(cfg.trace_jsonl_path);
    }
  }

  ChaosStats& st = report.stats;
  for (std::size_t c = 0; c < system.client_count(); ++c) {
    st.completed += system.client(c).completed();
    st.abandoned += system.client(c).abandoned();
    st.duplicate_results += system.client(c).duplicate_results();
  }
  st.crashes = system.churn()->crashes();
  st.recoveries = system.churn()->recoveries();
  st.partitions_cut = fp.partitions_cut();
  st.partitions_healed = fp.partitions_healed();
  const net::NetworkStats& ns = system.net_stats();
  st.dropped_partition = ns.messages_dropped_partition;
  st.dropped_fault = ns.messages_dropped_fault;
  st.duplicated = ns.messages_duplicated;
  st.reordered = ns.messages_reordered;
  st.batches_sent = ns.batches_sent;
  st.batch_parts_sent = ns.batch_parts_sent;
  st.batches_delivered = ns.batches_delivered;
  st.sim_duration_sec = system.simulator().now().sec();
  const grid::GridNodeStats agg = system.aggregate_node_stats();
  st.fp_evictions = agg.fp_evictions;
  st.fn_evictions = agg.fn_evictions;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    grid::GridNode& n = system.node(i);
    if (n.chord() != nullptr) {
      st.suspicions += n.chord()->stats().suspicions;
      st.repairs += n.chord()->stats().succ_refreshes;
    }
    if (n.can() != nullptr) {
      st.suspicions += n.can()->stats().suspicions;
      st.repairs += n.can()->stats().gap_repairs;
    }
    if (n.rntree() != nullptr) {
      st.suspicions += n.rntree()->stats().suspicions;
    }
  }
  return report;
}

}  // namespace pgrid::sim
