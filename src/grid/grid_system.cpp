#include "grid/grid_system.h"

#include <algorithm>
#include <string>

#include "can/space.h"
#include "chord/ring.h"
#include "common/logging.h"
#include "net/message_pool.h"
#include "sim/shard_plan.h"

namespace pgrid::grid {

namespace {

Guid node_guid(std::uint64_t seed, std::size_t index) {
  return Guid::of(hash_combine(mix64(seed), mix64(index)));
}

}  // namespace

void apply_light_maintenance(GridNodeConfig* config) {
  PGRID_EXPECTS(config != nullptr);
  config->chord.stabilize_period = sim::SimTime::seconds(10.0);
  config->can.update_period = sim::SimTime::seconds(5.0);
  config->can.neighbor_timeout = sim::SimTime::seconds(17.0);
  config->rntree.aggregation_period = sim::SimTime::seconds(5.0);
  config->rntree.child_expiry = sim::SimTime::seconds(17.0);
}

GridSystem::GridSystem(GridConfig config, workload::Workload workload)
    : config_(config),
      workload_(std::move(workload)),
      collector_(workload_.jobs.size(), workload_.spec.node_count),
      rng_(mix64(config.seed) ^ 0xA5A5A5A5A5A5A5A5ULL) {
  PGRID_EXPECTS(!config_.obs.streaming_metrics);
  PGRID_EXPECTS(workload_.node_caps.size() == workload_.spec.node_count);
  const std::size_t shards = std::max<std::size_t>(config_.shards, 1);
  engine_ = std::make_unique<sim::ShardedEngine>(shards, config_.latency.min);
  // The bus seed is derived from the config seed without consuming rng_,
  // whose fork sequence is 1=networks, 2=nodes, 3=clients, 4=churn.
  bus_ = std::make_unique<net::ShardBus>(
      shards, hash_combine(mix64(config_.seed), 0x5348415244ULL));  // "SHARD"
  Rng net_rng = rng_.fork(1);
  nets_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    nets_.push_back(std::make_unique<net::Network>(
        engine_->shard(s), net_rng.fork(s), config_.latency,
        config_.loss_probability, bus_.get(), static_cast<std::uint32_t>(s)));
    if (shards > 1) {
      shard_collectors_.push_back(std::make_unique<metrics::Collector>(
          workload_.jobs.size(), workload_.spec.node_count));
    }
  }
}

GridSystem::~GridSystem() {
  if (owns_log_clock_) Logger::set_time_source(nullptr);
}

void GridSystem::build() {
  if (built_) return;
  built_ = true;
  obs::RunProfile::Timer build_timer(profile_, "build");
  const std::size_t shards = engine_->shards();
  if (shards > 1) {
    // Several shards carry the steady-state overlay planes only (DESIGN.md
    // §17). Every excluded feature is rejected here rather than silently
    // degraded; churn, crash/restart and the fault plane are rejected where
    // they are requested.
    PGRID_EXPECTS(uses_chord(config_.kind) || uses_can(config_.kind));
    PGRID_EXPECTS(!config_.obs.trace);
    PGRID_EXPECTS(config_.obs.sample_period_sec == 0.0);
    PGRID_EXPECTS(config_.obs.metrics_csv_path.empty());
    PGRID_EXPECTS(!config_.manual_submission);
  }

  // Log lines gain a sim-time prefix so they correlate with trace events.
  // Thread-local: parallel sweeps register one clock per worker thread, and
  // each shard worker points its own at its shard's clock.
  Logger::set_time_source(
      [clock = &engine_->shard(0)] { return clock->now().sec(); });
  owns_log_clock_ = true;
  engine_->set_thread_init([this](std::size_t s) {
    sim::Simulator* clock = &engine_->shard(s);
    Logger::set_time_source([clock] { return clock->now().sec(); });
  });

  GridNodeConfig node_config = config_.node;
  node_config.kind = config_.kind;
  if (config_.light_maintenance) apply_light_maintenance(&node_config);
  // Stats-only liveness ledger: every node classifies its evictions as false
  // positives / late detections (GridNodeStats::fp_evictions etc.). Only
  // crash_node/restart_node write down_since_, and several shards forbid
  // both, so worker threads read it without a race.
  down_since_.assign(workload_.spec.node_count, -1.0);

  if (config_.obs.trace) {
    trace_ = std::make_unique<obs::TraceBus>(simulator(),
                                             config_.obs.trace_capacity);
    trace_->set_trace_sampling(config_.obs.trace_sample_every);
    network().set_trace(trace_.get());
  }

  // Several shards partition the nodes into contiguous Guid-order arcs (the
  // ring order correlated_victims uses): overlay neighbours share a shard,
  // so most protocol traffic never crosses the bus. Guids are a pure
  // function of (seed, index) — the plan is identical for every run of this
  // config.
  const std::size_t n = workload_.spec.node_count;
  std::vector<std::uint32_t> shard_of(n, 0);
  if (shards > 1) {
    std::vector<Guid> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ids.push_back(node_guid(config_.seed, i));
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&ids](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
    shard_of = sim::plan_shards(order, static_cast<std::uint32_t>(shards))
                   .shard_of;
  }
  populate(node_config, shard_of);

  if (shards > 1) {
    bus_->freeze();
    engine_->set_drain([bus = bus_.get()](std::size_t s) {
      bus->drain_into(static_cast<std::uint32_t>(s));
    });
  }

  if (trace_ != nullptr) {
    for (const auto& node : nodes_) {
      trace_->set_actor_name(node->addr(),
                             "node " + std::to_string(node->index()));
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      trace_->set_actor_name(clients_[c]->addr(),
                             "client " + std::to_string(c));
    }
  }

  if (config_.obs.sample_period_sec > 0.0) {
    sim::Simulator* sim = &simulator();
    const net::NetworkStats* net = &network().stats();
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        *sim, sim::SimTime::seconds(config_.obs.sample_period_sec));
    sampler_->add_gauge("live_nodes", [this] {
      std::size_t live = 0;
      for (const auto& node : nodes_) live += node->running() ? 1 : 0;
      return static_cast<double>(live);
    });
    sampler_->add_gauge("busy_frac", [this] {
      std::size_t live = 0;
      std::size_t busy = 0;
      for (const auto& node : nodes_) {
        if (!node->running()) continue;
        ++live;
        busy += node->executing() ? 1 : 0;
      }
      return live == 0 ? 0.0
                       : static_cast<double>(busy) / static_cast<double>(live);
    });
    sampler_->add_gauge("queue_depth_avg", [this] {
      double total = 0.0;
      std::size_t live = 0;
      for (const auto& node : nodes_) {
        if (!node->running()) continue;
        ++live;
        total += node->queue_length();
      }
      return live == 0 ? 0.0 : total / static_cast<double>(live);
    });
    sampler_->add_gauge("queue_depth_max", [this] {
      double worst = 0.0;
      for (const auto& node : nodes_) {
        if (node->running()) worst = std::max(worst, node->queue_length());
      }
      return worst;
    });
    sampler_->add_gauge("sim_queue", [sim] {
      return static_cast<double>(sim->queued());
    });
    sampler_->add_gauge("sim_tombstones", [sim] {
      return static_cast<double>(sim->tombstones());
    });
    sampler_->add_rate("sim_events_per_sec", [sim] {
      return static_cast<double>(sim->executed());
    });
    sampler_->add_gauge("jobs_terminal", [this] {
      return static_cast<double>(terminal_jobs_);
    });
    sampler_->add_rate("msgs_sent_per_sec", [net] {
      return static_cast<double>(net->messages_sent);
    });
    sampler_->add_rate("msgs_delivered_per_sec", [net] {
      return static_cast<double>(net->messages_delivered);
    });
    sampler_->add_rate("bytes_sent_per_sec", [net] {
      return static_cast<double>(net->bytes_sent);
    });
  }

  // The registry exists whenever any consumer of it is configured: the
  // sampler (per-period columns) or the final metrics CSV snapshot.
  if (config_.obs.sample_period_sec > 0.0 ||
      !config_.obs.metrics_csv_path.empty()) {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    register_builtin_metrics();
    if (sampler_ != nullptr) sampler_->add_registry(*registry_);
  }
  if (sampler_ != nullptr) sampler_->start();
}

void GridSystem::populate(const GridNodeConfig& node_config,
                          const std::vector<std::uint32_t>& shard_of) {
  Rng node_rng = rng_.fork(2);
  nodes_.reserve(workload_.spec.node_count);
  for (std::size_t i = 0; i < workload_.spec.node_count; ++i) {
    nodes_.push_back(std::make_unique<GridNode>(
        *nets_[shard_of[i]], static_cast<std::uint32_t>(i),
        node_guid(config_.seed, i), workload_.node_caps[i], node_rng.uniform(),
        node_config, &central_, collector_of(shard_of[i]), &down_since_,
        node_rng.fork(i)));
    // Metrics and the central scheduler address nodes by network address;
    // registering nodes first makes address == index.
    PGRID_ASSERT(nodes_.back()->addr() == i);
    central_.register_node(nodes_.back().get());
  }

  // Wire the overlay the matchmaker needs (instant bootstrap: the paper's
  // experiments measure steady-state matchmaking, not join cost).
  if (uses_chord(config_.kind)) {
    std::vector<chord::ChordNode*> ring;
    ring.reserve(nodes_.size());
    for (auto& n : nodes_) ring.push_back(n->chord());
    const std::vector<chord::Peer> sorted = chord::wire_ring_instantly(ring);
    // Each RN-tree parent is known once the ring is: install it, so the
    // first aggregation round pushes instead of looking the parent up.
    for (auto& n : nodes_) {
      rntree::RnTreeService* rn = n->rntree();
      if (rn != nullptr && !rn->is_root()) {
        rn->install_parent(chord::ring_successor(sorted, rn->parent_key()));
      }
    }
  } else if (uses_can(config_.kind)) {
    std::vector<can::CanNode*> space;
    space.reserve(nodes_.size());
    for (auto& n : nodes_) space.push_back(n->can());
    can::wire_space_instantly(space, kCanDims);
  }
  for (auto& n : nodes_) n->start();

  // Clients and the job schedule. Clients round-robin across shards; their
  // rng streams and addresses are shard-count-independent.
  std::vector<net::NodeAddr> pool;
  pool.reserve(nodes_.size());
  for (auto& n : nodes_) pool.push_back(n->addr());

  Rng client_rng = rng_.fork(3);
  clients_.reserve(workload_.spec.client_count);
  for (std::size_t c = 0; c < workload_.spec.client_count; ++c) {
    const std::size_t s = c % nets_.size();
    clients_.push_back(std::make_unique<Client>(
        *nets_[s], config_.client, collector_of(s), client_rng.fork(c)));
    clients_.back()->set_injection_pool(pool);
    clients_.back()->on_terminal = [this] {
      terminal_jobs_.fetch_add(1, std::memory_order_relaxed);
    };
  }
  for (std::size_t j = 0; j < workload_.jobs.size(); ++j) {
    const workload::JobSpec& job = workload_.jobs[j];
    if (!config_.manual_submission) {
      clients_[job.client % clients_.size()]->schedule_job(
          j, job.arrival_sec, job.constraints, job.runtime_sec,
          job.declared_runtime_sec, job.output_kb);
    }
    last_arrival_sec_ = std::max(last_arrival_sec_, job.arrival_sec);
  }
}

void GridSystem::register_builtin_metrics() {
  // Message-pool recycling effectiveness (thread-local: valid because each
  // system runs confined to one sweep thread).
  registry_->gauge("pool/reuse_fraction", [] {
    return net::MessagePool::stats().reuse_fraction();
  });
  registry_->gauge("pool/cached_blocks", [] {
    return static_cast<double>(net::MessagePool::stats().cached_blocks);
  });
  registry_->gauge("pool/cached_bytes", [] {
    return static_cast<double>(net::MessagePool::stats().cached_bytes);
  });
  registry_->gauge("pool/live_bytes", [] {
    return static_cast<double>(net::MessagePool::stats().memory_bytes());
  });
  registry_->gauge("pool/fresh_total", [] {
    return static_cast<double>(net::MessagePool::stats().fresh);
  });
  registry_->gauge("pool/reused_total", [] {
    return static_cast<double>(net::MessagePool::stats().reused);
  });
  registry_->gauge("pool/foreign_total", [] {
    return static_cast<double>(net::MessagePool::stats().foreign);
  });

  // Per-subsystem memory gauges: all classes share one breakdown walk per
  // sampling instant (see mem_cache_).
  const auto mem_gauge = [this](obs::MemClass c) {
    return [this, c] {
      const std::int64_t now = simulator().now().ns();
      if (mem_cache_.t_ns != now) {
        mem_cache_.acc = memory_breakdown();
        mem_cache_.t_ns = now;
      }
      return static_cast<double>(mem_cache_.acc.of(c));
    };
  };
  for (std::size_t c = 0; c < obs::MemoryAccountant::kClasses; ++c) {
    const auto cls = static_cast<obs::MemClass>(c);
    registry_->gauge(std::string("mem/") + obs::mem_class_name(cls),
                     mem_gauge(cls));
  }
  registry_->gauge("mem/total", [this] {
    const std::int64_t now = simulator().now().ns();
    if (mem_cache_.t_ns != now) {
      mem_cache_.acc = memory_breakdown();
      mem_cache_.t_ns = now;
    }
    return static_cast<double>(mem_cache_.acc.total());
  });

  if (trace_ != nullptr) {
    registry_->gauge("trace/dropped", [this] {
      return static_cast<double>(trace_->dropped());
    });
    registry_->gauge("trace/recorded_total", [this] {
      return static_cast<double>(trace_->total_recorded());
    });
    registry_->gauge("trace/traces_started", [this] {
      return static_cast<double>(trace_->traces_started());
    });
  }

  // Job flow, read from the collector's aggregate counts.
  registry_->gauge("jobs/completed", [this] {
    return static_cast<double>(collector_.completed_count());
  });
  registry_->gauge("jobs/started", [this] {
    return static_cast<double>(collector_.started_count());
  });
  registry_->gauge("jobs/resubmissions", [this] {
    return static_cast<double>(collector_.total_resubmissions());
  });
}

void GridSystem::submit_job(std::uint64_t seq, double delay_sec) {
  build();
  PGRID_EXPECTS(seq < workload_.jobs.size());
  const workload::JobSpec& job = workload_.jobs[seq];
  const double at = simulator().now().sec() + delay_sec;  // one shard only
  latest_release_sec_ = std::max(latest_release_sec_, at);
  clients_[job.client % clients_.size()]->schedule_job(
      seq, at, job.constraints, job.runtime_sec, job.declared_runtime_sec,
      job.output_kb);
}

void GridSystem::merge_shard_metrics() {
  if (shard_collectors_.empty()) return;
  std::vector<const metrics::Collector*> parts;
  parts.reserve(shard_collectors_.size());
  for (const auto& c : shard_collectors_) parts.push_back(c.get());
  collector_.merge_from_shards(parts);
}

void GridSystem::run() {
  build();
  obs::RunProfile::Timer run_timer(profile_, "run");
  const std::uint64_t events_before = sim_events();
  // The horizon trails the latest release time: DAG-style submissions can
  // extend the schedule long past the workload's nominal last arrival.
  while (!finished()) {
    const double horizon = std::max(last_arrival_sec_, latest_release_sec_) +
                           config_.horizon_slack_sec;
    if (now_sec() >= horizon) break;
    engine_->run_until(engine_->now() + sim::SimTime::seconds(60.0));
  }
  merge_shard_metrics();
  profile_.add_events(sim_events() - events_before);
  profile_.note_queue_peaks(sim_queue_peak(), sim_tombstone_peak());
  // End-of-run footprint lands in the profile summary only when metrics are
  // on, keeping obs-off stdout untouched.
  if (registry_ != nullptr) profile_.note_memory(memory_breakdown());
}

void GridSystem::run_for(double sec) {
  build();
  obs::RunProfile::Timer run_timer(profile_, "run");
  const std::uint64_t events_before = sim_events();
  engine_->run_until(engine_->now() + sim::SimTime::seconds(sec));
  merge_shard_metrics();
  profile_.add_events(sim_events() - events_before);
  profile_.note_queue_peaks(sim_queue_peak(), sim_tombstone_peak());
}

const net::NetworkStats& GridSystem::net_stats() const {
  if (nets_.size() == 1) return nets_[0]->stats();
  // Several shards: sum the per-shard Networks field-wise on demand. Every
  // counter increments on exactly one shard (the sender's for send-side
  // counters, the destination's for delivery-side), so the sum equals what
  // a single network would have recorded for the same trajectory.
  merged_stats_ = net::NetworkStats{};
  for (const auto& net : nets_) {
    const net::NetworkStats& s = net->stats();
    merged_stats_.messages_sent += s.messages_sent;
    merged_stats_.messages_delivered += s.messages_delivered;
    merged_stats_.messages_dropped_dead += s.messages_dropped_dead;
    merged_stats_.messages_dropped_loss += s.messages_dropped_loss;
    merged_stats_.messages_dropped_partition += s.messages_dropped_partition;
    merged_stats_.messages_dropped_fault += s.messages_dropped_fault;
    merged_stats_.messages_duplicated += s.messages_duplicated;
    merged_stats_.messages_reordered += s.messages_reordered;
    merged_stats_.bytes_sent += s.bytes_sent;
    merged_stats_.bytes_delivered += s.bytes_delivered;
    merged_stats_.batches_sent += s.batches_sent;
    merged_stats_.batch_parts_sent += s.batch_parts_sent;
    merged_stats_.batches_delivered += s.batches_delivered;
    merged_stats_.batch_parts_delivered += s.batch_parts_delivered;
    for (std::size_t k = 0; k < net::NetworkStats::kKindSlots; ++k) {
      merged_stats_.sent_by_kind[k] += s.sent_by_kind[k];
      merged_stats_.delivered_by_kind[k] += s.delivered_by_kind[k];
    }
  }
  return merged_stats_;
}

Peer GridSystem::find_bootstrap(std::size_t excluding) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i != excluding && nodes_[i]->running()) {
      return nodes_[i]->self_peer();
    }
  }
  return kNoPeer;
}

// Crash, restart and churn need one shard: simulator() and network()
// reject several (DESIGN.md §17).
void GridSystem::crash_node(std::size_t index) {
  GridNode& n = node(index);
  if (!n.running()) return;
  if (index < down_since_.size()) down_since_[index] = simulator().now().sec();
  network().set_alive(n.addr(), false);
  n.crash();
}

void GridSystem::restart_node(std::size_t index) {
  GridNode& n = node(index);
  if (n.running()) return;
  if (index < down_since_.size()) down_since_[index] = -1.0;
  network().set_alive(n.addr(), true);
  n.restart(find_bootstrap(index));
}

bool GridSystem::node_running(std::size_t index) const {
  return nodes_.at(index)->running();
}

void GridSystem::enable_churn(const sim::ChurnModel& model) {
  build();
  churn_ = std::make_unique<sim::FailureInjector>(
      simulator(), rng_.fork(4), model, nodes_.size(),
      [this](std::size_t i) { crash_node(i); },
      [this](std::size_t i) { restart_node(i); });
  churn_->start();
}

bool GridSystem::write_observability() const {
  bool ok = true;
  if (trace_ != nullptr) {
    if (!config_.obs.chrome_trace_path.empty()) {
      ok &= trace_->export_chrome_trace(config_.obs.chrome_trace_path);
    }
    if (!config_.obs.jsonl_path.empty()) {
      ok &= trace_->export_jsonl(config_.obs.jsonl_path);
    }
  }
  if (sampler_ != nullptr && !config_.obs.timeseries_csv_path.empty()) {
    ok &= sampler_->export_csv(config_.obs.timeseries_csv_path);
  }
  if (registry_ != nullptr && !config_.obs.metrics_csv_path.empty()) {
    ok &= registry_->export_csv(config_.obs.metrics_csv_path);
  }
  return ok;
}

obs::MemoryAccountant GridSystem::memory_breakdown() const {
  obs::MemoryAccountant acc;
  acc.add(obs::MemClass::kSimEvents, engine_->memory_bytes());
  acc.add(obs::MemClass::kMessagePool, net::MessagePool::stats().memory_bytes());
  for (const auto& n : nodes_) n->account_memory(acc);
  // Clients: the pending-job map is grid bookkeeping; their RPC slabs are
  // folded into the same estimate (small next to the node-side slabs).
  for (const auto& c : clients_) {
    acc.add(obs::MemClass::kGridState, c->memory_bytes());
  }
  if (trace_ != nullptr) {
    acc.add(obs::MemClass::kTraceRing, trace_->memory_bytes());
  }
  std::size_t metrics_bytes = collector_.memory_bytes();
  for (const auto& c : shard_collectors_) metrics_bytes += c->memory_bytes();
  if (registry_ != nullptr) metrics_bytes += registry_->memory_bytes();
  if (sampler_ != nullptr) metrics_bytes += sampler_->memory_bytes();
  acc.add(obs::MemClass::kMetrics, metrics_bytes);
  return acc;
}

GridNodeStats GridSystem::aggregate_node_stats() const {
  GridNodeStats total;
  for (const auto& n : nodes_) {
    const GridNodeStats& s = n->stats();
    total.jobs_executed += s.jobs_executed;
    total.jobs_killed_quota += s.jobs_killed_quota;
    total.quota_rejects += s.quota_rejects;
    total.dispatch_rejects += s.dispatch_rejects;
    total.owner_recoveries += s.owner_recoveries;
    total.run_recoveries += s.run_recoveries;
    total.can_pushes += s.can_pushes;
    total.can_forwards += s.can_forwards;
    total.walks_started += s.walks_started;
    total.walks_failed += s.walks_failed;
    total.fp_evictions += s.fp_evictions;
    total.fn_evictions += s.fn_evictions;
    for (double x : s.detection_latency.values()) {
      total.detection_latency.add(x);
    }
  }
  return total;
}

std::vector<std::size_t> GridSystem::correlated_victims(double fraction,
                                                        double start_u) const {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->running()) live.push_back(i);
  }
  if (live.empty()) return {};
  if (uses_can(config_.kind)) {
    // A run of nodes sorted by the first rep-point coordinate is a slab of
    // the CAN space: zones of coordinate-adjacent nodes are adjacent.
    std::sort(live.begin(), live.end(), [this](std::size_t a, std::size_t b) {
      const double pa = nodes_[a]->can()->rep_point()[0];
      const double pb = nodes_[b]->can()->rep_point()[0];
      if (pa != pb) return pa < pb;
      return nodes_[a]->id() < nodes_[b]->id();
    });
  } else {
    // GUID order: a contiguous run is a contiguous arc of the Chord ring.
    std::sort(live.begin(), live.end(), [this](std::size_t a, std::size_t b) {
      return nodes_[a]->id() < nodes_[b]->id();
    });
  }
  auto count = static_cast<std::size_t>(
      static_cast<double>(live.size()) * fraction + 0.5);
  count = std::min(count, live.size());
  if (count == 0) return {};
  std::size_t start = static_cast<std::size_t>(
      start_u * static_cast<double>(live.size()));
  if (start >= live.size()) start = live.size() - 1;
  std::vector<std::size_t> victims;
  victims.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    victims.push_back(live[(start + k) % live.size()]);
  }
  return victims;
}

}  // namespace pgrid::grid
