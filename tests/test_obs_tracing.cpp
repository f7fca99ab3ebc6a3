// Causal tracing, metrics registry, and memory accounting: span-tree
// propagation across nodes, ring-wraparound drop accounting across both
// exporters, sampling determinism, registry instruments, and the
// per-subsystem MemoryAccountant.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "can/messages.h"
#include "chord/messages.h"
#include "grid/grid_system.h"
#include "grid/messages.h"
#include "obs/memory.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rntree/messages.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace pgrid::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Extract the integer following `"key":` in `text` (first occurrence).
std::uint64_t json_uint(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

// --- satellite: ring wraparound drop accounting ---------------------------

TEST(TraceBusWraparound, DroppedCountConsistentAcrossExporters) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 8);  // tiny ring: force overwrites
  for (std::uint64_t i = 0; i < 30; ++i) {
    bus.record(EventKind::kMsgSend, 0, 1, 7, i);
  }
  ASSERT_EQ(bus.size(), 8u);
  ASSERT_EQ(bus.total_recorded(), 30u);
  ASSERT_EQ(bus.dropped(), 22u);

  const std::string jsonl = testing::TempDir() + "/p2pgrid_wrap.jsonl";
  const std::string chrome = testing::TempDir() + "/p2pgrid_wrap.json";
  ASSERT_TRUE(bus.export_jsonl(jsonl));
  ASSERT_TRUE(bus.export_chrome_trace(chrome));
  const std::string jsonl_text = slurp(jsonl);
  const std::string chrome_text = slurp(chrome);
  std::remove(jsonl.c_str());
  std::remove(chrome.c_str());

  // The JSONL trailing summary line and the Chrome otherData block must
  // agree with the ring's own accounting.
  const auto summary_pos = jsonl_text.rfind("\"summary\":true");
  ASSERT_NE(summary_pos, std::string::npos);
  const std::string summary = jsonl_text.substr(summary_pos);
  EXPECT_EQ(json_uint(summary, "recorded"), 30u);
  EXPECT_EQ(json_uint(summary, "retained"), 8u);
  EXPECT_EQ(json_uint(summary, "dropped"), 22u);
  EXPECT_EQ(json_uint(chrome_text, "dropped_events"), 22u);
  // Retained events are the newest ones, oldest first.
  EXPECT_EQ(bus.at(0).a, 22u);
  EXPECT_EQ(bus.at(bus.size() - 1).a, 29u);
}

// --- satellite: Perfetto names for every message kind ---------------------

TEST(TraceSpanNames, EveryDeclaredTagHasAName) {
  struct Layer {
    const char* prefix;
    std::vector<std::uint16_t> tags;
  };
  const Layer layers[] = {
      {"chord",
       {chord::kNextHopReq, chord::kNextHopResp, chord::kStabilizeReq,
        chord::kStabilizeResp, chord::kNotify, chord::kPingReq,
        chord::kPingResp}},
      {"can",
       {can::kRouteReq, can::kRouteResp, can::kJoinReq, can::kJoinResp,
        can::kZoneUpdate, can::kDimLoadReport, can::kNeighborHint,
        can::kNeighborHello}},
      {"rn",
       {rntree::kAggUpdate, rntree::kTokenPass, rntree::kTokenAck,
        rntree::kSearchResult, rntree::kAggAck}},
      {"grid",
       {grid::kSubmitJob, grid::kSubmitAck, grid::kJobToOwner,
        grid::kJobToOwnerAck, grid::kDispatchJob, grid::kDispatchResp,
        grid::kHeartbeat, grid::kHeartbeatAck, grid::kJobDone, grid::kResult,
        grid::kOwnerHandoff, grid::kOwnerHandoffAck, grid::kJobFailed,
        grid::kWalkProbe, grid::kWalkResult}},
  };
  sim::Simulator simulator;
  TraceBus bus(simulator, 256);
  std::uint32_t span = 0;
  std::size_t declared = 0;
  for (const Layer& layer : layers) {
    for (const std::uint16_t tag : layer.tags) {
      const TraceContext ctx{1, ++span, 0};
      bus.record_span(EventKind::kSpanBegin, ctx, 0, 1, tag);
      bus.record_span(EventKind::kSpanEnd, ctx, 1, 0, tag);
      ++declared;
    }
  }
  const std::string path = testing::TempDir() + "/p2pgrid_tag_names.json";
  ASSERT_TRUE(bus.export_chrome_trace(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());

  std::size_t named = 0;
  for (const Layer& layer : layers) {
    const std::string fallback = std::string("\"") + layer.prefix + "+";
    EXPECT_EQ(text.find(fallback), std::string::npos)
        << "unnamed " << layer.prefix << " tag in " << text;
    const std::string slice = std::string("\"name\":\"") + layer.prefix + "/";
    for (auto pos = text.find(slice); pos != std::string::npos;
         pos = text.find(slice, pos + 1)) {
      ++named;
    }
  }
  EXPECT_EQ(named, declared);
}

// --- tentpole: cross-node span trees --------------------------------------

grid::GridConfig traced_config(std::uint64_t sample_every) {
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kRnTree;
  config.light_maintenance = true;
  config.obs.trace = true;
  config.obs.trace_capacity = 1u << 18;
  config.obs.trace_sample_every = sample_every;
  return config;
}

workload::WorkloadSpec small_spec(std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.node_count = 16;
  spec.job_count = 24;
  spec.mean_runtime_sec = 5.0;
  spec.mean_interarrival_sec = 0.5;
  spec.seed = seed;
  return spec;
}

TEST(CausalTracing, SampledJobsProduceCrossNodeSpanTrees) {
  grid::GridSystem system(traced_config(4), workload::generate(small_spec(7)));
  system.run();
  TraceBus* bus = system.trace_bus();
  ASSERT_NE(bus, nullptr);

  // Collect span begin/end events, grouped by trace.
  struct Span {
    std::uint32_t parent = 0;
    std::uint32_t node = kNoActor;
    bool begun = false;
    bool ended = false;
  };
  std::map<std::uint64_t, std::map<std::uint32_t, Span>> traces;
  for (std::size_t i = 0; i < bus->size(); ++i) {
    const TraceEvent& e = bus->at(i);
    if (e.kind != EventKind::kSpanBegin && e.kind != EventKind::kSpanEnd) {
      continue;
    }
    ASSERT_NE(e.trace_id, 0u);
    Span& s = traces[e.trace_id][e.span];
    if (e.kind == EventKind::kSpanBegin) {
      s.begun = true;
      s.parent = e.parent;
      s.node = e.node;
    } else {
      s.ended = true;
    }
  }
  // 24 jobs sampled 1-in-4: six root traces.
  ASSERT_EQ(traces.size(), 6u);
  ASSERT_EQ(bus->traces_started(), 6u);

  for (const auto& [trace_id, spans] : traces) {
    // Exactly one root span; every other span's parent is in the same trace.
    std::size_t roots = 0;
    std::set<std::uint32_t> nodes;
    for (const auto& [span_id, s] : spans) {
      EXPECT_TRUE(s.begun) << "trace " << trace_id << " span " << span_id;
      if (s.parent == 0) {
        ++roots;
      } else {
        EXPECT_EQ(spans.count(s.parent), 1u)
            << "trace " << trace_id << " span " << span_id
            << " has orphan parent " << s.parent;
      }
      if (s.node != kNoActor) nodes.insert(s.node);
    }
    EXPECT_EQ(roots, 1u) << "trace " << trace_id;
    // Matchmaking + dispatch + result legs hop across nodes: the tree must
    // span more than one actor, and more than just the root request span.
    EXPECT_GT(spans.size(), 1u) << "trace " << trace_id;
    EXPECT_GT(nodes.size(), 1u) << "trace " << trace_id;
  }

  // Non-span events recorded under an active span carry its trace id.
  bool attributed = false;
  for (std::size_t i = 0; i < bus->size(); ++i) {
    const TraceEvent& e = bus->at(i);
    if (e.kind != EventKind::kSpanBegin && e.kind != EventKind::kSpanEnd &&
        e.trace_id != 0) {
      attributed = true;
      EXPECT_EQ(traces.count(e.trace_id), 1u);
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(CausalTracing, SamplingOffLeavesNoSpans) {
  grid::GridSystem system(traced_config(0), workload::generate(small_spec(7)));
  system.run();
  TraceBus* bus = system.trace_bus();
  ASSERT_NE(bus, nullptr);
  for (std::size_t i = 0; i < bus->size(); ++i) {
    const TraceEvent& e = bus->at(i);
    EXPECT_NE(e.kind, EventKind::kSpanBegin);
    EXPECT_NE(e.kind, EventKind::kSpanEnd);
    EXPECT_EQ(e.trace_id, 0u);
  }
  EXPECT_EQ(bus->traces_started(), 0u);
}

TEST(CausalTracing, SampledRunsAreDeterministic) {
  auto run_stream = [] {
    grid::GridSystem system(traced_config(2),
                            workload::generate(small_spec(13)));
    system.run();
    TraceBus* bus = system.trace_bus();
    std::vector<TraceEvent> events;
    for (std::size_t i = 0; i < bus->size(); ++i) events.push_back(bus->at(i));
    return events;
  };
  const auto a = run_stream();
  const auto b = run_stream();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ns, b[i].t_ns) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(a[i].peer, b[i].peer) << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << i;
    EXPECT_EQ(a[i].a, b[i].a) << i;
    EXPECT_EQ(a[i].trace_id, b[i].trace_id) << i;
    EXPECT_EQ(a[i].span, b[i].span) << i;
    EXPECT_EQ(a[i].parent, b[i].parent) << i;
  }
}

// Span tracing must not perturb the simulation itself: the same seed with
// and without sampling yields the same non-span event stream.
TEST(CausalTracing, SamplingDoesNotPerturbSimulation) {
  auto run_stream = [](std::uint64_t sample_every) {
    grid::GridSystem system(traced_config(sample_every),
                            workload::generate(small_spec(23)));
    system.run();
    TraceBus* bus = system.trace_bus();
    std::vector<TraceEvent> events;
    for (std::size_t i = 0; i < bus->size(); ++i) {
      const TraceEvent& e = bus->at(i);
      if (e.kind == EventKind::kSpanBegin || e.kind == EventKind::kSpanEnd) {
        continue;
      }
      events.push_back(e);
    }
    return events;
  };
  const auto off = run_stream(0);
  const auto on = run_stream(3);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].t_ns, on[i].t_ns) << i;
    EXPECT_EQ(off[i].kind, on[i].kind) << i;
    EXPECT_EQ(off[i].node, on[i].node) << i;
    EXPECT_EQ(off[i].a, on[i].a) << i;
  }
}

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry registry;
  registry.gauge("pool/fresh_total", [] { return 1.0; });
  registry.gauge("depth", [] { return 7.0; });
  registry.gauge("pool/fresh_total", [] { return 2.0; });  // replaces fn
  EXPECT_EQ(registry.size(), 2u);
  std::vector<std::pair<std::string, double>> seen;
  registry.for_each([&seen](const std::string& name,
                            const MetricsRegistry::GaugeFn& fn) {
    seen.emplace_back(name, fn());
  });
  const std::vector<std::pair<std::string, double>> expected = {
      {"pool/fresh_total", 2.0}, {"depth", 7.0}};
  EXPECT_EQ(seen, expected);  // registration order, latest function
}

TEST(MetricsRegistry, CsvSnapshotHasOneRowPerInstrument) {
  MetricsRegistry registry;
  registry.gauge("jobs/completed", [] { return 42.0; });
  registry.gauge("queue/depth", [] { return 3.5; });

  const std::string path = testing::TempDir() + "/p2pgrid_metrics.csv";
  ASSERT_TRUE(registry.export_csv(path));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::remove(path.c_str());
  const std::vector<std::string> expected = {
      "name,kind,count,value,mean,stdev,min,max,p50,p99",
      "jobs/completed,gauge,,42,,,,,,",
      "queue/depth,gauge,,3.5,,,,,,"};
  EXPECT_EQ(lines, expected);  // header + one row per gauge
}

// --- memory accounting -----------------------------------------------------

TEST(MemoryAccountant, AddMergePeakAndSummary) {
  MemoryAccountant a;
  EXPECT_EQ(a.total(), 0u);
  a.add(MemClass::kSimEvents, 1000);
  a.add(MemClass::kSimEvents, 24);
  a.add(MemClass::kOverlayTables, 2048);
  EXPECT_EQ(a.of(MemClass::kSimEvents), 1024u);
  EXPECT_EQ(a.total(), 1024u + 2048u);

  MemoryAccountant b;
  b.add(MemClass::kSimEvents, 512);       // smaller: a's value survives
  b.add(MemClass::kMessagePool, 4096);    // new class: adopted
  a.merge_peak(b);
  EXPECT_EQ(a.of(MemClass::kSimEvents), 1024u);
  EXPECT_EQ(a.of(MemClass::kMessagePool), 4096u);
  EXPECT_EQ(a.of(MemClass::kOverlayTables), 2048u);

  const std::string s = a.summary();
  EXPECT_NE(s.find("sim_events"), std::string::npos);
  EXPECT_NE(s.find("overlay_tables"), std::string::npos);
  // Zero classes are omitted from the summary.
  EXPECT_EQ(s.find("trace_ring"), std::string::npos);
}

TEST(MemoryAccounting, GridBreakdownCoversLiveSubsystems) {
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kRnTree;
  config.light_maintenance = true;
  config.obs.trace = true;
  config.obs.trace_capacity = 1u << 12;
  grid::GridSystem system(config, workload::generate(small_spec(5)));
  system.run();

  const MemoryAccountant acc = system.memory_breakdown();
  EXPECT_GT(acc.of(MemClass::kSimEvents), 0u);
  EXPECT_GT(acc.of(MemClass::kOverlayTables), 0u);
  EXPECT_GT(acc.of(MemClass::kTraceRing), 0u);
  EXPECT_GT(acc.of(MemClass::kMetrics), 0u);
  // The trace ring is capacity-bounded: 2^12 events at sizeof(TraceEvent).
  EXPECT_GE(acc.of(MemClass::kTraceRing), (1u << 12) * sizeof(TraceEvent));
  EXPECT_EQ(acc.total(),
            acc.of(MemClass::kSimEvents) + acc.of(MemClass::kMessagePool) +
                acc.of(MemClass::kOverlayTables) +
                acc.of(MemClass::kGridState) + acc.of(MemClass::kRpcPending) +
                acc.of(MemClass::kTraceRing) + acc.of(MemClass::kMetrics));
}

}  // namespace
}  // namespace pgrid::obs
