// Observability: trace bus ring semantics, exporter well-formedness, the
// time-series sampler, and the NetworkStats per-kind counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "grid/grid_system.h"
#include "metrics/report.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace pgrid::obs {
namespace {

using sim::SimTime;

/// Minimal JSON syntax check: balanced braces/brackets outside strings,
/// properly terminated strings and escapes. Not a validator, but enough to
/// catch the classic exporter bugs (trailing commas aside).
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream all;
  all << in.rdbuf();
  return all.str();
}

TEST(TraceBus, TimestampsFollowSimTime) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 64);
  for (int i = 1; i <= 3; ++i) {
    simulator.schedule_in(SimTime::seconds(static_cast<double>(i)),
                          [&bus, i] {
                            bus.record(EventKind::kJobSubmit, 0, kNoActor, 0,
                                       static_cast<std::uint64_t>(i));
                          });
  }
  simulator.run();
  ASSERT_EQ(bus.size(), 3u);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    EXPECT_EQ(bus.at(i).t_ns,
              SimTime::seconds(static_cast<double>(i + 1)).ns());
    EXPECT_EQ(bus.at(i).a, i + 1);
    if (i > 0) EXPECT_GE(bus.at(i).t_ns, bus.at(i - 1).t_ns);
  }
}

TEST(TraceBus, RingOverwritesOldestAndCountsDropped) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    bus.record(EventKind::kMsgSend, 1, 2, 0, i);
  }
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.capacity(), 4u);
  EXPECT_EQ(bus.total_recorded(), 10u);
  EXPECT_EQ(bus.dropped(), 6u);
  // at() walks oldest-first over what survived: events 6..9.
  for (std::size_t i = 0; i < bus.size(); ++i) {
    EXPECT_EQ(bus.at(i).a, 6u + i);
  }
}

TEST(TraceBus, DisabledRecordsNothing) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 16);
  bus.set_enabled(false);
  bus.record(EventKind::kMsgSend, 1);
  PGRID_TRACE_EVENT(&bus, EventKind::kMsgDeliver, 2);
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  // The macro's whole point: a null bus is a no-op, not a crash.
  TraceBus* null_bus = nullptr;
  PGRID_TRACE_EVENT(null_bus, EventKind::kMsgDeliver, 2);
}

TEST(TraceBus, ChromeTraceExportIsWellFormed) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 64);
  bus.set_actor_name(0, "node \"zero\"");  // name needing escaping
  bus.set_actor_name(1, "node 1");
  bus.record(EventKind::kJobSubmit, 0, kNoActor, 0, 7);
  bus.record(EventKind::kMsgSend, 0, 1, 42, 1, 52.0);
  bus.record(EventKind::kJobComplete, 1, kNoActor, 0, 7, 3.5);  // X slice
  bus.record(EventKind::kJobKilled, 0, kNoActor, 0, 8, 1.0);    // X slice

  const std::string path = testing::TempDir() + "/p2pgrid_trace_test.json";
  ASSERT_TRUE(bus.export_chrome_trace(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());

  EXPECT_TRUE(json_balanced(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // job slice
  EXPECT_NE(text.find("node \\\"zero\\\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceBus, JsonlExportOneValidObjectPerEvent) {
  sim::Simulator simulator;
  TraceBus bus(simulator, 64);
  bus.record(EventKind::kRpcIssue, 3, 4, 17, 99);
  bus.record(EventKind::kRpcTimeout, 3, 4, 0, 99);
  const std::string path = testing::TempDir() + "/p2pgrid_trace_test.jsonl";
  ASSERT_TRUE(bus.export_jsonl(path));
  std::ifstream in(path);
  std::string line;
  std::string last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(json_balanced(line)) << line;
    EXPECT_EQ(line.front(), '{');
    last = line;
    ++lines;
  }
  std::remove(path.c_str());
  // One object per event plus a trailing summary line.
  EXPECT_EQ(lines, bus.size() + 1);
  EXPECT_NE(last.find("\"summary\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"dropped\":0"), std::string::npos) << last;
}

TEST(Sampler, RowCountMatchesFixedHorizon) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, SimTime::seconds(1.0));
  sampler.add_gauge("t", [&simulator] { return simulator.now().sec(); });
  sampler.start();
  simulator.run_until(SimTime::seconds(10.0));
  sampler.stop();
  // One row at t=0, then one per second: 11 rows over a 10 s horizon.
  ASSERT_EQ(sampler.row_count(), 11u);
  ASSERT_EQ(sampler.column_count(), 1u);
  for (std::size_t r = 0; r < sampler.row_count(); ++r) {
    EXPECT_DOUBLE_EQ(sampler.row_time_sec(r), static_cast<double>(r));
    EXPECT_DOUBLE_EQ(sampler.value(r, 0), static_cast<double>(r));
  }
}

TEST(Sampler, RateColumnReportsPerSecondDelta) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, SimTime::seconds(2.0));
  double counter = 0.0;
  simulator.schedule_in(SimTime::seconds(0.5), [&counter] { counter = 6.0; });
  simulator.schedule_in(SimTime::seconds(2.5), [&counter] { counter = 16.0; });
  sampler.add_rate("rate", [&counter] { return counter; });
  sampler.start();
  simulator.run_until(SimTime::seconds(4.0));
  ASSERT_EQ(sampler.row_count(), 3u);
  EXPECT_DOUBLE_EQ(sampler.value(0, 0), 0.0);  // nothing to difference yet
  EXPECT_DOUBLE_EQ(sampler.value(1, 0), 3.0);  // +6 over 2 s
  EXPECT_DOUBLE_EQ(sampler.value(2, 0), 5.0);  // +10 over 2 s
}

TEST(Sampler, CsvExportHasHeaderAndRows) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, SimTime::seconds(1.0));
  sampler.add_gauge("ones", [] { return 1.0; });
  sampler.start();
  simulator.run_until(SimTime::seconds(3.0));
  const std::string path = testing::TempDir() + "/p2pgrid_ts_test.csv";
  ASSERT_TRUE(sampler.export_csv(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "t_sec,ones");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  std::remove(path.c_str());
  EXPECT_EQ(rows, sampler.row_count());
}

// --- NetworkStats per-kind counters ----------------------------------------

struct KindMsg final : net::Message {
  static constexpr std::uint16_t kType = net::kTagTestBase + 9;
  KindMsg() : Message(kType) {}
  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 10;
  }
};

struct Sink final : net::MessageHandler {
  void on_message(net::NodeAddr, net::MessagePtr) override { ++received; }
  int received = 0;
};

TEST(NetworkStats, PerKindCountersAndDeliveredBytes) {
  sim::Simulator simulator;
  net::Network network(simulator, Rng{7},
                       net::LatencyModel{SimTime::millis(1), SimTime::millis(1)});
  Sink a, b;
  const net::NodeAddr addr_a = network.add_handler(&a);
  const net::NodeAddr addr_b = network.add_handler(&b);
  for (int i = 0; i < 3; ++i) {
    network.send(addr_a, addr_b, std::make_unique<KindMsg>());
  }
  simulator.run();
  EXPECT_EQ(b.received, 3);
  const net::NetworkStats& s = network.stats();
  EXPECT_EQ(s.sent_of(KindMsg::kType), 3u);
  EXPECT_EQ(s.delivered_of(KindMsg::kType), 3u);
  EXPECT_EQ(s.sent_of(KindMsg::kType + 1), 0u);
  // Nothing was dropped, so every sent byte arrived.
  EXPECT_GT(s.bytes_sent, 0u);
  EXPECT_EQ(s.bytes_delivered, s.bytes_sent);
  EXPECT_EQ(s.bytes_sent, 3u * (net::Network::kHeaderBytes + 10));
}

TEST(NetworkStats, DroppedMessagesAreNotCountedDelivered) {
  sim::Simulator simulator;
  net::Network network(simulator, Rng{7},
                       net::LatencyModel{SimTime::millis(1), SimTime::millis(1)});
  Sink a, b;
  const net::NodeAddr addr_a = network.add_handler(&a);
  const net::NodeAddr addr_b = network.add_handler(&b);
  network.set_alive(addr_b, false);
  network.send(addr_a, addr_b, std::make_unique<KindMsg>());
  simulator.run();
  const net::NetworkStats& s = network.stats();
  EXPECT_EQ(s.sent_of(KindMsg::kType), 1u);
  EXPECT_EQ(s.delivered_of(KindMsg::kType), 0u);
  EXPECT_EQ(s.bytes_delivered, 0u);
}

// --- end-to-end: a traced grid run ------------------------------------------

TEST(GridObservability, TracedRunRecordsOrderedJobLifecycle) {
  workload::WorkloadSpec spec;
  spec.node_count = 10;
  spec.job_count = 20;
  spec.mean_runtime_sec = 5.0;
  spec.mean_interarrival_sec = 0.2;
  spec.seed = 11;
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kRnTree;
  config.light_maintenance = true;
  config.obs.trace = true;
  config.obs.trace_capacity = 1u << 18;
  config.obs.sample_period_sec = 5.0;
  grid::GridSystem system(config, workload::generate(spec));
  system.run();

  TraceBus* bus = system.trace_bus();
  ASSERT_NE(bus, nullptr);
  EXPECT_GT(bus->total_recorded(), 0u);
  std::size_t submits = 0;
  std::size_t completes = 0;
  for (std::size_t i = 0; i < bus->size(); ++i) {
    if (i > 0) EXPECT_GE(bus->at(i).t_ns, bus->at(i - 1).t_ns);
    if (bus->at(i).kind == EventKind::kJobSubmit) ++submits;
    if (bus->at(i).kind == EventKind::kJobComplete) ++completes;
  }
  EXPECT_EQ(submits, spec.job_count);
  EXPECT_EQ(completes, spec.job_count);

  TimeSeriesSampler* sampler = system.sampler();
  ASSERT_NE(sampler, nullptr);
  EXPECT_GT(sampler->row_count(), 1u);
  EXPECT_GT(sampler->column_count(), 1u);
}

TEST(GridObservability, UntracedRunHasNoBus) {
  workload::WorkloadSpec spec;
  spec.node_count = 5;
  spec.job_count = 5;
  spec.mean_runtime_sec = 1.0;
  spec.seed = 3;
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kCentralized;
  config.light_maintenance = true;
  grid::GridSystem system(config, workload::generate(spec));
  system.run();
  EXPECT_EQ(system.trace_bus(), nullptr);
  EXPECT_EQ(system.sampler(), nullptr);
}

// Every exporter reports a failed write, including files small enough to
// sit in the stdio buffer until the close: /dev/full accepts the open and
// fails the flush.
TEST(Exporters, ReportFailedWrites) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no " << full;
  sim::Simulator simulator;
  TraceBus bus(simulator, 8);
  bus.record(EventKind::kJobSubmit, 0, kNoActor, 0, 1);
  EXPECT_FALSE(bus.export_jsonl(full));
  EXPECT_FALSE(bus.export_chrome_trace(full));

  TimeSeriesSampler sampler(simulator, SimTime::seconds(1.0));
  sampler.add_gauge("ones", [] { return 1.0; });
  sampler.start();
  simulator.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(sampler.export_csv(full));

  MetricsRegistry registry;
  registry.gauge("depth", [] { return 1.0; });
  EXPECT_FALSE(registry.export_csv(full));

  metrics::Collector collector(1, 1);  // a one-job CSV
  collector.on_submit(0, SimTime::seconds(0.0));
  EXPECT_FALSE(metrics::write_job_csv(collector, full));
}

}  // namespace
}  // namespace pgrid::obs

// --- wait_histogram degenerate case -----------------------------------------

namespace pgrid::metrics {
namespace {

using sim::SimTime;

TEST(Report, WaitHistogramAllEqualWaitsGetsOneFullBucket) {
  Collector c(3, 1);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    c.on_submit(seq, SimTime::seconds(static_cast<double>(seq)));
    c.on_started(seq, SimTime::seconds(static_cast<double>(seq) + 2.0), 0);
    c.on_completed(seq, SimTime::seconds(static_cast<double>(seq) + 4.0));
  }
  const std::string h = wait_histogram(c);
  // One bucket holding every sample, not `buckets` empty slivers.
  EXPECT_EQ(std::count(h.begin(), h.end(), '|'), 1) << h;
  EXPECT_NE(h.find("3 |"), std::string::npos) << h;
}

TEST(Report, WaitHistogramAllZeroWaits) {
  Collector c(2, 1);
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    c.on_submit(seq, SimTime::seconds(1.0));
    c.on_started(seq, SimTime::seconds(1.0), 0);  // zero wait
    c.on_completed(seq, SimTime::seconds(2.0));
  }
  const std::string h = wait_histogram(c);
  EXPECT_EQ(std::count(h.begin(), h.end(), '|'), 1) << h;
  EXPECT_NE(h.find("2 |"), std::string::npos) << h;
}

}  // namespace
}  // namespace pgrid::metrics
