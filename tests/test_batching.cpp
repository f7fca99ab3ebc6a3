// Maintenance-traffic batching (DESIGN.md §16): envelope semantics at the
// network layer (coalescing, nesting, accounting, deep clone), and the full
// grid's default maintenance riding envelopes for every overlay matchmaker.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "grid/grid_system.h"
#include "net/batch.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::net {
namespace {

struct PartMsg final : Message {
  static constexpr std::uint16_t kType = kTagTestBase + 9;
  explicit PartMsg(int v) : Message(kType), value(v) {}
  int value;
  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 4;
  }
  PGRID_MESSAGE_CLONE(PartMsg)
};

struct OtherMsg final : Message {
  static constexpr std::uint16_t kType = kTagTestBase + 10;
  OtherMsg() : Message(kType) {}
  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 1;
  }
  PGRID_MESSAGE_CLONE(OtherMsg)
};

struct Recorder final : MessageHandler {
  void on_message(NodeAddr from, MessagePtr msg) override {
    froms.push_back(from);
    types.push_back(msg->type());
  }
  std::vector<NodeAddr> froms;
  std::vector<std::uint16_t> types;
};

class BatchScopeTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  Network net{simulator, Rng{1}};
  Recorder a, b, c;
  NodeAddr addr_a = net.add_handler(&a);
  NodeAddr addr_b = net.add_handler(&b);
  NodeAddr addr_c = net.add_handler(&c);
};

TEST_F(BatchScopeTest, CoalescesSameDestinationSingletonGoesPlain) {
  {
    const BatchScope scope(net, addr_a);
    net.send(addr_a, addr_b, std::make_unique<PartMsg>(1));
    net.send(addr_a, addr_c, std::make_unique<PartMsg>(2));
    net.send(addr_a, addr_b, std::make_unique<OtherMsg>());
    // Buffered until the scope closes: nothing has hit the wire yet.
    EXPECT_EQ(net.stats().messages_sent, 0u);
  }
  simulator.run();
  // b's two messages shared one envelope; c's singleton went as-is.
  EXPECT_EQ(net.stats().batches_sent, 1u);
  EXPECT_EQ(net.stats().batch_parts_sent, 2u);
  EXPECT_EQ(net.stats().messages_sent, 2u);  // envelope + plain
  EXPECT_EQ(net.stats().batches_delivered, 1u);
  EXPECT_EQ(net.stats().batch_parts_delivered, 2u);
  // The handler sees the inner messages, in send order, never the envelope.
  ASSERT_EQ(b.types.size(), 2u);
  EXPECT_EQ(b.types[0], PartMsg::kType);
  EXPECT_EQ(b.types[1], OtherMsg::kType);
  ASSERT_EQ(c.types.size(), 1u);
  EXPECT_EQ(c.types[0], PartMsg::kType);
}

TEST_F(BatchScopeTest, PerKindStatsChargeInnerMessages) {
  {
    const BatchScope scope(net, addr_a);
    net.send(addr_a, addr_b, std::make_unique<PartMsg>(1));
    net.send(addr_a, addr_b, std::make_unique<PartMsg>(2));
    net.send(addr_a, addr_b, std::make_unique<OtherMsg>());
  }
  simulator.run();
  EXPECT_EQ(net.stats().sent_of(PartMsg::kType), 2u);
  EXPECT_EQ(net.stats().sent_of(OtherMsg::kType), 1u);
  EXPECT_EQ(net.stats().sent_of(Batch::kType), 1u);
  EXPECT_EQ(net.stats().delivered_of(PartMsg::kType), 2u);
  EXPECT_EQ(net.stats().delivered_of(OtherMsg::kType), 1u);
  // Wire-level counters see exactly one message.
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(BatchScopeTest, NestedScopesFlushAtOutermostClose) {
  {
    const BatchScope outer(net, addr_a);
    net.send(addr_a, addr_b, std::make_unique<PartMsg>(1));
    {
      const BatchScope inner(net, addr_a);
      net.send(addr_a, addr_b, std::make_unique<PartMsg>(2));
    }
    // Inner close must not flush: the outer scope is still open.
    EXPECT_EQ(net.stats().messages_sent, 0u);
    net.send(addr_a, addr_b, std::make_unique<PartMsg>(3));
  }
  simulator.run();
  EXPECT_EQ(net.stats().batches_sent, 1u);
  EXPECT_EQ(net.stats().batch_parts_sent, 3u);
  ASSERT_EQ(b.types.size(), 3u);
}

TEST_F(BatchScopeTest, IndependentSendersDoNotShareScopes) {
  {
    const BatchScope scope(net, addr_a);
    net.send(addr_a, addr_c, std::make_unique<PartMsg>(1));
    // b has no open scope; its send is ordinary.
    net.send(addr_b, addr_c, std::make_unique<PartMsg>(2));
    EXPECT_EQ(net.stats().messages_sent, 1u);
  }
  simulator.run();
  EXPECT_EQ(net.stats().batches_sent, 0u);  // singleton group flushed plain
  ASSERT_EQ(c.types.size(), 2u);
}

TEST(BatchEnvelopeTest, CloneDeepCopiesParts) {
  Batch original;
  original.parts.push_back(std::make_unique<PartMsg>(5));
  original.parts.push_back(std::make_unique<OtherMsg>());
  const MessagePtr copy = original.clone();
  ASSERT_NE(copy, nullptr);
  const auto* batch = msg_cast<Batch>(copy.get());
  ASSERT_EQ(batch->parts.size(), 2u);
  EXPECT_NE(batch->parts[0].get(), original.parts[0].get());
  EXPECT_EQ(msg_cast<PartMsg>(batch->parts[0].get())->value, 5);
  // Payload accounting covers per-part framing plus part payloads.
  EXPECT_EQ(batch->payload_size(), original.payload_size());
  EXPECT_EQ(original.payload_size(),
            2 * Batch::kPartHeaderBytes + 4 + 1);
}

}  // namespace
}  // namespace pgrid::net

namespace pgrid::grid {
namespace {

workload::Workload small_workload(std::uint64_t seed = 7) {
  workload::WorkloadSpec spec;
  spec.node_count = 32;
  spec.job_count = 96;
  spec.mean_runtime_sec = 20.0;
  spec.mean_interarrival_sec = 0.5;
  spec.constraint_probability = 0.4;
  spec.client_count = 2;
  spec.seed = seed;
  return workload::generate(spec);
}

// Only kind, seed and light maintenance: everything else is the default.
GridConfig default_config(MatchmakerKind kind) {
  GridConfig config;
  config.kind = kind;
  config.seed = 3;
  config.light_maintenance = true;
  return config;
}

struct RunOutcome {
  std::vector<std::uint64_t> completed;  // job seqs that finished ok
  double wait_avg = 0.0;
  std::uint64_t messages_sent = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t batch_parts_sent = 0;
};

RunOutcome run_once(MatchmakerKind kind) {
  GridSystem system(default_config(kind), small_workload());
  system.run();
  RunOutcome out;
  const auto& c = system.collector();
  for (std::uint64_t j = 0; j < 96; ++j) {
    if (c.job(j).completed()) out.completed.push_back(j);
  }
  out.wait_avg = c.wait_times().mean();
  out.messages_sent = system.net_stats().messages_sent;
  out.batches_sent = system.net_stats().batches_sent;
  out.batch_parts_sent = system.net_stats().batch_parts_sent;
  return out;
}

class DefaultMaintenance : public ::testing::TestWithParam<MatchmakerKind> {};

// Every maintenance round runs in a batch scope with no option to ask for
// it: a default config completes every job, and its maintenance reaches the
// wire in envelopes carrying more than one message on average.
TEST_P(DefaultMaintenance, CompletesEveryJobInEnvelopes) {
  const RunOutcome out = run_once(GetParam());
  EXPECT_EQ(out.completed.size(), 96u);
  EXPECT_GT(out.batches_sent, 0u);
  EXPECT_GT(out.batch_parts_sent, out.batches_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DefaultMaintenance,
    ::testing::Values(MatchmakerKind::kRnTree, MatchmakerKind::kCanBasic,
                      MatchmakerKind::kCanPush),
    [](const ::testing::TestParamInfo<MatchmakerKind>& info) {
      std::string name = matchmaker_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The determinism contract: envelope flushes and receiver-side scopes keep
// a fixed seed's run reproducible.
TEST(BatchingDeterminism, BatchedRunsAreReproducible) {
  const RunOutcome first = run_once(MatchmakerKind::kCanBasic);
  const RunOutcome second = run_once(MatchmakerKind::kCanBasic);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.batches_sent, second.batches_sent);
  EXPECT_EQ(first.wait_avg, second.wait_avg);
}

}  // namespace
}  // namespace pgrid::grid
