// Simulated network: latency, liveness drops, loss, accounting.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pgrid::net {
namespace {

struct TestMsg final : Message {
  static constexpr std::uint16_t kType = kTagTestBase + 1;
  explicit TestMsg(int v) : Message(kType), value(v) {}
  int value;
  [[nodiscard]] std::size_t payload_size() const noexcept override { return 4; }
};

struct Recorder final : MessageHandler {
  struct Delivery {
    NodeAddr from;
    int value;
    sim::SimTime at;
  };
  explicit Recorder(sim::Simulator& simulator) : sim(&simulator) {}
  void on_message(NodeAddr from, MessagePtr msg) override {
    const auto* m = msg_cast<TestMsg>(msg.get());
    deliveries.push_back({from, m->value, sim->now()});
  }
  sim::Simulator* sim;
  std::vector<Delivery> deliveries;
};

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  LatencyModel latency{sim::SimTime::millis(10), sim::SimTime::millis(10)};
  Network net{simulator, Rng{1}, latency};
  Recorder a{simulator}, b{simulator};
  NodeAddr addr_a = net.add_handler(&a);
  NodeAddr addr_b = net.add_handler(&b);
};

TEST_F(NetworkTest, DeliversWithLatency) {
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(42));
  EXPECT_TRUE(b.deliveries.empty());  // nothing before the clock advances
  simulator.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].from, addr_a);
  EXPECT_EQ(b.deliveries[0].value, 42);
  EXPECT_EQ(b.deliveries[0].at, sim::SimTime::millis(10));
}

TEST_F(NetworkTest, SelfSendWorks) {
  net.send(addr_a, addr_a, std::make_unique<TestMsg>(7));
  simulator.run();
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(a.deliveries[0].value, 7);
}

TEST_F(NetworkTest, DeadDestinationDropsAtDelivery) {
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(1));
  net.set_alive(addr_b, false);
  simulator.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(net.stats().messages_dropped_dead, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST_F(NetworkTest, DeadSourceDropsAtSend) {
  net.set_alive(addr_a, false);
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(1));
  simulator.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(net.stats().messages_dropped_dead, 1u);
}

TEST_F(NetworkTest, RevivedNodeReceivesAgain) {
  net.set_alive(addr_b, false);
  net.set_alive(addr_b, true);
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(9));
  simulator.run();
  EXPECT_EQ(b.deliveries.size(), 1u);
}

TEST_F(NetworkTest, NodeDyingInFlightLosesMessage) {
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(5));
  simulator.schedule_at(sim::SimTime::millis(5),
                        [&] { net.set_alive(addr_b, false); });
  simulator.run();
  EXPECT_TRUE(b.deliveries.empty());
}

TEST_F(NetworkTest, ByteAccountingChargesHeaderPlusPayload) {
  net.send(addr_a, addr_b, std::make_unique<TestMsg>(1));
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, Network::kHeaderBytes + 4);
}

TEST(NetworkLoss, LossRateIsRespected) {
  sim::Simulator simulator;
  LatencyModel latency{sim::SimTime::millis(1), sim::SimTime::millis(1)};
  Network net(simulator, Rng{3}, latency, 0.25);
  Recorder sink{simulator};
  const NodeAddr src = net.add_handler(&sink);
  const NodeAddr dst = net.add_handler(&sink);
  for (int i = 0; i < 10000; ++i) {
    net.send(src, dst, std::make_unique<TestMsg>(i));
  }
  simulator.run();
  const double delivered = static_cast<double>(sink.deliveries.size());
  EXPECT_NEAR(delivered / 10000.0, 0.75, 0.02);
  EXPECT_EQ(net.stats().messages_dropped_loss + sink.deliveries.size(), 10000u);
}

TEST(NetworkLatency, UniformRangeSampled) {
  sim::Simulator simulator;
  LatencyModel latency{sim::SimTime::millis(20), sim::SimTime::millis(80)};
  Network net(simulator, Rng{4}, latency);
  Recorder sink{simulator};
  const NodeAddr src = net.add_handler(&sink);
  const NodeAddr dst = net.add_handler(&sink);
  for (int i = 0; i < 2000; ++i) {
    net.send(src, dst, std::make_unique<TestMsg>(i));
  }
  simulator.run();
  ASSERT_EQ(sink.deliveries.size(), 2000u);
  double mean = 0;
  for (const auto& d : sink.deliveries) {
    EXPECT_GE(d.at, sim::SimTime::millis(20));
    EXPECT_LT(d.at, sim::SimTime::millis(80));
    mean += d.at.sec();
  }
  EXPECT_NEAR(mean / 2000.0, 0.050, 0.002);
}

// Loss and latency come from the sender's own stream, so a sender's delivery
// times are a function of its own send sequence alone: traffic from an
// unrelated sender, interleaved send by send, cannot shift them.
TEST(NetworkLatency, SenderDrawsIgnoreOtherSenders) {
  const auto deliveries_from_a = [](bool b_also_sends) {
    sim::Simulator simulator;
    Network net(simulator, Rng{5},
                LatencyModel{sim::SimTime::millis(20), sim::SimTime::millis(80)},
                0.1);
    Recorder a{simulator}, b{simulator}, sink{simulator};
    const NodeAddr addr_a = net.add_handler(&a);
    const NodeAddr addr_b = net.add_handler(&b);
    const NodeAddr addr_sink = net.add_handler(&sink);
    for (int i = 0; i < 200; ++i) {
      if (b_also_sends) {
        net.send(addr_b, addr_sink, std::make_unique<TestMsg>(-1));
      }
      net.send(addr_a, addr_sink, std::make_unique<TestMsg>(i));
    }
    simulator.run();
    std::vector<std::pair<int, sim::SimTime>> out;
    for (const auto& d : sink.deliveries) {
      if (d.from == addr_a) out.emplace_back(d.value, d.at);
    }
    return out;
  };
  const auto alone = deliveries_from_a(false);
  ASSERT_GT(alone.size(), 100u);
  EXPECT_EQ(alone, deliveries_from_a(true));
}

// Regression for the [min, max) edge cases: a 1ns-wide window has exactly
// one representable value (min), and min == max is the constant-latency
// degenerate case. Neither may consult the RNG out of range.
TEST(NetworkLatency, OneNanosecondWindowAlwaysReturnsMin) {
  Rng rng{7};
  const LatencyModel hair{sim::SimTime::nanos(100), sim::SimTime::nanos(101)};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hair.sample(rng), sim::SimTime::nanos(100));
  }
  Rng rng2{8};
  const LatencyModel point{sim::SimTime::millis(3), sim::SimTime::millis(3)};
  EXPECT_EQ(point.sample(rng2), sim::SimTime::millis(3));
}

TEST(NetworkLatency, InvertedBoundsAreRejected) {
  Rng rng{9};
  const LatencyModel inverted{sim::SimTime::millis(80),
                              sim::SimTime::millis(20)};
  EXPECT_DEATH(static_cast<void>(inverted.sample(rng)), "min <= max");
  sim::Simulator simulator;
  EXPECT_DEATH(Network(simulator, Rng{10}, inverted), "min <= max");
}

}  // namespace
}  // namespace pgrid::net
