// RPC endpoint: correlation, timeouts, late replies, multiple endpoints
// sharing an address.

#include <gtest/gtest.h>

#include <set>

#include "net/fault_plane.h"
#include "net/message.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace pgrid::net {
namespace {

struct Echo final : Message {
  static constexpr std::uint16_t kType = kTagTestBase + 2;
  explicit Echo(int v) : Message(kType), value(v) {}
  int value;
  PGRID_MESSAGE_CLONE(Echo)
};

/// Server that echoes every request back, optionally with a handler delay.
struct EchoServer final : MessageHandler {
  EchoServer(Network& network) : rpc(network, network.add_handler(this)) {}
  void on_message(NodeAddr from, MessagePtr msg) override {
    if (rpc.consume_reply(msg)) return;
    ++served;
    const auto* m = msg_cast<Echo>(msg.get());
    if (!mute && m->rpc_id != 0) {
      rpc.reply(from, *m, std::make_unique<Echo>(m->value * 2));
    }
  }
  RpcEndpoint rpc;
  int served = 0;
  bool mute = false;
};

class RpcTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  Network net{simulator, Rng{1},
              LatencyModel{sim::SimTime::millis(5), sim::SimTime::millis(5)}};
  EchoServer client{net};
  EchoServer server{net};
};

TEST_F(RpcTest, RoundTripInvokesContinuationWithReply) {
  int got = -1;
  client.rpc.call(server.rpc.self(), std::make_unique<Echo>(21),
                  sim::SimTime::seconds(1), [&](MessagePtr reply) {
                    ASSERT_NE(reply, nullptr);
                    got = msg_cast<Echo>(reply.get())->value;
                  });
  EXPECT_EQ(client.rpc.outstanding(), 1u);
  simulator.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(client.rpc.outstanding(), 0u);
  EXPECT_EQ(server.served, 1);
}

TEST_F(RpcTest, TimeoutDeliversNullptr) {
  server.mute = true;
  bool timed_out = false;
  client.rpc.call(server.rpc.self(), std::make_unique<Echo>(1),
                  sim::SimTime::millis(100), [&](MessagePtr reply) {
                    timed_out = (reply == nullptr);
                  });
  simulator.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(client.rpc.timeouts(), 1u);
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsDropped) {
  // Round trip takes 10ms (5ms each way) but the timeout is 8ms.
  int called = 0;
  bool got_null = false;
  client.rpc.call(server.rpc.self(), std::make_unique<Echo>(1),
                  sim::SimTime::millis(8), [&](MessagePtr reply) {
                    ++called;
                    got_null = (reply == nullptr);
                  });
  simulator.run();
  EXPECT_EQ(called, 1);  // continuation fires exactly once (the timeout)
  EXPECT_TRUE(got_null);
  EXPECT_EQ(server.served, 1);  // server did process the request
}

TEST_F(RpcTest, ConcurrentCallsCorrelateCorrectly) {
  std::vector<int> results(10, -1);
  for (int i = 0; i < 10; ++i) {
    client.rpc.call(server.rpc.self(), std::make_unique<Echo>(i),
                    sim::SimTime::seconds(1), [&results, i](MessagePtr reply) {
                      ASSERT_NE(reply, nullptr);
                      results[static_cast<size_t>(i)] =
                          msg_cast<Echo>(reply.get())->value;
                    });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * 2);
  }
}

TEST_F(RpcTest, CancelSuppressesContinuation) {
  bool fired = false;
  const auto id = client.rpc.call(server.rpc.self(), std::make_unique<Echo>(1),
                                  sim::SimTime::seconds(1),
                                  [&](MessagePtr) { fired = true; });
  client.rpc.cancel(id);
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(client.rpc.outstanding(), 0u);
}

TEST_F(RpcTest, CancelAllOnCrash) {
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    client.rpc.call(server.rpc.self(), std::make_unique<Echo>(i),
                    sim::SimTime::seconds(1), [&](MessagePtr) { ++fired; });
  }
  client.rpc.cancel_all();
  simulator.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(RpcTest, FireAndForgetSend) {
  client.rpc.send(server.rpc.self(), std::make_unique<Echo>(3));
  simulator.run();
  EXPECT_EQ(server.served, 1);
}

TEST_F(RpcTest, CallRetrySucceedsFirstTry) {
  int got = 0, factory_calls = 0;
  client.rpc.call_retry(server.rpc.self(),
                        [&]() -> MessagePtr {
                          ++factory_calls;
                          return std::make_unique<Echo>(5);
                        },
                        sim::SimTime::millis(100), 3, [&](MessagePtr reply) {
                          ASSERT_NE(reply, nullptr);
                          got = msg_cast<Echo>(reply.get())->value;
                        });
  simulator.run();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(factory_calls, 1);  // no retransmission needed
}

TEST_F(RpcTest, CallRetryRetransmitsThroughMutedPeriod) {
  // The server ignores the first two transmissions, then answers.
  server.mute = true;
  int transmissions = 0;
  int got = -1;
  client.rpc.call_retry(
      server.rpc.self(),
      [&]() -> MessagePtr {
        if (++transmissions == 3) server.mute = false;  // third one lands
        return std::make_unique<Echo>(7);
      },
      sim::SimTime::millis(100), 5, [&](MessagePtr reply) {
        ASSERT_NE(reply, nullptr);
        got = msg_cast<Echo>(reply.get())->value;
      });
  simulator.run();
  EXPECT_EQ(got, 14);
  EXPECT_EQ(transmissions, 3);
}

TEST_F(RpcTest, CallRetryGivesUpAfterAllAttempts) {
  server.mute = true;
  int transmissions = 0;
  bool failed = false;
  client.rpc.call_retry(server.rpc.self(),
                        [&]() -> MessagePtr {
                          ++transmissions;
                          return std::make_unique<Echo>(1);
                        },
                        sim::SimTime::millis(50), 3, [&](MessagePtr reply) {
                          failed = (reply == nullptr);
                        });
  simulator.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(transmissions, 3);
  EXPECT_EQ(client.rpc.timeouts(), 3u);
}

TEST_F(RpcTest, CallRetryOvercomesSustainedLoss) {
  // 40% loss each way makes single-shot calls fail often; the growing-RTO
  // retransmit schedule must still push nearly every call through.
  net.fault_plane().set_congestion(0.4, 1.0);
  constexpr int kCalls = 20;
  int ok = 0, failed = 0;
  for (int i = 0; i < kCalls; ++i) {
    client.rpc.call_retry(
        server.rpc.self(), [i]() -> MessagePtr { return std::make_unique<Echo>(i); },
        sim::SimTime::millis(50), 8,
        [&](MessagePtr reply) { (reply != nullptr ? ok : failed)++; });
  }
  simulator.run();
  EXPECT_EQ(ok + failed, kCalls);
  EXPECT_GE(ok, kCalls - 2);
  // The loss was real: some transmissions died and forced retries.
  EXPECT_GT(net.stats().messages_dropped_fault, 0u);
  EXPECT_GT(client.rpc.timeouts(), 0u);
}

TEST_F(RpcTest, CallRetryDuplicatedRepliesFireContinuationOnce) {
  net.fault_plane().set_duplication(1.0);  // every message sent twice
  int fired = 0;
  int got = -1;
  client.rpc.call_retry(
      server.rpc.self(), []() -> MessagePtr { return std::make_unique<Echo>(9); },
      sim::SimTime::millis(100), 3, [&](MessagePtr reply) {
        ++fired;
        ASSERT_NE(reply, nullptr);
        got = msg_cast<Echo>(reply.get())->value;
      });
  simulator.run();
  EXPECT_EQ(fired, 1);  // twin replies are consumed, not re-delivered
  EXPECT_EQ(got, 18);
  EXPECT_GT(net.stats().messages_duplicated, 0u);
}

TEST_F(RpcTest, CallRetryLateReplyToEarlierAttemptIsNotMisdelivered) {
  // Round trip is 10ms; attempt 1 times out at 5.5ms and attempt 2 leaves
  // after a pause of at most 3/4 of that (before 9.7ms), so attempt 1's
  // reply arrives while attempt 2 is outstanding. Attempt 2 waits 11ms,
  // longer than its round trip. The stale reply must be swallowed and
  // attempt 2's own reply must complete the call — exactly one firing.
  int transmissions = 0;
  int fired = 0;
  int got = -1;
  client.rpc.call_retry(server.rpc.self(),
                        [&]() -> MessagePtr {
                          ++transmissions;
                          return std::make_unique<Echo>(11);
                        },
                        sim::SimTime::micros(5500), 3, [&](MessagePtr reply) {
                          ++fired;
                          ASSERT_NE(reply, nullptr);
                          got = msg_cast<Echo>(reply.get())->value;
                        });
  simulator.run();
  EXPECT_EQ(transmissions, 2);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(got, 22);
  EXPECT_EQ(server.served, 2);  // both attempts reached the server
}

TEST_F(RpcTest, CallRetryGapsGrowWithTheTimeout) {
  // A pause never exceeds the timeout, so the doubling RTO dominates: gap i
  // is timeout × 2^i plus a pause in [timeout/4, timeout], and successive
  // retransmission gaps must widen until the RTO reaches its 4× cap.
  server.mute = true;
  std::vector<sim::SimTime> sent;
  client.rpc.call_retry(server.rpc.self(),
                        [&]() -> MessagePtr {
                          sent.push_back(simulator.now());
                          return std::make_unique<Echo>(1);
                        },
                        sim::SimTime::millis(50), 3, [](MessagePtr) {});
  simulator.run();
  ASSERT_EQ(sent.size(), 3u);
  const auto gap1 = sent[1] - sent[0];
  const auto gap2 = sent[2] - sent[1];
  EXPECT_GT(gap2.ns(), gap1.ns());
}

/// Two endpoints on the same address must not steal each other's replies.
struct DualEndpointHost final : MessageHandler {
  explicit DualEndpointHost(Network& network)
      : addr(network.add_handler(this)),
        layer1(network, addr),
        layer2(network, addr) {}
  void on_message(NodeAddr from, MessagePtr msg) override {
    if (layer1.consume_reply(msg)) return;
    if (layer2.consume_reply(msg)) return;
    // Echo server role for requests:
    const auto* m = msg_cast<Echo>(msg.get());
    layer1.reply(from, *m, std::make_unique<Echo>(m->value + 100));
  }
  NodeAddr addr;
  RpcEndpoint layer1;
  RpcEndpoint layer2;
};

TEST(RpcMultiEndpoint, DisjointIdStreams) {
  sim::Simulator simulator;
  Network net{simulator, Rng{2},
              LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(1)}};
  DualEndpointHost a{net};
  DualEndpointHost b{net};
  int got1 = 0, got2 = 0;
  a.layer1.call(b.addr, std::make_unique<Echo>(1), sim::SimTime::seconds(1),
                [&](MessagePtr reply) {
                  ASSERT_NE(reply, nullptr);
                  got1 = msg_cast<Echo>(reply.get())->value;
                });
  a.layer2.call(b.addr, std::make_unique<Echo>(2), sim::SimTime::seconds(1),
                [&](MessagePtr reply) {
                  ASSERT_NE(reply, nullptr);
                  got2 = msg_cast<Echo>(reply.get())->value;
                });
  simulator.run();
  EXPECT_EQ(got1, 101);
  EXPECT_EQ(got2, 102);
}

// The pending-call slab recycles slots; correlation ids carry a generation
// tag so every call still gets a unique id and slot reuse can never route a
// reply to the wrong continuation.
TEST_F(RpcTest, SlabReuseKeepsCorrelationIdsUnique) {
  std::set<std::uint64_t> ids;
  int completed = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t id =
        client.rpc.call(server.rpc.self(), std::make_unique<Echo>(round),
                        sim::SimTime::seconds(1), [&](MessagePtr reply) {
                          ASSERT_NE(reply, nullptr);
                          ++completed;
                        });
    EXPECT_TRUE(ids.insert(id).second) << "correlation id reused live";
    simulator.run();  // complete the call; its slot is recycled next round
    EXPECT_EQ(client.rpc.outstanding(), 0u);
  }
  EXPECT_EQ(completed, 1000);
  EXPECT_EQ(ids.size(), 1000u);
}

TEST_F(RpcTest, StaleReplyForRecycledSlotIsDropped) {
  // First call times out (mute server): its slot is freed. A second call
  // then occupies the same slot with a bumped generation. The late reply to
  // the first call must not complete the second.
  server.mute = true;
  bool first_timed_out = false;
  client.rpc.call(server.rpc.self(), std::make_unique<Echo>(1),
                  sim::SimTime::millis(8),
                  [&](MessagePtr reply) { first_timed_out = reply == nullptr; });
  simulator.run();
  ASSERT_TRUE(first_timed_out);
  server.mute = false;
  int second_value = -1;
  client.rpc.call(server.rpc.self(), std::make_unique<Echo>(50),
                  sim::SimTime::seconds(1), [&](MessagePtr reply) {
                    ASSERT_NE(reply, nullptr);
                    second_value = msg_cast<Echo>(reply.get())->value;
                  });
  simulator.run();
  EXPECT_EQ(second_value, 100);
  EXPECT_EQ(server.served, 2);
}

// Ownership contract at the delivery boundary: the handler receives the
// moved MessagePtr exactly once per delivered datagram, and keeping it
// alive past the handler (as RPC continuations do) must be safe even
// though freed blocks are recycled by the message pool.
TEST(RpcDelivery, HandlerOwnsEachDeliveredMessageExactlyOnce) {
  sim::Simulator simulator;
  Network net{simulator, Rng{5},
              LatencyModel{sim::SimTime::millis(1), sim::SimTime::millis(1)}};
  struct Keeper final : MessageHandler {
    std::vector<MessagePtr> kept;
    void on_message(NodeAddr /*from*/, MessagePtr msg) override {
      ASSERT_NE(msg, nullptr);
      kept.push_back(std::move(msg));
    }
  };
  Keeper sink;
  const NodeAddr sink_addr = net.add_handler(&sink);
  Keeper src;
  const NodeAddr src_addr = net.add_handler(&src);
  constexpr int kSends = 12;
  for (int i = 0; i < kSends; ++i) {
    net.send(src_addr, sink_addr, std::make_unique<Echo>(i));
  }
  simulator.run();
  ASSERT_EQ(sink.kept.size(), static_cast<std::size_t>(kSends));
  // Distinct live allocations, payloads intact: pool reuse may only hand
  // out blocks whose previous occupant was already destroyed.
  std::set<const Message*> distinct;
  for (int i = 0; i < kSends; ++i) {
    distinct.insert(sink.kept[static_cast<std::size_t>(i)].get());
    EXPECT_EQ(msg_cast<Echo>(sink.kept[static_cast<std::size_t>(i)].get())->value,
              i);
  }
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kSends));
}

TEST_F(RpcTest, OutstandingTracksSlabOccupancy) {
  server.mute = true;
  for (int i = 0; i < 16; ++i) {
    client.rpc.call(server.rpc.self(), std::make_unique<Echo>(i),
                    sim::SimTime::seconds(1), [](MessagePtr) {});
  }
  EXPECT_EQ(client.rpc.outstanding(), 16u);
  // Each call holds one timeout event; the 16 request datagrams are also
  // still in flight as delivery events.
  EXPECT_EQ(simulator.queued(), 32u);
  client.rpc.cancel_all();
  EXPECT_EQ(client.rpc.outstanding(), 0u);
  // cancel_all released exactly the timeout events; deliveries remain.
  EXPECT_EQ(simulator.queued(), 16u);
  simulator.run();
  EXPECT_EQ(client.rpc.outstanding(), 0u);
}

}  // namespace
}  // namespace pgrid::net
