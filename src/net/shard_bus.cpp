#include "net/shard_bus.h"

#include <utility>

#include "net/network.h"

namespace pgrid::net {

ShardBus::ShardBus(std::size_t shards, std::uint64_t seed)
    : shards_(shards), seed_(seed) {
  PGRID_EXPECTS(shards >= 1);
  boxes_.resize(shards_ * shards_);
  nets_.resize(shards_, nullptr);
}

ShardBus::~ShardBus() = default;

void ShardBus::attach(std::uint32_t shard, Network& net) {
  PGRID_EXPECTS(shard < shards_);
  PGRID_EXPECTS(nets_[shard] == nullptr);
  nets_[shard] = &net;
}

NodeAddr ShardBus::register_handler(MessageHandler* handler,
                                    std::uint32_t shard) {
  PGRID_EXPECTS(handler != nullptr);
  PGRID_EXPECTS(shard < shards_);
  PGRID_EXPECTS(!frozen_);
  // Provenance keys pack the sender address into bits 32..62.
  PGRID_EXPECTS(handlers_.size() < (1u << 31));
  const auto addr = static_cast<std::uint64_t>(handlers_.size());
  handlers_.push_back(handler);
  shard_of_.push_back(shard);
  alive_.push_back(true);
  // Seeded from (bus seed, addr) only — never from a shared draw sequence —
  // so the stream is identical under every shard count.
  senders_.push_back(
      SenderState{Rng(hash_combine(mix64(seed_), mix64(addr))), 0, 0});
  return static_cast<NodeAddr>(addr);
}

void ShardBus::set_handler(NodeAddr addr, MessageHandler* handler) {
  PGRID_EXPECTS(addr < handlers_.size());
  handlers_[addr] = handler;
}

void ShardBus::set_alive(NodeAddr addr, bool alive) {
  PGRID_EXPECTS(addr < alive_.size());
  alive_[addr] = alive;
}

Rng ShardBus::fork_endpoint_rng(NodeAddr addr) {
  PGRID_EXPECTS(addr < senders_.size());
  SenderState& s = senders_[addr];
  return Rng(hash_combine(hash_combine(mix64(seed_ + 1), mix64(addr)),
                          mix64(++s.endpoint_forks)));
}

void ShardBus::enqueue(std::uint32_t src, std::uint32_t dst, RemoteMessage m) {
  PGRID_EXPECTS(src < shards_ && dst < shards_);
  box(src, dst).push_back(std::move(m));
}

void ShardBus::drain_into(std::uint32_t dst) {
  PGRID_EXPECTS(dst < shards_);
  Network* net = nets_[dst];
  PGRID_EXPECTS(net != nullptr);
  std::uint64_t drained = 0;
  // Source-shard-major, FIFO within a box: a fixed order for a fixed shard
  // count. (Insertion order only shapes the destination heap, never the
  // execution order — provenance keys are a total order — so even this
  // ordering is cosmetic; it is kept deterministic for debuggability.)
  for (std::uint32_t src = 0; src < shards_; ++src) {
    std::vector<RemoteMessage>& b = box(src, dst);
    for (RemoteMessage& m : b) {
      net->deliver_remote(m.from, m.to, m.at, m.key, std::move(m.msg));
    }
    drained += b.size();
    b.clear();
  }
  if (drained != 0) handoffs_.fetch_add(drained, std::memory_order_relaxed);
}

}  // namespace pgrid::net
