#pragma once
// Rendezvous Node Tree (§3.1): a decentralized aggregation tree over Chord.
//
// Construction (instantiating the paper's deferred details, see DESIGN.md §4):
// the 64-bit key space is a binary trie of regions; a node *represents* a
// region iff it is the Chord successor of the region's low key, which it can
// decide from its predecessor pointer alone. A node's level is the largest
// region it represents; its parent is the representative of the enclosing
// region, found with one Chord lookup and kept until it may be wrong.
// Expected height is O(log N) for uniform GUIDs.
//
// Each node periodically pushes its subtree aggregate (per-resource maxima,
// node count, minimum load) to its parent, which acknowledges whether it
// still represents the child's parent key. Matchmaking searches are DFS
// tokens: pruned by child aggregates, ascending toward the root, continuing
// until k candidates are found (the paper's "extended search").

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chord/chord_node.h"
#include "common/flat_map.h"
#include "common/phi_detector.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"
#include "net/rpc.h"
#include "rntree/aggregate.h"
#include "rntree/messages.h"
#include "sim/simulator.h"

namespace pgrid::rntree {

struct RnTreeConfig {
  sim::SimTime aggregation_period = sim::SimTime::seconds(2.0);
  /// φ's deadline for a child with fewer than PhiDetector::kMinSamples
  /// observed push gaps: unheard for this long, it is dropped from the
  /// aggregate.
  sim::SimTime child_expiry = sim::SimTime::seconds(7.0);
  sim::SimTime rpc_timeout = sim::SimTime::seconds(2.0);
  /// Deadline for a whole search before reporting what we have (nothing).
  sim::SimTime search_timeout = sim::SimTime::seconds(30.0);
  std::uint32_t max_visits = 64;
};

struct RnTreeStats {
  std::uint64_t searches_started = 0;
  std::uint64_t searches_completed = 0;
  std::uint64_t searches_timed_out = 0;
  std::uint64_t tokens_processed = 0;
  /// Duplicate token instances suppressed (network-level duplication).
  std::uint64_t tokens_deduplicated = 0;
  /// Suspicion-rounds: children past the fixed expiry retained by φ.
  std::uint64_t suspicions = 0;
  RunningStats search_hops;
  RunningStats candidates_found;
};

class RnTreeService {
 public:
  struct LocalInfo {
    Caps caps{};
    double load = 0.0;
  };
  /// Supplied by the grid layer: this node's capabilities and current load.
  using InfoProvider = std::function<LocalInfo()>;

  /// Search outcome: candidates (possibly empty) and overlay hops consumed.
  using SearchCallback =
      std::function<void(std::vector<Candidate> candidates, int hops)>;

  RnTreeService(net::Network& network, chord::ChordNode& chord,
                RnTreeConfig config, InfoProvider info, Rng rng);
  ~RnTreeService();

  RnTreeService(const RnTreeService&) = delete;
  RnTreeService& operator=(const RnTreeService&) = delete;

  /// Begin periodic aggregation pushes (call once the Chord node is wired).
  void start();
  void stop();

  /// Find up to k nodes satisfying `query`, starting the DFS at this node.
  void search(const Query& query, std::uint32_t k, SearchCallback cb);

  bool handle(net::NodeAddr from, net::MessagePtr& msg);

  // --- introspection ------------------------------------------------------
  /// This node's level: the smallest trie level it represents (0 = root).
  /// O(1) from the Chord predecessor.
  [[nodiscard]] int level() const;
  /// True iff this node is the tree root (represents the whole key space).
  [[nodiscard]] bool is_root() const { return level() == 0; }
  /// The key whose Chord successor is this node's parent.
  [[nodiscard]] Guid parent_key() const;
  [[nodiscard]] Peer cached_parent() const noexcept { return parent_; }
  /// Instant bootstrap: take `parent`, the Chord successor of parent_key()
  /// on an instantly wired ring, as the cached parent, so the first
  /// aggregation round pushes without a lookup. No-op at the root.
  void install_parent(Peer parent);
  [[nodiscard]] Aggregate subtree_aggregate() const;
  [[nodiscard]] std::size_t child_count() const noexcept {
    return children_.size();
  }
  [[nodiscard]] const RnTreeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return rpc_.self(); }

  /// Bytes behind the child table, pending searches, and the seen-token
  /// ring (memory accounting; capacity snapshot, nothing on the hot path).
  [[nodiscard]] std::size_t table_memory_bytes() const noexcept {
    return children_.capacity() *
               sizeof(std::pair<net::NodeAddr, ChildState>) +
           pending_searches_.capacity() *
               sizeof(std::pair<std::uint64_t, PendingSearch>) +
           seen_tokens_.capacity() * sizeof(SeenToken);
  }

  /// Bytes held by this service's RPC pending-call slab.
  [[nodiscard]] std::size_t rpc_memory_bytes() const noexcept {
    return rpc_.memory_bytes();
  }

 private:
  struct ChildState {
    Guid id;
    Aggregate aggregate;
    /// Aggregation-push inter-arrival history: a child whose pushes merely
    /// slowed (congestion) is retained until its silence is implausible
    /// under its learned cadence.
    PhiDetector phi;
  };

  struct PendingSearch {
    SearchCallback cb;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };

  /// True iff `key` lies in (predecessor, self]: this node is its Chord
  /// successor as far as local information can tell.
  [[nodiscard]] bool represents(Guid key) const;
  void do_aggregation_push();
  /// Push the subtree aggregate to parent_ as an RPC; a missing or refusing
  /// AggAck marks the parent stale for the next round.
  void push_aggregate();
  void expire_children();

  /// Process the token at this node: record self if satisfying, then move
  /// it to the next unvisited qualifying child, else to the parent, else
  /// finish. Caller has already ack'd receipt.
  void process_token(std::unique_ptr<TokenPass> token);
  void forward_token(std::unique_ptr<TokenPass> token, Peer next);
  void finish_search(std::unique_ptr<TokenPass> token);

  void on_agg_update(net::NodeAddr from, const AggUpdate& msg);
  void on_token(net::NodeAddr from, net::MessagePtr& msg);
  void on_search_result(const SearchResult& msg);

  net::Network& net_;
  chord::ChordNode& chord_;
  net::RpcEndpoint rpc_;
  RnTreeConfig config_;
  InfoProvider info_;
  Rng rng_;

  bool running_ = false;
  // The cached parent, the key it was resolved from, and whether the last
  // push to it went unacknowledged or was refused. A stale parent still
  // carries ascending tokens until the next round's lookup replaces it.
  Peer parent_ = kNoPeer;
  Guid parent_key_;
  bool parent_stale_ = false;
  // Flat sorted table: scanned on every token descent and aggregation push;
  // iteration order (sorted by address) matches the std::map it replaced.
  FlatMap<net::NodeAddr, ChildState> children_;
  std::unique_ptr<sim::PeriodicTask> agg_task_;

  std::uint64_t next_search_id_ = 1;
  // Flat sorted table like children_: searches are few and short-lived, and
  // every handler moves the callback out and erases before invoking it, so
  // vector iterator invalidation cannot bite.
  FlatMap<std::uint64_t, PendingSearch> pending_searches_;

  // A token is a mobile agent: if the network duplicates the message, both
  // copies would resume the walk and fork it — exponential token growth
  // under sustained duplication. (initiator, search_id, hops) identifies a
  // token instance exactly: a legitimate revisit of this node (descend then
  // ascend) always carries a different hop count, a network-level duplicate
  // never does. Bounded ring of recently seen instances.
  struct SeenToken {
    net::NodeAddr initiator = net::kNullAddr;
    std::uint64_t search_id = 0;
    std::uint32_t hops = 0;
  };
  static constexpr std::size_t kSeenTokenCap = 128;
  std::vector<SeenToken> seen_tokens_;
  std::size_t seen_cursor_ = 0;

  RnTreeStats stats_;
};

}  // namespace pgrid::rntree
