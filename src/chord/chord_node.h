#pragma once
// Chord DHT node (Stoica et al., SIGCOMM'01): the underlying lookup service
// the paper assumes for the RN-Tree framework and for mapping job GUIDs to
// owner nodes (Fig. 1 steps 1-2).
//
// Iterative lookups (the initiator drives hop-by-hop), successor lists for
// failure resilience, and the standard stabilize / fix-fingers / check-
// predecessor maintenance, run as one batched round per stabilize period
// and driven by the discrete-event simulator. The round sends state only
// when it changed: the StabilizeReq carries the notify and the reply carries
// the successor list only when the requester's copy is out of date; the
// predecessor is pinged only when its φ detector has gone suspect; a finger
// is confirmed by one hop to the finger itself; and lost peers are probed
// on backed-off schedules. A steady round sends a StabilizeReq and receives
// its list-less reply, plus one NextHopReq per remote finger fix.
//
// A ChordNode does not register itself on the network: its owner (a test
// host or a grid node that stacks more protocols on the same address)
// forwards incoming messages to handle().

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "chord/messages.h"
#include "chord/peer.h"
#include "common/flat_map.h"
#include "common/phi_detector.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace pgrid::chord {

struct ChordConfig {
  /// Period of the maintenance round: stabilize (carrying the notify),
  /// kFingerFixesPerRound finger fixes and a predecessor check that pings
  /// only a suspect predecessor.
  sim::SimTime stabilize_period = sim::SimTime::seconds(1.0);
  sim::SimTime rpc_timeout = sim::SimTime::seconds(2.0);
  /// Transmissions per RPC before the call fails (retransmission keeps one
  /// lost datagram from condemning a live node). rpc_timeout × rpc_attempts
  /// is φ's deadline for a peer with fewer than PhiDetector::kMinSamples
  /// observed gaps.
  int rpc_attempts = 2;
  std::size_t successor_list_len = 8;
  /// Whole-lookup restarts after observing a dead hop.
  int lookup_retries = 3;
  /// Static-membership experiments can skip periodic maintenance entirely.
  bool run_maintenance = true;
};

struct ChordStats {
  std::uint64_t lookups_started = 0;
  std::uint64_t lookups_ok = 0;
  std::uint64_t lookups_failed = 0;
  RunningStats lookup_hops;
  std::uint64_t suspicions = 0;      // φ: timeouts downgraded to suspicion
  std::uint64_t evictions = 0;       // remove_failed invocations
  std::uint64_t succ_refreshes = 0;  // suspicion-triggered tail refreshes
  std::uint64_t predecessor_clears = 0;  // a valid predecessor was dropped
  std::uint64_t finger_checks = 0;  // remote finger fixes begun at the finger
};

class ChordNode {
 public:
  static constexpr int kBits = 64;
  /// Finger fixes per maintenance round: a full table refresh every
  /// kBits / kFingerFixesPerRound rounds.
  static constexpr int kFingerFixesPerRound = 2;
  /// Longest gap, in maintenance rounds, between two probes of one lost
  /// peer; the gap doubles from one round up to this.
  static constexpr std::uint32_t kMaxProbeGap = 32;

  /// Lookup continuation: result is successor(key), or invalid on failure;
  /// hops counts remote next-hop queries issued (0 if resolved locally).
  using LookupCallback = std::function<void(Peer result, int hops)>;

  ChordNode(net::Network& network, net::NodeAddr self, Guid id,
            ChordConfig config, Rng rng);
  ~ChordNode();

  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  /// Start a new ring containing only this node.
  void create();

  /// Join an existing ring through `bootstrap`. `done(ok)` fires once the
  /// successor is resolved; full table convergence happens via maintenance.
  void join(Peer bootstrap, std::function<void(bool ok)> done);

  /// Crash: stop timers, drop all protocol state and outstanding RPCs.
  /// (The owner is responsible for marking the address dead on the network.)
  void crash();

  /// Resolve successor(key) starting from this node.
  void lookup(Guid key, LookupCallback cb);

  /// Offer an incoming message; returns true iff it was a Chord message.
  bool handle(net::NodeAddr from, net::MessagePtr& msg);

  [[nodiscard]] Guid id() const noexcept { return id_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return rpc_.self(); }
  [[nodiscard]] Peer self_peer() const noexcept { return Peer{addr(), id_}; }
  [[nodiscard]] Peer successor() const noexcept {
    return successors_.empty() ? kNoPeer : successors_.front();
  }
  [[nodiscard]] Peer predecessor() const noexcept { return predecessor_; }
  [[nodiscard]] const std::vector<Peer>& successor_list() const noexcept {
    return successors_;
  }
  [[nodiscard]] Peer finger(int i) const {
    return fingers_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] const ChordStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ChordConfig& config() const noexcept { return config_; }
  /// φ-accrual detectors held; bounded by the routing state.
  [[nodiscard]] std::size_t detector_count() const noexcept {
    return detectors_.size();
  }

  /// Bytes behind this node's routing state (successor list, route scan,
  /// lost-peer ring) for memory accounting; capacity snapshot, not hot path.
  [[nodiscard]] std::size_t table_memory_bytes() const noexcept {
    return (successors_.capacity() + route_scan_.capacity()) * sizeof(Peer) +
           lost_.capacity() * sizeof(LostPeer) +
           struck_.capacity() * sizeof(net::NodeAddr) +
           detectors_.capacity() *
               sizeof(std::pair<net::NodeAddr, PhiDetector>) +
           sizeof(fingers_);
  }

  /// Bytes held by this node's RPC pending-call slab.
  [[nodiscard]] std::size_t rpc_memory_bytes() const noexcept {
    return rpc_.memory_bytes();
  }

  /// A random routing-table entry (for the RN-Tree's limited random walk).
  [[nodiscard]] Peer random_peer(Rng& rng) const;

  /// Install exact routing state (instant bootstrap for experiments).
  void install_state(Peer predecessor, std::vector<Peer> successor_list,
                     const std::array<Peer, kBits>& fingers);

 private:
  // --- message handlers -----------------------------------------------
  void on_next_hop(net::NodeAddr from, const NextHopReq& req);
  void on_stabilize(net::NodeAddr from, const StabilizeReq& req);
  void on_ping(net::NodeAddr from, const PingReq& req);
  /// The notify rule, for a Notify and for the notify a StabilizeReq
  /// carries: adopt `cand` as predecessor if there is none or it lies
  /// between the current one and this node.
  void consider_predecessor(Peer cand);

  // --- lookup machinery -------------------------------------------------
  struct LookupState {
    Guid key;
    LookupCallback cb;
    int hops = 0;
    int retries_left = 0;
    std::vector<Guid> avoid;
    /// The first hop is a finger check: only a done answer ends it there,
    /// and a next-hop answer or a timeout restarts from this node.
    bool check = false;
  };
  /// lookup(), or with `check` valid a finger check: ask `check` first.
  void start_lookup(Guid key, LookupCallback cb, Peer check);
  /// successor(key) when this node can name it without asking anyone (the
  /// key lies in (predecessor, self] or (self, successor]), else kNoPeer.
  [[nodiscard]] Peer local_owner(Guid key) const;
  void lookup_restart(const std::shared_ptr<LookupState>& st);
  void lookup_ask(const std::shared_ptr<LookupState>& st, Peer target);
  void lookup_done(const std::shared_ptr<LookupState>& st, Peer result);
  void lookup_failed(const std::shared_ptr<LookupState>& st);

  /// Closest finger/successor strictly between this node and `key`,
  /// skipping `avoid`.
  [[nodiscard]] Peer closest_preceding(Guid key,
                                       const std::vector<Guid>& avoid) const;

  // --- maintenance -------------------------------------------------------
  void start_maintenance();
  /// One maintenance round in one batch scope, so the probes that target
  /// the same peer (usually the successor) share a wire message.
  void do_maintenance_round();
  /// StabilizeReq to the successor, which also notifies it; an explicit
  /// Notify follows only when the reply reveals a closer successor.
  void do_stabilize();
  /// Fix the next finger: locally when its start lies before the successor,
  /// else by a finger check, which falls back to a full lookup.
  void do_fix_fingers();
  /// Ping the predecessor only when its detector is suspect (a live one
  /// is heard every round through its StabilizeReq); clear it when the
  /// ping fails and φ allows eviction.
  void do_check_predecessor();
  /// Install [head] + tail, deduplicated and truncated; `version` as for
  /// set_successors.
  void adopt_successor_list(Peer head, const std::vector<Peer>& tail,
                            std::uint32_t version);
  /// Every successors_ write goes through here. A changed list bumps
  /// succ_version_ and sets head_version_ to `version` (the head's version
  /// the list was copied at, 0 for a local edit or a new head); an
  /// unchanged one keeps head_version_ unless `version` is non-zero.
  /// Returns whether the list changed; the caller rebuilds the route scan.
  bool set_successors(std::vector<Peer> list, std::uint32_t version);
  void remove_failed(Peer peer);
  /// Recompute route_scan_ and drop the φ detectors of peers that are no
  /// longer routing peers; must follow any fingers_/successors_/
  /// predecessor_ change.
  void rebuild_route_scan();
  /// True for the predecessor and every route_scan_ entry.
  [[nodiscard]] bool is_routing_peer(net::NodeAddr peer) const noexcept;

  // --- φ-accrual liveness --------------------------------------------------
  // An RPC timeout against a peer heard from recently only *suspects* it
  // (triggering a successor-tail refresh); eviction waits until the silence
  // is implausible under the learned arrival gaps.
  /// Record an arrival from `from` if it is a current routing peer (bounds
  /// detector growth to the table).
  void note_alive(net::NodeAddr from);
  /// True when the detector agrees the peer may be evicted, or when there
  /// is no arrival history to judge by (a timed-out RPC then condemns it).
  [[nodiscard]] bool phi_allows_evict(net::NodeAddr peer) const;
  /// The eviction rule for a lookup hop whose call failed: a peer with
  /// arrival history is judged by φ; one without is struck, and evicted
  /// only by its second consecutive failed call.
  [[nodiscard]] bool hop_failure_evicts(net::NodeAddr peer);
  /// Give a newly installed predecessor a detector with one arrival, so
  /// the suspect check judges it from now on (a detector that has seen
  /// nothing never turns suspect).
  void seed_predecessor_detector();
  /// Cold-start deadline of the predecessor's suspect check:
  /// 2 × stabilize_period + rpc_timeout × rpc_attempts.
  [[nodiscard]] sim::SimTime predecessor_suspect_deadline() const;
  /// Suspicion action: rebuild the successor-list tail behind the (kept)
  /// head from the first live backup's fresh view of the ring.
  void refresh_successor_tail();

  // --- partition-heal reconciliation ------------------------------------
  // Peers evicted by remove_failed are remembered (bounded) and probed,
  // each on its own schedule: one round after the eviction, then at gaps
  // doubling up to kMaxProbeGap rounds, and at once when a StabilizeResp
  // names one as the closer successor. A probe answered means the peer was
  // not dead but unreachable — a healed partition or a restarted node — and
  // the two rings that formed in the meantime must merge again. Without
  // this, stabilize alone never reconnects disjoint rings.
  struct LostPeer {
    Peer peer;
    std::uint32_t gap = 1;   // rounds between its scheduled probes, doubling
    std::uint32_t wait = 1;  // rounds until its next scheduled probe
    bool probing = false;    // a probe to it is out
  };
  void note_lost(Peer peer);
  [[nodiscard]] LostPeer* find_lost(Peer peer) noexcept;
  void reconcile_lost();
  /// Ping a lost peer unless a probe to it is out; an answer revives it.
  void probe_lost(LostPeer& lost);
  void revive(Peer peer);

  net::Network& net_;
  net::RpcEndpoint rpc_;
  Guid id_;
  ChordConfig config_;
  Rng rng_;

  bool running_ = false;
  Peer predecessor_ = kNoPeer;
  std::vector<Peer> successors_;  // front() is the successor
  /// Bumped by every change to successors_ and never reset, not even by
  /// crash(), so a number a requester copied cannot name a later list.
  std::uint32_t succ_version_ = 0;
  /// The head's succ_version_ that successors_ was last copied at, sent in
  /// each StabilizeReq; 0 after a local edit or a head change.
  std::uint32_t head_version_ = 0;
  std::array<Peer, kBits> fingers_{};
  int next_finger_ = 0;
  /// closest_preceding's scan order — fingers_ high-to-low then successors_
  /// — with invalid/self entries and adjacent-duplicate runs removed.
  /// Most of the 64 fingers repeat the same few peers (only ~log2(N) are
  /// distinct), and dropping repeats cannot change an arg-max, so routing
  /// decisions are identical while the per-hop scan shrinks ~5x. Rebuilt
  /// by every fingers_/successors_ mutation site (rebuild_route_scan).
  std::vector<Peer> route_scan_;

  static constexpr std::size_t kLostCap = 16;
  std::vector<LostPeer> lost_;  // candidates for ring-merge probing

  /// Routing peers without arrival history whose last lookup hop failed
  /// (hop_failure_evicts); pruned with the detectors.
  std::vector<net::NodeAddr> struck_;

  /// Per-peer arrival history for φ-accrual, fed by Chord messages only and
  /// held only for routing peers (is_routing_peer): note_alive admits no
  /// others and rebuild_route_scan drops the rest.
  FlatMap<net::NodeAddr, PhiDetector> detectors_;

  std::unique_ptr<sim::PeriodicTask> maintenance_task_;

  ChordStats stats_;
};

}  // namespace pgrid::chord
