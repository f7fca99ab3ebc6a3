#pragma once
// CAN node: owns one or more zones of [0,1)^d, maintains the neighbor set,
// routes greedily, splits on join, and takes over neighbors' zones on
// failure (smallest-volume claimant first, per the CAN paper's takeover).
//
// Like ChordNode, a CanNode does not register itself on the network; its
// host forwards messages to handle() so grid nodes can stack layers on one
// address.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "can/geometry.h"
#include "can/messages.h"
#include "common/flat_map.h"
#include "common/phi_detector.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace pgrid::can {

struct CanConfig {
  std::size_t dims = 4;
  sim::SimTime update_period = sim::SimTime::seconds(2.0);
  /// φ's deadline for a neighbor with fewer than PhiDetector::kMinSamples
  /// observed update gaps: unheard for this long, it is taken over.
  sim::SimTime neighbor_timeout = sim::SimTime::seconds(7.0);
  sim::SimTime rpc_timeout = sim::SimTime::seconds(2.0);
  /// Transmissions per RPC before the peer is presumed dead.
  int rpc_attempts = 2;
  /// Takeover timers are this base scaled by the claimant's volume share,
  /// so smaller nodes claim first (approximate CAN takeover ordering).
  sim::SimTime takeover_base_delay = sim::SimTime::seconds(1.0);
  int route_retries = 3;
  bool run_maintenance = true;
  /// Weight of a node's own load in the per-dimension upstream load report
  /// (the remainder comes from the report received from above).
  double push_alpha = 0.5;
};

struct CanStats {
  std::uint64_t routes_started = 0;
  std::uint64_t routes_ok = 0;
  std::uint64_t routes_failed = 0;
  std::uint64_t takeovers = 0;
  RunningStats route_hops;
  std::uint64_t suspicions = 0;   // φ: stale neighbors not yet taken over
  std::uint64_t gap_repairs = 0;  // tiling-gap claims (do_gap_audit)
};

/// Everything a node knows about a neighbor.
struct NeighborState {
  Guid id;
  std::vector<Zone> zones;
  Point rep_point;  // the neighbor's coordinates (capabilities)
  double load = 0.0;
  std::vector<net::NodeAddr> their_neighbors;
  /// Highest ZoneUpdate::seq seen from this neighbor (staleness guard).
  std::uint64_t update_seq = 0;
  /// Sender-side claim version carried by the update that populated `zones`
  /// and `their_neighbors`. 0 = unknown (entry seeded from join contacts /
  /// install_state, which carry no version); real versions start at 1, so
  /// 0 never matches.
  std::uint64_t claim_version = 0;
  /// Receiver-side geometry_epoch_ at the last *quiet* check_claim of this
  /// neighbor's claim (no conflict answered, no hints sent). 0 = never;
  /// epochs start at 1. See claim_scan_current.
  std::uint64_t scan_epoch = 0;
  /// The neighbor's liveness record: inter-arrival history of its updates
  /// and hellos. Staleness is judged against this learned cadence, so a
  /// congested-but-alive neighbor is only *suspected* (re-linked with a
  /// direct zone update) instead of taken over.
  PhiDetector phi;
  /// Maintenance-round bookkeeping: our claim_version_ when this neighbor
  /// last received a full claim from us (0 = never), and contacts since
  /// that full claim or our last replay request, whichever came later.
  std::uint64_t full_sent_version = 0;
  std::uint32_t contacts_since_check = 0;
};

class CanNode {
 public:
  using RouteCallback = std::function<void(Peer owner, int hops)>;

  /// Replay cadence: every this-many contacts without a full claim, the
  /// hello asks the neighbor to re-run every full-claim check on its stored
  /// copy of our claim (NeighborHello::kReplay). A standing double claim
  /// that no full claim carries resolves within this many rounds.
  static constexpr std::uint32_t kFullRefreshContacts = 4;

  CanNode(net::Network& network, net::NodeAddr self, Guid id, Point rep_point,
          CanConfig config, Rng rng);
  ~CanNode();

  CanNode(const CanNode&) = delete;
  CanNode& operator=(const CanNode&) = delete;

  /// Become the first node: own the whole space.
  void create();

  /// Join via `bootstrap`: route to the owner of this node's representative
  /// point and ask it to split its zone.
  void join(Peer bootstrap, std::function<void(bool ok)> done);

  void crash();

  /// Resolve the owner of `target`, starting from this node.
  void route(Point target, RouteCallback cb);

  bool handle(net::NodeAddr from, net::MessagePtr& msg);

  // --- observers used by the matchmaking layer --------------------------
  [[nodiscard]] Guid id() const noexcept { return id_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return rpc_.self(); }
  [[nodiscard]] Peer self_peer() const noexcept { return Peer{addr(), id_}; }
  [[nodiscard]] const Point& rep_point() const noexcept { return rep_point_; }
  [[nodiscard]] const std::vector<Zone>& zones() const noexcept {
    return zones_;
  }
  [[nodiscard]] const FlatMap<net::NodeAddr, NeighborState>& neighbors()
      const noexcept {
    return neighbors_;
  }
  [[nodiscard]] bool owns(const Point& p) const noexcept;
  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] const CanStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CanConfig& config() const noexcept { return config_; }
  /// Version of the claim this node advertises (zones and neighbor set).
  [[nodiscard]] std::uint64_t claim_version() const noexcept {
    return claim_version_;
  }

  /// Bytes behind this node's zone set and neighbor tables (memory
  /// accounting; capacity snapshot, nothing on the hot path). Counts the
  /// nested per-neighbor zone lists and neighbor-of-neighbor vectors too —
  /// they dominate at scale.
  [[nodiscard]] std::size_t table_memory_bytes() const noexcept {
    std::size_t bytes =
        zones_.capacity() * sizeof(Zone) +
        neighbors_.capacity() * sizeof(std::pair<net::NodeAddr, NeighborState>) +
        takeover_timers_.capacity() *
            sizeof(std::pair<net::NodeAddr, sim::EventId>) +
        pending_grants_.capacity() * sizeof(std::pair<net::NodeAddr, Zone>) +
        upstream_load_.capacity() * sizeof(double) +
        lost_.capacity() * sizeof(Peer);
    for (const auto& [addr, ns] : neighbors_) {
      bytes += ns.zones.capacity() * sizeof(Zone) +
               ns.their_neighbors.capacity() * sizeof(net::NodeAddr);
    }
    return bytes;
  }

  /// Bytes held by this node's RPC pending-call slab.
  [[nodiscard]] std::size_t rpc_memory_bytes() const noexcept {
    return rpc_.memory_bytes();
  }

  /// Load advertised to neighbors (the grid layer sets its queue length).
  void set_load(double load) noexcept { load_ = load; }
  [[nodiscard]] double load() const noexcept { return load_; }

  /// Exponentially-weighted load of nodes above this one along `dim`
  /// (negative if nothing has been heard yet).
  [[nodiscard]] double upstream_load(std::size_t dim) const {
    return upstream_load_.at(dim);
  }

  /// Instant bootstrap: install zones and neighbor table directly.
  void install_state(std::vector<Zone> zones,
                     FlatMap<net::NodeAddr, NeighborState> neighbors);

 private:
  struct RouteState {
    Point target;
    RouteCallback cb;
    int hops = 0;
    int retries_left = 0;
    /// Some hop went unanswered: a failed route may have missed a live
    /// owner, so kNoPeer proves no hole.
    bool timed_out = false;
    std::vector<Guid> avoid;
  };

  /// Count and launch a route whose target and callback are set.
  void start_route(const std::shared_ptr<RouteState>& st);
  void route_restart(const std::shared_ptr<RouteState>& st);
  void route_ask(const std::shared_ptr<RouteState>& st, Peer target);
  void route_done(const std::shared_ptr<RouteState>& st, Peer owner);
  void route_failed(const std::shared_ptr<RouteState>& st);

  /// The neighbor whose zones are closest to `p` (no farther than our own
  /// zones; ties go to fewer upper faces touching `p`, then the lower Guid),
  /// skipping `avoid`; kNoPeer at a greedy dead end.
  [[nodiscard]] Peer best_next_hop(const Point& p,
                                   const std::vector<Guid>& avoid) const;

  void on_route(net::NodeAddr from, const RouteReq& req);
  void on_join(net::NodeAddr from, const JoinReq& req);
  void on_zone_update(net::NodeAddr from, const ZoneUpdate& msg);
  /// Every check a neighbor's claim runs, whether it arrives in a full
  /// ZoneUpdate (`update`, whose claim is then stored in the sender's
  /// entry) or is the claim already stored there, replayed on the sender's
  /// request (`update` null): cancel the sender's takeover, drop suspects
  /// the claim covers, settle a join grant, resolve a double claim,
  /// introduce claimants that collide, and drop a non-adjacent sender.
  /// `zones` must not live in neighbors_, which the checks mutate.
  void check_claim(net::NodeAddr from, Peer sender,
                   const std::vector<Zone>& zones, const ZoneUpdate* update);
  /// True while check_claim on the claim stored for `from` would reproduce
  /// its last quiet scan: our geometry is unchanged since that scan (the
  /// entry's scan_epoch), and no takeover timer or grant to `from` is
  /// outstanding, so every check finds nothing to do.
  [[nodiscard]] bool claim_scan_current(net::NodeAddr from,
                                        const NeighborState& ns) const;
  void on_dim_load(const DimLoadReport& msg);
  void on_neighbor_hello(net::NodeAddr from, const NeighborHello& msg);

  void start_maintenance();
  /// Maintenance round (DESIGN.md §16): contact every neighbor, with a full
  /// claim only when its copy is stale and a hello otherwise, everything to
  /// one neighbor coalesced into one wire message.
  void do_update();
  /// Gap check, the last step of every update round: probe the first face
  /// of our zones not covered by any known zone; claim the space if routing
  /// ends at a greedy dead end with every hop answering (at our own table:
  /// only after the takeover deadline). Skipped while the geometry is
  /// unchanged since the last scan that found every face covered or futile
  /// (gap_clear_epoch_).
  void do_gap_audit();
  /// For a face whose probe dead-ended at hop 0: true once the dead end has
  /// held past the takeover deadline (records the first one, then false).
  bool local_dead_end_settled(const Point& probe);
  /// Claim the mirror of zone `z` across face (`d`, `hi_side`), minus every
  /// zone we already know about (ours and neighbors').
  void claim_gap(const Zone& z, std::size_t d, bool hi_side);
  /// True iff some zone we know of (our own or a neighbor's) contains `p`.
  [[nodiscard]] bool point_known_covered(const Point& p) const noexcept;
  /// Freeze this node's advertised state for a ZoneUpdate fan-out.
  [[nodiscard]] std::shared_ptr<const ZoneUpdate::Snapshot> make_zone_snapshot()
      const;
  void send_zone_update(net::NodeAddr to);
  void send_zone_update(net::NodeAddr to,
                        std::shared_ptr<const ZoneUpdate::Snapshot> snap);
  void broadcast_zone_update(const std::vector<net::NodeAddr>& extra = {});
  /// Drop neighbors that no longer abut any of our zones.
  void prune_neighbors();
  void schedule_takeover(net::NodeAddr dead);
  void execute_takeover(net::NodeAddr dead);
  /// Call after any change to zones_ or to neighbors_' membership (or just
  /// before one, with no snapshot built in between): advertise a new claim
  /// version and invalidate every neighbor's cached quiet-scan epoch.
  void note_claim_changed() noexcept {
    ++claim_version_;
    ++geometry_epoch_;
  }
  [[nodiscard]] double total_volume() const noexcept;

  // --- partition-heal reconciliation ------------------------------------
  // Nodes whose zones we took over are remembered (bounded) and sent one
  // zone update per maintenance round. If such a node was not dead but
  // merely unreachable — healed partition, restarted node — the exchange
  // re-links the neighbor tables and the GUID-ordered subtraction rule in
  // on_zone_update removes the double claim. Without this the two sides'
  // zone views never reconnect.
  void note_lost(Peer peer);
  /// `peer` is demonstrably alive and talking: it is no longer "lost".
  void forget_lost(net::NodeAddr peer);
  enum class Conflict {
    kSettled,   // no overlap, or we carved theirs out of ours
    kAnswered,  // we hold the lower GUID and sent our claim to the sender
    kLostAll,   // we carved ourselves to nothing and are rejoining
  };
  /// Resolve overlap between our zones and `sender`'s claim: the lower GUID
  /// keeps contested space. A higher-GUID claimant is answered with our
  /// full claim, so it carves on receipt instead of at our next full claim.
  Conflict resolve_conflict(Peer sender, const std::vector<Zone>& claim);
  /// Confirm or reclaim an outstanding join grant based on what the grantee
  /// now claims (see pending_grants_).
  void settle_grant(net::NodeAddr from, const std::vector<Zone>& claim);

  net::Network& net_;
  net::RpcEndpoint rpc_;
  Guid id_;
  Point rep_point_;
  CanConfig config_;
  Rng rng_;

  bool running_ = false;
  bool joining_ = false;
  Peer bootstrap_ = kNoPeer;  // last join target, for orphan rejoin
  // Hot routing state lives in sorted flat vectors (FlatMap): scanned every
  // route/maintenance tick, and iteration order (sorted by address) matches
  // the std::map it replaced, keeping the simulation deterministic.
  std::vector<Zone> zones_;
  FlatMap<net::NodeAddr, NeighborState> neighbors_;
  FlatMap<net::NodeAddr, sim::EventId> takeover_timers_;
  double load_ = 0.0;
  std::vector<double> upstream_load_;
  std::uint64_t update_seq_ = 0;  // outgoing ZoneUpdate counter
  /// Bumped on every change to zones_ or to neighbors_' membership;
  /// advertised in snapshots and hellos so a neighbor holding it needs no
  /// full claim, and receivers recognize an unchanged claim without
  /// comparing geometry.
  std::uint64_t claim_version_ = 0;
  /// Bumped whenever anything check_claim's geometry scans or the gap
  /// scan read changes: our own zones_ or the neighbor table's membership /
  /// stored zone sets. A NeighborState whose scan_epoch (or a
  /// gap_clear_epoch_) matches is guaranteed that re-running those scans
  /// would reproduce the previous (empty) outcome.
  std::uint64_t geometry_epoch_ = 1;

  static constexpr std::size_t kLostCap = 16;
  std::vector<Peer> lost_;  // candidates for zone-view re-linking
  std::size_t lost_cursor_ = 0;

  // Join splits are not idempotent on their own: once we hand half our zone
  // to a joiner, a lost JoinResp leaves the half owned by nobody — we no
  // longer contain the point, so a blind retry would be rejected. Each
  // grant stays pending until the grantee's first ZoneUpdate: one covering
  // the grant confirms it; one that does not (the joiner gave up and
  // rejoined elsewhere) reclaims the zone. A retried JoinReq for a point
  // inside a pending grant re-issues the same grant. Over-claiming is safe
  // (double claims resolve via the GUID rule); under-claiming is a
  // permanent hole in the space, so reclamation errs toward claiming.
  FlatMap<net::NodeAddr, Zone> pending_grants_;

  std::unique_ptr<sim::PeriodicTask> update_task_;
  /// geometry_epoch_ at the last gap scan that found every face covered
  /// or futile (0 = none yet). Every input of point_known_covered bumps the
  /// epoch, so while the two match a rescan would find nothing.
  std::uint64_t gap_clear_epoch_ = 0;
  /// Probe points of futile faces: routing found no owner and the claim
  /// left the probe uncovered (a face of a sliver zone one ulp wide, say).
  /// Valid while geometry_epoch_ equals gap_futile_epoch_.
  std::vector<Point> gap_futile_;
  std::uint64_t gap_futile_epoch_ = 0;
  /// Probe points of faces that dead-ended at hop 0, with the time of the
  /// first such dead end; dropped once the face is covered or claimed.
  std::vector<std::pair<Point, sim::SimTime>> gap_dead_ends_;
  bool gap_probe_inflight_ = false;
  CanStats stats_;
};

}  // namespace pgrid::can
