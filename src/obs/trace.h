#pragma once
// Trace bus: typed, sim-timestamped events in a per-run ring buffer.
//
// Producers call record() through the PGRID_TRACE_EVENT macro, which is a
// null-pointer test when tracing is wired but off. Events are fixed-size (no
// allocation on the hot path); the ring overwrites the oldest events when
// full and counts what it dropped. Exporters emit JSONL (one object per
// event) and Chrome trace_event JSON (one "thread" per node, viewable in
// Perfetto or chrome://tracing).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_context.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace pgrid::obs {

/// Actor id for "no peer involved" (fits any NodeAddr-sized field).
inline constexpr std::uint32_t kNoActor = 0xffffffffu;

enum class EventKind : std::uint8_t {
  // network
  kMsgSend = 0,
  kMsgDeliver,
  kMsgDropDead,
  kMsgDropLoss,
  // rpc
  kRpcIssue,
  kRpcComplete,
  kRpcTimeout,
  // job lifecycle
  kJobSubmit,
  kJobResubmit,
  kJobOwner,
  kJobMatched,
  kJobUnmatched,
  kJobDispatchReject,
  kJobStart,
  kJobComplete,
  kJobKilled,
  kJobResult,
  // matchmaking search
  kMatchStep,
  kMatchResult,
  // overlay
  kOverlayLookup,
  kOverlayMaintain,
  kOverlayRepair,
  // robustness
  kHeartbeatMiss,
  kRunRecovery,
  kOwnerRecovery,
  kNodeCrash,
  kNodeRestart,
  // fault plane
  kMsgDropPartition,   // blocked by an active partition
  kMsgDropFault,       // link/gray/congestion loss
  kMsgDuplicate,       // second copy injected
  kMsgReorder,         // reorder jitter applied
  kFaultPartitionCut,  // tag: 1 = one-way; a: partition id; v: member count
  kFaultPartitionHeal, // a: partition id
  kFaultGray,          // tag: 1 = set, 0 = cleared; v: latency scale
  kCrashBurst,         // a: members crashed
  // self-healing
  kPhiSuspect,         // tag: protocol (1 chord, 2 can, 3 rntree); v: φ
  kAntiEntropyRepair,  // tag: 2 can gap claim, 3 succ refresh (a: backup)
  // causal spans (trace/span fields identify the span; see TraceContext)
  kSpanBegin,  // message handed to the network / root request started
  kSpanEnd,    // message delivered / root request finished

  kCount_,  // sentinel
};

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;
[[nodiscard]] const char* event_kind_category(EventKind kind) noexcept;

/// One trace record. Field meaning is kind-specific by convention:
/// `node` is the acting node's address, `peer` the other party (or
/// kNoActor), `tag` a message type / sub-kind / hop count, `a` a correlation
/// value (job seq, rpc id, search id), `v` a measurement (bytes, seconds,
/// queue depth, candidate count).
struct TraceEvent {
  std::int64_t t_ns = 0;
  std::uint64_t a = 0;
  double v = 0.0;
  /// Causal attribution: the trace/span this event happened under (zero when
  /// no sampled trace was active). For kSpanBegin/kSpanEnd, `span`/`parent`
  /// identify the span itself.
  std::uint64_t trace_id = 0;
  std::uint32_t span = 0;
  std::uint32_t parent = 0;
  std::uint32_t node = kNoActor;
  std::uint32_t peer = kNoActor;
  EventKind kind = EventKind::kMsgSend;
  std::uint16_t tag = 0;
};

class TraceBus {
 public:
  TraceBus(const sim::Simulator& sim, std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  void record(EventKind kind, std::uint32_t node,
              std::uint32_t peer = kNoActor, std::uint16_t tag = 0,
              std::uint64_t a = 0, double v = 0.0) noexcept {
    // Plain events inherit the current span for causal attribution: an event
    // recorded while a traced message's handler runs belongs to that span.
    record_impl(kind, current_, node, peer, tag, a, v);
  }

  /// Record a span begin/end (or any event) under an explicit context — used
  /// where the span is the message's, not the ambient one.
  void record_span(EventKind kind, const TraceContext& ctx, std::uint32_t node,
                   std::uint32_t peer = kNoActor, std::uint16_t tag = 0,
                   std::uint64_t a = 0, double v = 0.0) noexcept {
    record_impl(kind, ctx, node, peer, tag, a, v);
  }

  // --- causal tracing ------------------------------------------------------
  /// Enable span sampling: every `every`-th root request (see
  /// maybe_start_trace) gets a trace. 0 disables causal tracing entirely.
  void set_trace_sampling(std::uint64_t every) noexcept {
    sample_every_ = every;
  }
  [[nodiscard]] std::uint64_t trace_sampling() const noexcept {
    return sample_every_;
  }

  /// Called at a root request site (job submission). Returns a fresh sampled
  /// context for 1-in-N calls, an empty context otherwise.
  [[nodiscard]] TraceContext maybe_start_trace() noexcept {
    if (sample_every_ == 0) return {};
    if (root_counter_++ % sample_every_ != 0) return {};
    TraceContext ctx;
    ctx.trace_id = ++next_trace_id_;
    ctx.span_id = ++next_span_id_;
    ctx.parent_span = 0;
    return ctx;
  }

  /// Child context of `parent`: same trace, fresh span. Empty in, empty out.
  [[nodiscard]] TraceContext child_of(const TraceContext& parent) noexcept {
    if (!parent.sampled()) return {};
    return TraceContext{parent.trace_id, ++next_span_id_, parent.span_id};
  }

  /// The span currently executing (installed by SpanScope around message
  /// handlers); empty when no sampled trace is active.
  [[nodiscard]] const TraceContext& current() const noexcept {
    return current_;
  }
  [[nodiscard]] std::uint64_t traces_started() const noexcept {
    return next_trace_id_;
  }

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events recorded over the run, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - size_;
  }

  /// i-th retained event, oldest first (i in [0, size())).
  [[nodiscard]] const TraceEvent& at(std::size_t i) const;

  void clear() noexcept;

  /// Human-readable name for an actor ("node 3", "client 17"); used for
  /// Chrome-trace thread names.
  void set_actor_name(std::uint32_t actor, std::string name);
  [[nodiscard]] const std::string* actor_name(std::uint32_t actor) const;

  /// Exporters return false (and log) on I/O failure. Both report the
  /// ring's dropped-event count: JSONL as a trailing `{"summary":true,...}`
  /// line, Chrome trace in otherData.dropped_events.
  bool export_jsonl(const std::string& path) const;
  bool export_chrome_trace(const std::string& path) const;

  /// Bytes held by the ring and actor-name table (memory accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t names = actor_names_.capacity() * sizeof(std::string);
    for (const auto& n : actor_names_) names += n.capacity();
    return ring_.capacity() * sizeof(TraceEvent) + names;
  }

 private:
  friend class SpanScope;

  void record_impl(EventKind kind, const TraceContext& ctx, std::uint32_t node,
                   std::uint32_t peer, std::uint16_t tag, std::uint64_t a,
                   double v) noexcept {
    if (!enabled_) return;
    TraceEvent& e = ring_[head_];
    e.t_ns = sim_.now().ns();
    e.a = a;
    e.v = v;
    e.trace_id = ctx.trace_id;
    e.span = ctx.span_id;
    e.parent = ctx.parent_span;
    e.node = node;
    e.peer = peer;
    e.kind = kind;
    e.tag = tag;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) ++size_;
    ++total_;
  }

  const sim::Simulator& sim_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // next slot to write
  std::size_t size_ = 0;   // retained events
  std::uint64_t total_ = 0;
  bool enabled_ = true;
  std::vector<std::string> actor_names_;
  // Causal-tracing state: monotone id wells plus the ambient span.
  std::uint64_t sample_every_ = 0;
  std::uint64_t root_counter_ = 0;
  std::uint64_t next_trace_id_ = 0;
  std::uint32_t next_span_id_ = 0;
  TraceContext current_{};
};

/// RAII ambient-span installer: while alive, TraceBus::current() returns
/// `ctx` (and record() attributes events to it). Null bus or unsampled ctx
/// makes this a no-op, so call sites need no branches of their own.
class SpanScope {
 public:
  SpanScope(TraceBus* bus, const TraceContext& ctx) noexcept
      : bus_(ctx.sampled() ? bus : nullptr) {
    if (bus_ != nullptr) {
      saved_ = bus_->current_;
      bus_->current_ = ctx;
    }
  }
  ~SpanScope() {
    if (bus_ != nullptr) bus_->current_ = saved_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceBus* bus_;
  TraceContext saved_{};
};

}  // namespace pgrid::obs

// Instrumentation entry point: `bus` is a (possibly null) obs::TraceBus*.
// Wired-but-off costs one branch.
#define PGRID_TRACE_EVENT(bus, ...)                       \
  do {                                                    \
    ::pgrid::obs::TraceBus* pgrid_tb_ = (bus);            \
    if (pgrid_tb_ != nullptr) pgrid_tb_->record(__VA_ARGS__); \
  } while (0)
