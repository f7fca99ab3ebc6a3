#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/expects.h"
#include "common/output_file.h"

namespace pgrid::obs {

namespace {

struct KindInfo {
  const char* name;
  const char* category;
};

constexpr KindInfo kKinds[] = {
    {"msg_send", "net"},          {"msg_deliver", "net"},
    {"msg_drop_dead", "net"},     {"msg_drop_loss", "net"},
    {"rpc_issue", "rpc"},         {"rpc_complete", "rpc"},
    {"rpc_timeout", "rpc"},       {"job_submit", "job"},
    {"job_resubmit", "job"},      {"job_owner", "job"},
    {"job_matched", "job"},       {"job_unmatched", "job"},
    {"job_dispatch_reject", "job"}, {"job_start", "job"},
    {"job_complete", "job"},      {"job_killed", "job"},
    {"job_result", "job"},        {"match_step", "match"},
    {"match_result", "match"},    {"overlay_lookup", "overlay"},
    {"overlay_maintain", "overlay"}, {"overlay_repair", "overlay"},
    {"heartbeat_miss", "robust"}, {"run_recovery", "robust"},
    {"owner_recovery", "robust"}, {"node_crash", "robust"},
    {"node_restart", "robust"},   {"msg_drop_partition", "fault"},
    {"msg_drop_fault", "fault"},  {"msg_duplicate", "fault"},
    {"msg_reorder", "fault"},     {"fault_partition_cut", "fault"},
    {"fault_partition_heal", "fault"}, {"fault_gray", "fault"},
    {"crash_burst", "fault"},     {"phi_suspect", "robust"},
    {"anti_entropy_repair", "robust"}, {"span_begin", "span"},
    {"span_end", "span"},
};
static_assert(sizeof(kKinds) / sizeof(kKinds[0]) ==
                  static_cast<std::size_t>(EventKind::kCount_),
              "kKinds table out of sync with EventKind");

/// Escape a string for embedding in a JSON string literal. Actor names are
/// generated ASCII, but keep the exporter robust anyway.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Human-readable name for a span's message tag, so Perfetto slices read
/// "grid/DispatchJob" rather than raw type numbers. The tables mirror the
/// per-layer MsgType enums; unknown tags fall back to "<layer>+<offset>".
/// Tag 0 marks a root span (no message — a client-side request lifetime).
const char* kChordTagNames[] = {"NextHopReq",    "NextHopResp",
                                "StabilizeReq",  "StabilizeResp",
                                "Notify",        "PingReq",
                                "PingResp"};
const char* kCanTagNames[] = {"RouteReq",   "RouteResp",     "JoinReq",
                              "JoinResp",   "ZoneUpdate",    "DimLoadReport",
                              "NeighborHint", "NeighborHello"};
const char* kRnTreeTagNames[] = {"AggUpdate", "TokenPass", "TokenAck",
                                 "SearchResult", "AggAck"};
const char* kGridTagNames[] = {
    "SubmitJob",  "SubmitAck",      "JobToOwner", "JobToOwnerAck",
    "DispatchJob", "DispatchResp",  "Heartbeat",  "HeartbeatAck",
    "JobDone",    "Result",         "OwnerHandoff", "OwnerHandoffAck",
    "JobFailed",  "WalkProbe",      "WalkResult"};

std::string span_tag_name(std::uint16_t tag) {
  struct Layer {
    std::uint16_t base;
    const char* prefix;
    const char* const* names;
    std::size_t count;
  };
  static const Layer kLayers[] = {
      {0x100, "chord", kChordTagNames,
       sizeof(kChordTagNames) / sizeof(char*)},
      {0x200, "can", kCanTagNames, sizeof(kCanTagNames) / sizeof(char*)},
      {0x300, "rn", kRnTreeTagNames,
       sizeof(kRnTreeTagNames) / sizeof(char*)},
      {0x400, "grid", kGridTagNames, sizeof(kGridTagNames) / sizeof(char*)},
  };
  if (tag == 0) return "request";
  for (const Layer& l : kLayers) {
    if (tag >= l.base && tag < l.base + 0x100) {
      const std::size_t off = tag - l.base;
      char buf[64];
      if (off < l.count) {
        std::snprintf(buf, sizeof buf, "%s/%s", l.prefix, l.names[off]);
      } else {
        std::snprintf(buf, sizeof buf, "%s+%zu", l.prefix, off);
      }
      return buf;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "tag 0x%x", tag);
  return buf;
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < static_cast<std::size_t>(EventKind::kCount_) ? kKinds[i].name
                                                          : "unknown";
}

const char* event_kind_category(EventKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < static_cast<std::size_t>(EventKind::kCount_) ? kKinds[i].category
                                                          : "unknown";
}

TraceBus::TraceBus(const sim::Simulator& sim, std::size_t capacity)
    : sim_(sim), ring_(capacity == 0 ? 1 : capacity) {}

const TraceEvent& TraceBus::at(std::size_t i) const {
  PGRID_EXPECTS(i < size_);
  // Oldest event sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  std::size_t idx = start + i;
  if (idx >= ring_.size()) idx -= ring_.size();
  return ring_[idx];
}

void TraceBus::clear() noexcept {
  head_ = 0;
  size_ = 0;
  total_ = 0;
}

void TraceBus::set_actor_name(std::uint32_t actor, std::string name) {
  if (actor == kNoActor) return;
  if (actor >= actor_names_.size()) actor_names_.resize(actor + 1);
  actor_names_[actor] = std::move(name);
}

const std::string* TraceBus::actor_name(std::uint32_t actor) const {
  if (actor >= actor_names_.size() || actor_names_[actor].empty()) {
    return nullptr;
  }
  return &actor_names_[actor];
}

bool TraceBus::export_jsonl(const std::string& path) const {
  FilePtr f = open_for_write(path);
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = at(i);
    std::fprintf(
        f.get(),
        "{\"t_ns\":%" PRId64 ",\"kind\":\"%s\",\"cat\":\"%s\",\"node\":%u,"
        "\"peer\":%d,\"tag\":%u,\"a\":%" PRIu64 ",\"v\":%.17g",
        e.t_ns, event_kind_name(e.kind), event_kind_category(e.kind), e.node,
        e.peer == kNoActor ? -1 : static_cast<int>(e.peer), e.tag, e.a, e.v);
    if (e.trace_id != 0) {
      std::fprintf(f.get(),
                   ",\"trace_id\":%" PRIu64 ",\"span\":%u,\"parent\":%u",
                   e.trace_id, e.span, e.parent);
    }
    std::fputs("}\n", f.get());
  }
  // Trailing summary: same dropped count the Chrome exporter reports, so a
  // consumer of either artifact knows whether the ring wrapped.
  std::fprintf(f.get(),
               "{\"summary\":true,\"recorded\":%" PRIu64
               ",\"retained\":%zu,\"dropped\":%" PRIu64 "}\n",
               total_, size_, dropped());
  return close_checked(std::move(f), path);
}

bool TraceBus::export_chrome_trace(const std::string& path) const {
  FilePtr f = open_for_write(path);
  if (f == nullptr) return false;
  // Pair span begin/end events by span id so each message hop (or root
  // request) renders as one complete "X" slice with its real latency, and
  // parent→child edges render as flow arrows across node tracks. Under
  // fault-plane duplication both copies end the same span; the first end
  // wins (the duplicate is visible as the hop's delivered-twice arg).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct SpanRef {
    std::size_t begin = static_cast<std::size_t>(-1);  // == kNone
    std::size_t end = static_cast<std::size_t>(-1);
  };
  std::unordered_map<std::uint32_t, SpanRef> spans;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = at(i);
    if (e.kind == EventKind::kSpanBegin) {
      auto& s = spans[e.span];
      if (s.begin == kNone) s.begin = i;
    } else if (e.kind == EventKind::kSpanEnd) {
      auto& s = spans[e.span];
      if (s.end == kNone) s.end = i;
    }
  }
  std::fputs("{\"traceEvents\":[\n", f.get());
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f.get());
    first = false;
  };
  // Metadata: one named "thread" per actor, sorted by address.
  for (std::uint32_t actor = 0; actor < actor_names_.size(); ++actor) {
    if (actor_names_[actor].empty()) continue;
    sep();
    std::fprintf(f.get(),
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}},\n"
                 "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"sort_index\":%u}}",
                 actor, json_escape(actor_names_[actor]).c_str(), actor,
                 actor);
  }
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = at(i);
    const double ts_us = static_cast<double>(e.t_ns) / 1000.0;
    if (e.kind == EventKind::kSpanEnd) continue;  // folded into its begin
    if (e.kind == EventKind::kSpanBegin) {
      const SpanRef& s = spans[e.span];
      double dur_us = 0.0;
      bool finished = false;
      if (s.end != kNone) {
        dur_us = static_cast<double>(at(s.end).t_ns - e.t_ns) / 1000.0;
        finished = true;
      }
      sep();
      std::fprintf(f.get(),
                   "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"trace_id\":%" PRIu64
                   ",\"span\":%u,\"parent\":%u,\"tag\":%u,\"a\":%" PRIu64
                   ",\"finished\":%d}}",
                   span_tag_name(e.tag).c_str(), ts_us, dur_us, e.node,
                   e.trace_id, e.span, e.parent, e.tag, e.a,
                   finished ? 1 : 0);
      // Causal edge parent → this span, drawn as a flow arrow between the
      // two slices (id = child span, unique per edge).
      if (e.parent != 0) {
        const auto p = spans.find(e.parent);
        if (p != spans.end() && p->second.begin != kNone) {
          const TraceEvent& pb = at(p->second.begin);
          sep();
          std::fprintf(f.get(),
                       "{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"s\","
                       "\"id\":%u,\"ts\":%.3f,\"pid\":1,\"tid\":%u},\n"
                       "{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"f\","
                       "\"bp\":\"e\",\"id\":%u,\"ts\":%.3f,\"pid\":1,"
                       "\"tid\":%u}",
                       e.span,
                       static_cast<double>(pb.t_ns) / 1000.0, pb.node,
                       e.span, ts_us, e.node);
        }
      }
      continue;
    }
    sep();
    if (e.kind == EventKind::kJobComplete || e.kind == EventKind::kJobKilled) {
      // `v` carries the execution duration in seconds: render the whole run
      // of the job as a complete ("X") slice on the run node's track.
      const double dur_us = e.v * 1e6;
      std::fprintf(f.get(),
                   "{\"name\":\"job %" PRIu64
                   "\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"seq\":%"
                   PRIu64 ",\"outcome\":\"%s\"}}",
                   e.a, ts_us - dur_us, dur_us, e.node, e.a,
                   e.kind == EventKind::kJobComplete ? "completed" : "killed");
      continue;
    }
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"peer\":%d,"
                 "\"tag\":%u,\"a\":%" PRIu64 ",\"v\":%.17g}}",
                 event_kind_name(e.kind), event_kind_category(e.kind), ts_us,
                 e.node, e.peer == kNoActor ? -1 : static_cast<int>(e.peer),
                 e.tag, e.a, e.v);
  }
  std::fprintf(f.get(),
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"dropped_events\":%" PRIu64 "}}\n",
               dropped());
  return close_checked(std::move(f), path);
}

}  // namespace pgrid::obs
