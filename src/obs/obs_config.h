#pragma once
// Observability configuration: carried inside GridConfig as the `obs`
// section. Everything defaults to off so simulation hot paths pay at most a
// null-pointer test per instrumentation point.

#include <cstddef>
#include <string>

namespace pgrid::obs {

struct ObsConfig {
  /// Record trace events into the ring buffer.
  bool trace = false;

  /// Ring-buffer capacity in events (~40 bytes each). When full the oldest
  /// events are overwritten; exporters note the dropped count.
  std::size_t trace_capacity = 1u << 20;

  /// Causal tracing sample rate: every N-th job submission starts a
  /// cross-node span tree (TraceContext propagated hop by hop). 0 disables
  /// span tracing; requires `trace` for the events to be retained.
  std::uint64_t trace_sample_every = 0;

  /// Sampling period for the time-series gauges, in simulated seconds.
  /// <= 0 disables the sampler.
  double sample_period_sec = 0.0;

  /// Retired: the Collector keeps per-job records only. Kept solely for
  /// bench/e2e/gridbench.cpp, which assigns it false; GridSystem rejects
  /// true.
  bool streaming_metrics = false;

  /// Output paths; empty means "do not write this artifact".
  std::string chrome_trace_path;   // Chrome trace_event JSON (Perfetto)
  std::string jsonl_path;          // one JSON object per trace event
  std::string timeseries_csv_path; // sampler rows
  std::string metrics_csv_path;    // final MetricsRegistry snapshot

  [[nodiscard]] bool any_output() const {
    return !chrome_trace_path.empty() || !jsonl_path.empty() ||
           !timeseries_csv_path.empty() || !metrics_csv_path.empty();
  }
};

}  // namespace pgrid::obs
