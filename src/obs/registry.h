#pragma once
// Metrics registry: a table of named callback gauges, registered once per
// subsystem at build time and read by the TimeSeriesSampler (one column per
// gauge) and by the final CSV snapshot (DESIGN.md §14).

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace pgrid::obs {

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  /// Register a gauge, sampled at snapshot time. Names are hierarchical by
  /// convention ("pool/fresh_total", "mem/event_pool"); re-registering a
  /// name replaces its function and keeps its position.
  void gauge(const std::string& name, GaugeFn fn);

  [[nodiscard]] std::size_t size() const noexcept { return gauges_.size(); }

  /// Visit every gauge in registration order: fn(name, gauge_fn).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Gauge& g : gauges_) fn(g.name, g.fn);
  }

  /// Final snapshot as CSV: name,kind,count,value,mean,stdev,min,max,p50,p99
  /// with one `gauge` row per gauge, its sampled value in `value`. Returns
  /// false (and logs) on I/O failure.
  bool export_csv(const std::string& path) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct Gauge {
    std::string name;
    GaugeFn fn;
  };

  std::vector<Gauge> gauges_;
};

}  // namespace pgrid::obs
