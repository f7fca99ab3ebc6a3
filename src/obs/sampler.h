#pragma once
// Time-series sampler: snapshots registered gauges every sim-interval.
//
// Gauges are sampled as-is; rate columns wrap a monotonic counter and report
// its per-second delta (the first sample, with nothing to difference
// against, reports 0). Rows are kept in memory (8 bytes per cell) and
// exported as CSV for plotting.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace pgrid::obs {

class TimeSeriesSampler {
 public:
  using GaugeFn = std::function<double()>;

  TimeSeriesSampler(sim::Simulator& sim, sim::SimTime period);

  /// Register columns before start(); names become the CSV header.
  void add_gauge(std::string name, GaugeFn fn);
  void add_rate(std::string name, GaugeFn counter_fn);

  /// Register every gauge of `registry` as a gauge column. The registry
  /// must outlive the sampler.
  void add_registry(const MetricsRegistry& registry);

  /// Begin sampling: one row immediately, then one per period.
  void start();
  void stop();

  [[nodiscard]] sim::SimTime period() const noexcept { return period_; }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return columns_.size();
  }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return times_sec_.size();
  }
  [[nodiscard]] const std::string& column_name(std::size_t col) const {
    return columns_[col].name;
  }
  [[nodiscard]] double row_time_sec(std::size_t row) const {
    return times_sec_[row];
  }
  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    return data_[row * columns_.size() + col];
  }

  /// Returns false (and logs) on I/O failure.
  bool export_csv(const std::string& path) const;

  /// Bytes held by the sample matrix and column table (memory accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return data_.capacity() * sizeof(double) +
           times_sec_.capacity() * sizeof(double) +
           columns_.capacity() * sizeof(Column);
  }

 private:
  void sample_once();

  struct Column {
    std::string name;
    GaugeFn fn;
    bool rate = false;
    double last = 0.0;
    bool primed = false;
  };

  sim::Simulator& sim_;
  sim::SimTime period_;
  std::vector<Column> columns_;
  std::vector<double> times_sec_;
  std::vector<double> data_;  // row-major, row_count x column_count
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace pgrid::obs
