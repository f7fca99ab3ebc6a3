#include "obs/sampler.h"

#include <cstdio>
#include <utility>

#include "common/expects.h"
#include "common/output_file.h"

namespace pgrid::obs {

TimeSeriesSampler::TimeSeriesSampler(sim::Simulator& sim, sim::SimTime period)
    : sim_(sim), period_(period) {
  PGRID_EXPECTS(period.ns() > 0);
}

void TimeSeriesSampler::add_gauge(std::string name, GaugeFn fn) {
  PGRID_EXPECTS(task_ == nullptr);
  PGRID_EXPECTS(fn != nullptr);
  columns_.push_back(Column{std::move(name), std::move(fn), false, 0.0, false});
}

void TimeSeriesSampler::add_rate(std::string name, GaugeFn counter_fn) {
  PGRID_EXPECTS(task_ == nullptr);
  PGRID_EXPECTS(counter_fn != nullptr);
  columns_.push_back(
      Column{std::move(name), std::move(counter_fn), true, 0.0, false});
}

void TimeSeriesSampler::add_registry(const MetricsRegistry& registry) {
  registry.for_each([this](const std::string& name,
                           const MetricsRegistry::GaugeFn& fn) {
    add_gauge(name, fn);
  });
}

void TimeSeriesSampler::start() {
  if (task_ != nullptr) return;
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, period_, [this] { sample_once(); });
}

void TimeSeriesSampler::stop() {
  if (task_ != nullptr) task_->stop();
}

void TimeSeriesSampler::sample_once() {
  times_sec_.push_back(sim_.now().sec());
  const double period_sec = period_.sec();
  for (Column& c : columns_) {
    const double raw = c.fn();
    double out = raw;
    if (c.rate) {
      out = c.primed ? (raw - c.last) / period_sec : 0.0;
      c.last = raw;
      c.primed = true;
    }
    data_.push_back(out);
  }
}

bool TimeSeriesSampler::export_csv(const std::string& path) const {
  FilePtr f = open_for_write(path);
  if (f == nullptr) return false;
  std::fputs("t_sec", f.get());
  for (const Column& c : columns_) std::fprintf(f.get(), ",%s", c.name.c_str());
  std::fputc('\n', f.get());
  for (std::size_t row = 0; row < row_count(); ++row) {
    std::fprintf(f.get(), "%.6f", times_sec_[row]);
    for (std::size_t col = 0; col < columns_.size(); ++col) {
      std::fprintf(f.get(), ",%.17g", value(row, col));
    }
    std::fputc('\n', f.get());
  }
  return close_checked(std::move(f), path);
}

}  // namespace pgrid::obs
