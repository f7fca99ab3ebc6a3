#include "obs/registry.h"

#include <utility>

#include "common/output_file.h"

namespace pgrid::obs {

void MetricsRegistry::gauge(const std::string& name, GaugeFn fn) {
  for (Gauge& g : gauges_) {
    if (g.name == name) {
      g.fn = std::move(fn);
      return;
    }
  }
  gauges_.push_back(Gauge{name, std::move(fn)});
}

bool MetricsRegistry::export_csv(const std::string& path) const {
  FilePtr f = open_for_write(path);
  if (f == nullptr) return false;
  std::fputs("name,kind,count,value,mean,stdev,min,max,p50,p99\n", f.get());
  for (const Gauge& g : gauges_) {
    std::fprintf(f.get(), "%s,gauge,,%.17g,,,,,,\n", g.name.c_str(),
                 g.fn ? g.fn() : 0.0);
  }
  return close_checked(std::move(f), path);
}

std::size_t MetricsRegistry::memory_bytes() const noexcept {
  std::size_t bytes = gauges_.capacity() * sizeof(Gauge);
  for (const Gauge& g : gauges_) bytes += g.name.capacity();
  return bytes;
}

}  // namespace pgrid::obs
