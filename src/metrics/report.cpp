#include "metrics/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/output_file.h"

namespace pgrid::metrics {

bool write_job_csv(const Collector& collector, const std::string& path) {
  FilePtr f = open_for_write(path);
  if (f == nullptr) return false;
  std::fprintf(f.get(),
               "seq,submit_sec,owner_sec,matched_sec,started_sec,"
               "completed_sec,wait_sec,injection_hops,match_hops,run_node,"
               "resubmissions,requeues,unmatched\n");
  for (std::size_t seq = 0; seq < collector.job_count(); ++seq) {
    const JobOutcome& j = collector.job(seq);
    std::fprintf(f.get(), "%zu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d,%u,%u,%u,%d\n",
                 seq, j.submit_sec, j.owner_sec, j.matched_sec, j.started_sec,
                 j.completed_sec, j.wait_sec(), j.injection_hops,
                 j.match_hops, j.run_node, j.resubmissions, j.requeues,
                 j.unmatched ? 1 : 0);
  }
  return close_checked(std::move(f), path);
}

std::string wait_histogram(const Collector& collector, std::size_t buckets) {
  const Samples waits = collector.wait_times();
  if (waits.empty()) return "(no started jobs)\n";
  if (waits.max() - waits.min() <= 0.0) {
    // Degenerate: every started job shares one wait value, so a
    // proportional bin split would have zero width. Clamp to a single full
    // bucket around that value instead.
    const double v = waits.min();
    const double pad = std::max(std::fabs(v) * 1e-9, 1e-9);
    Histogram h(v, v + pad, 1);
    for (double w : waits.values()) h.add(w);
    return h.ascii();
  }
  const double hi = std::max(waits.max(), 1e-9);
  Histogram h(0.0, hi * (1.0 + 1e-9), buckets);  // include the max itself
  for (double w : waits.values()) h.add(w);
  return h.ascii();
}

}  // namespace pgrid::metrics
