// Result export: per-job CSV and the ASCII wait-time histogram.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/report.h"

namespace pgrid::metrics {
namespace {

using sim::SimTime;

Collector sample_collector() {
  Collector c(3, 2);
  c.on_submit(0, SimTime::seconds(0.0));
  c.on_owner(0, SimTime::seconds(0.2), 3);
  c.on_matched(0, SimTime::seconds(0.5), 2, 1);
  c.on_started(0, SimTime::seconds(1.0), 1);
  c.on_completed(0, SimTime::seconds(11.0));
  c.on_submit(1, SimTime::seconds(0.5));
  c.on_started(1, SimTime::seconds(21.0), 0);
  c.on_completed(1, SimTime::seconds(30.0));
  c.on_submit(2, SimTime::seconds(1.0));  // never started
  c.on_unmatched(2);
  return c;
}

TEST(Report, CsvHasHeaderAndOneRowPerJob) {
  const Collector c = sample_collector();
  const std::string path = testing::TempDir() + "/p2pgrid_report_test.csv";
  ASSERT_TRUE(write_job_csv(c, path));

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("seq,submit_sec"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(Report, CsvEncodesOutcomeFields) {
  const Collector c = sample_collector();
  const std::string path = testing::TempDir() + "/p2pgrid_report_test2.csv";
  ASSERT_TRUE(write_job_csv(c, path));
  std::ifstream in(path);
  std::stringstream all;
  all << in.rdbuf();
  const std::string text = all.str();
  // Job 0's wait (1.0s) and run node appear; job 2 is flagged unmatched.
  EXPECT_NE(text.find("0,0.000,0.200,0.500,1.000,11.000,1.000,3,2,1,0,0,0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(",1\n"), std::string::npos);  // unmatched flag
  std::remove(path.c_str());
}

TEST(Report, CsvFailsOnBadPath) {
  const Collector c = sample_collector();
  EXPECT_FALSE(write_job_csv(c, "/nonexistent/dir/report.csv"));
}

TEST(Report, HistogramCoversStartedJobs) {
  const Collector c = sample_collector();
  const std::string art = wait_histogram(c, 4);
  // 4 buckets rendered, two samples total (waits 1.0 and 20.5).
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Report, HistogramHandlesEmptyCollector) {
  Collector c(2, 1);
  EXPECT_EQ(wait_histogram(c), "(no started jobs)\n");
}

}  // namespace
}  // namespace pgrid::metrics
