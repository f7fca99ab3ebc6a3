// bench_diff: compare two sets of gridbench runs, metric by metric.
//
//   bench_diff BENCHMARK.json parent.jsonl change.jsonl
//
// Each input line is one run: {"workload": "<name>", "metrics": {"<metric>":
// {"value": v, "unit": "u"}, ...}, ...} (record.sh writes them). Within a
// workload the i-th parent run pairs with the i-th change run, so record the
// two sides alternately. For every (metric, workload) pair it prints one of:
//
//   improved    the change wins at least 9 of 10 pairs (ties count for
//               neither side) and the medians differ by more than the
//               parent's interquartile range;
//   regressed   the change's median is worse than the parent's by more than
//               the metric's bound from BENCHMARK.json (per-layer metrics,
//               which have no bound, use the mirror of the improved rule);
//   unresolved  fewer than 10 pairs, or the parent's own spread (IQR over
//               median) exceeds the bound, unless every change run beats
//               every parent run;
//   unchanged   otherwise.
//
// Exits 1 if any pair regressed, 2 on unreadable input, else 0.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---- a small JSON reader (objects, arrays, strings, numbers, literals) ----

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string(what) + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  Json parse_value() {
    Json v;
    const char c = peek();
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        std::string key = parse_string();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (literal("null")) return v;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - begin);
    v.kind = Json::Kind::kNumber;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': fail("\\u escapes are not supported");
          default: break;  // \" \\ \/
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- inputs -------------------------------------------------------------

struct MetricSpec {
  std::string name;
  bool lower_is_better = true;
  std::optional<double> bound;  // end-to-end metrics only
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<MetricSpec> load_specs(const std::string& path) {
  const Json doc = Parser(read_file(path)).parse_document();
  std::vector<MetricSpec> specs;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Json* list = doc.get(section);
    if (list == nullptr || list->kind != Json::Kind::kArray) {
      throw std::runtime_error(path + ": missing " + section);
    }
    for (const Json& m : list->array) {
      const Json* name = m.get("name");
      const Json* better = m.get("better");
      if (name == nullptr || better == nullptr) {
        throw std::runtime_error(path + ": metric without name or better");
      }
      MetricSpec spec{name->string, better->string == "lower", std::nullopt};
      if (const Json* bound = m.get("bound")) spec.bound = bound->number;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// workload -> metric -> values, in file order.
using RunSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

RunSet load_runs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  RunSet runs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json row;
    try {
      row = Parser(line).parse_document();
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
    const Json* workload = row.get("workload");
    const Json* metrics = row.get("metrics");
    if (workload == nullptr || metrics == nullptr) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": row needs workload and metrics");
    }
    for (const auto& [name, m] : metrics->object) {
      if (const Json* v = m.get("value")) {
        runs[workload->string][name].push_back(v->number);
      }
    }
  }
  return runs;
}

// ---- statistics -------------------------------------------------------------

/// Quartiles as Python's statistics.quantiles(data, n=4) (exclusive method)
/// computes them, so these numbers match the acceptance arithmetic.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0]};
  const long n = 4;
  const long m = ld + 1;
  double q[2];
  for (long i : {1L, 3L}) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[i == 1 ? 0 : 1] =
        (v[j - 1] * static_cast<double>(n - delta) + v[j] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return {q[0], q[1]};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr std::size_t kMinPairs = 10;
constexpr double kWinShare = 0.9;

struct Verdict {
  const char* label;
  double parent_median;
  double change_median;
  double parent_iqr;
  std::size_t wins;
  std::size_t losses;
  std::size_t pairs;
};

Verdict judge(const MetricSpec& spec, const std::vector<double>& parent,
              const std::vector<double>& change) {
  const std::size_t pairs = std::min(parent.size(), change.size());
  const std::vector<double> a(parent.begin(), parent.begin() + static_cast<long>(pairs));
  const std::vector<double> b(change.begin(), change.begin() + static_cast<long>(pairs));
  // `better(x, y)`: x beats y in the metric's direction.
  const auto better = [&](double x, double y) {
    return spec.lower_is_better ? x < y : x > y;
  };
  Verdict v{"unchanged", median(a), median(b), 0.0, 0, 0, pairs};
  const auto [q1, q3] = quartiles(a);
  v.parent_iqr = q3 - q1;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(b[i], a[i])) ++v.wins;
    if (better(a[i], b[i])) ++v.losses;
  }
  if (pairs < kMinPairs) {
    v.label = "unresolved";
    return v;
  }
  const double need = kWinShare * static_cast<double>(pairs);
  const double gap = std::fabs(v.change_median - v.parent_median);
  if (static_cast<double>(v.wins) >= need && gap > v.parent_iqr &&
      better(v.change_median, v.parent_median)) {
    v.label = "improved";
    return v;
  }
  if (!spec.bound) {
    if (static_cast<double>(v.losses) >= need && gap > v.parent_iqr &&
        better(v.parent_median, v.change_median)) {
      v.label = "regressed";
    }
    return v;
  }
  const double scale = std::fabs(v.parent_median);
  const double spread = scale == 0.0 ? (v.parent_iqr == 0.0 ? 0.0 : INFINITY)
                                     : v.parent_iqr / scale;
  const double worse = spec.lower_is_better ? v.change_median - v.parent_median
                                            : v.parent_median - v.change_median;
  const double worse_share = scale == 0.0 ? (worse > 0.0 ? INFINITY : 0.0)
                                          : worse / scale;
  const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
  const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
  const bool all_better =
      spec.lower_is_better ? *b_max < *a_min : *b_min > *a_max;
  if (spread > *spec.bound && !all_better) {
    v.label = "unresolved";
  } else if (worse_share > *spec.bound) {
    v.label = "regressed";
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: bench_diff BENCHMARK.json parent.jsonl change.jsonl\n");
    return 2;
  }
  std::vector<MetricSpec> specs;
  RunSet parent;
  RunSet change;
  try {
    specs = load_specs(argv[1]);
    parent = load_runs(argv[2]);
    change = load_runs(argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }

  std::printf("%-12s %-30s %-10s %14s %14s %12s %7s\n", "workload", "metric",
              "verdict", "parent_med", "change_med", "parent_iqr", "wins");
  bool any_regressed = false;
  for (const auto& [workload, parent_metrics] : parent) {
    const auto cw = change.find(workload);
    for (const MetricSpec& spec : specs) {
      const auto pm = parent_metrics.find(spec.name);
      if (pm == parent_metrics.end()) continue;
      if (cw == change.end() || cw->second.count(spec.name) == 0) {
        std::printf("%-12s %-30s %-10s (missing from the change's runs)\n",
                    workload.c_str(), spec.name.c_str(), "unresolved");
        continue;
      }
      const Verdict v = judge(spec, pm->second, cw->second.at(spec.name));
      any_regressed |= std::string(v.label) == "regressed";
      std::printf("%-12s %-30s %-10s %14.6g %14.6g %12.4g %3zu/%zu\n",
                  workload.c_str(), spec.name.c_str(), v.label, v.parent_median,
                  v.change_median, v.parent_iqr, v.wins, v.pairs);
    }
  }
  return any_regressed ? 1 : 0;
}
