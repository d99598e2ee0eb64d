// Shared pieces of the perfbench binary: run options, the result record,
// an in-memory span recorder, and small statistics/host helpers.
//
// The benchmark exercises minivpic from the outside through its public API
// only; everything here is benchmark-side plumbing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/deck_io.hpp"

namespace perfbench {

namespace sim = minivpic::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;           ///< tiny sizes for the benchmark's own tests
  std::string deck_path;      ///< the flagship LPI deck
  std::string work_dir;       ///< ledgers, checkpoints, trace output
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload invocation: counts, gate failures and metrics.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few gate failures, for stderr
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed operation (a gate that did not hold).
  void fail(const std::string& why);
  /// Folds another outcome's counts and failure messages into this one.
  void merge(const Outcome& other);
};

/// Monotonic seconds since an arbitrary process-wide epoch.
double now_s();

/// Spans kept in memory and written as Chrome trace JSON at the end. A
/// disabled recorder drops every span without locking.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// `tid` is the rank (or client) lane; `id` joins the spans of one
  /// operation; `kind` is an optional tag such as "hit" or "fresh".
  void add(const char* name, std::int64_t id, int tid, double t0, double t1,
           const char* kind = "");
  /// Durations (s) of every span named `name` on lane `tid`.
  std::vector<double> durations(const std::string& name, int tid) const;
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string kind;
    std::int64_t id;
    int tid;
    double t0, t1;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Mean of the values between the first and third quartile (inclusive);
/// 0 when empty. Unlike the median it moves smoothly when `v` is a mix of
/// two clusters whose shares change, and it ignores the outer quarters.
double interquartile_mean(std::vector<double> v);

/// Resident set size now (/proc/self/statm).
double rss_mb();
double process_cpu_seconds();
/// CPUs this process may run on (sched_getaffinity).
int allowed_cpus();

/// Seed-derived value for `species electron.seed`.
std::uint64_t electron_seed(std::uint64_t seed);

/// The flagship deck with the seed (and any extra overrides) applied; the
/// program only ever sees this generated deck.
sim::DeckSource generated_deck(const Options& opt,
                               const std::vector<std::string>& overrides);

Outcome run_lpi(const Options& opt, bool ranks_mode);
Outcome run_service_mix(const Options& opt);

}  // namespace perfbench
