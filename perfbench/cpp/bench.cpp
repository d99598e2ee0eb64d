#include "bench.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace perfbench {

using minivpic::telemetry::Json;

void Outcome::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void Outcome::merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors)
    if (errors.size() < 8) errors.push_back(e);
}

void Spans::add(const char* name, std::int64_t id, int tid, double t0,
                double t1, const char* kind) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, kind, id, tid, t0, t1});
}

std::vector<double> Spans::durations(const std::string& name, int tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.tid == tid) out.push_back(s.t1 - s.t0);
  return out;
}

void Spans::write(const std::string& path) const {
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      Json e = Json::object();
      e.set("name", Json::string(s.name));
      e.set("ph", Json::string("X"));
      e.set("pid", Json::number(std::int64_t{0}));
      e.set("tid", Json::number(std::int64_t{s.tid}));
      e.set("ts", Json::number(s.t0 * 1e6));
      e.set("dur", Json::number((s.t1 - s.t0) * 1e6));
      Json args = Json::object();
      args.set("id", Json::number(s.id));
      if (!s.kind.empty()) args.set("kind", Json::string(s.kind));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream os(path, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot write trace file " << path);
  os << doc.dump() << "\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / double(hi - lo);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::uint64_t electron_seed(std::uint64_t seed) {
  // splitmix64: neighbouring benchmark seeds give unrelated particle loads.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 0x7fffffffULL) + 1;
}

sim::DeckSource generated_deck(const Options& opt,
                               const std::vector<std::string>& overrides) {
  sim::DeckSource src = sim::DeckSource::from_file(opt.deck_path);
  src.apply_override("species electron.seed",
                     std::to_string(electron_seed(opt.seed)));
  for (const std::string& ov : overrides)
    src.apply_override(sim::parse_override(ov));
  return src;
}

}  // namespace perfbench
