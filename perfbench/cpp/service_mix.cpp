// service_mix: an in-process ServiceServer in front of the LPI deck, driven
// over the real wire protocol by two closed-loop streams at once.
//
//   read stream   `hit_clients` clients re-submitting warm jobs; every reply
//                 must be a cache hit whose record is byte-identical to the
//                 record the job produced when it ran.
//   write stream  one client submitting a K-point laser.a0 sweep with
//                 wait=false, then re-submitting each point with wait=true
//                 (coalescing onto the running job), curve after curve.
//
// Set-up is server start plus the warm phase that fills the cache; it is
// repeated a few times per invocation and the median reported.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace perfbench {

namespace campaign = minivpic::campaign;
namespace service = minivpic::service;
using minivpic::telemetry::Json;

namespace {

constexpr int kWarmJobs = 4;
constexpr int kSweepPoints = 4;
constexpr int kSetups = 5;

struct Sizes {
  int warm_steps, job_steps, min_curves;
  double warmup;  ///< reflectivity probe warm-up time
};

std::string a0_override(double a0) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "laser.a0=%.9f", a0);
  return buf;
}

/// Seed-derived offset in [0, 1e-3) that makes every seed's jobs distinct.
double seed_jitter(std::uint64_t seed) {
  return 1e-3 * double(electron_seed(seed) % 1000) / 1000.0;
}

/// One set-up: ledger, metrics registry and a started server whose cache
/// holds the warm jobs. Members are destroyed server-first.
struct Daemon {
  minivpic::telemetry::MetricsRegistry registry;
  std::unique_ptr<campaign::ResultStore> results;
  std::unique_ptr<service::ServiceServer> server;
  std::vector<std::string> warm_records;  ///< result dumps, per warm job
  ~Daemon() {
    if (server) server->drain();
  }
};

double metric_value(const Json& metrics, const char* name) {
  const Json* v = metrics.at("values").find(name);
  return v != nullptr ? v->as_number() : 0.0;
}

bool is_result(const Json& resp, const char* source) {
  const Json* type = resp.find("type");
  const Json* src = resp.find("source");
  return type != nullptr && type->as_string() == "result" && src != nullptr &&
         (source == nullptr || src->as_string() == source);
}

std::unique_ptr<Daemon> start_daemon(const campaign::CampaignSpec& spec,
                                     const Options& opt, const Sizes& sz,
                                     int index, int workers,
                                     const std::vector<std::string>& warm,
                                     Outcome& out) {
  auto d = std::make_unique<Daemon>();
  d->results = std::make_unique<campaign::ResultStore>(
      opt.work_dir + "/ledger" + std::to_string(index) + ".ndjson",
      /*resume=*/false);
  campaign::ExecutorConfig exec;
  exec.workers = workers;
  exec.max_threads = workers;
  exec.scratch_dir = opt.work_dir;
  exec.metrics = &d->registry;
  service::ServerConfig config;
  config.max_queued = 4 * (kWarmJobs + kSweepPoints);
  d->server = std::make_unique<service::ServiceServer>(spec, *d->results,
                                                       exec, config);
  d->server->start();

  service::ServiceClient client(d->server->port());
  for (const std::string& ov : warm)
    (void)client.submit("", {ov}, sz.warm_steps, "warm", 1.0, false);
  for (const std::string& ov : warm) {
    const Json resp = client.submit("", {ov}, sz.warm_steps, "warm");
    ++out.attempted;
    if (!is_result(resp, nullptr) ||
        resp.at("result").at("status").as_string() != "done")
      out.fail("warm job " + ov + " did not finish: " + resp.dump());
    d->warm_records.push_back(resp.find("result") != nullptr
                                  ? resp.at("result").dump()
                                  : std::string());
  }
  return d;
}

struct Hit {
  double end_s, latency_s;
};

/// What one measured window of both streams observed.
struct Window {
  std::vector<Hit> hits;       ///< per cache-hit request
  double hit_t0 = 0;           ///< read-stream start
  double hit_wall = 0;         ///< read-stream wall
  std::vector<double> curve_s;
  std::vector<double> job_s;   ///< sweep job_result.seconds
  std::vector<double> wait_s;  ///< fresh latency minus job seconds
  double coalesced = 0, cache_hits = 0, submissions = 0;

  void append(const Window& w) {
    hits.insert(hits.end(), w.hits.begin(), w.hits.end());
    hit_wall += w.hit_wall;
    curve_s.insert(curve_s.end(), w.curve_s.begin(), w.curve_s.end());
    job_s.insert(job_s.end(), w.job_s.begin(), w.job_s.end());
    wait_s.insert(wait_s.end(), w.wait_s.begin(), w.wait_s.end());
    coalesced += w.coalesced;
    cache_hits += w.cache_hits;
    submissions += w.submissions;
  }
};

/// Runs both streams for `budget` seconds and at least `min_curves` whole
/// curves. Curves are numbered from `first_curve`, so every window submits
/// jobs no earlier window has cached.
Window run_window(const Daemon& d, const Options& opt, const Sizes& sz,
                  int hit_clients, double budget, int min_curves,
                  int first_curve, const std::vector<std::string>& warm,
                  Spans& spans, Outcome& out) {
  const int port = d.server->port();
  service::ServiceClient writer(port);
  const Json m0 = writer.metrics();

  Window w;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> seq{std::int64_t(first_curve) * 1000000};
  std::vector<std::vector<Hit>> lat(static_cast<std::size_t>(hit_clients));
  std::vector<Outcome> hit_out(static_cast<std::size_t>(hit_clients));
  std::vector<std::thread> readers;
  const double h0 = now_s();
  for (int c = 0; c < hit_clients; ++c)
    readers.emplace_back([&, c] {
      Outcome& o = hit_out[std::size_t(c)];
      try {
        service::ServiceClient client(port);
        std::uint64_t x = electron_seed(opt.seed + std::uint64_t(c));
        const std::string name = "hit-" + std::to_string(c);
        while (!stop.load()) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          const std::size_t k = (x >> 33) % warm.size();
          const double a = now_s();
          const Json resp = client.submit("", {warm[k]}, sz.warm_steps, name);
          const double b = now_s();
          lat[std::size_t(c)].push_back({b, b - a});
          spans.add("service.request", seq.fetch_add(1), 100 + c, a, b, "hit");
          ++o.attempted;
          if (!is_result(resp, "cache"))
            o.fail("hit " + warm[k] + " was not a cache hit: " + resp.dump());
          else if (resp.at("result").dump() != d.warm_records[k])
            o.fail("cache record for " + warm[k] +
                   " differs from the record the job produced");
        }
      } catch (const std::exception& e) {
        o.fail(std::string("hit client: ") + e.what());
      }
    });

  // Write stream on this thread. Whole curves only, at least min_curves.
  try {
    const double start = now_s();
    const double jitter = seed_jitter(opt.seed);
    for (int c = first_curve;
         int(w.curve_s.size()) < min_curves || now_s() - start < budget;
         ++c) {
      std::vector<std::string> ovs;
      for (int k = 0; k < kSweepPoints; ++k)
        ovs.push_back(a0_override(0.05 * (k + 1) + jitter + 1e-7 * (c + 1)));
      const double t0 = now_s();
      std::vector<double> submitted;
      for (const std::string& ov : ovs) {
        submitted.push_back(now_s());
        const Json resp = writer.submit("", {ov}, sz.job_steps, "sweep", 1.0,
                                        /*wait=*/false);
        ++out.attempted;
        if (resp.at("type").as_string() != "accepted")
          out.fail("sweep submit " + ov + " not accepted: " + resp.dump());
      }
      std::string first_record;
      double last = t0;
      for (std::size_t k = 0; k < ovs.size(); ++k) {
        const double a = now_s();
        const Json resp = writer.submit("", {ovs[k]}, sz.job_steps, "sweep");
        last = now_s();
        const std::int64_t id = std::int64_t(c) * kSweepPoints + std::int64_t(k);
        spans.add("service.request", id, 99, a, last, "fresh");
        ++out.attempted;
        if (!is_result(resp, nullptr)) {
          out.fail("sweep point " + ovs[k] + ": " + resp.dump());
          continue;
        }
        const Json& r = resp.at("result");
        const Json* refl_json = r.at("metrics").find("reflectivity");
        const double refl = refl_json != nullptr ? refl_json->as_number() : -1;
        if (r.at("status").as_string() != "done" || !std::isfinite(refl) ||
            refl < 0)
          out.fail("sweep point " + ovs[k] + " not done with a finite "
                   "reflectivity: " + r.dump());
        const double js = r.at("seconds").as_number();
        w.job_s.push_back(js);
        w.wait_s.push_back(last - submitted[k] - js);
        spans.add("campaign.job", id, 98, last - js, last);
        if (k == 0) first_record = r.dump();
      }
      w.curve_s.push_back(last - t0);
      // The finished point is now in the ledger: its cache record must be
      // byte-identical to the record the run delivered.
      const Json again = writer.submit("", {ovs[0]}, sz.job_steps, "sweep");
      ++out.attempted;
      if (!is_result(again, "cache") ||
          again.at("result").dump() != first_record)
        out.fail("cache record for " + ovs[0] + " differs: " + again.dump());
    }
  } catch (const std::exception& e) {
    out.fail(std::string("write stream: ") + e.what());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  w.hit_t0 = h0;
  w.hit_wall = now_s() - h0;
  for (std::size_t c = 0; c < lat.size(); ++c) {
    w.hits.insert(w.hits.end(), lat[c].begin(), lat[c].end());
    out.merge(hit_out[c]);
  }
  const Json m1 = writer.metrics();
  for (auto [field, name] :
       {std::pair{&w.coalesced, "service.coalesced"},
        std::pair{&w.cache_hits, "service.cache_hits"},
        std::pair{&w.submissions, "service.submissions"}})
    *field = metric_value(m1, name) - metric_value(m0, name);
  return w;
}

/// Cuts the read stream of `w` into ~1 s slices and appends each slice's
/// rate and latency quantiles (ms). The summaries are interquartile means
/// over slices: a host stall of a few seconds moves a few slices into the
/// outer quarters, not the result. Slice p50s can fall into two clusters
/// (a wake-up that finds its CPU busy is quicker than one that must wake an
/// idle CPU) whose shares drift with the host; a median jumps between the
/// clusters when their shares are near even, while the interquartile mean
/// follows the shares smoothly.
void add_slices(const Window& w, std::vector<double>& rps,
                std::vector<double>& p50, std::vector<double>& p90) {
  const auto n = std::size_t(std::max(1.0, std::floor(w.hit_wall)));
  const double slice = w.hit_wall / double(n);
  std::vector<std::vector<double>> ms(n);
  for (const Hit& h : w.hits)
    ms[std::min(n - 1, std::size_t((h.end_s - w.hit_t0) / slice))].push_back(
        h.latency_s * 1e3);
  for (const std::vector<double>& v : ms) {
    rps.push_back(double(v.size()) / slice);
    if (v.empty()) continue;  // its late request lands in a later slice
    p50.push_back(quantile(v, 0.50));
    p90.push_back(quantile(v, 0.90));
  }
}

double connect_probe_ms(int port, int reps, Spans& spans) {
  std::vector<double> ms;
  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) {
    const double a = now_s();
    service::ServiceClient client(port);
    ms.push_back((now_s() - a) * 1e3);
  }
  spans.add("probe.connect", 0, 0, t0, now_s());
  return median(ms);
}

}  // namespace

Outcome run_service_mix(const Options& opt) {
  minivpic::set_log_level(minivpic::LogLevel::kError);
  const Sizes sz = opt.toy ? Sizes{10, 40, 1, 2.0} : Sizes{40, 200, 3, 10.0};
  const int cpus = allowed_cpus();
  const int workers = std::max(1, cpus / 2);
  // Each closed-loop hit client keeps two threads busy in turn, its own
  // and the server session thread answering it; one pair per two CPUs
  // left over by the workers keeps the total at nproc.
  const int hit_clients = std::max(1, (cpus - workers) / 2);

  campaign::CampaignSpec spec = campaign::CampaignSpec::from_deck_source(
      generated_deck(opt, {"control.pipelines=1"}));
  spec.set_steps(sz.job_steps);
  spec.set_probe_plane(16);
  spec.set_warmup(sz.warmup);
  std::vector<std::string> warm;
  for (int h = 0; h < kWarmJobs; ++h)
    warm.push_back(a0_override(0.12 + 0.01 * h + seed_jitter(opt.seed)));

  Outcome out;
  Spans spans(opt.trace);
  // Memory is read once, when the first set-up of this fresh process is
  // done: later set-ups inherit heap the allocator kept from earlier ones.
  //
  // Untraced, the measured window is split evenly over the set-ups, each
  // part served by its own daemon. How fast a hit is depends on where the
  // scheduler keeps the daemon's long-lived threads (executor workers,
  // dispatcher), and that placement can hold for a whole part; splitting
  // samples several placements per run.
  Spans off(false);
  const int setups_n = opt.toy ? 1 : kSetups;
  std::vector<double> setups, curve_s, rps, p50, p90;
  double first_rss = 0;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < setups_n; ++i) {
    daemon.reset();  // drain the previous set-up before timing the next
    const double t0 = now_s();
    daemon = start_daemon(spec, opt, sz, i, workers, warm, out);
    setups.push_back(now_s() - t0);
    if (i == 0) first_rss = rss_mb();
    spans.add("bench.setup", i, 0, t0, now_s());
    // Untimed warm-up window: the host's idle CPUs need a moment of load
    // before rates settle (see lpi.cpp).
    if (i == 0 && !opt.toy)
      (void)run_window(*daemon, opt, sz, hit_clients, 2.0, 1, 0, warm, off,
                       out);
    if (opt.trace) continue;
    const Window w =
        run_window(*daemon, opt, sz, hit_clients, opt.seconds / setups_n,
                   sz.min_curves, 1000 * (i + 1), warm, off, out);
    add_slices(w, rps, p50, p90);
    curve_s.insert(curve_s.end(), w.curve_s.begin(), w.curve_s.end());
  }

  if (!opt.trace) {
    out.add("throughput", interquartile_mean(rps), "1/s");
    out.add("latency_ms_p50", interquartile_mean(p50), "ms");
    out.add("latency_ms_p90", interquartile_mean(p90), "ms");
    out.add("time_to_result_s", interquartile_mean(curve_s), "s");
    out.add("setup_s", median(setups), "s");
    out.add("rss_mb", first_rss, "MB");
    return out;
  }

  // Untraced and traced quarters alternate, so host drift during the
  // window lands on both halves alike.
  Window plain, traced;
  double cpu_s = 0, wall_s = 0;
  for (int q = 0; q < 4; ++q) {
    const bool trace = q % 2 == 1;
    const double c0 = process_cpu_seconds(), t0 = now_s();
    const Window w =
        run_window(*daemon, opt, sz, hit_clients, opt.seconds / 4,
                   sz.min_curves, 1000 * (q + 1), warm, trace ? spans : off,
                   out);
    if (trace) {
      cpu_s += process_cpu_seconds() - c0;
      wall_s += now_s() - t0;
    }
    (trace ? traced : plain).append(w);
  }
  const double cpu_share =
      cpu_s / (wall_s * double(workers + 2 * hit_clients));

  double job_sum = 0, curve_sum = 0;
  for (double s : traced.job_s) job_sum += s;
  for (double s : traced.curve_s) curve_sum += s;
  out.add("campaign.job_s_p50", median(traced.job_s), "s");
  out.add("campaign.wait_s_p50", median(traced.wait_s), "s");
  out.add("campaign.worker_util", job_sum / (curve_sum * double(workers)),
          "ratio");
  out.add("service.hit_ratio",
          traced.submissions > 0 ? traced.cache_hits / traced.submissions : 0,
          "ratio");
  out.add("service.coalesced",
          traced.coalesced / double(traced.curve_s.size()), "count/curve");
  std::vector<double> hit_ms;
  for (const Hit& h : plain.hits) hit_ms.push_back(h.latency_s * 1e3);
  out.add("service.hit_ms_p99", quantile(hit_ms, 0.99), "ms");
  out.add("service.connect_ms",
          connect_probe_ms(daemon->server->port(), opt.toy ? 20 : 200, spans),
          "ms");
  out.add("util.cpu_share", cpu_share, "ratio");
  out.add("telemetry.trace_overhead",
          (double(traced.hits.size()) / traced.hit_wall) /
              (double(plain.hits.size()) / plain.hit_wall),
          "ratio");
  spans.write(opt.work_dir + "/trace.json");
  return out;
}

}  // namespace perfbench
