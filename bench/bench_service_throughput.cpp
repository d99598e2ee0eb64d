// Service throughput: how fast the campaign daemon answers requests that do
// NOT cost a simulation — the cache-hit path that makes campaign-as-a-service
// worth running. An in-process ServiceServer is warmed with a handful of
// unique jobs, then swept across client counts; every client hammers the
// warm ids, so each request exercises the full wire round trip (connect is
// amortized, one JSON line each way) plus the ledger lookup, and nothing
// else. The numbers to watch:
//
//   * requests/s vs clients — how the accept/session/registry locking
//     scales with connection concurrency;
//   * cache-hit p50/p99 — the latency promise a duplicate submission gets,
//     which docs/SERVICE.md quotes;
//   * the one fresh row — the cost of an actual simulation at this size,
//     for contrast (cache hits should be ~1000x cheaper).
//
//   --steps=N     simulation steps per warm job (default 4)
//   --requests=N  cache-hit requests per client (default 200)
//   --workers=N   executor workers for the warm phase (default 2)
//   --scratch=DIR ledger + checkpoint directory (default /tmp)
//   --json=PATH   machine-readable records for the benchmark snapshot
//                 (merged into BENCH_10.json by the CI bench-snapshot job)
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

using namespace minivpic;

namespace {

// The same deliberately tiny base deck the service tests use: the bench
// measures service overhead, so the simulation behind the warm jobs should
// be as close to free as a real job can be.
const char* kBaseDeck = R"(
[grid]
nx = 12  ny = 2  nz = 2  dx = 0.5

[species electron]
q = -1  m = 1  ppc = 4  uth = 0.05  seed = 7

[species ion]
q = 1  m = 1836  ppc = 4  uth = 0.001  mobile = false
)";

const char* kAxis = "species electron.uth";
constexpr int kWarmJobs = 8;

struct Point {
  int clients = 0;
  int requests = 0;           ///< total across clients
  double wall_seconds = 0;
  double requests_per_second = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

std::string override_for(int i) {
  return std::string(kAxis) + "=0.0" + std::to_string(40 + i);
}

double percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const double pos = q * double(sorted_ms.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = pos - double(lo);
  return sorted_ms[lo] + frac * (sorted_ms[hi] - sorted_ms[lo]);
}

Point hammer(int port, int clients, int per_client) {
  std::vector<std::vector<double>> lat_ms(static_cast<std::size_t>(clients));
  std::vector<std::thread> pool;
  pool.reserve(std::size_t(clients));
  Timer wall;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([port, c, per_client, &lat_ms] {
      service::ServiceClient client(port);
      std::vector<double>& out = lat_ms[std::size_t(c)];
      out.reserve(std::size_t(per_client));
      Timer t;
      for (int i = 0; i < per_client; ++i) {
        t.reset();
        const telemetry::Json resp = client.submit(
            "", {override_for((c + i) % kWarmJobs)}, /*steps=*/-1,
            "bench-" + std::to_string(c));
        out.push_back(t.seconds() * 1e3);
        MV_REQUIRE(resp.at("type").as_string() == "result",
                   "expected a cached result, got " << resp.dump());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double seconds = wall.seconds();

  std::vector<double> all;
  for (const std::vector<double>& v : lat_ms)
    all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  Point pt;
  pt.clients = clients;
  pt.requests = clients * per_client;
  pt.wall_seconds = seconds;
  pt.requests_per_second = seconds > 0 ? double(pt.requests) / seconds : 0;
  pt.p50_ms = percentile(all, 0.50);
  pt.p99_ms = percentile(all, 0.99);
  return pt;
}

void write_json(const std::string& path, int steps, int per_client,
                double fresh_seconds, const std::vector<Point>& points) {
  telemetry::Json arr = telemetry::Json::array();
  for (const Point& pt : points) {
    telemetry::Json rec = telemetry::Json::object();
    rec.set("clients", telemetry::Json::number(std::int64_t{pt.clients}));
    rec.set("requests", telemetry::Json::number(std::int64_t{pt.requests}));
    rec.set("wall_seconds", telemetry::Json::number(pt.wall_seconds));
    rec.set("requests_per_second",
            telemetry::Json::number(pt.requests_per_second));
    rec.set("cache_hit_p50_ms", telemetry::Json::number(pt.p50_ms));
    rec.set("cache_hit_p99_ms", telemetry::Json::number(pt.p99_ms));
    arr.push_back(std::move(rec));
  }
  telemetry::Json doc = telemetry::Json::object();
  doc.set("bench", telemetry::Json::string("bench_service_throughput"));
  doc.set("steps", telemetry::Json::number(std::int64_t{steps}));
  doc.set("requests_per_client",
          telemetry::Json::number(std::int64_t{per_client}));
  doc.set("warm_jobs", telemetry::Json::number(std::int64_t{kWarmJobs}));
  doc.set("fresh_job_seconds", telemetry::Json::number(fresh_seconds));
  doc.set("points", std::move(arr));
  std::ofstream os(path, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot open --json file: " << path);
  os << doc.dump() << "\n";
  std::cout << "\nJSON results written: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_service_throughput [--steps=N] [--requests=N] "
                 "[--workers=N] [--scratch=DIR] [--json=PATH]\n";
    return 0;
  }
  args.check_known({"steps", "requests", "workers", "scratch", "json"});
  const int steps = int(args.get_int("steps", 4));
  const int per_client = int(args.get_int("requests", 200));
  const int workers = int(args.get_int("workers", 2));
  const std::string scratch = args.get("scratch", "/tmp");
  MV_REQUIRE(steps >= 1, "--steps must be >= 1");
  MV_REQUIRE(per_client >= 1, "--requests must be >= 1");
  MV_REQUIRE(workers >= 1, "--workers must be >= 1");
  set_log_level(LogLevel::kError);  // the daemon narrates; the bench times

  campaign::CampaignSpec spec = campaign::CampaignSpec::from_deck_source(
      sim::DeckSource::from_text(kBaseDeck));
  spec.set_steps(steps);
  // The ledger lives on disk as in production, but cache hits only touch
  // its in-memory index — the file is written once per warm job.
  campaign::ResultStore results(scratch + "/bench_service_ledger.ndjson",
                                /*resume=*/false);

  campaign::ExecutorConfig exec;
  exec.workers = workers;
  exec.scratch_dir = scratch;
  service::ServerConfig config;
  config.max_queued = 2 * kWarmJobs;
  service::ServiceServer server(spec, results, exec, config);
  server.start();

  // Warm phase: one fresh simulation per warm id, timed for the contrast
  // row. Everything after this is answered from the ledger.
  Timer fresh_timer;
  {
    service::ServiceClient client(server.port());
    for (int i = 0; i < kWarmJobs; ++i) {
      const telemetry::Json resp =
          client.submit("", {override_for(i)}, -1, "warm");
      MV_REQUIRE(resp.at("type").as_string() == "result",
                 "warm submit failed: " << resp.dump());
    }
  }
  const double fresh_seconds = fresh_timer.seconds() / kWarmJobs;

  std::vector<Point> points;
  Table table({"clients", "requests", "wall s", "requests/s",
               "cache p50 ms", "cache p99 ms"});
  for (int clients : {1, 2, 4, 8}) {
    const Point pt = hammer(server.port(), clients, per_client);
    points.push_back(pt);
    table.add_row({(long long)pt.clients, (long long)pt.requests,
                   pt.wall_seconds, pt.requests_per_second, pt.p50_ms,
                   pt.p99_ms});
  }
  server.drain();

  table.print(std::cout,
              "Service cache-hit throughput vs client count (every request "
              "is a duplicate submission answered from the ledger)");
  std::cout << "fresh job for contrast: " << fresh_seconds * 1e3
            << " ms simulated (" << steps << " steps); a cache hit costs "
            << points.front().p50_ms << " ms\n";
  if (args.has("json"))
    write_json(args.get("json", ""), steps, per_client, fresh_seconds,
               points);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_service_throughput: " << e.what() << "\n";
  return 1;
}
