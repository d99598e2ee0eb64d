// perfbench: the repository benchmark's C++ binary. `perfbench/run.py`
// builds and runs it; it can also be run by hand:
//
//   perfbench --workload=lpi_pipelines|lpi_ranks|service_mix --seed=N
//             --seconds=S --trace=0|1 --deck=PATH --work-dir=DIR [--toy]
//
// Prints a {"host": {...}} line (resolved push kernel, allowed CPUs), then
// one JSON object on its last stdout line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": ..}}}
// With --trace=0 the metrics are the end-to-end set; with --trace=1 the
// per-layer set, where a layer the workload does not exercise reads 0.
// Exit status: 0 when every correctness gate held, 1 when one failed, 2 on
// a usage error.
#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "particles/kernel.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using minivpic::telemetry::Json;
using perfbench::Metric;

const std::vector<Metric> kEndToEnd = {
    {"throughput", 0, "1/s"},     {"latency_ms_p50", 0, "ms"},
    {"latency_ms_p90", 0, "ms"},  {"time_to_result_s", 0, "s"},
    {"setup_s", 0, "s"},          {"rss_mb", 0, "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"sim.interpolate.ms_per_step", 0, "ms"},
    {"sim.push.ms_per_step", 0, "ms"},
    {"sim.migrate.ms_per_step", 0, "ms"},
    {"sim.sort.ms_per_step", 0, "ms"},
    {"sim.reduce.ms_per_step", 0, "ms"},
    {"sim.sources.ms_per_step", 0, "ms"},
    {"sim.field.ms_per_step", 0, "ms"},
    {"sim.clean.ms_per_step", 0, "ms"},
    {"sim.step_ms", 0, "ms"},
    {"sim.step_ms_p99", 0, "ms"},
    {"sim.unattributed_ms_per_step", 0, "ms"},
    {"sim.push_share", 0, "ratio"},
    {"sim.parallel_efficiency", 0, "ratio"},
    {"sim.rank_skew", 0, "ratio"},
    {"sim.overlap.hidden_ms_per_step", 0, "ms"},
    {"sim.overlap.exposed_ms_per_step", 0, "ms"},
    {"particles.push_rate", 0, "1/s"},
    {"particles.crossings_per_push", 0, "ratio"},
    {"particles.sorted_per_step", 0, "count"},
    {"particles.migrated_per_step", 0, "count"},
    {"util.pipeline.speedup", 0, "ratio"},
    {"util.pipeline.imbalance", 0, "ratio"},
    {"util.pipeline.occupancy", 0, "ratio"},
    {"util.dispatch_us", 0, "us"},
    {"util.cpu_share", 0, "ratio"},
    {"vmpi.msgs_per_step", 0, "count"},
    {"vmpi.bytes_per_step", 0, "bytes"},
    {"vmpi.p2p_us", 0, "us"},
    {"vmpi.allreduce_us", 0, "us"},
    {"campaign.job_s_p50", 0, "s"},
    {"campaign.wait_s_p50", 0, "s"},
    {"campaign.worker_util", 0, "ratio"},
    {"service.hit_ratio", 0, "ratio"},
    {"service.coalesced", 0, "count/curve"},
    {"service.hit_ms_p99", 0, "ms"},
    {"service.connect_ms", 0, "ms"},
    {"telemetry.trace_overhead", 0, "ratio"},
};

const char* kUsage =
    "usage: perfbench --workload=lpi_pipelines|lpi_ranks|service_mix\n"
    "                 --seed=N --seconds=S --trace=0|1 --deck=PATH\n"
    "                 --work-dir=DIR [--toy]\n";

/// Orders the workload's metrics as `table` lists them, filling layers the
/// workload does not exercise with 0; a name or unit outside the table is
/// a benchmark bug.
Json metrics_json(const std::vector<Metric>& got,
                  const std::vector<Metric>& table) {
  for (const Metric& m : got) {
    bool known = false;
    for (const Metric& t : table) known |= t.name == m.name && t.unit == m.unit;
    MV_REQUIRE(known, "metric " << m.name << " [" << m.unit
                                << "] is not in the metric table");
    MV_REQUIRE(std::isfinite(m.value), "metric " << m.name << " is not finite");
  }
  Json out = Json::object();
  for (const Metric& t : table) {
    double value = 0;
    for (const Metric& m : got)
      if (m.name == t.name) value = m.value;
    Json v = Json::object();
    v.set("value", Json::number(value));
    v.set("unit", Json::string(t.unit));
    out.set(t.name, std::move(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    const minivpic::Args args(argc, argv);
    args.check_known(
        {"workload", "seed", "seconds", "trace", "deck", "work-dir", "toy"});
    MV_REQUIRE(args.positional().empty(),
               "unexpected argument " << args.positional().front());
    opt.workload = args.get("workload", "");
    opt.seed = std::uint64_t(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 10);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.toy = args.get_bool("toy", false);
    opt.deck_path = args.get("deck", "");
    opt.work_dir = args.get("work-dir", "");
    MV_REQUIRE(opt.workload == "lpi_pipelines" || opt.workload == "lpi_ranks" ||
                   opt.workload == "service_mix",
               "unknown --workload '" << opt.workload << "'");
    MV_REQUIRE(opt.seconds > 0, "--seconds must be > 0");
    MV_REQUIRE(!opt.deck_path.empty() && !opt.work_dir.empty(),
               "--deck and --work-dir are required");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }

  try {
    // Host facts only the program knows, for the run's fingerprint.
    Json host = Json::object();
    host.set("push_kernel",
             Json::string(minivpic::particles::kernel_name(
                 minivpic::particles::resolve_kernel(
                     perfbench::generated_deck(opt, {}).build().kernel))));
    host.set("allowed_cpus",
             Json::number(std::int64_t{perfbench::allowed_cpus()}));
    Json host_line = Json::object();
    host_line.set("host", std::move(host));
    std::cout << host_line.dump() << "\n";

    const perfbench::Outcome out =
        opt.workload == "service_mix"
            ? perfbench::run_service_mix(opt)
            : perfbench::run_lpi(opt, opt.workload == "lpi_ranks");
    for (const std::string& e : out.errors)
      std::cerr << "perfbench: gate failed: " << e << "\n";
    Json result = Json::object();
    result.set("correct", Json::boolean(out.failed == 0));
    result.set("attempted", Json::number(out.attempted));
    result.set("failed", Json::number(out.failed));
    result.set("metrics",
               metrics_json(out.metrics, opt.trace ? kPerLayer : kEndToEnd));
    std::cout << result.dump() << std::endl;
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
