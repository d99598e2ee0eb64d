// TraceWriter's format, and telemetry::Phase: one scope hands the same
// interval to the lap, the trace span and the flight recorder.
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/phase.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/minivpic_trace_" + name;
}

Json load_trace(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return Json::parse(buf.str());
}

TEST(TraceWriterTest, NullWriterSpansAreNoops) {
  // The disabled-sink path used on every un-traced run.
  const Phase a({}, kFdrPhaseStep);
  const Phase b({}, kFdrPhasePush);
  SUCCEED();
}

TEST(TraceWriterTest, WritesWellFormedDocument) {
  const std::string path = temp_path("basic.json");
  {
    TraceWriter w(path, /*pid=*/3);
    {
      const Phase step({&w, nullptr}, kFdrPhaseStep);
      const Phase push({&w, nullptr}, kFdrPhasePush);
    }
    Json args = Json::object();
    args.set("step", Json::number(std::int64_t{7}));
    w.instant("health.fault", "health", std::move(args));
  }  // destructor closes
  const Json doc = load_trace(path);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 3.0);
    e.at("tid").as_number();
    EXPECT_GE(e.at("ts").as_number(), 0.0);
  }
  // Instant events carry their args and scope marker.
  bool saw_instant = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("name").as_string(), "health.fault");
      EXPECT_EQ(e.at("cat").as_string(), "health");
      EXPECT_DOUBLE_EQ(e.at("args").at("step").as_number(), 7.0);
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(TraceWriterTest, SpansBalancePerThread) {
  const std::string path = temp_path("threads.json");
  {
    TraceWriter w(path, 0);
    auto worker = [&w](int laps) {
      for (int i = 0; i < laps; ++i) {
        const Phase outer({&w, nullptr}, kFdrPhaseStep);
        const Phase inner({&w, nullptr}, kFdrPhasePush);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 5 + t);
    for (auto& th : threads) th.join();
    w.close();
  }
  const Json doc = load_trace(path);
  const Json& events = doc.at("traceEvents");
  // Per-tid B/E stacks must balance and timestamps must be monotonic.
  std::map<int, int> depth;
  std::map<int, double> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const int tid = int(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(depth.size(), 4u);  // one track per worker thread
}

TEST(TraceWriterTest, CloseIsIdempotent) {
  const std::string path = temp_path("idempotent.json");
  TraceWriter w(path, 0);
  { const Phase p({&w, nullptr}, kFdrPhasePush); }
  w.close();
  w.close();  // second close must not rewrite or throw
  const Json doc = load_trace(path);
  EXPECT_EQ(doc.at("traceEvents").size(), 2u);
}

TEST(ScopedLapTest, TimesTheScope) {
  // With no sinks a Phase only times its lap.
  Stopwatch sw;
  {
    const Phase p({}, kFdrPhasePush, &sw);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(sw.laps(), 1u);
  EXPECT_GE(sw.total_seconds(), 100e-6);
}

TEST(ScopedLapTest, NestedScopesAccumulate) {
  Stopwatch outer, inner;
  {
    const Phase a({}, kFdrPhaseStep, &outer);
    {
      const Phase b({}, kFdrPhasePush, &inner);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  EXPECT_EQ(outer.laps(), 1u);
  EXPECT_EQ(inner.laps(), 1u);
  // The outer scope contains the inner one.
  EXPECT_GE(outer.total_seconds(), inner.total_seconds());
}

TEST(PhaseTest, NestedScopesBalanceAndAccumulate) {
  const std::string trace_path = temp_path("nested.json");
  const std::string fdr_path = temp_path("nested.fdr");
  Recorder rec(fdr_path, 0, 16);
  Stopwatch outer, inner;
  {
    TraceWriter trace(trace_path);
    for (int i = 0; i < 2; ++i) {
      const Phase a({&trace, &rec}, kFdrPhaseStep, &outer);
      const Phase b({&trace, &rec}, kFdrPhasePush, &inner);
    }
  }
  EXPECT_EQ(outer.laps(), 2u);
  EXPECT_EQ(inner.laps(), 2u);
  EXPECT_GE(outer.total_seconds(), inner.total_seconds());
  ASSERT_TRUE(rec.dump());
  const Recorder::Dump d = Recorder::read(fdr_path);
  const Json events = load_trace(trace_path).at("traceEvents");
  ASSERT_EQ(d.events.size(), 9u);  // 2 x (2 begins + 2 ends) + dump marker
  ASSERT_EQ(events.size(), 8u);
  // Both sinks see begin step, begin push, end push, end step, at the same
  // time points on the same epoch.
  const FdrPhase ids[] = {kFdrPhaseStep, kFdrPhasePush, kFdrPhasePush,
                          kFdrPhaseStep};
  for (std::size_t i = 0; i < 8; ++i) {
    const bool begin = i % 4 < 2;
    EXPECT_EQ(FdrKind(d.events[i].kind),
              begin ? FdrKind::kPhaseBegin : FdrKind::kPhaseEnd);
    EXPECT_EQ(d.events[i].code, ids[i % 4]) << i;
    EXPECT_EQ(events.at(i).at("ph").as_string(), begin ? "B" : "E") << i;
    EXPECT_NEAR(events.at(i).at("ts").as_number(),
                double(d.events[i].ts_ns) / 1e3, 1e-3);
  }
  EXPECT_EQ(events.at(0).at("name").as_string(), "step");
  EXPECT_EQ(events.at(1).at("name").as_string(), "push");
  EXPECT_EQ(events.at(1).at("cat").as_string(), "step");
  std::remove(fdr_path.c_str());
}

TEST(PhaseTest, SinksAgreeByConstruction) {
  constexpr int kRanks = 2;
  sim::Deck deck = sim::two_stream_deck(/*cells=*/16, /*ppc=*/4);
  // Every timed phase runs: sort, Marder clean and collisions included.
  deck.sort_every = deck.clean_period = 2;
  deck.collisions.push_back({"beam_fwd", "beam_bwd", 1.0, 2});
  std::mutex mu;
  std::vector<sim::StepTimings> laps(kRanks);
  vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    const std::string rank = std::to_string(comm.rank());
    const vmpi::CartTopology topo({kRanks, 1, 1}, {true, true, true});
    sim::Simulation s(deck, &comm, &topo);
    TraceWriter trace(temp_path("agree.json." + rank), comm.rank());
    Recorder rec(temp_path("agree.fdr." + rank), comm.rank());
    s.set_trace(&trace);
    s.set_recorder(&rec);
    s.initialize();
    s.run(4);
    EXPECT_TRUE(rec.dump());
    std::lock_guard<std::mutex> lock(mu);
    laps[std::size_t(comm.rank())] = s.timings();
  });

  for (int r = 0; r < kRanks; ++r) {
    const std::string rank = std::to_string(r);
    // Summed B->E nanoseconds per phase: trace spans pair per thread, FDR
    // events per id (each id's pairs are sequential on one thread).
    std::map<std::string, double> trace_ns, fdr_ns;
    std::map<int, std::vector<std::pair<std::string, double>>> open;
    const Json events = load_trace(temp_path("agree.json." + rank))
                            .at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json& e = events.at(i);
      auto& stack = open[int(e.at("tid").as_number())];
      const double ts_ns = e.at("ts").as_number() * 1e3;
      if (e.at("ph").as_string() == "B") {
        stack.emplace_back(e.at("name").as_string(), ts_ns);
      } else if (e.at("ph").as_string() == "E") {
        trace_ns[stack.back().first] += ts_ns - stack.back().second;
        stack.pop_back();
      }
    }
    const Recorder::Dump d = Recorder::read(temp_path("agree.fdr." + rank));
    ASSERT_LE(d.header.total, d.header.capacity) << "ring wrapped";
    std::map<std::uint16_t, std::uint64_t> begun;
    for (const FdrEvent& e : d.events) {
      if (FdrKind(e.kind) == FdrKind::kPhaseBegin) begun[e.code] = e.ts_ns;
      if (FdrKind(e.kind) == FdrKind::kPhaseEnd)
        fdr_ns[fdr_phase_name(e.code)] += double(e.ts_ns - begun[e.code]);
    }
    std::remove(temp_path("agree.fdr." + rank).c_str());

    for (const PhaseRow& row : kPhases) {
      const Stopwatch* lap = laps[std::size_t(r)].lap(row.id);
      if (lap == nullptr) continue;
      ASSERT_GT(lap->laps(), 0u) << row.name << " never ran, rank " << r;
      // Within 1 ns per lap: the sinks share the scope's two clock reads.
      const double tol = double(lap->laps());
      EXPECT_NEAR(trace_ns[row.name], fdr_ns[row.name], tol)
          << row.name << ", rank " << r;
      EXPECT_NEAR(lap->total_seconds() * 1e9, fdr_ns[row.name], tol)
          << row.name << ", rank " << r;
    }
  }
}

}  // namespace
}  // namespace minivpic::telemetry
