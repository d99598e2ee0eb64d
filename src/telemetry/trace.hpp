// Chrome trace-event sink: records begin/end duration spans and instant
// events in the Trace Event Format understood by Perfetto and
// chrome://tracing. Events are buffered in memory (a span is two small
// structs, no I/O on the hot path) and serialized as one JSON document on
// close().
//
// Threading: begin/end/instant are safe to call from any thread; each
// thread's events carry a stable small integer tid (assigned on first use),
// so B/E pairs nest per thread as the format requires. `pid` is the vmpi
// rank, which groups each rank's spans into its own track group in the
// viewer. Timestamps are on the flight recorder's epoch (epoch_ns). Spans
// take the time points their caller read: telemetry::Phase hands the same
// two clock reads to the Stopwatch lap, this span and the recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/recorder.hpp"

namespace minivpic::telemetry {

class TraceWriter {
 public:
  /// Events are written to `path` on close() (or destruction). `pid`
  /// labels this writer's process track — pass the vmpi rank.
  explicit TraceWriter(std::string path, int pid = 0);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  using Clock = std::chrono::steady_clock;

  /// Opens a duration span on the calling thread at `at`.
  void begin(const char* name, const char* category, Clock::time_point at);
  /// Closes the most recent open span on the calling thread at `at`.
  void end(Clock::time_point at);
  /// Thread-scoped instant event with optional structured args.
  void instant(const char* name, const char* category = "event",
               Json args = Json());

  /// Serializes `{"traceEvents": [...]}` to the path. Idempotent; called
  /// by the destructor if not called explicitly. Throws on I/O failure.
  void close();

 private:
  struct Event {
    char phase;  // 'B', 'E', 'i'
    std::uint64_t ts_ns;  // epoch_ns
    int tid;
    std::string name;      // empty for 'E'
    std::string category;  // empty for 'E'
    std::string args;      // pre-rendered JSON object, may be empty
  };

  int tid_for_current_thread();

  std::string path_;
  int pid_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::vector<std::thread::id> tids_;
  bool closed_ = false;
};

}  // namespace minivpic::telemetry
