#include "telemetry/trace.hpp"

#include <cstdio>
#include <fstream>

#include "util/error.hpp"
#include "util/log.hpp"

namespace minivpic::telemetry {

TraceWriter::TraceWriter(std::string path, int pid)
    : path_(std::move(path)), pid_(pid) {
  epoch_ns(Clock::now());  // pin the shared epoch before the first event
}

TraceWriter::~TraceWriter() {
  // Destructors must not throw; an explicit close() reports I/O errors.
  try {
    close();
  } catch (const std::exception& e) {
    MV_LOG_ERROR << "trace writer: dropping trace on close failure: "
                 << e.what();
  }
}

int TraceWriter::tid_for_current_thread() {
  // Callers hold mu_. Linear scan: a handful of threads at most.
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < tids_.size(); ++i) {
    if (tids_[i] == self) return int(i);
  }
  tids_.push_back(self);
  return int(tids_.size() - 1);
}

void TraceWriter::begin(const char* name, const char* category,
                        Clock::time_point at) {
  const std::uint64_t ts = epoch_ns(at);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'B', ts, tid_for_current_thread(), name, category, {}});
}

void TraceWriter::end(Clock::time_point at) {
  const std::uint64_t ts = epoch_ns(at);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'E', ts, tid_for_current_thread(), {}, {}, {}});
}

void TraceWriter::instant(const char* name, const char* category, Json args) {
  const std::uint64_t ts = epoch_ns(Clock::now());
  std::string rendered;
  if (!args.is_null()) rendered = args.dump();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'i', ts, tid_for_current_thread(), name, category,
                     std::move(rendered)});
}

void TraceWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;

  std::ofstream os(path_, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot open trace output file: " << path_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char num[48];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << "{\"ph\":\"" << e.phase << '"';
    if (!e.name.empty()) os << ",\"name\":\"" << Json::escape(e.name) << '"';
    if (!e.category.empty())
      os << ",\"cat\":\"" << Json::escape(e.category) << '"';
    std::snprintf(num, sizeof num, "%.3f", double(e.ts_ns) / 1e3);
    os << ",\"ts\":" << num << ",\"pid\":" << pid_ << ",\"tid\":" << e.tid;
    if (e.phase == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
    if (!e.args.empty()) os << ",\"args\":" << e.args;
    os << '}';
    if (i + 1 < events_.size()) os << ',';
    os << '\n';
  }
  os << "]}\n";
  os.flush();
  MV_REQUIRE(os.good(), "failed writing trace output file: " << path_);
}

}  // namespace minivpic::telemetry
