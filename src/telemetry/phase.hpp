// The step loop's phases: one table of flight-recorder ids and names, from
// which the `.fdr` ids, trace span names, `phase.<name>.s` metrics and
// StepTimings' id-indexed laps all derive, and one RAII scope, Phase, that
// times a phase once and hands that interval to every sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>

#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"
#include "util/timer.hpp"

namespace minivpic::telemetry {

/// Phase ids for FdrKind::kPhaseBegin/kPhaseEnd: part of the on-disk
/// format, append only. 1-9 are StepTimings' phases. 10-12 are the overlap
/// sub-phases (docs/OVERLAP.md); migrate.async runs on the comm worker, so
/// an overlapped step shows it bracketing push.interior.
enum FdrPhase : std::uint16_t {
  kFdrPhaseStep = 0,
  kFdrPhaseInterpolate = 1,
  kFdrPhasePush = 2,
  kFdrPhaseMigrate = 3,
  kFdrPhaseSort = 4,
  kFdrPhaseReduce = 5,
  kFdrPhaseSources = 6,
  kFdrPhaseField = 7,
  kFdrPhaseClean = 8,
  kFdrPhaseCollide = 9,
  kFdrPhasePushSkin = 10,
  kFdrPhasePushInterior = 11,
  kFdrPhaseMigrateAsync = 12,
};

struct PhaseRow {
  FdrPhase id;
  const char* name;  ///< trace span name, `.fdr` name, metric `phase.<name>.s`
};

/// One row per phase, ids contiguous from 0 in row order; the order of
/// the timed rows is part of the NDJSON schema.
inline constexpr PhaseRow kPhases[] = {
    {kFdrPhaseStep, "step"},
    {kFdrPhaseInterpolate, "interpolate"},
    {kFdrPhasePush, "push"},
    {kFdrPhaseMigrate, "migrate"},
    {kFdrPhaseSort, "sort"},
    {kFdrPhaseReduce, "reduce"},
    {kFdrPhaseSources, "sources"},
    {kFdrPhaseField, "field"},
    {kFdrPhaseClean, "clean"},
    {kFdrPhaseCollide, "collide"},
    {kFdrPhasePushSkin, "push.skin"},
    {kFdrPhasePushInterior, "push.interior"},
    {kFdrPhaseMigrateAsync, "migrate.async"},
};
inline constexpr std::size_t kPhaseCount = std::size(kPhases);

/// "step", "push", ...; "phase?" for an id outside the table.
constexpr const char* fdr_phase_name(std::uint16_t phase) {
  for (const PhaseRow& row : kPhases)
    if (row.id == phase) return row.name;
  return "phase?";
}

/// The step loop's sinks; either may be null.
struct Sinks {
  TraceWriter* trace = nullptr;
  Recorder* recorder = nullptr;
};

/// Times one phase: reads steady_clock once on entry and once on exit and
/// hands both time points to the Stopwatch lap, the trace span (category
/// "step") and the flight recorder's begin/end pair. With both sinks null
/// the cost is the two clock reads and pointer tests.
class Phase {
 public:
  using Clock = std::chrono::steady_clock;

  Phase(Sinks sinks, FdrPhase id, Stopwatch* lap = nullptr)
      : sinks_(sinks), id_(id), lap_(lap), begin_(Clock::now()) {
    if (sinks_.trace != nullptr)
      sinks_.trace->begin(fdr_phase_name(id_), "step", begin_);
    if (sinks_.recorder != nullptr)
      sinks_.recorder->record(begin_, FdrKind::kPhaseBegin, id_);
  }
  ~Phase() {
    const Clock::time_point end = Clock::now();
    if (lap_ != nullptr)
      lap_->add(std::chrono::duration<double>(end - begin_).count());
    if (sinks_.recorder != nullptr)
      sinks_.recorder->record(end, FdrKind::kPhaseEnd, id_);
    if (sinks_.trace != nullptr) sinks_.trace->end(end);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Sinks sinks_;
  FdrPhase id_;
  Stopwatch* lap_;
  Clock::time_point begin_;
};

}  // namespace minivpic::telemetry
