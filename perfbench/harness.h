// Shared plumbing of the PARINDA benchmark program: command-line options,
// robust statistics, the result line, set-up timing, registry counter
// deltas, and the trace fold that turns recorded spans into per-layer self
// times.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// --- Statistics ---------------------------------------------------------

/// Quantile with linear interpolation between closest ranks (numpy's
/// default); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- Result line -----------------------------------------------------------

/// What one run reports: the operation tally, whether every output check
/// passed, and the metrics in the order they were added.
class RunResult {
 public:
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return failures_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints the failed checks to stderr and the JSON result as the last
  /// line of stdout.
  void Print() const;

 private:
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// --- Set-up -------------------------------------------------------------

/// The SDSS database every workload runs on, and the workload over it.
struct Setup {
  std::unique_ptr<parinda::Database> db;
  parinda::Workload workload;
  double build_s = 0.0;  ///< BuildSdssDatabase (load + ANALYZE)
  double bind_ms = 0.0;  ///< workload generation, parse and bind
};

/// Builds the database (20 000 photoobj rows) and the workload: the 30
/// prototypical queries, or `scaled_queries` > 0 Zipf-scaled ones.
Setup BuildSetup(int scaled_queries);

/// Reorders the workload's queries by a seeded shuffle.
void ShuffleQueries(parinda::Workload* workload, uint64_t seed);

/// Runs BuildSetup `repeats` times, one at a time, and keeps the last;
/// `setup_s` is the median of the per-repeat set-up times.
struct SetupSet {
  Setup setup;
  double setup_s = 0.0;
  double build_s = 0.0;
  double bind_ms = 0.0;
};
SetupSet TimedSetups(int scaled_queries, int repeats);

// --- Registry counters ------------------------------------------------

/// Values of the named registry counters at one instant.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  /// This snapshot minus `before`, for counter `name`.
  int64_t Since(const CounterSnapshot& before, const std::string& name) const;

 private:
  std::map<std::string, int64_t> values_;
};

// --- Tracing ------------------------------------------------------------

/// Ring capacity for one traced sample. A sample is traced on its own
/// (Start before, Stop after), so the ring only has to hold one sample.
inline constexpr size_t kTraceRing = size_t{1} << 18;

/// Per-span-name totals folded from traced samples.
class SpanFold {
 public:
  /// Arms the trace ring for one sample.
  void Begin();
  /// Stops recording, checks that no event was dropped, and folds the
  /// sample's spans. Returns false when the ring overflowed.
  bool End();

  /// Summed self time (the span's duration minus its direct children's) of
  /// every span called `name`, in milliseconds.
  double SelfMs(const std::string& name) const;
  /// Summed duration of every span called `name`, in milliseconds.
  double TotalMs(const std::string& name) const;

 private:
  std::map<std::string, double> self_us_;
  std::map<std::string, double> total_us_;
};

/// Runs `sample(traced)` back to back until `options.seconds` have passed.
/// With --trace 1 every second sample is traced into `fold`; a traced
/// sample that overflows the trace ring fails the run.
template <typename SampleFn>
void TimedLoop(const Options& options, SpanFold* fold, RunResult* result,
               SampleFn sample) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; MsBetween(start, Clock::now()) < options.seconds * 1000.0;
       ++i) {
    const bool traced = options.trace && i % 2 == 1;
    if (traced) fold->Begin();
    sample(traced);
    if (traced) result->Check(fold->End(), "trace ring overflowed");
  }
}

/// Summed wall time of the pipeline phase `phase` in `report`, in ms.
double PhaseMs(const parinda::DegradationReport& report,
               const std::string& phase);

// --- Workloads ----------------------------------------------------------

/// Each workload runs its set-up, a discarded warm-up sample, the timed
/// loop and its output checks, and fills `result`.
void RunInteractiveSdss(const Options& options, RunResult* result);
void RunAutopartSdss(const Options& options, RunResult* result);
void RunAdviseSdss2000(const Options& options, RunResult* result);

/// The process high-water mark so far, in MiB. Each workload reads it
/// right after its timed loop, before the output checks allocate.
double PeakRssMb();

/// Adds the end-to-end metrics every workload reports.
void AddEndToEnd(RunResult* result, double op_ms, double setup_s,
                 double peak_rss_mb);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
