#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/memsize.h"
#include "common/metrics.h"
#include "common/random.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void RunResult::Print() const {
  for (const std::string& failure : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                metrics_[i].second.first, metrics_[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Setup BuildSetup(int scaled_queries) {
  Setup setup;
  setup.db = std::make_unique<parinda::Database>();
  parinda::SdssConfig config;
  config.photoobj_rows = 20000;
  const Clock::time_point t0 = Clock::now();
  PARINDA_CHECK_OK(parinda::BuildSdssDatabase(setup.db.get(), config));
  const Clock::time_point t1 = Clock::now();
  if (scaled_queries > 0) {
    parinda::SdssScaleConfig scale;
    scale.num_queries = scaled_queries;
    auto workload =
        parinda::MakeScaledSdssWorkload(setup.db->catalog(), scale);
    PARINDA_CHECK_OK(workload);
    setup.workload = std::move(*workload);
  } else {
    auto workload = parinda::MakeSdssWorkload(setup.db->catalog());
    PARINDA_CHECK_OK(workload);
    setup.workload = std::move(*workload);
  }
  const Clock::time_point t2 = Clock::now();
  setup.build_s = MsBetween(t0, t1) / 1000.0;
  setup.bind_ms = MsBetween(t1, t2);
  return setup;
}

void ShuffleQueries(parinda::Workload* workload, uint64_t seed) {
  parinda::Random rng(seed);
  std::vector<parinda::WorkloadQuery>& queries = workload->queries;
  for (int i = static_cast<int>(queries.size()) - 1; i > 0; --i) {
    std::swap(queries[static_cast<size_t>(i)],
              queries[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
}

SetupSet TimedSetups(int scaled_queries, int repeats) {
  SetupSet out;
  std::vector<double> total_s, build_s, bind_ms;
  for (int i = 0; i < repeats; ++i) {
    out.setup = Setup();  // frees the previous repeat before the next build
    out.setup = BuildSetup(scaled_queries);
    total_s.push_back(out.setup.build_s + out.setup.bind_ms / 1000.0);
    build_s.push_back(out.setup.build_s);
    bind_ms.push_back(out.setup.bind_ms);
  }
  out.setup_s = Median(total_s);
  out.build_s = Median(build_s);
  out.bind_ms = Median(bind_ms);
  return out;
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snapshot;
  for (const auto& counter :
       parinda::metrics::Registry::Global().Snapshot().counters) {
    snapshot.values_[counter.name] = counter.value;
  }
  return snapshot;
}

int64_t CounterSnapshot::Since(const CounterSnapshot& before,
                               const std::string& name) const {
  auto now = values_.find(name);
  auto then = before.values_.find(name);
  return (now == values_.end() ? 0 : now->second) -
         (then == before.values_.end() ? 0 : then->second);
}

void SpanFold::Begin() { parinda::trace::Start(kTraceRing); }

bool SpanFold::End() {
  parinda::trace::Stop();
  const int64_t dropped = parinda::trace::dropped();
  // Snapshot() is ordered by start time; a span that starts no earlier and
  // ends no later than the innermost open span on its thread is its child.
  const std::vector<parinda::trace::TraceEvent> events =
      parinda::trace::Snapshot();
  struct Open {
    double end_us;
    size_t event;
    double child_us;
  };
  std::map<int, std::vector<Open>> stacks;
  auto close = [&](const Open& open) {
    const parinda::trace::TraceEvent& e = events[open.event];
    self_us_[e.name] += e.dur_us - open.child_us;
    total_us_[e.name] += e.dur_us;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    const parinda::trace::TraceEvent& e = events[i];
    std::vector<Open>& stack = stacks[e.tid];
    while (!stack.empty() && stack.back().end_us <= e.ts_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += e.dur_us;
    stack.push_back({e.ts_us + e.dur_us, i, 0.0});
  }
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return dropped == 0;
}

double SpanFold::SelfMs(const std::string& name) const {
  auto it = self_us_.find(name);
  return it == self_us_.end() ? 0.0 : it->second / 1000.0;
}

double SpanFold::TotalMs(const std::string& name) const {
  auto it = total_us_.find(name);
  return it == total_us_.end() ? 0.0 : it->second / 1000.0;
}

double PhaseMs(const parinda::DegradationReport& report,
               const std::string& phase) {
  double seconds = 0.0;
  for (const auto& [name, s] : report.phase_seconds) {
    if (name == phase) seconds += s;
  }
  return seconds * 1000.0;
}

double PeakRssMb() {
  return static_cast<double>(parinda::PeakRssBytes()) / (1024.0 * 1024.0);
}

void AddEndToEnd(RunResult* result, double op_ms, double setup_s,
                 double peak_rss_mb) {
  result->Add("op_ms", op_ms, "ms");
  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
}

}  // namespace perfbench
