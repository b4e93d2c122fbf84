// interactive_sdss: the paper's scenario 1 loop. A DesignSession over the 30
// SDSS queries replays the seeded delta script; every delta is one user
// operation (the Add* or Drop call plus the Evaluate() that re-costs the
// workload). One sample is one pass of the script on a fresh session, so
// every sample does identical work.
#include <cmath>
#include <cstdint>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "common/check.h"
#include "delta_script.h"
#include "harness.h"
#include "parinda/parinda.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 5;

/// Registry counts of one pass, which must repeat exactly from pass to pass.
struct PassCounts {
  int64_t plans = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;
  bool operator==(const PassCounts&) const = default;
};

struct PassTimes {
  std::vector<double> delta_ms;
  std::vector<double> eval_ms;
  std::vector<double> op_ms;
  double mean_op_ms = 0.0;
};

class Passes {
 public:
  Passes(const Setup& setup, const std::vector<Delta>& script)
      : setup_(setup), script_(script), ids_(script.size(), 0) {}

  /// Replays the script once on a fresh session. Returns the operations
  /// that failed.
  int64_t Run(PassTimes* times, PassCounts* counts,
              parinda::DesignSessionOptions session_options = {},
              int64_t* cache_bytes = nullptr) {
    parinda::DesignSession session(setup_.db->catalog(), &setup_.workload,
                                   session_options);
    int64_t failed = session.Evaluate().ok() ? 0 : 1;
    const CounterSnapshot before = CounterSnapshot::Take();
    double sum_ms = 0.0;
    for (size_t i = 0; i < script_.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      parinda::Status applied;
      {
        parinda::trace::Span span("bench.delta");
        applied = ApplyDelta(&session, script_[i], static_cast<int>(i), &ids_);
      }
      const Clock::time_point t1 = Clock::now();
      bool evaluated = false;
      {
        parinda::trace::Span span("bench.evaluate");
        evaluated = session.Evaluate().ok();
      }
      const Clock::time_point t2 = Clock::now();
      if (!applied.ok() || !evaluated) ++failed;
      times->delta_ms.push_back(MsBetween(t0, t1));
      times->eval_ms.push_back(MsBetween(t1, t2));
      times->op_ms.push_back(MsBetween(t0, t2));
      sum_ms += times->op_ms.back();
    }
    const CounterSnapshot after = CounterSnapshot::Take();
    counts->plans = after.Since(before, "planner.plans_built");
    counts->hits = after.Since(before, "engine.cache_hits");
    counts->misses = after.Since(before, "engine.cache_misses");
    counts->invalidations = after.Since(before, "design.invalidations");
    times->mean_op_ms = sum_ms / static_cast<double>(script_.size());
    if (cache_bytes != nullptr && session.governor() != nullptr) {
      *cache_bytes = session.governor()->stats().tracked_bytes;
    }
    return failed;
  }

 private:
  const Setup& setup_;
  const std::vector<Delta>& script_;
  std::vector<parinda::OverlayId> ids_;
};

/// A plan's text without its cost figures and object ids, so a what-if plan
/// and a materialized plan of the same shape compare equal.
std::string PlanShape(const std::string& plan) {
  static const std::regex kCost("cost=[0-9.]+\\.\\.[0-9.]+");
  static const std::regex kId("#[0-9]+");
  return std::regex_replace(std::regex_replace(plan, kCost, "cost"), kId, "#");
}

/// The scenario 1 verification step, on the last base-table index the
/// script adds: the what-if plan of a query on its table against the plan
/// once the index is really built. The plans must have the same shape, and
/// the simulated index size and plan cost must lie within the accuracy the
/// test suite holds the simulation to (size within 25%, cost within 30%);
/// the Equation 1 size is an estimate, so the costs need not be equal.
void CheckIndexSimulation(const Setup& setup, const std::vector<Delta>& script,
                          RunResult* result) {
  const Delta* probe = nullptr;
  for (const Delta& delta : script) {
    if (delta.kind == Delta::Kind::kAddIndex &&
        delta.index.table < parinda::kWhatIfTableIdBase) {
      probe = &delta;
    }
  }
  PARINDA_CHECK(probe != nullptr);
  const parinda::WorkloadQuery* query = nullptr;
  for (const parinda::WorkloadQuery& q : setup.workload.queries) {
    for (const parinda::TableRef& ref : q.stmt.from) {
      if (ref.bound_table == probe->index.table && query == nullptr) query = &q;
    }
  }
  PARINDA_CHECK(query != nullptr);
  parinda::Parinda tool(setup.db.get());
  auto report = tool.VerifyIndexSimulation(query->sql, probe->index);
  result->Check(report.ok(), "VerifyIndexSimulation failed");
  if (!report.ok()) return;
  const std::string what = " for index " + probe->index.name + " on: " +
                           query->sql + "\n" + report->whatif_plan +
                           "\nvs\n" + report->materialized_plan;
  result->Check(PlanShape(report->whatif_plan) ==
                    PlanShape(report->materialized_plan),
                "what-if and materialized plans differ" + what);
  result->Check(report->size_error_fraction <= 0.25 &&
                    report->cost_error_fraction <= 0.30,
                "what-if size or cost off by more than 25% / 30%" + what);
}

}  // namespace

void RunInteractiveSdss(const Options& options, RunResult* result) {
  SetupSet setups = TimedSetups(/*scaled_queries=*/0, kSetupRepeats);
  const Setup& setup = setups.setup;
  const DeltaScript generated =
      MakeDeltaScript(setup.db.get(), setup.workload, options.seed, result);
  const std::vector<Delta>& script = generated.deltas;
  Passes passes(setup, script);

  // Warm-up pass, discarded; every later pass must repeat its counts.
  PassCounts first;
  {
    PassTimes times;
    result->failed += passes.Run(&times, &first);
    result->attempted += static_cast<int64_t>(script.size());
  }

  SpanFold fold;
  PassTimes plain, traced;
  std::vector<double> plain_means, traced_means;
  bool counts_repeat = true;
  TimedLoop(options, &fold, result, [&](bool trace_pass) {
    PassTimes& times = trace_pass ? traced : plain;
    PassCounts counts;
    result->failed += passes.Run(&times, &counts);
    (trace_pass ? traced_means : plain_means).push_back(times.mean_op_ms);
    result->attempted += static_cast<int64_t>(script.size());
    counts_repeat = counts_repeat && counts == first;
  });
  const double peak_rss_mb = PeakRssMb();
  result->Check(counts_repeat,
                "per-pass registry counts differ between passes");

  CheckStatelessProbes(setup.db.get(), setup.workload, generated.probes,
                       result);
  CheckIndexSimulation(setup, script, result);

  if (!options.trace) {
    AddEndToEnd(result, Median(plain_means), setups.setup_s, peak_rss_mb);
    return;
  }

  // One governed pass, untimed: the session's cost cache is only sized
  // under a memory budget, and one far above the cache never evicts.
  parinda::DesignSessionOptions governed;
  governed.memory_budget_bytes = std::numeric_limits<int64_t>::max() / 4;
  int64_t cache_bytes = 0;
  {
    PassTimes times;
    PassCounts counts;
    result->failed += passes.Run(&times, &counts, governed, &cache_bytes);
    result->attempted += static_cast<int64_t>(script.size());
    result->Check(counts.plans == first.plans,
                  "a budgeted pass re-planned a different number of queries");
  }

  const double ops = static_cast<double>(script.size());
  const double traced_ops = ops * static_cast<double>(traced_means.size());
  const double lookups = static_cast<double>(first.hits + first.misses);
  result->Add("storage.build_s", setups.build_s, "s");
  result->Add("parser.bind_ms", setups.bind_ms, "ms");
  result->Add("design.delta_ms", Median(plain.delta_ms), "ms");
  result->Add("design.evaluate_ms", Median(plain.eval_ms), "ms");
  result->Add("design.op_ms_p99", Quantile(plain.op_ms, 0.99), "ms");
  result->Add("design.invalidated_per_op",
              static_cast<double>(first.invalidations) / ops, "count");
  result->Add("optimizer.plans_per_op", static_cast<double>(first.plans) / ops,
              "count");
  result->Add("optimizer.plan_self_ms",
              fold.SelfMs("optimizer.plan_query") / traced_ops, "ms");
  result->Add("engine.lookups_per_op", lookups / ops, "count");
  result->Add("engine.hit_ratio", static_cast<double>(first.hits) / lookups,
              "ratio");
  result->Add("engine.cache_mb",
              static_cast<double>(cache_bytes) / (1024.0 * 1024.0), "MB");
  result->Add("trace.overhead", Median(traced_means) / Median(plain_means),
              "ratio");
}

}  // namespace perfbench
