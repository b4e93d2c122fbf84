// advise_sdss2000: the paper's scenario 3 at a thousand-query scale. One
// sample is one ILP index suggestion (advisor construction plus
// SuggestWithIlp()) for 2000 Zipf-scaled SDSS queries under an 8 MiB storage
// budget, run serially.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "advisor/index_advisor.h"
#include "common/check.h"
#include "common/metrics.h"
#include "design/design_session.h"
#include "harness.h"
#include "workload/compress.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kQueries = 2000;
constexpr double kBudgetBytes = 8.0 * 1024 * 1024;

parinda::IndexAdvisorOptions AdvisorOptions() {
  parinda::IndexAdvisorOptions options;
  options.storage_budget_bytes = kBudgetBytes;
  options.parallelism = 1;
  return options;
}

/// Registry counts and advice fields of one suggestion, which must repeat
/// exactly from sample to sample.
struct SampleCounts {
  int64_t plans = 0;
  int64_t expanded = 0;
  int64_t pruned = 0;
  int64_t lp_copies = 0;
  int64_t entries_built = 0;
  int estimates = 0;
  int64_t candidates = 0;
  int64_t nnz = 0;
  bool operator==(const SampleCounts&) const = default;
};

struct Sample {
  double op_ms = 0.0;
  double prepare_ms = 0.0;
  double solve_ms = 0.0;
  double finish_ms = 0.0;
  SampleCounts counts;
};

int64_t EntriesBuilt() {
  return parinda::metrics::Registry::Global()
      .histogram("inum.build_entry_seconds")
      .count();
}

void CheckAdvice(const Setup& setup, const parinda::IndexAdvice& advice,
                 RunResult* result) {
  result->Check(advice.total_size_bytes <= kBudgetBytes,
                "suggested indexes exceed the storage budget");
  double size = 0.0;
  for (const parinda::SuggestedIndex& index : advice.indexes) {
    size += index.size_bytes;
  }
  result->Check(std::fabs(size - advice.total_size_bytes) <=
                    1e-9 * std::max(1.0, size),
                "index sizes do not add up to total_size_bytes");
  result->Check(advice.proved_optimal, "the ILP solve is not proved optimal");
  result->Check(!advice.degradation.degraded,
                "the advisor degraded: " + advice.degradation.ToString());

  // The planner, through a DesignSession over all 2000 queries, costs the
  // suggested indexes exactly as the advice reports.
  parinda::DesignSession session(setup.db->catalog(), &setup.workload);
  for (const parinda::SuggestedIndex& index : advice.indexes) {
    result->Check(session.AddIndex(index.def).ok(),
                  "the session rejects suggested index " + index.def.name);
  }
  auto report = session.Evaluate();
  result->Check(report.ok() && report->base_cost == advice.base_cost &&
                    report->optimized_cost == advice.optimized_cost,
                "the planner's cost of the suggested indexes differs from "
                "the advice");

  // The ILP optimum is at least as good as the static greedy packing.
  parinda::IndexAdvisor greedy(setup.db->catalog(), setup.workload,
                               AdvisorOptions());
  auto packed = greedy.SuggestWithStaticGreedy();
  result->Check(packed.ok() && advice.optimized_cost <= packed->optimized_cost,
                "static greedy beats the ILP optimum");
}

}  // namespace

void RunAdviseSdss2000(const Options& options, RunResult* result) {
  SetupSet setups = TimedSetups(kQueries, kSetupRepeats);
  // The input is fixed (SdssScaleConfig seed 42): the branch and bound
  // expands between 54 and 235 nodes depending on the order of the queries
  // alone, so a seeded order would measure that, not the code's speed.
  const Setup& setup = setups.setup;
  const parinda::CatalogReader& catalog = setup.db->catalog();

  auto run_sample = [&](parinda::IndexAdvice* advice) {
    Sample sample;
    const CounterSnapshot before = CounterSnapshot::Take();
    const int64_t entries_before = EntriesBuilt();
    const Clock::time_point t0 = Clock::now();
    parinda::Result<parinda::IndexAdvice> suggested =
        parinda::Status::Internal("not run");
    int64_t candidates = -1;
    {
      parinda::trace::Span span("bench.suggest");
      parinda::IndexAdvisor advisor(catalog, setup.workload, AdvisorOptions());
      suggested = advisor.SuggestWithIlp();
      auto pool = advisor.Candidates();  // the pool Prepare() built
      if (pool.ok()) candidates = static_cast<int64_t>(pool->size());
    }
    sample.op_ms = MsBetween(t0, Clock::now());
    const CounterSnapshot after = CounterSnapshot::Take();
    ++result->attempted;
    if (!suggested.ok()) {
      ++result->failed;
      return sample;
    }
    sample.prepare_ms = PhaseMs(suggested->degradation, "prepare");
    sample.solve_ms = PhaseMs(suggested->degradation, "solve");
    sample.finish_ms = PhaseMs(suggested->degradation, "finish");
    sample.counts = {
        after.Since(before, "planner.plans_built"),
        after.Since(before, "solver.nodes_expanded"),
        after.Since(before, "solver.nodes_pruned"),
        after.Since(before, "solver.lp_copies"),
        EntriesBuilt() - entries_before,
        suggested->inum_estimates,
        candidates,
        parinda::metrics::Registry::Global()
            .gauge("advisor.sparse_nnz")
            .value(),
    };
    if (advice != nullptr) *advice = std::move(*suggested);
    return sample;
  };

  // Warm-up sample, discarded; its advice is the one the checks examine.
  parinda::IndexAdvice advice;
  const SampleCounts first = run_sample(&advice).counts;

  SpanFold fold;
  std::vector<Sample> plain, traced;
  bool counts_repeat = true;
  TimedLoop(options, &fold, result, [&](bool trace_sample) {
    const Sample sample = run_sample(nullptr);
    (trace_sample ? traced : plain).push_back(sample);
    counts_repeat = counts_repeat && sample.counts == first;
  });
  const double peak_rss_mb = PeakRssMb();
  result->Check(counts_repeat,
                "per-sample counts differ between advisor samples");

  CheckAdvice(setup, advice, result);

  auto median_of = [](const std::vector<Sample>& samples,
                      double Sample::*field) {
    std::vector<double> values;
    for (const Sample& s : samples) values.push_back(s.*field);
    return Median(values);
  };
  if (!options.trace) {
    AddEndToEnd(result, median_of(plain, &Sample::op_ms), setups.setup_s,
                peak_rss_mb);
    return;
  }

  const double n = static_cast<double>(traced.size());
  const double solve_ms = median_of(plain, &Sample::solve_ms);
  auto count = [&](const char* name, double value) {
    result->Add(name, value, "count");
  };
  result->Add("storage.build_s", setups.build_s, "s");
  result->Add("parser.bind_ms", setups.bind_ms, "ms");
  count("optimizer.plans_per_op", static_cast<double>(first.plans));
  result->Add("optimizer.plan_self_ms",
              fold.SelfMs("optimizer.plan_query") / n, "ms");
  count("workload.fold_classes",
        parinda::CompressWorkload(catalog, setup.workload).workload.size());
  result->Add("workload.compress_ms", fold.TotalMs("advisor.compress") / n,
              "ms");
  result->Add("advisor.prepare_ms", median_of(plain, &Sample::prepare_ms),
              "ms");
  result->Add("advisor.finish_ms", median_of(plain, &Sample::finish_ms), "ms");
  result->Add("advisor.finish_self_ms", fold.SelfMs("advisor.finish") / n,
              "ms");
  count("advisor.candidates", static_cast<double>(first.candidates));
  count("advisor.sparse_nnz", static_cast<double>(first.nnz));
  count("inum.entries_built", static_cast<double>(first.entries_built));
  count("inum.estimates", first.estimates);
  result->Add("inum.build_self_ms", fold.SelfMs("inum.build_entry") / n, "ms");
  result->Add("advisor.solve_ms", solve_ms, "ms");
  count("solver.nodes_expanded", static_cast<double>(first.expanded));
  count("solver.nodes_pruned", static_cast<double>(first.pruned));
  count("solver.lp_copies", static_cast<double>(first.lp_copies));
  result->Add("solver.ms_per_node",
              first.expanded > 0
                  ? solve_ms / static_cast<double>(first.expanded)
                  : 0.0,
              "ms");
  result->Add("trace.overhead",
              median_of(traced, &Sample::op_ms) /
                  median_of(plain, &Sample::op_ms),
              "ratio");
}

}  // namespace perfbench
