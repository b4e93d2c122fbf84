// E10 — large-workload scaling (DESIGN.md §15). Expands the 30 SDSS
// templates into thousand-query workloads, sweeps workload compression as
// an ablation arm (every arm must produce the bit-identical advice), and
// measures the warm dual-simplex branch and bound on a synthetic knapsack
// (E10c) and on the 2000-query ILP advice over five query orders (E10d).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "advisor/index_advisor.h"
#include "autopart/autopart.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/random.h"
#include "solver/bnb.h"
#include "workload/compress.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Workload ScaledWorkload(const Database& db, int num_queries) {
  SdssScaleConfig config;
  config.num_queries = num_queries;
  auto workload = MakeScaledSdssWorkload(db.catalog(), config);
  PARINDA_CHECK_OK(workload);
  return std::move(*workload);
}

/// One pipeline run: index advice (static greedy over the benefit matrix)
/// plus partition advice, with workload compression on or off.
struct PipelineResult {
  double wall_ms = 0.0;
  IndexAdvice indexes;
  PartitionAdvice partitions;
};

PipelineResult RunPipeline(const Database& db, const Workload& workload,
                           bool compress) {
  PipelineResult out;
  const auto start = std::chrono::steady_clock::now();
  IndexAdvisorOptions advisor_options;
  advisor_options.compress = compress;
  IndexAdvisor advisor(db.catalog(), workload, advisor_options);
  auto index_advice = advisor.SuggestWithStaticGreedy();
  PARINDA_CHECK_OK(index_advice);
  out.indexes = std::move(*index_advice);

  AutoPartOptions autopart_options;
  autopart_options.compress = compress;
  autopart_options.max_iterations = 1;
  autopart_options.max_candidates_per_iteration = 16;
  AutoPartAdvisor autopart(db.catalog(), workload, autopart_options);
  auto partition_advice = autopart.Suggest();
  PARINDA_CHECK_OK(partition_advice);
  out.partitions = std::move(*partition_advice);
  out.wall_ms = WallMs(start);
  return out;
}

/// Bitwise advice identity across two pipeline runs: same indexes (defs and
/// reported doubles), same fragments, same totals.
bool SameAdvice(const PipelineResult& a, const PipelineResult& b) {
  if (a.indexes.indexes.size() != b.indexes.indexes.size()) return false;
  for (size_t i = 0; i < a.indexes.indexes.size(); ++i) {
    const SuggestedIndex& x = a.indexes.indexes[i];
    const SuggestedIndex& y = b.indexes.indexes[i];
    if (x.def.table != y.def.table || x.def.columns != y.def.columns ||
        x.benefit != y.benefit || x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  if (a.indexes.base_cost != b.indexes.base_cost ||
      a.indexes.optimized_cost != b.indexes.optimized_cost) {
    return false;
  }
  if (a.partitions.fragments.size() != b.partitions.fragments.size()) {
    return false;
  }
  for (size_t i = 0; i < a.partitions.fragments.size(); ++i) {
    if (a.partitions.fragments[i].table != b.partitions.fragments[i].table ||
        a.partitions.fragments[i].columns !=
            b.partitions.fragments[i].columns) {
      return false;
    }
  }
  return a.partitions.base_cost == b.partitions.base_cost &&
         a.partitions.optimized_cost == b.partitions.optimized_cost;
}

void RunSizeSweep() {
  Database* db = bench_util::SharedSdss(20000);
  bench_util::PrintHeader(
      "E10a: workload size sweep, full scaling pipeline");
  std::printf("%-8s %10s %10s %12s %12s\n", "queries", "distinct", "ratio",
              "sparse nnz", "wall (ms)");
  for (const int n : {500, 1000, 2000}) {
    const Workload workload = ScaledWorkload(*db, n);
    const CompressedWorkload compressed =
        CompressWorkload(db->catalog(), workload);
    const PipelineResult full = RunPipeline(*db, workload, true);
    const int64_t nnz =
        metrics::Registry::Global().gauge("advisor.sparse_nnz").value();
    std::printf("%-8d %10d %9.1fx %12lld %12.1f\n", n,
                compressed.workload.size(), compressed.ratio(),
                static_cast<long long>(nnz), full.wall_ms);
    const std::string prefix = "e10a." + std::to_string(n);
    bench_util::RecordMetric(prefix + ".distinct", compressed.workload.size());
    bench_util::RecordMetric(prefix + ".compression_ratio",
                             compressed.ratio());
    bench_util::RecordMetric(prefix + ".sparse_nnz",
                             static_cast<double>(nnz));
    bench_util::RecordMetric(prefix + ".wall_ms", full.wall_ms);
  }
}

void RunAblation() {
  Database* db = bench_util::SharedSdss(20000);
  const int kQueries = 2000;
  const Workload workload = ScaledWorkload(*db, kQueries);
  bench_util::PrintHeader(
      "E10b ablation: 2000-query pipeline, compression on vs off");
  const PipelineResult full = RunPipeline(*db, workload, true);
  const PipelineResult off = RunPipeline(*db, workload, false);
  PARINDA_CHECK(SameAdvice(full, off));
  const double full_ms = full.wall_ms;
  const double off_ms = off.wall_ms;
  std::printf("%-14s %12s %10s\n", "arm", "wall (ms)", "speedup");
  std::printf("%-14s %12.1f %9.2fx\n", "full", full_ms, 1.0);
  std::printf("%-14s %12.1f %9.2fx\n", "all-off", off_ms, off_ms / full_ms);
  std::printf("full pipeline vs all-off: %.2fx faster, advice identical\n",
              off_ms / full_ms);
  bench_util::RecordMetric("e10b.queries", kQueries);
  bench_util::RecordMetric("e10b.full_ms", full_ms);
  bench_util::RecordMetric("e10b.all_off_ms", off_ms);
  bench_util::RecordMetric("e10b.speedup", off_ms / full_ms);
  bench_util::RecordMetric("e10b.advice_identical", 1.0);
}

/// A deterministic multi-constraint knapsack whose LP relaxation is
/// fractional at many nodes — the advisor's real ILPs usually solve at the
/// root, so the solver comparison needs an instance with an actual tree.
BinaryMip MakeHardKnapsack(int n) {
  BinaryMip mip;
  mip.lp.objective.resize(static_cast<size_t>(n));
  LinearProgram::Constraint budget;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    // Coprime-ish value/weight patterns keep benefit-per-byte ties rare and
    // the relaxation fractional.
    const double value = 7.0 + static_cast<double>((i * 37) % 23);
    const double weight = 5.0 + static_cast<double>((i * 53) % 29);
    mip.lp.objective[static_cast<size_t>(i)] = value;
    budget.terms.push_back({i, weight});
    total_weight += weight;
  }
  budget.rhs = total_weight / 3.0;
  mip.lp.AddConstraint(std::move(budget));
  // Overlapping cardinality windows: at most 3 of any 7 consecutive items.
  for (int i = 0; i + 7 <= n; i += 4) {
    LinearProgram::Constraint window;
    for (int j = i; j < i + 7; ++j) window.terms.push_back({j, 1.0});
    window.rhs = 3.0;
    mip.lp.AddConstraint(std::move(window));
  }
  return mip;
}

/// Per-call deltas of the solver's deterministic counters.
struct SolverCounts {
  int64_t lp_copies = 0;
  int64_t pivots = 0;
  int64_t refactorizations = 0;

  static SolverCounts Now() {
    metrics::Registry& registry = metrics::Registry::Global();
    return {registry.counter("solver.lp_copies").value(),
            registry.counter("solver.dual_pivots").value(),
            registry.counter("solver.refactorizations").value()};
  }
  SolverCounts Since(const SolverCounts& before) const {
    return {lp_copies - before.lp_copies, pivots - before.pivots,
            refactorizations - before.refactorizations};
  }
};

void RunSolverAblation() {
  // E10c — the warm dual-simplex branch and bound on a synthetic instance
  // with a real tree: one LP copy, bound rewrites and dual pivots per node.
  bench_util::PrintHeader(
      "E10c: warm dual-simplex branch and bound, hard knapsack n = 40");
  const BinaryMip mip = MakeHardKnapsack(40);
  const SolverCounts before = SolverCounts::Now();
  const auto start = std::chrono::steady_clock::now();
  auto solution = SolveBinaryMip(mip);
  const double wall_ms = WallMs(start);
  const SolverCounts counts = SolverCounts::Now().Since(before);
  PARINDA_CHECK_OK(solution);
  PARINDA_CHECK(solution->proved_optimal);
  std::printf("%12s %10s %10s %10s %10s %10s\n", "wall (ms)", "LP copies",
              "explored", "pruned", "pivots", "refactors");
  std::printf("%12.2f %10lld %10d %10d %10lld %10lld\n", wall_ms,
              static_cast<long long>(counts.lp_copies),
              solution->nodes_explored, solution->nodes_pruned,
              static_cast<long long>(counts.pivots),
              static_cast<long long>(counts.refactorizations));
  bench_util::RecordMetric("e10c.incremental_ms", wall_ms);
  bench_util::RecordMetric("e10c.incremental_lp_copies",
                           static_cast<double>(counts.lp_copies));
  bench_util::RecordMetric("e10c.incremental_nodes",
                           solution->nodes_explored);
  bench_util::RecordMetric("e10c.dual_pivots",
                           static_cast<double>(counts.pivots));
  bench_util::RecordMetric("e10c.refactorizations",
                           static_cast<double>(counts.refactorizations));
}

void RunIlpOrders() {
  // E10d — ILP index advice for 2000 queries under 8 MiB, over five seeded
  // orders of the same queries: the advice must not depend on the order,
  // and the solve should not either.
  Database* db = bench_util::SharedSdss(20000);
  bench_util::PrintHeader(
      "E10d: SuggestWithIlp, 2000 queries, 8 MiB, five query orders");
  std::printf("%-6s %12s %8s %10s %10s %8s %8s\n", "order", "solve (ms)",
              "nodes", "pivots", "refactors", "indexes", "optimal");
  std::vector<double> solve_ms;
  int nodes_min = 0;
  int nodes_max = 0;
  int64_t pivots_max = 0;
  int64_t refactorizations = 0;
  bool all_optimal = true;
  bool same_set = true;
  std::set<std::string> first_set;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Workload workload = ScaledWorkload(*db, 2000);
    Random rng(seed);
    for (int i = workload.size() - 1; i > 0; --i) {
      std::swap(workload.queries[static_cast<size_t>(i)],
                workload.queries[static_cast<size_t>(rng.UniformInt(0, i))]);
    }
    IndexAdvisorOptions options;
    options.storage_budget_bytes = 8.0 * 1024 * 1024;
    options.parallelism = 1;
    IndexAdvisor advisor(db->catalog(), workload, options);
    const int64_t nodes_before =
        metrics::Registry::Global().counter("solver.nodes_expanded").value();
    const SolverCounts before = SolverCounts::Now();
    auto advice = advisor.SuggestWithIlp();
    PARINDA_CHECK_OK(advice);
    const SolverCounts counts = SolverCounts::Now().Since(before);
    const int nodes = static_cast<int>(
        metrics::Registry::Global().counter("solver.nodes_expanded").value() -
        nodes_before);
    double ms = 0.0;
    for (const auto& [phase, seconds] : advice->degradation.phase_seconds) {
      if (phase == "solve") ms += seconds * 1000.0;
    }
    std::set<std::string> names;
    for (const SuggestedIndex& index : advice->indexes) {
      names.insert(index.def.name);
    }
    if (seed == 1) {
      first_set = names;
      nodes_min = nodes_max = nodes;
    }
    same_set = same_set && names == first_set;
    all_optimal = all_optimal && advice->proved_optimal &&
                  !advice->degradation.degraded;
    solve_ms.push_back(ms);
    nodes_min = std::min(nodes_min, nodes);
    nodes_max = std::max(nodes_max, nodes);
    pivots_max = std::max(pivots_max, counts.pivots);
    refactorizations += counts.refactorizations;
    std::printf("%-6llu %12.1f %8d %10lld %10lld %8zu %8s\n",
                static_cast<unsigned long long>(seed), ms, nodes,
                static_cast<long long>(counts.pivots),
                static_cast<long long>(counts.refactorizations),
                advice->indexes.size(),
                advice->proved_optimal ? "yes" : "no");
  }
  std::sort(solve_ms.begin(), solve_ms.end());
  bench_util::RecordMetric("e10d.solve_ms_median", solve_ms[2]);
  bench_util::RecordMetric("e10d.solve_ms_max", solve_ms.back());
  bench_util::RecordMetric("e10d.nodes_min", nodes_min);
  bench_util::RecordMetric("e10d.nodes_max", nodes_max);
  bench_util::RecordMetric("e10d.dual_pivots_max",
                           static_cast<double>(pivots_max));
  bench_util::RecordMetric("e10d.refactorizations",
                           static_cast<double>(refactorizations));
  bench_util::RecordMetric("e10d.all_proved_optimal", all_optimal ? 1.0 : 0.0);
  bench_util::RecordMetric("e10d.same_index_set", same_set ? 1.0 : 0.0);
}

void BM_ScaledPipeline(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  const Workload workload =
      ScaledWorkload(*db, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PipelineResult result = RunPipeline(*db, workload, true);
    benchmark::DoNotOptimize(result.indexes.optimized_cost);
  }
}
BENCHMARK(BM_ScaledPipeline)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parinda

int main(int argc, char** argv) {
  parinda::bench_util::InitFlags(&argc, argv);
  parinda::RunSizeSweep();
  parinda::RunAblation();
  parinda::RunSolverAblation();
  parinda::RunIlpOrders();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  parinda::bench_util::WriteJsonIfEnabled("bench_scale");
  parinda::bench_util::WriteTraceIfEnabled("bench_scale");
  return 0;
}
