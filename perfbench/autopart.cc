// autopart_sdss: the paper's scenario 2. One sample is one AutoPart
// suggestion (advisor construction plus Suggest()) over the 30 SDSS queries
// with the default search options, run serially.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "autopart/autopart.h"
#include "common/check.h"
#include "executor/executor.h"
#include "harness.h"
#include "parinda/parinda.h"
#include "workload/compress.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 5;

parinda::AutoPartOptions SearchOptions() {
  parinda::AutoPartOptions options;
  options.parallelism = 1;
  return options;
}

/// Registry counts and advice fields of one suggestion, which must repeat
/// exactly from sample to sample.
struct SampleCounts {
  int64_t plans = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int evaluations = 0;
  int iterations = 0;
  bool operator==(const SampleCounts&) const = default;
};

std::vector<std::string> RowStrings(const parinda::ExecResult& result,
                                    int only_column) {
  std::vector<std::string> rows;
  for (const parinda::Row& row : result.rows) {
    std::string text;
    for (size_t c = 0; c < row.size(); ++c) {
      if (only_column >= 0 && static_cast<int>(c) != only_column) continue;
      text += row[c].ToString();
      text += '|';
    }
    rows.push_back(std::move(text));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Output column of the first ORDER BY key, or -1 when the query has no
/// LIMIT (its whole result is compared) or the key is not selected.
int LimitKeyColumn(const parinda::SelectStatement& stmt) {
  if (stmt.limit < 0 || stmt.order_by.empty()) return -1;
  const std::string key = stmt.order_by[0].expr->ToSql();
  for (size_t c = 0; c < stmt.select_list.size(); ++c) {
    const parinda::SelectItem& item = stmt.select_list[c];
    if (item.expr != nullptr && item.expr->ToSql() == key) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

/// Replicated bytes of the suggested fragments, recomputed from the catalog:
/// one primary-key copy per fragment beyond the first, and one copy of each
/// column per fragment beyond the first that holds it.
double RecomputeReplicatedBytes(const parinda::CatalogReader& catalog,
                                const parinda::PartitionAdvice& advice) {
  std::map<parinda::TableId, std::vector<const parinda::FragmentDef*>> by_table;
  for (const parinda::FragmentDef& fragment : advice.fragments) {
    by_table[fragment.table].push_back(&fragment);
  }
  double replicated = 0.0;
  for (const auto& [table_id, fragments] : by_table) {
    const parinda::TableInfo* table = catalog.GetTable(table_id);
    auto bytes = [&](parinda::ColumnId col) {
      return table->StatsFor(col)->avg_width * table->row_count;
    };
    for (parinda::ColumnId pk : table->primary_key) {
      replicated += bytes(pk) * static_cast<double>(fragments.size() - 1);
    }
    std::map<parinda::ColumnId, int> copies;
    for (const parinda::FragmentDef* fragment : fragments) {
      for (parinda::ColumnId col : fragment->columns) ++copies[col];
    }
    for (const auto& [col, count] : copies) {
      replicated += bytes(col) * static_cast<double>(count - 1);
    }
  }
  return replicated;
}

void CheckAdvice(const Setup& setup, Setup* scratch,
                 const parinda::PartitionAdvice& advice, RunResult* result) {
  const parinda::CatalogReader& catalog = setup.db->catalog();
  result->Check(!advice.fragments.empty(), "AutoPart suggested no fragments");
  result->Check(!advice.degradation.degraded,
                "AutoPart degraded: " + advice.degradation.ToString());

  // A fresh session's evaluation of the fragments equals the advice.
  parinda::InteractiveDesign design;
  std::map<parinda::TableId, std::set<parinda::ColumnId>> covered;
  for (size_t k = 0; k < advice.fragments.size(); ++k) {
    const parinda::FragmentDef& fragment = advice.fragments[k];
    const parinda::TableInfo* table = catalog.GetTable(fragment.table);
    design.partitions.push_back(
        {table->name + "_part" + std::to_string(k), fragment.table,
         fragment.columns});
    covered[fragment.table].insert(table->primary_key.begin(),
                                   table->primary_key.end());
    covered[fragment.table].insert(fragment.columns.begin(),
                                   fragment.columns.end());
  }
  parinda::Parinda tool(setup.db.get());
  auto fresh = tool.EvaluateDesign(setup.workload, design);
  result->Check(fresh.ok() && fresh->optimized_cost == advice.optimized_cost &&
                    fresh->base_cost == advice.base_cost,
                "a fresh session's cost of the suggested fragments differs "
                "from the advice");

  // Every column of a partitioned table lives in some fragment.
  for (const auto& [table_id, columns] : covered) {
    const parinda::TableInfo* table = catalog.GetTable(table_id);
    result->Check(static_cast<int>(columns.size()) ==
                      table->schema.num_columns(),
                  "fragments of " + table->name + " lose a column");
  }

  // Replicated bytes match a recomputation and stay within the limit.
  const double replicated = RecomputeReplicatedBytes(catalog, advice);
  result->Check(std::fabs(replicated - advice.replicated_bytes) <=
                    1e-9 * std::max(1.0, replicated),
                "replicated bytes " + std::to_string(advice.replicated_bytes) +
                    " differ from the recomputed " +
                    std::to_string(replicated));
  result->Check(advice.replicated_bytes <=
                    SearchOptions().replication_limit_bytes,
                "replicated bytes exceed the limit");

  // On a separate database, the rewritten queries over the materialized
  // fragments return the original queries' rows.
  parinda::Parinda scratch_tool(scratch->db.get());
  result->Check(scratch_tool.MaterializePartitions(advice).ok(),
                "MaterializePartitions failed");
  result->Check(advice.rewritten_sql.size() == scratch->workload.queries.size(),
                "one rewritten query per workload query");
  for (size_t q = 0; q < advice.rewritten_sql.size() &&
                     q < scratch->workload.queries.size();
       ++q) {
    const parinda::WorkloadQuery& query = scratch->workload.queries[q];
    auto original = parinda::ExecuteSql(*scratch->db, query.sql);
    auto rewritten = parinda::ExecuteSql(*scratch->db, advice.rewritten_sql[q]);
    const std::string where = "query " + std::to_string(q + 1);
    result->Check(original.ok() && rewritten.ok(), where + " failed to run");
    if (!original.ok() || !rewritten.ok()) continue;
    const int key = LimitKeyColumn(query.stmt);
    result->Check(RowStrings(*original, key) == RowStrings(*rewritten, key),
                  where + ": rewritten query returns other rows: " +
                      advice.rewritten_sql[q]);
  }
}

}  // namespace

void RunAutopartSdss(const Options& options, RunResult* result) {
  SetupSet setups = TimedSetups(/*scaled_queries=*/0, kSetupRepeats);
  // The seed orders the queries; the search does nearly the same work in
  // any order (3074 evaluations; 1564 or 1565 plans).
  ShuffleQueries(&setups.setup.workload, options.seed);
  const Setup& setup = setups.setup;
  const parinda::CatalogReader& catalog = setup.db->catalog();

  struct Sample {
    double op_ms = 0.0;
    double search_ms = 0.0;
    SampleCounts counts;
  };
  auto run_sample = [&](parinda::PartitionAdvice* advice) {
    Sample sample;
    const CounterSnapshot before = CounterSnapshot::Take();
    const Clock::time_point t0 = Clock::now();
    parinda::Result<parinda::PartitionAdvice> suggested =
        parinda::Status::Internal("not run");
    {
      parinda::trace::Span span("bench.suggest");
      parinda::AutoPartAdvisor advisor(catalog, setup.workload,
                                       SearchOptions());
      suggested = advisor.Suggest();
    }
    sample.op_ms = MsBetween(t0, Clock::now());
    const CounterSnapshot after = CounterSnapshot::Take();
    ++result->attempted;
    if (!suggested.ok()) {
      ++result->failed;
      return sample;
    }
    sample.search_ms = PhaseMs(suggested->degradation, "search");
    sample.counts = {after.Since(before, "planner.plans_built"),
                     after.Since(before, "engine.cache_hits"),
                     after.Since(before, "engine.cache_misses"),
                     suggested->evaluations, suggested->iterations_run};
    if (advice != nullptr) *advice = std::move(*suggested);
    return sample;
  };

  // Warm-up sample, discarded; its advice is the one the checks examine
  // (every sample computes the same advice, as the counts show).
  parinda::PartitionAdvice advice;
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
                "per-sample counts differ between AutoPart samples");

  // The second database that the fragments are materialized on.
  Setup scratch = BuildSetup(/*scaled_queries=*/0);
  ShuffleQueries(&scratch.workload, options.seed);
  CheckAdvice(setup, &scratch, advice, result);

  auto op_ms = [](const std::vector<Sample>& samples) {
    std::vector<double> values;
    for (const Sample& s : samples) values.push_back(s.op_ms);
    return Median(values);
  };
  if (!options.trace) {
    AddEndToEnd(result, op_ms(plain), setups.setup_s, peak_rss_mb);
    return;
  }

  // One governed suggestion, untimed, to size the engine's cost cache.
  parinda::AutoPartOptions governed = SearchOptions();
  governed.memory_budget_bytes = std::numeric_limits<int64_t>::max() / 4;
  parinda::AutoPartAdvisor sized(catalog, setup.workload, governed);
  auto sized_advice = sized.Suggest();
  result->Check(sized_advice.ok() &&
                    sized_advice->optimized_cost == advice.optimized_cost,
                "a budgeted AutoPart run changed the advice");
  const double cache_mb =
      sized.governor() != nullptr
          ? static_cast<double>(sized.governor()->stats().tracked_bytes) /
                (1024.0 * 1024.0)
          : 0.0;

  std::vector<double> search_ms;
  for (const Sample& s : plain) search_ms.push_back(s.search_ms);
  const double n = static_cast<double>(traced.size());
  const double lookups = static_cast<double>(first.hits + first.misses);
  result->Add("storage.build_s", setups.build_s, "s");
  result->Add("parser.bind_ms", setups.bind_ms, "ms");
  result->Add("optimizer.plans_per_op", static_cast<double>(first.plans),
              "count");
  result->Add("optimizer.plan_self_ms",
              fold.SelfMs("optimizer.plan_query") / n, "ms");
  result->Add("engine.lookups_per_op", lookups, "count");
  result->Add("engine.hit_ratio", static_cast<double>(first.hits) / lookups,
              "ratio");
  result->Add("engine.cache_mb", cache_mb, "MB");
  result->Add("autopart.evaluations", first.evaluations, "count");
  result->Add("autopart.iterations", first.iterations, "count");
  result->Add("autopart.search_ms", Median(search_ms), "ms");
  result->Add("autopart.search_self_ms", fold.SelfMs("autopart.search") / n,
              "ms");
  result->Add(
      "workload.fold_classes",
      parinda::CompressWorkload(catalog, setup.workload).workload.size(),
      "count");
  result->Add("workload.compress_ms", fold.TotalMs("autopart.compress") / n,
              "ms");
  result->Add("trace.overhead", op_ms(traced) / op_ms(plain), "ratio");
}

}  // namespace perfbench
