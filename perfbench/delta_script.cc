#include "delta_script.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/check.h"
#include "common/random.h"
#include "parinda/parinda.h"

namespace perfbench {

namespace {

using parinda::ColumnId;
using parinda::TableId;
using parinda::TableInfo;

int QueriesTouching(const parinda::Workload& workload, TableId table) {
  int count = 0;
  for (const parinda::WorkloadQuery& query : workload.queries) {
    for (const parinda::TableRef& ref : query.stmt.from) {
      if (ref.bound_table == table) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// Uniform integer in [lo, hi].
int Pick(parinda::Random* rng, int lo, int hi) {
  return static_cast<int>(rng->UniformInt(lo, hi));
}

/// `count` distinct ascending picks from [lo, hi].
std::vector<ColumnId> PickColumns(parinda::Random* rng, int lo, int hi,
                                  int count) {
  std::vector<ColumnId> pool;
  for (int c = lo; c <= hi; ++c) pool.push_back(c);
  std::vector<ColumnId> out;
  for (int k = 0; k < count && !pool.empty(); ++k) {
    const int at = Pick(rng, 0, static_cast<int>(pool.size()) - 1);
    out.push_back(pool[static_cast<size_t>(at)]);
    pool.erase(pool.begin() + at);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameReport(const parinda::InteractiveReport& a,
                const parinda::InteractiveReport& b) {
  return SameBits(a.base_cost, b.base_cost) &&
         SameBits(a.optimized_cost, b.optimized_cost) &&
         SameBits(a.per_query_base, b.per_query_base) &&
         SameBits(a.per_query_optimized, b.per_query_optimized) &&
         SameBits(a.per_query_benefit_pct, b.per_query_benefit_pct) &&
         SameBits(a.average_benefit_pct, b.average_benefit_pct) &&
         a.rewritten_sql == b.rewritten_sql;
}

/// Builds the script while replaying it on a validation session.
class Generator {
 public:
  Generator(parinda::Database* db, const parinda::Workload& workload,
            uint64_t seed, RunResult* result)
      : db_(db),
        workload_(workload),
        rng_(seed),
        result_(result),
        session_(db->catalog(), &workload) {
    for (const char* name :
         {"photoobj", "specobj", "field", "neighbors", "photoprofile"}) {
      const TableInfo* table = db->catalog().FindTable(name);
      PARINDA_CHECK(table != nullptr);
      tables_.push_back(table);
    }
    result_->Check(session_.Evaluate().ok(), "script: initial Evaluate");
  }

  DeltaScript Run() {
    for (int r = 0; r < kRounds; ++r) Round(r);
    return {std::move(script_), std::move(probes_)};
  }

 private:
  const TableInfo* Table(int k) const {
    return tables_[static_cast<size_t>(k % 5)];
  }

  parinda::WhatIfIndexDef IndexOn(const TableInfo* table, int min_cols,
                                  int max_cols, const std::string& name) {
    parinda::WhatIfIndexDef def;
    def.name = name;
    def.table = table->id;
    def.columns = PickColumns(&rng_, 0, table->schema.num_columns() - 1,
                              Pick(&rng_, min_cols, max_cols));
    return def;
  }

  int AddIndex(parinda::WhatIfIndexDef def, TableId base) {
    Delta delta;
    delta.kind = Delta::Kind::kAddIndex;
    delta.index = std::move(def);
    delta.max_planner_calls = QueriesTouching(workload_, base);
    return Push(std::move(delta));
  }

  void Round(int r) {
    const std::string tag = "r" + std::to_string(r) + "_";
    const TableInfo* a = Table(r);
    const TableInfo* b = Table(r + 2);
    const TableInfo* c = Table(r + 4);
    const TableInfo* photoobj = tables_[0];
    const TableInfo* vertical = tables_[r % 2 == 0 ? 0 : 1];
    const TableInfo* ranged = tables_[static_cast<size_t>(2 + r % 3)];
    const bool toggle = r % 4 == 0;

    const int s0 = AddIndex(IndexOn(a, 1, 1, tag + "a"), a->id);
    const int s1 = AddIndex(IndexOn(photoobj, 2, 3, tag + "p"), photoobj->id);

    // A vertical partition, then an index on its fragment. The fragment's
    // what-if table id is positional, so it is read back from the overlay.
    Delta part;
    part.kind = Delta::Kind::kAddPartition;
    part.partition.name = tag + "v";
    part.partition.parent = vertical->id;
    part.partition.columns = PickColumns(
        &rng_, 1, vertical->schema.num_columns() - 1, Pick(&rng_, 3, 8));
    part.max_planner_calls = QueriesTouching(workload_, vertical->id);
    const int frag_cols = static_cast<int>(part.partition.columns.size());
    Push(std::move(part));
    const TableInfo* fragment =
        session_.overlay().catalog().FindTable(tag + "v");
    PARINDA_CHECK(fragment != nullptr);
    parinda::WhatIfIndexDef frag_index;
    frag_index.name = tag + "f";
    frag_index.table = fragment->id;
    frag_index.columns = PickColumns(&rng_, 1, frag_cols, Pick(&rng_, 1, 2));
    AddIndex(std::move(frag_index), vertical->id);

    // A range partitioning on a column with a histogram.
    Delta range;
    range.kind = Delta::Kind::kAddRange;
    range.range.parent = ranged->id;
    range.range.name_prefix = tag + "h";
    range.max_planner_calls = QueriesTouching(workload_, ranged->id);
    const int parts = Pick(&rng_, 2, 4);
    const int ncols = ranged->schema.num_columns();
    for (int k = 0, col = Pick(&rng_, 0, ncols - 1); k < ncols;
         ++k, col = (col + 1) % ncols) {
      auto bounds = parinda::SuggestEqualMassBounds(db_->catalog(), ranged->id,
                                                    col, parts);
      if (!bounds.ok()) continue;
      range.range.column = col;
      range.range.bounds = std::move(*bounds);
      break;
    }
    result_->Check(!range.range.bounds.empty(),
                   "script: no range-partitionable column on " + ranged->name);
    Push(std::move(range));

    const int s5 = AddIndex(IndexOn(b, 1, 2, tag + "b"), b->id);

    int s6 = 0;
    if (toggle) {
      Delta join;
      join.kind = Delta::Kind::kAddJoin;
      const int variant = Pick(&rng_, 0, 2);
      join.join.enable_nestloop = variant != 0;
      join.join.enable_hashjoin = variant != 1;
      join.join.enable_mergejoin = variant != 2;
      join.max_planner_calls = workload_.size();
      s6 = Push(std::move(join));
    } else {
      s6 = AddIndex(IndexOn(c, 1, 1, tag + "c"), c->id);
    }

    // Drop one base-table index and add it back: the re-added design was
    // costed before, so its queries are served from the engine cache.
    const int victims[] = {s0, s1, s5};
    const int victim = victims[Pick(&rng_, 0, 2)];
    const Delta dropped = script_[static_cast<size_t>(victim)];
    Drop(victim);
    AddIndex(dropped.index, dropped.index.table);

    AddIndex(IndexOn(c, 2, 2, tag + "d"), c->id);
    Drop(s6);

    // Unwind to the empty design, newest feature first: an index on a
    // fragment goes before its partition, and no partition goes while a
    // later one remains (fragment table ids are positional, so that would
    // move the later fragment's index onto another fragment).
    while (!live_.empty()) Drop(live_.back());
  }

  void Drop(int target) {
    Delta delta;
    delta.kind = Delta::Kind::kDrop;
    delta.target = target;
    const Delta& added = script_[static_cast<size_t>(target)];
    delta.max_planner_calls = added.max_planner_calls;
    Push(std::move(delta));
  }

  /// Appends `delta`, applies it to the validation session and checks the
  /// evaluation. Returns the script position.
  int Push(Delta delta) {
    const int pos = static_cast<int>(script_.size());
    script_.push_back(std::move(delta));
    ids_.resize(script_.size(), 0);
    const Delta& d = script_.back();
    const std::string where = "script delta " + std::to_string(pos);
    const parinda::Status applied = ApplyDelta(&session_, d, pos, &ids_);
    result_->Check(applied.ok(), where + " rejected: " + applied.ToString());
    if (d.kind == Delta::Kind::kDrop) {
      live_.erase(std::find(live_.begin(), live_.end(), d.target));
    } else {
      live_.push_back(pos);
    }
    auto report = session_.Evaluate();
    result_->Check(report.ok(), where + ": Evaluate failed");
    if (!report.ok()) return pos;
    result_->Check(session_.last_eval_planner_calls() <= d.max_planner_calls,
                   where + ": re-planned " +
                       std::to_string(session_.last_eval_planner_calls()) +
                       " queries, more than the " +
                       std::to_string(d.max_planner_calls) +
                       " that reference its tables");
    if (pos % 5 == 0) Probe(*report, where);
    return pos;
  }

  /// Keeps the report with the live feature set, for the comparison with a
  /// stateless evaluation of that set that CheckStatelessProbes makes.
  void Probe(const parinda::InteractiveReport& report,
             const std::string& where) {
    StatelessProbe probe{where, {}, report};
    parinda::InteractiveDesign& design = probe.design;
    for (int pos : live_) {
      const Delta& d = script_[static_cast<size_t>(pos)];
      switch (d.kind) {
        case Delta::Kind::kAddIndex:
          design.indexes.push_back(d.index);
          break;
        case Delta::Kind::kAddPartition:
          design.partitions.push_back(d.partition);
          break;
        case Delta::Kind::kAddRange:
          design.range_partitions.push_back(d.range);
          break;
        case Delta::Kind::kAddJoin:
          design.join_flags.push_back(d.join);
          break;
        case Delta::Kind::kDrop:
          break;
      }
    }
    probes_.push_back(std::move(probe));
  }

  parinda::Database* db_;
  const parinda::Workload& workload_;
  parinda::Random rng_;
  RunResult* result_;
  parinda::DesignSession session_;
  std::vector<const TableInfo*> tables_;
  std::vector<Delta> script_;
  std::vector<StatelessProbe> probes_;
  std::vector<parinda::OverlayId> ids_;
  /// Script positions of the features in the design, in insertion order.
  std::vector<int> live_;
};

}  // namespace

parinda::Status ApplyDelta(parinda::DesignSession* session, const Delta& delta,
                           int pos, std::vector<parinda::OverlayId>* ids) {
  parinda::Result<parinda::OverlayId> added = parinda::OverlayId{0};
  switch (delta.kind) {
    case Delta::Kind::kAddIndex:
      added = session->AddIndex(delta.index);
      break;
    case Delta::Kind::kAddPartition:
      added = session->AddPartition(delta.partition);
      break;
    case Delta::Kind::kAddRange:
      added = session->AddRangePartitioning(delta.range);
      break;
    case Delta::Kind::kAddJoin:
      added = session->AddJoinFlags(delta.join);
      break;
    case Delta::Kind::kDrop:
      return session->Drop((*ids)[static_cast<size_t>(delta.target)]);
  }
  if (!added.ok()) return added.status();
  (*ids)[static_cast<size_t>(pos)] = *added;
  return parinda::Status::OK();
}

DeltaScript MakeDeltaScript(parinda::Database* db,
                            const parinda::Workload& workload, uint64_t seed,
                            RunResult* result) {
  Generator generator(db, workload, seed, result);
  return generator.Run();
}

void CheckStatelessProbes(parinda::Database* db,
                          const parinda::Workload& workload,
                          const std::vector<StatelessProbe>& probes,
                          RunResult* result) {
  parinda::Parinda tool(db);
  for (const StatelessProbe& probe : probes) {
    auto fresh = tool.EvaluateDesign(workload, probe.design);
    result->Check(fresh.ok() && SameReport(probe.report, *fresh),
                  probe.where + ": incremental report differs from the "
                                "stateless EvaluateDesign of the same design");
  }
}

}  // namespace perfbench
