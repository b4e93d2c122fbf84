#include "solver/bnb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("solver.bnb_node");

namespace {

constexpr double kIntEps = 1e-6;

/// The branching variable of a relaxation, or -1 when it is integral: the
/// fractional variable in the most constraint rows, then the most
/// fractional, then the lowest index. On the index-selection ILP this
/// branches on the index variables x_j; once they are integral every
/// (query, table) row is a face of the relaxation and the access-path
/// variables y_{q,j} come out integral at a vertex.
int ChooseBranch(const std::vector<double>& values,
                 const std::vector<int>& degree) {
  int branch = -1;
  double branch_dist = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double frac = values[i] - std::floor(values[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= kIntEps) continue;
    const int best = branch < 0 ? -1 : degree[static_cast<size_t>(branch)];
    if (degree[i] > best || (degree[i] == best && dist > branch_dist)) {
      branch = static_cast<int>(i);
      branch_dist = dist;
    }
  }
  return branch;
}

/// One fixing in the search tree. Nodes form a parent-linked arena: a
/// node's fixings are its chain back to the root, and it stores no basis,
/// since the simplex state is shared by the whole search.
struct FixRec {
  int var = -1;  // -1 at the root (no fixing)
  int8_t value = 0;
  int parent = -1;
};

/// Open-list entry (bound, sequence, arena id): best bound pops first; on
/// equal bounds the most recently pushed child (the "round up" branch).
using PqEntry = std::tuple<double, int64_t, int>;

}  // namespace

Result<MipSolution> SolveBinaryMip(const BinaryMip& mip,
                                   const MipOptions& options) {
  static metrics::Counter& expanded =
      metrics::Registry::Global().counter("solver.nodes_expanded");
  static metrics::Counter& pruned =
      metrics::Registry::Global().counter("solver.nodes_pruned");
  const int n = mip.lp.num_vars();
  MipSolution best;
  best.values.assign(static_cast<size_t>(n), 0);
  // Selecting nothing satisfies <= rows with nonnegative rhs (the shape of
  // PARINDA's ILPs), so the all-zero assignment seeds the incumbent.
  best.feasible = std::all_of(
      mip.lp.constraints.begin(), mip.lp.constraints.end(),
      [](const LinearProgram::Constraint& row) { return row.rhs >= 0.0; });
  // True when the incumbent covers `bound` within the relative gap, so a
  // subtree with that upper bound cannot improve it.
  auto covered = [&](double bound) {
    const bool hit = best.feasible &&
                     bound <= best.objective + kIntEps +
                                  std::fabs(best.objective) *
                                      options.relative_gap;
    if (hit) {
      ++best.nodes_pruned;
      pruned.Increment();
    }
    return hit;
  };

  // The one LP copy of the entire search. A node rewrites the bounds that
  // differ from the previous node's (fix-to-0 sets upper = 0, fix-to-1 sets
  // lower = 1) and re-optimises from the previous node's basis.
  DualSimplex simplex(mip.lp);
  std::vector<int> degree(static_cast<size_t>(n), 0);
  for (const auto& row : mip.lp.constraints) {
    for (const auto& [var, coeff] : row.terms) {
      if (var >= 0 && var < n) ++degree[static_cast<size_t>(var)];
    }
  }
  std::vector<int8_t> fixed(static_cast<size_t>(n));  // per node, -1 = free

  std::vector<FixRec> arena = {FixRec{}};
  std::priority_queue<PqEntry> open;
  int64_t next_seq = 0;
  open.emplace(std::numeric_limits<double>::infinity(), next_seq++, 0);
  bool exhausted_cleanly = true;
  while (!open.empty()) {
    PARINDA_FAILPOINT("solver.bnb_node");
    if (best.nodes_explored >= options.max_nodes ||
        options.deadline.Expired()) {
      // Anytime cut: keep the incumbent, flag the truncation.
      exhausted_cleanly = false;
      best.degraded = best.nodes_explored < options.max_nodes;
      break;
    }
    const auto [bound, seq, node] = open.top();
    open.pop();
    // Prune before paying for the LP: the stored bound is the parent's
    // relaxation objective, an upper bound for this whole subtree.
    if (covered(bound)) continue;
    ++best.nodes_explored;
    expanded.Increment();
    PARINDA_TRACE_SPAN("solver.node");
    std::fill(fixed.begin(), fixed.end(), -1);
    for (int id = node; id > 0; id = arena[static_cast<size_t>(id)].parent) {
      const FixRec& fix = arena[static_cast<size_t>(id)];
      fixed[static_cast<size_t>(fix.var)] = fix.value;
    }
    for (int i = 0; i < n; ++i) {
      const int8_t f = fixed[static_cast<size_t>(i)];
      simplex.SetBounds(i, f == 1 ? 1.0 : mip.lp.LowerOf(i),
                        f == 0 ? 0.0 : mip.lp.UpperOf(i));
    }
    PARINDA_ASSIGN_OR_RETURN(LpSolution relax, simplex.Solve());
    // A pivot-capped LP bounds nothing: drop the subtree and the proof.
    exhausted_cleanly = exhausted_cleanly && !relax.iteration_limited;
    if (!relax.feasible || covered(relax.objective)) continue;
    const int branch_var = ChooseBranch(relax.values, degree);
    if (branch_var < 0) {
      best.feasible = true;
      best.objective = relax.objective;
      for (int i = 0; i < n; ++i) best.values[i] = relax.values[i] > 0.5;
      continue;
    }
    // Children inherit this relaxation's objective as their subtree bound.
    for (const int8_t value : {0, 1}) {
      const int child = static_cast<int>(arena.size());
      open.emplace(relax.objective, next_seq++, child);
      arena.push_back(FixRec{branch_var, value, node});
    }
  }
  best.proved_optimal = best.feasible && exhausted_cleanly;
  return best;
}

}  // namespace parinda
