#ifndef PARINDA_SOLVER_LP_H_
#define PARINDA_SOLVER_LP_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace parinda {

/// A linear program in the form PARINDA's index-selection ILP uses:
///   maximize c . x  subject to  A x <= b,  lower <= x <= upper.
/// Rows are sparse; the paper's ILP instances are mostly 0/1 coefficients
/// over a few hundred variables. Bounds are bounds, not rows (DESIGN.md §15).
struct LinearProgram {
  /// One <= constraint: sum(terms) <= rhs.
  struct Constraint {
    std::vector<std::pair<int, double>> terms;  // (variable, coefficient)
    double rhs = 0.0;
  };

  LinearProgram() = default;
  /// Copies bump `solver.lp_copies`: the branch and bound copies once.
  LinearProgram(const LinearProgram& other);
  LinearProgram& operator=(const LinearProgram& other);
  LinearProgram(LinearProgram&&) = default;
  LinearProgram& operator=(LinearProgram&&) = default;

  std::vector<double> objective;
  std::vector<Constraint> constraints;
  /// Per-variable finite bounds; an empty vector means upper 1.0 (binary
  /// relaxation) and lower 0.0 for every variable.
  std::vector<double> upper;
  std::vector<double> lower;

  int num_vars() const { return static_cast<int>(objective.size()); }
  double UpperOf(int var) const {
    return upper.empty() ? 1.0 : upper[static_cast<size_t>(var)];
  }
  double LowerOf(int var) const {
    return lower.empty() ? 0.0 : lower[static_cast<size_t>(var)];
  }

  /// Adds a constraint and returns its row index.
  int AddConstraint(Constraint c) {
    constraints.push_back(std::move(c));
    return static_cast<int>(constraints.size()) - 1;
  }
};

struct LpSolution {
  bool feasible = false;
  /// True when the pivot cap stopped the solve; nothing is proved then.
  bool iteration_limited = false;
  double objective = 0.0;
  std::vector<double> values;
};

/// Bounded-variable dual simplex over a dense tableau B^-1 [A | I] of the
/// rows and their slacks. Nonbasic columns sit at a bound: no bound rows,
/// artificials or Big-M terms.
///
/// The state outlives a solve: SetBounds() rewrites bounds in place and the
/// next Solve() re-optimises from the last basis. Reduced costs do not
/// depend on bounds, so with every nonbasic column moved to the bound its
/// reduced cost prefers the old basis stays dual feasible and only dual
/// pivots remain. Every optimum is re-derived from B^-1 and the original
/// rows; a disagreement, an infeasible row or a pivot budget restarts a
/// warm state from the slack basis (`solver.refactorizations`; pivots count
/// in `solver.dual_pivots`). Dantzig pricing and a Harris ratio test, with
/// Bland's rule after a degeneracy streak.
class DualSimplex {
 public:
  /// Copies `lp` once; the copy's bounds are the working bounds.
  explicit DualSimplex(const LinearProgram& lp);

  /// Rewrites variable `var`'s bounds for the next Solve().
  void SetBounds(int var, double lower, double upper);

  /// Optimises under the current bounds with at most `max_iterations`
  /// pivots. Malformed input yields InvalidArgument.
  [[nodiscard]] Result<LpSolution> Solve(int max_iterations = 20000);

 private:
  double& At(int row, int col) {
    return tab_[static_cast<size_t>(row) * static_cast<size_t>(width_) +
                static_cast<size_t>(col)];
  }
  // Slack columns (col >= n_) range over [0, inf).
  double Lower(int col) const { return col < n_ ? lp_.lower[col] : 0.0; }
  double Upper(int col) const {
    return col < n_ ? lp_.upper[col] : std::numeric_limits<double>::infinity();
  }
  /// Slack basis, every structural at the bound its cost prefers (dual
  /// feasible, as structurals are boxed).
  void Restart();
  /// Moves nonbasic column `col` to `value`, shifting the basic values.
  void MoveNonbasic(int col, double value);
  /// The most infeasible basic row (Bland: lowest basic column) or -1;
  /// `to_upper` is set when it leaves at its upper bound.
  int ChooseLeaving(bool bland, bool* to_upper) const;
  /// The dual ratio test on row `row`; -1 when no column can enter.
  int ChooseEntering(int row, bool to_upper, bool bland) const;
  void Pivot(int row, int col, bool to_upper);
  /// Re-derives basic values and reduced costs from B^-1 and the original
  /// rows; false when the tableau disagrees beyond tolerance.
  bool Refresh();

  LinearProgram lp_;
  int n_ = 0;
  int m_ = 0;
  int width_ = 0;  // n_ + m_
  Status status_;
  std::vector<double> tab_;  // row-major, m_ x width_
  std::vector<double> d_;    // reduced costs of min -c.x
  std::vector<double> x_;
  std::vector<char> at_upper_;
  std::vector<int> basis_;   // row -> column
  std::vector<int> row_of_;  // column -> row, -1 when nonbasic
  std::vector<int> nz_;      // scratch: nonzero columns of the pivot row
  int64_t since_restart_ = 0;
};

/// One-shot solve: a cold DualSimplex over `lp`.
[[nodiscard]] Result<LpSolution> SolveLp(const LinearProgram& lp,
                                         int max_iterations = 20000);

}  // namespace parinda

#endif  // PARINDA_SOLVER_LP_H_
