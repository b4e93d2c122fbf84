#include "solver/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/metrics.h"

namespace parinda {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPrimalTol = 1e-9;    // bound violation, x (1 + |bound|)
constexpr double kDualTol = 1e-9;      // Harris slack on reduced costs
constexpr double kPivotTol = 1e-9;     // smallest usable pivot entry
constexpr double kDropTol = 1e-13;     // smaller tableau entries become 0
constexpr double kResidualTol = 1e-9;  // relative drift tolerance
constexpr int kBlandStreak = 64;       // degenerate pivots before Bland

double Clean(double v) { return std::fabs(v) < kDropTol ? 0.0 : v; }

metrics::Counter& Counter(const char* name) {
  return metrics::Registry::Global().counter(name);
}

}  // namespace

LinearProgram::LinearProgram(const LinearProgram& other)
    : objective(other.objective),
      constraints(other.constraints),
      upper(other.upper),
      lower(other.lower) {
  static metrics::Counter& copies = Counter("solver.lp_copies");
  copies.Increment();
}

LinearProgram& LinearProgram::operator=(const LinearProgram& other) {
  if (this != &other) *this = LinearProgram(other);
  return *this;
}

DualSimplex::DualSimplex(const LinearProgram& lp)
    : lp_(lp),
      n_(lp.num_vars()),
      m_(static_cast<int>(lp.constraints.size())),
      width_(n_ + m_) {
  const size_t n = static_cast<size_t>(n_);
  if ((!lp_.upper.empty() && lp_.upper.size() != n) ||
      (!lp_.lower.empty() && lp_.lower.size() != n)) {
    status_ = Status::InvalidArgument("bound vector size mismatch");
  }
  lp_.upper.resize(n, 1.0);
  lp_.lower.resize(n, 0.0);
  for (const LinearProgram::Constraint& row : lp_.constraints) {
    for (const auto& [var, coeff] : row.terms) {
      if (var < 0 || var >= n_) {
        status_ = Status::InvalidArgument("constraint references unknown var");
      }
    }
  }
}

void DualSimplex::Restart() {
  tab_.assign(static_cast<size_t>(m_) * static_cast<size_t>(width_), 0.0);
  d_.assign(static_cast<size_t>(width_), 0.0);
  x_.assign(static_cast<size_t>(width_), 0.0);
  at_upper_.assign(static_cast<size_t>(width_), 0);
  basis_.resize(static_cast<size_t>(m_));
  row_of_.assign(static_cast<size_t>(width_), -1);
  for (int j = 0; j < n_; ++j) {
    d_[j] = -lp_.objective[static_cast<size_t>(j)];
    at_upper_[j] = d_[j] < 0.0;
    x_[j] = at_upper_[j] ? Upper(j) : Lower(j);
  }
  for (int i = 0; i < m_; ++i) {
    x_[n_ + i] = lp_.constraints[i].rhs;
    for (const auto& [var, coeff] : lp_.constraints[i].terms) {
      At(i, var) += coeff;
      x_[n_ + i] -= coeff * x_[var];
    }
    At(i, n_ + i) = 1.0;
    basis_[i] = n_ + i;
    row_of_[n_ + i] = i;
  }
  since_restart_ = 0;
}

void DualSimplex::MoveNonbasic(int col, double value) {
  const double delta = value - x_[col];
  x_[col] = value;
  for (int i = 0; i < m_ && delta != 0.0; ++i) {
    const double a = At(i, col);
    if (a != 0.0) x_[basis_[i]] -= a * delta;
  }
}

void DualSimplex::SetBounds(int var, double lower, double upper) {
  const size_t v = static_cast<size_t>(var);
  if (lp_.lower[v] == lower && lp_.upper[v] == upper) return;
  lp_.lower[v] = lower;
  lp_.upper[v] = upper;
  if (tab_.empty() || row_of_[var] >= 0) return;
  // Keep the column dual feasible: at the bound its reduced cost prefers.
  if (d_[var] < -kDualTol) at_upper_[var] = 1;
  if (d_[var] > kDualTol) at_upper_[var] = 0;
  MoveNonbasic(var, at_upper_[var] ? upper : lower);
}

int DualSimplex::ChooseLeaving(bool bland, bool* to_upper) const {
  int leave = -1;
  double worst = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    const bool up = x_[col] > Upper(col);
    const double bound = up ? Upper(col) : Lower(col);
    const double violation = up ? x_[col] - bound : bound - x_[col];
    if (violation <= kPrimalTol * (1.0 + std::fabs(bound))) continue;
    if (bland ? leave < 0 || col < basis_[leave] : violation > worst) {
      leave = i;
      worst = violation;
      *to_upper = up;
    }
  }
  return leave;
}

int DualSimplex::ChooseEntering(int row, bool to_upper, bool bland) const {
  // A leaving value above its upper bound must fall, one below its lower
  // bound must rise. A column at its lower bound can only rise and one at
  // its upper bound only fall, so the sign of its entry in the row decides
  // whether it can help; the ratio is its reduced cost over that entry.
  const double sign = to_upper ? 1.0 : -1.0;
  const double* alpha = &tab_[static_cast<size_t>(row) * width_];
  auto eligible = [&](int j, double* dj, double* a) {
    if (row_of_[j] >= 0 || Lower(j) == Upper(j)) return false;
    *a = sign * alpha[j];
    if (at_upper_[j] ? *a > -kPivotTol : *a < kPivotTol) return false;
    *a = std::fabs(*a);
    *dj = std::max(0.0, at_upper_[j] ? -d_[j] : d_[j]);
    return true;
  };
  // Harris: the longest dual step that bends no reduced cost more than
  // kDualTol past its sign, then the largest pivot within that step. Bland:
  // the exact shortest step, lowest column first.
  const double slack = bland ? 0.0 : kDualTol;
  double dj = 0.0;
  double a = 0.0;
  double step = kInf;
  for (int j = 0; j < width_; ++j) {
    if (eligible(j, &dj, &a)) step = std::min(step, (dj + slack) / a);
  }
  int enter = -1;
  double best_pivot = 0.0;
  for (int j = 0; j < width_; ++j) {
    if (eligible(j, &dj, &a) && dj / a <= step &&
        (bland ? enter < 0 : a > best_pivot)) {
      best_pivot = a;
      enter = j;
    }
  }
  return enter;
}

void DualSimplex::Pivot(int row, int col, bool to_upper) {
  static metrics::Counter& pivots = Counter("solver.dual_pivots");
  const int leave = basis_[row];
  const double leave_value = to_upper ? Upper(leave) : Lower(leave);
  double* prow = &At(row, 0);
  const double pivot = prow[col];
  // Primal step: the entering column moves until the leaving one reaches
  // the bound it violated.
  const double step = (x_[leave] - leave_value) / pivot;
  MoveNonbasic(col, x_[col] + step);
  x_[leave] = leave_value;
  at_upper_[leave] = to_upper;
  // Normalise the pivot row, then eliminate the column from the other rows
  // and the reduced costs, touching only the pivot row's nonzeros.
  nz_.clear();
  for (int j = 0; j < width_; ++j) {
    if (prow[j] != 0.0) prow[j] = Clean(prow[j] / pivot);
    if (prow[j] != 0.0) nz_.push_back(j);
  }
  prow[col] = 1.0;
  for (int i = 0; i < m_; ++i) {
    double* r = &At(i, 0);
    const double f = r[col];
    if (i == row || f == 0.0) continue;
    for (const int j : nz_) r[j] = Clean(r[j] - f * prow[j]);
    r[col] = 0.0;
  }
  const double f = d_[col];
  for (const int j : nz_) d_[j] -= f * prow[j];
  d_[col] = 0.0;
  basis_[row] = col;
  row_of_[col] = row;
  row_of_[leave] = -1;
  ++since_restart_;
  pivots.Increment();
}

bool DualSimplex::Refresh() {
  // Basic values x_B = B^-1 (b - N x_N) and duals y = c_B B^-1.
  std::vector<double> net(static_cast<size_t>(m_));
  std::vector<double> y(static_cast<size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    net[i] = lp_.constraints[i].rhs - (row_of_[n_ + i] < 0 ? x_[n_ + i] : 0);
    for (const auto& [var, coeff] : lp_.constraints[i].terms) {
      if (row_of_[var] < 0) net[i] -= coeff * x_[var];
    }
  }
  for (int k = 0; k < m_; ++k) {
    const double* binv = &tab_[static_cast<size_t>(k) * width_ + n_];
    const double cost =
        basis_[k] < n_ ? -lp_.objective[static_cast<size_t>(basis_[k])] : 0;
    double v = 0.0;
    for (int i = 0; i < m_; ++i) v += binv[i] * net[i];
    x_[basis_[k]] = v;
    for (int i = 0; i < m_ && cost != 0.0; ++i) y[i] += cost * binv[i];
  }
  // The rows must hold at the fresh values, and d = c - y [A | I] must
  // match the tableau's reduced costs (to the scale of the largest cost,
  // which the duals cancel down from).
  std::vector<double> fresh(static_cast<size_t>(width_), 0.0);
  double cost_scale = 1.0;
  for (int j = 0; j < n_; ++j) {
    fresh[j] = -lp_.objective[static_cast<size_t>(j)];
    cost_scale = std::max(cost_scale, std::fabs(fresh[j]));
  }
  bool agrees = true;
  for (int i = 0; i < m_; ++i) {
    const LinearProgram::Constraint& row = lp_.constraints[i];
    double residual = row.rhs - x_[n_ + i];
    double size = 1.0 + std::fabs(row.rhs) + std::fabs(x_[n_ + i]);
    for (const auto& [var, coeff] : row.terms) {
      residual -= coeff * x_[var];
      size += std::fabs(coeff * x_[var]);
      fresh[var] -= y[i] * coeff;
    }
    fresh[n_ + i] = -y[i];
    agrees = agrees && std::fabs(residual) <= kResidualTol * size;
  }
  for (int j = 0; j < width_; ++j) {
    if (row_of_[j] >= 0) fresh[j] = 0.0;
    agrees = agrees && std::fabs(fresh[j] - d_[j]) <= kResidualTol * cost_scale;
  }
  if (agrees) d_ = std::move(fresh);
  return agrees;
}

Result<LpSolution> DualSimplex::Solve(int max_iterations) {
  static metrics::Counter& refactorizations =
      Counter("solver.refactorizations");
  PARINDA_RETURN_IF_ERROR(status_);
  for (int j = 0; j < n_; ++j) {
    if (!std::isfinite(Lower(j)) || !std::isfinite(Upper(j)) ||
        Upper(j) < Lower(j)) {
      tab_.clear();  // the next valid solve starts cold
      return Status::InvalidArgument("bounds must be finite, lower <= upper");
    }
  }
  // Drift grows with the pivots applied to one tableau (and so does its
  // fill-in): past this many a warm solve restarts even when checks pass.
  // A tableau built during this solve is trusted as a cold solve is.
  const int64_t restart_budget = std::max(1000, 4 * width_);
  bool restarted = tab_.empty();
  if (restarted) Restart();
  bool refreshed = false;
  auto refactor = [&] {
    Restart();
    restarted = true;
    refreshed = false;
    refactorizations.Increment();
  };
  LpSolution solution;
  int pivots = 0;
  int degenerate_streak = 0;
  for (;;) {
    if (since_restart_ >= restart_budget && !restarted) refactor();
    const bool bland =
        degenerate_streak > kBlandStreak || pivots >= max_iterations / 2;
    bool to_upper = false;
    const int row = ChooseLeaving(bland, &to_upper);
    if (row < 0) {
      if (refreshed) break;  // primal feasible on freshly derived values
      refreshed = true;
      if (!Refresh() && !restarted) refactor();
      continue;
    }
    const int col = ChooseEntering(row, to_upper, bland);
    if (col < 0) {
      // Infeasible: the row cannot reach its bound. A warm tableau's
      // verdict is re-checked from a cold start.
      if (restarted) return solution;
      refactor();
      continue;
    }
    if (pivots >= max_iterations) {
      solution.iteration_limited = true;
      return solution;
    }
    degenerate_streak =
        std::fabs(d_[col]) <= kDualTol ? degenerate_streak + 1 : 0;
    Pivot(row, col, to_upper);
    ++pivots;
    refreshed = false;
  }
  solution.feasible = true;
  solution.values.assign(x_.begin(), x_.begin() + n_);
  for (int j = 0; j < n_; ++j) {
    solution.objective += lp_.objective[static_cast<size_t>(j)] * x_[j];
  }
  return solution;
}

Result<LpSolution> SolveLp(const LinearProgram& lp, int max_iterations) {
  DualSimplex simplex(lp);
  return simplex.Solve(max_iterations);
}

}  // namespace parinda
