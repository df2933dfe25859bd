#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl::ilp {

namespace {

/// Pivot, ratio-test and reduced-cost tolerance of the dense simplex.
constexpr double kEps = 1e-9;

/// One branching bound, `x[var] <= bound` or `x[var] >= bound`, linked to
/// the node it was branched from.  Node 0 is the root and carries none.
struct BranchNode {
  std::size_t parent = 0;
  std::size_t var = 0;
  bool at_least = false;
  double bound = 0.0;
};

/// Open-list entry.  Ordered on the bound alone, and kept with
/// std::push_heap / std::pop_heap exactly as std::priority_queue keeps its
/// container, so equal bounds pop in the same order as in a
/// std::priority_queue fed the same pushes.
struct OpenNode {
  double lower_bound = 0.0;
  std::size_t node = 0;

  // Best-first: smaller LP bound explored first (the heap is a max-heap).
  friend bool operator<(const OpenNode& a, const OpenNode& b) {
    return a.lower_bound > b.lower_bound;
  }
};

/// Per-thread scratch reused by every solve: once it has grown to the
/// largest tree and tableau seen, nodes allocate nothing.
struct Workspace {
  std::vector<BranchNode> nodes;
  std::vector<OpenNode> open;
  std::vector<std::size_t> path;      ///< root-to-node bound order
  /// Tableau cells, row-major with a fixed row stride.  Zero except at the
  /// offsets listed in `dirty`, which the next relaxation clears — so a
  /// deep node costs what its pivots touch, not rows x columns.
  std::vector<double> cells;
  std::size_t stride = 0;
  std::vector<std::size_t> dirty;
  std::vector<double> rhs;
  std::vector<std::size_t> basis;     ///< basis[r] = column basic in row r
  std::vector<char> artificial;       ///< per column
  std::vector<double> cost;           ///< current phase objective
  std::vector<std::size_t> cost_rows; ///< rows whose basic cost is nonzero
  std::vector<std::size_t> nonzero;   ///< pivot-row columns to update
  std::vector<double> x;              ///< relaxation solution
};

thread_local Workspace workspace;

/// Tableau size above which a solve hands its workspace back on return:
/// controller-size problems stay far below it and keep theirs, while a
/// crawl's deep tableau is not held for the life of the thread.
constexpr std::size_t kKeptCells = std::size_t{1} << 15;

/// The LP relaxation at one node, laid out as the generic dense simplex
/// lays out the round problem plus the node's bounds appended in path
/// order:
///   rows     0: sum x = W (artificial), 1: t.x <= D (slack),
///            2..: one per bound (slack; a >= bound also has an artificial)
///   columns  x_0..x_{n-1}, slacks in row order, artificials in row order
/// Every floating-point operation is the generic solver's, in its order,
/// except that terms with an exact-zero factor are skipped: with finite
/// data `a - f * 0` is `a` (at most the sign of a zero changes, which no
/// comparison, ratio or nonzero sum can see).
class Relaxation {
 public:
  Relaxation(Workspace& ws, const std::vector<ConfigProfile>& profiles,
             std::int64_t num_jobs, double deadline, std::size_t node)
      : ws_(ws), n_(profiles.size()) {
    ws.path.clear();
    for (std::size_t v = node; v != 0; v = ws.nodes[v].parent) {
      ws.path.push_back(v);
    }
    std::reverse(ws.path.begin(), ws.path.end());
    rows_ = 2 + ws.path.size();
    // Every ">=" row takes an artificial as well as its surplus.  Bounds
    // are floors and ceilings of fractional values of non-negative
    // variables, so no row needs the generic solver's sign normalization.
    std::size_t num_artificial = 1;
    for (std::size_t v : ws.path) {
      num_artificial += ws.nodes[v].at_least ? 1 : 0;
    }
    const std::size_t num_slack = 1 + ws.path.size();
    cols_ = n_ + num_slack + num_artificial;
    if (cols_ > ws.stride) {  // relayout: every cell moves
      ws.stride = cols_ + cols_ / 2;
      ws.cells.assign(rows_ * ws.stride, 0.0);
      ws.dirty.clear();
    } else if (rows_ * ws.stride > ws.cells.size()) {
      ws.cells.resize(rows_ * ws.stride, 0.0);  // rows append in place
    }
    for (std::size_t offset : ws.dirty) {
      ws.cells[offset] = 0.0;
    }
    ws.dirty.clear();
    ws.rhs.assign(rows_, 0.0);
    ws.basis.assign(rows_, 0);
    ws.artificial.assign(cols_, 0);

    std::size_t slack = n_;
    std::size_t artificial = n_ + num_slack;
    for (std::size_t j = 0; j < n_; ++j) {
      set(0, j, 1.0);
      set(1, j, profiles[j].latency_per_job);
    }
    ws.rhs[0] = static_cast<double>(num_jobs);
    set(0, artificial, 1.0);
    ws.artificial[artificial] = 1;
    ws.basis[0] = artificial++;
    ws.rhs[1] = deadline;
    set(1, slack, 1.0);
    ws.basis[1] = slack++;
    for (std::size_t i = 0; i < ws.path.size(); ++i) {
      const BranchNode& b = ws.nodes[ws.path[i]];
      const std::size_t r = 2 + i;
      set(r, b.var, 1.0);
      ws.rhs[r] = b.bound;
      if (!b.at_least) {
        set(r, slack, 1.0);
        ws.basis[r] = slack++;
      } else {
        set(r, slack++, -1.0);  // surplus
        set(r, artificial, 1.0);
        ws.artificial[artificial] = 1;
        ws.basis[r] = artificial++;
      }
    }
  }

  /// Two-phase simplex.  Returns false if the relaxation is infeasible;
  /// otherwise leaves the solution in ws.x and returns its objective.
  bool solve(const std::vector<ConfigProfile>& profiles, double& objective) {
    // Phase 1: minimize the sum of artificial variables.
    ws_.cost.resize(cols_);
    for (std::size_t j = 0; j < cols_; ++j) {
      ws_.cost[j] = ws_.artificial[j] != 0 ? 1.0 : 0.0;
    }
    BOFL_ASSERT(run_simplex(true), "phase-1 LP cannot be unbounded");
    if (basis_objective() > 1e-7) {
      return false;
    }
    // Pivot any artificial still (degenerately) basic out of the basis; a
    // row with no such pivot is redundant and its artificial stays at 0.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (ws_.artificial[ws_.basis[r]] == 0) {
        continue;
      }
      for (std::size_t j = 0; j < cols_; ++j) {
        if (ws_.artificial[j] == 0 && std::abs(at(r, j)) > kEps) {
          pivot(r, j);
          ws_.basis[r] = j;
          break;
        }
      }
    }
    // Phase 2: the energy objective, artificial columns barred.
    std::fill(ws_.cost.begin(), ws_.cost.end(), 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.cost[j] = profiles[j].energy_per_job;
    }
    BOFL_ASSERT(run_simplex(false), "ILP relaxation must be bounded");
    ws_.x.assign(n_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (ws_.basis[r] < n_) {
        ws_.x[ws_.basis[r]] = ws_.rhs[r];
      }
    }
    objective = basis_objective();
    return true;
  }

 private:
  double at(std::size_t r, std::size_t c) const {
    return ws_.cells[r * ws_.stride + c];
  }
  void set(std::size_t r, std::size_t c, double value) {
    ws_.dirty.push_back(r * ws_.stride + c);
    ws_.cells[r * ws_.stride + c] = value;
  }

  double basis_objective() const {
    double value = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      value += ws_.cost[ws_.basis[r]] * ws_.rhs[r];
    }
    return value;
  }

  /// Gaussian pivot on (pivot_row, pivot_col), touching only the columns
  /// where the pivot row is nonzero.  The right-hand side is the last
  /// column of the generic tableau and is updated in the same place.
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const double p = at(pivot_row, pivot_col);
    BOFL_ASSERT(std::abs(p) > kEps, "degenerate simplex pivot");
    double* const prow = &ws_.cells[pivot_row * ws_.stride];
    ws_.nonzero.clear();
    for (std::size_t c = 0; c < cols_; ++c) {
      if (prow[c] != 0.0) {
        prow[c] /= p;
        ws_.nonzero.push_back(c);
      }
    }
    ws_.rhs[pivot_row] /= p;
    const double prhs = ws_.rhs[pivot_row];
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pivot_row) {
        continue;
      }
      const std::size_t base = r * ws_.stride;
      double* const row = &ws_.cells[base];
      const double factor = row[pivot_col];
      if (std::abs(factor) < kEps) {
        continue;
      }
      for (std::size_t c : ws_.nonzero) {
        if (row[c] == 0.0) {
          ws_.dirty.push_back(base + c);
        }
        row[c] -= factor * prow[c];
      }
      ws_.rhs[r] -= factor * prhs;
    }
  }

  /// Primal simplex with Bland's rule until optimality (true) or
  /// unboundedness (false).  The entering column is the first one, in
  /// index order, whose reduced cost c_j - sum_r c_B[r] * a_rj is below
  /// -kEps; columns after it are never priced.
  bool run_simplex(bool allow_artificial) {
    const std::size_t max_pivots = 50 * (rows_ + cols_) + 1000;
    for (std::size_t iter = 0; iter < max_pivots; ++iter) {
      ws_.cost_rows.clear();
      for (std::size_t r = 0; r < rows_; ++r) {
        if (ws_.cost[ws_.basis[r]] != 0.0) {
          ws_.cost_rows.push_back(r);
        }
      }
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < cols_ && entering == cols_; ++j) {
        if (!allow_artificial && ws_.artificial[j] != 0) {
          continue;
        }
        double reduced = ws_.cost[j];
        for (std::size_t r : ws_.cost_rows) {
          const double a = at(r, j);
          if (a != 0.0) {
            reduced -= ws_.cost[ws_.basis[r]] * a;
          }
        }
        if (reduced < -kEps) {
          entering = j;
        }
      }
      if (entering == cols_) {
        return true;
      }
      // Ratio test: leaving row minimizes rhs / a_rj over a_rj > 0; Bland
      // tie-break on the smallest basis column index.
      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows_; ++r) {
        const double a = at(r, entering);
        if (a > kEps) {
          const double ratio = ws_.rhs[r] / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leaving < rows_ &&
               ws_.basis[r] < ws_.basis[leaving])) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == rows_) {
        return false;
      }
      pivot(leaving, entering);
      ws_.basis[leaving] = entering;
    }
    BOFL_ASSERT(false, "simplex exceeded its pivot budget");
  }

  Workspace& ws_;
  std::size_t n_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Index of the "most fractional" coordinate, or x.size() if all integral.
std::size_t most_fractional(const std::vector<double>& x, double tol) {
  std::size_t best = x.size();
  double best_distance = tol;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double frac = x[i] - std::floor(x[i]);
    const double distance = std::min(frac, 1.0 - frac);
    if (distance > best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

/// Check a candidate integral point against both rows.
bool is_feasible(const std::vector<ConfigProfile>& profiles,
                 std::int64_t num_jobs, double deadline,
                 const std::vector<std::int64_t>& x) {
  if (x.size() != profiles.size()) {
    return false;
  }
  for (const std::int64_t v : x) {
    if (v < 0) {
      return false;
    }
  }
  double jobs = 0.0;
  for (const std::int64_t v : x) {
    jobs += static_cast<double>(v);
  }
  if (std::abs(jobs - static_cast<double>(num_jobs)) > 1e-7) {
    return false;
  }
  double latency = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    latency += profiles[i].latency_per_job * static_cast<double>(x[i]);
  }
  return latency <= deadline + 1e-7;
}

}  // namespace

IlpSolution solve_round_ilp(const std::vector<ConfigProfile>& profiles,
                            std::int64_t num_jobs, double deadline_seconds,
                            const IlpOptions& options) {
  const std::size_t n = profiles.size();
  BOFL_REQUIRE(n > 0, "ILP needs at least one variable");
  BOFL_REQUIRE(num_jobs >= 0, "job count must be non-negative");
  BOFL_REQUIRE(deadline_seconds >= 0.0, "deadline must be non-negative");

  IlpSolution best;
  best.status = IlpStatus::kInfeasible;
  double incumbent = std::numeric_limits<double>::infinity();
  if (!options.warm_start.empty() &&
      is_feasible(profiles, num_jobs, deadline_seconds, options.warm_start)) {
    incumbent = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      incumbent += profiles[i].energy_per_job *
                   static_cast<double>(options.warm_start[i]);
    }
    best.status = IlpStatus::kOptimal;
    best.objective = incumbent;
    best.x = options.warm_start;
  }

  Workspace& ws = workspace;
  ws.nodes.assign(1, BranchNode{});
  ws.open.assign(1, OpenNode{-std::numeric_limits<double>::infinity(), 0});

  std::size_t nodes = 0;
  bool node_limit_hit = false;
  while (!ws.open.empty()) {
    if (nodes >= options.max_nodes) {
      node_limit_hit = true;
      break;
    }
    std::pop_heap(ws.open.begin(), ws.open.end());
    const OpenNode node = ws.open.back();
    ws.open.pop_back();
    const double prune_margin =
        std::max(1e-12, options.relative_gap * std::abs(incumbent));
    if (node.lower_bound >= incumbent - prune_margin) {
      continue;  // cannot (meaningfully) beat the incumbent
    }
    ++nodes;

    double objective = 0.0;
    if (!Relaxation(ws, profiles, num_jobs, deadline_seconds, node.node)
             .solve(profiles, objective)) {
      continue;
    }
    if (objective >= incumbent - prune_margin) {
      continue;
    }

    const std::size_t branch_var =
        most_fractional(ws.x, options.integrality_tolerance);
    if (branch_var == n) {
      // Integral solution: new incumbent.
      incumbent = objective;
      best.status = IlpStatus::kOptimal;
      best.objective = objective;
      best.x.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        best.x[i] = static_cast<std::int64_t>(std::llround(ws.x[i]));
      }
      continue;
    }

    const double value = ws.x[branch_var];
    BOFL_ASSERT(value > 0.0, "branching on a negative relaxation value");
    for (const bool at_least : {false, true}) {  // down child, then up
      ws.nodes.push_back({node.node, branch_var, at_least,
                          at_least ? std::ceil(value) : std::floor(value)});
      ws.open.push_back({objective, ws.nodes.size() - 1});
      std::push_heap(ws.open.begin(), ws.open.end());
    }
  }

  best.nodes_explored = nodes;
  if (best.status != IlpStatus::kOptimal && node_limit_hit) {
    best.status = IlpStatus::kNodeLimit;
  }
  if (ws.cells.size() > kKeptCells) {
    ws = Workspace{};
  }
  return best;
}

}  // namespace bofl::ilp
