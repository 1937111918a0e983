"""Coverage-versus-width trade-off: bootstrap against the naive intervals.

Any interval method can buy coverage by getting wider, so neither coverage
nor width alone is a fair score.  This sweep varies the polynomial degree k,
the neighborhood size m, and the sub-neighborhood fraction c; for every
parameter set it measures, over a shared sample of query points, the
average interval width and how often the interval contains the analytic
derivative of the ground-truth model with respect to x1.

Plotting (width, coverage) pairs per method shows the trade-off directly;
the Pareto frontier picks out the parameter sets no other setting beats on
both axes at once.  A smaller grid than the headline experiment keeps this
demo to roughly a minute; widen the lists to reproduce the full picture.
"""

import warnings

from localexplain.sim import SweepGrid, pareto_frontier, run_sweep

warnings.simplefilter("ignore")  # small-m' fits are intentionally underdetermined

grid = SweepGrid(
    k_values=(1, 2, 4),
    m_values=(32, 128),
    c_values=(0.3, 0.9),
    n=2000,
    p=25,        # query points per parameter set
    B=120,       # bootstrap replicates per query point
    alpha=0.05,
    seed=3,
)
records = run_sweep(grid)


def show(title, rows):
    print(f"\n{title}")
    print(f"{'method':>10} {'k':>2} {'m':>4} {'c':>4} {'avg width':>10} {'coverage':>9}")
    for r in rows:
        print(f"{r.method:>10} {r.k:>2} {r.m:>4} {r.c:>4} {r.avg_width:>10.3f} {r.coverage:>9.2f}")


show("All sweep records:", records)
show("Bootstrap Pareto frontier:", pareto_frontier(records, "bootstrap"))
show("Naive Pareto frontier:", pareto_frontier(records, "naive"))

best_boot = max(r.coverage for r in records if r.method == "bootstrap")
best_naive = max(r.coverage for r in records if r.method == "naive")
print(f"\nBest coverage: bootstrap {best_boot:.2f} vs naive {best_naive:.2f}")
print("The naive intervals hit a coverage ceiling: when the surrogate is "
      "misspecified, no choice of k, m makes the closed-form interval honest.")
