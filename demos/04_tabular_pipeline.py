"""File-based pipeline for a classifier's probability outputs.

Mimics the workflow for a real tabular model: predictions are collected
once into a CSV (mixed continuous and categorical features, probability
outputs), a JSON schema declares the feature types, and explanations are
produced from those files alone.  Probability outputs are fit on the
log-odds scale and scores are mapped back to probability units, so the
importance of a feature reads as "how much the predicted probability moves".

The same run is available through the command line:

    localexplain explain --data credit.csv --schema credit_schema.json \
        --query 0 --k 2 --m 40 --c 0.9 --B 1000 --naive-ci
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import localexplain as lx

# --- pretend this came from a trained classifier --------------------------
# p(approve) rises with income, falls with debt, and shifts with credit
# history; the tanh saturation keeps it from being exactly polynomial, so
# the local surrogate is (realistically) misspecified
rng = np.random.default_rng(2)
n = 400
income = rng.normal(52_000, 18_000, n)
debt = rng.normal(12_000, 6_000, n)
history = rng.choice(["fair", "good", "poor"], size=n, p=(0.5, 0.3, 0.2))
iz = (income - income.mean()) / income.std()
dz = (debt - debt.mean()) / debt.std()
logit = 1.6 * np.tanh(0.8 * iz - 1.1 * dz) + 0.9 * (history == "good") - 0.4 * (history == "poor")
prob = 1.0 / (1.0 + np.exp(-logit))

# --- write the predictions and the schema, then load them back ------------
with tempfile.TemporaryDirectory(prefix="localexplain_demo_") as workdir:
    data_path = Path(workdir) / "credit.csv"
    rows = ["income,debt,history,f"]
    rows += [f"{a:.2f},{b:.2f},{h},{p:.6f}" for a, b, h, p in zip(income, debt, history, prob)]
    data_path.write_text("\n".join(rows) + "\n")

    schema_path = Path(workdir) / "credit_schema.json"
    schema_path.write_text(json.dumps({
        "features": [
            {"name": "income", "kind": "continuous"},
            {"name": "debt", "kind": "continuous"},
            # no baseline declared: the loader defaults it to the modal category
            {"name": "history", "kind": "categorical", "categories": ["fair", "good", "poor"]},
        ],
        "output_kind": "probability",
    }, indent=2))

    schema = lx.FeatureSchema.from_json(schema_path.read_text())
    dataset = lx.load_dataset(data_path, schema)
print(f"loaded {dataset.n} rows; baseline for 'history' resolved to "
      f"{dataset.schema.feature('history').baseline!r}")

# --- explain one applicant from the loaded data ---------------------------
applicant = lx.QueryPoint.from_mapping(
    dataset.schema, {"income": 38_000.0, "debt": 21_000.0, "history": "poor"}
)

# probability outputs force function differences (gradients are meaningless
# after the log-odds transform); deltas default to half a feature's stddev
config = lx.ExplainConfig(degree=2, m=40, kind="function_difference")
problem = lx.build_problem(dataset, applicant, config)
scores = problem.point_scores()
intervals, _ = lx.bootstrap_from_problem(
    problem, lx.BootstrapConfig(B=1000, c=0.9, alpha=0.05, seed=0)
)

print(f"\nresolved perturbation steps: "
      + ", ".join(f"{k}={v:,.0f}" for k, v in problem.deltas.items()))
print(f"\n{'feature':>8} {'score (prob units)':>19} {'95% uncertainty interval':>26}")
for s, iv in zip(scores, intervals):
    print(f"{s.feature:>8} {s.value:>+19.4f} [{iv.lower:+.4f}, {iv.upper:+.4f}]")

print("\nReading: for this applicant the 'poor' credit history moves the "
      "approval probability the most; income and debt nudge it either way "
      "by under a percentage point, and each interval shows how much the "
      "estimate wobbles across sub-neighborhoods of the query data.")
