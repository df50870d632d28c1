"""Compare two result sets of e0 against the benchmark's own bounds.

A *set* (``run --rounds 3``) holds several interleaved runs of every
workload; a metric's value is the median over the rounds.  Robust location
and scale only — median and quartiles — so one noisy run on a shared host
does not flap the verdict.  Per (metric, workload):

* ``regression``  the candidate's median is worse than the base's by more
  than the metric's bound;
* ``unresolved``  the base's own inter-quartile spread exceeds the bound, so
  the pair cannot tell (unless every candidate run beats every base run);
* ``ok``          otherwise.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .stats import quartiles

__all__ = ["EXTRA_BOUNDS", "load_values", "compare_sets", "format_rows"]

# Workload-level metrics BENCHMARK.json can only list under per_layer (its
# end_to_end metrics must exist on every workload): (better, bound).
EXTRA_BOUNDS: Dict[str, Tuple[str, float]] = {
    "sync_devices_per_s": ("higher", 0.10),
    "resume_p50_ms": ("lower", 0.15),
    "drift_to_decision_s": ("lower", 0.15),
    "state_mb_per_round": ("lower", 0.0),
    "failed_share": ("lower", 0.0),
}


def load_values(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per round`` from a result-set file."""
    with open(path) as handle:
        body = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in body["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(float(metric["value"]))
    return values


def compare_sets(base, candidate, spec) -> List[Dict[str, object]]:
    """One row per gated (workload, metric) present in both sets."""
    gates = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    gates.update(EXTRA_BOUNDS)
    rows = []
    for (workload, name), base_values in sorted(base.items()):
        if name not in gates or (workload, name) not in candidate:
            continue
        better, bound = gates[name]
        cand_values = candidate[(workload, name)]
        b1, b2, b3 = quartiles(base_values)
        c1, c2, c3 = quartiles(cand_values)
        if b2 == 0 and c2 == 0:
            continue  # the metric does not apply to this workload
        sign = 1.0 if better == "lower" else -1.0
        worse = sign * (c2 - b2) / abs(b2) if b2 else float("inf")
        spread = (b3 - b1) / abs(b2) if b2 else 0.0
        if better == "lower":
            dominates = max(cand_values) < min(base_values)
        else:
            dominates = min(cand_values) > max(base_values)
        if worse > bound:
            verdict = "regression"
        elif spread > bound and not dominates:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append(dict(workload=workload, metric=name, bound=bound, base=(b1, b2, b3),
                         candidate=(c1, c2, c3), worse=worse, spread=spread, verdict=verdict))
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<17}{'metric':<22}{'base q1/median/q3':<34}{'candidate q1/median/q3':<34}"
             f"{'worse':>8}{'bound':>7}  verdict"]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        cand = "/".join(f"{v:.4g}" for v in row["candidate"])
        lines.append(f"{row['workload']:<17}{row['metric']:<22}{base:<34}{cand:<34}"
                     f"{row['worse']:>+8.1%}{row['bound']:>7.0%}  {row['verdict']}")
    return "\n".join(lines)
