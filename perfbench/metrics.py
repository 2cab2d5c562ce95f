"""Per-layer metrics of a traced run, computed from the tracer's aggregates.

Every count and time is per pass (traced passes run identical work, so a
count divides exactly). A metric whose layer the workload does not exercise
reads 0: a call count of 0 is the measurement, and a per-call time is then
undefined and printed as 0.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict:
    """The end-to-end and per-layer metric lists of BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _per_pass(total: float, passes: int):
    value = total / passes
    return int(value) if float(value).is_integer() else value


def _us_per(total_s: float, count: float) -> float:
    return 1e6 * total_s / count if count else 0.0


def per_layer_metrics(tracer, passes: int, workload, first: dict, overhead: float,
                      restarts: int, solve_labels) -> dict:
    def calls(name: str, groups=None) -> float:
        return tracer.total(name, 0, groups)

    def secs(name: str, groups=None) -> float:
        return tracer.total(name, 1, groups)

    brute_evals = getattr(workload, "evals", 0) if calls("solver.brute_force_capacity") else 0

    def s_per_restart(group: str) -> float:
        n = calls("solver.solve_capacity", (group,)) * restarts
        return secs("solver.solve_capacity", (group,)) / n if n else 0.0

    values = {
        "cli.main.calls": (_per_pass(calls("cli.main"), passes), "count"),
        "cli.main.self_s": (tracer.total("cli.main", 2) / passes, "s"),
        "rates.sweep.s": (secs("rates.sweep") / passes, "s"),
        "rates.us_per_point": (
            _us_per(secs("rates.sweep"), tracer.counters["rates.sweep.points"]), "us"),
        "rates.write.s": (
            (secs("rates.RateCurve.to_csv") + secs("rates.RateCurve.to_json")) / passes, "s"),
        "rates.write.bytes": (_per_pass(tracer.counters["rates.write.bytes"], passes), "bytes"),
        "info.inv_binary_entropy.calls": (
            _per_pass(calls("info.inv_binary_entropy"), passes), "count"),
        "info.inv_binary_entropy.s": (secs("info.inv_binary_entropy") / passes, "s"),
        "info.binary_entropy.calls": (_per_pass(calls("info.binary_entropy"), passes), "count"),
        "models.channel_capacity.calls": (
            _per_pass(calls("models.channel_capacity"), passes), "count"),
        "models.channel_capacity.us_per_call": (
            _us_per(secs("models.channel_capacity"), calls("models.channel_capacity")), "us"),
        "models.link_capacities.calls": (
            _per_pass(calls("models.link_capacities"), passes), "count"),
        "models.link_capacities.s": (secs("models.link_capacities") / passes, "s"),
        "models.load_model.s": (secs("models.load_model") / passes, "s"),
        "solver.solve_capacity.calls": (
            _per_pass(calls("solver.solve_capacity"), passes), "count"),
        "solver.solve_capacity.self_s": (tracer.total("solver.solve_capacity", 2) / passes, "s"),
        "solver.s_per_restart.binary": (s_per_restart("binary"), "s"),
        "solver.s_per_restart.parallel": (s_per_restart("parallel"), "s"),
        "solver.brute_force_capacity.evals": (brute_evals, "count"),
        "solver.brute_force_capacity.us_per_eval": (
            _us_per(secs("solver.brute_force_capacity"), brute_evals * passes), "us"),
        "solver.objective.us_per_call": (
            _us_per(secs("solver.objective"), calls("solver.objective")), "us"),
        "solver.cutset_discrete.s": (secs("solver.cutset_discrete") / passes, "s"),
        "solver.classify_cutset_tightness.s": (
            secs("solver.classify_cutset_tightness") / passes, "s"),
    }
    quality = first.get("quality", {})
    for label in solve_labels:
        q = quality.get(label, {})
        for key in ("rate", "deficit", "cutset_gap", "slack"):
            values[f"solve.{key}_bits.{label}"] = (q.get(key, 0.0), "bits")
    values["trace.overhead_s"] = (overhead, "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
