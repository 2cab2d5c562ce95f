"""Tests of the benchmark itself: metric names, checks that catch wrong values,
tracing that leaves outputs unchanged, and the run without sources.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import relaycap as rc  # noqa: E402
import relaycap.cli  # noqa: E402,F401

from metrics import declared, per_layer_metrics  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import Bounds, Checks, ClosedForm, Pass, Solve, solve_points  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_the_code():
    spec = declared()
    names = [m["name"] for group in spec.values() for m in group]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    labels = [label for label, _, _ in solve_points(rc)]
    produced = per_layer_metrics(Tracer(), 1, None, {}, 0.0, 1, labels)
    assert {n: m["unit"] for n, m in produced.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def _fake_solve_outputs(workload: Solve, above: str | None) -> dict:
    outs = {}
    for label, _, shorthand, m in workload.points:
        _, cut = workload.reference(label, shorthand, m)
        rate = cut + 1e-3 if label == above else cut - 1e-2
        outs[label] = SimpleNamespace(best_rate=rate, constraint_slack=0.0)
    outs["cli-solve"] = None  # no CLI result: one more counted failure, in both runs
    return outs


def test_solve_result_above_the_cutset_is_counted(tmp_path):
    wl = Solve(rc, 0, tmp_path)
    honest, injected = Checks(), Checks()
    wl.check(_fake_solve_outputs(wl, None), honest, Pass())
    wl.check(_fake_solve_outputs(wl, "case2"), injected, Pass())
    assert injected.attempted == honest.attempted
    assert injected.failed == honest.failed + 1
    assert any(f.startswith("case2: rate") for f in injected.failures)


def test_raised_operation_and_tampered_csv_are_counted(tmp_path):
    wl = ClosedForm(rc, 3, tmp_path, steps=21)
    clean = Checks()
    outs = wl.run_pass(Pass())
    wl.check(outs, clean, Pass())
    assert clean.failed == 0 and clean.attempted > 0

    path = tmp_path / "fig7-csv.csv"
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    cells = lines[5].split(",")
    cells[2] = "0.123"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tampered = Checks()
    wl.check(outs, tampered, Pass())
    assert tampered.failed == 1
    assert "fig7-csv: CSV differs" in tampered.failures[0]

    path.write_text(original, encoding="utf-8")
    p = Pass()
    failing = dict(outs, **{"fig6-json": p.call("fig6-json", "cli", lambda: 1 / 0)})
    raised = Checks()
    wl.check(failing, raised, p)
    assert raised.failed == 1 and "ZeroDivisionError" in raised.failures[0]


def _pass_outputs(wl, tracer):
    p = Pass(tracer)
    if tracer is not None:
        tracer.install(rc)
    try:
        outs = wl.run_pass(p)
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks = Checks()
    measures = wl.check(outs, checks, p)
    files = {f.name: f.read_bytes() for f in sorted(wl.workdir.iterdir())}
    return measures, files, checks


@pytest.mark.parametrize("make", [
    lambda d: ClosedForm(rc, 5, d, steps=31),
    lambda d: Bounds(rc, 5, d, slots=((2, 2, "weak"), (2, 3, "pipe")), anchors=(0.1,)),
])
def test_traced_and_untraced_passes_write_identical_outputs(tmp_path, make):
    wl = make(tmp_path)
    plain = _pass_outputs(wl, None)
    tracer = Tracer()
    traced = _pass_outputs(wl, tracer)
    assert plain[0] == traced[0]
    assert plain[1] == traced[1]
    assert plain[2].failed == traced[2].failed == 0
    assert tracer.spans and all(op["group"] for op in tracer.ops)
    ids = {s[0] for s in tracer.spans}
    assert any(parent in ids for _, parent, *_ in tracer.spans)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = rc.models.link_capacities
    tracer = Tracer()
    tracer.install(rc)
    try:
        wrapped = rc.models.link_capacities
        assert wrapped is not original
        assert rc.solver.link_capacities is wrapped and rc.link_capacities is wrapped
        assert rc.cli.sweep is rc.rates.sweep is rc.sweep
        rc.link_capacities(rc.embed_binary(rc.BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
    finally:
        tracer.uninstall()
    assert rc.models.link_capacities is original and rc.solver.link_capacities is original
    assert tracer.total("models.link_capacities", 0) == 1
    assert {name.split(".")[0] for _, _, _, name, _, _ in tracer.spans} <= set(LAYERS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_has_exactly_the_expected_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["closed-form", "solve", "bounds"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
