"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload builds all of its inputs from the workload seed in its
constructor (that is the set-up the benchmark times), then runs identical
passes over them. ``run_pass`` only calls the library; ``check`` verifies the
pass's outputs afterwards, outside the timed region, and returns the pass's
deterministic measures. A failed check, or an operation that raised, is
counted, never dropped.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

# Small fixed solver budget: the two structured restarts (compress-only and
# decode-only) with no random ascent, each finished by the solver's
# deterministic polish. A pass of ten solves then fits a run, and its cost
# does not depend on the seed: with a random ascent of even 20 searches the
# pass time and the rate deficit moved by 10-15% from seed to seed. The seed
# still reaches SolveConfig.seed, though with two restarts the seed commit's
# solver draws random numbers only in the ascent.
SOLVE_RESTARTS = 2
SOLVE_MAX_ITERS = 0

CLOSED_FORM_STEPS = 2001
BRUTE_RESOLUTION = 0.05
SCHEMES_PER_MODEL = 8

# Slack of the rate-ordering checks on closed forms. The CF rates invert h2 by
# bisection to an absolute 1e-12 (inv_binary_entropy's documented tolerance),
# and the rate moves by up to 2 |h2'| ~ 8 times that on these grids: CF reads
# above the cut-set by up to 2.9e-12 at delta = 0. 1e-10 covers that bound;
# the repository's property suite uses 1e-12, but never samples delta = 0.
ORDER_TOL = 1e-10
# channel_capacity stops once its duality gap is below 1e-9 bits; the value it
# returns is I(p) of the input it returns, recomputed here independently.
CAPACITY_TOL = 1e-8

ACHIEVABLE = ("df", "cf", "pdcf")


class Checks:
    """Counts of attempted and failed output checks, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Pass:
    """Runs and times the operations of one pass.

    An operation that raises is recorded as a failure and yields ``None``;
    ``check`` counts it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, str, float]] = []
        self.errors: dict[str, str] = {}

    def call(self, label: str, group: str, fn, *args):
        ctx = self.tracer.op(label, group) if self.tracer else contextlib.nullcontext()
        with ctx:
            start = perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # counted as a failed operation in check()
                self.errors[label] = f"{type(exc).__name__}: {exc}"
                result = None
            self.ops.append((label, group, perf_counter() - start))
        return result

    def group_seconds(self, group: str) -> float:
        return sum(t for _, g, t in self.ops if g == group)


def _check_ran(checks: Checks, p: Pass, label: str, out) -> bool:
    return checks.check(out is not None, f"{label}: {p.errors.get(label, 'no output')}")


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------


class ClosedForm:
    """CLI figure commands and a model-file sweep on dense grids, CSV and JSON.

    Never enters the solver: it exercises ``cli``, ``rates``, ``info`` and the
    ``RateCurve`` writers. The figure parameters are jittered by the seed.
    """

    name = "closed-form"

    def __init__(self, rc, seed: int, workdir: Path, steps: int = CLOSED_FORM_STEPS):
        self.rc = rc
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 1])

        def jitter(base: float, rel: float) -> float:
            return float(base * (1.0 + rng.uniform(-rel, rel)))

        # Jitter of a few percent: the deficit_bits of the curves then moves by
        # about 1% from seed to seed (3.6% at three times this jitter).
        fig4 = {"r1": jitter(1.2, 0.015), "p_z": jitter(0.15, 0.03)}
        fig6 = {"r1": jitter(1.0, 0.015), "power": jitter(0.3, 0.03)}
        fig7 = {"r1": jitter(0.25, 0.03)}
        sweep_model = rc.BinaryMrcd(delta=0.0, p_z=jitter(0.3, 0.03), r1=jitter(0.5, 0.03))
        model_path = workdir / "sweep-model.json"
        rc.dump_model(sweep_model, model_path)

        half = (0.0, 0.5, steps)
        specs = {
            "fig4": (["fig4", "--r1", repr(fig4["r1"]), "--pz", repr(fig4["p_z"])], half,
                     rc.ParallelBinaryMrcd(delta=0.0, **fig4), "delta"),
            "fig6": (["fig6", "--r1", repr(fig6["r1"]), "--power", repr(fig6["power"])],
                     (0.0, 1.0, steps), rc.GaussianMrcd(rho=0.0, **fig6), "rho"),
            "fig7": (["fig7", "--r1", repr(fig7["r1"]), "--pz", "0.5"], half,
                     rc.BinaryMrcd(delta=0.0, p_z=0.5, **fig7), "delta"),
            "sweep": (["sweep", "--model", str(model_path), "--param", "delta"], half,
                      sweep_model, "delta"),
        }
        # (label, figure, format, argv, grid, model, param); fig4 CSV runs twice a pass
        self.commands = []
        for fig, (argv, grid, model, param) in specs.items():
            for fmt in ("csv", "json") if fig != "sweep" else ("csv",):
                self.commands.append((f"{fig}-{fmt}", fig, fmt, argv, grid, model, param))
        self.commands.insert(1, ("fig4-csv-again",) + self.commands[0][1:])
        self._references: dict[str, object] = {}

    def _out(self, label: str, fmt: str) -> Path:
        return self.workdir / f"{label}.{fmt}"

    def run_pass(self, p: Pass) -> dict:
        outs = {}
        for label, _, fmt, argv, (lo, hi, n), _, _ in self.commands:
            full = argv + ["--grid", f"{lo!r}:{hi!r}:{n}", "--format", fmt,
                           "--out", str(self._out(label, fmt))]
            outs[label] = p.call(label, "cli", self.rc.cli.main, full)
        return outs

    def _reference(self, fig: str, grid, model, param):
        """The in-memory curve the CLI output must reproduce (computed once)."""
        if fig not in self._references:
            self._references[fig] = self.rc.sweep(model, param, np.linspace(*grid))
        return self._references[fig]

    def check(self, outs: dict, checks: Checks, p: Pass) -> dict:
        items = 0
        deficit = 0.0
        for label, fig, fmt, _, grid, model, param in self.commands:
            code = outs[label]
            if not _check_ran(checks, p, label, code) or not checks.check(
                code == 0, f"{label}: exit code {code}"
            ):
                continue
            ref = self._reference(fig, grid, model, param)
            schemes = list(ref.points)
            path = self._out(label, fmt)
            if fmt == "csv":
                rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
                expected = [["param"] + schemes] + [
                    [f"{x:.12g}"] + [f"{ref.points[s][i].value:.12g}" for s in schemes]
                    for i, x in enumerate(ref.param_values)
                ]
                checks.check(rows == expected, f"{label}: CSV differs from the in-memory curve")
                # the CSV holds 12 digits; order the exact values it was checked against
                table = {s: [pt.value for pt in ref.points[s]] for s in schemes}
            else:
                payload = json.loads(path.read_text(encoding="utf-8"))
                table = {s: [pt["value"] for pt in pts] for s, pts in payload["points"].items()}
                same = (
                    payload["param_values"] == [float(x) for x in ref.param_values]
                    and sorted(table) == sorted(schemes)
                    and all(table[s] == [pt.value for pt in ref.points[s]] for s in schemes)
                )
                checks.check(same, f"{label}: JSON differs from the in-memory curve")
            cut = table.get("cutset", [])
            rows_ok = bool(cut) and all(
                table[s][i] <= cut[i] + ORDER_TOL
                for s in ACHIEVABLE if s in table for i in range(len(cut))
            )
            checks.check(rows_ok, f"{label}: an achievable rate exceeds the cut-set bound")
            if "capacity" in table:
                checks.check(table["capacity"] == table["cf"], f"{label}: capacity != cf")
            items += len(cut) * len(table)
            if fmt == "json":
                deficit += sum(
                    max(0.0, cut[i] - max(table[s][i] for s in ACHIEVABLE))
                    for i in range(len(cut))
                )
        first, again = self._out("fig4-csv", "csv"), self._out("fig4-csv-again", "csv")
        if first.exists() and again.exists():
            same = first.read_bytes() == again.read_bytes()
        else:
            same = False
        checks.check(same, "fig4 CSV written twice in one pass differs")
        return {"items": items, "deficit_bits": float(deficit)}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def solve_points(rc) -> list[tuple[str, str, object]]:
    """(label, group, shorthand model) of every solve point."""
    pts = [(f"bin-d{round(d * 100):03d}", "binary", rc.BinaryMrcd(delta=d, p_z=0.5, r1=0.25))
           for d in (0.0, 0.1, 0.25)]
    pts += [
        ("case1", "binary", rc.BinaryMrcd(delta=0.1, p_z=0.0, r1=0.25)),
        ("case2", "binary", rc.BinaryMrcd(delta=0.0, p_z=0.15, r1=0.25)),
        ("case3", "binary", rc.BinaryMrcd(delta=0.0, p_z=0.0, r1=0.5)),
        ("case4", "binary", rc.BinaryMrcd(delta=0.1, p_z=0.3, r1=1.3)),
    ]
    pts += [(f"fig4-d{round(d * 100):03d}", "parallel",
             rc.ParallelBinaryMrcd(delta=d, p_z=0.15, r1=1.2)) for d in (0.02, 0.1, 0.3)]
    return pts


CLI_SOLVE_POINT = "bin-d010"


class Solve:
    """``solve_capacity`` on the 2-ary binary anchors and three 4-ary fig4 points.

    The solver does almost all the work; ``rates`` is used only to build the
    quality references, in ``check``. One anchor also goes through
    ``cli solve``.
    """

    name = "solve"

    def __init__(self, rc, seed: int, workdir: Path):
        self.rc = rc
        workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = rc.SolveConfig(restarts=SOLVE_RESTARTS, max_iters=SOLVE_MAX_ITERS, seed=seed)
        self.points = [(label, group, shorthand, rc.as_discrete(shorthand))
                       for label, group, shorthand in solve_points(rc)]
        model_path = workdir / f"{CLI_SOLVE_POINT}.json"
        rc.dump_model(next(sh for lbl, _, sh, _ in self.points if lbl == CLI_SOLVE_POINT),
                      model_path)
        self.cli_out = workdir / "cli-solve.json"
        self.cli_argv = ["solve", "--model", str(model_path), "--out", str(self.cli_out),
                         "--restarts", str(SOLVE_RESTARTS), "--seed", str(seed),
                         "--max-iters", str(SOLVE_MAX_ITERS)]
        self._refs: dict[str, tuple[float, float]] = {}

    def run_pass(self, p: Pass) -> dict:
        outs = {label: p.call(label, group, self.rc.solve_capacity, m, self.cfg)
                for label, group, _, m in self.points}
        outs["cli-solve"] = p.call("cli-solve", "cli", self.rc.cli.main, self.cli_argv)
        return outs

    def reference(self, label: str, shorthand, m) -> tuple[float, float]:
        """(reference rate, cut-set bound) of one point (computed once).

        Fair-state anchors use the closed-form capacity, case1-case4 the
        cut-set bound (tight there), and the fig4 points the best of DF, CF
        and pDCF: below delta ~ 0.0292 the closed-form pDCF reads under DF.
        """
        if label not in self._refs:
            rc = self.rc
            cut = rc.cutset_discrete(m)
            if label.startswith("bin-"):
                ref = rc.binary_capacity_pz_half(shorthand).value
            elif label.startswith("case"):
                ref = cut
            else:
                ref = max(f(shorthand).value for f in (
                    rc.parallel_binary_df, rc.parallel_binary_cf, rc.parallel_binary_pdcf))
            self._refs[label] = (ref, cut)
        return self._refs[label]

    def check(self, outs: dict, checks: Checks, p: Pass) -> dict:
        tol = self.cfg.feas_tol
        quality = {}
        for label, _, shorthand, m in self.points:
            report = outs[label]
            if not _check_ran(checks, p, label, report):
                continue
            ref, cut = self.reference(label, shorthand, m)
            rate = report.best_rate
            checks.check(0.0 <= rate <= cut + tol,
                         f"{label}: rate {rate!r} outside [0, cut-set {cut!r}]")
            checks.check(report.constraint_slack >= -tol,
                         f"{label}: constraint slack {report.constraint_slack!r} < -{tol}")
            quality[label] = {"rate": float(rate), "deficit": float(max(0.0, ref - rate)),
                              "cutset_gap": float(cut - rate),
                              "slack": float(report.constraint_slack)}
        code = outs["cli-solve"]
        if _check_ran(checks, p, "cli-solve", code) and checks.check(
            code == 0, f"cli solve: exit code {code}"
        ):
            lib = outs[CLI_SOLVE_POINT]
            expected = (json.loads(json.dumps(self.rc.report_to_dict(lib)))
                        if lib is not None else None)
            got = json.loads(self.cli_out.read_text(encoding="utf-8"))
            checks.check(got == expected, "cli solve differs from the library solve")
        return {"items": len(self.points) + 1,
                "deficit_bits": sum(q["deficit"] for q in quality.values()),
                "quality": quality}


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# (|Y_R|, |Z|, links) of the random models of a pass. The shapes are fixed so
# that the brute-force enumeration size, which sets most of a pass's cost, does
# not depend on the seed; the tables are random. "real" models have random
# relay and direct links, "pipe" a bit-pipe relay link and no direct link, and
# "weak" a random relay link and the fixed WEAK_LINK as direct link.
BOUNDS_SLOTS = ((2, 2, "real"), (2, 3, "real"), (3, 2, "real"), (2, 2, "weak"),
                (2, 3, "real"), (2, 3, "pipe"))
# A direct link whose two rows nearly coincide: Blahut-Arimoto needs tens of
# milliseconds for it, against about one for the noisy-map links. It is fixed
# so that this cost is the same in every run.
WEAK_LINK = np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]])
# Fair-state binary anchors, whose capacity is known in closed form: the
# deficit of the brute-force oracle on them is the workload's quality measure.
BOUNDS_ANCHORS = (0.0, 0.1, 0.25)


def _compositions(parts: int, steps: int) -> int:
    return math.comb(steps + parts - 1, parts - 1)


def brute_force_evals(n_x1: int, n_yr: int, resolution: float) -> int:
    """Objective evaluations ``brute_force_capacity`` makes at its default
    cardinalities (|U| = 1, |Yhat| = 2), from its arguments.

    Simplex compositions of the joint grid times the column-grid compositions
    raised to |Y_R| |U|.
    """
    steps = max(1, round(1.0 / resolution))
    return _compositions(n_x1, steps) * _compositions(2, steps) ** n_yr


def _noisy_map(rng, n_in: int, n_out: int, n_z: int) -> np.ndarray:
    """Random channel [input, state, output]: row (x, z) puts 1 - eps on output
    x and spreads eps ~ U(0.05, 0.5) at random, so the state sets the noise.

    Rows that nearly coincide make Blahut-Arimoto slow (up to seconds per
    call, or no convergence in its 100k-iteration budget), so uniformly random
    rows, or outputs shifted by the state (whose state-averaged rows
    ``classify_cutset_tightness`` feeds to Blahut-Arimoto), would make the
    workload's cost and outcome hinge on single draws. These rows stay apart:
    under 25 ms for a model's link capacities, cut-set and classification.
    """
    chan = np.empty((n_in, n_z, n_out))
    for x in range(n_in):
        for z in range(n_z):
            eps = rng.uniform(0.05, 0.5)
            chan[x, z] = eps * rng.dirichlet(np.ones(n_out))
            chan[x, z, x] += 1.0 - eps
    return chan


def _random_model(rc, rng, n_yr: int, n_z: int, links: str):
    p_z = rng.dirichlet(np.ones(n_z))
    chan_sr = _noisy_map(rng, 2, n_yr, n_z)
    if links == "pipe":
        trivial = np.ones((1, n_z, 1))
        return rc.DiscreteOrcd(p_z=p_z, chan_sr=chan_sr, chan_rd=trivial, chan_sd=trivial,
                               r1_pipe=float(rng.uniform(0.1, 0.6)))
    # |input| <= |output| keeps the noisy-map rows apart
    n_in, n_out = ((2, 2), (2, 3), (3, 3))[int(rng.integers(3))]
    chan_rd = _noisy_map(rng, n_in, n_out, n_z)
    if links == "weak":
        chan_sd = np.repeat(WEAK_LINK[:, None, :], n_z, axis=1)
    else:
        n_in, n_out = ((2, 2), (2, 3), (3, 3))[int(rng.integers(3))]
        chan_sd = _noisy_map(rng, n_in, n_out, n_z)
    return rc.DiscreteOrcd(p_z=p_z, chan_sr=chan_sr, chan_rd=chan_rd, chan_sd=chan_sd)


def _random_scheme(rc, rng, n_yr: int):
    card_u = int(rng.integers(1, 4))
    card_yhat = int(rng.integers(2, 4))
    joint = rng.dirichlet(np.ones(card_u * 2)).reshape(card_u, 2)
    test = rng.dirichlet(np.ones(card_yhat), size=(n_yr, card_u))
    return rc.AuxiliaryScheme(joint_ux1=joint, test_channel=test,
                              card_u=card_u, card_yhat=card_yhat)


def _achieved_information(rc, p_x: np.ndarray, chan: np.ndarray, p_z: np.ndarray) -> float:
    """I(X; Y, Z) of input ``p_x`` on ``chan[x, z, y]``, via ``info.mutual_information``."""
    w = (chan * p_z[None, :, None]).reshape(chan.shape[0], -1)
    joint = rc.JointPmf(p_x[:, None] * w, axis_labels=("X", "YZ"))
    return rc.mutual_information(joint, "X", "YZ")


class Bounds:
    """Bounds, link capacities, the grid oracle and ``objective`` on random models.

    Blahut-Arimoto does real work only here: most models have real relay and
    direct links (seeded noisy maps, one fixed weak link). The brute-force
    oracle drives the same evaluator as the solver, in a plain enumeration
    loop.
    """

    name = "bounds"

    def __init__(self, rc, seed: int, workdir: Path, slots=BOUNDS_SLOTS, anchors=BOUNDS_ANCHORS):
        self.rc = rc
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        self.models = []  # (label, group, model, schemes, capacity reference or None)
        for i, (n_yr, n_z, links) in enumerate(slots):
            m = _random_model(rc, rng, n_yr, n_z, links)
            schemes = [_random_scheme(rc, rng, n_yr) for _ in range(SCHEMES_PER_MODEL)]
            self.models.append((f"model{i}", "random", m, schemes, None))
        for d in anchors:
            shorthand = rc.BinaryMrcd(delta=d, p_z=0.5, r1=0.25)
            schemes = [_random_scheme(rc, rng, 2) for _ in range(SCHEMES_PER_MODEL)]
            self.models.append((f"anchor-d{round(d * 100):03d}", "anchor",
                                rc.as_discrete(shorthand), schemes, shorthand))
        for label, _, m, _, _ in self.models:
            rc.dump_model(m, workdir / f"{label}.json")
        self.evals = sum(brute_force_evals(m.n_x1, m.n_yr, BRUTE_RESOLUTION)
                         for _, _, m, _, _ in self.models)
        self._capacities: dict[str, float] = {}

    def _process(self, label: str, m, schemes) -> dict:
        rc = self.rc
        out = self.workdir / f"{label}-cases.json"
        return {
            "caps": rc.link_capacities(m),
            "cutset": rc.cutset_discrete(m),
            "cases": rc.classify_cutset_tightness(m),
            "cli": rc.cli.main(["classify", "--model", str(self.workdir / f"{label}.json"),
                                "--out", str(out)]),
            "cli_out": out,
            "oracle": rc.brute_force_capacity(m, BRUTE_RESOLUTION),
            "objectives": [rc.objective(m, s) for s in schemes],
        }

    def run_pass(self, p: Pass) -> dict:
        return {label: p.call(label, group, self._process, label, m, schemes)
                for label, group, m, schemes, _ in self.models}

    def check(self, outs: dict, checks: Checks, p: Pass) -> dict:
        tol = self.rc.SolveConfig().feas_tol
        deficit = 0.0
        for label, _, m, _, shorthand in self.models:
            res = outs[label]
            if not _check_ran(checks, p, label, res):
                continue
            cut, caps = res["cutset"], res["caps"]
            checks.check(res["oracle"] <= cut + tol,
                         f"{label}: oracle {res['oracle']!r} above cut-set {cut!r}")
            for k, (rate, lhs) in enumerate(res["objectives"]):
                if lhs <= caps.r1:
                    checks.check(rate <= cut + tol,
                                 f"{label}: feasible scheme {k} rate {rate!r} "
                                 f"above cut-set {cut!r}")
            pz = m.p_z.probs
            links = [("direct", caps.r2, caps.argmax_px2.probs, m.chan_sd)]
            if m.r1_pipe is None:
                links.append(("relay", caps.r1, caps.argmax_pxr.probs, m.chan_rd))
            for name, value, p_x, chan in links:
                achieved = _achieved_information(self.rc, p_x, chan, pz)
                checks.check(abs(achieved - value) <= CAPACITY_TOL,
                             f"{label}: {name} link input achieves {achieved!r}, not {value!r}")
            if checks.check(res["cli"] == 0, f"{label}: cli classify exit code {res['cli']}"):
                got = json.loads(res["cli_out"].read_text(encoding="utf-8"))
                checks.check(got == {"cases": sorted(res["cases"])},
                             f"{label}: cli classify differs from the library")
            if shorthand is not None:
                if label not in self._capacities:
                    self._capacities[label] = self.rc.binary_capacity_pz_half(shorthand).value
                deficit += max(0.0, self._capacities[label] - res["oracle"])
        return {"items": len(self.models), "deficit_bits": float(deficit)}


WORKLOADS = {w.name: w for w in (ClosedForm, Solve, Bounds)}
