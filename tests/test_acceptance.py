"""End-to-end acceptance checks with stated tolerances.

Each test prints one PASS/FAIL line in the terminal summary so a run of
``pytest -v`` doubles as the acceptance report. Budgets are tuned so the
whole module stays well under the runtime limits asserted in the slow
checks (the separation report under 5 minutes, the min-max comparison
under 10 minutes).
"""

import json
import time

import numpy as np

import conftest
from bcbounds.channel import Channel
from bcbounds.cli import main
from bcbounds.counterexample import (
    analytic_minimum,
    component,
    f_closed_form,
    lambda_curve_analytic,
    product_channel,
    uv_on_product,
    verify_separation,
)
from bcbounds.marton import (
    Cardinalities,
    build_lambda_curve,
    check_factorization,
    check_min_max_equality,
    lambda_sr_global,
    lambda_weights,
    marton_sum_rate,
    marton_table,
    maximize_lambda_sr_at_input,
)
from bcbounds.objectives import InfoFunctional, ent_terms, mi_terms
from bcbounds.regions import region_support
from bcbounds.search import SearchConfig
from oracles import (
    endpoint_sr,
    f_envelope_oracle,
    pointwise,
    tensor_objective,
    uniform_input_check,
)

CFG = SearchConfig(restarts=8, max_iters=150, seed=0)


def record(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    conftest.acceptance_lines.append(f"[{criterion}] {status}  {detail}")


def bsc_pair(py, pz):
    my = np.array([[1 - py, py], [py, 1 - py]])
    mz = np.array([[1 - pz, pz], [pz, 1 - pz]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def bec_bsc_pair(eps, p):
    my = np.array([[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]])
    mz = np.array([[1 - p, p], [p, 1 - p]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def random_channel(rng, nx, ny, nz, det=None):
    if det is None:
        q = rng.random((nx, ny, nz))
        q /= q.sum(axis=(1, 2), keepdims=True)
        return Channel(q)
    q = np.zeros((nx, ny, nz))
    if det == "y":
        labels = rng.integers(0, ny, size=nx)
        cond = rng.random((nx, nz))
        cond /= cond.sum(axis=1, keepdims=True)
        for x in range(nx):
            q[x, labels[x], :] = cond[x]
    else:
        labels = rng.integers(0, nz, size=nx)
        cond = rng.random((nx, ny))
        cond /= cond.sum(axis=1, keepdims=True)
        for x in range(nx):
            q[x, :, labels[x]] = cond[x]
    return Channel(q)


def test_ac01_golden_separation():
    t0 = time.perf_counter()
    rep = verify_separation(seed=0)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in rep.checks}
    lam_star, analytic = analytic_minimum()
    marton = by_name["marton_numeric_on_product"].computed
    witness = by_name["uv_at_witness"].computed
    free = by_name["uv_free_search"].computed
    ok = (
        lam_star == 0.5
        and abs(analytic - 8 / 3) <= 1e-12
        and abs(marton - 8 / 3) <= 5e-3
        and abs(witness - 44 / 15) <= 1e-9
        and free >= 44 / 15 - 1e-6
        and rep.passed
        and rep.converged
        and elapsed <= 300
    )
    record(
        "AC01 golden separation",
        ok,
        f"analytic=8/3 at lam*=1/2, marton={marton:.6f} (tol 5e-3), "
        f"witness={witness:.10f} (tol 1e-9), free={free:.6f}, {elapsed:.1f}s",
    )
    assert abs(analytic - 8 / 3) <= 1e-12 and lam_star == 0.5
    assert abs(marton - 8 / 3) <= 5e-3
    assert abs(witness - 44 / 15) <= 1e-9
    assert free >= 44 / 15 - 1e-6
    assert rep.passed and rep.converged
    assert elapsed <= 300


def test_ac02_component_lambda_curve():
    c = component("z")
    lambdas = [k / 10 for k in range(11)]
    curve = build_lambda_curve(c, lambdas, CFG)
    errs = [abs(s.value - lambda_curve_analytic(s.lam, "z")) for s in curve.samples]
    # midpoint convexity of the analytic curve itself
    analytic = [lambda_curve_analytic(lam, "z") for lam in lambdas]
    convex_ok = all(
        analytic[i] <= (analytic[i - 1] + analytic[i + 1]) / 2 + 1e-6
        for i in range(1, len(lambdas) - 1)
    )
    ok = max(errs) <= 5e-3 and convex_ok and not curve.hyperplane_violations
    record(
        "AC02 lambda curve",
        ok,
        f"11 points, max |numeric-analytic|={max(errs):.2e} (tol 5e-3), "
        f"midpoint convexity slack 1e-6",
    )
    assert max(errs) <= 5e-3
    assert convex_ok
    assert curve.hyperplane_violations == []


def test_ac03_f_function_oracle():
    errs = []
    for k in range(33):
        x = k / 32
        errs.append(abs(f_envelope_oracle(x, resolution=32) - f_closed_form(x)))
    ok = max(errs) <= 1e-6
    record(
        "AC03 f-function oracle",
        ok,
        f"33 grid points, max |oracle-closed form|={max(errs):.2e} (tol 1e-6)",
    )
    assert max(errs) <= 1e-6


def test_ac04_uniform_input_optimality():
    rep = uniform_input_check(
        det="z", resolution=16, lambdas=(0.0, 0.5, 1.0), tolerance=2e-3
    )
    ok = rep.passed and rep.max_excess <= 2e-3
    record(
        "AC04 uniform input",
        ok,
        f"grid 1/16 on the 4-simplex, lambdas (0, 1/2, 1), "
        f"max excess over uniform={rep.max_excess:.2e} (tol 2e-3)",
    )
    assert rep.passed
    assert rep.max_excess <= 2e-3


def test_ac05_min_max_equality():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    gaps = []
    for _ in range(5):
        c = random_channel(rng, 2, 2, 2)
        rep = check_min_max_equality(c, CFG, px_resolution=12)
        gaps.append(rep.max_pairwise_gap)
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 0.02 and elapsed <= 600
    record(
        "AC05 min-max equality",
        ok,
        f"5 random 2x2x2 channels, grid 1/12, "
        f"max pairwise gap={max(gaps):.2e} (tol 0.02), {elapsed:.1f}s",
    )
    assert max(gaps) <= 0.02
    assert elapsed <= 600


def test_ac06_factorization():
    rng = np.random.default_rng(7)
    worst_abs = 0.0
    worst_signed = 0.0
    for trial in range(3):
        det_side = ("y", "z", "y")[trial]
        c1 = random_channel(rng, 3, 2, 2, det=det_side)
        c2 = random_channel(rng, int(rng.integers(2, 4)), 2, 2)
        for lam in (0.0, 0.5, 1.0):
            rep = check_factorization(c1, c2, lam, CFG)
            worst_abs = max(worst_abs, abs(rep.gap))
            worst_signed = min(worst_signed, rep.gap)
            assert rep.holds
    ok = worst_abs <= 5e-3 and worst_signed >= -1e-6
    record(
        "AC06 factorization",
        ok,
        f"3 random products with a deterministic link, lambdas (0, 1/2, 1), "
        f"max |gap|={worst_abs:.2e} (tol 5e-3), min gap={worst_signed:+.2e} (slack 1e-6)",
    )
    assert worst_abs <= 5e-3
    assert worst_signed >= -1e-6


def test_ac07_class_shapes():
    lambdas = [k / 5 for k in range(6)]
    # degraded pair: the weighted sum rate curve is flat
    deg = bsc_pair(0.05, 0.2)
    curve = build_lambda_curve(deg, lambdas, CFG)
    vals = [s.value for s in curve.samples]
    spread = max(vals) - min(vals)
    # more capable but not less noisy: affine at a fixed input law
    mc = bec_bsc_pair(0.4, 0.1)
    px = np.full(mc.nx, 1.0 / mc.nx)
    fixed = [maximize_lambda_sr_at_input(mc, lam, px, CFG).value for lam in lambdas]
    chord = [fixed[0] + (fixed[-1] - fixed[0]) * lam for lam in lambdas]
    dev = max(abs(a - b) for a, b in zip(fixed, chord))
    ok = spread <= 2e-3 and dev <= 2e-3
    record(
        "AC07 class shapes",
        ok,
        f"degraded curve spread={spread:.2e} (tol 2e-3), "
        f"fixed-input chord deviation={dev:.2e} (tol 2e-3)",
    )
    assert spread <= 2e-3
    assert dev <= 2e-3


def test_ac08_endpoint_oracle():
    rng = np.random.default_rng(3)
    chans = [
        component("y"),
        component("z"),
        bsc_pair(0.1, 0.3),
        bec_bsc_pair(0.4, 0.1),
        random_channel(rng, 2, 2, 2),
        random_channel(rng, 3, 3, 2),
    ]
    worst_diff = 0.0
    worst_slack = np.inf
    for c in chans:
        e0 = endpoint_sr(c, 0, CFG)
        e1 = endpoint_sr(c, 1, CFG)
        g0 = lambda_sr_global(c, 0.0, CFG)
        g1 = lambda_sr_global(c, 1.0, CFG)
        m = marton_sum_rate(c, CFG)
        worst_diff = max(worst_diff, abs(e0.value - g0.value), abs(e1.value - g1.value))
        worst_slack = min(worst_slack, min(e0.value, e1.value) - m.value)
    ok = worst_diff <= 2e-3 and worst_slack >= -1e-6
    record(
        "AC08 endpoint oracle",
        ok,
        f"6 channels, max |endpoint-global|={worst_diff:.2e} (tol 2e-3), "
        f"min(endpoints)-marton={worst_slack:+.2e} (slack 1e-6)",
    )
    assert worst_diff <= 2e-3
    assert worst_slack >= -1e-6


def test_ac09_region_consistency():
    pc = product_channel()
    cfg = SearchConfig(restarts=6, max_iters=150, seed=0)
    semi = region_support(pc, "semi_deterministic", (0, 1, 1), cfg, fix_r0=0.0)
    outer = region_support(pc, "product_outer", (0, 1, 1), cfg, fix_r0=0.0)
    uv = uv_on_product(SearchConfig(restarts=4, max_iters=100, seed=0))
    gap = uv.value - outer.value
    ok = (
        abs(semi.value - 8 / 3) <= 5e-3
        and outer.value >= 8 / 3 - 1e-6
        and outer.value <= 44 / 15
        and gap >= 0.25
    )
    record(
        "AC09 region consistency",
        ok,
        f"semi-deterministic support={semi.value:.6f} (8/3 tol 5e-3), "
        f"outer support={outer.value:.6f} in [8/3-1e-6, 44/15], "
        f"uv-outer gap={gap:.4f} (needs >= 0.25)",
    )
    assert abs(semi.value - 8 / 3) <= 5e-3
    assert outer.value >= 8 / 3 - 1e-6
    assert outer.value <= 44 / 15
    assert gap >= 0.25


def _fd_grad(fn_value, t, eps=1e-6):
    g = np.zeros_like(t)
    it = np.nditer(t, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        tp = t.copy()
        tp[idx] += eps
        tm = t.copy()
        tm[idx] -= eps
        g[idx] = (fn_value(tp) - fn_value(tm)) / (2 * eps)
        it.iternext()
    return g


def test_ac10_gradient_correctness():
    rng = np.random.default_rng(42)

    # (table, weight rows, shape); a single weight row is a plain weighted sum
    plain = np.array([[1.0]])

    def functionals(c):
        prof = Cardinalities.for_sum_rate(c)
        shape = (prof.nu, prof.nv, prof.nw, c.nx)
        yield marton_table(c, prof), lambda_weights(float(rng.random()))[None], shape
        yield (
            InfoFunctional(
                "uvwx",
                shape,
                [mi_terms("u", "y", "w") + mi_terms("x", "z", "uw")],
                channel=c.q,
            ),
            plain,
            shape,
        )
        yield (
            InfoFunctional(
                "uvwx",
                shape,
                [mi_terms("v", "z", "w") + ent_terms("y", "vw")],
                channel=c.q,
            ),
            plain,
            shape,
        )
        yield (
            InfoFunctional(
                "wx",
                (c.nx, c.nx),
                [mi_terms("w", "z") + mi_terms("x", "y", "w")],
                channel=c.q,
            ),
            plain,
            (c.nx, c.nx),
        )
        yield (
            InfoFunctional(
                "uvx",
                (c.nx, c.nx, c.nx),
                [mi_terms("u", "y") + mi_terms("v", "z") + mi_terms("x", "z", "u")],
                channel=c.q,
            ),
            plain,
            (c.nx, c.nx, c.nx),
        )

    worst = 0.0
    count = 0
    while count < 100:
        nx, ny, nz = rng.integers(2, 4, size=3)
        c = random_channel(rng, int(nx), int(ny), int(nz))
        for fn, weight_rows, shape in functionals(c):
            t = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
            t = np.clip(t, 1e-3, None)
            t /= t.sum()
            f = pointwise(tensor_objective(fn, weight_rows))
            g = f(t)[1]()
            fd = _fd_grad(lambda x: f(x)[0], t)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-9)
            worst = max(worst, rel)
            count += 1
            if count >= 100:
                break
    ok = worst <= 1e-4
    record(
        "AC10 gradient check",
        ok,
        f"100 random points across objective families, "
        f"max relative FD error={worst:.2e} (tol 1e-4)",
    )
    assert worst <= 1e-4


def test_ac11_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1 = main(["verify-example", "--seed", "0", "--out", str(a)])
    code2 = main(["verify-example", "--seed", "0", "--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    record(
        "AC11 determinism",
        ok,
        f"two verify-example runs, byte-identical={identical}, "
        f"report size={len(a.read_bytes())} bytes",
    )
    assert code1 == 0 and code2 == 0
    assert identical
    assert json.loads(a.read_text())["passed"] is True
