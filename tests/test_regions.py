import dataclasses
import itertools

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel, capacity
from bcbounds.counterexample import component
from bcbounds.marton import AuxiliaryJoint, Cardinalities, marton_sum_rate
from bcbounds.regions import (
    _TERM_DEFS,
    REGION_KINDS,
    ProductAuxiliary,
    RateRegionPolytope,
    UvAuxiliary,
    _region_rows,
    _support_objective,
    _uv_side_tables,
    _VertexSystem,
    build_region,
    class_notes,
    default_region_profiles,
    evaluate_uv_point,
    region_support,
    uv_sum_rate,
)
from bcbounds.objectives import weigh
from bcbounds.search import SearchConfig
from info_oracle import entropy, mutual_information
from oracles import dual_support_per_point, pointwise, uv_table

CFG = SearchConfig(restarts=6, max_iters=120, seed=0)
MARTON_CFG = SearchConfig(restarts=8, max_iters=150, seed=0)


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def bsc_pair(py, pz):
    my = np.array([[1 - py, py], [py, 1 - py]])
    mz = np.array([[1 - pz, pz], [pz, 1 - pz]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def random_channel(rng, nx, ny, nz):
    return Channel(rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz))


def degraded_channel(seed):
    # X -> Z -> Y: Y is physically degraded from Z
    rng = np.random.default_rng(seed)
    qz = rng.dirichlet(np.ones(3), size=3)
    qyz = rng.dirichlet(np.ones(2), size=3)
    return Channel(np.einsum("xz,zy->xyz", qz, qyz))


def test_uv_auxiliary_validation():
    with pytest.raises(ValueError):
        UvAuxiliary(np.full((2, 2), 0.25))  # wrong rank
    with pytest.raises(ValueError):
        UvAuxiliary(np.full((2, 2, 2), 0.25))  # sums to 2


def test_uv_point_matches_kernel():
    rng = np.random.default_rng(0)
    c = random_channel(rng, 3, 2, 2)
    t = rng.dirichlet(np.ones(2 * 3 * 3)).reshape(2, 3, 3)
    point = evaluate_uv_point(c, UvAuxiliary(t))
    p = np.einsum("uvx,xyz->uvxyz", t, c.q)
    u, v, x, y, z = range(5)
    assert point.r1_bound == pytest.approx(mutual_information(p, (u,), (y,)), abs=1e-11)
    assert point.r2_bound == pytest.approx(mutual_information(p, (v,), (z,)), abs=1e-11)
    assert point.sum_y_side == pytest.approx(
        mutual_information(p, (u,), (y,)) + mutual_information(p, (x,), (z,), given=(u,)),
        abs=1e-11,
    )
    assert point.sum_z_side == pytest.approx(
        mutual_information(p, (v,), (z,)) + mutual_information(p, (x,), (y,), given=(v,)),
        abs=1e-11,
    )
    assert point.sum_rate == min(
        point.r1_bound + point.r2_bound, point.sum_y_side, point.sum_z_side
    )


def test_uv_point_constant_auxiliaries():
    rng = np.random.default_rng(1)
    c = random_channel(rng, 3, 2, 2)
    px = rng.dirichlet(np.ones(3))
    t = px.reshape(1, 1, 3)
    point = evaluate_uv_point(c, UvAuxiliary(t))
    joint = np.einsum("x,xyz->xyz", px, c.q)
    assert point.r1_bound == pytest.approx(0.0, abs=1e-12)
    assert point.r2_bound == pytest.approx(0.0, abs=1e-12)
    assert point.sum_y_side == pytest.approx(mutual_information(joint, (0,), (2,)), abs=1e-11)
    assert point.sum_z_side == pytest.approx(mutual_information(joint, (0,), (1,)), abs=1e-11)


def test_uv_rows_read_only_the_two_marginals():
    # the search rests on this: no UV row has a term in U and V together, so
    # a law and the coupling p(x) p(u|x) p(v|x) of its marginals p(u,x) and
    # p(v,x) have one value of the rows over the whole law, the U-side and
    # V-side rows sum to the branch rows, and evaluate_uv_point, which reads
    # the side tables, gives those rows at both. A U-V term in the rows
    # breaks all three
    rng = np.random.default_rng(31)
    for trial in range(5):
        nx, ny, nz, nu, nv = (int(n) for n in rng.integers(2, 5, size=5))
        c = random_channel(rng, nx, ny, nz)
        t = rng.dirichlet(np.ones(nu * nv * nx)).reshape(nu, nv, nx)
        if trial == 0:
            # an input of zero mass
            t[..., 0] = 0.0
            t /= t.sum()
        p_ux, p_vx, px = t.sum(axis=1), t.sum(axis=0), t.sum(axis=(0, 1))
        coupling = p_ux[:, None] * p_vx / np.where(px > 0.0, px, 1.0)
        full = uv_table(c, nu, nv)
        want = full.value(t)
        assert np.abs(full.value(coupling) - want).max() <= 1e-12, trial
        f_u, f_v = _uv_side_tables(c, nu, nv)
        sides = f_u.value(p_ux) + f_v.value(p_vx)
        assert np.abs(sides - want[:3]).max() <= 1e-12, trial
        for law in (t, coupling):
            pt = evaluate_uv_point(c, UvAuxiliary(law))
            got = [pt.r1_bound + pt.r2_bound, pt.sum_y_side, pt.sum_z_side]
            got += [pt.r1_bound, pt.r2_bound]
            assert np.abs(np.array(got) - want).max() <= 1e-12, trial


def test_uv_sum_rate_on_dominated_pair_equals_capacity():
    # Y less noisy than Z: all three branches cap at max I(X;Y), met at U=X
    c = bsc_pair(0.1, 0.3)
    res = uv_sum_rate(c, CFG)
    assert res.converged
    assert res.value == pytest.approx(1 - h2(0.1), abs=2e-3)


def test_marton_on_degraded_pair_equals_capacity():
    # on a degraded pair the sum-rate capacity is the better receiver's
    # capacity, and Marton's inner bound meets it; the slack covers the
    # stopping error of Blahut-Arimoto in capacity()
    for seed in range(10):
        c = degraded_channel(seed)
        cap = capacity(c, "z")[0]
        assert abs(marton_sum_rate(c, MARTON_CFG).value - cap) <= 1e-6, seed


def test_uv_on_degraded_pair_reaches_capacity():
    # the UV outer bound can be no lower than the achievable capacity
    for seed in range(10):
        c = degraded_channel(seed)
        cap = capacity(c, "z")[0]
        assert uv_sum_rate(c, CFG).value >= cap - 1e-6, seed


def test_uv_sum_rate_beats_seed(tmp_path):
    rng = np.random.default_rng(2)
    c = random_channel(rng, 3, 3, 3)
    seed = UvAuxiliary(rng.dirichlet(np.ones(2 * 2 * 3)).reshape(2, 2, 3))
    at_seed = evaluate_uv_point(c, seed).sum_rate
    res = uv_sum_rate(c, CFG, extra_seeds=[seed.joint])
    assert res.value >= at_seed - 1e-9


def test_uv_sum_rate_point_is_the_searched_table_at_its_aux():
    # the reported point comes from the table the search ran on, bit for
    # bit what a fresh evaluation at the returned auxiliary gives
    c = random_channel(np.random.default_rng(4), 3, 2, 2)
    res = uv_sum_rate(c, SearchConfig(restarts=2, max_iters=40, seed=0))
    fresh = evaluate_uv_point(c, res.aux)
    for field in dataclasses.fields(fresh):
        got, want = getattr(res.point, field.name), getattr(fresh, field.name)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), field.name


# ------------------------------------------------- product region oracles


def _lift(c, aux):
    return np.einsum("uvwx,xyz->uvwxyz", aux.joint, c.q)


def _term_oracle(c, aux):
    p = _lift(c, aux)
    u, v, w, x, y, z = range(6)
    mi = lambda a, b, g=(): mutual_information(p, a, b, given=g)
    uy = mi((u,), (y,), (w,))
    vz = mi((v,), (z,), (w,))
    return {
        "ay": mi((w,), (y,)),
        "az": mi((w,), (z,)),
        "uy": uy,
        "vz": vz,
        "su": uy + mi((x,), (z,), (u, w)),
        "sv": vz + mi((x,), (y,), (v, w)),
        "hyw": entropy(p, axes=(y,), given=(w,)),
        "hzw": entropy(p, axes=(z,), given=(w,)),
        "svh": vz + entropy(p, axes=(y,), given=(v, w)),
        "suh": uy + entropy(p, axes=(z,), given=(u, w)),
        "xy": mi((x,), (y,), (w,)),
        "xz": mi((x,), (z,), (w,)),
    }


def _random_product_aux(rng, pc, kind):
    p1, p2 = default_region_profiles(pc, kind)
    a1 = rng.dirichlet(np.ones(p1.nu * p1.nv * p1.nw * pc.c1.nx)).reshape(
        p1.nu, p1.nv, p1.nw, pc.c1.nx
    )
    a2 = rng.dirichlet(np.ones(p2.nu * p2.nv * p2.nw * pc.c2.nx)).reshape(
        p2.nu, p2.nv, p2.nw, pc.c2.nx
    )
    return ProductAuxiliary(AuxiliaryJoint(a1), AuxiliaryJoint(a2))


def test_build_region_rows_match_kernel_oracle():
    rng = np.random.default_rng(3)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    # every defined term is used by some kind, and the oracle checks each
    used = {n for kind in REGION_KINDS for _, t1, t2 in _region_rows(kind) for n in t1 + t2}
    assert used == set(_TERM_DEFS)
    for kind in REGION_KINDS:
        aux = _random_product_aux(rng, pc, kind)
        region = build_region(pc, aux, kind)
        rows = _region_rows(kind)
        assert len(rows) == len(region.inequalities)
        assert region.tag == kind
        o1 = _term_oracle(pc.c1, aux.a1)
        o2 = _term_oracle(pc.c2, aux.a2)
        assert set(o1) == set(o2) == set(_TERM_DEFS)
        for (a, t1, t2), (a_got, rhs) in zip(rows, region.inequalities):
            assert a == a_got
            expect = sum(o1[n] for n in t1) + sum(o2[n] for n in t2)
            assert rhs == pytest.approx(expect, abs=1e-10), (kind, t1, t2)


def test_support_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    eps = 1e-6
    # unpinned, then pinned: a direction whose R0 weight exceeds the others'
    # sum puts the pin in dual rows, whose offsets are then nonzero; at 0.3
    # the pin is slack at these points, at 0.02 it binds
    kinds = ("product_outer", "semi_deterministic")
    for fix_r0, kind in itertools.product((None, 0.3, 0.02), kinds):
        prof1, prof2 = default_region_profiles(pc, kind)
        w = rng.uniform(0.5, 1.5, 3) + (0.0 if fix_r0 is None else (3.0, 0.0, 0.0))
        obj, _ = _support_objective(pc, kind, w, prof1, prof2, fix_r0)
        assert fix_r0 is None or obj.offset.any()
        pinned = 0

        def basis(flat):
            t1, t2 = obj.to_tensors(flat)
            rhs = obj.tables[0].value(t1) + obj.tables[1].value(t2)
            return int(weigh(obj.weight_rows, rhs[None], obj.offset)[1][0])

        checked = 0
        for _ in range(6):
            flat = np.concatenate([rng.dirichlet(np.ones(n)) for n in obj.block_sizes])
            k = basis(flat)
            g = pointwise(obj)(flat)[1]()
            fd = np.zeros_like(flat)
            same_basis = True
            for i in range(flat.size):
                fp, fm = flat.copy(), flat.copy()
                fp[i] += eps
                fm[i] -= eps
                same_basis = same_basis and basis(fp) == k == basis(fm)
                fd[i] = (pointwise(obj)(fp)[0] - pointwise(obj)(fm)[0]) / (2 * eps)
            if not same_basis:
                continue
            checked += 1
            pinned += obj.offset[k] != 0.0
            assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) < 1e-4, (kind, fix_r0)
        assert checked >= 3, (kind, fix_r0)
        assert fix_r0 != 0.02 or pinned > 0, kind


def test_unknown_region_kind_rejected():
    rng = np.random.default_rng(4)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    aux = _random_product_aux(rng, pc, "product_outer")
    for kind in ("nonsense", "product_inner", "more_capable_deterministic"):
        with pytest.raises(ValueError):
            build_region(pc, aux, kind)


def test_outer_sum_rows_match_semi_deterministic_on_deterministic_product():
    # with Y1 and Z2 deterministic, I(X;Y|V,W) = H(Y|V,W) per component, so
    # the outer bound's mixed sum row coincides with the specialized form
    rng = np.random.default_rng(5)
    pc = ProductChannel(component("y"), component("z"))
    p1, p2 = default_region_profiles(pc, "semi_deterministic")
    a1 = rng.dirichlet(np.ones(p1.nu * p1.nv * p1.nw * 4)).reshape(p1.nu, p1.nv, p1.nw, 4)
    a2 = rng.dirichlet(np.ones(p2.nu * p2.nv * p2.nw * 4)).reshape(p2.nu, p2.nv, p2.nw, 4)
    aux = ProductAuxiliary(AuxiliaryJoint(a1), AuxiliaryJoint(a2))
    outer = build_region(pc, aux, "product_outer")
    semi = build_region(pc, aux, "semi_deterministic")
    outer_rows = _region_rows("product_outer")
    semi_rows = _region_rows("semi_deterministic")

    def sum_rhs(region, rows, want):
        out = {}
        for (a, t1, t2), (_, rhs) in zip(rows, region.inequalities):
            if a == (1, 1, 1) and (t1[1:], t2[1:]) == want:
                out[(t1[0], t2[0])] = rhs
        return out

    got_outer = sum_rhs(outer, outer_rows, (("sv",), ("su",)))
    got_semi = sum_rhs(semi, semi_rows, (("svh",), ("suh",)))
    assert set(got_outer) == set(got_semi) == {("ay", "ay"), ("az", "az")}
    for key in got_outer:
        assert got_outer[key] == pytest.approx(got_semi[key], abs=1e-10)


def test_polytope_geometry():
    region = RateRegionPolytope(
        inequalities=[
            ((1, 0, 0), 1.0),
            ((0, 1, 0), 2.0),
            ((0, 0, 1), 3.0),
            ((1, 1, 1), 4.0),
        ],
        tag="toy",
    )
    for axis, cap in enumerate((1.0, 2.0, 3.0)):
        value, vertex = region.support(np.eye(3)[axis])
        assert value == pytest.approx(cap, abs=1e-9)
        assert vertex[axis] == pytest.approx(cap, abs=1e-9)
    value, vertex = region.support((0.0, 1.0, 1.0), fix_r0=0.0)
    assert value == pytest.approx(4.0, abs=1e-9)
    assert vertex[0] == pytest.approx(0.0, abs=1e-9)
    assert vertex[1] + vertex[2] == pytest.approx(4.0, abs=1e-9)
    assert region.contains((0.0, 2.0, 2.0))
    assert region.contains((1.0, 1.0, 2.0))
    assert not region.contains((1.0, 2.0, 3.0))
    assert not region.contains((-0.1, 0.0, 0.0))


def _support_by_loop(normals, rhs, w, fix_r0):
    # primal reference: solve each nonsingular 3-subset of the constraints
    # (rows, optional R0 pin, R >= 0) and keep the best vertex that is
    # feasible up to rounding; the right-hand sides are >= 0, so the origin
    # is feasible and the best vertex exists
    A = [list(map(float, a)) for a in normals] + [[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
    b = list(rhs) + [0.0] * 3
    if fix_r0 is not None:
        A.append([1.0, 0, 0])
        b.append(fix_r0)
    A, b = np.asarray(A), np.asarray(b)
    best = None
    for combo in itertools.combinations(range(len(b)), 3):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(combo)])
        if (A @ v <= b + 1e-12).all() and (best is None or v @ w > best):
            best = float(v @ w)
    return best


def _nonnegative_rhs(rng, n, rows):
    # right-hand sides >= 0 with zero rows and ties: a third of the rows
    # drawn from a few exact values, a sixth set to zero
    rhs = rng.uniform(0.0, 2.0, (n, rows))
    ties = rng.random((n, rows)) < 1 / 3
    rhs[ties] = rng.choice([0.5, 1.0, 2.0], ties.sum())
    rhs[rng.random((n, rows)) < 1 / 6] = 0.0
    return rhs


def _directions(rng):
    # a random direction, the separation's (0, 1, 1) and a direction of
    # scale 1e6
    return [rng.dirichlet(np.ones(3)), np.array([0.0, 1.0, 1.0]), 1e6 * rng.dirichlet(np.ones(3))]


def _assert_optimal_vertex(normals, rhs, w, fix_r0, value, vertex):
    # the vertex lies in the region and attains the value, up to 1e-12 of
    # the direction's scale
    scale = max(1.0, np.abs(w).max())
    assert (np.asarray(normals, dtype=float) @ vertex <= rhs + 1e-12).all()
    assert (vertex >= -1e-12).all()
    assert fix_r0 is None or vertex[0] <= fix_r0 + 1e-12
    assert abs(vertex @ w - value) <= 1e-12 * scale


def test_support_objective_vertex_matches_polytope_support():
    # the search's support and RateRegionPolytope.support share one dual
    # system; both must match a plain primal per-subset solve
    rng = np.random.default_rng(11)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    for kind in REGION_KINDS:
        prof1, prof2 = default_region_profiles(pc, kind)
        normals = [a for a, _, _ in _region_rows(kind)]
        for fix_r0 in (None, 0.0, 0.3):
            for w in _directions(rng):
                obj, _ = _support_objective(pc, kind, w, prof1, prof2, fix_r0)
                for rhs in _nonnegative_rhs(rng, 10, len(normals)):
                    region = RateRegionPolytope(
                        [(a, float(r)) for a, r in zip(normals, rhs)], tag=kind
                    )
                    expect, vertex = region.support(w, fix_r0=fix_r0)
                    assert weigh(obj.weight_rows, rhs[None], obj.offset)[0][0] == expect
                    _assert_optimal_vertex(normals, rhs, w, fix_r0, expect, vertex)
                    scale = max(1.0, np.abs(w).max())
                    assert abs(expect - _support_by_loop(normals, rhs, w, fix_r0)) <= 1e-12 * scale


def test_dual_support_batch_matches_single_point_and_oracle():
    # the stacked product over a batch of right-hand sides gives each point
    # the value and basis it gets alone, bit for bit, on every region kind,
    # and the value of a per-basis dual solve up to rounding
    rng = np.random.default_rng(17)
    for kind in REGION_KINDS:
        normals = [a for a, _, _ in _region_rows(kind)]
        for fix_r0 in (None, 0.0, 0.3):
            for w in _directions(rng):
                system = _VertexSystem(normals, fix_r0, w)
                assert (system.duals >= 0.0).all()
                for n in (1, 2, 5, 16):
                    rhs = _nonnegative_rhs(rng, n, len(normals))
                    values, index = weigh(system.duals, rhs, system.offset)
                    for i, row in enumerate(rhs):
                        alone, k = weigh(system.duals, row[None], system.offset)
                        assert alone.tobytes() == values[i : i + 1].tobytes()
                        assert k[0] == index[i]
                        expect = dual_support_per_point(normals, row, w, fix_r0)
                        assert abs(values[i] - expect) <= 1e-12 * max(1.0, np.abs(w).max())
                        value, vertex = system.optimum(row)
                        assert value == values[i]
                        _assert_optimal_vertex(normals, row, w, fix_r0, value, vertex)


def test_dual_support_empty_polytope_unbounded_and_tie():
    normals = [a for a, _, _ in _region_rows("semi_deterministic")]
    w = np.array([0.0, 1.0, 1.0])
    system = _VertexSystem(normals, None, w)
    # a negative R0 bound empties the region, but no dual weight row in
    # this direction rests on the R0 rows: the value stays the (1,1,1)
    # rows' bound 1, and the vertex (0, 1, 1) violates the R0 bound
    rhs = np.full((2, len(normals)), 1.0)
    rhs[1, 0] = -1.0
    values, index = weigh(system.duals, rhs, system.offset)
    assert values.tolist() == [1.0, 1.0] and index.tolist() == [1, 1]
    assert (system.duals[:, 0] == 0.0).all()
    assert system.optimum(rhs[1])[1].tolist() == [0.0, 1.0, 1.0]
    # no dual-feasible basis: R1 is unbounded when only R0 is bounded
    with pytest.raises(ValueError, match="no dual-feasible basis"):
        _VertexSystem([(1, 0, 0)], None, (0.0, 1.0, 0.0))
    # the unit cube under weights (0, 1, 1): the bases {R0 <= 1, R1 <= 1,
    # R2 <= 1} and {R0 >= 0, R1 <= 1, R2 <= 1} carry the same duals (0, 1, 1)
    # and both solve to an optimal vertex, (1, 1, 1) and (0, 1, 1); the
    # support weighs that row once, and the first basis wins the vertex
    cube = _VertexSystem([(1, 0, 0), (0, 1, 0), (0, 0, 1)], None, w)
    assert cube.combos.tolist() == [[0, 1, 2], [1, 2, 3]]
    assert cube.basis_duals.tolist() == [[0.0, 1.0, 1.0]] * 2
    assert cube.duals.tolist() == [[0.0, 1.0, 1.0]]
    values, index = weigh(cube.duals, np.ones((3, 3)), cube.offset)
    assert values.tolist() == [2.0] * 3 and index.tolist() == [0] * 3
    assert cube.optimum(np.ones(3))[1].tolist() == [1.0, 1.0, 1.0]


def test_region_support_reaches_seeded_value():
    rng = np.random.default_rng(6)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    aux = _random_product_aux(rng, pc, "product_outer")
    at_aux, _ = build_region(pc, aux, "product_outer").support((0, 1, 1), fix_r0=0.0)
    res = region_support(
        pc, "product_outer", (0, 1, 1), CFG, extra_seeds=[aux], fix_r0=0.0
    )
    assert res.value >= at_aux - 1e-9
    assert res.vertex[0] == pytest.approx(0.0, abs=1e-9)
    assert res.region.tag == "product_outer"


def test_region_support_extra_seed_profile_fitting():
    # seeds with full profiles must adapt to the collapsed specialized ones
    rng = np.random.default_rng(7)
    pc = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    full = _random_product_aux(rng, pc, "product_outer")
    res = region_support(
        pc, "semi_deterministic", (0, 1, 1), CFG, extra_seeds=[full], fix_r0=0.0
    )
    assert np.isfinite(res.value)


@pytest.mark.parametrize("kind", ["semi_deterministic", "product_outer"])
@pytest.mark.parametrize("fix_r0", [None, 0.0])
def test_region_support_value_is_exact_score_at_returned_aux(kind, fix_r0):
    # the reported support is the search objective at the returned
    # auxiliary, bit for bit, and the reported vertex attains it
    pc = ProductChannel(component("y"), component("z"))
    cfg = SearchConfig(restarts=2, max_iters=40, seed=0)
    res = region_support(pc, kind, (0, 1, 1), cfg, fix_r0=fix_r0)
    prof1, prof2 = default_region_profiles(pc, kind)
    obj, _ = _support_objective(pc, kind, (0, 1, 1), prof1, prof2, fix_r0)
    flat = obj.to_flat([res.aux.a1.joint, res.aux.a2.joint])
    assert res.value == pointwise(obj)(flat)[0]
    assert res.value == pytest.approx(res.vertex @ np.asarray(res.weights), abs=1e-12)
    assert res.region.contains(res.vertex)


def test_swapped_product_outer_rows_are_the_mirror_rows():
    # the mirrored outer bound's mixed sum rows took the patterns
    # (su, sv), (sv, sv), (su, su); swapping the two sides of every
    # product_outer row gives the mirrored rows as a multiset
    mirror = [((1, 0, 0), ("ay",), ("ay",)), ((1, 0, 0), ("az",), ("az",))]
    for base in ("ay", "az"):
        mirror.append(((1, 1, 0), (base, "uy"), (base, "uy")))
        mirror.append(((1, 0, 1), (base, "vz"), (base, "vz")))
    for p1, p2 in (("su", "sv"), ("sv", "sv"), ("su", "su")):
        for base in ("ay", "az"):
            mirror.append(((1, 1, 1), (base, p1), (base, p2)))
    swapped = [(a, t2, t1) for a, t1, t2 in _region_rows("product_outer")]
    assert sorted(swapped) == sorted(mirror)


def test_mirror_symmetry_on_symmetric_product():
    # second component is the receiver-swapped copy of the first, so the
    # outer bound of the swapped product (the mirror) must give the same
    # support in (0, 1, 1)
    pc = ProductChannel(component("y"), component("z"))
    cfg = SearchConfig(restarts=4, max_iters=120, seed=0)
    plain = region_support(pc, "product_outer", (0, 1, 1), cfg, fix_r0=0.0)
    mirror = region_support(ProductChannel(pc.c2, pc.c1), "product_outer", (0, 1, 1), cfg, fix_r0=0.0)
    assert plain.value == pytest.approx(mirror.value, abs=2e-3)
    assert plain.value == pytest.approx(8 / 3, abs=1e-6)


def test_class_notes():
    rng = np.random.default_rng(8)
    matched = ProductChannel(component("y"), component("z"))
    assert class_notes(matched, "semi_deterministic", CFG) == []
    mismatched = ProductChannel(random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 2))
    notes = class_notes(mismatched, "semi_deterministic", CFG)
    assert notes and "deterministic" in notes[0]
    # the more-capable form: is_more_capable refutes the wrong orientation,
    # where Y1 and Z2 are the better receivers, and the worked product,
    # whose components each fail by 1/3 at p(x) = (1/2, 0, 0, 1/2); the
    # right orientation gets no note, since a search cannot prove the class
    reverse = ProductChannel(bsc_pair(0.3, 0.1), bsc_pair(0.1, 0.3))
    wrong = ProductChannel(bsc_pair(0.1, 0.3), bsc_pair(0.3, 0.1))
    claims = ("Z1 more capable than Y1", "Y2 more capable than Z2")
    wrong_gap = h2(0.3) - h2(0.1)
    for pc, gaps in ((reverse, []), (wrong, [wrong_gap] * 2), (matched, [1 / 3] * 2)):
        notes = class_notes(pc, "more_capable", CFG)
        assert len(notes) == len(gaps)
        for note, claim, gap in zip(notes, claims, gaps):
            assert claim in note and f"by {gap:.6g} bits" in note
    assert class_notes(matched, "product_outer", CFG) == []


def test_default_region_profiles_collapse():
    pc = ProductChannel(component("y"), component("z"))
    p1, p2 = default_region_profiles(pc, "semi_deterministic")
    assert p1.nu == 1 and p2.nv == 1
    p1, p2 = default_region_profiles(pc, "more_capable")
    assert p1.nv == 1 and p2.nu == 1
    p1, p2 = default_region_profiles(pc, "product_outer")
    assert (p1.nu, p1.nv, p1.nw) == (4, 4, 8)


# ------------------------------------- more-capable form on a closed form


@pytest.fixture(scope="module")
def reversely_degraded_runs():
    # Z1 and Y2 are the better receivers, so the product is reversely
    # degraded and its sum capacity (El Gamal 1980) is C_Z1 + C_Y2; the
    # more-capable form's support at R0 = 0 can be no larger, since
    # I(U1W1;Y1) + I(X1;Z1|U1W1) <= I(X1;Z1) and likewise for component 2
    pc = ProductChannel(bsc_pair(0.3, 0.1), bsc_pair(0.1, 0.3))
    target = 2 * (1 - h2(0.1))
    runs = [
        region_support(
            pc, "more_capable", (0, 1, 1), dataclasses.replace(CFG, seed=s), fix_r0=0.0
        )
        for s in range(4)
    ]
    return target, runs


def test_more_capable_support_on_reversely_degraded_product(reversely_degraded_runs):
    target, runs = reversely_degraded_runs
    for res in runs:
        assert res.converged
        assert abs(res.value - target) <= 1e-6


def test_more_capable_support_vertex_inside_region(reversely_degraded_runs):
    target, runs = reversely_degraded_runs
    for res in runs:
        assert res.value <= target + 1e-12
        assert (res.vertex >= -1e-12).all()
        assert res.vertex[0] <= 1e-12
