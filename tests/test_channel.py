import json

import numpy as np
import pytest

from bcbounds.channel import (
    Channel,
    ProductChannel,
    capacity,
    channel_from_dict,
    channel_to_dict,
    classify,
    deterministic_map,
    is_deterministic,
    is_more_capable,
    less_noisy_verdict,
    load_channel_file,
    save_channel_file,
)
from bcbounds.cli import _verdict_dict
from bcbounds.search import SearchConfig
from info_oracle import mutual_information


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def bsc_pair(py, pz):
    # conditionally independent BSC marginals with crossover py and pz
    my = np.array([[1 - py, py], [py, 1 - py]])
    mz = np.array([[1 - pz, pz], [pz, 1 - pz]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def bec_bsc_pair(eps, p):
    # Y is an erasure channel (third symbol = erasure), Z a BSC
    my = np.array([[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]])
    mz = np.array([[1 - p, p], [p, 1 - p]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.array([[[0.5, 0.2], [0.1, 0.1]]]))  # row sums 0.9
    with pytest.raises(ValueError):
        Channel(np.ones((2, 2)))  # wrong rank


def test_receiver_marginals():
    c = bsc_pair(0.1, 0.3)
    assert np.allclose(c.qy, [[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(c.qz, [[0.7, 0.3], [0.3, 0.7]])


def test_product_flattening_matches_tensor_product():
    rng = np.random.default_rng(0)
    q1 = rng.dirichlet(np.ones(6), size=2).reshape(2, 2, 3)
    q2 = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
    pc = ProductChannel(Channel(q1), Channel(q2))
    flat = pc.flat
    assert (flat.nx, flat.ny, flat.nz) == (6, 4, 6)
    # spot-check one transition: indices combine as (x1*nx2+x2, ...)
    x1, x2, y1, y2, z1, z2 = 1, 2, 0, 1, 2, 1
    expect = q1[x1, y1, z1] * q2[x2, y2, z2]
    got = flat.q[x1 * 3 + x2, y1 * 2 + y2, z1 * 2 + z2]
    assert got == pytest.approx(expect, abs=1e-15)


def test_product_information_additivity():
    rng = np.random.default_rng(1)
    q1 = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    q2 = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    pc = ProductChannel(Channel(q1), Channel(q2))
    px1 = np.array([0.3, 0.7])
    px2 = np.array([0.6, 0.4])

    def i_xy(c, px):
        return mutual_information(px[:, None, None] * c.q, (0,), (1,))

    i1 = i_xy(pc.c1, px1)
    i2 = i_xy(pc.c2, px2)
    i_flat = i_xy(pc.flat, np.kron(px1, px2))
    assert i_flat == pytest.approx(i1 + i2, abs=1e-12)


def test_deterministic_detection():
    det = np.zeros((3, 2))
    det[(0, 1, 2), (0, 1, 1)] = 1.0
    noisy = np.full((3, 2), 0.5)
    c = Channel(np.einsum("xy,xz->xyz", det, noisy))
    assert is_deterministic(c, "y")
    assert not is_deterministic(c, "z")
    assert np.array_equal(deterministic_map(c, "y"), [0, 1, 1])
    with pytest.raises(ValueError):
        deterministic_map(c, "z")


def test_capacity_bsc():
    c = bsc_pair(0.1, 0.25)
    cap_y, px = capacity(c, "y")
    assert cap_y == pytest.approx(1 - h2(0.1), abs=1e-8)
    assert np.allclose(px, 0.5, atol=1e-6)
    cap_z, _ = capacity(c, "z")
    assert cap_z == pytest.approx(1 - h2(0.25), abs=1e-8)


def test_classify_degraded_pair():
    # Z is a strictly noisier BSC than Y, hence Y dominates in every sense
    c = bsc_pair(0.05, 0.2)
    cfg = SearchConfig(restarts=8, max_iters=120, seed=0)
    rep = classify(c, cfg)
    assert not rep.y_deterministic and not rep.z_deterministic
    assert rep.y_more_capable.holds is True
    # a search that finds no violation cannot certify the relation
    assert _verdict_dict(rep.y_more_capable)["verdict"] == "not refuted"
    assert rep.z_more_capable.holds is False
    assert rep.z_more_capable.gap > 0.1
    # the refuting witness is a genuine input law
    w = rep.z_more_capable.witness
    assert w.min() >= -1e-12 and w.sum() == pytest.approx(1.0, abs=1e-9)
    # less-noisy searches: no violation against Y, a violation against Z
    assert rep.y_less_noisy.holds is None
    assert rep.y_less_noisy.gap <= 1e-9
    assert rep.z_less_noisy.holds is False


def test_classify_symmetric_pair():
    c = bsc_pair(0.15, 0.15)
    cfg = SearchConfig(restarts=6, max_iters=100, seed=0)
    rep = classify(c, cfg)
    assert rep.y_more_capable.holds is True
    assert rep.z_more_capable.holds is True
    assert abs(rep.y_more_capable.gap) <= 1e-9
    assert abs(rep.z_more_capable.gap) <= 1e-9


def test_more_capable_not_less_noisy():
    # erasure rate between 4p(1-p) and H2(p): Y more capable, not less noisy
    c = bec_bsc_pair(0.4, 0.1)
    assert 4 * 0.1 * 0.9 < 0.4 < h2(0.1)
    cfg = SearchConfig(restarts=16, max_iters=150, seed=0)
    assert is_more_capable(c, "y", cfg).holds is True
    ln = less_noisy_verdict(c, "y", cfg)
    assert ln.holds is False
    assert ln.gap > 1e-4


def test_channel_dict_round_trip():
    rng = np.random.default_rng(3)
    q = rng.dirichlet(np.ones(6), size=2).reshape(2, 3, 2)
    c = Channel(q)
    back = channel_from_dict(channel_to_dict(c))
    assert np.array_equal(back.q, c.q)


def test_channel_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    q = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
    c = Channel(q)
    p1 = tmp_path / "c.json"
    p2 = tmp_path / "c2.json"
    save_channel_file(str(p1), c)
    loaded = load_channel_file(str(p1))
    save_channel_file(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.allclose(loaded.q, c.q, atol=1e-15)


def test_product_file_round_trip(tmp_path):
    c1 = bsc_pair(0.1, 0.2)
    c2 = bsc_pair(0.3, 0.4)
    path = tmp_path / "prod.json"
    save_channel_file(str(path), ProductChannel(c1, c2))
    loaded = load_channel_file(str(path))
    assert isinstance(loaded, ProductChannel)
    assert np.allclose(loaded.c1.q, c1.q, atol=1e-15)
    assert np.allclose(loaded.c2.q, c2.q, atol=1e-15)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_channel_file(str(bad))
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        load_channel_file(str(bad))
    bad.write_text(json.dumps({"nx": 2, "ny": 2, "nz": 2, "q": [[[1.0, 0.5]]]}))
    with pytest.raises(ValueError):
        load_channel_file(str(bad))
    bad.write_text(json.dumps({"product": [channel_to_dict(bsc_pair(0.1, 0.1))]}))
    with pytest.raises(ValueError):
        load_channel_file(str(bad))


def test_row_stochasticity_diagnostic(tmp_path):
    bad = tmp_path / "bad.json"
    q = [[[0.5, 0.2], [0.1, 0.1]], [[0.25, 0.25], [0.25, 0.25]]]
    bad.write_text(json.dumps({"nx": 2, "ny": 2, "nz": 2, "q": q}))
    with pytest.raises(ValueError, match="stochastic"):
        load_channel_file(str(bad))
