import math

import numpy as np
import pytest

from bcbounds.kernel import GRAD_CLIP, LOG2_CLIP, entropy_of_array, segment_entropies
from info_oracle import ProbTensor, entropy, mutual_information


def test_entropy_known_values():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)
    assert entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-14)
    # H(1/3, 2/3)
    expect = -(1 / 3) * np.log2(1 / 3) - (2 / 3) * np.log2(2 / 3)
    assert entropy(np.array([1 / 3, 2 / 3])) == pytest.approx(expect, abs=1e-14)
    assert expect == pytest.approx(0.9182958340544896, abs=1e-12)


def test_entropy_point_mass_exact_zero():
    p = np.zeros(8)
    p[3] = 1.0
    assert entropy(p) == 0.0
    assert entropy_of_array(p) == 0.0


# marginal sizes on both sides of numpy's pairwise-sum block (8 and 128
# entries) and of its buffer (8192)
SEGMENT_SIZES = (1, 2, 5, 8, 9, 100, 128, 129, 1000, 8192, 8193, 9000)


def test_batched_entropies_match_entropy_of_array_bit_for_bit():
    rng = np.random.default_rng(0)
    offsets = np.cumsum((0,) + SEGMENT_SIZES)
    rows = rng.random((4, offsets[-1]))
    # interleaved zeros, in a different pattern in every row
    rows[rng.random(rows.shape) < [[0.0], [0.2], [0.5], [0.9]]] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    h, logs = segment_entropies(rows, offsets)
    # the logs are log2 at the positive entries and LOG2_CLIP at the others
    positive = rows > 0
    assert logs[positive].tobytes() == np.log2(rows[positive]).tobytes()
    assert logs[~positive].tobytes() == np.full((~positive).sum(), LOG2_CLIP).tobytes()
    for r, row in enumerate(rows):
        for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
            assert np.float64(entropy_of_array(row[a:b])).tobytes() == h[r, s].tobytes()
            pos = row[a:b][row[a:b] > 0]
            assert h[r, s] == pytest.approx(-math.fsum(pos * np.log2(pos)), abs=1e-13)


def test_masked_logs_match_log2_at_subnormal_and_clipped_entries():
    # the masked log2 in place gives np.log2's bits at every positive entry,
    # subnormals and entries below GRAD_CLIP included, next to exact zeros
    rng = np.random.default_rng(1)
    offsets = np.cumsum((0,) + SEGMENT_SIZES)
    rows = rng.random((3, offsets[-1]))
    pick = rng.random(rows.shape)
    rows[pick < 0.2] = 0.0
    tiny = (pick >= 0.2) & (pick < 0.4)
    rows[tiny] = rng.uniform(GRAD_CLIP * 1e-6, GRAD_CLIP, tiny.sum())
    subnormal = (pick >= 0.4) & (pick < 0.6)
    rows[subnormal] = rng.integers(1, 2**40, subnormal.sum()) * 5e-324
    assert (rows[subnormal] < np.finfo(float).tiny).all()
    h, logs = segment_entropies(rows, offsets)
    positive = rows > 0
    assert logs[positive].tobytes() == np.log2(rows[positive]).tobytes()
    assert logs[~positive].tobytes() == np.full((~positive).sum(), LOG2_CLIP).tobytes()
    assert (logs[tiny | subnormal] < LOG2_CLIP).all()
    # the -0.0 terms of the zero entries sum to the bits of +0.0 terms
    terms = np.zeros(rows.shape)
    terms[positive] = np.log2(rows[positive]) * rows[positive]
    for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
        assert h[:, s].tobytes() == (-np.add.reduce(terms[:, a:b], axis=1)).tobytes()


def test_entropy_signs_of_zero():
    # an all-zero marginal is +0.0 (a negated sum of +0.0 terms would read
    # -0.0), and a point mass keeps the -0.0 of -(1 * log2 1); an empty
    # array is +0.0 too
    assert np.float64(entropy_of_array(np.zeros(0))).tobytes() == np.float64(0.0).tobytes()
    for size in (1, 3, 200):
        zero, mass = np.zeros(size), np.eye(size)[size // 2]
        assert np.float64(entropy_of_array(zero)).tobytes() == np.float64(0.0).tobytes()
        assert np.float64(entropy_of_array(mass)).tobytes() == np.float64(-0.0).tobytes()
        rows = np.stack([np.r_[zero, mass], np.r_[mass, zero]])
        h, _ = segment_entropies(rows, [0, size, 2 * size])
        assert h.tobytes() == np.array([[0.0, -0.0], [-0.0, 0.0]]).tobytes()


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        ProbTensor(np.array([1.1, -0.1]))


def test_tiny_negative_clamped():
    t = ProbTensor(np.array([1.0 + 5e-12, -5e-12]))
    assert t.values[1] == 0.0
    assert entropy(t) == pytest.approx(0.0, abs=1e-10)


def test_non_normalized_rejected():
    with pytest.raises(ValueError):
        ProbTensor(np.array([0.5, 0.6]))


def test_chain_rule():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(12)).reshape(3, 4)
    h_xy = entropy(p)
    h_x = entropy(p, axes=(0,))
    h_y_given_x = entropy(p, axes=(1,), given=(0,))
    assert h_xy == pytest.approx(h_x + h_y_given_x, abs=1e-12)


def test_mutual_information_definition():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
    i_xy = mutual_information(p, (0,), (1,))
    h_x = entropy(p, axes=(0,))
    h_x_given_y = entropy(p, axes=(0,), given=(1,))
    assert i_xy == pytest.approx(h_x - h_x_given_y, abs=1e-12)
    # conditional variant
    i_xy_z = mutual_information(p, (0,), (1,), given=(2,))
    h_x_given_z = entropy(p, axes=(0,), given=(2,))
    h_x_given_yz = entropy(p, axes=(0,), given=(1, 2))
    assert i_xy_z == pytest.approx(h_x_given_z - h_x_given_yz, abs=1e-12)


def test_mutual_information_nonnegative_and_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.dirichlet(np.ones(20)).reshape(4, 5)
        i_ab = mutual_information(p, (0,), (1,))
        i_ba = mutual_information(p, (1,), (0,))
        assert i_ab >= -1e-12
        assert i_ab == pytest.approx(i_ba, abs=1e-12)


def test_independent_variables_zero_information():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    p = np.outer(px, py)
    assert mutual_information(p, (0,), (1,)) == pytest.approx(0.0, abs=1e-14)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
    i_direct = mutual_information(p, (0,), (2,), given=(1,))
    q = np.transpose(p, (2, 1, 0))
    i_permuted = mutual_information(q, (2,), (0,), given=(1,))
    assert i_direct == pytest.approx(i_permuted, abs=1e-12)


def test_data_processing_markov_chain():
    # X -> Y -> Z built from explicit kernels: I(X;Z) <= I(X;Y)
    rng = np.random.default_rng(4)
    px = rng.dirichlet(np.ones(3))
    k_yx = rng.dirichlet(np.ones(4), size=3)
    k_zy = rng.dirichlet(np.ones(3), size=4)
    p = np.einsum("x,xy,yz->xyz", px, k_yx, k_zy)
    i_xy = mutual_information(p, (0,), (1,))
    i_xz = mutual_information(p, (0,), (2,))
    assert i_xz <= i_xy + 1e-12
    # and I(X;Z|Y) = 0 for a Markov chain
    assert mutual_information(p, (0,), (2,), given=(1,)) == pytest.approx(0.0, abs=1e-12)


def test_marginal_ordering():
    rng = np.random.default_rng(5)
    p = ProbTensor(rng.dirichlet(np.ones(6)).reshape(2, 3))
    m_xy = p.marginal((0, 1))
    m_yx = p.marginal((1, 0))
    assert np.allclose(m_xy, m_yx.T)


def test_axis_validation():
    p = np.full((2, 2), 0.25)
    with pytest.raises(IndexError):
        entropy(p, axes=(2,))
    with pytest.raises(ValueError):
        mutual_information(p, (0,), (0,))
