import numpy as np
import pytest

from bcbounds.kernel import entropy_of_array
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
