import numpy as np
import pytest

from steklov import make_builtin
from steklov.densela import (
    ComplexEigenvalueError,
    SingularMatrixError,
    lu_factor,
    smallest_magnitude_eigs,
)
from steklov.operators import build_dtn
from steklov.spectrum import assemble_q


def unpack(factors):
    lower = np.tril(factors.lu, -1) + np.eye(factors.n)
    upper = np.triu(factors.lu)
    perm = np.arange(factors.n)
    for i, p in enumerate(factors.piv):
        perm[[i, p]] = perm[[p, i]]
    return perm, lower, upper


def test_lu_identity():
    f = lu_factor(np.eye(4))
    _, lower, upper = unpack(f)
    assert np.array_equal(lower, np.eye(4))
    assert np.array_equal(upper, np.eye(4))


def test_lu_zero_leading_pivot():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = lu_factor(a)
    x = f.solve(np.array([2.0, 3.0]))
    assert np.allclose(a @ x, [2.0, 3.0], atol=1e-15)


def test_lu_random_reconstruction(rng):
    a = rng.uniform(-1.0, 1.0, size=(50, 50))
    f = lu_factor(a)
    perm, lower, upper = unpack(f)
    pa = a[perm]
    rel = np.linalg.norm(pa - lower @ upper, "fro") / np.linalg.norm(a, "fro")
    assert rel <= 1e-13
    assert np.max(np.abs(lower)) <= 1.0 + 1e-15


def test_lu_solve_residual(rng):
    a = rng.uniform(-1.0, 1.0, size=(40, 40))
    b = rng.uniform(-1.0, 1.0, size=40)
    x = lu_factor(a).solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) * np.linalg.cond(a)


def test_lu_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# Smallest-magnitude eigenpairs
# ---------------------------------------------------------------------------

def test_eigs_diagonal():
    pairs = smallest_magnitude_eigs(np.diag([3.0, 1.0, 2.0, 8.0, 5.0, 7.0, 4.0, 6.0]), k=2)
    assert np.allclose(pairs.values.real, [1.0, 2.0], atol=1e-14)
    assert np.allclose(pairs.values.imag, 0.0)
    # eigenvectors are canonical basis vectors up to sign
    assert np.allclose(np.abs(pairs.vectors[:, 0]), np.eye(8)[1], atol=1e-14)
    assert np.allclose(np.abs(pairs.vectors[:, 1]), np.eye(8)[2], atol=1e-14)


def _similarity_matrix(rng, spectrum):
    n = len(spectrum)
    s = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, size=(n, n))
    return s @ np.diag(spectrum) @ np.linalg.inv(s)


def test_eigs_constructed_spectrum_arnoldi(rng):
    a = _similarity_matrix(rng, np.array([0.5, 1.0, 4.0, 9.0]))
    pairs = smallest_magnitude_eigs(a, k=2)
    assert np.allclose(pairs.values.real, [0.5, 1.0], atol=1e-10)


def test_dense_and_arnoldi_agree(rng):
    spectrum = np.concatenate([np.linspace(0.5, 3.0, 8), np.linspace(10.0, 40.0, 52)])
    a = _similarity_matrix(rng, spectrum)
    k = 6
    dense = np.linalg.eigvals(a)
    dense = dense[np.argsort(np.abs(dense))][:k]
    arnoldi = smallest_magnitude_eigs(a, k=k)
    assert np.allclose(dense.real, arnoldi.values.real, rtol=1e-9)


def test_residual_property(rng):
    a = _similarity_matrix(rng, np.linspace(1.0, 20.0, 30))
    pairs = smallest_magnitude_eigs(a, k=4)
    norm_a = np.linalg.norm(a, "fro")
    for j in range(4):
        v = pairs.vectors[:, j]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        res = np.linalg.norm(a @ v - pairs.values[j].real * v)
        assert res <= 1e-10 * norm_a


def test_values_sorted_by_modulus(rng):
    a = _similarity_matrix(rng, np.array([7.0, 2.0, 5.0, 1.0, 3.0, 11.0, 4.0, 9.0, 6.0, 8.0]))
    pairs = smallest_magnitude_eigs(a, k=8)
    mods = np.abs(pairs.values)
    assert np.all(np.diff(mods) >= -1e-12)
    assert np.allclose(pairs.values.real, np.arange(1.0, 9.0), atol=1e-10)


def test_disk_dtn_shifted_spectrum():
    disc = build_dtn(make_builtin("disk"), 32)
    q = assemble_q(disc)
    pairs = smallest_magnitude_eigs(q + np.eye(32), k=12)
    expected = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    assert np.allclose(pairs.values.real, expected, atol=1e-12)


def test_complex_spectrum_rejected():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0], ]) + 0.0
    a = np.block([[rotation, np.zeros((2, 2))], [np.zeros((2, 2)), 5 * np.eye(2)]])
    with pytest.raises(ComplexEigenvalueError):
        smallest_magnitude_eigs(a, k=2)


def test_nearly_degenerate_pair_cut_by_k():
    # 1 ± 1e-12 i is a real double eigenvalue to rounding; k = 1 keeps one
    # real vector of its invariant subspace
    pair = np.array([[1.0, 1e-12], [-1e-12, 1.0]])
    a = np.block([[pair, np.zeros((2, 4))], [np.zeros((4, 2)), np.diag([5.0, 6.0, 7.0, 8.0])]])
    pairs = smallest_magnitude_eigs(a, k=1)
    v = pairs.vectors[:, 0]
    assert pairs.values[0].real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(a @ v - v) <= 1e-11


def test_k_bounds():
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        smallest_magnitude_eigs(a, k=0)
    with pytest.raises(ValueError):
        smallest_magnitude_eigs(a, k=5)
    with pytest.raises(ValueError):
        smallest_magnitude_eigs(a, k=3)  # Arnoldi needs k <= n - 2


def test_singular_matrix_rejected_for_inverse_iteration():
    a = np.diag([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(SingularMatrixError):
        smallest_magnitude_eigs(a, k=2)
