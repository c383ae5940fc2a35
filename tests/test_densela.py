import numpy as np
import pytest
import scipy.linalg

from steklov import make_builtin
from steklov.densela import (
    EigenSolveError,
    SingularMatrixError,
    lu_factor,
    smallest_magnitude_eigs,
)
from steklov.operators import apply_diff_fast, build_dtn


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(40,), (40, 3)])
def test_lu_solve_is_bitwise_scipy_lu_solve(rng, shape, order):
    a = rng.uniform(-1.0, 1.0, size=(40, 40))
    b = np.asarray(rng.uniform(-1.0, 1.0, size=shape), order=order)
    f = lu_factor(a)
    x = f.solve(b)
    assert x.shape == b.shape
    assert np.array_equal(x, scipy.linalg.lu_solve((f.lu, f.piv), b))


def test_lu_leaves_its_input_unchanged(rng):
    a = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(30, 30)))
    kept = a.copy()
    f = lu_factor(a)
    assert not np.shares_memory(f.lu, a)
    assert np.array_equal(a, kept)


def test_lu_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_rejects_a_nan():
    # scipy is called with check_finite=False, so lu_factor checks itself
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lu_factor(bad)


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# Smallest-magnitude eigenpairs of a symmetric-definite pencil
# ---------------------------------------------------------------------------

def test_eigs_diagonal():
    values, vectors = smallest_magnitude_eigs(np.diag([3.0, 1.0, 2.0, 8.0, 5.0, 7.0, 4.0, 6.0]),
                                              np.eye(8), k=2)
    assert np.allclose(values, [1.0, 2.0], atol=1e-14)
    # eigenvectors are canonical basis vectors up to sign
    assert np.allclose(np.abs(vectors[:, 0]), np.eye(8)[1], atol=1e-14)
    assert np.allclose(np.abs(vectors[:, 1]), np.eye(8)[2], atol=1e-14)


def _pencil(rng, spectrum):
    """(S, W, X): W symmetric positive definite, S X = W X diag(spectrum), Xᵀ W X = I."""
    n = len(spectrum)
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    w = b @ b.T / n + np.eye(n)
    q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(n, n)))
    x = scipy.linalg.solve_triangular(np.linalg.cholesky(w), q, lower=True, trans="T")
    s = w @ x @ np.diag(spectrum) @ x.T @ w
    return 0.5 * (s + s.T), w, x


# The two "arnoldi" names are kept from the shift-invert Arnoldi solver these
# checks were first written for; they now check the symmetric-definite solve.

def test_eigs_constructed_spectrum_arnoldi(rng):
    s, w, _ = _pencil(rng, np.array([9.0, 0.5, 4.0, 1.0]))
    values, _ = smallest_magnitude_eigs(s, w, k=2)
    assert np.allclose(values, [0.5, 1.0], atol=1e-12)


def test_dense_and_arnoldi_agree(rng):
    spectrum = np.concatenate([np.linspace(0.5, 3.0, 8), np.linspace(10.0, 40.0, 52)])
    s, w, _ = _pencil(rng, rng.permutation(spectrum))
    k = 6
    dense = scipy.linalg.eigvals(s, w)
    dense = dense[np.argsort(np.abs(dense))][:k]
    values, vectors = smallest_magnitude_eigs(s, w, k=k)
    assert np.allclose(dense.imag, 0.0, atol=1e-9)
    assert np.allclose(values, dense.real, rtol=1e-9)
    assert np.allclose(values, spectrum[:k], rtol=1e-12)
    assert np.allclose(vectors.T @ w @ vectors, np.eye(k), atol=1e-12)


def test_residual_property(rng):
    s, w, _ = _pencil(rng, np.linspace(1.0, 20.0, 30))
    values, vectors = smallest_magnitude_eigs(s, w, k=4)
    for j in range(4):
        v = vectors[:, j]
        assert v @ w @ v == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(s @ v - values[j] * (w @ v)) <= 1e-12 * np.linalg.norm(s, "fro")


def test_values_sorted_by_modulus(rng):
    s, w, _ = _pencil(rng, np.array([7.0, 2.0, 5.0, 1.0, 3.0, 11.0, 4.0, 9.0, 6.0, 8.0]))
    values, _ = smallest_magnitude_eigs(s, w, k=8)
    assert np.allclose(values, np.arange(1.0, 9.0), atol=1e-12)


def test_indefinite_s_gives_the_lowest_first(rng):
    # an indefinite S gives its lowest eigenvalues, the negative ones first
    s, w, x = _pencil(rng, np.array([-30.0, -20.0, 0.5, -0.25, 1.0, 2.0, 4.0, 8.0]))
    values, vectors = smallest_magnitude_eigs(s, w, k=3)
    assert np.allclose(values, [-30.0, -20.0, -0.25], atol=1e-12)
    assert np.allclose(np.abs(x[:, [0, 1, 3]].T @ w @ vectors), np.eye(3), atol=1e-10)


def test_disk_dtn_shifted_spectrum():
    # on the disk D E = D K, symmetric, with the zero pair (constant and Nyquist) at 1
    disc = build_dtn(make_builtin("disk"), 32)
    dk = apply_diff_fast(disc.E)
    values, _ = smallest_magnitude_eigs(dk + np.eye(32), np.eye(32), k=12)
    expected = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    assert np.allclose(values, expected, atol=1e-12)


def test_nearly_degenerate_pair_cut_by_k():
    # 1 and 1 + 1e-12 are a double eigenvalue to rounding; k = 1 keeps one
    # vector of their eigenspace
    rotation = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    pair = rotation @ np.diag([1.0, 1.0 + 1e-12]) @ rotation.T
    s = np.block([[pair, np.zeros((2, 4))], [np.zeros((4, 2)), np.diag([5.0, 6.0, 7.0, 8.0])]])
    values, vectors = smallest_magnitude_eigs(s, np.eye(6), k=1)
    v = vectors[:, 0]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(s @ v - v) <= 1e-11


def test_k_bounds():
    s = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        smallest_magnitude_eigs(s, np.eye(4), k=0)
    with pytest.raises(ValueError):
        smallest_magnitude_eigs(s, np.eye(4), k=5)
    assert np.allclose(smallest_magnitude_eigs(s, np.eye(4), k=4)[0], [1.0, 2.0, 3.0, 4.0])


def test_arpack_error_is_eigen_solve_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("the eigenvectors failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    with pytest.raises(EigenSolveError, match="failed to converge"):
        smallest_magnitude_eigs(np.diag(np.arange(1.0, 9.0)), np.eye(8), k=2)


def test_indefinite_w_is_eigen_solve_error():
    w = np.diag([1.0, -1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(EigenSolveError, match="not positive definite"):
        smallest_magnitude_eigs(np.diag(np.arange(1.0, 7.0)), w, k=2)
