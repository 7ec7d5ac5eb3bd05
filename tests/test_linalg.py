"""Eigendecomposition, PSD square root, and norm contracts.

The package's eigensolver is numpy.linalg.eigh (LAPACK), so comparing against
numpy only checks the ordering and sign conventions layered on top. The
independent checks are reconstruction, orthonormality and closed forms.
"""

import numpy as np
import pytest

from ojaboot import linalg


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


class TestSym:
    def test_averages_asymmetry(self):
        a = linalg.sym([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(a, [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.sym(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.sym([[np.nan, 0.0], [0.0, 1.0]])


class TestEigh:
    def test_identity(self):
        dec = linalg.eigh(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(dec.eigenvectors, np.eye(3))

    def test_diagonal(self):
        dec = linalg.eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(dec.eigenvectors, np.eye(2))

    def test_2x2_closed_form(self):
        # [[2,1],[1,2]]: eigenvalues 2 +/- 1, eigenvectors (1,1)/sqrt2, (1,-1)/sqrt2.
        dec = linalg.eigh([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(dec.eigenvectors[:, 1], [r, -r], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 20, 50, 113, 200])
    def test_random_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        a = random_symmetric(rng, d, scale=3.0)
        dec = linalg.eigh(a)
        norm_a = np.linalg.norm(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, norm_a)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    @pytest.mark.parametrize("d", [3, 17, 60])
    def test_matches_numpy_eigenvalues(self, d):
        rng = np.random.default_rng(100 + d)
        a = random_symmetric(rng, d)
        dec = linalg.eigh(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(dec.eigenvalues, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))

    def test_matches_numpy_eigenvectors_up_to_sign(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(rng, 12)
        dec = linalg.eigh(a)
        vals, vecs = np.linalg.eigh(a)
        vecs = vecs[:, ::-1]
        cos = np.abs(np.sum(dec.eigenvectors * vecs, axis=0))
        np.testing.assert_allclose(cos, np.ones(12), atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_symmetric(rng, 8)
            q = linalg.eigh(a).eigenvectors
            for k in range(8):
                col = q[:, k]
                assert col[np.argmax(np.abs(col))] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 15)
        d1 = linalg.eigh(a)
        d2 = linalg.eigh(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_near_degenerate_spectrum(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
        vals = np.array([2.0, 2.0 - 1e-13, 1.0, 1.0, 1.0, 0.5])
        a = (q * vals) @ q.T
        dec = linalg.eigh(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - linalg.sym(a)) <= 1e-10 * max(1.0, np.linalg.norm(a))


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(linalg.sqrt_psd(linalg.eigh(np.eye(3))), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.sqrt_psd(linalg.eigh(np.diag([4.0, 9.0]))),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_2x2_by_squaring(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = linalg.sqrt_psd(linalg.eigh(a))
        np.testing.assert_allclose(s @ s, a, atol=1e-10)
        np.testing.assert_allclose(s, s.T)

    @pytest.mark.parametrize("d", [2, 10, 40])
    def test_random_psd_squares_back(self, d):
        rng = np.random.default_rng(d + 1)
        r = rng.standard_normal((d, d))
        a = r @ r.T
        s = linalg.sqrt_psd(linalg.eigh(a))
        assert np.linalg.norm(s @ s - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-10

    def test_clamps_tiny_negative(self):
        a = np.diag([1.0, -1e-12])
        s = linalg.sqrt_psd(linalg.eigh(a))
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(linalg.NotPsdError):
            linalg.sqrt_psd(linalg.eigh(np.diag([1.0, -1.0])))


class TestNorms:
    def test_identity_d4(self):
        a = np.eye(4)
        assert linalg.frobenius_norm(a) == 2.0

    def test_zero(self):
        a = np.zeros((3, 3))
        assert linalg.frobenius_norm(a) == 0.0

    def test_diag_with_negative(self):
        a = np.diag([3.0, -1.0])
        assert linalg.frobenius_norm(a) == pytest.approx(np.sqrt(10.0))

    def test_no_square_overflows(self):
        # the squares of these entries overflow; the norm itself is finite
        assert linalg.frobenius_norm([[3e300, -4e300]]) == pytest.approx(5e300, rel=1e-15)
        assert linalg.frobenius_norm(np.full((3, 3), 5e307)) == pytest.approx(1.5e308, rel=1e-15)
        assert linalg.frobenius_norm([[np.inf, 1.0]]) == np.inf

    def test_bitwise_equal_to_numpy_where_finite(self):
        rng = np.random.default_rng(14)
        for scale in (1e-100, 1e-3, 1.0, 7.5, 1e100):
            a = scale * rng.standard_normal((9, 9))
            assert linalg.frobenius_norm(a) == float(np.linalg.norm(a))
