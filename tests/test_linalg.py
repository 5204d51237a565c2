import numpy as np
import pytest

from tmknet.errors import NumericalError
from tmknet.linalg import sym_eig, sym_fn, sym_fn_vjp, symmetrize

from conftest import random_spd, random_sym, rel_err


class TestSymEig:
    def test_diagonal(self):
        lam, u = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(lam, [1.0, 3.0])
        # columns are signed permutations of identity columns
        assert np.allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]])

    def test_identity(self):
        lam, u = sym_eig(np.eye(4))
        assert np.allclose(lam, 1.0)
        assert np.allclose(u @ u.T, np.eye(4), atol=1e-12)

    def test_hand_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l = 1, 3
        lam, u = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [1.0, 3.0])
        s = 1.0 / np.sqrt(2.0)
        v1, v2 = u[:, 0], u[:, 1]
        assert np.allclose(np.abs(v1), [s, s]) and np.sign(v1[0]) != np.sign(v1[1])
        assert np.allclose(np.abs(v2), [s, s]) and np.sign(v2[0]) == np.sign(v2[1])

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (3, 8, 30):
            m = random_sym(rng, n, scale=2.0)
            lam, u = sym_eig(m)
            assert rel_err((u * lam) @ u.T, m) < 1e-10
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10 * n

    def test_spd_eigenvalues_positive(self, rng):
        for _ in range(20):
            m = random_spd(rng, 6)
            assert sym_eig(m)[0].min() > 0

    def test_ascending(self, rng):
        lam, _ = sym_eig(random_sym(rng, 12))
        assert np.all(np.diff(lam) >= 0)

    def test_non_square_rejected(self):
        with pytest.raises(NumericalError):
            sym_eig(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            sym_eig(m)

    def test_nan_rejected(self):
        with pytest.raises(NumericalError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_batched_matches_serial(self, rng):
        batch = np.stack([random_spd(rng, 5) for _ in range(8)])
        lam_b, u_b = sym_eig(batch)
        for i in range(8):
            lam_i, u_i = sym_eig(batch[i])
            assert np.array_equal(lam_b[i], lam_i)
            assert np.array_equal(u_b[i], u_i)


class TestSymFn:
    def test_log_identity_is_zero(self):
        assert np.allclose(sym_fn(np.eye(3), "log"), 0.0)

    def test_sqrt_diagonal(self):
        assert np.allclose(sym_fn(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0]))

    def test_log_diagonal(self):
        m = np.diag([np.e, np.e ** 2])
        assert np.allclose(sym_fn(m, "log"), np.diag([1.0, 2.0]))

    def test_log_exp_round_trip(self, rng):
        for _ in range(10):
            m = random_spd(rng, 7)
            back = sym_fn(sym_fn(m, "log"), "exp")
            assert np.linalg.norm(back - m) <= 1e-8 * np.linalg.norm(m)

    def test_pow_one_is_identity_map(self, rng):
        m = random_spd(rng, 6)
        assert rel_err(sym_fn(m, "pow", 1.0), m) < 1e-12

    def test_clamp_min(self):
        m = np.diag([1e-8, 1.0])
        assert np.allclose(sym_fn(m, "clamp_min", 1e-4), np.diag([1e-4, 1.0]))

    def test_positivity_required(self):
        m = np.diag([-1.0, 2.0])
        with pytest.raises(NumericalError):
            sym_fn(m, "log")
        with pytest.raises(NumericalError):
            sym_fn(m, "sqrt")

    def test_batched(self, rng):
        batch = np.stack([random_spd(rng, 4) for _ in range(5)])
        out = sym_fn(batch, "log")
        for i in range(5):
            assert np.array_equal(out[i], sym_fn(batch[i], "log"))


def _vjp_fd(m, tag, upstream, param=None, h=1e-6, n_dirs=6, rng=None):
    """Directional central differences of <upstream, f(m)> against the vjp."""
    rng = rng or np.random.default_rng(0)
    v = sym_fn_vjp(sym_eig(m), tag, upstream, param)
    errs = []
    for _ in range(n_dirs):
        e = random_sym(rng, m.shape[0])
        e /= np.linalg.norm(e)
        fp = np.tensordot(symmetrize(upstream), sym_fn(m + h * e, tag, param), 2)
        fm = np.tensordot(symmetrize(upstream), sym_fn(m - h * e, tag, param), 2)
        fd = (fp - fm) / (2 * h)
        an = np.tensordot(v, e, 2)
        errs.append(abs(an - fd) / max(abs(fd), 1e-10))
    return max(errs)


class TestSymFnVjp:
    def test_diagonal_log(self):
        # derivative of log at a diagonal matrix is 1/lambda on the diagonal
        out = sym_fn_vjp(sym_eig(np.diag([1.0, 2.0])), "log", np.eye(2), None)
        assert np.allclose(out, np.diag([1.0, 0.5]))

    def test_pow2_at_identity(self, rng):
        s = rng.normal(size=(3, 3))
        out = sym_fn_vjp(sym_eig(np.eye(3)), "pow", s, 2.0)
        assert np.allclose(out, 2.0 * symmetrize(s))

    def test_random_spd_log_fd(self, rng):
        m = random_spd(rng, 5, eig_range=(0.5, 3.0))
        u = random_sym(rng, 5)
        assert _vjp_fd(m, "log", u, rng=rng) < 1e-5

    @pytest.mark.parametrize("tag,param", [("log", None), ("exp", None), ("pow", 0.3), ("clamp_min", 1e-4)])
    def test_fd_property_suite(self, tag, param, rng):
        # 100 instances with eigen-gap >= 1e-3, away from the clamp threshold
        worst = 0.0
        for _ in range(100):
            m = random_spd(rng, 5, eig_range=(0.3, 3.0), min_gap=1e-3)
            u = random_sym(rng, 5)
            worst = max(worst, _vjp_fd(m, tag, u, param, n_dirs=2, rng=rng))
        assert worst < 1e-5

    def test_degenerate_spectrum_uses_derivative(self):
        # equal eigenvalues: Loewner quotient would be 0/0; must use f'
        m = 2.0 * np.eye(3)
        u = np.eye(3)
        out = sym_fn_vjp(sym_eig(m), "log", u, None)
        assert np.allclose(out, 0.5 * np.eye(3))



class TestSpectralTable:
    """sym_fn and sym_fn_vjp read f, f' and the domain from one table."""

    @pytest.mark.parametrize("tag,param", [("log", None), ("exp", None), ("sqrt", None),
                                           ("inv_sqrt", None), ("pow", 0.3), ("pow", 2.0),
                                           ("clamp_min", 1.5)])
    def test_vjp_at_diagonal_is_derivative(self, tag, param):
        lam, h = np.array([0.5, 1.0, 2.0]), 1e-6
        out = sym_fn_vjp(sym_eig(np.diag(lam)), tag, np.eye(3), param)
        fd = (sym_fn(np.diag(lam + h), tag, param)
              - sym_fn(np.diag(lam - h), tag, param)).diagonal() / (2 * h)
        assert np.allclose(out, np.diag(fd), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("tag,param,defined", [
        ("log", None, False), ("exp", None, True), ("sqrt", None, False),
        ("inv_sqrt", None, False), ("pow", 0.5, False), ("pow", -1.0, False),
        ("pow", 2.0, False), ("pow", 0, False), ("clamp_min", 1e-4, True)])
    def test_value_and_vjp_share_the_domain(self, tag, param, defined):
        m = np.diag([-1.0, 2.0])
        for call in (lambda: sym_fn(m, tag, param),
                     lambda: sym_fn_vjp(sym_eig(m), tag, np.eye(2), param)):
            if defined:
                assert np.all(np.isfinite(call()))
            else:
                with pytest.raises(NumericalError, match="positive eigenvalues"):
                    call()

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown spectral function tag"):
            sym_fn(np.eye(2), "cbrt")
        with pytest.raises(ValueError, match="unknown spectral function tag"):
            sym_fn_vjp(sym_eig(np.eye(2)), "cbrt", np.eye(2), None)
