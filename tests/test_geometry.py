import numpy as np
import pytest

from tmknet.errors import NumericalError
from tmknet.linalg import sym_fn, symmetrize
from tmknet.geometry import airm_dist, exp_map, geo_mean, parallel_transport

from conftest import random_spd, random_sym
from spd_oracles import frechet_variance, karcher_mean, log_map


class TestAirmDist:
    def test_self_distance_zero(self, rng):
        z = random_spd(rng, 5)
        assert airm_dist(z, z) < 1e-10

    def test_diagonal_hand_value(self):
        # log of whitened matrix is diag(2, 2); Frobenius norm sqrt(8)
        d = airm_dist(np.eye(2), np.diag([np.e ** 2, np.e ** 2]))
        assert abs(d - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_affine_invariance(self, rng):
        for _ in range(20):
            z1, z2 = random_spd(rng, 6), random_spd(rng, 6)
            a = rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
            d0 = airm_dist(z1, z2)
            d1 = airm_dist(a @ z1 @ a.T, a @ z2 @ a.T)
            assert abs(d0 - d1) < 1e-8 * max(1.0, d0)

    def test_symmetry_and_separation(self, rng):
        z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
        assert abs(airm_dist(z1, z2) - airm_dist(z2, z1)) < 1e-10
        assert airm_dist(z1, z2) > 1e-8

    def test_dimension_mismatch(self, rng):
        with pytest.raises(NumericalError):
            airm_dist(np.eye(3), np.eye(4))

    def test_non_spd_rejected(self):
        with pytest.raises(NumericalError):
            airm_dist(np.diag([1.0, -1.0]), np.eye(2))

    def test_metric_axioms_random_triples(self, rng):
        for _ in range(200):
            a, b, c = (random_spd(rng, 10) for _ in range(3))
            dab, dba = airm_dist(a, b), airm_dist(b, a)
            assert abs(dab - dba) <= 1e-10 * max(1.0, dab)
            assert airm_dist(a, c) <= dab + airm_dist(b, c) + 1e-9
        z = random_spd(rng, 10)
        assert airm_dist(z, z) < 1e-8


class TestGeoMean:
    def test_endpoints(self, rng):
        z1, z2 = random_spd(rng, 4), random_spd(rng, 4)
        assert np.allclose(geo_mean(z1, z2, 0.0), z1)
        assert np.allclose(geo_mean(z1, z2, 1.0), z2)

    def test_scalar_geometric_mean(self):
        out = geo_mean(np.diag([1.0]), np.diag([4.0]), 0.5)
        assert np.allclose(out, np.diag([2.0]))

    def test_geodesic_equidistance(self, rng):
        for w in (0.25, 0.5, 0.8):
            z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
            m = geo_mean(z1, z2, w)
            assert abs(airm_dist(z1, m) - w * airm_dist(z1, z2)) < 1e-8

    def test_on_geodesic_additivity(self, rng):
        for _ in range(20):
            z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
            m = geo_mean(z1, z2, rng.uniform(0.1, 0.9))
            total = airm_dist(z1, z2)
            assert abs(airm_dist(z1, m) + airm_dist(m, z2) - total) < 1e-7

    def test_weight_out_of_range(self, rng):
        z = random_spd(rng, 3)
        with pytest.raises(ValueError):
            geo_mean(z, z, 1.5)


class TestKarcherMean:
    def test_single_point(self, rng):
        z = random_spd(rng, 4)
        out = karcher_mean(z[None], iters=1)
        assert np.allclose(out, z, atol=1e-10)
        # one iteration recovers the point from any starting estimate
        out = karcher_mean(z[None], iters=1, init=random_spd(rng, 4))
        assert np.allclose(out, z, atol=1e-10)

    def test_commuting_diagonal(self):
        batch = np.stack([np.diag([1.0]), np.diag([4.0])])
        out = karcher_mean(batch, iters=1)
        assert np.allclose(out, np.diag([2.0]))

    def test_two_points_match_closed_form(self, rng):
        z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
        est = karcher_mean(np.stack([z1, z2]), iters=30)
        assert np.linalg.norm(est - geo_mean(z1, z2, 0.5)) < 1e-6

    def test_gradient_norm_decreases(self, rng):
        batch = np.stack([random_spd(rng, 6) for _ in range(8)])
        norms = []
        g = np.eye(6)
        for _ in range(6):
            # the Frechet gradient at g: mean_j log(g^{-1/2} Z_j g^{-1/2})
            inv_s = sym_fn(g, "inv_sqrt")
            t = sym_fn(symmetrize(inv_s @ batch @ inv_s), "log").mean(axis=0)
            norms.append(np.linalg.norm(t))
            g = karcher_mean(batch, iters=1, init=g, tol=0.0)
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_output_spd(self, rng):
        batch = np.stack([random_spd(rng, 5) for _ in range(6)])
        out = karcher_mean(batch)
        assert np.linalg.eigvalsh(out).min() > 0

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            karcher_mean(np.empty((0, 3, 3)))


class TestFrechetVariance:
    def test_identical_batch(self, rng):
        z = random_spd(rng, 4)
        assert frechet_variance(np.stack([z, z, z]), z) < 1e-18

    def test_diagonal_hand_value(self):
        batch = np.stack([np.eye(2), np.diag([np.e ** 2, np.e ** 2])])
        g = np.diag([np.e, np.e])
        # both distances are sqrt(2); mean of squares is 2
        assert abs(frechet_variance(batch, g) - 2.0) < 1e-12

    def test_minimizer_property(self, rng):
        batch = np.stack([random_spd(rng, 4) for _ in range(10)])
        g = karcher_mean(batch, iters=40)
        v_star = frechet_variance(batch, g)
        for _ in range(10):
            other = random_spd(rng, 4)
            assert v_star <= frechet_variance(batch, other) + 1e-10


class TestParallelTransport:
    def test_same_point_is_identity(self, rng):
        z = random_spd(rng, 4)
        s = random_sym(rng, 4)
        assert np.allclose(parallel_transport(s, z, z), s, atol=1e-10)

    def test_to_identity_whitens(self, rng):
        g = random_spd(rng, 5)
        s = random_sym(rng, 5)
        e = np.linalg.eigh(g)
        inv_sqrt = (e[1] * e[0] ** -0.5) @ e[1].T
        assert np.allclose(parallel_transport(s, g, np.eye(5)), inv_sqrt @ s @ inv_sqrt, atol=1e-9)

    def test_norm_preservation(self, rng):
        for _ in range(20):
            z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
            s = random_sym(rng, 5)
            sp = parallel_transport(s, z1, z2)
            n1 = np.trace(np.linalg.solve(z1, s) @ np.linalg.solve(z1, s))
            n2 = np.trace(np.linalg.solve(z2, sp) @ np.linalg.solve(z2, sp))
            assert abs(n1 - n2) < 1e-8 * max(1.0, abs(n1))

    def test_round_trip(self, rng):
        z1, z2 = random_spd(rng, 5), random_spd(rng, 5)
        s = random_sym(rng, 5)
        back = parallel_transport(parallel_transport(s, z1, z2), z2, z1)
        assert np.linalg.norm(back - s) < 1e-9


class TestLogExpMap:
    def test_round_trip(self, rng):
        base = random_spd(rng, 5)
        s = random_sym(rng, 5, scale=0.5)
        assert np.allclose(log_map(base, exp_map(base, s)), s, atol=1e-9)

    def test_log_map_identity_base(self, rng):
        z = random_spd(rng, 4)
        e = np.linalg.eigh(z)
        expected = (e[1] * np.log(e[0])) @ e[1].T
        assert np.allclose(log_map(np.eye(4), z), expected, atol=1e-10)


class TestNonSpdArguments:
    """Every SPD argument is rejected through NumericalError by the
    eigendecomposition that factors it, at every weight of geo_mean."""

    BAD = {"indefinite": np.diag([1.0, -1.0, 2.0]), "singular": np.diag([1.0, 0.0, 1.0]),
           "nan": np.diag([np.nan, 1.0, 1.0]), "inf": np.diag([np.inf, 1.0, 1.0])}
    GOOD = 2.0 * np.eye(3)
    CALLS = {
        "airm_dist z1": lambda b, z: airm_dist(b, z),
        "airm_dist z2": lambda b, z: airm_dist(z, b),
        "geo_mean z1 w=0.3": lambda b, z: geo_mean(b, z, 0.3),
        "geo_mean z2 w=0.3": lambda b, z: geo_mean(z, b, 0.3),
        "geo_mean z1 w=0": lambda b, z: geo_mean(b, z, 0.0),
        "geo_mean z2 w=0": lambda b, z: geo_mean(z, b, 0.0),
        "geo_mean z1 w=1": lambda b, z: geo_mean(b, z, 1.0),
        "geo_mean z2 w=1": lambda b, z: geo_mean(z, b, 1.0),
        "karcher_mean init": lambda b, z: karcher_mean(z[None], init=b),
        "parallel_transport z1": lambda b, z: parallel_transport(np.eye(3), b, z),
        "parallel_transport z2": lambda b, z: parallel_transport(np.eye(3), z, b),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("bad", list(BAD))
    def test_raises_numerical_error(self, call, bad):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError):
                self.CALLS[call](self.BAD[bad], self.GOOD)


class TestMalformedArguments:
    """A matrix that is not square, has the other argument's size wrong, or is
    asymmetric beyond 1e-8 relative is a NumericalError in either position."""

    BAD = {"asymmetric": np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]),
           "non-square": np.ones((2, 3)) + np.eye(2, 3),
           "wrong-size": 2.0 * np.eye(4)}
    GOOD = 2.0 * np.eye(3)
    TANGENT = np.diag([0.1, -0.2, 0.3])
    CALLS = {
        "airm_dist": lambda z1, z2: airm_dist(z1, z2),
        "geo_mean w=0.3": lambda z1, z2: geo_mean(z1, z2, 0.3),
        "geo_mean w=0": lambda z1, z2: geo_mean(z1, z2, 0.0),
        "geo_mean w=1": lambda z1, z2: geo_mean(z1, z2, 1.0),
        "log_map": lambda z1, z2: log_map(z1, z2),
        "exp_map": lambda z1, z2: exp_map(z1, z2),
        "parallel_transport": lambda z1, z2: parallel_transport(
            TestMalformedArguments.TANGENT, z1, z2),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    @pytest.mark.parametrize("position", ["z1", "z2"])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_raises_numerical_error(self, call, position, bad):
        other = self.TANGENT if call == "exp_map" and position == "z1" else self.GOOD
        args = (self.BAD[bad], other) if position == "z1" else (self.GOOD, self.BAD[bad])
        with pytest.raises(NumericalError):
            self.CALLS[call](*args)
