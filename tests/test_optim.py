import numpy as np
import pytest

from tmknet import optim
from tmknet.errors import NumericalError
from tmknet.optim import Param, adam_step

from conftest import random_spd, random_sym


def make_store(rng):
    q = np.linalg.qr(rng.normal(size=(5, 3)))[0].T
    return {"w": Param(rng.normal(size=(3, 4)), "euclidean", decay=True),
            "b": Param(np.zeros(3), "euclidean", decay=False),
            "stiefel": Param(q, "stiefel", decay=False),
            "spd": Param(random_spd(rng, 3), "spd", decay=False),
            "logv": Param(np.zeros(()), "log_scalar", decay=False)}


class TestAdamStep:
    def test_zero_gradient_leaves_values(self, rng):
        store = make_store(rng)
        before = {k: p.value.copy() for k, p in store.items()}
        grads = {k: np.zeros_like(p.value) for k, p in store.items() if not p.decay}
        adam_step(store, grads, lr=1e-3, weight_decay=0.0)
        for k in grads:
            assert np.allclose(store[k].value, before[k], atol=1e-12)
            assert store[k].step == 1

    def test_one_step_euclidean_hand_value(self):
        store = {"x": Param(np.zeros(()), "euclidean", decay=False)}
        g = 0.37
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (b1, b2, eps)
        adam_step(store, {"x": np.array(g)}, lr=lr, weight_decay=0.0)
        ghat = (g * (1 - b1) / (1 - b1)) / (np.sqrt(g * g * (1 - b2) / (1 - b2)) + eps)
        assert abs(float(store["x"].value) + lr * ghat) < 1e-15

    def test_stiefel_feasible_after_many_steps(self, rng):
        store = make_store(rng)
        for _ in range(100):
            grads = {"stiefel": rng.normal(size=(3, 5))}
            adam_step(store, grads, lr=0.01, weight_decay=1e-4)
            w = store["stiefel"].value
            assert np.linalg.norm(w @ w.T - np.eye(3)) < 1e-6

    def test_spd_stays_positive(self, rng):
        store = make_store(rng)
        for _ in range(200):
            grads = {"spd": random_sym(rng, 3, scale=0.5)}
            adam_step(store, grads, lr=0.05, weight_decay=1e-4)
            lam = np.linalg.eigvalsh(store["spd"].value)
            assert lam.min() > 0

    def test_log_scalar_decodes_positive(self, rng):
        store = make_store(rng)
        for _ in range(100):
            adam_step(store, {"logv": np.array(rng.normal())}, lr=0.1, weight_decay=1e-4)
            assert np.exp(float(store["logv"].value)) > 0

    def test_nan_gradient_aborts_without_mutation(self, rng):
        store = make_store(rng)
        before = {k: p.value.copy() for k, p in store.items()}
        grads = {"w": np.full((3, 4), np.nan)}
        with pytest.raises(NumericalError):
            adam_step(store, grads, lr=1e-3, weight_decay=1e-4)
        assert np.array_equal(store["w"].value, before["w"])
        assert store["w"].step == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_stiefel_retraction_of_non_finite_rows_fails(self, rng, bad):
        w = rng.normal(size=(3, 5))
        w[1, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            optim.stiefel_retract_rows(w)

    def test_overflowing_stiefel_step_fails(self, rng):
        # a first Adam step moves each entry by lr: the rows stay finite, but
        # their norms in QR overflow
        store = make_store(rng)
        with pytest.raises(NumericalError, match="Stiefel retraction failed"):
            adam_step(store, {"stiefel": rng.uniform(0.5, 1.0, size=(3, 5))}, lr=1e308,
                      weight_decay=0.0)

    def test_shape_mismatch_rejected(self, rng):
        store = make_store(rng)
        with pytest.raises(ValueError):
            adam_step(store, {"w": np.zeros((2, 2))}, lr=1e-3, weight_decay=1e-4)

    def test_unknown_parameter_rejected(self, rng):
        store = make_store(rng)
        with pytest.raises(KeyError):
            adam_step(store, {"nope": np.zeros(3)}, lr=1e-3, weight_decay=1e-4)

    def test_determinism(self, rng):
        def run():
            r = np.random.default_rng(7)
            store = make_store(r)
            for _ in range(20):
                grads = {k: r.normal(size=p.value.shape) for k, p in store.items()}
                adam_step(store, grads, lr=0.01, weight_decay=1e-4)
            return {k: p.value.copy() for k, p in store.items()}

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])


class TestDescent:
    def test_convex_quadratic_converges(self, rng):
        # f(x) = 0.5 x^T A x with SPD A; Adam should crush the objective
        a = random_spd(rng, 5, eig_range=(0.5, 2.0))
        x0 = rng.normal(size=5) * 3.0
        store = {"x": Param(x0, "euclidean", decay=False)}
        f0 = 0.5 * x0 @ a @ x0
        for _ in range(500):
            x = store["x"].value
            adam_step(store, {"x": a @ x}, lr=0.1, weight_decay=0.0)
        x = store["x"].value
        assert 0.5 * x @ a @ x < 1e-6 * f0

    def test_spd_parameter_descends(self, rng):
        # minimize squared distance to a fixed SPD target in embedding space
        target = random_spd(rng, 3)
        store = {"p": Param(np.eye(3), "spd", decay=False)}
        losses = []
        for _ in range(300):
            p = store["p"].value
            losses.append(float(np.sum((p - target) ** 2)))
            adam_step(store, {"p": 2.0 * (p - target)}, lr=0.05, weight_decay=1e-4)
        assert losses[-1] < 0.05 * losses[0]


class TestDecayPolicy:
    # a zero gradient leaves Adam's moments at zero, so a step only decays
    def test_euclidean_weight_decays(self, rng):
        store = make_store(rng)
        before = store["w"].value.copy()
        adam_step(store, {"w": np.zeros((3, 4))}, lr=0.5, weight_decay=1e-4)
        assert np.array_equal(store["w"].value, before * (1.0 - 0.5 * 1e-4))

    def test_bias_and_manifolds_do_not(self, rng):
        store = make_store(rng)
        for p in store.values():
            p.decay = True  # the flag alone does not decay a non-Euclidean tag
        store["b"].decay = False
        store["logv"].value = np.array(1.5)  # zero would hide a decay
        before = {k: p.value.copy() for k, p in store.items()}
        grads = {k: np.zeros_like(p.value) for k, p in store.items() if k != "w"}
        adam_step(store, grads, lr=0.5, weight_decay=1e-1)
        for name in ("b", "logv"):
            assert np.array_equal(store[name].value, before[name])
        for name in ("stiefel", "spd"):  # retraction and exp map round off only
            assert np.allclose(store[name].value, before[name], rtol=0, atol=1e-12)

    def test_decay_shrinks_weight(self, rng):
        store = {"w": Param(np.full((2, 2), 10.0), "euclidean", decay=True)}
        adam_step(store, {"w": np.zeros((2, 2))}, lr=1.0, weight_decay=1e-2)
        assert np.allclose(store["w"].value, 10.0 * (1 - 1e-2))
