import ctypes
import gc
import os
import weakref

import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet.autodiff import Tape
from tmknet.backbone import bimap

from chain_ops import concat, conv2d, leaky_relu, max_pool_time
from conftest import central_diff, random_spd, random_sym, rel_err


def check_grads(build, arrays, h=1e-6, tol=1e-4, subsample=None, rng=None):
    """Compare reverse-mode gradients of scalar build(vars) with central differences.

    `build(tape, vars)` returns a scalar Variable; `arrays` is a dict of leaf
    values. With `subsample`, only that many random coordinates per array are
    checked (faster for large leaves).
    """
    tape = Tape()
    leaves = {k: tape.leaf(v.copy(), requires_grad=True) for k, v in arrays.items()}
    loss = build(tape, leaves)
    tape.backward(loss)

    def run(vals):
        t2 = Tape()
        l2 = {k: t2.leaf(v, requires_grad=False) for k, v in vals.items()}
        return float(build(t2, l2).value)

    for name, base in arrays.items():
        grad = leaves[name].grad
        assert grad is not None and grad.shape == base.shape
        flat = base.ravel()
        if subsample is not None and flat.size > subsample:
            idx = (rng or np.random.default_rng(0)).choice(flat.size, subsample, replace=False)
        else:
            idx = range(flat.size)
        for i in idx:
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            fp = run(arrays)
            flat[i] = orig - step
            fm = run(arrays)
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            an = grad.ravel()[i]
            scale = max(abs(fd), abs(an), 1e-6)
            assert abs(an - fd) / scale < tol, f"{name}[{i}]: analytic {an}, fd {fd}"


class TestTapeMechanics:
    def test_record_add(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
        b = tape.leaf(rng.normal(size=(3,)))
        out = ad.add(a, b)
        assert np.array_equal(out.value, a.value + b.value)

    def test_record_matmul(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(2, 3)), requires_grad=True)
        b = tape.leaf(rng.normal(size=(3, 4)))
        assert np.allclose(ad.matmul(a, b).value, a.value @ b.value)

    def test_mixing_tapes_rejected(self, rng):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(rng.normal(size=(2, 2)))
        b = t2.leaf(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_backward_on_non_scalar(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(ad.mul(a, 2.0))

    def test_backward_twice(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
        loss = ad.sum_(a)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_backward_releases_graph(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3, 4)), requires_grad=True)
        b = tape.leaf(rng.normal(size=(4, 2)), requires_grad=True)
        c = tape.leaf(rng.normal(size=(3, 2)))
        y = ad.matmul(a, b)
        z = leaky_relu(ad.add(y, c), 0.1)
        loss = ad.sum_(ad.mul(z, z))
        tape.backward(loss)
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)
        assert y.grad is None and z.grad is None and loss.grad is None and c.grad is None
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_graph_freed_without_cyclic_collector(self, rng):
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            ref = weakref.ref(tape)
            a = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
            tape.backward(ad.sum_(ad.mul(ad.exp(a), a)))
            grad = a.grad
            del tape, a
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
        assert grad.shape == (3,)

    def test_sum_grad_is_ones(self, rng):
        tape = Tape()
        x = tape.leaf(rng.normal(size=(5,)), requires_grad=True)
        tape.backward(ad.sum_(x))
        assert np.array_equal(x.grad, np.ones(5))

    def test_hand_gradient_wx(self, rng):
        # loss = ||W x||^2  ->  dL/dW = 2 (W x) x^T
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(3, 1))
        tape = Tape()
        wv = tape.leaf(w, requires_grad=True)
        y = ad.matmul(wv, tape.leaf(x))
        tape.backward(ad.sum_(ad.mul(y, y)))
        assert np.allclose(wv.grad, 2.0 * (w @ x) @ x.T)

    def test_chain_matches_fd(self, rng):
        def build(tape, v):
            y = ad.matmul(v["a"], v["b"])
            z = leaky_relu(y, 0.1)
            return ad.sum_(ad.mul(z, z))

        check_grads(build, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))})

    def test_zero_grad_for_unused_leaf(self, rng):
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
        b = tape.leaf(rng.normal(size=(3,)), requires_grad=True)
        tape.backward(ad.sum_(a))
        assert np.array_equal(b.grad, np.zeros(3))

    def test_linearity_exact(self, rng):
        x = rng.normal(size=(4,))

        def grad_of(fn):
            tape = Tape()
            v = tape.leaf(x, requires_grad=True)
            tape.backward(fn(v))
            return v.grad

        gf = grad_of(lambda v: ad.sum_(ad.mul(v, v)))
        gg = grad_of(lambda v: ad.sum_(ad.mul(v, 3.0)))
        combined = grad_of(
            lambda v: ad.add(ad.mul(ad.sum_(ad.mul(v, v)), 2.0), ad.mul(ad.sum_(ad.mul(v, 3.0)), -0.5))
        )
        assert np.array_equal(combined, 2.0 * gf + (-0.5) * gg)

    def test_accumulation_deterministic(self, rng):
        vals = {"a": rng.normal(size=(6, 6))}

        def build(tape, v):
            y = ad.matmul(v["a"], v["a"])
            return ad.sum_(ad.mul(y, y))

        grads = []
        for _ in range(2):
            tape = Tape()
            leaves = {k: tape.leaf(val.copy(), requires_grad=True) for k, val in vals.items()}
            tape.backward(build(tape, leaves))
            grads.append(leaves["a"].grad)
        assert np.array_equal(grads[0], grads[1])


class TestGradientAliasing:
    """`add` hands one upstream array to both parents, and a Variable's first
    contribution is kept by reference; a later contribution must not write
    into it. Integer-valued weights keep every hand gradient exact."""

    @staticmethod
    def weights(rng, shape=(3, 4)):
        return rng.integers(-9, 10, size=shape).astype(np.float64)

    def test_add_then_further_uses_of_both_parents(self, rng):
        w = self.weights(rng)
        tape = Tape()
        a = tape.leaf(rng.normal(size=w.shape), requires_grad=True)
        b = tape.leaf(rng.normal(size=w.shape), requires_grad=True)
        ya, yb = ad.mul(a, 2.0), ad.mul(b, 4.0)
        s = ad.add(a, b)  # recorded last, so its shared gradient reaches a and b first
        tape.backward(ad.sum_(ad.mul(ad.add(ad.add(s, ya), yb), w)))
        assert np.array_equal(a.grad, 3.0 * w)
        assert np.array_equal(b.grad, 5.0 * w)
        assert a.grad is not b.grad

    def test_add_of_a_variable_to_itself(self, rng):
        w = self.weights(rng)
        tape = Tape()
        x = tape.leaf(rng.normal(size=w.shape), requires_grad=True)
        y = ad.mul(x, 4.0)
        s = ad.add(x, x)  # its upstream gradient is also y's
        tape.backward(ad.sum_(ad.mul(ad.add(s, y), w)))
        assert np.array_equal(x.grad, 6.0 * w)

    def test_five_contributions_to_one_variable(self, rng):
        w = self.weights(rng)
        tape = Tape()
        x = tape.leaf(rng.normal(size=w.shape), requires_grad=True)
        other = tape.leaf(rng.normal(size=w.shape), requires_grad=True)
        parts = [ad.mul(x, c) for c in (2.0, 3.0, 4.0, 5.0)]
        parts.append(ad.add(x, other))  # recorded last: x's first gradient is other's
        total = parts[0]
        for part in parts[1:]:
            total = ad.add(total, part)
        tape.backward(ad.sum_(ad.mul(total, w)))
        assert np.array_equal(x.grad, 15.0 * w)
        assert np.array_equal(other.grad, w)
        assert x.grad is not other.grad


class TestElementwiseOps:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_broadcasting(self, op, rng):
        fn = getattr(ad, op)

        def build(tape, v):
            return ad.sum_(ad.mul(fn(v["a"], v["b"]), 1.7))

        for ashape, bshape in [((4, 3), (4, 3)), ((4, 3), (3,)), ((2, 4, 3), (1, 3))]:
            a = rng.normal(size=ashape)
            b = rng.normal(size=bshape) + 2.0  # keep divisors away from zero
            check_grads(build, {"a": a, "b": b})

    def test_scalar_mul(self, rng):
        def build(tape, v):
            return ad.sum_(ad.mul(v["a"], 2.5))

        check_grads(build, {"a": rng.normal(size=(5,))})

    def test_power_exp_log(self, rng):
        def build(tape, v):
            y = ad.power(v["a"], 0.5)
            return ad.sum_(ad.exp(y))

        check_grads(build, {"a": rng.uniform(0.5, 2.0, size=(6,))})

    def test_neg_transpose_reshape(self, rng):
        def build(tape, v):
            y = ad.transpose(v["a"])
            return ad.sum_(ad.mul(ad.reshape(y, (6,)), np.arange(6.0)))

        check_grads(build, {"a": rng.normal(size=(2, 3))})

    def test_mean_axes(self, rng):
        def build(tape, v):
            m = ad.mean(v["a"], axis=(0, 2), keepdims=True)
            return ad.sum_(ad.mul(m, m))

        check_grads(build, {"a": rng.normal(size=(3, 4, 5))})


class TestMatmulOps:
    def test_plain(self, rng):
        def build(tape, v):
            return ad.sum_(ad.mul(ad.matmul(v["a"], v["b"]), 0.3))

        check_grads(build, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 5))})

    def test_batched(self, rng):
        def build(tape, v):
            y = ad.matmul(v["a"], v["b"])  # (6,3,4) @ (4,2) broadcast
            return ad.sum_(ad.mul(y, y))

        check_grads(build, {"a": rng.normal(size=(6, 3, 4)), "b": rng.normal(size=(4, 2))})

    def test_bilinear(self, rng):
        spd = np.stack([random_spd(rng, 5) for _ in range(3)])

        def build(tape, v):
            y = bimap(v["c"], v["w"])
            return ad.sum_(ad.mul(y, y))

        check_grads(build, {"w": rng.normal(size=(3, 5)), "c": spd}, subsample=40, rng=rng)


CONV_CASES = pytest.mark.parametrize(
    "xshape,wshape,stride,dilation",
    [
        ((2, 1, 4, 16), (3, 1, 1, 5), (1, 1), (1, 1)),   # time kernel
        ((2, 3, 8, 6), (4, 3, 8, 1), (1, 1), (1, 1)),    # global sensor kernel
        ((2, 3, 8, 6), (4, 3, 4, 1), (4, 1), (1, 1)),    # strided sensor kernel
        ((2, 3, 8, 6), (4, 3, 2, 1), (1, 1), (4, 1)),    # dilated sensor kernel
        ((1, 2, 9, 11), (2, 2, 3, 3), (2, 3), (2, 2)),   # general case
    ],
)


class TestConv:
    @CONV_CASES
    def test_grad_matches_fd(self, xshape, wshape, stride, dilation, rng):
        def build(tape, v):
            y = conv2d(v["x"], v["w"], v["b"], stride=stride, dilation=dilation)
            return ad.sum_(ad.mul(y, y))

        arrays = {
            "x": rng.normal(size=xshape),
            "w": rng.normal(size=wshape),
            "b": rng.normal(size=(wshape[0],)),
        }
        check_grads(build, arrays, subsample=30, rng=rng)

    @CONV_CASES
    def test_constant_operand_leaves_other_grads_bit_identical(
        self, xshape, wshape, stride, dilation, rng
    ):
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[0])

        def grads(x_grad, w_grad):
            tape = Tape()
            xv = tape.leaf(x, requires_grad=x_grad)
            wv = tape.leaf(w, requires_grad=w_grad)
            bv = tape.leaf(b, requires_grad=True)
            y = conv2d(xv, wv, bv, stride=stride, dilation=dilation)
            tape.backward(ad.sum_(ad.mul(y, y)))
            return xv.grad, wv.grad, bv.grad

        gx, gw, gb = grads(True, True)
        _, gw_const_x, gb_const_x = grads(False, True)
        gx_const_w, _, gb_const_w = grads(True, False)
        assert np.array_equal(gw_const_x, gw) and np.array_equal(gb_const_x, gb)
        assert np.array_equal(gx_const_w, gx) and np.array_equal(gb_const_w, gb)

    def test_identity_kernel(self, rng):
        x = rng.uniform(0.5, 1.5, size=(2, 1, 3, 7))
        tape = Tape()
        w = tape.leaf(np.ones((1, 1, 1, 1)))
        out = conv2d(tape.leaf(x), w, None)
        assert np.allclose(out.value, x)

    def test_oversized_kernel_rejected(self, rng):
        tape = Tape()
        x = tape.leaf(rng.normal(size=(1, 1, 2, 4)))
        w = tape.leaf(rng.normal(size=(1, 1, 1, 5)))
        with pytest.raises(ValueError):
            conv2d(x, w)


def pool_reference(vx, size, g):
    """Max pooling by argmax over a reshaped copy of the windows, with the
    gradient put back at the argmax: values and gradient of `max_pool_time`."""
    *lead, t = vx.shape
    ot = t // size
    windows = vx[..., : ot * size].reshape(*lead, ot, size)
    arg = windows.argmax(axis=-1)  # first max wins on ties
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    gw = np.zeros_like(windows)
    np.put_along_axis(gw, arg[..., None], g[..., None], axis=-1)
    gx = np.zeros_like(vx)
    gx[..., : ot * size] = gw.reshape(*lead, ot * size)
    return out, gx


def tied_conv_output(rng, t):
    """Integer-valued (2, 4, 3, t) conv output, full of ties; conv2d returns
    it channels-last in memory, so it is not C-contiguous."""
    tape = Tape()
    x = tape.leaf(rng.integers(-2, 3, size=(2, 1, 3, t + 2)).astype(float))
    w = tape.leaf(rng.integers(-1, 2, size=(4, 1, 1, 3)).astype(float))
    return conv2d(x, w).value


class TestPooling:
    def test_forward_values(self):
        tape = Tape()
        x = tape.leaf(np.array([[[[1.0, 3.0, 2.0, 0.0, 5.0]]]]))
        out = max_pool_time(x, 2)
        assert np.array_equal(out.value, [[[[3.0, 2.0]]]])  # tail truncated

    def test_tie_routes_to_earliest(self):
        tape = Tape()
        x = tape.leaf(np.array([[[[2.0, 2.0, 1.0, 1.0]]]]), requires_grad=True)
        out = max_pool_time(x, 2)
        tape.backward(ad.sum_(out))
        assert np.array_equal(x.grad, [[[[1.0, 0.0, 1.0, 0.0]]]])

    def test_grad_matches_fd_no_ties(self, rng):
        def build(tape, v):
            y = max_pool_time(v["x"], 3)
            return ad.sum_(ad.mul(y, y))

        x = rng.normal(size=(2, 2, 3, 9))
        check_grads(build, {"x": x}, tol=1e-3)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [12, 13, 15])
    @pytest.mark.parametrize("layout", ["c", "conv"])
    def test_matches_argmax_reference(self, size, t, layout, rng):
        if layout == "conv":
            vx = tied_conv_output(rng, t)
            assert not vx.flags.c_contiguous
        else:
            vx = rng.integers(-2, 3, size=(2, 4, 3, t)).astype(float)
        tape = Tape()
        x = tape.leaf(vx, requires_grad=True)
        out = max_pool_time(x, size)
        g = rng.normal(size=out.value.shape)
        tape.backward(ad.sum_(ad.mul(out, g)))
        ref_out, ref_gx = pool_reference(vx, size, g)
        assert np.array_equal(out.value, ref_out)
        assert out.value.strides == ref_out.strides  # later sums run in memory order
        assert np.array_equal(x.grad, ref_gx)
        assert x.grad.tobytes() == ref_gx.tobytes()  # +0.0 off the winners, as the reference

    def test_nan_window_matches_argmax_reference(self, rng):
        vx = rng.normal(size=(2, 3, 10))
        vx[0, 1, 2] = vx[1, 2, 1] = vx[1, 2, 3] = np.nan
        tape = Tape()
        x = tape.leaf(vx, requires_grad=True)
        out = max_pool_time(x, 4)
        g = rng.normal(size=out.value.shape)
        tape.backward(ad.sum_(ad.mul(out, g)))
        ref_out, ref_gx = pool_reference(vx, 4, g)
        assert np.array_equal(out.value, ref_out, equal_nan=True)
        assert np.array_equal(x.grad, ref_gx)


class TestSpectralOps:
    @pytest.mark.parametrize("tag,param", [("log", None), ("exp", None), ("pow", 0.3), ("clamp_min", 1e-4)])
    def test_sym_fn_grad(self, tag, param, rng):
        spd = np.stack([random_spd(rng, 4, min_gap=1e-2) for _ in range(2)])

        def build(tape, v):
            m = ad.mul(ad.add(v["a"], ad.transpose(v["a"])), 0.5)
            y = ad.sym_fn(m, tag, param)
            return ad.sum_(ad.mul(y, y))

        check_grads(build, {"a": spd}, subsample=24, rng=rng)

    def test_covariance_and_centering(self, rng):
        def build(tape, v):
            c = ad.covariance(v["x"])
            return ad.sum_(ad.mul(c, c))

        check_grads(build, {"x": rng.normal(size=(2, 4, 7))})

    def test_covariance_hand_value(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0, -1.0], [1.0, 1.0]]))
        c = ad.covariance(x)
        assert np.allclose(c.value, [[2.0, 0.0], [0.0, 0.0]])


class TestGatherConcat:
    def test_gather_grad(self, rng):
        def build(tape, v):
            y = ad.gather(v["x"], [2, 0, 3], axis=1)
            return ad.sum_(ad.mul(y, y))

        check_grads(build, {"x": rng.normal(size=(2, 4, 3))})

    @pytest.mark.parametrize("axis,idx", [(1, [2, 0, 2]), (0, [1, 1]), (2, [0, 0, 0])])
    def test_gather_rejects_repeated_indices(self, axis, idx, rng):
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, 4, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="at most once"):
            ad.gather(x, idx, axis=axis)
        assert tape._nodes == []

    @pytest.mark.parametrize("axis,idx", [(0, [1, 0]), (1, [3, 0, 2]), (1, [2, 0]), (2, [2, 1, 0])])
    def test_gather_grad_matches_add_at(self, axis, idx, rng):
        x = rng.normal(size=(2, 4, 3))
        g = rng.normal(size=np.take(x, idx, axis=axis).shape)
        tape = Tape()
        xv = tape.leaf(x, requires_grad=True)
        tape.backward(ad.sum_(ad.mul(ad.gather(xv, idx, axis=axis), g)))
        expected = np.zeros_like(x)
        sel = [slice(None)] * x.ndim
        sel[axis] = idx
        np.add.at(expected, tuple(sel), g)
        assert np.array_equal(xv.grad, expected)

    def test_concat_grad(self, rng):
        def build(tape, v):
            y = concat([v["a"], v["b"]], axis=1)
            return ad.sum_(ad.mul(y, np.arange(10.0).reshape(2, 5)))

        check_grads(build, {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(2, 3))})

    def test_single_entry_gather_grad_is_one_hot(self, rng):
        # saliency's backward: one logit picked as a (1, 1) gather
        tape = Tape()
        x = tape.leaf(rng.normal(size=(1, 4)), requires_grad=True)
        out = ad.gather(x, [2], axis=1)
        assert out.value.shape == (1, 1) and out.value[0, 0] == x.value[0, 2]
        tape.backward(out)
        expected = np.zeros((1, 4))
        expected[0, 2] = 1.0
        assert np.array_equal(x.grad, expected)


class TestClassificationOps:
    def test_log_softmax_rows_sum_to_one(self, rng):
        tape = Tape()
        x = tape.leaf(rng.normal(size=(4, 6)))
        out = ad.log_softmax(x)
        assert np.allclose(np.exp(out.value).sum(axis=-1), 1.0)

    def test_log_softmax_grad(self, rng):
        def build(tape, v):
            y = ad.log_softmax(v["x"])
            return ad.sum_(ad.mul(y, np.arange(12.0).reshape(3, 4)))

        check_grads(build, {"x": rng.normal(size=(3, 4))})

    def test_cross_entropy_grad(self, rng):
        labels = np.array([0, 2, 1])

        def build(tape, v):
            return ad.cross_entropy(v["x"], labels)

        check_grads(build, {"x": rng.normal(size=(3, 4))})

    def test_cross_entropy_value(self):
        tape = Tape()
        logits = tape.leaf(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
        loss = ad.cross_entropy(logits, np.array([0, 1]))
        assert abs(float(loss.value) + 0.5 * (np.log(0.7) + np.log(0.8))) < 1e-12


class TestPropertySuite:
    """30 random instances per op, central differences, rel err < 1e-4."""

    def test_thirty_instances_core_ops(self, rng):
        specs = [
            ("add", lambda v: ad.sum_(ad.mul(ad.add(v["a"], v["b"]), v["a"]))),
            ("sub", lambda v: ad.sum_(ad.mul(ad.sub(v["a"], v["b"]), v["b"]))),
            ("mul", lambda v: ad.sum_(ad.mul(v["a"], v["b"]))),
            ("matmul", lambda v: ad.sum_(ad.mul(ad.matmul(v["a"], v["b"]), 0.7))),
        ]
        for name, body in specs:
            for _ in range(30):
                a = rng.normal(size=(3, 3))
                b = rng.normal(size=(3, 3))
                check_grads(lambda tape, v: body(v), {"a": a, "b": b}, tol=1e-4)

    def test_thirty_instances_leaky_relu(self, rng):
        for _ in range(30):
            x = rng.normal(size=(4, 4))
            x[np.abs(x) < 1e-3] += 0.1  # stay away from the kink
            check_grads(
                lambda tape, v: ad.sum_(ad.mul(leaky_relu(v["x"], 0.01), v["x"])),
                {"x": x},
                tol=1e-4,
            )

    def test_thirty_instances_sym_log(self, rng):
        for _ in range(30):
            spd = random_spd(rng, 3, min_gap=1e-2)
            check_grads(
                lambda tape, v: ad.sum_(
                    ad.mul(ad.sym_fn(ad.mul(ad.add(v["m"], ad.transpose(v["m"])), 0.5), "log"), 1.3)
                ),
                {"m": spd},
                tol=1e-4,
            )


def _libc_name() -> str:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return ""


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


@pytest.mark.skipif(not _libc_name().startswith("glibc"), reason="glibc allocator policy")
def test_freed_memory_stays_in_the_heap():
    """Importing the package sets glibc to serve a 64 MiB array from the heap,
    not from its own mmap, and to keep the heap when the array is freed."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("mallinfo2 needs glibc 2.33")
    libc.mallinfo2.argtypes = ()
    libc.mallinfo2.restype = _Mallinfo2
    before = libc.mallinfo2()
    a = np.empty(64 << 17)  # 64 MiB of float64
    live = libc.mallinfo2()
    del a
    after = libc.mallinfo2()
    assert live.hblks == before.hblks
    assert after.arena >= live.arena
