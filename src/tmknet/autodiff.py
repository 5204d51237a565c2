"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

A Tape records operations as they execute; Tape.backward replays them in
reverse, accumulating vector-Jacobian products into Variable.grad. One tape
serves one forward/backward pair: backward releases the recorded graph as it
goes, dropping each op's saved arrays and each intermediate gradient once
they have been passed on. Afterwards only the grad-requiring leaves keep
`.grad`, and the tape holds no reference to any Variable, so a step's memory
is freed by reference counting, without the cyclic collector.

Operations are plain functions (`add(a, b)`, `matmul(a, b)`, ...); Variable
has no arithmetic operator overloads. They cover the network end to end:
broadcasting arithmetic, (batched) matmul, reductions, row covariance,
spectral matrix functions through the eigendecomposition,
reshape/transpose/gather plumbing, log-softmax with cross-entropy, and three
fused nodes for the stem. Each fused node runs the same numpy expressions, in
the same order and memory layout, as the chain of smaller nodes it replaces,
so its values and gradients are the chain's bit for bit:
- `batch_norm`, per-channel batch normalization (the mean, sub, mul, power
  and add chain). It allocates two full-size arrays in forward where the
  chain allocates five, and keeps one of them for backward where the chain
  keeps four. Its backward frees each full-size temporary after its last
  use.
- `mrt_block`, the temporal layer's branches (per branch a time
  convolution, LeakyReLU and max-pooling, then a concat along time). Its
  forward runs over blocks of trials; for backward it keeps only the pooling
  winners' indices.
- `mss_block`, the spatial layer's kernels (per kernel a row gather, a
  strided or dilated sensor-axis convolution and LeakyReLU, then a concat
  along the sensors). For backward it keeps only its output; backward
  rebuilds each kernel's patch matrix from the input, one kernel at a time.

The two stem nodes split their work into independent units, each computing
its products exactly as inline, and when they record for backward they run
the units on worker threads, one per CPU up to `_POOL_WORKERS`
(`run_units`), which gradient-free evaluation blocks
(`model.TMKNet._run_blocks`) also use.

Allocator policy: importing this module sets glibc's malloc, once, to keep
freed memory in the process (`_keep_freed_memory`). A training step frees
feature maps of tens of megabytes in backward and allocates them again in the
next forward; by default glibc serves such blocks with mmap, or trims them off
the top of the heap, and the kernel then zero-faults every page back in on
each step. It also caps glibc at one malloc arena, so the worker threads of
`run_units` (evaluation blocks and the stem nodes of a training step)
allocate from the heap the main thread keeps rather than each from an arena
of its own: without the cap, the `session_paper` benchmark's peak resident
set rose from 117.5 to 143.5 MB with two workers, and with it, it stayed at
117.9 MB. The setting is
process-wide: heap memory the program frees is reused by later allocations
but not handed back to the operating system before exit. On any other C
library the import changes nothing.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os

import numpy as np

from . import linalg

__all__ = ["Tape", "Variable"]

# glibc mallopt parameters (<malloc.h>) and the values that keep freed blocks
# in the heap: blocks up to 1 GiB come from the heap rather than from mmap,
# the heap top is never trimmed (mallopt takes an int, so 2**31 - 1 stands for
# "never"), each heap extension asks for 256 MiB extra, and every thread
# allocates from the one main arena
_M_TRIM_THRESHOLD, _M_TOP_PAD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -2, -3, -8
_MALLOC_POLICY = ((_M_MMAP_THRESHOLD, 1 << 30), (_M_TRIM_THRESHOLD, 2**31 - 1),
                  (_M_TOP_PAD, 256 << 20), (_M_ARENA_MAX, 1))


def _keep_freed_memory() -> None:
    """Apply `_MALLOC_POLICY` through glibc's mallopt; a no-op elsewhere."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not a glibc name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_POLICY:
        mallopt(param, value)


_keep_freed_memory()


# --- worker threads -------------------------------------------------------------

# least bytes of conv output one unit computes for `run_units` to send the
# units to worker threads. Measured on 2 cores with OpenBLAS on one thread: in
# a desk-shape training step (32 trials, n_t 6), splitting the temporal node
# into its 0.75 MiB branches took its forward from 3.4 to 4.3 ms. Eval blocks
# count their bytes so that they pool from the size measured for them
# (`model.TMKNet._run_blocks`)
_POOL_UNIT_BYTES = 1 << 20
# most worker threads of one call; each holds one unit's transients at a time
_POOL_WORKERS = 4


@functools.cache
def _openblas(name: str, restype, *argtypes):
    """The function `scipy_openblas_<name>` (64-bit interface first) of the
    OpenBLAS that numpy bundles, through ctypes with the given signature; None
    where numpy bundles none or it lacks the symbol."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            fn = getattr(lib, f"scipy_openblas_{name}{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def _blas_threads() -> int | None:
    """The thread count OpenBLAS runs with now; None if it cannot be read."""
    get = _openblas("get_num_threads", ctypes.c_int)
    return None if get is None else get()


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pooled(unit_bytes: int) -> bool:
    """Whether `run_units` sends its units to worker threads: each unit big
    enough to release the GIL for most of its time, at least 2 CPUs for this
    process, and OpenBLAS on one thread (on more, the workers and BLAS's
    threads oversubscribe the cores: 1.65x slower measured with 2 of each on
    2 cores)."""
    return unit_bytes >= _POOL_UNIT_BYTES and _cpus() >= 2 and _blas_threads() == 1


def run_units(units, unit_bytes: int, name: str) -> list:
    """Call each zero-argument function of `units` and return their results
    in order.

    Callers hand in units that compute the same bytes on any thread and in
    any interleaving: each writes only memory no other unit of the call
    reads or writes. When there is more than one unit and
    `_pooled(unit_bytes)` allows, the units run on one executor of at most
    `_POOL_WORKERS` threads, and no more than the CPUs, named after `name`,
    which end before it returns. Units of 0 bytes always run inline: code
    that may itself run on a worker (an eval block's stem nodes) passes 0,
    so threads never nest. Peak memory then grows by at most one unit's
    transients per worker. A unit sees the caller's `np.errstate`. An
    exception reaches the caller once every unit has finished, the first
    failing unit's in `units` order; inline, the first failure stops the
    rest, with the same exception.
    """
    if len(units) < 2 or not unit_bytes or not _pooled(unit_bytes):
        return [unit() for unit in units]
    # imported here, not with the module: concurrent.futures imports logging,
    # which alone raised the `uda_desk` benchmark's peak resident set by 0.7
    # MB, though desk shapes never reach the workers
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(_POOL_WORKERS, _cpus()), thread_name_prefix=name) as pool:
        # each unit in a copy of the caller's context, where numpy keeps its
        # floating-point error state (`np.errstate`)
        futures = [pool.submit(contextvars.copy_context().run, unit) for unit in units]
    return [f.result() for f in futures]


class Variable:
    """A node in the recorded computation: a value plus its place on the tape."""

    __slots__ = ("value", "tape", "requires_grad", "grad")

    def __init__(self, value: np.ndarray, tape: "Tape", requires_grad: bool):
        self.value = np.asarray(value, dtype=np.float64)
        self.tape = tape
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def __repr__(self):
        return f"Variable(shape={self.value.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations; parents always precede children."""

    def __init__(self):
        self._nodes: list[tuple[Variable, tuple[Variable, ...], object]] = []
        self._grad_leaves: list[Variable] = []
        self._consumed = False

    def leaf(self, value, requires_grad: bool = False) -> Variable:
        v = Variable(value, self, requires_grad)
        if requires_grad:
            self._grad_leaves.append(v)
        return v

    def record(self, parents: tuple[Variable, ...], value: np.ndarray, backward_fn) -> Variable:
        """Register an operation. `backward_fn(g)` returns one gradient per parent
        (None for parents that need none)."""
        for p in parents:
            if p.tape is not self:
                raise ValueError("cannot mix Variables from different tapes")
        out = Variable(value, self, any(p.requires_grad for p in parents))
        if out.requires_grad:
            self._nodes.append((out, parents, backward_fn))
        return out

    def backward(self, loss: Variable) -> None:
        """Populate .grad on every grad-requiring leaf reachable from `loss`.

        Unreachable leaves receive zeros. A tape can run backward once: it
        consumes the recorded graph, so every op's saved arrays are released
        as soon as its vector-Jacobian product has run, and intermediate
        Variables are left with `grad` None. Only leaves keep `.grad`. The
        first contribution to a gradient is kept by reference (`add` hands one
        array to both parents) and later ones make a new sum, never in place.
        """
        if loss.tape is not self:
            raise ValueError("loss was recorded on a different tape")
        if loss.value.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; re-record the forward pass")
        self._consumed = True

        loss.grad = np.ones_like(loss.value)
        nodes = self._nodes
        while nodes:
            out, parents, backward_fn = nodes.pop()
            g, out.grad = out.grad, None
            if g is None:
                continue
            for p, gp in zip(parents, backward_fn(g)):
                if gp is not None and p.requires_grad:
                    p.grad = gp if p.grad is None else p.grad + gp
            g = gp = None  # hold no gradient into the next op's backward
        for leaf in self._grad_leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.value)
            elif leaf.grad.base is not None or not leaf.grad.flags.owndata:
                leaf.grad = leaf.grad.copy()
        self._grad_leaves = []


def _lift(tape: Tape, x) -> Variable:
    """x as a Variable; `Tape.record` rejects one from another tape."""
    return x if isinstance(x, Variable) else tape.leaf(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# --- arithmetic ---------------------------------------------------------------

def add(a: Variable, b) -> Variable:
    b = _lift(a.tape, b)
    va, vb = a.value, b.value
    return a.tape.record(
        (a, b), va + vb,
        lambda g: (_unbroadcast(g, va.shape), _unbroadcast(g, vb.shape)),
    )


def sub(a: Variable, b) -> Variable:
    b = _lift(a.tape, b)
    va, vb = a.value, b.value
    return a.tape.record(
        (a, b), va - vb,
        lambda g: (_unbroadcast(g, va.shape), _unbroadcast(-g, vb.shape)),
    )


def mul(a: Variable, b) -> Variable:
    b = _lift(a.tape, b)
    va, vb = a.value, b.value
    return a.tape.record(
        (a, b), va * vb,
        lambda g: (_unbroadcast(g * vb, va.shape), _unbroadcast(g * va, vb.shape)),
    )


def div(a: Variable, b) -> Variable:
    b = _lift(a.tape, b)
    va, vb = a.value, b.value
    return a.tape.record(
        (a, b), va / vb,
        lambda g: (
            _unbroadcast(g / vb, va.shape),
            _unbroadcast(-g * va / (vb * vb), vb.shape),
        ),
    )


def power(a: Variable, p: float) -> Variable:
    p = float(p)
    va = a.value
    return a.tape.record(
        (a,), va ** p,
        lambda g: (g * p * va ** (p - 1.0),),
    )


def exp(a: Variable) -> Variable:
    out = np.exp(a.value)
    return a.tape.record((a,), out, lambda g: (g * out,))


# --- shape plumbing -----------------------------------------------------------

def reshape(a: Variable, shape) -> Variable:
    old = a.value.shape
    return a.tape.record((a,), a.value.reshape(shape), lambda g: (g.reshape(old),))


def transpose(a: Variable) -> Variable:
    """Swap the last two axes; the value and its gradient are views."""
    return a.tape.record((a,), np.swapaxes(a.value, -1, -2), lambda g: (np.swapaxes(g, -1, -2),))


def gather(a: Variable, idx, axis: int) -> Variable:
    """Select indices along one axis, each at most once; backward scatters."""
    idx = np.asarray(idx, dtype=np.intp)
    va = a.value
    if np.unique(idx).size != idx.size:
        raise ValueError("gather takes each index at most once")

    def backward(g):
        gx = np.zeros_like(va)
        sel = [slice(None)] * va.ndim
        sel[axis] = idx
        gx[tuple(sel)] = g
        return (gx,)

    return a.tape.record((a,), np.take(va, idx, axis=axis), backward)


# --- reductions ---------------------------------------------------------------

def _bcast_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    if not keepdims:
        ax = axis if isinstance(axis, tuple) else (axis,)
        ax = tuple(a % len(shape) for a in ax)
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def sum_(a: Variable, axis=None, keepdims: bool = False) -> Variable:
    va = a.value
    return a.tape.record(
        (a,), va.sum(axis=axis, keepdims=keepdims),
        lambda g: (_bcast_reduced(g, va.shape, axis, keepdims),),
    )


def mean(a: Variable, axis=None, keepdims: bool = False) -> Variable:
    va = a.value
    count = va.size if axis is None else np.prod(
        [va.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return a.tape.record(
        (a,), va.mean(axis=axis, keepdims=keepdims),
        lambda g: (_bcast_reduced(g / count, va.shape, axis, keepdims),),
    )


# --- linear algebra -----------------------------------------------------------

def matmul(a: Variable, b) -> Variable:
    b = _lift(a.tape, b)
    va, vb = a.value, b.value
    if va.ndim < 2 or vb.ndim < 2:
        raise ValueError("matmul requires arrays with at least 2 dimensions")

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(vb, -1, -2), va.shape)
        gb = _unbroadcast(np.swapaxes(va, -1, -2) @ g, vb.shape)
        return ga, gb

    return a.tape.record((a, b), va @ vb, backward)


def sym_fn(a: Variable, tag: str, param=None) -> Variable:
    """Spectral matrix function on (..., n, n); backward via the Loewner product."""
    eig = linalg.sym_eig(a.value)
    out = linalg.sym_fn(a.value, tag, param, eig=eig)

    def backward(g):
        return (linalg.sym_fn_vjp(eig, tag, g, param),)

    return a.tape.record((a,), out, backward)


# --- neural-network ops -------------------------------------------------------

def _windows(vx: np.ndarray, kh: int, kw: int, stride: int = 1,
             dilation: int = 1) -> np.ndarray:
    """Zero-copy (b, c, oh, ow, kh, kw) view of the valid-padding windows of a
    (b, c, h, w) array, strided and dilated along h: element [..., i, j] is
    the sample kernel tap (i, j) sees. The caller checks that a window fits."""
    bsz, cin, h, wd = vx.shape
    sb, sc, sh, sw = vx.strides
    oh = (h - (kh - 1) * dilation - 1) // stride + 1
    return np.lib.stride_tricks.as_strided(
        vx, shape=(bsz, cin, oh, wd - kw + 1, kh, kw),
        strides=(sb, sc, sh * stride, sw, sh * dilation, sw), writeable=False)


def _running_max(z: np.ndarray, size: int, with_arg: bool):
    """Non-overlapping max-pooling of `size` samples along the last axis.

    Returns the pooled array in z's memory order and, with `with_arg`, the
    index of each window's winner: the earliest on ties, the first NaN in a
    window holding NaN.
    """
    *lead, t = z.shape
    n = t // size * size
    # column k holds the k-th sample of every window; the running maximum and
    # the winner index live in z's memory order, so each pass streams
    peak = z[..., 0:n:size].copy(order="K")
    arg = np.zeros_like(peak, dtype=np.min_scalar_type(size - 1)) if with_arg else None
    for k in range(1, size):
        col = z[..., k:n:size]
        if arg is not None:
            # k beats every earlier index; strict, so a tie keeps the earliest
            np.maximum(arg, np.multiply(col > peak, k, dtype=arg.dtype), out=arg)
        np.maximum(peak, col, out=peak)
    if arg is not None and np.isnan(peak).any():
        arg[...] = z[..., :n].reshape(*lead, n // size, size).argmax(axis=-1)
    return peak, arg


# conv output per block of trials in mrt_block's forward: a block's conv output
# stays in cache through bias, LeakyReLU and pooling
_MRT_BLOCK_BYTES = 2 << 20


def _winners(gp: np.ndarray, arg: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write np.where(arg == k, gp, 0.0) into `out` without a branch: gp's
    bits where arg == k and all-zero bits (+0.0) elsewhere, so NaN payloads
    and -0.0 pass bit for bit. The int8 mask -(arg == k) is all ones or all
    zeros, and sign-extends to int64 inside the AND."""
    np.bitwise_and(gp.view(np.int64), np.negative(arg == k, dtype=np.int8),
                   out=out.view(np.int64))


def mrt_block(x: Variable, convs: list[tuple[Variable, Variable]], slope: float,
              size: int) -> Variable:
    """Time convolutions, each followed by LeakyReLU and max-pooling, as one node.

    x: (b, c_in, h, t). Each (weight (c_out, c_in, 1, k), bias (c_out,)) pair
    of `convs` is a valid cross-correlation along time, followed by LeakyReLU
    with `slope` in (0, 1) and non-overlapping max-pooling of `size` samples.
    The branch outputs concatenate along time into one C-ordered
    (b, c_out, h, sum of pooled lengths) array.

    Values and gradients are those of the chain conv2d → leaky_relu →
    max_pool_time per branch, then concat, bit for bit. Forward runs each
    branch over blocks of trials, as many as keep the widest conv output of a
    block within `_MRT_BLOCK_BYTES`; every output row is the one a
    whole-batch pass computes, and each (branch, block) unit writes its own
    slice of the output and of the winner indices. Backward computes each
    branch's gradients as a unit and then sums the input gradients, last
    branch first, as the tape did. When the node records for backward, both
    run their units through `run_units`, on worker threads where it allows;
    the bytes are the same on any thread. LeakyReLU runs in place as
    max(z, z * slope), which equals the chain's z * factor because
    (1 - slope) + slope == 1.0. A branch that needs a gradient keeps only its
    winner indices: in backward the factor at each winner is read off the
    pooled output, whose sign is the conv output's, and per pool offset one
    branch-free select (`_winners`) writes the pooled gradient at the
    winners, +0.0 elsewhere, into a conv-shaped gradient in the conv output's
    channel-fastest memory order. The caller checks that each kernel and
    pooling window fits.
    """
    vx = x.value
    bsz, _, h, t = vx.shape
    cout = convs[0][0].value.shape[0]
    widths = [t - w.value.shape[3] + 1 for w, _ in convs]
    bounds = np.cumsum([0, *(wd // size for wd in widths)])
    out = np.empty((bsz, cout, h, bounds[-1]))
    step = max(1, _MRT_BLOCK_BYTES // (8 * cout * h * max(widths)))
    blocks = [slice(lo, lo + step) for lo in range(0, bsz, step)]
    # the bytes of a block's widest conv output, and of one branch's
    unit_bytes, branch_bytes = (8 * n * cout * h * max(widths) for n in (min(step, bsz), bsz))
    # the branches that record for backward keep their winner indices, in the
    # conv output's memory order, as `_running_max` returns them
    args = [np.empty((bsz, h, hi - lo, cout), np.min_scalar_type(size - 1)).transpose(0, 3, 1, 2)
            if x.requires_grad or w.requires_grad or b.requires_grad else None
            for (w, b), lo, hi in zip(convs, bounds[:-1], bounds[1:])]
    recording = any(arg is not None for arg in args)

    def conv_block(i, blk):
        """Branch i on the trials `blk`, into its slices of `out` and `arg`."""
        (w, b), lo, hi, arg = convs[i], bounds[i], bounds[i + 1], args[i]
        z = np.tensordot(_windows(vx[blk], 1, w.value.shape[3]), w.value,
                         axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
        z += b.value[None, :, None, None]
        np.maximum(z, z * slope, out=z)
        peak, arg_blk = _running_max(z, size, arg is not None)
        out[blk, ..., lo:hi] = peak
        if arg is not None:
            arg[blk] = arg_blk

    # a node that records nothing (an eval forward, maybe itself on a worker)
    # runs its units inline
    run_units([functools.partial(conv_block, i, blk) for i in range(len(convs)) for blk in blocks],
              unit_bytes if recording else 0, "tmknet-stem")

    def branch_grads(g, i):
        """Branch i's weight, bias and input gradients (None where not needed)."""
        (w, b), lo, hi, arg = convs[i], bounds[i], bounds[i + 1], args[i]
        vw = w.value
        kw = vw.shape[3]
        # the winner gets g * factor bit for bit, the others +0.0
        factor = (out[..., lo:hi] > 0) * (1.0 - slope)
        factor += slope
        gp = np.multiply(g[..., lo:hi], factor, out=np.empty_like(arg, dtype=np.float64))
        del factor
        gz = np.empty((bsz, h, t - kw + 1, vw.shape[0])).transpose(0, 3, 1, 2)
        n = (hi - lo) * size
        gz[..., n:] = 0.0
        for k in range(size):
            _winners(gp, arg, k, gz[..., k:n:size])
        del gp
        gw = gb = gxb = None
        if w.requires_grad:
            gw = np.tensordot(gz, _windows(vx, 1, kw), axes=([0, 2, 3], [0, 2, 3]))
        if b.requires_grad:
            gb = gz.sum(axis=(0, 2, 3))
        if x.requires_grad:
            gxb = np.zeros_like(vx)
            for j in range(kw):
                contrib = np.tensordot(gz, vw[:, :, 0, j], axes=([1], [0]))
                gxb[..., j:j + gz.shape[3]] += contrib.transpose(0, 3, 1, 2)
        return gw, gb, gxb

    def backward(g):
        # last branch first: the order in which the tape added the chain's
        # input gradients
        live = [i for i in reversed(range(len(convs))) if args[i] is not None]
        done = run_units([functools.partial(branch_grads, g, i) for i in live], branch_bytes,
                         "tmknet-stem")
        grads = [None] * (2 * len(convs))
        gx = None
        for i, (gw, gb, gxb) in zip(live, done):
            grads[2 * i], grads[2 * i + 1] = gw, gb
            if gx is None:
                gx = gxb
            else:
                gx += gxb
        return (gx, *grads)

    return x.tape.record((x, *(p for conv in convs for p in conv)), out, backward)


def _as_slice(idx) -> slice | np.ndarray:
    """The slice that reads the indices `idx`, a non-empty sequence, when they
    form an increasing, evenly spaced run; an index array otherwise."""
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(idx, idx[1:])):
        return slice(idx[0], idx[-1] + 1, step)
    return np.array(idx, dtype=np.intp)


def mss_block(z: Variable, convs: list[tuple[tuple[int, ...] | None, Variable, Variable, int, int]],
              slope: float) -> Variable:
    """Sensor-axis convolutions, each followed by LeakyReLU, as one node.

    z: (b, c_in, h, t). Each entry (rows, weight (c_out, c_in, k, 1), bias
    (c_out,), stride, dilation) of `convs` reads the rows of z listed in
    `rows`, in that order (every row for None), slides its kernel along them
    with that stride and dilation, and applies LeakyReLU with `slope` in
    (0, 1). The outputs concatenate along the sensor axis into one
    channel-fastest (b, c_out, sum of output heights, t) array, the memory
    order in which `np.concatenate` keeps channel-fastest conv outputs. A
    kernel that reads one row of z twice raises ValueError.

    Values and gradients are those of the chain gather → conv2d → leaky_relu
    per kernel, then concat, bit for bit. Each kernel builds the patch matrix
    that conv2d's `tensordot` forms and drops it after its product. The node
    keeps no patch matrix for backward: where a weight needs a gradient,
    backward rebuilds that kernel's patch matrix from z with the forward's
    expression, uses it for the weight gradient and drops it before the next
    kernel. Backward puts the output gradient of a kernel in the (b·oh·t,
    c_out) order that each tap's product reads once, not once per tap, and
    adds each tap's contribution c to the input gradient in place (on a view
    where the tap's rows form a run), kernel by kernel, last kernel first as
    the tape did. The chain added 0.0 + c for a read row and 0.0 for an
    unread one, from its zero-filled scatters; the sum starts from +0.0 and
    so never holds -0.0, and adding c or nothing gives the same bits.

    When the node records for backward, its units go through `run_units`,
    on worker threads where it allows: in forward each kernel, which
    writes its own rows of the output; in backward each kernel's even and
    odd taps, which add into disjoint rows of the input gradient (a kernel
    reads each row at most once), after the kernel's weight product. That
    product stays on the calling thread: running it beside the taps would
    keep the patch matrix and a tap's product alive at once, which raised
    the `train_paper` benchmark's peak resident set from 200 to 211 MB.
    """
    vz = z.value
    bsz, cin, h, t = vz.shape
    cout = convs[0][1].value.shape[0]
    # per kernel: first output row, output height, the input rows each tap
    # reads (a slice where they form a run), and all of them tap by tap (None
    # where that is every row in order); plain Python, as a batch of one
    # pays for the plan on every call
    plans = []
    top = 0
    for rows, w, _, stride, dilation in convs:
        kh = w.value.shape[2]
        src = range(h) if rows is None else tuple(rows)
        oh = (len(src) - (kh - 1) * dilation - 1) // stride + 1
        taps = [src[i * dilation: i * dilation + (oh - 1) * stride + 1: stride]
                for i in range(kh)]
        # the in-place sums in backward are the chain's only if each input row
        # takes at most one contribution per kernel
        read = [r for tap in taps for r in tap]
        if len(set(read)) != len(read):
            raise ValueError("a sensor kernel reads one input row twice")
        plans.append((top, oh, [_as_slice(tap) for tap in taps],
                      None if read == list(range(h)) else np.array(read, dtype=np.intp)))
        top += oh

    def patch_matrix(i):
        """Kernel i's patch matrix, the (b·oh·t, c_in·k) matrix of windows
        that conv2d's np.tensordot(patches, w, ([1, 4, 5], [1, 2, 3])) forms.

        For a batch of one it is the chain's own expression, whose reshape
        may return a view, and the product's rounding follows that view's
        layout. For more trials the chain's reshape copies; the same
        C-ordered bytes come here from the rows in tap order, in which each
        window's (c_in, k) block is one strided run, so the copy streams
        instead of stepping k rows at a time. Unless they are every row of z
        in order, the rows are packed by `np.take` first: the transposing
        copy reads a packed subset faster than a strided view of z.
        """
        rows, w, _, stride, dilation = convs[i]
        kh = w.value.shape[2]
        _, oh, _, read = plans[i]
        shape = (bsz * oh * t, cin * kh)
        if bsz == 1:
            zk = vz if rows is None else np.take(vz, np.asarray(rows, dtype=np.intp), axis=2)
            return _windows(zk, kh, 1, stride, dilation).transpose(0, 2, 3, 1, 4, 5).reshape(shape)
        zt = vz if read is None else np.take(vz, read, axis=2)
        return zt.reshape(bsz, cin, kh, oh, t).transpose(0, 3, 4, 1, 2).reshape(shape)

    mem = np.empty((bsz, top, t, cout))
    # the bytes of a largest kernel's output
    unit_bytes = 8 * bsz * max(oh for _, oh, _, _ in plans) * t * cout
    recording = z.requires_grad or any(w.requires_grad or b.requires_grad
                                       for _, w, b, _, _ in convs)

    def kernel_out(i):
        """Kernel i's output, into its rows of `mem`."""
        (_, w, b, _, _), (lo, oh, _, _) = convs[i], plans[i]
        kh = w.value.shape[2]
        zo = np.dot(patch_matrix(i), w.value.transpose(1, 2, 3, 0).reshape(cin * kh, cout))
        zo = zo.reshape(bsz, oh, t, cout)
        zo += b.value
        np.maximum(zo, zo * slope, out=mem[:, lo:lo + oh])

    # a node that records nothing (an eval forward, maybe itself on a worker)
    # runs its units inline
    run_units([functools.partial(kernel_out, i) for i in range(len(convs))],
              unit_bytes if recording else 0, "tmknet-stem")
    out = mem.transpose(0, 3, 1, 2)

    def add_taps(i, gz_rows, gz_total, part):
        """Add the product np.tensordot(gz, w_tap, ([1], [0])) of each tap of
        kernel i in `part` into `gz_total` in place, from gz in the
        (b·oh·t, c_out) order `gz_rows`."""
        vw, (_, oh, taps, _) = convs[i][1].value, plans[i]
        for j in part:
            contrib = np.dot(gz_rows, vw[:, :, j, 0]).reshape(bsz, oh, t, cin)
            gz_total[:, :, taps[j]] += contrib.transpose(0, 3, 1, 2)

    def backward(g):
        grads = [None] * (2 * len(convs))
        gz_total = np.zeros_like(vz) if z.requires_grad else None
        for i in reversed(range(len(convs))):
            (_, w, b, _, _), (lo, oh, taps, _) = convs[i], plans[i]
            vw = w.value
            factor = (out[:, :, lo:lo + oh] > 0) * (1.0 - slope)
            factor += slope
            gz = g[:, :, lo:lo + oh] * factor
            del factor
            if w.requires_grad:
                # built before gz's copy below, so its gathered rows are gone
                # by then
                pm = patch_matrix(i)
                # the product of np.tensordot(gz, patches, ([0, 2, 3], [0, 2, 3]))
                grads[2 * i] = np.dot(gz.transpose(1, 0, 2, 3).reshape(vw.shape[0], -1),
                                      pm).reshape(vw.shape)
                del pm
            if b.requires_grad:
                grads[2 * i + 1] = gz.sum(axis=(0, 2, 3))
            if gz_total is None:
                continue
            # the operands of each tap's product: gz in (b·oh·t, c_out) order,
            # made once for all taps
            gz_rows = gz.transpose(0, 2, 3, 1).reshape(-1, vw.shape[0])
            del gz
            # a kernel's taps read disjoint rows of z, so the even and the odd
            # taps write disjoint rows of gz_total
            run_units([functools.partial(add_taps, i, gz_rows, gz_total, range(k, len(taps), 2))
                       for k in range(min(2, len(taps)))], unit_bytes, "tmknet-stem")
            del gz_rows  # before the next kernel's patch matrix
        return (gz_total, *grads)

    return z.tape.record((z, *(p for _, w, b, _, _ in convs for p in (w, b))), out, backward)


def batch_norm(x: Variable, gamma: Variable, beta: Variable, eps: float,
               stats: tuple[np.ndarray, np.ndarray] | None = None,
               ) -> tuple[Variable, np.ndarray, np.ndarray]:
    """Per-channel batch norm of (b, c, h, w) features over axes (0, 2, 3):
    (x - mean) * (var + eps) ** -0.5 * gamma + beta, recorded as one node.

    With `stats` None the mean and biased variance are the batch's and the
    gradient flows through them; otherwise `stats` holds fixed (c,) mean and
    variance. Returns the output and the (c,) mean and variance it used.

    Forward and backward evaluate the expressions of the equivalent node
    chain (mean, sub, mul, mean, add, power, mul, mul, add) in its order, and
    allocate each array a reduction reads in the memory order the chain
    would, so values and gradients equal the chain's bit for bit. Forward
    keeps the centred input for backward. Backward drops each full-size
    temporary once its reduction or last use has run, and writes a later
    result into a spent buffer only where that buffer has the result's
    memory order. With a C-ordered upstream gradient, as the layers above
    hand it back, at most two full-size arrays of its own are live at a
    time, the input gradient included; three otherwise.
    """
    vx = x.value
    ch = vx.shape[1]
    shape = (1, ch, 1, 1)
    axes = (0, 2, 3)
    gr = gamma.value.reshape(shape)
    if stats is None:
        mu = vx.mean(axis=axes, keepdims=True)
        xc = vx - mu
        out = xc * xc
        var = out.mean(axis=axes, keepdims=True)
        ve = var + eps
        r = ve ** -0.5
        np.multiply(xc, r, out=out)
    else:
        mu, var = (s.reshape(shape) for s in stats)
        xc = vx - mu
        r = (var + eps) ** -0.5
        out = xc * r
    np.multiply(out, gr, out=out)
    np.add(out, beta.value.reshape(shape), out=out)

    def backward(g):
        g_gamma = g_beta = None
        if beta.requires_grad:
            g_beta = _unbroadcast(g, shape).reshape(ch)
        if gamma.requires_grad:
            # named: numpy would write `g * (xc * r)` into the temporary,
            # in xc's memory order rather than the chain's
            xn = xc * r
            g_gamma = _unbroadcast(g * xn, shape).reshape(ch)
            del xn
        if not x.requires_grad:
            return None, g_gamma, g_beta
        g_xn = g * gr
        if stats is not None:
            return np.multiply(g_xn, r, out=g_xn), g_gamma, g_beta
        g_xc = g_xn * xc
        g_r = _unbroadcast(g_xc, shape)
        g_ve = g_r * -0.5 * ve ** -1.5
        count = xc.size // ch
        # numpy orders a result C-first when its operands' orders disagree;
        # the chain's g_sq is a C-ordered broadcast copy, so its t = g_sq * xc,
        # its xc gradient (g_xn * r + t) + t and its x gradient are C-ordered.
        # Each reuses a spent full-size buffer only where that one is C-ordered
        t = np.multiply(g_ve / count, xc,
                        out=g_xc if g_xc.flags.c_contiguous else np.empty(xc.shape))
        del g_xc
        gx = np.multiply(g_xn, r, out=g_xn if g_xn.flags.c_contiguous else np.empty(xc.shape))
        del g_xn
        gx += t
        gx += t
        g_mu = _unbroadcast(np.negative(gx, out=t), shape)
        del t
        gx += g_mu / count
        return gx, g_gamma, g_beta

    return x.tape.record((x, gamma, beta), out, backward), mu.reshape(ch), var.reshape(ch)


def log_softmax(a: Variable) -> Variable:
    """Log-softmax along the last axis."""
    va = a.value
    shift = va - va.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    out = shift - lse
    softmax = np.exp(out)

    def backward(g):
        return (g - softmax * g.sum(axis=-1, keepdims=True),)

    return a.tape.record((a,), out, backward)


def cross_entropy(logits: Variable, labels: np.ndarray) -> Variable:
    """Mean negative log-likelihood of integer labels under log_softmax(logits)."""
    logp = log_softmax(logits)
    labels = np.asarray(labels, dtype=np.intp)
    vp = logp.value
    bsz = vp.shape[0]
    picked = vp[np.arange(bsz), labels]

    def backward(g):
        gx = np.zeros_like(vp)
        gx[np.arange(bsz), labels] = -float(g) / bsz
        return (gx,)

    return logp.tape.record((logp,), np.asarray(-picked.mean()), backward)


# --- statistics ---------------------------------------------------------------

def covariance(a: Variable) -> Variable:
    """Row covariance of (..., n, m) features: centered F F^T / (m - 1)."""
    m = a.value.shape[-1]
    if m < 2:
        raise ValueError(f"covariance needs at least 2 observations, got {m}")
    fc = sub(a, mean(a, axis=-1, keepdims=True))
    return mul(matmul(fc, transpose(fc)), 1.0 / (m - 1))
