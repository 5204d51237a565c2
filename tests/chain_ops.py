"""The tape ops the stem was recorded as before it became two nodes:
`conv2d`, `leaky_relu`, `max_pool_time` and `concat`, each one node, kept
here verbatim as the oracle that `ad.mrt_block` and `ad.mss_block` must match
bit for bit (tests/test_stem.py), and as the ops the autodiff and
acceptance tests still check against finite differences."""

import numpy as np

from tmknet.autodiff import Variable


def concat(parts: list[Variable], axis: int) -> Variable:
    tape = parts[0].tape
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes[:-1])

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape.record(tuple(parts), np.concatenate([p.value for p in parts], axis=axis), backward)


def leaky_relu(a: Variable, slope: float = 0.01) -> Variable:
    va = a.value
    factor = (va > 0) * (1.0 - slope)
    factor += slope
    return a.tape.record((a,), va * factor, lambda g: (g * factor,))


def conv2d(
    x: Variable,
    w: Variable,
    bias: Variable | None = None,
    stride: tuple[int, int] = (1, 1),
    dilation: tuple[int, int] = (1, 1),
) -> Variable:
    """Valid-padding 2-D cross-correlation.

    x: (b, c_in, h, w); w: (c_out, c_in, kh, kw); bias: (c_out,).
    Output: (b, c_out, oh, ow) with oh = (h - (kh-1)*dh - 1)//sh + 1.
    """
    vx, vw = x.value, w.value
    bsz, cin, h, wd = vx.shape
    cout, cin_w, kh, kw = vw.shape
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input {cin}, kernel {cin_w}")
    sh, sw = stride
    dh, dw = dilation
    span_h = (kh - 1) * dh + 1
    span_w = (kw - 1) * dw + 1
    if span_h > h or span_w > wd:
        raise ValueError(
            f"kernel span ({span_h}, {span_w}) exceeds input size ({h}, {wd})"
        )
    oh = (h - span_h) // sh + 1
    ow = (wd - span_w) // sw + 1

    # zero-copy (b, c, oh, ow, kh, kw) window view; patches[..., i, j] is the
    # input sample each kernel tap sees
    sb, sc, srh, srw = vx.strides
    patches = np.lib.stride_tricks.as_strided(
        vx,
        shape=(bsz, cin, oh, ow, kh, kw),
        strides=(sb, sc, srh * sh, srw * sw, srh * dh, srw * dw),
        writeable=False,
    )
    out = np.tensordot(patches, vw, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)

    parents: tuple[Variable, ...]
    if bias is not None:
        out += bias.value[None, :, None, None]
        parents = (x, w, bias)
    else:
        parents = (x, w)

    def backward(g):
        # only the gradients some parent needs; the stem's first convs read
        # the constant input signal
        gw = gx = None
        if w.requires_grad:
            gw = np.tensordot(g, patches, axes=([0, 2, 3], [0, 2, 3]))
        if x.requires_grad:
            gx = np.zeros_like(vx)
            # scatter per kernel tap: strided slices never overlap within a tap
            for i in range(kh):
                for j in range(kw):
                    contrib = np.tensordot(g, vw[:, :, i, j], axes=([1], [0]))
                    gx[:, :,
                       i * dh: i * dh + (oh - 1) * sh + 1: sh,
                       j * dw: j * dw + (ow - 1) * sw + 1: sw] += contrib.transpose(0, 3, 1, 2)
        if bias is not None:
            return gx, gw, g.sum(axis=(0, 2, 3))
        return gx, gw

    return x.tape.record(parents, out, backward)


def max_pool_time(x: Variable, size: int) -> Variable:
    """Non-overlapping max pooling along the last axis (kernel = stride = size).

    Ties route the gradient to the earliest index in the window; in a window
    holding NaN, the output is NaN and the first NaN gets the gradient.
    """
    vx = x.value
    *lead, t = vx.shape
    ot = t // size
    if ot < 1:
        raise ValueError(f"pool size {size} exceeds axis length {t}")
    n = ot * size
    # column k holds the k-th sample of every window; the running maximum and
    # the winner index live in the input's memory order, so each pass streams
    peak = vx[..., 0:n:size].copy(order="K")
    arg = np.zeros_like(peak, dtype=np.min_scalar_type(size - 1)) if x.requires_grad else None
    for k in range(1, size):
        col = vx[..., k:n:size]
        if arg is not None:
            # k beats every earlier index; strict, so a tie keeps the earliest
            np.maximum(arg, np.multiply(col > peak, k, dtype=arg.dtype), out=arg)
        np.maximum(peak, col, out=peak)
    if arg is not None and np.isnan(peak).any():
        arg[...] = vx[..., :n].reshape(*lead, ot, size).argmax(axis=-1)

    def backward(g):
        # the winner gets g bit for bit, the others +0.0: AND g's bits with
        # an all-ones or all-zeros word
        gbits = np.empty_like(arg, dtype=np.float64)
        gbits[...] = g
        gbits = gbits.view(np.uint64)
        gx = np.empty_like(vx)
        gx[..., n:] = 0.0
        for k in range(size):
            keep = (arg == k).astype(np.uint64)
            np.negative(keep, out=keep)
            np.bitwise_and(gbits, keep, out=gx[..., k:n:size].view(np.uint64))
        return (gx,)

    return x.tape.record((x,), np.ascontiguousarray(peak), backward)

