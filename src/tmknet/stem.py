"""Euclidean stem: multi-resolution temporal layer and anatomy-informed
multi-scale spatial layer.

Feature maps are (batch, channel, sensor, time) arrays. The temporal layer
slides per-resolution kernels along time, the spatial layer slides muscle
kernels along the sensor axis. Parameters are plain named arrays, initialized
through `model.layout`; forward passes run on autodiff Variables. Each layer
records two tape nodes: its convolutions with LeakyReLU (and the temporal
layer's max-pooling) as one `ad.mrt_block` or `ad.mss_block` node, then its
batch norm as one `ad.batch_norm` node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Variable
from .data import _check_montage
from .errors import ConfigError

MSS_KERNELS = ("global", "flexor", "extensor", "proximal_distal", "dilated")


@dataclass
class StemConfig:
    fs: float
    r_data: float
    r_resolution: tuple[float, ...]
    n_t: int
    n_s: int
    flexor_ids: tuple[int, ...]
    extensor_ids: tuple[int, ...]
    proximal_ids: tuple[int, ...]
    distal_ids: tuple[int, ...]
    pool_size: int
    leaky_slope: float
    mss_kernels: tuple[str, ...]

    def __post_init__(self):
        if not self.r_resolution or not self.mss_kernels:
            raise ConfigError("the stem needs at least one temporal branch (r_resolution) "
                              "and one spatial kernel (mss_kernels)")
        ratios = (self.r_data, *self.r_resolution)
        if not all(0.0 < r <= 1.0 for r in ratios):
            raise ConfigError(f"ratios must lie in (0, 1], got r_data={self.r_data}, "
                              f"r_resolution={self.r_resolution}")
        _check_montage(self.sensors, self.flexor_ids, self.extensor_ids,
                       self.proximal_ids, self.distal_ids)
        unknown = set(self.mss_kernels) - set(MSS_KERNELS)
        if unknown:
            raise ConfigError(f"unknown spatial kernels: {sorted(unknown)}")
        if self.pool_size < 1 or self.n_t < 1 or self.n_s < 1:
            raise ConfigError("pool_size, n_t and n_s must be positive")
        # the stem's in-place LeakyReLU is the chain's z * factor only for
        # 0 < slope < 1
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")

    @property
    def sensors(self) -> int:
        return len(self.flexor_ids) + len(self.extensor_ids)

    @property
    def temporal_kernel_sizes(self) -> tuple[int, ...]:
        return tuple(
            temporal_kernel_size(self.fs, self.r_data, r) for r in self.r_resolution
        )

    def check_window(self, t: int) -> None:
        """ConfigError unless each temporal kernel and its pooling fit t samples."""
        for k in self.temporal_kernel_sizes:
            if k > t:
                raise ConfigError(f"temporal kernel {k} exceeds window length {t}")
            if t - k + 1 < self.pool_size:
                raise ConfigError(f"pool size {self.pool_size} exceeds the {t - k + 1}-sample "
                                  f"output of temporal kernel {k}")

    @property
    def mss_geometry(self) -> dict[str, tuple[tuple[int, ...] | None, int, int, int]]:
        """Per kernel in `mss_kernels`: the sensor rows it reads in order (None
        for all), and its height, stride and dilation along the sensor axis."""
        half = self.sensors // 2
        table = {"global": (None, 2 * half, 1, 1),
                 "flexor": (self.flexor_ids, half, 1, 1),
                 "extensor": (self.extensor_ids, half, 1, 1),
                 "proximal_distal": (self.proximal_ids + self.distal_ids, half, half, 1),
                 "dilated": (None, 2, 1, half)}
        return {name: table[name] for name in self.mss_kernels}


def temporal_kernel_size(fs: float, r_data: float, r_resolution: float) -> int:
    """Kernel length floor(r_data * r_resolution * fs), at least 1 sample."""
    return max(1, math.floor(r_data * r_resolution * fs))


# --- Euclidean batch normalization ---------------------------------------------

@dataclass
class BnState:
    """Running per-channel statistics for Euclidean batch norm (eval-time state)."""

    mean: np.ndarray
    var: np.ndarray
    initialized: bool = field(default=False, init=False)

    @classmethod
    def create(cls, channels: int) -> "BnState":
        return cls(mean=np.zeros(channels), var=np.ones(channels))


BN_EPS = 1e-8
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones


def euclid_batchnorm(x: Variable, gamma: Variable, beta: Variable,
                     state: BnState, mode: str) -> Variable:
    """Standardize per channel over (batch, sensor, time), then scale and shift.

    Training uses batch statistics and updates the running ones with momentum
    BN_MOMENTUM; eval uses the running statistics and requires at least one
    prior update.
    """
    if mode == "train":
        if x.value.shape[0] < 2:
            raise ValueError("batch norm in training mode needs batch size >= 2")
        out, mu, var = ad.batch_norm(x, gamma, beta, BN_EPS)
        m = BN_MOMENTUM
        state.mean = (1 - m) * state.mean + m * mu
        state.var = (1 - m) * state.var + m * var
        state.initialized = True
        return out
    if mode == "eval":
        if not state.initialized:
            raise ConfigError("batch norm running statistics are uninitialized; train first")
        return ad.batch_norm(x, gamma, beta, BN_EPS, (state.mean, state.var))[0]
    raise ValueError(f"unknown batch norm mode {mode!r}")


# --- forward passes --------------------------------------------------------------

def mrt_branches(x: Variable, params: dict[str, Variable], cfg: StemConfig) -> Variable:
    """Pre-normalization part of the temporal layer: per-resolution conv,
    LeakyReLU and max-pool, concatenated along time, as one tape node."""
    cfg.check_window(x.value.shape[-1])
    convs = [(params[f"mrt.branch{i}.weight"], params[f"mrt.branch{i}.bias"])
             for i in range(len(cfg.r_resolution))]
    return ad.mrt_block(x, convs, cfg.leaky_slope, cfg.pool_size)


def mrt_forward(x: Variable, params: dict[str, Variable], cfg: StemConfig,
                bn_state: BnState, mode: str) -> Variable:
    """Multi-resolution temporal layer.

    x: (b, 1, c, t). Per branch: time cross-correlation with kernel (1, k_i),
    LeakyReLU, non-overlapping max-pool; branch outputs concatenate along the
    time axis, followed by Euclidean batch norm over the n_t channels.
    """
    z = mrt_branches(x, params, cfg)
    return euclid_batchnorm(z, params["mrt.bn.gamma"], params["mrt.bn.beta"], bn_state, mode)


def mss_branches(z_t: Variable, params: dict[str, Variable], cfg: StemConfig) -> Variable:
    """Pre-normalization part of the spatial layer: the five muscle kernels
    with LeakyReLU, concatenated along the sensor axis, as one tape node."""
    convs = [(rows, params[f"mss.{name}.weight"], params[f"mss.{name}.bias"], stride, dilation)
             for name, (rows, _, stride, dilation) in cfg.mss_geometry.items()]
    return ad.mss_block(z_t, convs, cfg.leaky_slope)


def mss_forward(z_t: Variable, params: dict[str, Variable], cfg: StemConfig,
                bn_state: BnState, mode: str) -> Variable:
    """Multi-scale spatial layer.

    z_t: (b, n_t, c, t_t). Five sensor-axis kernels (global, flexor, extensor,
    strided proximal-distal, dilated neighbour) each produce n_s channels;
    their outputs concatenate along the sensor axis to 5 + c/2 rows, followed
    by batch norm over the n_s channels.
    """
    z = mss_branches(z_t, params, cfg)
    return euclid_batchnorm(z, params["mss.bn.gamma"], params["mss.bn.beta"], bn_state, mode)
