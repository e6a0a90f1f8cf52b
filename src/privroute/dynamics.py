"""Mirror-descent machinery over products of probability simplices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import block_slices

__all__ = [
    "BregmanGeometry",
    "LearningSchedule",
    "block_projection",
    "block_softmax",
    "dual_norm",
    "project_simplex",
    "reference_norm",
    "suboptimality_bound",
]

GEOMETRY_KINDS = ("entropic", "euclidean")


def reference_norm(x: np.ndarray, block_sizes: Sequence[int]) -> float:
    """Sum of per-block euclidean norms (the norm the moduli refer to)."""
    return float(sum(np.linalg.norm(x[s]) for s in block_slices(block_sizes)))


def dual_norm(x: np.ndarray, block_sizes: Sequence[int]) -> float:
    """Dual of :func:`reference_norm`: the largest per-block euclidean norm."""
    return float(max(np.linalg.norm(x[s]) for s in block_slices(block_sizes)))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex along the last axis."""
    v = np.asarray(v, float)
    u = np.sort(v, axis=-1)[..., ::-1]
    shifted = np.cumsum(u, axis=-1) - 1.0
    positive = u - shifted / np.arange(1, v.shape[-1] + 1) > 0
    # Index of the last positive entry in each row.
    rho = v.shape[-1] - 1 - np.argmax(positive[..., ::-1], axis=-1, keepdims=True)
    return np.maximum(v - np.take_along_axis(shifted, rho, axis=-1) / (rho + 1.0), 0.0)


def block_projection(v: np.ndarray, block_sizes: Sequence[int], axis: int = -1) -> np.ndarray:
    """Per-block :func:`project_simplex` along ``axis`` (the euclidean prox)."""
    v = np.moveaxis(v, axis, -1)
    out = np.empty_like(v)
    for s in block_slices(block_sizes):
        out[..., s] = project_simplex(v[..., s])
    return np.moveaxis(out, -1, axis)


def block_softmax(logits: np.ndarray, block_sizes: Sequence[int], axis: int = -1) -> np.ndarray:
    """Per-block softmax along ``axis``; max-shifted, so no block underflows to zeros."""
    out = np.empty_like(logits)
    lead = (slice(None),) * (axis % logits.ndim)
    for s in block_slices(block_sizes):
        block = logits[lead + (s,)]
        w = np.exp(block - block.max(axis=axis, keepdims=True))
        out[lead + (s,)] = w / w.sum(axis=axis, keepdims=True)
    return out


@dataclass(frozen=True)
class LearningSchedule:
    """Polynomially decaying step sizes ``rate(t) = scale * (t + 1)**-decay``.

    The loop counter ``t`` starts at 0, so the first step uses ``scale``
    itself.  ``decay`` lies strictly inside (0, 1), the domain of
    :func:`suboptimality_bound`.
    """

    scale: float
    decay: float

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"schedule scale must be positive, got {self.scale}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"schedule decay must lie in (0, 1), got {self.decay}")

    def rate(self, t):  # t: a loop index or an array of them
        if np.min(t) < 0:
            raise ValueError("iteration counter must be nonnegative")
        return self.scale * (t + 1.0) ** (-self.decay)


@dataclass(frozen=True)
class BregmanGeometry:
    """Distance-generating geometry on a product of probability simplices.

    ``entropic`` uses the sum of negative entropies, whose prox step is the
    closed-form multiplicative-weights update.  ``euclidean`` uses half the
    squared norm, whose prox step is a per-block simplex projection.

    ``strong_convexity`` is the modulus with respect to the composite
    reference norm (sum of per-block euclidean norms).  Each per-simplex
    generator is 1-strongly convex in its own block; summing block norms
    costs a Cauchy-Schwarz factor, so the product modulus is
    ``1 / num_blocks`` for both kinds.
    """

    kind: str
    block_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GEOMETRY_KINDS:
            raise ValueError(f"unknown geometry kind {self.kind!r}; expected {GEOMETRY_KINDS}")
        if not self.block_sizes or any(n < 1 for n in self.block_sizes):
            raise ValueError("block sizes must be positive")

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dimension(self) -> int:
        return sum(self.block_sizes)

    @property
    def strong_convexity(self) -> float:
        return 1.0 / self.num_blocks

    @property
    def modulus_derivation(self) -> str:
        """How ``strong_convexity`` follows, in one line."""
        return f"1 per simplex, / {self.num_blocks} OD blocks for the summed norm"

    def divergence_bound(self) -> float:
        """Upper bound on the divergence from the uniform initial point."""
        if self.kind == "entropic":
            return float(sum(math.log(n) for n in self.block_sizes))
        return float(sum(0.5 * (1.0 - 1.0 / n) for n in self.block_sizes))

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        """Bregman divergence between two points of the simplex product."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if x.shape != (self.dimension,) or y.shape != (self.dimension,):
            raise ValueError("divergence arguments must match the geometry dimension")
        if self.kind == "entropic":
            if np.any(y <= 0):
                raise ValueError("entropic divergence requires strictly positive second argument")
            mask = x > 0
            value = float(np.sum(x[mask] * np.log(x[mask] / y[mask])))
        else:
            value = 0.5 * float(np.dot(x - y, x - y))
        return max(value, 0.0)

    def prox(self, x: np.ndarray, loss: np.ndarray, eta: float) -> np.ndarray:
        """Minimize ``<loss, z> + divergence(z, x) / eta`` over the product.

        The entropic form is :func:`block_softmax` of ``log x - eta * loss``;
        the euclidean form is :func:`block_projection` of ``x - eta * loss``.
        """
        x = np.asarray(x, float)
        loss = np.asarray(loss, float)
        if x.shape != (self.dimension,) or loss.shape != (self.dimension,):
            raise ValueError("prox arguments must match the geometry dimension")
        if not np.all(np.isfinite(loss)):
            raise ValueError("non-finite loss entries")
        if eta <= 0:
            raise ValueError("step size must be positive")
        if self.kind == "entropic":
            if np.any(x <= 0):
                raise ValueError("entropic prox requires a strictly positive iterate")
            return block_softmax(np.log(x) - eta * loss, self.block_sizes)
        return block_projection(x - eta * loss, self.block_sizes)


def suboptimality_bound(
    geometries: Sequence[BregmanGeometry],
    schedules: Sequence[LearningSchedule],
    noise_bound: float,
    t: int,
) -> float:
    """Expected-potential gap bound after ``t`` noisy mirror-descent steps.

    ``noise_bound`` is an upper bound on the second moment of the observed
    loss in the dual norm.  The bound is
    ``(1 + H_t) * sum_k [ D_k / (c_k t^(1-a_k))
    + c_k L / (2 m_k (1-a_k) t^(a_k)) ]``
    with ``H_t`` the harmonic number, ``D_k`` the divergence bound, ``c_k``
    and ``a_k`` the schedule parameters, and ``m_k`` the strong-convexity
    modulus.  Each ``LearningSchedule`` holds its decay strictly inside (0, 1).
    """
    if len(geometries) != len(schedules):
        raise ValueError("one schedule per geometry is required")
    if t < 1:
        raise ValueError("the bound is defined for t >= 1")
    if noise_bound < 0:
        raise ValueError("noise bound must be nonnegative")
    harmonic = 1.0 + float(np.sum(1.0 / np.arange(1, t + 1)))
    total = 0.0
    for geom, sched in zip(geometries, schedules):
        alpha = sched.decay
        total += geom.divergence_bound() / (sched.scale * t ** (1.0 - alpha))
        total += sched.scale * noise_bound / (2.0 * geom.strong_convexity * (1.0 - alpha) * t**alpha)
    return harmonic * total
