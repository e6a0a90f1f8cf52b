"""Differential-privacy accounting for the released noisy loss sequence.

The released data is the per-iteration noisy path-loss vector.  Its
sensitivity to a bounded shift of one population's OD masses is bounded by
a chain of three results:

1. a prox-step displacement bound: one mirror-descent update moves by at
   most ``eta * ||loss||_dual * ||mass shift||_inf / modulus``;
2. an edge-flow bound: the induced flow change is at most
   ``c * A_x * (A_delta + A_theta * eta * ||loss||_dual / modulus)`` where
   ``A_x`` is the incidence operator norm and ``A_delta`` the largest
   allocation norm;
3. a loss bound: composing with the Lipschitz constant of the flow-to-loss
   map gives the per-release sensitivity ``d_k`` fed to the Gaussian
   mechanism, ``epsilon_k = d_k sqrt(2 ln(1.25 / delta_k)) / sigma``
   (Dwork and Roth 2014, Thm A.1).

The delta budget is split uniformly over the releases, and the per-release
(epsilon, delta) pairs are combined by repeated adaptive composition, plus
the tail mass spent on keeping the noisy losses bounded.
``privacy_curve`` computes every composed pair, over many horizons in one
pass; ``privacy_report`` adds the per-release arrays at a single horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .dynamics import GEOMETRY_KINDS, BregmanGeometry, LearningSchedule
from .game import GameInstance, loss_sup_bound
from .network import block_slices

__all__ = [
    "CURVE_BUDGET",
    "DEFAULT_CLIP",
    "DEFAULT_DELTA_BUDGET",
    "PrivacyCurve",
    "PrivacyReport",
    "SensitivityConstants",
    "allocation_shift_bound",
    "compose_adaptive",
    "privacy_curve",
    "privacy_report",
    "spectral_norm",
    "tail_delta",
]

DEFAULT_CLIP = 2.0  # the noise level ``a`` each coordinate is conditioned to stay within
DEFAULT_DELTA_BUDGET = 1e-3  # split uniformly over the releases
# The most horizons x T_max that one curve may cost: where few exp-sum terms underflow,
# each unit took 0.9 to 2.2 ns on a 2-vCPU Xeon, so the budget is about 20 s.
CURVE_BUDGET = 10**10


def spectral_norm(matrix) -> float:
    """Largest singular value, rounded up so that it is never below the exact value.

    The SVD-based norm can land an ulp or so below the true value (it gives
    1.9999999999999998 for a matrix of norm 2), so it is raised by a
    relative margin of 1e-12.  Raises on an all-zero matrix.
    """
    m = np.asarray(matrix, float)
    if m.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if not m.any():
        raise ValueError("spectral_norm is degenerate on an all-zero matrix")
    return float(np.linalg.norm(m, 2)) * (1.0 + 1e-12)


def allocation_shift_bound(eta, loss_dual_norm: float, modulus: float, mass_shift: float):
    """Bound on how far one prox update moves when the mass vector shifts.

    For a fixed observed loss, the update operated with masses ``theta``
    versus ``theta'`` lands at points whose reference-norm distance is at
    most ``eta * loss_dual_norm * ||theta - theta'||_inf / modulus``, for each ``eta`` of an array.
    """
    if min(np.min(eta), loss_dual_norm, modulus, mass_shift) < 0:
        raise ValueError("allocation_shift_bound arguments must be nonnegative")
    if modulus == 0:
        raise ValueError("strong-convexity modulus must be positive")
    return mass_shift * eta * loss_dual_norm / modulus


def _bound(label: str, derivation: str):
    """A bound of the guarantee: refused unless finite and nonnegative, printed by ``constants``."""
    return field(metadata={"label": label, "derivation": derivation})


@dataclass(frozen=True)
class SensitivityConstants:
    """Instance constants feeding the per-release sensitivity formula."""

    incidence_gain: float = _bound("incidence gain A_x", "largest per-OD incidence spectral norm")
    allocation_norm_bound: float = _bound(
        "allocation norm bound A_Delta", "sum over OD pairs of the per-simplex vertex norm, 1 each")
    mass_bound: float = _bound(
        "mass bound A_theta", "declared mass_bound, else the largest OD mass")
    loss_lipschitz: float = _bound(
        "loss Lipschitz A_ell", "sum of incidence spectral norms times the worst cost slope")
    loss_sup: float = _bound("loss sup bound M", "costliest path with the total mass on every edge")
    modulus_min: float
    total_paths: int
    schedules: tuple[LearningSchedule, ...]

    def bounds(self) -> list[tuple[str, float, str, str]]:
        """``(name, value, label, derivation)`` of each bound, in declaration order."""
        return [(f.name, getattr(self, f.name), f.metadata["label"], f.metadata["derivation"])
                for f in fields(self) if "derivation" in f.metadata]

    def __post_init__(self) -> None:
        for name, value, *_ in self.bounds():
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not self.modulus_min > 0:
            raise ValueError("modulus_min must be positive")
        if not self.schedules:
            raise ValueError("at least one learning schedule is required")

    def clipped_loss_bound(self, clip: float) -> float:
        """Dual-norm cap on an observed loss whose noise coordinates stay within ``clip``."""
        return math.sqrt(self.total_paths) * (self.loss_sup + clip)

    @classmethod
    def from_game(
        cls, game: GameInstance, schedules: Sequence[LearningSchedule]
    ) -> "SensitivityConstants":
        """The constants of ``game``, from one spectral norm per OD block of its incidence.

        Allocations carry the reference norm, the sum over OD pairs of each
        block's euclidean norm; flows carry the euclidean norm.

        - ``incidence_gain`` (``A_x``), the operator norm of the
          allocation-to-flow map: the supremum over unit-norm inputs is
          attained by loading one block, so it is the largest block norm.
        - ``loss_lipschitz`` (``A_ell``), the Lipschitz constant of flows to
          path losses: each block contributes at most its norm times the
          worst edge slope, and the block norms add up.
        - ``allocation_norm_bound`` (``A_Delta``), the largest reference norm
          of a feasible allocation: each block norm is at most one, attained
          at a simplex vertex, so the bound is the number of blocks.
        - ``modulus_min``, the modulus the prox bound divides by: built without
          the populations' geometries, it is the smallest ``strong_convexity``
          of any geometry kind on the game's blocks.
        """
        incidence = game.paths.incidence
        block_norms = [spectral_norm(incidence[:, s]) for s in block_slices(game.block_sizes)]
        modulus_min = min(BregmanGeometry(kind, game.block_sizes).strong_convexity
                          for kind in GEOMETRY_KINDS)
        return cls(
            incidence_gain=max(block_norms),
            allocation_norm_bound=float(len(block_norms)),
            mass_bound=game.mass_bound,
            loss_lipschitz=float(sum(block_norms)) * game.max_slope,
            loss_sup=loss_sup_bound(game),
            modulus_min=modulus_min,
            total_paths=game.total_paths,
            schedules=tuple(schedules),
        )


def _sensitivities(consts: SensitivityConstants, c: float, releases, loss_dual_bound: float):
    """Sensitivity at radius ``c`` of 1-based releases ``r``, at the rate of ``max(r - 2, 0)``."""
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"adjacency radius must be finite and nonnegative, got {c}")
    t = np.maximum(np.asarray(releases) - 2, 0)
    eta_max = np.max([s.rate(t) for s in consts.schedules], axis=0)
    shift = allocation_shift_bound(eta_max, loss_dual_bound, consts.modulus_min, consts.mass_bound)
    return (c * consts.loss_lipschitz * consts.incidence_gain
            * (consts.allocation_norm_bound + shift))


def _epsilons(sensitivities, sigma: float, delta_steps):
    """Gaussian-mechanism epsilons and their (0, 1) validity flags, elementwise.

    The epsilon of sensitivity ``d`` is the smallest one the calibration
    ``sigma >= sqrt(2 ln(1.25 / delta)) * d / epsilon`` allows; it is flagged
    invalid outside (0, 1), where the calibration is not known to hold.
    """
    with np.errstate(over="ignore"):
        ratio = np.divide(1.25, delta_steps)
    # The quotient overflows once delta falls below about 7e-309; its log does not.
    log_ratio = np.where(np.isfinite(ratio), np.log(ratio), math.log(1.25) - np.log(delta_steps))
    b = np.sqrt(np.maximum(2.0 * log_ratio, 0.0))
    epsilons = sensitivities * b / sigma
    return epsilons, (epsilons > 0.0) & (epsilons < 1.0)


def tail_delta(sigma: float, clip: float, n_steps: int, n_paths: int) -> float:
    """Probability that any noise coordinate ever exceeds ``clip``.

    Equals ``1 - (1 - 2 exp(-clip^2 / 2 sigma^2))^(n_steps * n_paths)``,
    evaluated in the log domain so astronomically small masses survive.
    """
    if not (clip > 0 and sigma > 0):
        raise ValueError("clip level and noise std must be positive")
    if n_steps < 0 or n_paths < 0:
        raise ValueError("counts must be nonnegative")
    count = n_steps * n_paths
    twice_variance = 2.0 * sigma * sigma
    # Below sigma of about 1e-162 the variance underflows to 0, and so does the true tail mass.
    if count == 0 or twice_variance == 0.0:
        return 0.0
    q = 2.0 * math.exp(-clip * clip / twice_variance)
    if q >= 1.0:
        raise ValueError(
            f"noise std {sigma} is too large relative to clip level {clip}: "
            "the single-coordinate tail bound is vacuous"
        )
    return -math.expm1(count * math.log1p(-q))


def _running_sum(values: np.ndarray) -> np.ndarray:
    """``np.cumsum`` with each addition's rounding error added back (Knuth's two-sum).

    The sums stay within a few ulps of the exact prefix sums, where a plain
    running sum of ``n`` terms can drift by ``n`` ulps.  Non-finite sums are
    left as they are.
    """
    total = np.cumsum(values)
    before = np.concatenate(([0.0], total[:-1]))
    with np.errstate(invalid="ignore"):
        added = total - before
        error = (before - (total - added)) + (values - added)
    return total + np.cumsum(np.where(np.isfinite(error), error, 0.0))


def _exp_sums(later: np.ndarray, scales: np.ndarray, horizons: np.ndarray) -> list:
    """Each ``np.exp(-s * later[:h]).sum()``, less its terms below the smallest normal float: slow
    to compute, they cannot move the sum, and end the slice as ``later`` is nondecreasing from 0."""
    with np.errstate(divide="ignore", over="ignore"):  # a zero scale keeps every term
        kept = np.searchsorted(later, -math.log(np.finfo(float).tiny) / scales, side="right")
    return [np.exp(-s * later[:k]).sum()
            for s, k in zip(scales.tolist(), np.minimum(horizons, kept).tolist())]


def compose_adaptive(
    epsilons: Sequence[float],
    deltas: Sequence[float],
    extra_delta: float = 0.0,
) -> tuple[float, float]:
    """Repeated adaptive composition of per-release privacy pairs.

    Returns ``(sum eps_t, sum_t exp(sum_{t'>t} eps_t') * delta_t +
    extra_delta)``.  The suffix exponents come from one reverse running sum
    and the delta sum is taken in the log domain, so the delta is
    ``inf`` only when its true value exceeds the float range.
    ``extra_delta`` carries the tail mass of any conditioning event.
    """
    eps, dlt = np.asarray(epsilons, float), np.asarray(deltas, float)
    if eps.shape != dlt.shape or eps.ndim != 1:
        raise ValueError("epsilon and delta lists must have equal length")
    if (eps < 0).any() or (dlt < 0).any() or extra_delta < 0:
        raise ValueError("privacy parameters must be nonnegative")
    # reverse[k] is the sum of the last k epsilons.
    reverse = np.concatenate(([0.0], _running_sum(eps[::-1])))
    with np.errstate(divide="ignore"):
        log_terms = reverse[-2::-1] + np.log(dlt)
    top = log_terms.max(initial=-np.inf)
    if np.isfinite(top):
        top += math.log(np.exp(log_terms - top).sum())
    with np.errstate(over="ignore"):
        return float(reverse[-1]), float(extra_delta + np.exp(top))


@dataclass(frozen=True, eq=False)
class PrivacyReport:
    """Per-release and composed accounting of a horizon of noisy loss releases."""

    sensitivities: np.ndarray
    epsilons: np.ndarray
    deltas: np.ndarray
    valid_steps: np.ndarray
    tail_delta: float
    epsilon: float
    delta: float

    @property
    def trivial(self) -> bool:
        """True when the composed delta offers no guarantee at all."""
        return self.delta >= 1.0

    @property
    def valid(self) -> bool:
        """Every per-release epsilon lies in (0, 1) and delta is below one."""
        return bool(np.all(self.valid_steps)) and not self.trivial


def privacy_report(
    game: GameInstance,
    schedules: Sequence[LearningSchedule],
    sigma: float,
    horizon: int,
    clip: float,
    delta_budget: float,
    *,
    adjacency_radius: float,
) -> PrivacyReport:
    """Account the full release sequence of ``horizon`` noisy loss vectors.

    The composed values are :func:`privacy_curve`'s at ``horizon``, with the
    constants taken from ``game``; the per-release arrays use its formulas.
    """
    consts = SensitivityConstants.from_game(game, schedules)
    curve = privacy_curve(consts, adjacency_radius, sigma, [horizon], clip, delta_budget)
    sens = _sensitivities(consts, adjacency_radius, np.arange(1, horizon + 1),
                          consts.clipped_loss_bound(clip))
    epsilons, flags = _epsilons(sens, sigma, curve.release_delta[0])
    return PrivacyReport(sens, epsilons, np.full(horizon, curve.release_delta[0]), flags,
                         *(float(v[0]) for v in (curve.tail_delta, curve.epsilon, curve.delta)))


@dataclass(frozen=True, eq=False)
class PrivacyCurve:
    """Composed (epsilon, delta) of the uniform-split releases at each horizon, with a summary."""

    epsilon: np.ndarray
    delta: np.ndarray
    releases_valid: np.ndarray  # every per-release epsilon lies in (0, 1)
    release_delta: np.ndarray  # each release's share of the delta budget
    tail_delta: np.ndarray  # the clip event's mass, included in delta
    sensitivity_range: np.ndarray  # rows: the smallest and the largest per-release sensitivity
    epsilon_range: np.ndarray  # rows: the smallest and the largest per-release epsilon
    valid_releases: int  # the count of valid releases at the largest horizon

    @property
    def valid(self) -> np.ndarray:
        return self.releases_valid & (self.delta < 1.0)


def _check_budget(count: int, t_max: int) -> None:
    """Refuse ``count`` horizons up to ``t_max``, if they are beyond ``CURVE_BUDGET``."""
    if count * t_max > CURVE_BUDGET:
        raise ValueError(f"horizons x T_max = {count} x {t_max} exceeds the "
                         f"accountant's budget of {CURVE_BUDGET}")


def privacy_curve(
    consts: SensitivityConstants,
    c: float,
    sigma: float,
    horizons,
    clip: float,
    delta_budget: float,
) -> PrivacyCurve:
    """Account ``T`` noisy loss releases at adjacency radius ``c``, for each ``T`` in ``horizons``.

    The dual norm of the observed losses is capped by conditioning on no
    noise coordinate exceeding ``clip``; that event's tail mass joins the
    composed delta.  Release ``r`` is bounded with the learning rate of the
    update that produced its allocation (the first release, made before
    any update, is covered conservatively by the same formula).  The delta
    budget is split uniformly over the releases.  The invalid regime is
    flagged rather than refused.  A curve whose horizons x T_max exceeds
    ``CURVE_BUDGET`` is refused before any work.

    The sensitivities ``d_k`` are evaluated once.  At horizon ``T`` every
    epsilon is ``d_k`` times one Gaussian factor ``s_T``, so the composed
    epsilon is ``s_T`` times a prefix sum, and the validity flags follow
    from the prefix minimum and maximum (the calibration is monotone in
    ``d_k``, also after rounding).  With ``Q_k = d_2 + ... + d_k`` the
    largest delta exponent is the first release's, ``s_T Q_T``, and the
    log of the composed delta less the tail mass is ``log(delta_budget /
    T) + s_T Q_T + log sum_{k <= T} exp(-s_T Q_k)``: one exp-sum per
    horizon.  Only per-horizon values are returned, and the count of valid
    releases at the largest horizon; :func:`privacy_report` has the arrays.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    if horizons.ndim != 1 or horizons.size == 0 or horizons.min() < 1:
        raise ValueError("horizons must be a nonempty list of positive release counts")
    t_max = int(horizons.max())
    _check_budget(horizons.size, t_max)
    for what, name, value in [("noise standard deviation", "sigma", sigma),
                              ("clip level", "clip", clip),
                              ("delta budget", "delta_budget", delta_budget)]:
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{what} must be positive and finite, got {name} = {value!r}")
    loss_dual_bound = consts.clipped_loss_bound(clip)
    steps = delta_budget / horizons
    if not steps.all():
        first = int(horizons[steps == 0].min())
        raise ValueError(f"per-release delta {delta_budget!r} / T underflows to 0 at T = {first}")
    # A radius near the float maximum, or a tiny sigma, overflows here; the check below reports it.
    with np.errstate(all="ignore"):
        sens = _sensitivities(consts, c, np.arange(1, t_max + 1), loss_dual_bound)
        later = np.concatenate(([0.0], _running_sum(sens[1:])))  # Q_k, from k = 1
        # Per horizon: the smallest and the largest sensitivity, their sum, and 1, for s_T.
        ends = horizons - 1  # each horizon's last release
        prefix = np.stack([np.minimum.accumulate(sens)[ends], np.maximum.accumulate(sens)[ends],
                           sens[0] + later[ends], np.ones(len(horizons))])
        (eps_min, eps_max, epsilon, scale), flags = _epsilons(prefix, sigma, steps)
    # Every sensitivity and per-release epsilon is finite when every composed epsilon is.
    if not np.isfinite(epsilon).all():
        raise ValueError(f"epsilon overflows at c = {c!r}, sigma = {sigma!r}")
    sums = _exp_sums(later, scale, horizons)
    tails = np.array([tail_delta(sigma, clip, h, consts.total_paths) for h in horizons.tolist()])
    with np.errstate(over="ignore"):
        delta = tails + np.exp(np.log(steps) + scale * later[ends] + np.log(sums))
    last = _epsilons(sens, sigma, steps[horizons.argmax()])[1]  # the largest horizon's flags
    return PrivacyCurve(epsilon, delta, flags[0] & flags[1], steps, tails, prefix[:2],
                        np.stack((eps_min, eps_max)), int(np.count_nonzero(last)))
