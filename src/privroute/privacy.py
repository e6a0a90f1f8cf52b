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
   map gives the per-release sensitivity fed to the Gaussian mechanism.

Per-release (epsilon, delta) pairs are combined by repeated adaptive
composition, plus the tail mass spent on keeping the noisy losses bounded.
``privacy_curve`` computes every composed pair, over many horizons in one
pass; ``privacy_report`` is its full report at a single horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import LearningSchedule
from .game import GameInstance, path_losses
from .network import PathSet

__all__ = [
    "PrivacyCurve",
    "PrivacyReport",
    "SensitivityConstants",
    "allocation_shift_bound",
    "allocation_supremum",
    "compose_adaptive",
    "gaussian_epsilon",
    "incidence_gain",
    "loss_lipschitz_bound",
    "loss_sup_bound",
    "privacy_curve",
    "privacy_report",
    "spectral_norm",
    "step_sensitivity",
    "tail_delta",
]


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


def incidence_gain(paths: PathSet) -> float:
    """Operator norm of the allocation-to-flow map under the block norms.

    With per-block euclidean norms summed across OD pairs on the domain and
    the euclidean norm on edge flows, the supremum over unit-norm inputs is
    attained by loading one block, so the gain is the largest per-block
    incidence spectral norm.
    """
    return max(spectral_norm(m) for m in paths.incidence)


def allocation_supremum(paths: PathSet) -> float:
    """Largest reference norm of a feasible allocation.

    The norm is a sum of per-block euclidean norms and each block norm is
    maximized at a simplex vertex, where it equals one; the supremum is
    therefore the number of OD pairs.
    """
    return float(len(paths.block_sizes))


def loss_lipschitz_bound(game: GameInstance) -> float:
    """Lipschitz constant of flows -> path losses, edge norm to block norm.

    Each block contributes at most its incidence spectral norm times the
    worst per-edge cost slope, and the block norms add up.
    """
    lam = max(c.lipschitz for c in game.costs)
    return float(sum(spectral_norm(m) for m in game.paths.incidence)) * lam


def loss_sup_bound(game: GameInstance) -> float:
    """Uniform bound on any path loss over all feasible allocations.

    Costs are nondecreasing, so routing the entire mass of every
    population over a single path is the worst case; evaluating all edges
    at the total mass and taking the costliest path is an upper bound.
    """
    return float(np.max(path_losses(game, np.full(game.network.num_edges, game.total_mass))))


def allocation_shift_bound(
    eta: float, loss_dual_norm: float, modulus: float, mass_shift: float
) -> float:
    """Bound on how far one prox update moves when the mass vector shifts.

    For a fixed observed loss, the update operated with masses ``theta``
    versus ``theta'`` lands at points whose reference-norm distance is at
    most ``eta * loss_dual_norm * ||theta - theta'||_inf / modulus``.
    """
    if min(eta, loss_dual_norm, modulus, mass_shift) < 0:
        raise ValueError("allocation_shift_bound arguments must be nonnegative")
    if modulus == 0:
        raise ValueError("strong-convexity modulus must be positive")
    return eta * loss_dual_norm * mass_shift / modulus


@dataclass(frozen=True)
class SensitivityConstants:
    """Instance constants feeding the per-release sensitivity formula."""

    mass_bound: float
    allocation_norm_bound: float
    incidence_gain: float
    loss_lipschitz: float
    loss_sup: float
    modulus_min: float
    total_paths: int
    schedules: tuple[LearningSchedule, ...]

    def __post_init__(self) -> None:
        for name in (
            "mass_bound",
            "allocation_norm_bound",
            "incidence_gain",
            "loss_lipschitz",
            "loss_sup",
        ):
            value = getattr(self, name)
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
        return cls(
            mass_bound=game.mass_bound,
            allocation_norm_bound=allocation_supremum(game.paths),
            incidence_gain=incidence_gain(game.paths),
            loss_lipschitz=loss_lipschitz_bound(game),
            loss_sup=loss_sup_bound(game),
            modulus_min=1.0 / game.network.num_od_pairs,
            total_paths=game.total_paths,
            schedules=tuple(schedules),
        )


def _sensitivities(consts: SensitivityConstants, c: float, releases, loss_dual_bound: float):
    """Sensitivity at radius ``c`` of 1-based releases ``r``, at the rate of ``max(r - 2, 0)``."""
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError(f"adjacency radius must be finite and nonnegative, got {c}")
    t = np.maximum(np.asarray(releases) - 2, 0)
    eta_max = np.max([s.rate(t) for s in consts.schedules], axis=0)
    propagated = consts.mass_bound * eta_max * loss_dual_bound / consts.modulus_min
    return c * consts.loss_lipschitz * consts.incidence_gain * (
        consts.allocation_norm_bound + propagated
    )


def _epsilons(sensitivities, sigma: float, delta_steps, paper_variant: bool = False):
    """Gaussian-mechanism epsilons and their (0, 1) validity flags, elementwise."""
    if sigma <= 0:
        raise ValueError("noise standard deviation must be positive")
    with np.errstate(over="ignore"):
        ratio = np.divide(1.25, delta_steps)
    # The quotient overflows once delta falls below about 7e-309; its log does not.
    log_ratio = np.where(np.isfinite(ratio), np.log(ratio), math.log(1.25) - np.log(delta_steps))
    b = np.sqrt(np.maximum(2.0 * log_ratio, 0.0))
    epsilons = sensitivities * b / (sigma * sigma if paper_variant else sigma)
    return epsilons, (epsilons > 0.0) & (epsilons < 1.0)


def step_sensitivity(
    consts: SensitivityConstants, c: float, t: int, loss_dual_bound: float
) -> float:
    """Sensitivity, at adjacency radius ``c``, of the release following the update at ``t``.

    ``loss_dual_bound`` caps the dual norm of the observed loss driving the
    update.  The value decreases with ``t`` because the learning rates do,
    and floors at ``c * loss_lipschitz * gain * allocation_bound``.
    """
    return float(_sensitivities(consts, c, t + 2, loss_dual_bound))


def gaussian_epsilon(
    sensitivity: float,
    sigma: float,
    delta_step: float,
    paper_variant: bool = False,
) -> tuple[float, bool]:
    """Invert the Gaussian-mechanism calibration for one release.

    Noise of standard deviation ``sigma >= sqrt(2 ln(1.25/delta)) *
    sensitivity / epsilon`` gives (epsilon, delta) privacy for epsilon in
    (0, 1); solving for the smallest epsilon gives the returned value.  The
    flag is False whenever epsilon falls outside (0, 1), where the
    calibration is not known to hold.  ``paper_variant`` divides by
    ``sigma**2`` instead of ``sigma`` for comparison runs.
    """
    if delta_step <= 0:
        raise ValueError("per-step delta must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    epsilon, valid = _epsilons(sensitivity, sigma, delta_step, paper_variant)
    return float(epsilon), bool(valid)


def tail_delta(sigma: float, clip: float, n_steps: int, n_paths: int) -> float:
    """Probability that any noise coordinate ever exceeds ``clip``.

    Equals ``1 - (1 - 2 exp(-clip^2 / 2 sigma^2))^(n_steps * n_paths)``,
    evaluated in the log domain so astronomically small masses survive.
    """
    if clip <= 0 or sigma <= 0:
        raise ValueError("clip level and noise std must be positive")
    if n_steps < 0 or n_paths < 0:
        raise ValueError("counts must be nonnegative")
    count = n_steps * n_paths
    if count == 0:
        return 0.0
    q = 2.0 * math.exp(-clip * clip / (2.0 * sigma * sigma))
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
    """Full accounting output for a horizon of noisy loss releases."""

    constants: SensitivityConstants
    adjacency_radius: float
    sigma: float
    clip: float
    horizon: int
    delta_budget: float
    paper_variant: bool
    loss_dual_bound: float
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

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "clip": self.clip,
            "horizon": self.horizon,
            "delta_budget": self.delta_budget,
            "paper_variant": self.paper_variant,
            "loss_dual_bound": self.loss_dual_bound,
            "constants": {"adjacency_radius": self.adjacency_radius}
            | {k: v for k, v in vars(self.constants).items() if k != "schedules"},
            "per_step": {
                "sensitivity": self.sensitivities.tolist(),
                "epsilon": self.epsilons.tolist(),
                "delta": self.deltas.tolist(),
                "valid": self.valid_steps.tolist(),
            },
            "tail_delta": self.tail_delta,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "trivial": self.trivial,
            "valid": self.valid,
        }


def privacy_report(
    game: GameInstance,
    schedules: Sequence[LearningSchedule],
    sigma: float,
    horizon: int,
    clip: float = 2.0,
    delta_budget: float = 1e-3,
    paper_variant: bool = False,
    adjacency_radius: float | None = None,
) -> PrivacyReport:
    """Account the full release sequence of ``horizon`` noisy loss vectors.

    This is :func:`privacy_curve` at the single horizon ``horizon``, with
    the constants taken from ``game``.
    """
    if adjacency_radius is None:
        raise ValueError("an adjacency radius is required for privacy accounting")
    consts = SensitivityConstants.from_game(game, schedules)
    return privacy_curve(consts, adjacency_radius, sigma, [horizon], clip, delta_budget,
                         paper_variant).report


@dataclass(frozen=True, eq=False)
class PrivacyCurve:
    """Composed (epsilon, delta) of the uniform-split report at each horizon."""

    horizons: np.ndarray
    epsilon: np.ndarray
    delta: np.ndarray
    releases_valid: np.ndarray  # every per-release epsilon lies in (0, 1)
    report: PrivacyReport  # the full report at the largest horizon

    @property
    def valid(self) -> np.ndarray:
        return self.releases_valid & (self.delta < 1.0)

    def diagnostics(self) -> dict:
        """First horizon with an invalid release and first with delta >= 1, or None."""
        masks = {"first_invalid_release_T": ~self.releases_valid,
                 "first_trivial_T": self.delta >= 1.0}
        return {k: int(self.horizons[m.argmax()]) if m.any() else None for k, m in masks.items()}


def privacy_curve(
    consts: SensitivityConstants,
    c: float,
    sigma: float,
    horizons,
    clip: float = 2.0,
    delta_budget: float = 1e-3,
    paper_variant: bool = False,
) -> PrivacyCurve:
    """Account ``T`` noisy loss releases at adjacency radius ``c``, for each ``T`` in ``horizons``.

    The dual norm of the observed losses is capped by conditioning on no
    noise coordinate exceeding ``clip``; that event's tail mass joins the
    composed delta.  Release ``r`` is bounded with the learning rate of the
    update that produced its allocation (the first release, made before
    any update, is covered conservatively by the same formula).  The delta
    budget is split uniformly over the releases.  The invalid regime is
    flagged rather than refused.

    The sensitivities ``d_k`` are evaluated once.  At horizon ``T`` every
    epsilon is ``d_k`` times one Gaussian factor ``s_T``, so the composed
    epsilon is ``s_T`` times a prefix sum, and the validity flags follow
    from the prefix minimum and maximum (the calibration is monotone in
    ``d_k``, also after rounding).  With ``Q_k = d_2 + ... + d_k`` the
    largest delta exponent is the first release's, ``s_T Q_T``, and the
    log of the composed delta less the tail mass is ``log(delta_budget /
    T) + s_T Q_T + log sum_{k <= T} exp(-s_T Q_k)``: one exp-sum per
    horizon.  Only the largest horizon builds per-release arrays, in
    ``report``.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    if horizons.ndim != 1 or horizons.size == 0 or horizons.min() < 1:
        raise ValueError("horizons must be a nonempty list of positive release counts")
    t_max = int(horizons.max())
    loss_dual_bound = consts.clipped_loss_bound(clip)
    steps = delta_budget / horizons
    if not steps.all():
        first = int(horizons[steps == 0].min())
        raise ValueError(f"per-release delta {delta_budget!r} / T underflows to 0 at T = {first}")
    # A radius near the float maximum, or a tiny sigma, overflows here; the check below reports it.
    with np.errstate(all="ignore"):
        sens = _sensitivities(consts, c, np.arange(1, t_max + 1), loss_dual_bound)
        later = np.concatenate(([0.0], _running_sum(sens[1:])))  # Q_k, from k = 1
        # Per horizon: the smallest and the largest epsilon, their sum, and s_T.
        prefix = np.stack([np.minimum.accumulate(sens), np.maximum.accumulate(sens),
                           sens[0] + later, np.ones(t_max)])
        (lowest, highest, epsilon, scale), _ = _epsilons(
            prefix[:, horizons - 1], sigma, steps, paper_variant
        )
    # Every sensitivity and per-release epsilon is finite when every composed epsilon is.
    if not np.isfinite(epsilon).all():
        raise ValueError(f"epsilon overflows at c = {c!r}, sigma = {sigma!r}")
    releases_valid = (lowest > 0.0) & (highest < 1.0)
    sums = [np.exp(-s * later[:h]).sum() for s, h in zip(scale.tolist(), horizons.tolist())]
    tails = [tail_delta(sigma, clip, h, consts.total_paths) for h in horizons.tolist()]
    with np.errstate(over="ignore"):
        delta = tails + np.exp(np.log(steps) + scale * later[horizons - 1] + np.log(sums))
    last = int(horizons.argmax())
    epsilons, valid_steps = _epsilons(sens, sigma, steps[last], paper_variant)
    report = PrivacyReport(
        constants=consts, adjacency_radius=float(c), sigma=float(sigma), clip=float(clip),
        horizon=t_max, delta_budget=float(delta_budget), paper_variant=paper_variant,
        loss_dual_bound=float(loss_dual_bound), sensitivities=sens, epsilons=epsilons,
        deltas=np.full(t_max, steps[last]), valid_steps=valid_steps,
        tail_delta=float(tails[last]), epsilon=float(epsilon[last]), delta=float(delta[last]),
    )
    return PrivacyCurve(horizons, epsilon, delta, releases_valid, report)
