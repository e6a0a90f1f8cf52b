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
    "PrivacyReport",
    "SensitivityConstants",
    "allocation_shift_bound",
    "allocation_supremum",
    "compose_adaptive",
    "gaussian_epsilon",
    "incidence_gain",
    "loss_lipschitz_bound",
    "loss_sup_bound",
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

    adjacency_radius: float
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
            "adjacency_radius",
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

    def eta_max(self, t: int) -> float:
        return max(s.rate(t) for s in self.schedules)

    @classmethod
    def from_game(
        cls,
        game: GameInstance,
        schedules: Sequence[LearningSchedule],
        adjacency_radius: float | None = None,
        modulus_min: float | None = None,
    ) -> "SensitivityConstants":
        radius = adjacency_radius if adjacency_radius is not None else game.adjacency_radius
        if radius is None:
            raise ValueError("an adjacency radius is required for privacy accounting")
        if modulus_min is None:
            modulus_min = 1.0 / game.network.num_od_pairs
        return cls(
            adjacency_radius=float(radius),
            mass_bound=game.mass_bound,
            allocation_norm_bound=allocation_supremum(game.paths),
            incidence_gain=incidence_gain(game.paths),
            loss_lipschitz=loss_lipschitz_bound(game),
            loss_sup=loss_sup_bound(game),
            modulus_min=modulus_min,
            total_paths=game.total_paths,
            schedules=tuple(schedules),
        )


def step_sensitivity(consts: SensitivityConstants, t: int, loss_dual_bound: float) -> float:
    """Sensitivity of the release following the update at loop index ``t``.

    ``loss_dual_bound`` caps the dual norm of the observed loss driving the
    update.  The value decreases with ``t`` because the learning rates do,
    and floors at ``radius * loss_lipschitz * gain * allocation_bound``.
    """
    direct = consts.allocation_norm_bound
    propagated = (
        consts.mass_bound * consts.eta_max(t) * loss_dual_bound / consts.modulus_min
    )
    return consts.adjacency_radius * consts.loss_lipschitz * consts.incidence_gain * (
        direct + propagated
    )


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
    if sigma <= 0:
        raise ValueError("noise standard deviation must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    b_squared = 2.0 * math.log(1.25 / delta_step)
    if b_squared <= 0:
        return 0.0, False
    denominator = sigma * sigma if paper_variant else sigma
    epsilon = sensitivity * math.sqrt(b_squared) / denominator
    return epsilon, 0.0 < epsilon < 1.0


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


def compose_adaptive(
    epsilons: Sequence[float],
    deltas: Sequence[float],
    extra_delta: float = 0.0,
) -> tuple[float, float]:
    """Repeated adaptive composition of per-release privacy pairs.

    Returns ``(sum eps_t, sum_t exp(sum_{t'>t} eps_t') * delta_t +
    extra_delta)``; the suffix exponents are accumulated in one reverse
    pass.  ``extra_delta`` carries the tail mass of any conditioning event.
    When a suffix exponent overflows the float range the delta is ``inf``.
    """
    if len(epsilons) != len(deltas):
        raise ValueError("epsilon and delta lists must have equal length")
    if any(e < 0 for e in epsilons) or any(d < 0 for d in deltas) or extra_delta < 0:
        raise ValueError("privacy parameters must be nonnegative")
    suffix = 0.0
    total_delta = extra_delta
    try:
        for eps, delta in zip(reversed(list(epsilons)), reversed(list(deltas))):
            total_delta += math.exp(suffix) * delta
            suffix += eps
    except OverflowError:
        # exp(suffix) exceeds the float range: no finite bound, and inf is sound.
        total_delta = math.inf
    return float(sum(epsilons)), float(total_delta)


@dataclass(frozen=True, eq=False)
class PrivacyReport:
    """Full accounting output for a horizon of noisy loss releases."""

    constants: SensitivityConstants
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
            "constants": {
                "adjacency_radius": self.constants.adjacency_radius,
                "mass_bound": self.constants.mass_bound,
                "allocation_norm_bound": self.constants.allocation_norm_bound,
                "incidence_gain": self.constants.incidence_gain,
                "loss_lipschitz": self.constants.loss_lipschitz,
                "loss_sup": self.constants.loss_sup,
                "modulus_min": self.constants.modulus_min,
                "total_paths": self.constants.total_paths,
            },
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
    delta_split="uniform",
    paper_variant: bool = False,
    adjacency_radius: float | None = None,
    loss_dual_bound: float | None = None,
) -> PrivacyReport:
    """Account the full release sequence of ``horizon`` noisy loss vectors.

    The dual norm of the observed losses is capped by conditioning on no
    noise coordinate exceeding ``clip``; that event's tail mass joins the
    composed delta.  Release ``r`` is bounded with the learning rate of the
    update that produced its allocation (the first release, made before
    any update, is covered conservatively by the same formula).  The delta
    budget is split uniformly unless an explicit per-step sequence is
    given.  Reports in the invalid regime are produced and flagged rather
    than refused.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one release")
    consts = SensitivityConstants.from_game(game, schedules, adjacency_radius)
    if loss_dual_bound is None:
        loss_dual_bound = math.sqrt(consts.total_paths) * (consts.loss_sup + clip)

    if isinstance(delta_split, str):
        if delta_split != "uniform":
            raise ValueError(f"unknown delta split rule {delta_split!r}")
        deltas = np.full(horizon, delta_budget / horizon)
    else:
        deltas = np.asarray(delta_split, float)
        if deltas.shape != (horizon,) or np.any(deltas <= 0):
            raise ValueError("explicit delta split must be positive with one entry per step")

    # Vectorized evaluation of the per-step formula; step_sensitivity and
    # gaussian_epsilon define the same values one release at a time.
    releases = np.arange(1, horizon + 1)
    eta_index = np.maximum(releases - 2, 0)
    rates = np.max(
        [s.scale * (eta_index + 1.0) ** (-s.decay) for s in consts.schedules], axis=0
    )
    sensitivities = (
        consts.adjacency_radius
        * consts.loss_lipschitz
        * consts.incidence_gain
        * (
            consts.allocation_norm_bound
            + consts.mass_bound * rates * loss_dual_bound / consts.modulus_min
        )
    )
    b = np.sqrt(np.maximum(2.0 * np.log(1.25 / deltas), 0.0))
    denominator = sigma * sigma if paper_variant else sigma
    if sigma <= 0:
        raise ValueError("noise standard deviation must be positive")
    epsilons = sensitivities * b / denominator
    valid_steps = (epsilons > 0.0) & (epsilons < 1.0)

    tail = tail_delta(sigma, clip, horizon, consts.total_paths)
    total_eps, total_delta = compose_adaptive(epsilons.tolist(), deltas.tolist(), tail)
    return PrivacyReport(
        constants=consts,
        sigma=float(sigma),
        clip=float(clip),
        horizon=int(horizon),
        delta_budget=float(delta_budget),
        paper_variant=paper_variant,
        loss_dual_bound=float(loss_dual_bound),
        sensitivities=sensitivities,
        epsilons=epsilons,
        deltas=deltas,
        valid_steps=valid_steps,
        tail_delta=float(tail),
        epsilon=float(total_eps),
        delta=float(total_delta),
    )
