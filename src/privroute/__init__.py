"""Noisy mirror-descent routing-game dynamics with privacy accounting."""

from .config import (
    ConfigError,
    build_dynamics_from_config,
    build_game_from_config,
    load_config,
    privacy_pairs,
)
from .dynamics import (
    BregmanGeometry,
    LearningSchedule,
    dual_norm,
    project_simplex,
    reference_norm,
    smd_update,
    suboptimality_bound,
)
from .game import (
    Equilibrium,
    EquilibriumError,
    GameInstance,
    build_game,
    edge_flows,
    nash_gap,
    path_losses,
    potential,
    potential_gradient,
    solve_equilibrium,
    uniform_allocation,
    validate_allocation,
    weighted_inner,
)
from .network import Network, NetworkError, PathSet, build_network, enumerate_paths
from .privacy import (
    PrivacyReport,
    SensitivityConstants,
    allocation_shift_bound,
    compose_adaptive,
    gaussian_epsilon,
    loss_sup_bound,
    privacy_report,
    step_sensitivity,
    tail_delta,
)
from .sim import (
    EnsembleStats,
    RunRecord,
    SimulationConfig,
    monte_carlo,
    run_trajectory,
)

__version__ = "0.1.0"
