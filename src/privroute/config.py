"""Experiment configuration: JSON schema, validation, and object builders."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

from .dynamics import BregmanGeometry, LearningSchedule
from .game import AffineCost, GameInstance, build_game
from .network import PathSet, build_network

__all__ = [
    "ConfigError",
    "EXPERIMENT_SCHEMA",
    "build_dynamics_from_config",
    "build_game_from_config",
    "load_config",
    "privacy_pairs",
    "validate_config",
]


class ConfigError(ValueError):
    """Configuration file fails schema or consistency checks."""


_PAIR = {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2}

_NETWORK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["nodes", "edges", "od_pairs"],
    "properties": {
        "nodes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "edges": {"type": "array", "items": _PAIR, "minItems": 1},
        "od_pairs": {"type": "array", "items": _PAIR, "minItems": 1},
    },
}

_COST_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["affine"],
    "properties": {
        "affine": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        }
    },
}

_POPULATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["theta"],
    "properties": {
        "theta": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
        "geometry": {"enum": ["entropic", "euclidean"]},
        "c_k": {"type": "number", "exclusiveMinimum": 0},
        "alpha_k": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    },
}

_NUMBER_OR_LIST = {
    "oneOf": [
        {"type": "number", "minimum": 0},
        {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
    ]
}

_SIMULATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["T", "runs", "sigma", "seed"],
    "properties": {
        "T": {"type": "integer", "minimum": 1},
        "runs": {"type": "integer", "minimum": 1},
        "sigma": _NUMBER_OR_LIST,
        "seed": {"type": "integer", "minimum": 0},
        "slope_window": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

_PRIVACY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["c_adj", "sigma"],
    "properties": {
        "c_adj": _NUMBER_OR_LIST,
        "sigma": _NUMBER_OR_LIST,
        "a": {"type": "number", "exclusiveMinimum": 0},
        "delta_budget": {"type": "number", "exclusiveMinimum": 0},
        "delta_split": {"enum": ["uniform"]},
        "paper_variant": {"type": "boolean"},
        "T_range": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 2,
            "maxItems": 3,
        },
    },
}

EXPERIMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["network", "edge_costs", "populations"],
    "properties": {
        "network": _NETWORK_SCHEMA,
        "edge_costs": {"type": "array", "items": _COST_SCHEMA},
        "populations": {"type": "array", "items": _POPULATION_SCHEMA, "minItems": 1},
        "mass_bound": {"type": "number", "minimum": 0},
        "max_paths_per_od": {"type": "integer", "minimum": 1},
        "simulation": _SIMULATION_SCHEMA,
        "privacy": _PRIVACY_SCHEMA,
        "output_dir": {"type": "string"},
    },
}


# Built once, so the schema is not re-checked against its metaschema on every load.
_VALIDATOR = jsonschema.Draft202012Validator(EXPERIMENT_SCHEMA)


def validate_config(cfg: dict) -> dict:
    """Schema-check a configuration document; unknown keys are rejected."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        location = "/".join(str(part) for part in error.absolute_path) or "document root"
        raise ConfigError(f"config invalid at {location}: {error.message}") from error
    _check_consistency(cfg)
    return cfg


def _check_consistency(cfg: dict) -> None:
    edges = cfg["network"]["edges"]
    costs = cfg["edge_costs"]
    if len(costs) != len(edges):
        if len(costs) < len(edges):
            tail, head = edges[len(costs)]
            raise ConfigError(
                f"missing cost entry for edge {len(costs)} ({tail} -> {head}): "
                f"{len(costs)} costs for {len(edges)} edges"
            )
        raise ConfigError(f"{len(costs)} cost entries for only {len(edges)} edges")
    n_od = len(cfg["network"]["od_pairs"])
    for idx, pop in enumerate(cfg["populations"]):
        if len(pop["theta"]) != n_od:
            raise ConfigError(
                f"population {idx} has {len(pop['theta'])} mass entries "
                f"for {n_od} OD pairs"
            )
    peak = max(max(pop["theta"]) for pop in cfg["populations"])
    bound = cfg.get("mass_bound")
    if bound is not None and peak > bound:
        raise ConfigError(f"mass entry {peak} exceeds declared mass_bound {bound}")
    privacy = cfg.get("privacy")
    if privacy is not None:
        c_list = _as_list(privacy["c_adj"])
        s_list = _as_list(privacy["sigma"])
        if len(c_list) > 1 and len(s_list) > 1 and len(c_list) != len(s_list):
            raise ConfigError(
                f"privacy c_adj and sigma lists have mismatched lengths "
                f"({len(c_list)} vs {len(s_list)})"
            )


def load_config(path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def build_game_from_config(cfg: dict) -> GameInstance:
    network = build_network(cfg["network"])
    costs = [AffineCost(*entry["affine"]) for entry in cfg["edge_costs"]]
    masses = np.array([pop["theta"] for pop in cfg["populations"]], dtype=float)
    privacy = cfg.get("privacy") or {}
    radii = _as_list(privacy.get("c_adj", []))
    return build_game(
        network,
        costs,
        masses,
        mass_bound=cfg.get("mass_bound"),
        adjacency_radius=radii[0] if radii else None,
        max_paths_per_od=cfg.get("max_paths_per_od"),
    )


def build_dynamics_from_config(
    cfg: dict, paths: PathSet
) -> tuple[tuple[BregmanGeometry, ...], tuple[LearningSchedule, ...]]:
    pops = cfg["populations"]
    sizes = paths.block_sizes
    geometries = tuple(BregmanGeometry(p.get("geometry", "entropic"), sizes) for p in pops)
    schedules = tuple(LearningSchedule(p.get("c_k", 1.0), p.get("alpha_k", 0.5)) for p in pops)
    return geometries, schedules


def privacy_pairs(cfg: dict) -> list[tuple[float, float]]:
    """Zip the privacy block's radius and noise lists into (c, sigma) pairs.

    Scalars broadcast against lists; two lists must have equal length.
    """
    privacy = cfg.get("privacy")
    if privacy is None:
        raise ConfigError("config has no privacy block")
    c_list = _as_list(privacy["c_adj"])
    s_list = _as_list(privacy["sigma"])
    if len(c_list) == 1 and len(s_list) > 1:
        c_list = c_list * len(s_list)
    if len(s_list) == 1 and len(c_list) > 1:
        s_list = s_list * len(c_list)
    return list(zip(map(float, c_list), map(float, s_list)))
