"""Experiment configuration: JSON schema, validation, and object builders."""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .dynamics import BregmanGeometry, LearningSchedule
from .game import GameInstance, build_game
from .network import PathSet, build_network

__all__ = [
    "ConfigError",
    "EXPERIMENT_SCHEMA",
    "build_dynamics_from_config",
    "build_game_from_config",
    "check_config",
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
        "alpha_k": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    },
}

# The largest count a config may give.  Every integral float up to 2**53 is
# exact, so 20.0 means 20; and no array of that many steps can be allocated.
_MAX_COUNT = 2**53


def _number_or_list(bound: str) -> dict:
    """A number, or a nonempty list of numbers, each meeting ``bound`` against 0."""
    number = {"type": "number", bound: 0}
    return {"oneOf": [number, {"type": "array", "items": number, "minItems": 1}]}


_SIMULATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["T", "runs", "sigma", "seed"],
    "properties": {
        "T": {"type": "integer", "minimum": 2, "maximum": _MAX_COUNT},  # two for the slope fit
        "runs": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT},
        "sigma": _number_or_list("minimum"),  # sigma 0 runs the deterministic dynamics
        "seed": {"type": "integer", "minimum": 0},
    },
}

_PRIVACY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["c_adj", "sigma"],
    "properties": {
        "c_adj": _number_or_list("minimum"),
        "sigma": _number_or_list("exclusiveMinimum"),  # the Gaussian mechanism's domain
        "a": {"type": "number", "exclusiveMinimum": 0},
        "delta_budget": {"type": "number", "exclusiveMinimum": 0},
        "T_range": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT},
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
        "simulation": _SIMULATION_SCHEMA,
        "privacy": _PRIVACY_SCHEMA,
    },
}


def validate_config(cfg: dict) -> dict:
    """Schema-check a configuration document; unknown keys are rejected."""
    problem = _schema_violation(cfg, EXPERIMENT_SCHEMA, ())
    if problem is not None:
        path, message = problem
        location = "/".join(map(str, path)) or "document root"
        raise ConfigError(f"config invalid at {location}: {message}")
    _check_consistency(cfg)
    return cfg


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": numbers.Number}

_BOUNDS = [
    ("minimum", lambda v, b: v < b, "less than the minimum of"),
    ("maximum", lambda v, b: v > b, "greater than the maximum of"),
    ("exclusiveMinimum", lambda v, b: v <= b, "less than or equal to the minimum of"),
    ("exclusiveMaximum", lambda v, b: v >= b, "greater than or equal to the maximum of"),
]


def _first_non_finite(value, path: tuple = ()):
    """``(path, value)`` of the first NaN or infinite number in a parsed document, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return next(filter(None, (_first_non_finite(v, path + (k,)) for k, v in items)), None)
    return None


def _is_type(value, name: str) -> bool:
    """JSON Schema type test: a bool is no number, and an integral float is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def _schema_violation(value, schema: dict, path: tuple):
    """First violation of ``schema`` by ``value`` as ``(path, message)``, or None.

    Covers the keywords ``EXPERIMENT_SCHEMA`` uses, with JSON Schema 2020-12
    semantics: a bound rejects only when its violation test holds (so NaN
    passes it), ``oneOf`` needs exactly one matching branch and ``enum``
    compares with ``==`` (the schema's enums hold only strings).  A level's
    own checks come before its children's.
    """
    if "type" in schema and not _is_type(value, schema["type"]):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        matches = sum(_schema_violation(value, branch, path) is None for branch in schema["oneOf"])
        if matches != 1:
            which = "is not valid under any" if matches == 0 else "is valid under more than one"
            return path, f"{value!r} {which} of the given schemas"
    children = []
    if _is_type(value, "number"):
        for key, violated, relation in _BOUNDS:
            if key in schema and violated(value, schema[key]):
                return path, f"{value!r} is {relation} {schema[key]!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        if len(value) > schema.get("maxItems", math.inf):
            return path, f"{value!r} has more than {schema['maxItems']} items"
        if "items" in schema:
            children = [(i, item, schema["items"]) for i, item in enumerate(value)]
    elif isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        properties = schema.get("properties", {})
        extra = [key for key in value if key not in properties]
        if extra and schema.get("additionalProperties", True) is False:
            return path, f"additional properties are not allowed ({', '.join(map(repr, extra))})"
        children = [(key, value[key], sub) for key, sub in properties.items() if key in value]
    for key, item, sub in children:
        problem = _schema_violation(item, sub, path + (key,))
        if problem is not None:
            return problem
    return None


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
    if "privacy" in cfg:
        privacy_pairs(cfg)
        t_range = cfg["privacy"].get("T_range")
        if t_range and t_range[1] < t_range[0]:
            raise ConfigError(
                f"config invalid at privacy/T_range: {t_range!r} stops before it starts")


def load_config(path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
        return check_config(cfg)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:  # from json's parser or from the checks' walk, both recursive
        raise ConfigError(f"{path} is nested too deeply to read as a config") from None


def check_config(cfg: dict) -> dict:
    """The gate every document meets, from a file or with flags merged in: finite, then valid."""
    found = _first_non_finite(cfg)
    if found is not None:
        location = "/".join(map(str, found[0])) or "document root"
        raise ConfigError(f"config invalid at {location}: {found[1]} is not a finite number")
    return validate_config(cfg)


def build_game_from_config(cfg: dict) -> GameInstance:
    network = build_network(cfg["network"])
    costs = [entry["affine"] for entry in cfg["edge_costs"]]
    masses = np.array([pop["theta"] for pop in cfg["populations"]], dtype=float)
    return build_game(network, costs, masses, mass_bound=cfg.get("mass_bound"))


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
    c, s = (np.atleast_1d(np.asarray(privacy[key], float)) for key in ("c_adj", "sigma"))
    if c.size > 1 and s.size > 1 and c.size != s.size:
        raise ConfigError("privacy c_adj and sigma lists have mismatched lengths "
                          f"({c.size} vs {s.size})")
    return list(zip(*(a.tolist() for a in np.broadcast_arrays(c, s))))
