from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

from privroute.config import EXPERIMENT_SCHEMA, ConfigError, _schema_violation, check_config
from privroute.config import validate_config

from conftest import CONFIG_DIR, REPO_ROOT

# jsonschema is the oracle the config validator is compared against.
ORACLE = Draft202012Validator(EXPERIMENT_SCHEMA)
DELETE = object()
NAN, INF = math.nan, math.inf

# (base config, path, new value or DELETE).  One or more mutations per schema
# keyword; every accepted document also passes the consistency checks.
MUTATIONS = [
    # type
    ("two_od", ("network",), []),
    ("two_od", ("network", "edges"), "v0 v2"),
    ("two_od", ("network", "nodes", 0), 7),
    ("two_od", ("output_dir",), "runs"),
    ("two_od", ("output_dir",), 5),
    ("two_od", ("privacy", "paper_variant"), True),
    ("two_od", ("privacy", "paper_variant"), 0),
    ("two_od", ("privacy", "paper_variant"), "false"),
    ("two_od", ("populations", 0), [1.0, 0.0]),
    # integer
    ("two_od", ("simulation", "T"), 20.0),
    ("two_od", ("simulation", "T"), 20.5),
    ("two_od", ("simulation", "T"), True),
    ("two_od", ("simulation", "T"), "20"),
    ("two_od", ("simulation", "T"), NAN),
    ("two_od", ("simulation", "T"), INF),
    ("two_od", ("simulation", "seed"), -0.0),
    ("two_od", ("simulation", "seed"), 2**70),
    ("two_od", ("simulation", "runs"), 3),
    ("two_od", ("simulation", "runs"), False),
    # number
    ("two_od", ("populations", 0, "theta", 1), True),
    ("two_od", ("populations", 0, "theta", 1), NAN),
    ("two_od", ("populations", 0, "theta", 1), None),
    ("two_od", ("mass_bound",), INF),
    ("two_od", ("mass_bound",), NAN),
    ("two_od", ("mass_bound",), -INF),
    ("two_od", ("edge_costs", 0, "affine", 1), 0),
    ("two_od", ("edge_costs", 0, "affine", 1), False),
    # minimum
    ("two_od", ("edge_costs", 0, "affine", 0), -1e-300),
    ("two_od", ("edge_costs", 0, "affine", 0), 0.0),
    ("two_od", ("simulation", "runs"), 0),
    ("two_od", ("simulation", "T"), 0),
    ("two_od", ("simulation", "T"), 1),
    ("two_od", ("privacy", "T_range", 0), 0),
    ("two_od", ("privacy", "T_range"), [1, 0]),
    # maximum: 2**53, past which an integral float is no longer exact
    ("two_od", ("simulation", "T"), 2**53),
    ("two_od", ("simulation", "T"), 2**53 + 1),
    ("two_od", ("simulation", "T"), 2**63 - 1),
    ("two_od", ("simulation", "T"), 2.0**53),
    ("two_od", ("simulation", "T"), 1e300),
    ("two_od", ("simulation", "runs"), 10**23 - 1),
    ("two_od", ("privacy", "T_range"), [1, 2**53, 10]),
    ("two_od", ("privacy", "T_range", 1), 2**63 - 2),
    ("two_od", ("privacy", "T_range"), [10**23 - 1, 10**23 - 1]),
    ("two_od", ("simulation", "seed"), 2**63),
    # exclusiveMinimum
    ("two_od", ("populations", 0, "c_k"), 0),
    ("two_od", ("populations", 0, "c_k"), -0.0),
    ("two_od", ("populations", 0, "c_k"), 1e-300),
    ("two_od", ("privacy", "a"), 0.0),
    ("two_od", ("privacy", "delta_budget"), NAN),
    ("two_od", ("privacy", "delta_budget"), INF),
    ("two_od", ("populations", 1, "alpha_k"), 1e-300),
    ("two_od", ("populations", 1, "alpha_k"), -0.0),
    ("two_od", ("privacy", "sigma"), 0),
    ("pigou", ("privacy", "sigma"), [0.1, -0.0]),
    ("pigou", ("privacy", "sigma"), 1e-300),
    # exclusiveMaximum
    ("two_od", ("populations", 1, "alpha_k"), 1),
    ("two_od", ("populations", 1, "alpha_k"), 0.9999),
    ("two_od", ("populations", 1, "alpha_k"), 0),
    ("two_od", ("populations", 1, "alpha_k"), NAN),
    # enum
    ("two_od", ("populations", 0, "geometry"), "euclidean"),
    ("two_od", ("populations", 0, "geometry"), "Entropic"),
    ("two_od", ("populations", 0, "geometry"), None),
    ("two_od", ("privacy", "delta_split"), "geometric"),
    ("two_od", ("privacy", "delta_split"), ["uniform"]),
    # oneOf: a number, or a nonempty list of numbers; never both
    ("two_od", ("simulation", "sigma"), 0.2),
    ("two_od", ("simulation", "sigma"), [0.2]),
    ("two_od", ("simulation", "sigma"), []),
    ("two_od", ("simulation", "sigma"), -0.1),
    ("two_od", ("simulation", "sigma"), "0.1"),
    ("two_od", ("simulation", "sigma"), True),
    ("two_od", ("simulation", "sigma"), [0.1, True]),
    ("two_od", ("simulation", "sigma"), [NAN]),
    ("two_od", ("simulation", "sigma"), 1e200),
    ("pigou", ("privacy", "c_adj"), [1e-3, 1e-4]),
    ("pigou", ("privacy", "c_adj"), {"value": 1e-3}),
    ("pigou", ("privacy", "sigma"), -INF),
    ("two_od", ("simulation", "sigma"), [0.0, -0.0]),
    ("pigou", ("privacy", "c_adj"), [0.0, -0.0]),
    # required
    ("two_od", ("network",), DELETE),
    ("two_od", ("network", "od_pairs"), DELETE),
    ("two_od", ("edge_costs", 0, "affine"), DELETE),
    ("two_od", ("populations", 0, "theta"), DELETE),
    ("two_od", ("simulation", "seed"), DELETE),
    ("two_od", ("privacy", "c_adj"), DELETE),
    ("two_od", ("simulation", "runs"), DELETE),
    ("pigou", ("privacy", "T_range"), DELETE),
    # additionalProperties
    ("two_od", ("extra_knob",), 1),
    ("two_od", ("network", "directed"), True),
    ("two_od", ("edge_costs", 0, "bpr"), [1, 2]),
    ("two_od", ("populations", 0, "name"), "commuters"),
    ("two_od", ("simulation", "sigmas"), [0.1]),
    ("pigou", ("privacy", "epsilon"), 1.0),
    ("pigou", ("privacy", "line\nbreak"), 1.0),
    # settings that were removed
    ("two_od", ("max_paths_per_od",), 3),
    ("two_od", ("max_paths_per_od",), 0),
    ("two_od", ("max_paths_per_od",), False),
    ("two_od", ("simulation", "slope_window"), [1, 0]),
    ("two_od", ("simulation", "slope_window"), [10, 100]),
    ("two_od", ("simulation", "slope_window"), [10, 100, 150]),
    # items
    ("two_od", ("network", "nodes"), ["v0", "v1", "v2", "v3", "v4", "v5", 6]),
    ("two_od", ("network", "od_pairs", 1), ["v1", None]),
    ("two_od", ("edge_costs", 3), {"affine": [0.15, "0.05"]}),
    ("two_od", ("populations", 1), "second"),
    # minItems / maxItems
    ("two_od", ("network", "edges", 0), ["v0"]),
    ("two_od", ("network", "edges", 0), ["v0", "v2", "v3"]),
    ("two_od", ("network", "od_pairs"), []),
    ("two_od", ("network", "nodes"), []),
    ("two_od", ("populations",), []),
    ("two_od", ("edge_costs", 0, "affine"), [0.25]),
    ("two_od", ("edge_costs", 0, "affine"), [0.25, 0.0, 1.0]),
    ("two_od", ("privacy", "T_range"), [1]),
    ("two_od", ("privacy", "T_range"), [1, 10]),
    ("two_od", ("privacy", "T_range"), [1, 10, 2, 3]),
    ("two_od", ("network", "od_pairs", 0), ["v0", "v2", "v3"]),
]


def mutated(base: str, path: tuple, value):
    doc = json.loads((CONFIG_DIR / f"{base}.json").read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return doc


def test_corpus_covers_accepts_and_rejects():
    verdicts = [ORACLE.is_valid(mutated(*case)) for case in MUTATIONS]
    assert 20 <= sum(verdicts) <= len(verdicts) - 40


def case_id(case) -> str:
    base, path, value = case
    return f"{base}{list(path)}={'DELETE' if value is DELETE else repr(value)}"


@pytest.mark.parametrize("case", MUTATIONS, ids=case_id)
def test_validator_agrees_with_jsonschema(case):
    base, path, _ = case
    doc = mutated(*case)
    if ORACLE.is_valid(doc):
        assert validate_config(doc) is doc
        return
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("config invalid at ")
    location = message.removeprefix("config invalid at ").split(": ", 1)[0]
    # The violation lies at the mutated entry, inside it or at an object holding it.
    at = [] if location == "document root" else location.split("/")
    target = [str(key) for key in path]
    assert at[: len(target)] == target[: len(at)]


def test_check_config_refuses_the_non_finite_values_the_schema_accepts():
    # validate_config keeps JSON Schema's semantics; check_config, the gate a
    # loaded file and a document with flags merged in both meet, scans first.
    doc = mutated("two_od", ("populations", 0, "theta", 1), NAN)
    assert ORACLE.is_valid(doc) and validate_config(doc) is doc
    message = "config invalid at populations/0/theta/1: nan is not a finite number"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        check_config(doc)
    clean = mutated("two_od", ("simulation", "T"), 20)
    assert check_config(clean) is clean


@pytest.mark.parametrize("t_range", [[5, 2], [5.0, 4.0, 1], [7, 6, 3]])
def test_reversed_t_range_fails_the_consistency_check(t_range):
    # The schema bounds each entry and the length; stop >= start is the one rule it cannot state.
    doc = mutated("two_od", ("privacy", "T_range"), t_range)
    assert ORACLE.is_valid(doc)
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert str(info.value) == f"config invalid at privacy/T_range: {t_range!r} stops before it starts"
    single = mutated("two_od", ("privacy", "T_range"), [5, 5])
    assert validate_config(single) is single


@pytest.mark.parametrize(
    "path, value",
    [
        (("simulation", "T"), 2**63 - 1),
        (("simulation", "T"), 1e300),
        (("simulation", "runs"), 10**23 - 1),
        (("privacy", "T_range", 0), 10**23 - 1),
    ],
)
def test_count_above_the_maximum_says_what_jsonschema_says(path, value):
    doc = mutated("two_od", path, value)
    [error] = ORACLE.iter_errors(doc)
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert str(info.value) == f"config invalid at {'/'.join(map(str, path))}: {error.message}"


@pytest.mark.parametrize("doc", [[], "config", None, 3, True])
def test_validator_rejects_non_object_documents(doc):
    assert not ORACLE.is_valid(doc)
    with pytest.raises(ConfigError, match="^config invalid at document root: "):
        validate_config(doc)


@pytest.mark.parametrize("value", ["0.1", [0.1, "x"]])
def test_one_of_without_a_matching_branch_says_not_valid(value):
    doc = mutated("pigou", ("simulation", "sigma"), value)
    message = f"{value!r} is not valid under any of the given schemas"
    assert [error.message for error in ORACLE.iter_errors(doc)] == [message]
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert str(info.value) == f"config invalid at simulation/sigma: {message}"


# Schemas beyond EXPERIMENT_SCHEMA, for branches that schema cannot reach:
# oneOf branches that overlap, and keywords on a value of another type.
@pytest.mark.parametrize(
    "schema, values",
    [
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [5, 5.0, 5.5, True, "5"]),
        ({"oneOf": [{"minimum": 0}, {"exclusiveMaximum": 10}]}, [5, -1, 12, "text"]),
        ({"minimum": 0, "minItems": 1, "required": ["a"]}, [-1, [], {}, "x", False]),
        ({"type": "number", "exclusiveMaximum": 1}, [1, 0.5, NAN, INF, -INF]),
    ],
)
def test_validator_agrees_with_jsonschema_on_small_schemas(schema, values):
    oracle = Draft202012Validator(schema)
    for value in values:
        assert (_schema_violation(value, schema, ()) is None) == oracle.is_valid(value), value


def subschemas(schema: dict):
    yield schema
    children = list(schema.get("properties", {}).values()) + schema.get("oneOf", [])
    if "items" in schema:
        children.append(schema["items"])
    for child in children:
        yield from subschemas(child)


def test_schema_uses_only_keywords_the_validator_checks():
    # The validator ignores other keywords, so a schema edit must not add one.
    supported = {
        "$schema", "type", "properties", "required", "additionalProperties", "items",
        "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
        "enum", "oneOf",
    }
    types = {"object", "array", "string", "boolean", "number", "integer"}
    for schema in subschemas(EXPERIMENT_SCHEMA):
        assert set(schema) <= supported, schema
        assert schema.get("type", "object") in types
        assert schema.get("additionalProperties", False) is False


def test_importing_the_package_loads_no_module():
    # The package holds only its version; callers import the modules they use.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    probe = "import sys, privroute; print([m for m in sys.modules if m.startswith('privroute.')])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_does_not_import_jsonschema():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    probe = "import sys, privroute.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
