"""Scenario configuration: JSON loading, schema validation, defaults.

Unknown keys are rejected by the shipped schema (typos in scientific
parameters should fail loudly).  A single 64-bit scenario seed is split
into independent streams with numpy's SeedSequence in a fixed order:
child 0 drives initial sampling, child 1 agent noise; child 2 is reserved
and unused (the Lipschitz estimate of picard mode samples with a fixed
`default_rng(0)`, independent of the seed).

The schema is checked by `check_schema`, which implements the subset of
JSON Schema that the shipped schema uses, with two rules stricter than
the standard: an `integer` is a Python int (not a bool, not an integral
float such as 10.0) and an enum member matches in type as well as value,
so `"dim": 1.0` is rejected; and every number anywhere in the config must
be finite, so NaN and Infinity are rejected.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError

_DEFAULTS = {
    "delta": 0.0,
    "seed": 0,
    "snapshot_stride": 1,
    "allow_large_dt": False,
    "model": "cutoff_cs",
    "n_agents": 100,
    "integrator": "rk4",
    "kernel": {"kind": "indicator"},
    "vicsek": {"speed": 0.05, "noise": 0.0},
    "initial": {
        "amplitude": 1.0,
        "x_sigma": 0.25,
        "v_sigma": 0.25,
        "sampling": {"kind": "tensor_grid", "n_x": 16, "n_v": 16},
    },
    "oracle": {
        "n_x": 128,
        "n_v": 128,
        "x_min": -3.0,
        "x_max": 3.0,
        "v_max": 2.0,
        "lam_zero_transport": False,
        "field": {"kind": "zero"},
    },
    "picard": {
        "tol": 1e-3,
        "max_iter": 25,
        "damping": 1.0,
        "n_time_nodes": 11,
        "n_space_nodes": 33,
        "cross_check": False,
    },
    "diagnostics": {
        "lp_exponents": [1, 2, 4],
        "mass_tol": 1e-12,
        "support_tol": 1e-9,
        "lp_rel_tol": 0.05,
        "enabled": True,
    },
}


def _schema():
    with resources.files("kinflock.schema").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


_TYPES = {"object": dict, "array": list, "boolean": bool,
          "number": (int, float), "integer": int}


def check_schema(value, schema=None, path=()):
    """Raise ConfigError at the first place where `value` breaks `schema`
    (default: the shipped config schema).

    Keywords: type, enum, minimum, exclusiveMinimum (a number, as in
    draft 7), maximum, required, properties, additionalProperties: false,
    items (one schema for every element), minItems and maxItems.  Any
    other keyword is ignored.  Every element of a list and every value of
    an object is visited, so no NaN or infinity passes unseen.
    """
    if schema is None:
        schema = _schema()

    def fail(message):
        raise ConfigError(f"config key {'/'.join(map(str, path)) or '(root)'}: {message}")

    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{value!r} is not a finite number")
    kind = schema.get("type")
    if kind is not None and (not isinstance(value, _TYPES[kind])
                             or (isinstance(value, bool) and kind != "boolean")):
        fail(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and not any(type(value) is type(e) and value == e
                                    for e in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema.get("minimum", value):
            fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is less than or equal to the minimum of "
                 f"{schema['exclusiveMinimum']!r}")
        if value > schema.get("maximum", value):
            fail(f"{value!r} is greater than the maximum of {schema['maximum']!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        for key, item in value.items():
            if key not in properties and schema.get("additionalProperties", True) is False:
                fail(f"additional properties are not allowed ({key!r} was unexpected)")
            check_schema(item, properties.get(key, {}), path + (key,))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} has more than {schema['maxItems']} items")
        for i, item in enumerate(value):
            check_schema(item, schema.get("items", {}), path + (i,))


def _merge_defaults(defaults, data):
    out = copy.deepcopy(defaults)
    for k, v in data.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge_defaults(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


@dataclass
class ScenarioConfig:
    """Fully validated, defaults-materialized scenario description."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def seed_streams(self):
        """(sampling_rng, noise_rng, reserved_rng), deterministically
        derived from the scenario seed."""
        children = np.random.SeedSequence(self.data["seed"]).spawn(3)
        return tuple(np.random.default_rng(c) for c in children)

    def to_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True)


def validate_config(data: dict) -> ScenarioConfig:
    """Schema-validate, fill defaults, and run the semantic checks."""
    check_schema(data)
    merged = _merge_defaults(_DEFAULTS, data)
    if "initial" not in data:
        merged.pop("initial", None)  # partial defaults alone would not re-validate
    mode = merged["mode"]
    if mode == "picard" and merged["delta"] <= 0:
        raise ConfigError("picard mode requires delta > 0 (the regularization "
                          "appears in the field denominator)")
    if merged["lam"] * merged["dt"] > 1.0 + 1e-12 and not merged["allow_large_dt"]:
        raise ConfigError(
            "lam*dt must be <= 1 to preserve the discrete velocity max "
            "principle; set allow_large_dt to override (support checks then "
            "downgrade to warnings)")
    t_final, dt = merged["t_final"], merged["dt"]
    if abs(round(t_final / dt) * dt - t_final) > 1e-9 * t_final:
        raise ConfigError(f"t_final={t_final!r} is not a whole number of "
                          f"steps of dt={dt!r}")
    if mode in ("kinetic", "picard") and "initial" not in data:
        raise ConfigError(f"{mode} mode requires an initial distribution spec")
    if mode == "agents" and merged["model"] != "vicsek" and "initial" not in data:
        raise ConfigError("agents mode requires an initial distribution spec")
    if mode == "agents" and merged["model"] == "vicsek" and merged["dim"] != 2:
        raise ConfigError("vicsek model requires dim = 2")
    if mode == "agents" and merged["model"] == "vicsek" and dt != 1:
        raise ConfigError(f"config key dt: {dt!r} must be 1 for the vicsek model, "
                          "whose agents move by `speed` once per step")
    if mode == "oracle" and merged["dim"] != 1:
        raise ConfigError("oracle mode is 1D only")
    x_min, x_max = merged["oracle"]["x_min"], merged["oracle"]["x_max"]
    if mode == "oracle" and not x_min < x_max:
        raise ConfigError(f"config key oracle/x_max: {x_max!r} must be greater "
                          f"than x_min = {x_min!r}")
    ib = merged.get("initial")
    if ib is not None and "x_bounds" in ib:
        if len(ib["x_bounds"]) != merged["dim"] or len(ib["v_bounds"]) != merged["dim"]:
            raise ConfigError("initial bounds must have one [lo, hi] pair per dimension")
        for key in ("x_bounds", "v_bounds"):
            for i, (lo, hi) in enumerate(ib[key]):
                if lo > hi:
                    raise ConfigError(f"config key initial/{key}/{i}: lo > hi in {[lo, hi]!r}")
        _check_centres(ib, merged["dim"])
    exps = merged["diagnostics"]["lp_exponents"]
    repeated = [p for i, p in enumerate(exps) if p in exps[:i]]
    if repeated:  # 2 and 2.0 are one exponent: one check and one record column
        raise ConfigError(f"config key diagnostics/lp_exponents: {exps!r} lists the "
                          f"exponent {repeated[0]!r} more than once")
    return ScenarioConfig(merged)


def _check_centres(ib, dim):
    """two_bump takes x_centers and v_centers together, with equal numbers
    of centres, at least one; product_gaussian_truncated takes one centre
    per key, bare or in a list.  A centre is a list of `dim` numbers."""
    def point(c):
        return (isinstance(c, list) and len(c) == dim
                and all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in c))

    kind = ib["kind"]
    if kind == "box_indicator":  # it has no centres to read
        return
    given = [key for key in ("x_centers", "v_centers") if key in ib]
    for key in given:
        c = ib[key]
        if kind == "two_bump" and not (c and all(map(point, c))):
            raise ConfigError(f"config key initial/{key}: two_bump needs one or more "
                              f"centres in {dim}D, got {c!r}")
        if kind != "two_bump" and not (point(c) or len(c) == 1 and point(c[0])):
            raise ConfigError(f"config key initial/{key}: {kind} needs one centre "
                              f"in {dim}D, got {c!r}")
    if kind == "two_bump" and len(given) == 1:
        missing = {"x_centers", "v_centers"}.difference(given).pop()
        raise ConfigError(f"config key initial/{missing}: two_bump needs x_centers "
                          "and v_centers together")
    if kind == "two_bump" and given and len(ib["x_centers"]) != len(ib["v_centers"]):
        raise ConfigError(f"config key initial/v_centers: {len(ib['v_centers'])} "
                          f"centres, but x_centers has {len(ib['x_centers'])}")


def load_config(path, seed=None) -> ScenarioConfig:
    """Read and validate a config file; `seed`, if given, replaces the
    file's seed before validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if seed is not None:
        data["seed"] = seed
    return validate_config(data)
