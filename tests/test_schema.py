"""The in-package schema validator against jsonschema, the reference
implementation of the standard.  jsonschema is a test dependency only."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinflock
from kinflock.config import _schema, check_schema, validate_config
from kinflock.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = _schema()
REFERENCE = jsonschema.Draft7Validator(SCHEMA)
SCENARIOS = ("two_particle_symmetric.json", "kinetic_two_bump.json", "oracle_l2.json",
             "picard_small.json", "agents_cluster.json")


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _shipped_configs():
    for name in SCENARIOS:
        text = resources.files("kinflock.scenarios").joinpath(name).read_text()
        yield name, json.loads(text)
    for name, make in _bench_workloads().items():
        yield name, make(1)


def _accepts(validate, data):
    try:
        validate(data)
    except (ConfigError, jsonschema.ValidationError):
        return False
    return True


@pytest.mark.parametrize("name,data", list(_shipped_configs()),
                         ids=[n for n, _ in _shipped_configs()])
def test_shipped_and_bench_configs_validate(name, data):
    REFERENCE.validate(data)
    check_schema(data)
    validate_config(data)


# Values that break a node.  No float here is integral and none is NaN or
# infinite: there the two validators differ on purpose.
JUNK = ["text", None, True, False, 0, 1, -1, 7, 0.5, -2.5, [], {}, [[0.5, 1]], {"kind": 0}]


def _edges(schema):
    """Values on and just past a node's numeric bounds, of the node's type."""
    step = 1 if schema.get("type") == "integer" else 0.5
    out = []
    for key, sign in (("minimum", -1), ("exclusiveMinimum", -1), ("maximum", 1)):
        if key in schema:
            out += [schema[key], schema[key] + sign * step]
    return out


def valid_instances(schema):
    """Values that follow `schema`; optional keys are present or not."""
    kind = schema.get("type")
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if kind == "object":
        required = schema.get("required", ())
        properties = {k: valid_instances(sub) for k, sub in schema["properties"].items()}
        return st.fixed_dictionaries(
            {k: v for k, v in properties.items() if k in required},
            optional={k: v for k, v in properties.items() if k not in required})
    if kind == "array":
        lo = schema.get("minItems", 0)
        return st.lists(valid_instances(schema.get("items", {"type": "number"})),
                        min_size=lo, max_size=schema.get("maxItems", lo + 3))
    if kind == "boolean":
        return st.booleans()
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    hi = schema.get("maximum")
    if kind == "integer":
        return st.integers(min_value=lo, max_value=hi if hi is not None else 10 ** 6)
    return st.one_of(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False,
                  exclude_min="exclusiveMinimum" in schema),
        st.integers(min_value=None if lo is None else int(lo) + 1,
                    max_value=None if hi is None else int(hi)))


def full_instance(schema):
    """A valid value with every optional key present."""
    kind = schema.get("type")
    if "enum" in schema:
        return schema["enum"][-1]
    if kind == "object":
        return {k: full_instance(sub) for k, sub in schema["properties"].items()}
    if kind == "array":
        return [full_instance(schema.get("items", {"type": "number"}))] * max(
            schema.get("minItems", 1), 1)
    if kind == "boolean":
        return True
    lo = schema.get("minimum", schema.get("exclusiveMinimum", 0))
    return lo + 1 if kind == "integer" else lo + 0.5


def _paths(value, schema, path=()):
    """(path, schema) of every node of a value, the root included."""
    yield path, schema
    if isinstance(value, dict):
        for k, item in value.items():
            yield from _paths(item, schema["properties"][k], path + (k,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, schema.get("items", {"type": "number"}), path + (i,))


def _breaks_at(config, path, schema):
    """Every copy of config broken at the node at path: its value replaced,
    a key removed or added, or an element removed or added."""
    for value in JUNK + _edges(schema):
        yield _edit(config, path, lambda old, new=value: new)
    node = _at(config, path)
    if isinstance(node, dict):
        for key in node:
            yield _edit(config, path, lambda old, k=key: {
                kk: v for kk, v in old.items() if kk != k})
        yield _edit(config, path, lambda old: {**old, "typo_key": 1})
    elif isinstance(node, list):
        yield _edit(config, path, lambda old: old[:-1])
        yield _edit(config, path, lambda old: old + (old[:1] or [1.5]))


def _at(value, path):
    for k in path:
        value = value[k]
    return value


def _edit(config, path, change):
    """A deep copy of config with the node at path replaced by change(node)."""
    out = copy.deepcopy(config)
    if not path:
        return change(out)
    parent = _at(out, path[:-1])
    parent[path[-1]] = change(parent[path[-1]])
    return out


def test_validator_agrees_with_jsonschema_on_every_single_break():
    config = full_instance(SCHEMA)
    REFERENCE.validate(config)
    broken = [b for path, schema in _paths(config, SCHEMA)
              for b in _breaks_at(config, path, schema)]
    verdicts = [(_accepts(check_schema, b), _accepts(REFERENCE.validate, b)) for b in broken]
    assert [b for b, (ours, ref) in zip(broken, verdicts) if ours != ref] == []
    assert 0 < sum(ours for ours, _ in verdicts) < len(broken)


@st.composite
def configs(draw):
    """A valid config, or one broken at one node."""
    config = draw(valid_instances(SCHEMA))
    if draw(st.booleans()):
        return config
    path, schema = draw(st.sampled_from(list(_paths(config, SCHEMA))))
    return draw(st.sampled_from(list(_breaks_at(config, path, schema))))


@settings(max_examples=200, deadline=None)
@given(configs())
def test_validator_agrees_with_jsonschema(data):
    assert _accepts(check_schema, data) == _accepts(REFERENCE.validate, data)


def _initial(**extra):
    return {"initial": {"kind": "two_bump", "x_bounds": [[0.0, 1.0]],
                        "v_bounds": [[0.0, 1.0]], **extra}}


@pytest.mark.parametrize("data,key", [
    ({"dim": 1.0}, "dim"),
    (_initial(sampling={"kind": "tensor_grid", "n_x": 4.0}), "initial/sampling/n_x"),
    (_initial(x_centers=[[float("-inf")]]), "initial/x_centers/0/0"),
])
def test_integers_are_ints_and_numbers_are_finite(data, key):
    """The two rules stricter than the standard: jsonschema accepts all of these."""
    schema = {**SCHEMA, "required": []}
    jsonschema.validate(data, schema)
    with pytest.raises(ConfigError, match=f"config key {key}: "):
        check_schema(data, schema)


def _fresh_interpreter(code, **env):
    """Standard output of `python -c code` with kinflock on the path and
    OPENBLAS_NUM_THREADS unset unless given in env."""
    src = str(Path(kinflock.__file__).resolve().parents[1])
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code],
                          env={**environ, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, check=True).stdout.strip()


def test_importing_the_cli_loads_neither_scipy_nor_jsonschema():
    # jsonschema is a test-only dependency, and no run needs scipy
    code = ("import sys, kinflock.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in {'scipy', 'jsonschema', 'referencing', 'rpds', 'attrs'}))")
    assert _fresh_interpreter(code) == "[]"
    # the package loads no numpy, so kinflock.cli, imported after it, runs
    # before numpy loads
    code = "import sys, kinflock; print('numpy' in sys.modules, kinflock.Ensemble.__module__)"
    assert _fresh_interpreter(code) == "False kinflock.phase"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["unset", "two"])
def test_the_cli_runs_one_blas_thread_unless_told_otherwise(env, threads):
    # numpy is loaded (kinflock.config imports it), and OpenBLAS starts one
    # worker thread per BLAS thread after the first, at most one per CPU
    code = "import os, sys, kinflock.cli; print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))"
    threads = min(threads, len(os.sched_getaffinity(0)))
    assert _fresh_interpreter(code, **env) == f"True {threads}"
