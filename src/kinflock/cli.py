"""Command line interface.

Subcommands:
  run           execute a scenario config; exit 0 iff all assertions pass
  validate      check a config file against the schema and semantic rules,
                and its initial state as `run` does before its first step:
                the horizon rule, or that its agents or particles can be drawn
  diff-reports  compare two diagnostics.json files

Exit codes: 0 pass, 1 assertion failure, 2 configuration error,
3 runtime/invariant abort, output error (e.g. `--out` cannot be written)
or any other error during the run, such as running out of memory; `run`
reports every failure in one line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

# Every sum in kinflock is exact and order-free, so BLAS threads buy a run
# nothing but an idle worker thread.  OpenBLAS reads its thread count when
# numpy loads, which is why this precedes the imports below; a value already
# in the environment wins, and a process that loaded numpy first keeps its own.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The objects numpy and kinflock create at import live until exit, yet the
# cyclic collector would walk them in about 30 collections while they load and
# again in the collections of interpreter shutdown.  So it stays off for the
# imports, which then leave their heap frozen (never walked again), and gets
# back the state it had: objects the run creates are collected as before.
_collecting = gc.isenabled()
gc.disable()
try:
    from .config import load_config
    from .errors import ConfigError, KinflockError
    from .runner import drawable_spec, run, sample_ensemble
    gc.freeze()
finally:
    if _collecting:
        gc.enable()


def _cmd_run(args):
    try:
        cfg = load_config(args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KinflockError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # MemoryError, or a defect: still one line and exit 3
        print(f"runtime abort: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = [c for c in report.assertions if not c.passed]
    for c in report.assertions:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} tolerance={c.tolerance:.6g}")
    if failed:
        print(f"{len(failed)} assertion(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    try:
        cfg = load_config(args.config)
        if cfg["mode"] in ("kinetic", "picard"):
            sample_ensemble(cfg)
        elif cfg["mode"] == "agents":
            drawable_spec(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KinflockError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    print("config is valid")
    return 0


def _differs(a, b, tol):
    """Numbers differ when they are more than tol apart, or when exactly
    one of them is NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    return abs(a - b) > tol


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _tree_differences(a, b, path, tol):
    """Differences between two JSON values: dicts by sorted key, lists of
    equal length by index, numbers by `_differs`, anything else by ==."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k in a and k in b:
                out += _tree_differences(a[k], b[k], f"{path}/{k}", tol)
            else:
                out.append(f"{path}/{k} present in only one report")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _tree_differences(x, y, f"{path}/{i}", tol)]
    if _is_number(a) and _is_number(b):
        differs = _differs(a, b, tol)
    else:
        differs = a != b
    return [f"{path}: {a!r} vs {b!r}"] if differs else []


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is not a JSON object")
    records, assertions = doc.get("records", []), doc.get("assertions", [])
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise ValueError(f"{path}: records is not a list of JSON objects")
    if not (isinstance(assertions, list) and all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and _is_number(c.get("value")) and "passed" in c for c in assertions)):
        raise ValueError(f"{path}: assertions is not a list of objects with "
                         "a string name, a number value and passed")
    return doc


def _cmd_diff_reports(args):
    try:
        a, b = _read_report(args.report_a), _read_report(args.report_b)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    differences = []
    ra, rb = a.get("records", []), b.get("records", [])
    if len(ra) != len(rb):
        differences.append(f"record count differs: {len(ra)} vs {len(rb)}")
    else:
        worst = 0.0
        for i, (x, y) in enumerate(zip(ra, rb)):
            for k in sorted(set(x) | set(y)):
                va, vb = x.get(k), y.get(k)
                if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                    if _differs(va, vb, args.tol):
                        differences.append(f"record {i} key {k}: {va!r} vs {vb!r}")
                    worst = max(worst, abs(va - vb))  # max() skips a NaN here
                elif va != vb:
                    differences.append(f"record {i} key {k}: {va!r} vs {vb!r}")
        print(f"max numeric record difference: {worst:.6g}")
    aa = {c["name"]: c for c in a.get("assertions", [])}
    bb = {c["name"]: c for c in b.get("assertions", [])}
    for name in sorted(set(aa) | set(bb)):
        ca, cb = aa.get(name), bb.get(name)
        if ca is None or cb is None:
            differences.append(f"assertion {name} present in only one report")
            continue
        if ca["passed"] != cb["passed"] or _differs(ca["value"], cb["value"], args.tol):
            differences.append(f"assertion {name}: {ca['value']!r}/{ca['passed']} "
                               f"vs {cb['value']!r}/{cb['passed']}")
        differences += _tree_differences(ca.get("tolerance"), cb.get("tolerance"),
                                         f"assertion {name} tolerance", args.tol)
    differences += _tree_differences(a.get("metadata", {}), b.get("metadata", {}),
                                     "metadata", args.tol)
    if differences:
        for d in differences[:50]:
            print(d)
        print(f"{len(differences)} difference(s)", file=sys.stderr)
        return 1
    print("reports agree")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="kinflock",
                                     description="Flocking solvers and invariant checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_diff = sub.add_parser("diff-reports", help="compare two diagnostics reports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.add_argument("--tol", type=float, default=0.0)
    p_diff.set_defaults(func=_cmd_diff_reports)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
