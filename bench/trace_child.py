"""Run `kinflock` in this interpreter with the public functions of each
module wrapped in timing spans.

    PYTHONPATH=src python3 bench/trace_child.py SPANS_JSON run --config C --out O ...

Everything after SPANS_JSON is passed to `kinflock.cli.main`.  Each span
is [name, start, end, parent, items]: `parent` is the index of the
enclosing span (-1 at top level) and `items` an exact count taken from the
result (neighbours returned, points evaluated, ...).  Spans are kept in
memory and written to SPANS_JSON when the run ends; the process exits with
the CLI's exit code.

A function is patched at every place it is bound: in its module, in every
kinflock module that imported it by name, in module-level dicts (the
runner's mode table), and on its class for methods.  A target that no
longer exists is skipped, so its layer reports zero calls.
"""

import functools
import json
import sys
import time

import kinflock.cli as cli  # imports every kinflock module

# (span name, module, attribute or "Class.method", items taken from the result)
TARGETS = [
    ("config.load", "kinflock.config", "load_config", None),
    ("kinetic.sample_initial", "kinflock.kinetic", "sample_initial", None),
    ("kinetic.moments", "kinflock.kinetic", "moments_at_points", lambda r: len(r[0])),
    ("kinetic.advance", "kinflock.kinetic", "advance_characteristics", None),
    ("spatial.build", "kinflock.spatial", "SpatialIndex.__init__", None),
    ("spatial.query", "kinflock.spatial", "SpatialIndex.query_radius", len),
    ("agents.rhs", "kinflock.agents", "cutoff_cs_rhs", None),
    ("agents.rhs", "kinflock.agents", "cs_rhs", None),
    ("agents.rhs", "kinflock.agents", "mt_rhs", None),
    ("agents.integrate", "kinflock.agents", "integrate_agents", None),
    ("fixed_point.solve", "kinflock.fixed_point", "picard_solve", lambda r: r.iterations),
    ("fixed_point.apply_F", "kinflock.fixed_point", "apply_F", None),
    ("fixed_point.evaluate", "kinflock.fixed_point", "FieldGrid.evaluate", None),
    ("fixed_point.lipschitz", "kinflock.fixed_point", "lipschitz_modulus", None),
    ("oracle.step", "kinflock.oracle", "semi_lagrangian_step", lambda r: r.values.size),
    ("oracle.lp_norm", "kinflock.oracle", "oracle_lp_norm", None),
    ("diagnostics.flocking", "kinflock.diagnostics", "flocking_metrics", None),
    ("io.report", "kinflock.io", "write_report", None),
    ("phase.copy", "kinflock.phase", "Ensemble.copy", None),
    ("phase.copy", "kinflock.phase", "AgentState.copy", None),
    ("phase.copy", "kinflock.phase", "HeadingState.copy", None),
    ("runner.mode", "kinflock.runner", "run_kinetic", None),
    ("runner.mode", "kinflock.runner", "run_agents", None),
    ("runner.mode", "kinflock.runner", "run_oracle_mode", None),
    ("runner.mode", "kinflock.runner", "run_picard", None),
] + [
    ("diagnostics.checks", "kinflock.diagnostics", fn, None)
    for fn in ("check_mass", "check_support", "check_density_growth", "check_volume_law",
               "check_oracle_sup", "check_lp_law", "check_particle_lp_inequality",
               "check_pushforward")
] + [
    ("io.snapshots", "kinflock.io", fn, None)
    for fn in ("write_particle_snapshots", "write_agent_snapshots",
               "write_heading_snapshots", "write_grid_snapshots", "write_field_csv")
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, items):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if items is not None:
                span[4] = int(items(result))
            return result

        return traced

    def install(self):
        kin_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == "kinflock" or n.startswith("kinflock."))]
        for name, module, attr, items in TARGETS:
            mod = sys.modules.get(module)
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                fn = vars(cls).get(member) if cls is not None else None
                if fn is not None:
                    setattr(cls, member, self.wrap(name, fn, items))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            traced = self.wrap(name, fn, items)
            for m in kin_modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is fn:
                                value[k] = traced


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
