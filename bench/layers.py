"""Per-layer metrics from the spans of a traced run and from
`python -X importtime`.

`_s` metrics are inclusive seconds (a span nested in a span of the same
name is not counted twice), `_self_s` metrics are inclusive seconds minus
the time of the direct child spans, and counts are exact.
"""

from __future__ import annotations

from collections import defaultdict

# metric -> (unit, source, span name); source is one of
#   incl / self  seconds of the span name,  calls / items  span counts,
#   extra        filled in by the caller (import, io bytes, trace overhead)
PER_LAYER = {
    "import.total_s": ("s", "extra", None),
    "import.scipy_s": ("s", "extra", None),
    "config.load_s": ("s", "incl", "config.load"),
    "kinetic.sample_initial_s": ("s", "incl", "kinetic.sample_initial"),
    "kinetic.moments_s": ("s", "incl", "kinetic.moments"),
    "kinetic.moments_self_s": ("s", "self", "kinetic.moments"),
    "kinetic.moment_points": ("count", "items", "kinetic.moments"),
    "kinetic.advance_s": ("s", "incl", "kinetic.advance"),
    "kinetic.advance_calls": ("count", "calls", "kinetic.advance"),
    "spatial.build_s": ("s", "incl", "spatial.build"),
    "spatial.builds": ("count", "calls", "spatial.build"),
    "spatial.query_s": ("s", "incl", "spatial.query"),
    "spatial.queries": ("count", "calls", "spatial.query"),
    "spatial.neighbours": ("count", "items", "spatial.query"),
    "agents.rhs_s": ("s", "incl", "agents.rhs"),
    "agents.rhs_self_s": ("s", "self", "agents.rhs"),
    "agents.rhs_calls": ("count", "calls", "agents.rhs"),
    "agents.integrate_s": ("s", "incl", "agents.integrate"),
    "fixed_point.solve_s": ("s", "incl", "fixed_point.solve"),
    "fixed_point.iterations": ("count", "items", "fixed_point.solve"),
    "fixed_point.apply_F_s": ("s", "incl", "fixed_point.apply_F"),
    "fixed_point.apply_F_self_s": ("s", "self", "fixed_point.apply_F"),
    "fixed_point.evaluate_s": ("s", "incl", "fixed_point.evaluate"),
    "fixed_point.evaluate_calls": ("count", "calls", "fixed_point.evaluate"),
    "fixed_point.lipschitz_s": ("s", "incl", "fixed_point.lipschitz"),
    "oracle.step_s": ("s", "incl", "oracle.step"),
    "oracle.cell_steps": ("count", "items", "oracle.step"),
    "oracle.lp_norm_s": ("s", "incl", "oracle.lp_norm"),
    "diagnostics.checks_s": ("s", "incl", "diagnostics.checks"),
    "diagnostics.flocking_s": ("s", "incl", "diagnostics.flocking"),
    "io.snapshots_s": ("s", "incl", "io.snapshots"),
    "io.report_s": ("s", "incl", "io.report"),
    "io.bytes": ("bytes", "extra", None),
    "phase.copy_s": ("s", "incl", "phase.copy"),
    "phase.copies": ("count", "calls", "phase.copy"),
    "runner.self_s": ("s", "self", "runner.mode"),
    "trace.overhead_s": ("s", "extra", None),
}


def span_metrics(spans):
    """Per-layer metrics from spans [name, start, end, parent, items];
    the `extra` metrics are left out."""
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, n) in enumerate(spans):
        calls[name] += 1
        items[name] += n
        own[name] += (end - start) - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    table = {"incl": incl, "self": own, "calls": calls, "items": items}
    return {metric: table[source][span]
            for metric, (unit, source, span) in PER_LAYER.items() if source != "extra"}


def import_times(stderr_text, marker):
    """(total, scipy) seconds of the imports that follow `marker` in the
    stderr of `python -X importtime`.

    total sums the self time of every module imported after the marker;
    scipy sums the cumulative time of the outermost scipy modules.
    """
    total = 0.0
    stack = []  # (depth, (name, cumulative, children)); children print first
    for line in stderr_text.split(marker, 1)[1].splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        self_us, cum_us, label = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        name = label.lstrip()
        depth = (len(label) - len(name) - 1) // 2
        total += int(self_us) * 1e-6
        node = (name, int(cum_us) * 1e-6, [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))

    def outermost_scipy(node):
        name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(outermost_scipy(c) for c in children)

    return total, sum(outermost_scipy(node) for _, node in stack)
