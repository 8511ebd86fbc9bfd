"""Reference figures quoted in bench/README.md (single runs, not metrics).

    python3 bench/reference.py scenarios   # wall s of `kinflock run` per shipped scenario
    python3 bench/reference.py threads     # kinetic_dense_1d at --threads 1 and 2
    python3 bench/reference.py profile     # cProfile shares of the two hot spots
    python3 bench/reference.py imports     # -X importtime of kinflock.runner and scipy

Run from the repository root.  Outputs go to bench/.work and are removed.
"""

from __future__ import annotations

import json
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import import_times
from workloads import WORKLOADS

ROOT = Path.cwd()
SCENARIOS = ROOT / "src" / "kinflock" / "scenarios"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _kinflock(work, config, *extra, prefix=()):
    argv = [sys.executable, *prefix, "-m", "kinflock.cli", "run", "--config", str(config),
            "--out", str(work / "out"), *extra]
    start = time.perf_counter()
    subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def scenarios(work):
    for path in sorted(SCENARIOS.glob("*.json")):
        print(f"{path.stem:24s} {_kinflock(work, path):.2f} s")


def threads(work):
    config = work / "kinetic_dense_1d.json"
    config.write_text(json.dumps(WORKLOADS["kinetic_dense_1d"](1)))
    for k in (1, 2):
        print(f"kinetic_dense_1d --threads {k}: {_kinflock(work, config, '--threads', str(k)):.2f} s")


def _variant(work, scenario, edit):
    cfg = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    edit(cfg)
    path = work / f"{scenario}_variant.json"
    path.write_text(json.dumps(cfg))
    return path


def _two_bump_4096(cfg):
    # kinetic_two_bump on a 64 x 64 lattice (4096 particles), 20 steps
    cfg["t_final"] = 0.2
    cfg["initial"]["sampling"].update(n_x=64, n_v=64)


def _oracle_512(cfg):
    cfg["oracle"].update(n_x=512, n_v=512)


def profile(work):
    runs = [("kinetic_two_bump", _two_bump_4096, ["moments_at_points", "query_radius"]),
            ("oracle_l2", _oracle_512, ["write_grid_snapshots", "semi_lagrangian_step"])]
    for scenario, edit, functions in runs:
        prof = work / f"{scenario}.prof"
        _kinflock(work, _variant(work, scenario, edit), prefix=("-m", "cProfile", "-o", str(prof)))
        stats = pstats.Stats(str(prof)).stats
        total = max(s[3] for s in stats.values())
        parts = ", ".join(
            f"{fn} {sum(s[3] for (_, _, f), s in stats.items() if f == fn):.1f} s"
            for fn in functions)
        print(f"{edit.__name__[1:]}: {total:.1f} s under cProfile; {parts}")


def imports(work):
    marker = "@@import@@"
    res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          f"import sys; sys.stderr.write({marker!r} + '\\n'); import kinflock.runner"],
                         env=ENV, capture_output=True, text=True, check=True)
    total, scipy = import_times(res.stderr, marker)
    print(f"import kinflock.runner: {total:.2f} s, of which scipy {scipy:.2f} s")


def main():
    command = {"scenarios": scenarios, "threads": threads, "profile": profile,
               "imports": imports}[sys.argv[1]]
    scratch = ROOT / "bench" / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        command(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    main()
