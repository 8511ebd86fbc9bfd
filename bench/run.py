"""kinflock benchmark: runs one workload the way a user does and reports
end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).

    python3 bench/run.py --workload kinetic_dense_1d --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 33 --trace 0

Run from the repository root; kinflock is imported from `src/`, not from an
installed copy.  One operation is one `kinflock run --threads 1` process on
the workload's config; it fails if the process exits non-zero or its
outputs fail the independent checks in `checks.py`.  After one warm-up
round, operations repeat in whole rounds for `--seconds` seconds, and each
metric is the median over the timed rounds.  The last line of standard output is the JSON result
(`--workload all` prints one such line per workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from layers import PER_LAYER, import_times, span_metrics
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
IMPORT_MARKER = "@@kinflock-import@@"

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_EVERY = 3  # --trace 0: a set-up probe in the timed rounds 0, 3, 6, ...


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def _digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _dir_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


class Workload:
    """One workload's config, child processes and operation bookkeeping."""

    def __init__(self, root, work, name, seed):
        self.name = name
        self.seed = seed
        self.work = work
        # bytecode is compiled in every process and no __pycache__ is left in src/
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.cfg = WORKLOADS[name](seed)
        self.cfg_path = work / "config.json"
        self.out = work / "out"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n", encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.verified = set()  # digests of output sets that passed the checks

    def _kinflock_args(self):
        return ["run", "--config", str(self.cfg_path), "--out", str(self.out),
                "--threads", "1", "--seed", str(self.seed)]

    def _spawn(self, argv):
        """Run a child to completion: (exit code, wall s, cpu s, peak RSS MB)."""
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def _output(self, argv, pass_with=None):
        """One kinflock process and the verdict on its outputs.

        The outputs pass if they are byte-identical to `pass_with` (a digest)
        or to a set that already passed the checks, or if they pass the checks
        now.  Returns (passed, digest, (wall, cpu, rss), io bytes)."""
        out = self.out
        shutil.rmtree(out, ignore_errors=True)
        code, wall, cpu, rss = self._spawn(argv)
        self.attempted += 1
        digest, nbytes, problems = None, 0, []
        if code != 0:
            problems.append(f"exit code {code}: "
                            + (self.work / "stderr.txt").read_text(errors="replace")[-500:])
        else:
            digest, nbytes = _digest(out), _dir_bytes(out)
            if pass_with is not None:
                if digest != pass_with:
                    problems.append("traced outputs differ from the untraced run's")
            elif digest not in self.verified:
                try:
                    problems = checks.run_checks(self.cfg, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
                if not problems:
                    if not self.verified:
                        checks.self_test(self.cfg, out)
                    self.verified.add(digest)
        shutil.rmtree(out, ignore_errors=True)
        for p in problems:
            print(f"[{self.name}] failed operation: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems, digest, (wall, cpu, rss), nbytes

    def operation(self):
        return self._output([sys.executable, "-m", "kinflock.cli"] + self._kinflock_args())

    def traced_operation(self, untraced_digest):
        spans_path = self.work / "spans.json"
        ok, _, (wall, _, _), _ = self._output(
            [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans_path)]
            + self._kinflock_args(), pass_with=untraced_digest)
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        spans_path.unlink(missing_ok=True)
        return ok, wall, spans

    def _probe(self, argv):
        res = subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise BenchmarkError(f"{argv[1:3]} exited {res.returncode}: {res.stderr[-500:]}")
        return res

    def setup_time(self):
        res = self._probe([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                           str(self.cfg_path), str(self.seed)])
        return float(res.stdout.split()[-1])

    def import_times(self):
        res = self._probe([sys.executable, "-X", "importtime", "-c",
                           f"import sys; sys.stderr.write({IMPORT_MARKER!r} + '\\n'); "
                           "import kinflock.cli"])
        return import_times(res.stderr, IMPORT_MARKER)


def _median(values):
    return statistics.median(values) if values else 0.0


def _next_round_fits(since, n_rounds, deadline):
    """True if one more round at the mean pace of the `n_rounds` rounds run
    since `since` would end by `deadline`."""
    now = time.perf_counter()
    return now + (now - since) / n_rounds <= deadline


def measure(w, seconds, trace):
    """Whole rounds for `seconds` seconds; each metric is a median over the
    timed rounds.

    With --trace 0 a round is one operation, and every SETUP_EVERY-th timed
    round adds a set-up probe; with --trace 1 it is one operation and one
    traced operation, plus an import probe.  Round 0 warms up: its
    operations are checked and counted like the others but not timed.  A
    round starts only if it would end before the deadline at the mean pace
    of the timed rounds so far, so a run does not overshoot; there is
    always one timed round."""
    deadline = time.perf_counter() + seconds
    warm = w.operation()
    if trace:
        w.traced_operation(warm[1] if warm[0] else "")
    rounds, setups = [], []
    timed_from = time.perf_counter()
    while not rounds or _next_round_fits(timed_from, len(rounds), deadline):
        if trace:
            total, scipy = w.import_times()
            ok, digest, (wall, _, _), nbytes = w.operation()
            t_ok, t_wall, spans = w.traced_operation(digest if ok else "")
            layer = span_metrics(spans)
            layer.update({"import.total_s": total, "import.scipy_s": scipy,
                          "io.bytes": nbytes})
            rounds.append((ok and t_ok, wall, t_wall, layer))
        else:
            if len(rounds) % SETUP_EVERY == 0:
                setups.append(w.setup_time())
            ok, _, (wall, cpu, rss), _ = w.operation()
            rounds.append((ok, {"run_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}))
    good = [r for r in rounds if r[0]] or rounds
    if trace:
        run_s = _median([r[1] for r in good])
        values = {m: _median([r[3][m] for r in good]) for m in PER_LAYER
                  if m != "trace.overhead_s"}
        values.update({m: int(values[m]) for m, (unit, _, _) in PER_LAYER.items()
                       if unit in ("count", "bytes")})  # exact: equal in every round
        values["trace.overhead_s"] = _median([r[2] for r in good]) - run_s
        units = {m: PER_LAYER[m][0] for m in PER_LAYER}
    else:
        values = {m: _median([r[1][m] for r in good]) for m in END_TO_END if m != "setup_s"}
        values["setup_s"] = _median(setups)
        units = END_TO_END
    return {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def run_workload(root, name, seed, seconds, trace):
    scratch = root / "bench" / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        return measure(Workload(root, work, name, seed), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kinflock" / "cli.py").is_file():
        print("bench: run from the repository root (src/kinflock/cli.py not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except (BenchmarkError, checks.SelfTestError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
