"""Time kinflock's fixed cost before the first step, in a fresh interpreter.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG SEED

Covers `import kinflock.cli`, `config.load_config` and building the
initial state the way `kinflock run` does for the config's mode.  Prints
the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()

import kinflock.cli  # noqa: E402,F401  (the import is what is timed)
from kinflock import config, kinetic, oracle, runner  # noqa: E402


def build_initial_state(cfg):
    rng = cfg.seed_streams()[0]
    mode = cfg["mode"]
    if mode in ("kinetic", "picard"):
        spec = runner.initial_spec_from_config(cfg)
        return kinetic.sample_initial(spec, cfg["lam"], cfg["radius"], rng=rng)
    if mode == "agents":
        return runner.sample_agents(cfg, rng)
    spec = runner.initial_spec_from_config(cfg)
    oc = cfg["oracle"]
    lam = 0.0 if oc["lam_zero_transport"] else cfg["lam"]

    def f0(X, V):
        return spec.density(X.reshape(-1, 1), V.reshape(-1, 1)).reshape(X.shape)

    return oracle.PhaseGrid.from_function(f0, oc["x_min"], oc["x_max"], oc["n_x"],
                                          oc["v_max"], oc["n_v"], lam)


def main():
    cfg = config.load_config(sys.argv[1])
    cfg.data["seed"] = int(sys.argv[2])
    build_initial_state(cfg)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
