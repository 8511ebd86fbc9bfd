import importlib.util
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from kinflock import cli, diagnostics, oracle, runner
from kinflock.cli import main
from kinflock.config import load_config, validate_config
from kinflock.errors import ConfigError
from kinflock.io import fmt
from kinflock.kinetic import sample_initial
from kinflock.phase import Ensemble


def scenario_path(name):
    return str(resources.files("kinflock.scenarios").joinpath(name))


def minimal_kinetic(**overrides):
    data = {
        "mode": "kinetic",
        "dim": 1,
        "lam": 1.0,
        "radius": 0.5,
        "dt": 0.05,
        "t_final": 0.2,
        "initial": {
            "kind": "box_indicator",
            "x_bounds": [[0.0, 1.0]],
            "v_bounds": [[-0.5, 0.5]],
            "sampling": {"kind": "tensor_grid", "n_x": 8, "n_v": 8},
        },
    }
    data.update(overrides)
    return data


def small_agents(model, kernel):
    return {"mode": "agents", "model": model, "dim": 2, "lam": 1.0, "radius": 0.3,
            "dt": 0.05, "t_final": 0.1, "n_agents": 40, "kernel": kernel,
            "initial": {"kind": "product_gaussian_truncated",
                        "x_bounds": [[-0.5, 0.5], [-0.5, 0.5]],
                        "v_bounds": [[-1.0, 1.0], [-1.0, 1.0]]}}


def oracle_l2(field, **oracle):
    data = json.loads(Path(scenario_path("oracle_l2.json")).read_text())
    data["oracle"].update(oracle, field=field)
    return data


# The agent kernels the schema accepted before the strict cut-off became
# the only interaction; each now exits 2.
REMOVED_KERNELS = [{"kind": "constant"}, {"kind": "inverse_quadratic", "scale": 0.5}]

# The shipped scenario of the Vicsek heading model, which the schema no
# longer accepts: neither its model nor its `vicsek` block.
VICSEK_BASIC = {"mode": "agents", "model": "vicsek", "dim": 2, "lam": 1.0, "radius": 0.3,
                "t_final": 50, "dt": 1.0, "seed": 42, "n_agents": 200, "snapshot_stride": 5,
                "vicsek": {"speed": 0.03, "noise": 0.1}}

# Configs of removed models, interactions and integrators, each with the
# one line it now exits 2 with.
REMOVED_INPUTS = [
    pytest.param(small_agents("mt", kernel), f"kernel/kind: '{kernel['kind']}' is not one "
                 "of ['indicator']", id=kernel["kind"]) for kernel in REMOVED_KERNELS
] + [
    pytest.param(VICSEK_BASIC, "model: 'vicsek' is not one of ['cutoff_cs', 'mt']",
                 id="vicsek-basic"),
    pytest.param(small_agents("cs", {"kind": "indicator"}),
                 "model: 'cs' is not one of ['cutoff_cs', 'mt']", id="cs"),
    pytest.param(dict(small_agents("cutoff_cs", {"kind": "indicator"}),
                      vicsek=VICSEK_BASIC["vicsek"]),
                 "(root): additional properties are not allowed ('vicsek' was unexpected)",
                 id="vicsek-block"),
] + [
    pytest.param(dict(small_agents("cutoff_cs", {"kind": "indicator"}), integrator=name),
                 f"integrator: '{name}' is not one of ['exponential']", id=name)
    for name in ("rk4", "explicit_euler")
]

# The message of an f0 from which no agent can be drawn, and a 2D f0 whose
# every computed value underflows.
ZERO_MASS = "the initial distribution has zero mass, so none of the 100 agents can be drawn"
SIGMA_UNDERFLOWS = ("config key initial/x_sigma: 1e-200 is too small, twice its square "
                    "underflows to 0")
UNDERFLOW = {"amplitude": 1e300, "x_bounds": [[-1.0, 1.0], [-1.0, 1.0]], "x_sigma": 0.25,
             "x_centers": [[8.0, 8.0]]}

# Schema-reachable paths that no shipped scenario runs, with the exit code
# each gives today.  Two oracle runs exit 1: on the default 128 x 128 mesh
# the semi-Lagrangian grid loses more mass than the 1e-3 quadrature floor
# allows (mass_conservation 9.9e-3 under the tanh field at t = 0.5, 7.4e-3
# for the built-in f0 at t = 1), and lp_law_p1 fails with it.
UNSHIPPED_PATHS = [
    pytest.param(small_agents("mt", kernel), "agents.csv", 2 if kernel in REMOVED_KERNELS else 0,
                 id=f"mt-{kernel['kind']}")
    for kernel in [{"kind": "indicator"}, *REMOVED_KERNELS]
] + [
    pytest.param(oracle_l2({"kind": "constant", "value": 0.5}), "grid.csv", 0,
                 id="oracle-constant-field"),
    pytest.param(oracle_l2({"kind": "tanh"}), "grid.csv", 1, id="oracle-tanh-field"),
    pytest.param(oracle_l2({"kind": "zero"}, lam_zero_transport=True), "grid.csv", 0,
                 id="oracle-lam-zero-transport"),
    pytest.param({"mode": "oracle", "dim": 1, "lam": 1.0, "radius": 0.5, "dt": 0.1,
                  "t_final": 1.0}, "grid.csv", 1, id="oracle-without-initial"),
    pytest.param(minimal_kinetic(initial={
        "kind": "two_bump", "x_bounds": [[-2.0, 2.0]], "v_bounds": [[-1.0, 1.0]],
        "sampling": {"kind": "tensor_grid", "n_x": 8, "n_v": 8}}),
        "particles.csv", 0, id="two-bump-default-centres"),
    pytest.param({"mode": "agents", "model": "vicsek", "dim": 2, "lam": 1.0, "radius": 0.3,
                  "dt": 1.0, "t_final": 2.0, "n_agents": 30,
                  "initial": {"kind": "box_indicator", "x_bounds": [[2.0, 3.0], [5.0, 6.0]],
                              "v_bounds": [[0.0, 0.0], [0.0, 0.0]]}},
                 "agents.csv", 2, id="vicsek-initial-bounds"),
]


def round_trip_configs():
    """The shipped scenarios, the benchmark workloads at seed 1, and configs
    that leave values to the defaults: monte_carlo without n, fields
    without parameters, an oracle without f0, Gaussians without centres."""
    configs = {name: json.loads(Path(scenario_path(name + ".json")).read_text())
               for name in ("two_particle_symmetric", "kinetic_two_bump", "oracle_l2",
                            "picard_small", "agents_cluster")}
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs.update({name: dict(make(1), seed=1) for name, make in workloads.WORKLOADS.items()})
    monte_carlo = minimal_kinetic()
    monte_carlo["initial"]["sampling"] = {"kind": "monte_carlo"}
    configs.update({
        "monte-carlo-without-n": monte_carlo,
        "constant-field": oracle_l2({"kind": "constant"}),
        "tanh-field": oracle_l2({"kind": "tanh"}),
        "agents-without-centres": small_agents("cutoff_cs", {"kind": "indicator"}),
        **{param.id: param.values[0] for param in UNSHIPPED_PATHS
           if param.id in ("oracle-without-initial", "two-bump-default-centres")},
    })
    return configs


class TestValidation:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config(minimal_kinetic())
        assert cfg["delta"] == 0.0
        assert cfg["seed"] == 0
        assert cfg["diagnostics"]["enabled"] is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            validate_config(minimal_kinetic(typo_key=1))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(minimal_kinetic(mode="nonsense"))

    def test_semantic_checks(self):
        with pytest.raises(ConfigError, match="lam"):
            validate_config(minimal_kinetic(lam=-1.0))
        with pytest.raises(ConfigError, match="radius"):
            validate_config(minimal_kinetic(radius=0.0))
        with pytest.raises(ConfigError, match="delta"):
            validate_config(minimal_kinetic(delta=-0.1))

    def test_large_dt_needs_override(self):
        with pytest.raises(ConfigError, match="lam\\*dt"):
            validate_config(minimal_kinetic(dt=2.0, t_final=4.0))
        cfg = validate_config(minimal_kinetic(dt=2.0, t_final=4.0, allow_large_dt=True))
        assert cfg["allow_large_dt"]

    def test_picard_requires_positive_delta(self):
        data = minimal_kinetic(mode="picard")
        with pytest.raises(ConfigError, match="delta"):
            validate_config(data)
        data["delta"] = 0.1
        validate_config(data)

    def test_kinetic_requires_initial(self):
        data = minimal_kinetic()
        del data["initial"]
        with pytest.raises(ConfigError, match="initial"):
            validate_config(data)

    def test_oracle_is_1d_only(self):
        data = {"mode": "oracle", "dim": 2, "lam": 1.0, "radius": 0.5,
                "dt": 0.1, "t_final": 0.2}
        with pytest.raises(ConfigError, match="1D"):
            validate_config(data)

    def test_bounds_dimension_mismatch(self):
        data = minimal_kinetic(dim=2)
        with pytest.raises(ConfigError, match="per dimension"):
            validate_config(data)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(bad)
        bad.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(bad)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path)

    def test_shipped_scenarios_validate(self):
        for name in ("two_particle_symmetric.json", "kinetic_two_bump.json",
                     "oracle_l2.json", "picard_small.json",
                     "agents_cluster.json"):
            load_config(scenario_path(name))

    def test_resolved_config_round_trips(self, tmp_path):
        # resolved_config.json holds every value the run used: it validates
        # to itself, byte for byte, and runs to the same files
        for name, data in round_trip_configs().items():
            first, again = tmp_path / name / "first", tmp_path / name / "again"
            runner.run(validate_config(data), first)
            resolved = (first / "resolved_config.json").read_text()
            assert validate_config(json.loads(resolved)).to_json() + "\n" == resolved, name
            runner.run(load_config(first / "resolved_config.json"), again)
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in again.iterdir()), name
            for f in files:
                assert (first / f).read_bytes() == (again / f).read_bytes(), (name, f)

    def test_sampling_and_field_defaults_follow_their_kind(self):
        def resolved(sampling, field):
            data = oracle_l2(field)
            data["initial"]["sampling"] = sampling
            cfg = validate_config(data)
            return cfg["initial"]["sampling"], cfg["oracle"]["field"]

        assert resolved({"kind": "monte_carlo"}, {"kind": "constant"}) == (
            {"kind": "monte_carlo", "n": 1000}, {"kind": "constant", "value": 0.0})
        assert resolved({"kind": "tensor_grid"}, {"kind": "tanh"}) == (
            {"kind": "tensor_grid", "n_x": 16, "n_v": 16},
            {"kind": "tanh", "amplitude": 0.5, "width": 1.0})
        assert resolved({"kind": "monte_carlo", "n": 7}, {"kind": "zero"}) == (
            {"kind": "monte_carlo", "n": 7}, {"kind": "zero"})

    def test_oracle_without_initial_runs_its_product_gaussian(self):
        # the built-in f0 exp(-x**2/0.125 - v**2/0.125), written out in full;
        # its centre stays at 0 on an off-centre box
        data = {"mode": "oracle", "dim": 1, "lam": 1.0, "radius": 0.5, "dt": 0.1,
                "t_final": 0.2, "oracle": {"x_min": -1.0, "x_max": 3.0, "v_max": 2.0}}
        ib = validate_config(data)["initial"]
        assert {k: ib[k] for k in ib if k != "sampling"} == {
            "kind": "product_gaussian_truncated", "amplitude": 1.0,
            "x_bounds": [[-1.0, 3.0]], "v_bounds": [[-2.0, 2.0]],
            "x_centers": [[0.0]], "v_centers": [[0.0]], "x_sigma": 0.25, "v_sigma": 0.25}
        spec = runner.initial_spec_from_config(validate_config(data))
        x, v = np.meshgrid(np.linspace(-1.0, 3.0, 41), np.linspace(-2.0, 2.0, 33),
                           indexing="ij")
        assert np.array_equal(spec.density(x[..., None], v[..., None]),
                              np.exp(-x ** 2 / 0.125 - v ** 2 / 0.125))

    @pytest.mark.parametrize("kind, x_centers, v_centers", [
        ("product_gaussian_truncated", [[0.5, -1.0]], [[0.0, 0.25]]),
        ("two_bump", [[0.0, -1.5], [1.0, -0.5]], [[0.5, 0.75], [-0.5, -0.25]]),
    ])
    def test_gaussian_centres_default_to_the_box_means(self, kind, x_centers, v_centers):
        data = minimal_kinetic(dim=2)
        data["initial"].update(kind=kind, x_bounds=[[0.0, 1.0], [-2.0, 0.0]],
                               v_bounds=[[-0.5, 0.5], [-0.25, 0.75]])
        ib = validate_config(data)["initial"]
        assert (ib["x_centers"], ib["v_centers"]) == (x_centers, v_centers)


class TestSeeding:
    def test_streams_are_deterministic(self):
        a = validate_config(minimal_kinetic(seed=42)).seed_streams()
        b = validate_config(minimal_kinetic(seed=42)).seed_streams()
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.random(5), rb.random(5))

    def test_streams_are_independent_and_seed_sensitive(self):
        s1 = validate_config(minimal_kinetic(seed=1)).seed_streams()[0]
        t1 = validate_config(minimal_kinetic(seed=2)).seed_streams()[0]
        assert not np.array_equal(s1.random(5), t1.random(5))
        # the seed gave three streams, two of them unused; the one left draws
        # as the first of those three did, so every config keeps its draws
        for seed in (0, 1, 12345):
            got = validate_config(minimal_kinetic(seed=seed)).seed_streams()[0].random(5)
            child = np.random.SeedSequence(seed).spawn(3)[0]
            assert np.array_equal(got, np.random.default_rng(child).random(5))


class TestFormatting:
    def test_fmt_round_trips_doubles(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1e6, 1e6, 200):
            assert float(fmt(x)) == x
        for x in (np.pi, np.exp(-1), 1e-300, -0.0, 123456789.123456789):
            assert float(fmt(x)) == x


class TestCli:
    def test_validate_good_and_bad(self, tmp_path, capsys):
        assert main(["validate", "--config", scenario_path("two_particle_symmetric.json")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_kinetic(lam=-1.0)))
        assert main(["validate", "--config", str(bad)]) == 2

    def test_validate_rejects_t_final_off_the_step_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic(t_final=1.0, dt=0.3)))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "whole number of steps" in err
        cfg.write_text(json.dumps(minimal_kinetic(t_final=0.3, dt=0.1)))
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_run_with_unwritable_out_exit_3(self, tmp_path, capsys, monkeypatch):
        # the output path is checked before the mode runs, and nothing is made
        def mode_entered(cfg, out):
            raise AssertionError("the mode ran")

        monkeypatch.setitem(runner._MODES, "kinetic", mode_entered)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic()))
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker / "out", blocker, blocker / "a" / "b"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("output error: ") and err.count("\n") == 1
        assert blocker.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]

    @pytest.mark.parametrize("t_final", [200.0, 700.0, 709.0])
    def test_long_run_lp_norms_stay_finite(self, tmp_path, capsys, t_final):
        # density**p overflows from lam*d*t ~ 709/p on, the L^p norms do not
        data = json.loads(Path(scenario_path("two_particle_symmetric.json")).read_text())
        data.update(dt=1.0, t_final=t_final)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        report = json.loads((out / "diagnostics.json").read_text())
        norms = [v for rec in report["records"] for k, v in rec.items()
                 if k.startswith("lp_norm_p")]
        assert norms and all(math.isfinite(v) for v in norms)

    @pytest.mark.parametrize("scenario, t_final", [
        ("two_particle_symmetric.json", 710.0), ("two_particle_symmetric.json", 800.0),
        ("picard_small.json", 800.0)])
    def test_horizon_past_the_double_range_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, scenario, t_final):
        # e^{lam*d*t} overflows past t = 709.78, so no step may run
        steps = []
        monkeypatch.setattr(Ensemble, "stepped", lambda self, *args: steps.append(args))
        data = json.loads(Path(scenario_path(scenario)).read_text())
        data.update(dt=1.0, t_final=t_final)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        for args in (["run", "--out", str(out)], ["validate"]):
            assert main([*args, "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                f"configuration error: config key t_final: {t_final!r} is past the horizon "
                "of this ensemble: e^(lam*dim*t) would take a density value past the "
                "largest double or a phase volume to 0\n")
        assert steps == [] and not out.exists()

    def test_validate_stops_where_run_stops_before_its_first_step(self, tmp_path, capsys):
        # zero-width x cells would give zero phase volumes: both commands
        # reject the bound as a configuration error with the same line
        data = minimal_kinetic()
        data["initial"]["x_bounds"] = [[0.0, 0.0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        (run_code, run), (validate_code, validate) = [
            (main([*args, "--config", str(cfg)]), capsys.readouterr())
            for args in (["run", "--out", str(out)], ["validate"])]
        assert run_code == validate_code == 2
        assert validate.out == run.out == "" and validate.err == run.err
        assert run.err == ("configuration error: config key initial/x_bounds/0: "
                           "lo must be less than hi, got [0.0, 0.0]\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,extra", [
        ("dim", 1.0, {}),
        ("n_agents", 10.0, {"mode": "agents", "model": "cutoff_cs"}),
        ("seed", 3.0, {}),
        ("t_final", float("inf"), {}),
        ("lam", float("nan"), {}),
    ])
    def test_run_rejects_non_int_integers_and_non_finite_numbers(self, tmp_path, capsys,
                                                                key, value, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic(**extra, **{key: value})))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, change, key", [
        ("two_bump", {"x_centers": None}, "x_centers"),
        ("two_bump", {"v_centers": None}, "v_centers"),
        ("two_bump", {"x_centers": ["a"]}, "x_centers"),
        ("two_bump", {"x_centers": [], "v_centers": []}, "x_centers"),
        ("two_bump", {"v_centers": [[0.4, 0.0], [-0.4, 0.0]]}, "v_centers"),
        ("two_bump", {"v_centers": [[0.4]]}, "v_centers"),
        ("product_gaussian_truncated", {}, "x_centers"),
        ("product_gaussian_truncated", {"x_centers": [0.0, 1.0]}, "x_centers"),
        ("product_gaussian_truncated", {"x_centers": [0.0], "v_centers": [[0.1], [0.2]]},
         "v_centers"),
    ])
    def test_run_rejects_malformed_bump_centres(self, tmp_path, capsys, kind, change, key):
        data = json.loads(Path(scenario_path("kinetic_two_bump.json")).read_text())
        data["initial"]["kind"] = kind
        data["initial"].update(change)
        data["initial"] = {k: v for k, v in data["initial"].items() if v is not None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key initial/{key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario, key", [
        ("picard_small.json", "v_sigma"), ("kinetic_two_bump.json", "x_sigma"),
        ("oracle_l2.json", "v_sigma")])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_sigma_whose_square_overflows_exits_2(self, tmp_path, capsys, scenario, key,
                                                  command):
        # f0 divides by 2*sigma**2, and Python's ** raised OverflowError:
        # `validate` printed a traceback and `run` exited 3, in every mode
        data = json.loads(Path(scenario_path(scenario)).read_text())
        data["initial"][key] = 2.0 ** 512
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(data))
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"configuration error: config key initial/{key}: "
                                f"{2.0 ** 512!r} is too large, its square would pass "
                                "the largest double\n")

    def test_largest_sigma_below_2_to_512_evaluates_f0(self):
        # its square is finite; 2*sigma**2 is inf, so f0 is flat in x
        data = minimal_kinetic()
        data["initial"].update(kind="product_gaussian_truncated",
                               x_sigma=math.nextafter(2.0 ** 512, 0))
        spec = runner.initial_spec_from_config(validate_config(data))
        assert spec.density([[0.0], [1.0]], [[0.0], [0.0]]).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("xc, vc", [([0.1], None), ([[0.1]], [[-0.2]])])
    def test_product_gaussian_takes_one_bare_or_listed_centre(self, xc, vc):
        data = minimal_kinetic()
        data["initial"].update(kind="product_gaussian_truncated", x_centers=xc)
        if vc is not None:
            data["initial"]["v_centers"] = vc
        validate_config(data)

    @pytest.mark.parametrize("change, message", [
        ({"amplitude": 0}, ZERO_MASS), ({"v_centers": [[0.0, 60.0]]}, ZERO_MASS),
        ({"x_centers": [[60.0, 0.0]]}, ZERO_MASS),
        # f0 has a mass of 4e-45, but exp(-784) underflows, so every
        # computed value is 0 and no draw could be accepted
        (UNDERFLOW, ZERO_MASS),
        # two coincident bumps of 1e308 peak at 2e308, past the largest double
        ({"kind": "two_bump", "amplitude": 1e308, "x_centers": [[0.0, 0.0]] * 2,
          "v_centers": [[0.0, 0.0]] * 2},
         "the initial distribution peaks past the largest double, so none of the 100 "
         "agents can be drawn"),
        ({"v_sigma": 3e299},
         "config key initial/v_sigma: 3e+299 is too large, its square would pass the "
         "largest double"),
        # the zero x_sigma**2 gave a divide warning and then the zero mass line
        ({"x_sigma": 1e-200}, SIGMA_UNDERFLOWS),
    ], ids=[f"change{i}" for i in range(7)])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_run_rejects_agents_drawn_from_zero_mass(self, tmp_path, capsys, command, change,
                                                     message):
        data = json.loads(Path(scenario_path("agents_cluster.json")).read_text())
        data["initial"].update(change)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("mode", ["kinetic", "picard"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_run_rejects_particles_drawn_from_zero_mass(self, tmp_path, capsys, command, mode):
        # the agents' rule holds for every monte_carlo draw: without it the
        # kinetic run drew no particle and exited 0
        data = minimal_kinetic(mode=mode, dim=2, delta=0.1)
        data["initial"].update(UNDERFLOW, kind="product_gaussian_truncated",
                               v_bounds=[[-1.0, 1.0]] * 2,
                               sampling={"kind": "monte_carlo", "n": 100})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: the initial distribution has zero "
                                "mass, so none of the 100 particles can be drawn\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("change, message", [
        # two coincident bumps of 1e308 sum to 2e308 at the centre
        ({"amplitude": 1e308, "x_centers": [[0.0], [0.0]], "v_centers": [[0.0], [0.0]]},
         "the initial distribution peaks past the largest double"),
        ({"x_sigma": 1e-200}, SIGMA_UNDERFLOWS),
    ], ids=["peak-overflows", "sigma-underflows"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_tensor_grid_f0_past_the_double_range_exits_2(self, tmp_path, command, change,
                                                          message):
        # in a fresh interpreter, outside the warnings-as-errors filter: numpy's
        # overflow or divide warning would be a second stderr line, and the
        # tensor grid took its density values past the largest double or to NaN
        data = json.loads(Path(scenario_path("kinetic_two_bump.json")).read_text())
        data["initial"].update(change)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(data))
        args = ["--out", str(out)] if command == "run" else []
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "kinflock.cli", command, "--config",
                               str(cfg), *args], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert (done.stdout, done.stderr) == ("", f"configuration error: {message}\n")
        assert not out.exists()

    def test_run_draws_agents_from_a_bump_centred_outside_its_box(self, tmp_path):
        # the x centre is 12 x_sigma past the box: an envelope of the
        # amplitude would accept about 1e-32 of the draws, and never finish
        data = json.loads(Path(scenario_path("agents_cluster.json")).read_text())
        data.update(dim=1, n_agents=20)
        data["initial"].update(x_bounds=[[-1.0, 1.0]], v_bounds=[[-1.0, 1.0]],
                               x_sigma=0.25, x_centers=[[4.0]], sampling={"kind": "monte_carlo"})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "kinflock.cli", "run", "--config", str(cfg),
                               "--out", str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith("[PASS] agent_speed_max_principle")
        rows = np.loadtxt(tmp_path / "out" / "agents.csv", delimiter=",", skiprows=1)
        x0 = rows[rows[:, 0] == 0, 3]
        # f0 decays like exp(-(4 - x)**2 / 0.125), so draws crowd the edge x = 1
        assert len(x0) == 20 and (x0 > 0.5).all() and (x0 <= 1.0).all()

    @pytest.mark.parametrize("scenario, change", [
        ("oracle_l2.json", {"amplitude": 1e80}),
        ("oracle_l2.json", {"amplitude": 1e300}),
        ("kinetic_two_bump.json", {"x_sigma": 1e-155}),
    ], ids=["oracle-amplitude-1e80", "oracle-amplitude-1e300", "sigma-1e-155"])
    def test_extreme_f0_scales_run_without_a_numpy_warning(self, tmp_path, scenario, change):
        # in a fresh interpreter, outside the warnings-as-errors filter: the
        # grid values to the power 4 overflow, so the oracle's L^p norm
        # rescales by the largest value; a sigma of 1e-155 takes the Gaussian
        # exponent to -inf, whose exp is the right 0.  numpy warned of both.
        data = json.loads(Path(scenario_path(scenario)).read_text())
        data["initial"].update(change)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        src = str(Path(cli.__file__).parents[1])
        runs = [subprocess.run([sys.executable, "-m", "kinflock.cli", *args, "--config", str(cfg)],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, timeout=60)
                for args in (["validate"], ["run", "--out", str(tmp_path / "out")])]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
        assert runs[0].stdout == "config is valid\n"
        lines = runs[1].stdout.splitlines()
        assert lines and all(line.startswith("[PASS] ") for line in lines)

    @pytest.mark.parametrize("scenario, change", [
        ("agents_cluster.json", lambda d: d["initial"].update(amplitude=0)),
        ("two_particle_symmetric.json", lambda d: d.update(dt=1.0, t_final=800.0)),
    ], ids=["agents-zero-mass", "horizon"])
    def test_config_error_found_while_running_writes_no_resolved_config(
            self, tmp_path, capsys, scenario, change):
        data = json.loads(Path(scenario_path(scenario)).read_text())
        change(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out" / "run1"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, message", REMOVED_INPUTS)
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_removed_kernels_exit_2(self, tmp_path, capsys, data, message, command):
        # the smooth kernels, the Vicsek heading model, the lam/N-normalised
        # cs model and every agent integrator but the exact frozen-field step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: config key {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario, change, key", [
        ("kinetic_two_bump.json", lambda d: d["initial"].update(x_bounds=[[2.0, -2.0]]),
         "initial/x_bounds/0"),
        ("agents_cluster.json", lambda d: d["initial"]["v_bounds"][1].reverse(),
         "initial/v_bounds/1"),
        ("oracle_l2.json", lambda d: d["oracle"].update(x_min=3.0, x_max=-3.0), "oracle/x_max"),
        ("oracle_l2.json", lambda d: d["oracle"].update(x_min=1.0, x_max=1.0), "oracle/x_max"),
        ("agents_cluster.json", lambda d: d["initial"].update(v_bounds=[[-1.0, 1.0], [0.5, 0.5]]),
         "initial/v_bounds/1"),
    ], ids=["x_bounds", "v_bounds", "oracle-reversed", "oracle-empty", "v_bounds-empty"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unordered_ranges_exit_2(self, tmp_path, capsys, scenario, change, key, command):
        # each would pass the schema and only fail once `run` built the state
        data = json.loads(Path(scenario_path(scenario)).read_text())
        change(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: config key {key}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, snapshots", [
        ("two_particle_symmetric.json", "particles.csv"),
        ("kinetic_two_bump.json", "particles.csv"),
        ("agents_cluster.json", "agents.csv")])
    def test_snapshot_times_are_step_times_dt(self, tmp_path, capsys, name, snapshots):
        # the shipped scenarios that write particle or agent snapshots; 100
        # steps of 0.01 summed one by one end at 1.0000000000000007, not 1.0
        out = tmp_path / "out"
        assert main(["run", "--config", scenario_path(name), "--out", str(out)]) == 0
        dt = load_config(scenario_path(name))["dt"]
        rows = [line.split(",")[:2] for line in (out / snapshots).read_text().splitlines()[1:]]
        assert rows and all(float(t) == int(step) * dt for step, t in rows)
        steps = sorted({int(step) for step, _ in rows})
        report = json.loads((out / "diagnostics.json").read_text())
        assert [r["t"] for r in report["records"]] == [k * dt for k in steps]

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("change", [{}, {"kind": "two_bump", "x_centers": [[0.1, 0.0]],
                                             "v_centers": [[0.2, -0.3]]}], ids=["gaussian", "bump"])
    def test_agents_are_the_kinetic_monte_carlo_draw(self, seed, change):
        # the agents skip the mass quadrature but draw the same points
        data = json.loads(Path(scenario_path("agents_cluster.json")).read_text())
        data["initial"].update(change)
        cfg = validate_config(dict(data, seed=seed))
        state, _ = runner.sample_agents(cfg, cfg.seed_streams()[0])
        spec = runner.initial_spec_from_config(cfg)
        spec.sampling = ("monte_carlo", cfg["n_agents"])
        ens = sample_initial(spec, cfg["lam"], cfg["radius"], rng=cfg.seed_streams()[0])
        assert state.n == ens.n == 100
        assert np.array_equal(state.positions, ens.x) and np.array_equal(state.velocities, ens.v)

    @pytest.mark.parametrize("data, snapshots, code", UNSHIPPED_PATHS)
    def test_unshipped_schema_paths_run(self, tmp_path, capsys, data, snapshots, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        if code == 2:
            assert not out.exists()
            return
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["resolved_config.json", "diagnostics.json", "diagnostics.csv", snapshots])
        if data.get("oracle", {}).get("lam_zero_transport"):
            # without growth there is no L^p law to check
            report = json.loads((out / "diagnostics.json").read_text())
            assert [c["name"] for c in report["assertions"]] == [
                "mass_conservation", "sup_growth_bound"]

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 5.96 GiB"),
                                     RuntimeError("unexpected")])
    def test_run_maps_unexpected_exceptions_to_exit_3(self, tmp_path, capsys, monkeypatch,
                                                      exc):
        def boom(cfg, out):
            raise exc

        monkeypatch.setattr(cli, "run", boom)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic()))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == f"runtime abort: {type(exc).__name__}: {exc}\n"

    def test_run_seed_override_is_schema_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic()))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key seed: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_run_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_run_writes_artifacts_and_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        assert (out / "diagnostics.json").is_file()
        assert (out / "diagnostics.csv").is_file()
        assert (out / "resolved_config.json").is_file()
        report = json.loads((out / "diagnostics.json").read_text())
        assert all(c["passed"] for c in report["assertions"])

    def test_run_is_reproducible_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_kinetic(delta=0.01)))
        out1, out8 = tmp_path / "o1", tmp_path / "o8"
        assert main(["run", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out8),
                     "--threads", "8"]) == 0
        for name in ("particles.csv", "diagnostics.csv"):
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()
        assert main(["diff-reports", str(out1 / "diagnostics.json"),
                     str(out8 / "diagnostics.json")]) == 0

    def test_seed_override_changes_monte_carlo_output(self, tmp_path):
        data = minimal_kinetic()
        data["initial"]["sampling"] = {"kind": "monte_carlo", "n": 64}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        outs = []
        for seed in (1, 2, 1):
            out = tmp_path / f"s{seed}_{len(outs)}"
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
            outs.append((out / "particles.csv").read_bytes())
        assert outs[0] != outs[1]
        assert outs[0] == outs[2]

    def test_diff_reports_flags_differences(self, tmp_path, capsys):
        a = {"records": [{"t": 0.0, "m": 1.0}], "assertions":
             [{"name": "x", "value": 0.0, "tolerance": 1.0, "passed": True}]}
        b = json.loads(json.dumps(a))
        b["records"][0]["m"] = 1.5
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["diff-reports", str(pa), str(pb)]) == 1
        assert main(["diff-reports", str(pa), str(pb), "--tol", "1.0"]) == 0
        assert main(["diff-reports", str(pa), str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[]", b'{"records": [1, 2]}', b'{"records": {"t": 0}}',
        b'{"assertions": [1]}', b'{"assertions": [{"name": "x", "value": 0.0}]}',
        b'{"assertions": [{"name": ["x"], "value": 0.0, "passed": true}]}',
        b'{"assertions": [{"name": "x", "value": "0", "passed": true}]}'])
    def test_diff_reports_rejects_unreadable_report(self, tmp_path, capsys, content):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"records": []}))
        bad.write_bytes(content)
        for pair in ([good, bad], [bad, good]):
            assert main(["diff-reports", *map(str, pair)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("cannot read report: ")
            assert captured.err.count("\n") == 1 and captured.out == ""

    @staticmethod
    def _diff(tmp_path, a, b):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        return main(["diff-reports", str(pa), str(pb), "--tol", "1e-12"])

    def test_diff_reports_counts_nan_against_a_number(self, tmp_path, capsys):
        a = {"records": [{"t": 0.0, "total_mass": 1.0}], "assertions":
             [{"name": "mass", "value": 0.0, "tolerance": 1.0, "passed": True}]}
        b = json.loads(json.dumps(a))
        b["records"][0]["total_mass"] = float("nan")
        assert self._diff(tmp_path, a, b) == 1
        assert self._diff(tmp_path, b, a) == 1
        assert "record 0 key total_mass: 1.0 vs nan" in capsys.readouterr().out
        b = json.loads(json.dumps(a))
        b["assertions"][0]["value"] = float("nan")
        assert self._diff(tmp_path, a, b) == 1
        assert "assertion mass: 0.0/True vs nan/True" in capsys.readouterr().out

    def test_diff_reports_nan_against_nan_agrees(self, tmp_path, capsys):
        a = {"records": [{"t": 0.0, "total_mass": float("nan")}], "assertions":
             [{"name": "mass", "value": float("nan"), "tolerance": 1.0, "passed": False}]}
        assert self._diff(tmp_path, a, json.loads(json.dumps(a))) == 0
        assert "reports agree" in capsys.readouterr().out

    def test_diff_reports_prints_differences_in_order(self, tmp_path, capsys):
        keys = ["zeta", "alpha", "mu", "beta"]
        a = {"records": [{"t": 0.0}] + [{k: 0.0 for k in keys}] * 2}
        b = {"records": [{"t": 0.0}] + [{k: 1.0 for k in keys}] * 2}
        assert self._diff(tmp_path, a, b) == 1
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == [f"record {i} key {k}: 0.0 vs 1.0"
                         for i in (1, 2) for k in sorted(keys)]

    def test_diff_reports_compares_metadata_and_tolerances(self, tmp_path, capsys):
        a = {"metadata": {"solver": "picard",
                          "picard": {"converged": True, "iterations": 3,
                                     "residual_history": [0.5, float("nan")]}},
             "records": [{"t": 0.0, "field_residual": 0.5}],
             "assertions": [{"name": "field_sup_bound", "value": 0.5,
                             "tolerance": 1e-12, "passed": True}]}
        assert self._diff(tmp_path, a, json.loads(json.dumps(a))) == 0
        assert "reports agree" in capsys.readouterr().out
        b = json.loads(json.dumps(a))
        b["metadata"]["picard"]["iterations"] = 40
        assert self._diff(tmp_path, a, b) == 1
        assert "metadata/picard/iterations: 3 vs 40" in capsys.readouterr().out
        b = json.loads(json.dumps(a))
        b["assertions"][0]["tolerance"] = 1.0
        assert self._diff(tmp_path, a, b) == 1
        assert ("assertion field_sup_bound tolerance: 1e-12 vs 1.0"
                in capsys.readouterr().out)
        b = json.loads(json.dumps(a))
        b["metadata"]["picard"]["converged"] = False
        b["metadata"]["picard"]["residual_history"].append(0.0)
        del b["metadata"]["solver"]
        assert self._diff(tmp_path, a, b) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "metadata/picard/converged: True vs False",
            "metadata/picard/residual_history: [0.5, nan] vs [0.5, nan, 0.0]",
            "metadata/solver present in only one report"]


# --- start-up: a run loads only the code its mode executes -------------------

LAZY_MODULES = ["kinflock.fixed_point", "kinflock.oracle", "logging", "numpy.random"]


def _lazy_modules_loaded(code):
    """The LAZY_MODULES loaded once `code` has run in a fresh interpreter."""
    src = str(Path(cli.__file__).parents[1])
    code += ("\nimport sys\n"
             f"print(*[m for m in {LAZY_MODULES!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


def test_import_loads_no_solver_module_random_or_logging():
    assert _lazy_modules_loaded("import kinflock.cli") == []


@pytest.mark.parametrize("host, enabled", [("", True), ("import gc; gc.disable()\n", False)],
                         ids=["collecting-host", "disabled-host"])
def test_import_freezes_its_heap_and_keeps_the_collector_state(host, enabled):
    # no collection walks the import-time heap again, and the collector is
    # left as the host had it
    src = str(Path(cli.__file__).parents[1])
    code = host + "import gc, kinflock.cli\nprint(gc.isenabled(), gc.get_freeze_count() > 0)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [str(enabled), "True"]


def _monte_carlo_kinetic():
    data = minimal_kinetic()
    data["initial"]["sampling"] = {"kind": "monte_carlo", "n": 64}
    return data


@pytest.mark.parametrize("data, loaded", [
    pytest.param(minimal_kinetic(), [], id="kinetic-tensor-grid"),
    pytest.param(_monte_carlo_kinetic(), ["numpy.random"], id="kinetic-monte-carlo"),
    pytest.param(small_agents("cutoff_cs", {"kind": "indicator"}),
                 ["numpy.random"], id="agents"),
    pytest.param(oracle_l2({"kind": "zero"}), ["kinflock.oracle"], id="oracle"),
    # lipschitz_modulus draws its sample pairs from numpy.random
    pytest.param(minimal_kinetic(mode="picard", delta=0.1,
                                 picard={"n_time_nodes": 3, "n_space_nodes": 5}),
                 ["kinflock.fixed_point", "numpy.random"], id="picard"),
])
def test_each_mode_loads_its_own_solver_module(tmp_path, data, loaded):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code = ("import kinflock.cli\n"
            f"assert kinflock.cli.main(['run', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _lazy_modules_loaded(code) == loaded


def test_oracle_run_computes_each_lp_norm_once(tmp_path, monkeypatch):
    # the records and the lp_law fit share one norm per snapshot and p
    calls = []

    def counted(grid, p, real=oracle.oracle_lp_norm):
        calls.append(p)
        return real(grid, p)

    monkeypatch.setattr(oracle, "oracle_lp_norm", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", scenario_path("oracle_l2.json"), "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert "lp_law_p4" in [c["name"] for c in report["assertions"]]
    assert sorted(calls) == sorted([1, 2, 4] * len(report["records"]))


def test_kinetic_run_computes_each_lp_norm_once(tmp_path, monkeypatch):
    # the records (p = 1, 2) and the lp_inequality checks (p = 1, 2, 4)
    # share one norm per snapshot and p
    calls = []

    def counted(vol, f, p, real=diagnostics.particle_lp_norm):
        calls.append(p)
        return real(vol, f, p)

    monkeypatch.setattr(diagnostics, "particle_lp_norm", counted)
    out = tmp_path / "out"
    assert main(["run", "--config", scenario_path("kinetic_two_bump.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert "lp_inequality_p4" in [c["name"] for c in report["assertions"]]
    assert sorted(calls) == sorted([1, 2, 4] * len(report["records"]))


@pytest.mark.parametrize("name", ["kinetic_two_bump.json", "oracle_l2.json"])
def test_float_lp_exponents_only_rename_their_checks(tmp_path, name):
    # p = 2.0 is the exponent 2: [1.0, 2.0, 4.0] gives the checks of
    # [1, 2, 4] under the names of its own list
    reports = []
    for exps in ([1, 2, 4], [1.0, 2.0, 4.0]):
        data = json.loads(Path(scenario_path(name)).read_text())
        data.setdefault("diagnostics", {})["lp_exponents"] = exps
        cfg, out = tmp_path / f"{exps[0]!r}.json", tmp_path / f"out{exps[0]!r}"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads((out / "diagnostics.json").read_text())["assertions"])
    ints, floats = reports
    n = len(ints) - 3  # the checks ahead of the three L^p ones
    prefix = ints[-1]["name"][:-1]  # lp_inequality_p or lp_law_p
    assert floats[:n] == ints[:n]
    assert floats[n:] == [dict(c, name=f"{prefix}{p}") for c, p in
                          zip(ints[n:], ("1.0", "2.0", "4.0"))]


@pytest.mark.parametrize("exps, repeated", [([1.0, 2.0, 4.0, 2], "2"), ([3, 3], "3")])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_repeated_lp_exponents_exit_2(tmp_path, capsys, exps, repeated, command):
    # numerically equal exponents would give one check and one record
    # column per entry
    data = json.loads(Path(scenario_path("oracle_l2.json")).read_text())
    data["diagnostics"]["lp_exponents"] = exps
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(data))
    args = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(cfg), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"configuration error: config key diagnostics/lp_exponents: "
                            f"{exps!r} lists the exponent {repeated} more than once\n")


@pytest.mark.parametrize("data, check", [
    (minimal_kinetic(dt=2.5, t_final=5.0), "velocity_support_bound"),
    (dict(small_agents("cutoff_cs", {"kind": "indicator"}), dt=2.5, t_final=5.0),
     "agent_speed_max_principle"),
], ids=["kinetic", "agents"])
def test_large_dt_run_keeps_its_support_check(tmp_path, data, check):
    # at lam*dt = 2.5 the exact frozen-field step still keeps every speed
    # within its initial bound: allow_large_dt lifts the lam*dt rule only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(data, allow_large_dt=True)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert [c["passed"] for c in report["assertions"] if c["name"] == check] == [True]
