import json
import logging
from pathlib import Path

import pytest

from panda import optim
from panda.cli import CSV_HEADER, ConfigError, load_experiment, main
from panda.envs import build_env
from panda.exact import LinearSolveError, ValueIterationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="exp", **kw):
    cfg = {
        "name": name,
        "env": {"name": "synthetic", "seed": 0},
        "optimizers": ["panda"],
        "seeds": [0],
        "config": {"outer_iters": 2, "inner_iters": 1, "batch_traj": 2,
                   "batch_ul": 2, "horizon": 2, "eval_cadence": 1},
    }
    cfg.update(kw)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


def test_load_experiment_resolves_defaults(tmp_path):
    path = write_config(tmp_path, optimizer_overrides={"panda": {"eta_x": 0.2}})
    exp = load_experiment(path)
    assert exp.name == "exp" and exp.env_name == "synthetic"
    assert exp.base.lam == 4.0 and exp.base.outer_iters == 2
    cfg = exp.config_for("panda", 7)
    assert cfg.eta_x == 0.2 and cfg.seed == 7


@pytest.mark.parametrize("mutate,msg", [
    (lambda c: c.pop("env"), "env"),
    (lambda c: c.update(env={"name": "mars"}), "unknown environment"),
    (lambda c: c.update(optimizers=[]), "optimizers"),
    (lambda c: c.update(optimizers=["panda", "panda"]), "duplicate"),
    (lambda c: c.update(optimizers=["sgd"]), "unknown optimizers"),
    (lambda c: c.update(seeds=["a"]), "seeds"),
    (lambda c: c.update(config={"outer_iters": 2, "seed": 3}), "seed"),
    (lambda c: c.update(config={"nope": 1}), "unknown config fields"),
    (lambda c: c.update(config={"outer_iters": 0}), "invalid config"),
    (lambda c: c.update(bogus_key=1), "unknown config keys"),
    (lambda c: c.update(oracle_options={"zeta": 1}), "unknown oracle_options"),
    (lambda c: c.update(env={"name": "synthetic", "n_statez": 4}), "unknown env fields"),
    (lambda c: c.update(config={"lam": float("nan")}), "lam must be a finite real > 0, got nan"),
    (lambda c: c.update(config={"eta_x": float("inf")}), "eta_x"),
    (lambda c: c.update(config={"lam": True}), "lam must be a finite real > 0, got True"),
    (lambda c: c.update(config={"eta_x": True}), "eta_x must be a finite real >= 0, got True"),
    (lambda c: c.update(optimizer_overrides={"panda": {"eta_shadow_max": "0.1"}}),
     "eta_shadow_max must be a finite real >= 0, got '0.1'"),
    (lambda c: c.update(config={"eta_theta": -0.1, "env_step_budget": -5}), "eta_theta"),
    (lambda c: c.update(config={"env_step_budget": -5}), "env_step_budget"),
    (lambda c: c.update(config={"inner_iters": 1.5}), "inner_iters must be an integer"),
    (lambda c: c.update(config={"horizon": True}), "horizon must be an integer"),
    (lambda c: c.update(config={"env_step_budget": 1e5}), "env_step_budget must be an integer"),
    (lambda c: c.update(optimizer_overrides={"panda": {"batch_ul": 2.0}}),
     "batch_ul must be an integer"),
    (lambda c: c.update(name="../escaped"), "plain file name"),
    (lambda c: c.update(name=".."), "plain file name"),
    (lambda c: c.update(name=""), "plain file name"),
    (lambda c: c.update(name=7), "plain file name"),
    (lambda c: c.update(oracle_options={"inner_cap": 1.5}),
     "inner_cap must be an integer >= 1, got 1.5"),
    (lambda c: c.update(oracle_options={"inner_cap": -1}),
     "inner_cap must be an integer >= 1, got -1"),
    (lambda c: c.update(oracle_options={"inner_cap": True}),
     "inner_cap must be an integer >= 1, got True"),
    (lambda c: c.update(oracle_options={"inner_tol": "x"}),
     "inner_tol must be a finite real >= 0, got 'x'"),
    (lambda c: c.update(oracle_options={"inner_tol": -1e-6}),
     "inner_tol must be a finite real >= 0, got -1e-06"),
    (lambda c: c.update(oracle_options={"br_tol": -1.0}),
     "br_tol must be a finite real > 0, got -1.0"),
    (lambda c: c.update(oracle_options={"br_tol": 0.0}),
     "br_tol must be a finite real > 0, got 0.0"),
    (lambda c: c.update(env={"name": ["sentinel"]}), "unknown environment .'sentinel'."),
    (lambda c: c.update(env={"name": "sentinel", "width": 0}), "width must be an integer >= 1"),
    (lambda c: c.update(env={"name": "sentinel", "height": 2.0}), "height must be an integer"),
    (lambda c: c.update(env={"name": "sentinel", "sentinel_spawn": [9, 9]}),
     "sentinel_spawn cell .* is not on the 5x5 grid"),
    (lambda c: c.update(env={"name": "sentinel", "restricted": [[1, 5]]}),
     "restricted cell"),
    (lambda c: c.update(env={"name": "sentinel", "intruder_spawns": []}),
     "intruder_spawns must not be empty"),
    (lambda c: c.update(env={"name": "sentinel", "intruder_spawns": [[0, 0], [0, 0]]}),
     r"intruder_spawns cell \(0, 0\) is repeated"),
    (lambda c: c.update(env={"name": "sentinel", "max_steps": -1}),
     "max_steps must be an integer >= 1"),
    (lambda c: c.update(env={"name": "synthetic", "n_states": 0}),
     "n_states must be an integer >= 1"),
    (lambda c: c.update(env={"name": "synthetic", "ul_horizon": True}),
     "ul_horizon must be an integer"),
    (lambda c: c.update(env={"name": "sentinel", "incentive_scale": "x"}),
     "incentive_scale must be a finite real, got 'x'"),
    (lambda c: c.update(env={"name": "synthetic", "incentive_scale": float("nan")}),
     "incentive_scale must be a finite real, got nan"),
    (lambda c: c.update(env={"name": "synthetic", "tau": float("inf")}),
     "tau_min must be a finite real > 0, got inf"),
    (lambda c: c.update(env={"name": "sentinel", "payoff": float("inf")}),
     "base payoff must be finite"),
    (lambda c: c.update(env={"name": "synthetic", "discount": False}),
     "discount must be a real in .0,1., got False"),
    (lambda c: c.update(env={"name": "sentinel", "payoff": True}),
     "payoff must be a real number, got True"),
    (lambda c: c.update(env={"name": "synthetic", "seed": True}),
     "seed must be an integer >= 0, got True"),
    (lambda c: c.update(seeds=[0, -1]), "invalid seeds values: seed must be an integer "
                                         r"in \[0, 2\*\*64\), got -1$"),
    (lambda c: c.update(seeds=[2**64]), r"in \[0, 2\*\*64\), got 18446744073709551616$"),
    (lambda c: c.update(seeds=[True]), r"in \[0, 2\*\*64\), got True$"),
    (lambda c: c.update(seeds=[]), 'non-empty "seeds" list'),
])
def test_load_experiment_rejects_bad_configs(tmp_path, mutate, msg):
    cfg = json.loads(write_config(tmp_path).read_text())
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=msg):
        load_experiment(path)


@pytest.mark.parametrize("options,msg", [
    ({"inner_cap": 0}, "inner_cap must be an integer >= 1, got 0"),
    ({"inner_cap": 1.5}, "inner_cap must be an integer >= 1, got 1.5"),
    ({"inner_cap": True}, "inner_cap must be an integer >= 1, got True"),
    ({"inner_tol": -1e-6}, "inner_tol must be a finite real >= 0, got -1e-06"),
    ({"inner_tol": float("nan")}, "inner_tol must be a finite real >= 0, got nan"),
    ({"br_tol": 0.0}, "br_tol must be a finite real > 0, got 0.0"),
])
def test_run_oracle_rejects_bad_options_like_the_cli(tmp_path, monkeypatch, options, msg):
    def no_solve(*args, **kwargs):
        raise AssertionError("best_response called before the options were checked")

    monkeypatch.setattr(optim, "best_response", no_solve)
    with pytest.raises(ValueError) as run_err:
        optim.run_oracle(build_env("synthetic"), optim.PandaConfig(outer_iters=1), **options)
    assert str(run_err.value) == msg
    with pytest.raises(ConfigError) as cli_err:
        load_experiment(write_config(tmp_path, oracle_options=options))
    assert str(cli_err.value) == f"invalid oracle_options values: {msg}"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_packaged_configs_load(path):
    exp = load_experiment(path)
    assert exp.name == path.stem and len(exp.optimizers) >= 1


def test_run_writes_csv_per_seed_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("PANDA_THREADS", "1")
    path = write_config(tmp_path, seeds=[0, 1])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for seed in (0, 1):
        header, rows = read_csv(out / f"exp_panda_seed{seed}.csv")
        assert header == "outer_iter,env_steps,ul_objective,ne_gap,grad_norm,wall_ms"
        assert len(rows) == 2  # outer_iters rows
        assert all(r.endswith(",0") for r in rows)  # wall column zeroed
    manifest = json.loads((out / "exp_manifest.json").read_text())
    assert manifest["config"]["lam"] == 4.0
    assert manifest["seeds"] == [0, 1]
    assert len(manifest["runs"]) == 2
    assert all(r["error"] is None for r in manifest["runs"])
    assert all(r["wall_seconds"] > 0 for r in manifest["runs"])


def test_run_single_outer_iteration_single_row(tmp_path, monkeypatch):
    monkeypatch.setenv("PANDA_THREADS", "1")
    path = write_config(tmp_path, config={"outer_iters": 1, "inner_iters": 1,
                                          "batch_traj": 2, "batch_ul": 2,
                                          "horizon": 2})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(out / "exp_panda_seed0.csv")
    assert len(rows) == 1
    assert rows[0].startswith("1,")


def test_run_seed_flag_overrides_seed_list(tmp_path, monkeypatch):
    monkeypatch.setenv("PANDA_THREADS", "1")
    path = write_config(tmp_path, seeds=[0, 1, 2])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "5"]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["exp_panda_seed5.csv"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_seed_flag_out_of_range_exits_2_at_load(tmp_path, capsys, seed):
    path = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid seeds values: seed must be an integer in [0, 2**64), got {seed}\n"
    assert err.count("\n") == 1 and not out.exists()


def test_largest_seed_loads(tmp_path):
    exp = load_experiment(write_config(tmp_path, seeds=[0, 2**64 - 1]))
    assert exp.seeds == [0, 2**64 - 1]
    assert load_experiment(write_config(tmp_path), seed=2**64 - 1).seeds == [2**64 - 1]


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("PANDA_THREADS", "2")
    path = write_config(tmp_path, seeds=[0, 1],
                        optimizers=["panda", "alternating"])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert len(names) == 4
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_run_invalid_env_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PANDA_THREADS", "1")
    path = write_config(tmp_path, env={"name": "synthetic", "discount": 1.0})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid env values") and "discount" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("env,field", [
    ({"name": "synthetic", "n_states": 0}, "n_states"),
    ({"name": "sentinel", "width": 0}, "width"),
    ({"name": "synthetic", "discount": 1.0}, "discount"),
    ({"name": "sentinel", "payoff": True}, "payoff"),
    ({"name": "synthetic", "seed": True}, "seed"),
])
def test_run_invalid_env_size_exits_2_at_load(tmp_path, capsys, env, field):
    path = write_config(tmp_path, env=env)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid env values") and field in err
    assert err.count("\n") == 1 and not out.exists()


def test_run_name_cannot_leave_out_dir(tmp_path, capsys):
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["name"] = "../escaped"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out" / "sub"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "exp.json"]


def test_compare_requires_two_optimizers(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["compare", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "two optimizers" in capsys.readouterr().err


def test_compare_writes_long_csv_and_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PANDA_THREADS", "2")
    path = write_config(
        tmp_path, optimizers=["panda", "alternating"], seeds=[0, 1],
        config={"outer_iters": 3, "inner_iters": 1, "batch_traj": 2,
                "batch_ul": 2, "horizon": 2, "env_step_budget": 30})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "panda" in captured and "alternating" in captured
    lines = (out / "exp_compare.csv").read_text().splitlines()
    assert lines[0] == ("optimizer,seed,outer_iter,env_steps,ul_objective,"
                       "ne_gap,grad_norm,wall_ms")
    assert any(line.startswith("panda,0,") for line in lines[1:])
    assert any(line.startswith("alternating,1,") for line in lines[1:])


def test_compare_flags_budget_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PANDA_THREADS", "1")
    # panda consumes ~3x alternating's steps per outer iteration; without an
    # env_step_budget the final step counts diverge past the 2x guard
    path = write_config(tmp_path, optimizers=["panda", "alternating"],
                        config={"outer_iters": 4, "inner_iters": 4,
                                "batch_traj": 4, "batch_ul": 4, "horizon": 3})
    assert main(["compare", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "env-step budgets" in capsys.readouterr().err


def test_nonfinite_run_exits_3_with_partial_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PANDA_THREADS", "1")
    # a step size near the float ceiling overflows the policy logits on the
    # first penalty step, which aborts the run there; the shadow, upper-level
    # and penalty batches of that iteration were drawn and are counted
    path = write_config(tmp_path, config={"outer_iters": 6, "inner_iters": 1,
                                          "batch_traj": 2, "batch_ul": 2,
                                          "horizon": 40, "eta_theta": 1e307})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    error = "non-finite min-policy gradient at inner 0 (outer 0, step)"
    assert capsys.readouterr().err == f"error: panda seed 0 aborted: {error}\n"
    assert read_csv(out / "exp_panda_seed0.csv") == (CSV_HEADER, [])
    [run] = json.loads((out / "exp_manifest.json").read_text())["runs"]
    assert run["error"] == error and run["final_env_steps"] == 326


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_path_that_is_a_file_exits_2_before_any_run(tmp_path, capsys, caplog, command):
    caplog.set_level(logging.INFO, logger="panda")
    path = write_config(tmp_path, optimizers=["panda", "alternating"])
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"cannot make output directory {out}" in capsys.readouterr().err
    assert "jobs" not in caplog.text
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("name,error,aborted", [
    ("best_response", ValueIterationError(1e-3, 7), ["oracle"]),
    ("ni_gradients", LinearSolveError(1e-3, 1e-9, 100), ["panda", "oracle"]),
])
def test_solver_failure_exits_3_and_keeps_every_output(tmp_path, monkeypatch, capsys,
                                                       name, error, aborted):
    """A solver error aborts only the runs it occurs in; every CSV and the manifest
    are written, the manifest and stderr naming where the run aborted.  Only
    `run_oracle` looks `best_response` up in `optim`, in its first step, and every
    run evaluates `ni_gradients` before its first iteration."""
    phase = {"best_response": "step", "ni_gradients": "initial exact evaluation"}[name]
    monkeypatch.setenv("PANDA_THREADS", "1")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(optim, name, fail)
    path = write_config(tmp_path, optimizers=["panda", "oracle"])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    manifest = json.loads((out / "exp_manifest.json").read_text())
    assert [r["optimizer"] for r in manifest["runs"]] == ["panda", "oracle"]
    for run in manifest["runs"]:
        header, rows = read_csv(out / run["csv"])
        assert header == CSV_HEADER
        if run["optimizer"] in aborted:
            assert rows == [] and run["error"] == f"{error} (outer 0, {phase})"
            assert f"{run['optimizer']} seed 0 aborted: {error} (outer 0, {phase})" in err
        else:
            assert len(rows) == 2 and run["error"] is None


def test_unmet_best_response_tolerance_exits_3_through_the_pool(tmp_path, monkeypatch, capsys,
                                                                 caplog):
    """A valid `br_tol` that no soft policy iteration can meet aborts the oracle run in a
    pool worker; the other run and every output survive."""
    monkeypatch.setenv("PANDA_THREADS", "2")
    caplog.set_level(logging.INFO, logger="panda")
    path = write_config(tmp_path, optimizers=["panda", "oracle"],
                        config={"outer_iters": 2, "inner_iters": 2, "batch_traj": 2,
                                "batch_ul": 2, "horizon": 2, "eval_cadence": 1},
                        oracle_options={"inner_tol": 1e-5, "inner_cap": 3, "br_tol": 1e-300})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "running 2 jobs on 2 workers" in caplog.text
    manifest = json.loads((out / "exp_manifest.json").read_text())
    panda, oracle = manifest["runs"]
    assert panda["error"] is None and len(read_csv(out / panda["csv"])[1]) == 2
    assert read_csv(out / oracle["csv"]) == (CSV_HEADER, [])
    assert oracle["error"].startswith("policy iteration stopped at residual ")
    assert oracle["error"].endswith(" after 200 rounds (outer 0, step)")
    assert capsys.readouterr().err == f"error: oracle seed 0 aborted: {oracle['error']}\n"


def test_check_gradients_passes(capsys):
    assert main(["check", "gradients"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_unknown_suite_exits_2(capsys):
    assert main(["check", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_panda_threads_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PANDA_THREADS", "zero")
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "PANDA_THREADS" in capsys.readouterr().err
