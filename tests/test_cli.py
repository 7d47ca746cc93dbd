import json

import pytest

from panda.cli import ConfigError, load_experiment, main


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
    (lambda c: c.update(config={"lam": float("nan")}), "lam must be positive and finite"),
    (lambda c: c.update(config={"eta_x": float("inf")}), "eta_x"),
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
])
def test_load_experiment_rejects_bad_configs(tmp_path, mutate, msg):
    cfg = json.loads(write_config(tmp_path).read_text())
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=msg):
        load_experiment(path)


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
    # step size near the float ceiling overflows the logits to +-inf on the
    # first update; the next gradient estimate is NaN and aborts the run
    path = write_config(tmp_path, config={"outer_iters": 6, "inner_iters": 1,
                                          "batch_traj": 2, "batch_ul": 2,
                                          "horizon": 40, "eta_theta": 1e307})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted" in capsys.readouterr().err
    header, rows = read_csv(out / "exp_panda_seed0.csv")
    assert header.startswith("outer_iter")
    assert len(rows) < 6  # aborted before completing all iterations
    manifest = json.loads((out / "exp_manifest.json").read_text())
    assert manifest["runs"][0]["error"]


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
