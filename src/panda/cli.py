"""Command-line harness: seeded experiment runs, comparisons, and checks.

Subcommands
-----------
``panda run --config exp.json --out dir [--seed S]``
    Run every (optimizer, seed) pair of the experiment and write one CSV per
    run plus a ``<name>_manifest.json`` with the resolved configuration and
    timing, so several experiments can share one output directory.

``panda compare --config exp.json --out dir``
    Same runs, plus a long-format CSV across optimizers and a median summary
    table on stdout.  Requires at least two distinct optimizers and aligned
    environment-step budgets.

``panda check {operators,equilibrium,gradients,estimators,pl,all}``
    Run a property suite and report one line per property.

Exit codes: 0 success, 1 property-check failure, 2 configuration or usage
error, 3 a run aborted on a non-finite gradient (partial CSV still written).

Runs are independent and execute on a process pool; the ``PANDA_THREADS``
environment variable caps the worker count.  CSV contents are byte-stable
across reruns: floats are written in shortest round-trip form and the
wall-clock column is zeroed (real timings live in the manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .checks import run_suite
from .envs import ENV_SPECS, build_env
from .optim import OPTIMIZERS, NonFiniteGradientError, PandaConfig

log = logging.getLogger("panda")

CSV_HEADER = "outer_iter,env_steps,ul_objective,ne_gap,grad_norm,wall_ms"
_ORACLE_OPTION_KEYS = {"inner_tol", "inner_cap", "br_tol"}


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentConfig:
    name: str
    env_name: str
    env_overrides: dict
    optimizers: list[str]
    seeds: list[int]
    base: PandaConfig
    overrides: dict[str, dict]
    oracle_options: dict

    def config_for(self, optimizer: str, seed: int) -> PandaConfig:
        fields = dataclasses.asdict(self.base)
        fields.update(self.overrides.get(optimizer, {}))
        fields["seed"] = seed
        return PandaConfig(**fields)


def _tuplize(value):
    if isinstance(value, list):
        return tuple(_tuplize(v) for v in value)
    return value


def load_experiment(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    known = {"name", "env", "optimizers", "seeds", "config",
             "optimizer_overrides", "oracle_options"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    env = raw.get("env")
    if not isinstance(env, dict) or "name" not in env:
        raise ConfigError('config requires "env": {"name": ...}')
    env_name = env["name"]
    if env_name not in ENV_SPECS:
        raise ConfigError(f"unknown environment {env_name!r}")
    env_overrides = {k: _tuplize(v) for k, v in env.items() if k != "name"}
    spec_fields = {f.name for f in dataclasses.fields(ENV_SPECS[env_name][0])}
    unknown = set(env_overrides) - spec_fields
    if unknown:
        raise ConfigError(f"unknown env fields for {env_name!r}: {sorted(unknown)}")

    optimizers = raw.get("optimizers")
    if (not isinstance(optimizers, list) or not optimizers
            or not all(isinstance(o, str) for o in optimizers)):
        raise ConfigError('config requires a non-empty "optimizers" list')
    bad = [o for o in optimizers if o not in OPTIMIZERS]
    if bad:
        raise ConfigError(f"unknown optimizers {bad}; "
                          f"choose from {sorted(OPTIMIZERS)}")
    if len(set(optimizers)) != len(optimizers):
        raise ConfigError("duplicate optimizer entries")

    seeds = raw.get("seeds")
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ConfigError('config requires a non-empty integer "seeds" list')
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds")

    cfg_fields = {f.name for f in dataclasses.fields(PandaConfig)}

    def check_fields(d, where):
        if not isinstance(d, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = set(d) - cfg_fields
        if unknown:
            raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
        if "seed" in d:
            raise ConfigError(f'"seed" is not allowed in {where}; '
                              'use the top-level "seeds" list')

    base_fields = raw.get("config", {})
    check_fields(base_fields, "config")
    overrides = raw.get("optimizer_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError('"optimizer_overrides" must be an object')
    for opt, d in overrides.items():
        if opt not in OPTIMIZERS:
            raise ConfigError(f"optimizer_overrides for unknown optimizer {opt!r}")
        check_fields(d, f"optimizer_overrides.{opt}")

    oracle_options = raw.get("oracle_options", {})
    if not isinstance(oracle_options, dict):
        raise ConfigError('"oracle_options" must be an object')
    unknown = set(oracle_options) - _ORACLE_OPTION_KEYS
    if unknown:
        raise ConfigError(f"unknown oracle_options: {sorted(unknown)}")

    try:
        base = PandaConfig(**base_fields)
        for opt in optimizers:
            fields = dataclasses.asdict(base)
            fields.update(overrides.get(opt, {}))
            PandaConfig(**fields)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config values: {e}") from e

    name = raw.get("name", path.stem)
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f'"name" must be a plain file name, got {name!r}')

    return ExperimentConfig(
        name=name,
        env_name=env_name, env_overrides=env_overrides,
        optimizers=list(optimizers), seeds=list(seeds),
        base=base, overrides={k: dict(v) for k, v in overrides.items()},
        oracle_options=dict(oracle_options),
    )


# --------------------------------------------------------------------------
# Running experiments
# --------------------------------------------------------------------------

def _run_one(payload: dict) -> dict:
    """Worker: one (optimizer, seed) run; returns plain picklable rows."""
    try:
        env = build_env(payload["env_name"], **payload["env_overrides"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid env values: {e}") from e
    cfg = PandaConfig(**payload["cfg"])
    runner = OPTIMIZERS[payload["optimizer"]]
    t0 = time.perf_counter()
    error = None
    try:
        if payload["optimizer"] == "oracle":
            result = runner(env, cfg, **payload["oracle_options"])
        else:
            result = runner(env, cfg)
    except NonFiniteGradientError as e:
        result = e.partial
        error = str(e)
    wall = time.perf_counter() - t0
    return {
        "optimizer": payload["optimizer"],
        "seed": cfg.seed,
        "rows": [(r.outer_iter, r.env_steps, r.ul_objective, r.ni_gap,
                  r.grad_norm) for r in result.records],
        "final_env_steps": result.state.env_steps,
        "wall_seconds": wall,
        "error": error,
    }


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("PANDA_THREADS")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError as e:
            raise ConfigError(f"PANDA_THREADS must be an integer, got {raw!r}") from e
        if cap < 1:
            raise ConfigError("PANDA_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def execute_runs(exp: ExperimentConfig) -> list[dict]:
    """Run all (optimizer, seed) pairs, parallel when allowed, in stable order."""
    payloads = [
        {"env_name": exp.env_name, "env_overrides": exp.env_overrides,
         "optimizer": opt, "cfg": dataclasses.asdict(exp.config_for(opt, seed)),
         "oracle_options": exp.oracle_options}
        for opt in exp.optimizers for seed in exp.seeds
    ]
    workers = _worker_count(len(payloads))
    log.info("running %d jobs on %d workers", len(payloads), workers)
    if workers == 1:
        return [_run_one(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, payloads))


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_run_csv(path: Path, rows) -> None:
    lines = [CSV_HEADER]
    for (it, steps, f_val, gap, grad) in rows:
        lines.append(f"{it},{steps},{_fmt(f_val)},{_fmt(gap)},{_fmt(grad)},0")
    path.write_text("\n".join(lines) + "\n")


def write_outputs(exp: ExperimentConfig, results: list[dict], out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for res in results:
        p = out / f"{exp.name}_{res['optimizer']}_seed{res['seed']}.csv"
        _write_run_csv(p, res["rows"])
        res["csv"] = p.name
        paths.append(p)
    try:
        from importlib.metadata import version
        pkg_version = version("panda")
    except Exception:
        pkg_version = "unknown"
    manifest = {
        "name": exp.name,
        "env": {"name": exp.env_name, **exp.env_overrides},
        "config": dataclasses.asdict(exp.base),
        "optimizer_overrides": exp.overrides,
        "oracle_options": exp.oracle_options,
        "optimizers": exp.optimizers,
        "seeds": exp.seeds,
        "package_version": pkg_version,
        "runs": [{k: res[k] for k in ("optimizer", "seed", "final_env_steps",
                                      "wall_seconds", "error", "csv")}
                 for res in results],
    }
    (out / f"{exp.name}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return paths


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        exp = load_experiment(args.config)
        if args.seed is not None:
            exp.seeds = [args.seed]
        results = execute_runs(exp)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    write_outputs(exp, results, Path(args.out))
    failed = [r for r in results if r["error"]]
    for r in failed:
        print(f"error: {r['optimizer']} seed {r['seed']} aborted: {r['error']}",
              file=sys.stderr)
    for r in results:
        status = "aborted" if r["error"] else "ok"
        print(f"{r['optimizer']:12s} seed={r['seed']:<4d} rows={len(r['rows']):4d} "
              f"env_steps={r['final_env_steps']:<10d} {status}")
    return 3 if failed else 0


def _median_summary(exp: ExperimentConfig, results: list[dict]):
    by_opt: dict[str, list[dict]] = {o: [] for o in exp.optimizers}
    for r in results:
        by_opt[r["optimizer"]].append(r)
    summary = []
    for opt in exp.optimizers:
        finals = [r["rows"][-1] for r in by_opt[opt] if r["rows"]]
        if not finals:
            continue
        summary.append({
            "optimizer": opt,
            "median_final_ul_objective": float(np.median([f[2] for f in finals])),
            "median_final_ne_gap": float(np.median([f[3] for f in finals])),
            "median_final_env_steps": float(np.median([f[1] for f in finals])),
        })
    return summary


def cmd_compare(args) -> int:
    try:
        exp = load_experiment(args.config)
        if len(exp.optimizers) < 2:
            raise ConfigError("compare needs at least two optimizers")
        results = execute_runs(exp)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    write_outputs(exp, results, out)

    lines = ["optimizer,seed," + CSV_HEADER]
    for r in results:
        for (it, steps, f_val, gap, grad) in r["rows"]:
            lines.append(f"{r['optimizer']},{r['seed']},{it},{steps},"
                         f"{_fmt(f_val)},{_fmt(gap)},{_fmt(grad)},0")
    (out / f"{exp.name}_compare.csv").write_text("\n".join(lines) + "\n")

    failed = [r for r in results if r["error"]]
    for r in failed:
        print(f"error: {r['optimizer']} seed {r['seed']} aborted: {r['error']}",
              file=sys.stderr)
    if failed:
        return 3

    # sampled optimizers must have spent comparable env-step budgets
    sampled = [r for r in results if r["optimizer"] != "oracle"]
    if sampled:
        finals = [r["final_env_steps"] for r in sampled]
        if min(finals) < 0.5 * max(finals):
            print("error: env-step budgets differ by more than 2x across "
                  "sampled optimizers; set env_step_budget for a fair "
                  "comparison", file=sys.stderr)
            return 2

    print(f"{'optimizer':12s} {'median f':>14s} {'median gap':>14s} "
          f"{'median steps':>14s}")
    for row in _median_summary(exp, results):
        print(f"{row['optimizer']:12s} {row['median_final_ul_objective']:14.6g} "
              f"{row['median_final_ne_gap']:14.6g} "
              f"{row['median_final_env_steps']:14.6g}")
    return 0


def cmd_check(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"operators, equilibrium, gradients, estimators, pl, all",
              file=sys.stderr)
        return 2
    ok = True
    for r in results:
        ok &= r.passed
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:36s} "
              f"residual={r.residual:.3e} tol={r.tol:.3g}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panda",
        description="Penalty-based policy optimization for incentive design "
                    "over entropy-regularized zero-sum Markov games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="experiment JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="run only this seed instead of the config's list")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="run and summarize several optimizers")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(fn=cmd_compare)

    p_chk = sub.add_parser("check", help="run a property suite")
    p_chk.add_argument("suite")
    p_chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
