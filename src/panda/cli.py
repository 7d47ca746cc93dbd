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
error, 3 a run aborted, on a non-finite gradient or on an exact solver that
missed its tolerance (`exact.SolverError`: `LinearSolveError`,
`ValueIterationError`, `SaddleSolveError`).  An aborted run still writes its
partial CSV, the other runs their full ones, and the manifest records the
error of each aborted run with the outer iteration and the phase it happened
in, for example ``... after 200 rounds (outer 3, step)``.

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
from pathlib import Path

import numpy as np

from .checks import run_suite
from .envs import ENV_SPECS, build_env
from .optim import OPTIMIZERS, RUN_ABORTS, OracleOptions, PandaConfig
from .sampling import RngStream

log = logging.getLogger("panda")

CSV_HEADER = "outer_iter,env_steps,ul_objective,ne_gap,grad_norm,wall_ms"


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


def _checked(what: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, its type and value errors raised as `ConfigError`."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {what} values: {e}") from e


def load_experiment(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Parse and check an experiment config, raising `ConfigError` on any bad value.

    The environment is built once, so each env value is checked by the code
    that uses it, and each optimizer's merged `PandaConfig` is built once.
    A `seed` replaces the config's seed list.
    """
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
    if not isinstance(env_name, str) or env_name not in ENV_SPECS:
        raise ConfigError(f"unknown environment {env_name!r}")
    env_overrides = {k: _tuplize(v) for k, v in env.items() if k != "name"}
    unknown = set(env_overrides) - {f.name for f in dataclasses.fields(ENV_SPECS[env_name][0])}
    if unknown:
        raise ConfigError(f"unknown env fields for {env_name!r}: {sorted(unknown)}")
    _checked("env", build_env, env_name, **env_overrides)

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

    seeds = raw.get("seeds") if seed is None else [seed]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError('config requires a non-empty "seeds" list')
    for s in seeds:
        _checked("seeds", RngStream, s)
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
    unknown = set(oracle_options) - {f.name for f in dataclasses.fields(OracleOptions)}
    if unknown:
        raise ConfigError(f"unknown oracle_options: {sorted(unknown)}")
    _checked("oracle_options", OracleOptions, **oracle_options)

    name = raw.get("name", path.stem)
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f'"name" must be a plain file name, got {name!r}')

    exp = ExperimentConfig(
        name=name,
        env_name=env_name, env_overrides=env_overrides,
        optimizers=list(optimizers), seeds=list(seeds),
        base=_checked("config", PandaConfig, **base_fields),
        overrides={k: dict(v) for k, v in overrides.items()},
        oracle_options=dict(oracle_options),
    )
    for opt in exp.optimizers:
        _checked("config", exp.config_for, opt, exp.seeds[0])
    return exp


# --------------------------------------------------------------------------
# Running experiments
# --------------------------------------------------------------------------

def _run_one(exp: ExperimentConfig, optimizer: str, seed: int) -> dict:
    """Worker: one (optimizer, seed) run of a loaded config; returns plain picklable rows."""
    env = build_env(exp.env_name, **exp.env_overrides)
    cfg = exp.config_for(optimizer, seed)
    options = exp.oracle_options if optimizer == "oracle" else {}
    t0 = time.perf_counter()
    error = None
    try:
        result = OPTIMIZERS[optimizer](env, cfg, **options)
    except RUN_ABORTS as e:
        result = e.partial
        error = f"{e} (outer {e.outer}, {e.phase})"
    wall = time.perf_counter() - t0
    return {
        "optimizer": optimizer,
        "seed": seed,
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
    jobs = [(exp, opt, seed) for opt in exp.optimizers for seed in exp.seeds]
    workers = _worker_count(len(jobs))
    log.info("running %d jobs on %d workers", len(jobs), workers)
    if workers == 1:
        return [_run_one(*job) for job in jobs]
    # imported here, not at the top: the pool modules add 1.5 MB to the resident memory
    # of every process that imports this module, most of which never start a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, *zip(*jobs)))


def _csv_row(row) -> str:
    """One `CSV_HEADER` row of a run: floats in shortest round-trip form, wall clock zeroed."""
    it, steps, *floats = row
    return ",".join([f"{it}", f"{steps}", *(repr(float(x)) for x in floats), "0"])


def write_outputs(exp: ExperimentConfig, results: list[dict], out: Path) -> None:
    """Write each run's CSV and the manifest into the existing directory `out`."""
    for res in results:
        res["csv"] = f"{exp.name}_{res['optimizer']}_seed{res['seed']}.csv"
        (out / res["csv"]).write_text("\n".join([CSV_HEADER, *map(_csv_row, res["rows"])]) + "\n")
    from importlib.metadata import PackageNotFoundError, version
    try:
        pkg_version = version("panda")
    except PackageNotFoundError:
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


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _load_run_write(args):
    """Load the config, make the output directory, run every (optimizer, seed) pair,
    write the CSVs and the manifest, and report aborted runs; returns (exp, results, out).

    A directory that cannot be made is a configuration error, raised before any run."""
    exp = load_experiment(args.config, args.seed)
    if args.command == "compare" and len(exp.optimizers) < 2:
        raise ConfigError("compare needs at least two optimizers")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {out}: {e}") from e
    results = execute_runs(exp)
    write_outputs(exp, results, out)
    for r in results:
        if r["error"]:
            print(f"error: {r['optimizer']} seed {r['seed']} aborted: {r['error']}",
                  file=sys.stderr)
    return exp, results, out


def cmd_run(args) -> int:
    _, results, _ = _load_run_write(args)
    for r in results:
        status = "aborted" if r["error"] else "ok"
        print(f"{r['optimizer']:12s} seed={r['seed']:<4d} rows={len(r['rows']):4d} "
              f"env_steps={r['final_env_steps']:<10d} {status}")
    return 3 if any(r["error"] for r in results) else 0


def cmd_compare(args) -> int:
    exp, results, out = _load_run_write(args)
    lines = ["optimizer,seed," + CSV_HEADER]
    for r in results:
        lines.extend(f"{r['optimizer']},{r['seed']},{_csv_row(row)}" for row in r["rows"])
    (out / f"{exp.name}_compare.csv").write_text("\n".join(lines) + "\n")
    if any(r["error"] for r in results):
        return 3

    # sampled optimizers must have spent comparable env-step budgets
    finals = [r["final_env_steps"] for r in results if r["optimizer"] != "oracle"]
    if finals and min(finals) < 0.5 * max(finals):
        raise ConfigError("env-step budgets differ by more than 2x across sampled "
                          "optimizers; set env_step_budget for a fair comparison")

    print(f"{'optimizer':12s} {'median f':>14s} {'median gap':>14s} "
          f"{'median steps':>14s}")
    for opt in exp.optimizers:
        # no run aborted, so every run has its final row
        finals = np.array([r["rows"][-1] for r in results if r["optimizer"] == opt])
        _, steps, f_val, gap, _ = np.median(finals, axis=0)
        print(f"{opt:12s} {f_val:14.6g} {gap:14.6g} {steps:14.6g}")
    return 0


def cmd_check(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from "
                          f"operators, equilibrium, gradients, estimators, pl, all") from None
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
    p_cmp.set_defaults(fn=cmd_compare, seed=None)

    p_chk = sub.add_parser("check", help="run a property suite")
    p_chk.add_argument("suite")
    p_chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
