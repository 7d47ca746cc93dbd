#!/usr/bin/env python3
"""Benchmark of the panda package: three workloads, whole-run metrics and a traced per-layer breakdown.

Run from the root of the repository:

    python3 bench/run.py --workload synthetic-sampled --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

One invocation measures one workload in its own process.  It imports panda
from ./src, loads the workload's packaged config and builds its environment
(`setup_s`), then runs the workload's fixed slice of optimizer runs again and
again ("rounds") for --seconds seconds, and reports the median round time
(`run_s`) and the process's peak resident set size (`peak_rss_mb`).  With
--trace 1 it alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones instead.  Every run's final iterate is checked
against recomputations in bench/reference.py, and every round must repeat the
first one bit for bit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
TRACE_DIR = HERE / "out"

SETUP_PROBES = 8          # extra processes that only set up, for the median setup_s
TRACED_SETUPS = 5         # traced load_experiment + build_env calls for their median
UL_TOL = 1e-9             # forward vs backward sums of the same finite series
GAP_TOL = 1e-8            # the package's solvers stop at value error 1e-9, ours at 1e-11


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str            # packaged config under configs/
    optimizers: tuple      # run in this order, once each per round
    outer_iters: int       # the slice: first outer iterations of each run


WORKLOADS = {
    # thousands of tiny batches (B=16, H=3): per-batch and per-trajectory
    # overhead of sampling dominates, exact evaluation is under 1%
    "synthetic-sampled": Workload("synthetic.json", ("panda", "pbrl", "alternating"), 10),
    # long rollouts (B=64, H=20) on the 626-state grid, plus exact evaluations
    # at the packaged cadence on its dense 78 MB transition tensor
    "sentinel-sampled": Workload("sentinel.json", ("panda", "alternating"), 5),
    # no sampling at all: thousands of small exact solves and gradients bound
    # by per-call overhead; the oracle is deterministic, so --seed changes nothing
    "synthetic-oracle": Workload("oracle_stationarity.json", ("oracle",), 10),
}


class SetupError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

def setup(wl: Workload):
    """Import panda from ./src, load the config, build the environment; return (panda, exp, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        panda = importlib.import_module("panda")
        for sub in ("cli", "envs", "exact", "optim", "sampling"):
            importlib.import_module(f"panda.{sub}")
    except ImportError as e:
        raise SetupError(f"cannot import panda from {SRC}: {e}") from e
    if Path(panda.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported panda from {panda.__file__}, not from {SRC}")
    try:
        exp = panda.cli.load_experiment(CONFIGS / wl.config)
    except panda.cli.ConfigError as e:
        raise SetupError(str(e)) from e
    panda.envs.build_env(exp.env_name, **exp.env_overrides)
    return panda, exp, time.perf_counter() - t0


def probe_setups(name: str) -> list[float]:
    """setup_s of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        try:
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                                  name, "--setup-probe"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=120)
        except subprocess.TimeoutExpired as e:
            raise SetupError(f"setup probe did not finish in {e.timeout} s") from e
        if out.returncode != 0:
            raise SetupError(f"setup probe failed: {out.stderr.strip()}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# --------------------------------------------------------------------------
# Rounds
# --------------------------------------------------------------------------

@dataclasses.dataclass
class Run:
    optimizer: str
    cfg: object
    result: object          # RunResult, partial when aborted
    error: str | None
    seconds: float
    digest: str


def digest(result) -> str:
    """Hash of everything a run records except wall-clock times."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(struct.pack("<qqddd", r.outer_iter, r.env_steps, r.ul_objective,
                             r.ni_gap, r.grad_norm))
    st = result.state
    for a in (st.x, st.policy_min.logits, st.policy_max.logits,
              st.shadow_min.logits, st.shadow_max.logits):
        h.update(a.tobytes())
    h.update(struct.pack("<q", st.env_steps))
    return h.hexdigest()


def slice_config(exp, opt: str, seed: int, outer_iters: int):
    return dataclasses.replace(exp.config_for(opt, seed), outer_iters=outer_iters)


def run_round(panda, exp, wl: Workload, seed: int, tracer=None) -> list[Run]:
    """One pass over the slice.  Each run gets a freshly built environment, as in `panda run`."""
    runs = []
    for opt in wl.optimizers:
        env = panda.envs.build_env(exp.env_name, **exp.env_overrides)
        cfg = slice_config(exp, opt, seed, wl.outer_iters)
        runner = panda.optim.OPTIMIZERS[opt]
        kwargs = exp.oracle_options if opt == "oracle" else {}
        uninstall = tracer.install() if tracer else None
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.run(runner, env, cfg, **kwargs) if tracer else runner(env, cfg, **kwargs)
        except panda.optim.NonFiniteGradientError as e:
            result, error = e.partial, str(e)
        finally:
            seconds = time.perf_counter() - t0
            if uninstall:
                uninstall()
        del env     # so that the next run's environment does not share the peak with this one
        runs.append(Run(opt, cfg, result, error, seconds, digest(result)))
    return runs


def round_seconds(runs: list[Run]) -> float:
    return sum(r.seconds for r in runs)


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def max_steps_per_outer(opt: str, cfg, env) -> int:
    """Batches an outer iteration draws, times batch size, times horizon."""
    ll = cfg.batch_traj * cfg.horizon
    ul = cfg.batch_ul * env.ul.horizon
    if opt == "alternating":
        return cfg.inner_iters * 2 * ll + ul
    return cfg.inner_iters * (4 * ll + ul) + 2 * ll + ul


def check_run(panda, exp, wl: Workload, run: Run, seed: int, deviations: dict) -> list[str]:
    """Recompute a run's final records apart from the package; return what disagrees."""
    import reference as ref

    env = panda.envs.build_env(exp.env_name, **exp.env_overrides)
    g = env.game
    game = ref.Game(g.transition, g.init_dist, g.absorbing, g.discount, g.tau_min, g.tau_max)
    st, last = run.result.state, run.result.records[-1]
    ly, lz = ref.log_softmax(st.policy_min.logits), ref.log_softmax(st.policy_max.logits)
    problems = []

    def compare(what, recorded, recomputed, tol):
        deviations[what] = max(deviations.get(what, 0.0), abs(recorded - recomputed))
        if not ref.agrees(recorded, recomputed, tol):
            problems.append(f"{run.optimizer}: {what} {recorded!r} != recomputed {recomputed!r}")

    ul = env.ul
    if env.name == "synthetic":
        mdp = ul.mdp
        ul_game = ref.Game(mdp.transition, mdp.init_dist, mdp.absorbing, mdp.discount,
                           mdp.tau_min, mdp.tau_max)
        f = -ref.forward_return(ul_game, ul.reward_id.base, ly, lz, ul.horizon, mdp.discount)
    else:
        count = ul.restricted_state.astype(float)[:, None, None]
        f = ref.forward_return(game, count, ly, lz, ul.horizon, 1.0)
    compare("ul_objective", last.ul_objective, f, UL_TOL)

    r = ref.incentive_reward(env.model.base, env.model.incentive_scale, st.x, g.absorbing)
    gap = ref.ni_gap(game, r, ly, lz)
    compare("ni_gap", last.ni_gap, gap, GAP_TOL)
    if gap < -GAP_TOL:
        problems.append(f"{run.optimizer}: NI gap {gap!r} < 0")

    steps = [rec.env_steps for rec in run.result.records]
    if run.optimizer == "oracle":
        if any(steps) or st.env_steps:
            problems.append("oracle: recorded environment steps")
        # the stored shadows answer the policies at the x the last outer
        # iteration started from, which a run one iteration shorter ends at
        prev = panda.optim.OPTIMIZERS["oracle"](
            env, slice_config(exp, "oracle", seed, wl.outer_iters - 1), **exp.oracle_options)
        r_prev = ref.incentive_reward(env.model.base, env.model.incentive_scale,
                                      prev.state.x, g.absorbing)
        compare("J(y, shadow_max) - max_z J", ref.pair_value(
            game, r_prev, ly, ref.log_softmax(st.shadow_max.logits)),
            ref.best_response_value(game, r_prev, ly, "max"), GAP_TOL)
        compare("J(shadow_min, z) - min_y J", ref.pair_value(
            game, r_prev, ref.log_softmax(st.shadow_min.logits), lz),
            ref.best_response_value(game, r_prev, lz, "min"), GAP_TOL)
    else:
        bound = max_steps_per_outer(run.optimizer, run.cfg, env)
        for before, after in zip([0] + steps, steps):
            if not 0 <= after - before <= bound:
                problems.append(f"{run.optimizer}: env_steps went {before} -> {after} "
                                f"in one outer iteration (allowed 0..{bound})")
                break
    return problems


def self_test() -> list[str]:
    """Run the checkers' own tests (bench/test_reference.py); return the names that fail."""
    import test_reference

    failed = []
    for name in sorted(vars(test_reference)):
        if name.startswith("test_"):
            try:
                getattr(test_reference, name)()
            except Exception as e:      # a test that raises has failed, whatever it raised
                failed.append(f"{name}: {e!r}")
    return failed


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    panda, exp, own_setup = setup(wl)
    notes = []
    problems = [f"self-test failed: {t}" for t in self_test()]
    setups = [own_setup] + probe_setups(name)

    untraced, traced = [], []        # lists of rounds
    tracers = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        untraced.append(run_round(panda, exp, wl, seed))
        if trace:
            tracers.append(spans.Tracer())
            traced.append(run_round(panda, exp, wl, seed, tracers[-1]))
        last = time.perf_counter() - t_round
        if time.perf_counter() - start + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    first = untraced[0]
    problems += sorted({f"{a.optimizer}: a repeated run recorded different values"
                        for rnd in untraced[1:] + traced for a, b in zip(first, rnd)
                        if a.digest != b.digest or a.error != b.error})
    check_failed = set()
    deviations: dict[str, float] = {}
    for i, run in enumerate(first):
        if run.error:
            notes.append(f"{run.optimizer} aborted: {run.error}")
            continue
        try:
            found = check_run(panda, exp, wl, run, seed, deviations)
        except Exception as e:      # a check that cannot finish fails the run, not the benchmark
            found = [f"{run.optimizer}: check raised {e!r}"]
        if found:
            check_failed.add(i)
            notes.extend(found)
    notes.append("largest deviation from recomputation: " + ", ".join(
        f"{k} {v:.2e}" for k, v in deviations.items()))
    rounds = untraced + traced
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for i, run in enumerate(rnd)
                 if run.error or i in check_failed)

    if trace:
        metrics = layer_metrics(panda, exp, wl, untraced, traced, tracers, problems)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracers[0].dump(trace_file)
        notes.append(f"{len(traced)} traced and {len(untraced)} untraced rounds; "
                     f"spans of the first traced round in {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(round_seconds(r) for r in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes.append(f"round seconds {[round(round_seconds(r), 3) for r in untraced]}; "
                     f"setup seconds {[round(s, 4) for s in setups]}")
    return result(problems, attempted, failed, metrics), notes


def layer_metrics(panda, exp, wl, untraced, traced, tracers, problems) -> dict:
    """Per-layer metrics, as name: (value, unit): medians over the traced rounds."""
    per_round = [spans.round_metrics(t.spans, exp.oracle_options.get("inner_cap"))
                 for t in tracers]
    metrics = {}
    for k, (value, unit) in per_round[0].items():
        values = [m[k][0] for m in per_round]
        if unit == "count":          # fixed by seed and slice
            if len(set(values)) > 1:
                problems.append(f"{k} differs between traced rounds: {values}")
        else:
            value = statistics.median(values)
        metrics[k] = (value, unit)
    first = untraced[0]
    sampled_steps = sum(run.result.state.env_steps for run in first)
    if metrics["sampling.env_steps"][0] != sampled_steps:
        problems.append(f"trace counted {metrics['sampling.env_steps'][0]} env steps, "
                        f"the runs recorded {sampled_steps}")

    setup_tracer = spans.Tracer()
    uninstall = setup_tracer.install()
    try:
        for _ in range(TRACED_SETUPS):
            e = panda.cli.load_experiment(CONFIGS / wl.config)
            env = panda.envs.build_env(e.env_name, **e.env_overrides)
    finally:
        uninstall()
    wall_ms = [rec.wall_ms for rnd in untraced for run in rnd for rec in run.result.records]
    metrics.update({
        "optim.outer_iters": (sum(len(run.result.records) for run in first), "count"),
        "optim.step_ms_p50": (statistics.median(wall_ms), "ms"),
        "optim.nonfinite_aborts": (sum(1 for run in first if run.error), "count"),
        "exact.transition_mb": (sum(v.nbytes for v in vars(env.game).values()
                                    if hasattr(v, "nbytes")) / 1e6, "MB"),
        "envs.build_ms": (spans.median_ms(setup_tracer.spans, "envs.build_env"), "ms"),
        "cli.load_experiment.ms": (spans.median_ms(setup_tracer.spans, "cli.load_experiment"),
                                   "ms"),
        "trace.overhead_s": (statistics.median(round_seconds(r) for r in traced)
                             - statistics.median(round_seconds(r) for r in untraced), "s"),
    })
    return dict(sorted(metrics.items()))


def result(problems, attempted, failed, metrics) -> dict:
    return {"correct": not problems, "problems": problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(name: str, res: dict, notes: list[str]):
    """Print the human-readable summary, then the result as the last line."""
    print(f"workload {name}: attempted {res['attempted']} runs, failed {res['failed']}")
    for k, m in res["metrics"].items():
        print(f"  {k:34s} {m['value']:14.6g} {m['unit']}")
    for line in notes:
        print(f"  note: {line}")
    for line in res["problems"]:
        print(f"  INCORRECT: {line}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], cwd=ROOT)
        status = status or out.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(WORKLOADS[args.workload])[2]}))
            return 0
        res, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(args.workload, res, notes)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
