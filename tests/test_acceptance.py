"""Acceptance gate: the nine package-level checks, one verdict line each.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line into the terminal
summary (see conftest) and asserts the corresponding requirement.  The
heavyweight experiment runs are shared through session-scoped fixtures so
the end-to-end artifacts are produced once and inspected by several tests.
The sha256 of each packaged CSV they write (12 synthetic, 9 sentinel, 1
oracle stationarity) is printed in a ``csv digests`` summary section, so
two test logs show whether the outputs are byte-identical.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, record_csv_digests
from panda.checks import run_suite
from panda.cli import main as cli_main
from panda.envs import SyntheticSpec, build_synthetic
from panda.optim import PandaConfig, exact_metrics, init_state, run_panda

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def record(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


def suite_verdict(num, name, budget_s):
    t0 = time.perf_counter()
    results = run_suite(name)
    wall = time.perf_counter() - t0
    worst = max(r.residual for r in results)
    ok = all(r.passed for r in results) and wall < budget_s
    line = record(num, ok, f"{name} suite: {len(results)} properties, "
                           f"worst residual {worst:.2e}, {wall:.1f}s (< {budget_s}s)")
    assert ok, line


def read_rows(csv_path):
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in row.split(","))))
            for row in lines[1:]]


# --------------------------------------------------------------------------
# 1-5: property suites on seeded instances
# --------------------------------------------------------------------------

def test_acceptance_1_operator_properties():
    suite_verdict(1, "operators", 10)


def test_acceptance_2_equilibrium_solver():
    suite_verdict(2, "equilibrium", 60)


def test_acceptance_3_exact_gradients():
    suite_verdict(3, "gradients", 60)


def test_acceptance_4_sampled_estimators():
    suite_verdict(4, "estimators", 300)


def test_acceptance_5_pl_inequalities():
    suite_verdict(5, "pl", 120)


# --------------------------------------------------------------------------
# 6 / 9: packaged synthetic experiment, run twice for the determinism check
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def synthetic_runs(tmp_path_factory):
    out_a = tmp_path_factory.mktemp("synthetic-a")
    out_b = tmp_path_factory.mktemp("synthetic-b")
    cfg = str(CONFIGS / "synthetic.json")
    t0 = time.perf_counter()
    rc_a = cli_main(["run", "--config", cfg, "--out", str(out_a)])
    wall = time.perf_counter() - t0
    rc_b = cli_main(["run", "--config", cfg, "--out", str(out_b)])
    record_csv_digests(out_a)
    return SimpleNamespace(out_a=out_a, out_b=out_b, rc_a=rc_a, rc_b=rc_b,
                           wall=wall)


def test_acceptance_6_synthetic_end_to_end(synthetic_runs):
    assert synthetic_runs.rc_a == 0
    finals, med_gap, med_value = {}, {}, {}
    init_gap = read_rows(synthetic_runs.out_a / "synthetic_panda_seed0.csv")[0]["ne_gap"]
    for opt in ("panda", "pbrl", "alternating"):
        finals[opt] = [read_rows(synthetic_runs.out_a / f"synthetic_{opt}_seed{s}.csv")[-1]
                       for s in (0, 1, 2)]
        med_gap[opt] = float(np.median([r["ne_gap"] for r in finals[opt]]))
        med_value[opt] = float(np.median([-r["ul_objective"] for r in finals[opt]]))
    oracle_value = -read_rows(synthetic_runs.out_a / "synthetic_oracle_seed0.csv")[-1]["ul_objective"]

    gap_ok = all(med_gap[o] < 0.10 * init_gap for o in med_gap)
    order_ok = (med_value["panda"] >= med_value["pbrl"]
                and med_value["panda"] >= med_value["alternating"])
    oracle_rel = abs(med_value["panda"] - oracle_value) / abs(oracle_value)
    oracle_ok = oracle_rel <= 0.05
    wall_ok = synthetic_runs.wall < 600
    ok = gap_ok and order_ok and oracle_ok and wall_ok
    ratios = ", ".join(f"{o} {med_gap[o] / init_gap:.1%}" for o in med_gap)
    line = record(6, ok, f"final gap vs initial (need <10%): {ratios}; "
                         f"value order ok={order_ok}; oracle rel diff {oracle_rel:.2%} "
                         f"(<=5%); {synthetic_runs.wall:.0f}s (< 600s)")
    assert ok, (f"{line}\nthe <10% gap clause is not met by the stochastic runs at "
                f"the packaged step sizes and batch sizes; the same dynamics driven "
                f"by exact truncated gradients do reach 1.4-8.0% at the same "
                f"iteration counts, so the shortfall is sampling noise, which the "
                f"fixed estimator definition and fixed batch/step sizes leave no "
                f"sanctioned way to reduce (see README, Known limitations)")


def test_acceptance_9_byte_identical_reruns(synthetic_runs):
    assert synthetic_runs.rc_b == 0
    csvs = sorted(p.name for p in synthetic_runs.out_a.glob("*.csv"))
    mismatches = [n for n in csvs
                  if (synthetic_runs.out_a / n).read_bytes()
                  != (synthetic_runs.out_b / n).read_bytes()]
    ok = not mismatches and len(csvs) == 12
    line = record(9, ok, f"rerun of the synthetic experiment: {len(csvs)} CSVs "
                         f"byte-identical (mismatches: {mismatches or 'none'})")
    assert ok, line


# --------------------------------------------------------------------------
# 7: penalty-weight ablation on the synthetic problem
# --------------------------------------------------------------------------

def test_acceptance_7_penalty_weight_ablation():
    env = build_synthetic(SyntheticSpec(seed=0))
    t0 = time.perf_counter()
    med_gap, med_value, spreads = {}, {}, {}
    for lam in (1.0, 4.0, 10.0):
        gaps, values = [], []
        for seed in (0, 1, 2):
            cfg = PandaConfig(lam=lam, outer_iters=400, eval_cadence=10,
                              seed=seed, env_step_budget=200_000)
            rec = run_panda(env, cfg).records[-1]
            gaps.append(rec.ni_gap)
            values.append(-rec.ul_objective)
        med_gap[lam] = float(np.median(gaps))
        med_value[lam] = float(np.median(values))
        spreads[lam] = max(values) - min(values)
    wall = time.perf_counter() - t0

    loose_ok = med_gap[1.0] > med_gap[4.0]
    # "no better than noise": cross-seed spread of the two settings involved
    noise = max(spreads[4.0], spreads[10.0])
    value_ok = med_value[10.0] <= med_value[4.0] + noise
    wall_ok = wall < 900
    ok = loose_ok and value_ok and wall_ok
    line = record(7, ok, f"gap(lam=1)={med_gap[1.0]:.2f} > gap(lam=4)={med_gap[4.0]:.2f}: "
                         f"{loose_ok}; value(lam=10)={med_value[10.0]:.3f} <= "
                         f"value(lam=4)={med_value[4.0]:.3f} + noise {noise:.3f}: "
                         f"{value_ok}; {wall:.0f}s (< 900s)")
    assert ok, line


# --------------------------------------------------------------------------
# 8: grid pursuit experiment plus the exact-gradient stationarity run
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sentinel_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sentinel")
    t0 = time.perf_counter()
    rc = cli_main(["run", "--config", str(CONFIGS / "sentinel.json"),
                   "--out", str(out)])
    wall = time.perf_counter() - t0
    record_csv_digests(out)
    return SimpleNamespace(out=out, rc=rc, wall=wall)


def test_acceptance_8_pursuit_and_stationarity(sentinel_runs, tmp_path):
    assert sentinel_runs.rc == 0
    med_loss = {}
    for opt in ("panda", "pbrl", "alternating"):
        rows = [read_rows(sentinel_runs.out / f"sentinel_{opt}_seed{s}.csv")[-1]
                for s in (0, 1, 2)]
        med_loss[opt] = float(np.median([r["ul_objective"] for r in rows]))
    loss_ok = (med_loss["panda"] <= med_loss["pbrl"]
               and med_loss["panda"] <= med_loss["alternating"])

    t0 = time.perf_counter()
    rc = cli_main(["run", "--config", str(CONFIGS / "oracle_stationarity.json"),
                   "--out", str(tmp_path)])
    oracle_wall = time.perf_counter() - t0
    record_csv_digests(tmp_path)
    assert rc == 0
    grad_norm = np.array([r["grad_norm"] for r in
                          read_rows(tmp_path / "oracle_stationarity_oracle_seed0.csv")])
    quarters = [float(np.median(q)) for q in np.array_split(grad_norm, 4)]
    trend_ok = all(b < a for a, b in zip(quarters, quarters[1:]))
    stationary_ok = grad_norm[-1] < 1e-3

    wall = sentinel_runs.wall + oracle_wall
    wall_ok = wall < 1800
    ok = loss_ok and trend_ok and stationary_ok and wall_ok
    losses = ", ".join(f"{o} {v:.3f}" for o, v in med_loss.items())
    line = record(8, ok, f"median final pursuit loss: {losses} (panda lowest: "
                         f"{loss_ok}); exact-grad norm quarters "
                         f"{'>'.join(f'{q:.1e}' for q in quarters)} "
                         f"(monotone: {trend_ok}), final {grad_norm[-1]:.1e} < 1e-3; "
                         f"{wall:.0f}s (< 1800s)")
    assert ok, line
