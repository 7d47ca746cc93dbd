import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import panda
from conftest import random_game, random_policies
from panda import optim
from panda.cli import load_experiment
from panda.envs import EnvBundle, SyntheticSpec, build_env, build_synthetic
from panda.exact import exact_grads_truncated, ni_gap, ni_gradients, solve_ne
from panda.game import TabularPolicy
from panda.sampling import n_env_steps
from panda.optim import (
    NonFiniteGradientError,
    OptimizerState,
    PandaConfig,
    OPTIMIZERS,
    RunRecord,
    _Sampled,
    _shadow_inner_step,
    exact_metrics,
    init_state,
    run_alternating,
    run_oracle,
    run_panda,
    run_pbrl,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class ZeroUL:
    """Upper-level objective that is identically zero (pure gap minimization)."""

    def value_exact(self, model, policy_min, policy_max):
        return 0.0

    def grad_policies_exact(self, model, policy_min, policy_max):
        return (np.zeros_like(policy_min.logits), np.zeros_like(policy_max.logits))

    def grad_x_exact(self, model, policy_min, policy_max):
        return np.zeros_like(model.incentive_params)

    def value_estimate(self, model, policy_min, policy_max, batch, stream,
                       purpose=0, outer=0, inner=0):
        return 0.0, 0

    def grad_policies_estimate(self, model, policy_min, policy_max, batch, stream,
                               purpose=0, outer=0, inner=0):
        gmin, gmax = self.grad_policies_exact(model, policy_min, policy_max)
        return gmin, gmax, 0

    def grad_x_estimate(self, model, policy_min, policy_max, batch, stream,
                        purpose=0, outer=0, inner=0):
        return np.zeros_like(model.incentive_params), 0


def zero_ul_env(seed=0, n_states=3, na=2, nb=2, gamma=0.8, **kw):
    game, model = random_game(seed, n_states=n_states, na=na, nb=nb,
                              gamma=gamma, **kw)
    return EnvBundle(name="stub", game=game, model=model, ul=ZeroUL())


def test_config_validation():
    with pytest.raises(ValueError):
        PandaConfig(outer_iters=0)
    with pytest.raises(ValueError):
        PandaConfig(lam=0.0)
    with pytest.raises(ValueError):
        PandaConfig(batch_traj=0)
    with pytest.raises(ValueError):
        PandaConfig(eval_cadence=0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"lam": nan}, {"lam": inf}, {"eta_x": inf}, {"eta_theta": -1.0},
                {"eta_shadow_min": nan}, {"eta_shadow_max": -inf},
                {"env_step_budget": -1}, {"inner_iters": 1.5}, {"outer_iters": True},
                {"batch_traj": 2.0}, {"batch_ul": "4"}, {"horizon": 3.0}, {"seed": 0.5},
                {"eval_cadence": False}, {"env_step_budget": 1e5},
                {"lam": True}, {"lam": True, "eta_x": True}, {"eta_theta": False},
                {"eta_shadow_min": "0.1"}, {"lam": None}, {"eta_x": 1j},
                {"eta_shadow_max": np.bool_(True)}):
        with pytest.raises(ValueError):
            PandaConfig(**bad)
    PandaConfig(eta_x=0.0, eta_theta=0.0, env_step_budget=0)  # boundaries are valid
    PandaConfig(outer_iters=np.int64(3), seed=np.int64(2))  # numpy integers are integers
    PandaConfig(lam=2, eta_x=np.float64(0.1), eta_theta=np.int64(1))  # any real number


def test_zero_learning_rates_leave_state_fixed():
    env = build_synthetic(SyntheticSpec(seed=0))
    cfg = PandaConfig(outer_iters=3, inner_iters=2, eta_x=0.0, eta_theta=0.0,
                      eta_shadow_min=0.0, eta_shadow_max=0.0, seed=3)
    res = run_panda(env, cfg)
    ref = init_state(env)
    assert np.array_equal(res.state.x, ref.x)
    assert np.array_equal(res.state.policy_min.logits, ref.policy_min.logits)
    assert np.array_equal(res.state.shadow_max.logits, ref.shadow_max.logits)
    assert res.state.env_steps > 0  # batches are still drawn and accounted


def test_single_outer_iteration_single_record():
    env = build_synthetic(SyntheticSpec(seed=1))
    cfg = PandaConfig(outer_iters=1, inner_iters=2, seed=4, eval_cadence=5)
    res = run_panda(env, cfg)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.outer_iter == 1 and rec.env_steps == res.state.env_steps
    # final row always holds freshly evaluated exact metrics
    m = exact_metrics(env, res.state, cfg.lam)
    assert rec.ul_objective == pytest.approx(m.ul_objective, abs=1e-9)
    assert rec.ni_gap == pytest.approx(m.ni_gap, abs=1e-8)
    assert rec.grad_norm == pytest.approx(m.grad_norm, rel=1e-6)


def test_runs_are_bitwise_deterministic():
    env = build_synthetic(SyntheticSpec(seed=2))
    cfg = PandaConfig(outer_iters=4, inner_iters=3, seed=11, eval_cadence=2)
    for runner in (run_panda, run_pbrl, run_alternating):
        a, b = runner(env, cfg), runner(env, cfg)
        assert np.array_equal(a.state.x, b.state.x)
        assert np.array_equal(a.state.policy_min.logits, b.state.policy_min.logits)
        assert np.array_equal(a.state.policy_max.logits, b.state.policy_max.logits)
        for ra, rb in zip(a.records, b.records, strict=True):
            assert (ra.outer_iter, ra.env_steps) == (rb.outer_iter, rb.env_steps)
            assert ra.ul_objective == rb.ul_objective
            assert ra.ni_gap == rb.ni_gap
            assert ra.grad_norm == rb.grad_norm


def _state_digest(state):
    h = hashlib.sha256()
    for a in (state.x, state.policy_min.logits, state.policy_max.logits,
              state.shadow_min.logits, state.shadow_max.logits):
        h.update(a.tobytes())
    return h.hexdigest()


_GRID_RUN = """
import hashlib, json
from panda.envs import GridSpec, build_sentinel
from panda.optim import PandaConfig, run_panda
grid = run_panda(build_sentinel(GridSpec()),
                 PandaConfig(outer_iters=2, inner_iters=1, batch_traj=8, batch_ul=4,
                             horizon=20, eval_cadence=1, seed=0))
h = hashlib.sha256()
for a in (grid.state.x, grid.state.policy_min.logits, grid.state.policy_max.logits,
          grid.state.shadow_min.logits, grid.state.shadow_max.logits):
    h.update(a.tobytes())
print(json.dumps({"rows": [(r.env_steps, r.ul_objective, r.ni_gap, r.grad_norm)
                           for r in grid.records], "digest": h.hexdigest()}))
"""


def _run_on_blas_threads(code: str, threads: int) -> dict:
    """Run `code` in a fresh interpreter whose BLAS uses `threads` threads; parse its JSON output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(panda.__file__)))
    n = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_outputs_pinned_across_versions():
    """Short oracle and panda runs reproduce recorded numbers bit for bit.

    The literals were captured from an earlier version of the package, so a
    change in float summation order along these paths (exact gradients, soft
    policy iteration, sampling, the REINFORCE loop) shows up here even though
    reruns of one version stay identical.  The synthetic ul_objective is not
    pinned: its last bits differ from those of the version the literals come
    from.  The sentinel run pins the matrix-free exact layer and the grid
    sampler, ul_objective included.  It runs in a subprocess on one BLAS
    thread, and `test_grid_run_does_not_depend_on_the_blas_thread_count`
    checks that two threads give the same output.
    """
    env = build_synthetic(SyntheticSpec(seed=0))
    oracle = run_oracle(env, PandaConfig(outer_iters=2, eta_x=3.0, eta_theta=1.0,
                                         eval_cadence=1),
                        inner_tol=1e-5, inner_cap=20, br_tol=1e-9)
    panda = run_panda(env, PandaConfig(outer_iters=2, inner_iters=3, eval_cadence=1,
                                       seed=0))
    expected = {
        "oracle": ([(0, 14.769317297195926, 35.96525125399707),
                    (0, 24.712000360888197, 28.82268962880828)],
                   "22b2f482158d43ffe7854522f367e633542ed149a250afe0a7f213ba410d0946"),
        "panda": ([(816, 14.011618428292564, 31.550970644692253),
                   (1632, 13.425916046546618, 31.170488640235092)],
                  "c195057015030030e71d5654fab21e511e0d033d6a2c2e8b9b026f82ce382ff5"),
    }
    for name, res in (("oracle", oracle), ("panda", panda)):
        rows, digest = expected[name]
        assert [(r.env_steps, r.ni_gap, r.grad_norm) for r in res.records] == rows, name
        assert _state_digest(res.state) == digest, name

    grid = _run_on_blas_threads(_GRID_RUN, 1)
    assert [tuple(row) for row in grid["rows"]] == [
        (822, 6.12383574012762, 17.475648244191973, 1.082495509981387),
        (1733, 6.003298260565904, 17.47875095785675, 1.0473653855170046)]
    assert grid["digest"] == "7bbc057abb06bd5affdf4a05dbb8f8919652ab6a0a5f800124edd2e74ed6db25"


def test_grid_run_does_not_depend_on_the_blas_thread_count():
    """The grid run gives the same records and state at one and at two BLAS threads."""
    assert _run_on_blas_threads(_GRID_RUN, 1) == _run_on_blas_threads(_GRID_RUN, 2)


def test_seed_changes_the_run():
    env = build_synthetic(SyntheticSpec(seed=2))
    a = run_panda(env, PandaConfig(outer_iters=2, inner_iters=2, seed=1))
    b = run_panda(env, PandaConfig(outer_iters=2, inner_iters=2, seed=2))
    assert not np.array_equal(a.state.policy_min.logits, b.state.policy_min.logits)


def test_env_step_budget_stops_run():
    env = build_synthetic(SyntheticSpec(seed=3))
    cfg = PandaConfig(outer_iters=50, inner_iters=2, seed=5, env_step_budget=100)
    res = run_panda(env, cfg)
    assert len(res.records) == 1  # one inner iteration already exceeds 100 steps
    assert res.state.env_steps >= 100
    assert res.records[-1].env_steps == res.state.env_steps


def test_eval_cadence_carries_metrics_forward():
    env = build_synthetic(SyntheticSpec(seed=4))
    cfg = PandaConfig(outer_iters=7, inner_iters=1, seed=6, eval_cadence=3)
    recs = run_panda(env, cfg).records
    # fresh at outer 3, 6 (cadence) and 7 (final); carried elsewhere
    assert recs[0].ni_gap == recs[1].ni_gap
    assert recs[2].ni_gap != recs[1].ni_gap
    assert recs[3].ni_gap == recs[2].ni_gap == recs[4].ni_gap
    assert recs[5].ni_gap != recs[4].ni_gap
    assert recs[6].ni_gap != recs[5].ni_gap
    assert [r.outer_iter for r in recs] == list(range(1, 8))
    steps = [r.env_steps for r in recs]
    assert steps == sorted(steps) and steps[0] > 0


def test_records_are_finite():
    env = build_synthetic(SyntheticSpec(seed=5))
    res = run_pbrl(env, PandaConfig(outer_iters=6, inner_iters=2, seed=7))
    for r in res.records:
        assert np.isfinite([r.ul_objective, r.ni_gap, r.grad_norm]).all()
        assert r.wall_ms >= 0.0


def test_alternating_leaves_incentives_static_and_reduces_gap():
    env = build_synthetic(SyntheticSpec(seed=6))
    cfg = PandaConfig(outer_iters=30, inner_iters=10, seed=8, eval_cadence=30)
    res = run_alternating(env, cfg)
    assert np.array_equal(res.state.x, np.zeros_like(res.state.x))
    assert res.records[-1].ni_gap < 0.6 * res.records[0].ni_gap


def test_panda_reduces_gap_on_synthetic():
    env = build_synthetic(SyntheticSpec(seed=0))
    cfg = PandaConfig(outer_iters=60, inner_iters=10, seed=9, eval_cadence=30)
    res = run_panda(env, cfg)
    first = exact_metrics(env, init_state(env), cfg.lam).ni_gap
    assert res.records[-1].ni_gap < 0.6 * first


def test_oracle_single_inner_step_is_exact_gap_descent():
    """With a zero upper level, one oracle inner step follows -eta * grad(gap)."""
    env = zero_ul_env(seed=7, gamma=0.9)
    eta = 0.2
    cfg = PandaConfig(outer_iters=1, inner_iters=1, eta_theta=eta, eta_x=0.0,
                      seed=0, lam=4.0)
    res = run_oracle(env, cfg, inner_tol=0.0, inner_cap=1, br_tol=1e-12)
    ref = init_state(env)
    ni = ni_gradients(env.game, env.model, ref.policy_min, ref.policy_max, tol=1e-12)
    np.testing.assert_allclose(res.state.policy_min.logits,
                               ref.policy_min.logits - eta * ni.grad_min, atol=1e-9)
    np.testing.assert_allclose(res.state.policy_max.logits,
                               ref.policy_max.logits - eta * ni.grad_max, atol=1e-9)


def test_oracle_consumes_no_env_steps_and_descends():
    env = build_synthetic(SyntheticSpec(seed=8))
    cfg = PandaConfig(outer_iters=25, eval_cadence=5, seed=0,
                      eta_theta=1.0, eta_x=3.0)
    res = run_oracle(env, cfg, inner_tol=1e-5, inner_cap=300, br_tol=1e-9)
    assert res.state.env_steps == 0
    assert all(r.env_steps == 0 for r in res.records)
    assert res.records[-1].grad_norm < 1e-1 * res.records[0].grad_norm
    assert res.records[-1].ni_gap < 1e-2


class TruncatedExact:
    """Gradient source of exact horizon-truncated J gradients: the sampled estimators' means.

    The upper-level gradients are exact too; no environment steps are spent,
    so the state's count is never touched.
    """

    def __init__(self, env, cfg, state):
        self.env, self.horizon = env, cfg.horizon

    def j_grads(self, model_x, requests, outer, inner):
        return [exact_grads_truncated(self.env.game, model_x, policy_min, policy_max,
                                      self.horizon)[("min", "max", "x").index(side)]
                for policy_min, policy_max, side, _ in requests]

    def ul_policies(self, model_x, policy_min, policy_max, outer, inner):
        return self.env.ul.grad_policies_exact(model_x, policy_min, policy_max)

    def ul_x(self, model_x, policy_min, policy_max, outer):
        return self.env.ul.grad_x_exact(model_x, policy_min, policy_max)


def test_exact_truncated_gradients_reach_the_documented_gaps(monkeypatch):
    """The sampled optimizers' update rules on exact truncated gradients.

    On configs/synthetic.json, for the outer-iteration counts its sampled
    runs reach within their step budget (81 rows for panda and pbrl, 209 for
    alternating), the final gap is 8.0% / 7.9% / 1.4% of the initial one:
    the 1.4-8.0% the README's known limitations and acceptance 6 cite.
    """
    monkeypatch.setattr(optim, "_Sampled", TruncatedExact)
    exp = load_experiment(CONFIGS / "synthetic.json")
    env = build_env(exp.env_name, **exp.env_overrides)
    ratios = {}
    for name, outer_iters in (("panda", 81), ("pbrl", 81), ("alternating", 209)):
        cfg = dataclasses.replace(exp.config_for(name, 0), env_step_budget=None,
                                  outer_iters=outer_iters)
        records = OPTIMIZERS[name](env, cfg).records
        assert len(records) == outer_iters and records[-1].env_steps == 0
        ratios[name] = records[-1].ni_gap / records[0].ni_gap
    assert ratios == pytest.approx({"panda": 0.080, "pbrl": 0.079, "alternating": 0.014},
                                   abs=1e-3)


def test_inner_updates_unbiased_at_equilibrium():
    """At the exact NE with no upper level, E[policy update] is ~0.

    The shadow steps perturb the shadows off the NE before the penalty
    gradients are drawn, so the update mean carries an O(eta_shadow^2) term;
    with a small shadow step it sits inside the Monte Carlo error band.
    """
    env = zero_ul_env(seed=9, gamma=0.75, reward_lo=0.0, reward_hi=1.0)
    ne = solve_ne(env.game, env.model)
    ne_min = TabularPolicy(np.log(ne.policy_min))
    ne_max = TabularPolicy(np.log(ne.policy_max))
    cfg = PandaConfig(outer_iters=1, inner_iters=1, eta_theta=1.0,
                      eta_shadow_min=0.01, eta_shadow_max=0.01,
                      batch_traj=8, horizon=40, seed=17)
    reps = 200
    deltas_min, deltas_max = [], []
    for rep in range(reps):
        state = OptimizerState(x=env.model.incentive_params.copy(),
                               policy_min=ne_min, policy_max=ne_max,
                               shadow_min=ne_min, shadow_max=ne_max)
        _shadow_inner_step(_Sampled(env, cfg, state), cfg, state,
                           env.model.with_params(state.x), 1.0 / cfg.lam, 1.0, rep, 0)
        deltas_min.append((state.policy_min.logits - ne_min.logits).ravel())
        deltas_max.append((state.policy_max.logits - ne_max.logits).ravel())
    for deltas in (deltas_min, deltas_max):
        d = np.array(deltas)
        se = d.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(d.mean(axis=0)) <= 4 * se + 1e-3), \
            (np.abs(d.mean(axis=0)).max(), se.max())


def test_non_finite_gradient_raises():
    class BadUL(ZeroUL):
        def grad_policies_estimate(self, model, policy_min, policy_max, batch,
                                   stream, purpose=0, outer=0, inner=0):
            bad = np.full_like(policy_min.logits, np.inf)
            return bad, np.zeros_like(policy_max.logits), 0

    game, model = random_game(10, n_states=3, na=2, nb=2, gamma=0.8)
    env = EnvBundle(name="bad", game=game, model=model, ul=BadUL())
    with pytest.raises(NonFiniteGradientError) as exc:
        run_panda(env, PandaConfig(outer_iters=2, inner_iters=1, seed=0))
    assert "min-policy" in str(exc.value)


def test_aborted_run_counts_every_env_step_drawn(monkeypatch):
    """A run that aborts mid-iteration reports the steps of every batch it drew.

    The step size overflows the policy logits at the first penalty step
    (outer 0, inner 0), after the shadow, upper-level and penalty batches of
    that iteration are drawn; the count is read off the batches themselves.
    """
    drawn = []

    def counting(sample):
        def wrapper(*args, **kwargs):
            batch = sample(*args, **kwargs)
            drawn.append(n_env_steps(batch))
            return batch
        return wrapper

    for module in (optim, panda.envs):
        monkeypatch.setattr(module, "sample_batch", counting(module.sample_batch))
    env = build_env("synthetic", seed=0)
    cfg = PandaConfig(outer_iters=6, inner_iters=1, batch_traj=2, batch_ul=2, horizon=40,
                      eta_theta=1e307, seed=0)
    with pytest.raises(NonFiniteGradientError) as exc:
        run_panda(env, cfg)
    e = exc.value
    assert str(e) == "non-finite min-policy gradient at inner 0"
    assert (e.what, e.inner, e.outer, e.phase) == ("min-policy", 0, 0, "step")
    assert len(drawn) == 3 and e.partial.records == []
    assert e.partial.state.env_steps == sum(drawn) == 326


def test_exact_metrics_consistency():
    env = build_synthetic(SyntheticSpec(seed=11))
    state = init_state(env)
    rng = np.random.default_rng(3)
    state.x = rng.normal(scale=0.4, size=state.x.shape)
    pmin, pmax = random_policies(rng, 5, 3, 3)
    state.policy_min, state.policy_max = pmin, pmax
    m = exact_metrics(env, state, lam=4.0)
    model_x = env.model.with_params(state.x)
    assert m.ul_objective == pytest.approx(
        env.ul.value_exact(model_x, pmin, pmax), abs=1e-12)
    assert m.ni_gap == pytest.approx(
        ni_gap(env.game, model_x, pmin, pmax, tol=1e-10), abs=1e-7)
    assert m.grad_norm > 0.0


def test_pbrl_differs_from_panda_through_shadow_resets():
    env = build_synthetic(SyntheticSpec(seed=12))
    cfg = PandaConfig(outer_iters=3, inner_iters=2, seed=21)
    a = run_panda(env, cfg)
    b = run_pbrl(env, cfg)
    # same seed, same batches at outer 0; divergence appears once warm-started
    # shadows survive into outer 1 for one method and not the other
    assert not np.array_equal(a.state.shadow_min.logits, b.state.shadow_min.logits)
    assert not np.array_equal(a.state.policy_min.logits, b.state.policy_min.logits)
