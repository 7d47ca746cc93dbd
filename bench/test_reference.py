"""Tests of the benchmark's checkers: closed-form answers, and rejection of perturbed values.

Run with `python3 -m pytest bench/test_reference.py`; bench/run.py also runs
every test here before it measures, and reports a failure as incorrect.
"""

import dataclasses

import numpy as np

import reference as ref
import run

R1 = np.array([[[0.3, -1.2, 0.7], [1.1, 0.4, -0.5]]])      # one state, A=2, B=3
LY1 = np.log(np.array([[0.25, 0.75]]))
LZ1 = np.log(np.array([[0.5, 0.2, 0.3]]))
GAMMA, TAU_MIN, TAU_MAX = 0.9, 0.3, 0.5


def one_state_game():
    """A single state that loops to itself under every action pair."""
    return ref.Game(np.ones((1, 2, 3, 1)), [1.0], [False], GAMMA, TAU_MIN, TAU_MAX)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_pair_value_one_state():
    y, z = np.exp(LY1[0]), np.exp(LZ1[0])
    stage = y @ R1[0] @ z + TAU_MIN * y @ LY1[0] - TAU_MAX * z @ LZ1[0]
    assert close(ref.pair_value(one_state_game(), R1, LY1, LZ1), stage / (1 - GAMMA))


def test_best_responses_one_state():
    game = one_state_game()
    y, z = np.exp(LY1[0]), np.exp(LZ1[0])
    q_max = y @ (R1[0] + TAU_MIN * LY1[0][:, None])          # per max action
    q_min = (R1[0] - TAU_MAX * LZ1[0][None, :]) @ z          # per min action
    v_max = TAU_MAX * np.log(np.exp(q_max / TAU_MAX).sum()) / (1 - GAMMA)
    v_min = -TAU_MIN * np.log(np.exp(-q_min / TAU_MIN).sum()) / (1 - GAMMA)
    assert close(ref.best_response_value(game, R1, LY1, "max"), v_max)
    assert close(ref.best_response_value(game, R1, LZ1, "min"), v_min)
    gap = ref.ni_gap(game, R1, LY1, LZ1)
    assert close(gap, v_max - v_min)
    assert gap > 0.0
    # the soft best response of the max player attains max_z J
    br = np.log(np.exp(q_max / TAU_MAX) / np.exp(q_max / TAU_MAX).sum())[None, :]
    assert close(ref.pair_value(game, R1, LY1, br), v_max)


def test_forward_return_one_state():
    game = one_state_game()
    y, z = np.exp(LY1[0]), np.exp(LZ1[0])
    expected = (y @ R1[0] @ z) * (1 - GAMMA ** 4) / (1 - GAMMA)
    assert close(ref.forward_return(game, R1, LY1, LZ1, 4, GAMMA), expected)


def test_absorbing_state_counts_once():
    """State 0 always moves to absorbing state 1: one counted step, values from state 0 only."""
    p = np.zeros((2, 2, 3, 2))
    p[:, :, :, 1] = 1.0
    game = ref.Game(p, [1.0, 0.0], [False, True], GAMMA, TAU_MIN, TAU_MAX)
    ly = np.vstack([LY1, np.log([[0.5, 0.5]])])
    lz = np.vstack([LZ1, np.log([[1 / 3, 1 / 3, 1 / 3]])])
    count = np.array([1.0, 0.0])[:, None, None]
    assert close(ref.forward_return(game, count, ly, lz, 5, 1.0), 1.0)
    r = np.concatenate([R1, np.full((1, 2, 3), 7.0)])
    y, z = np.exp(LY1[0]), np.exp(LZ1[0])
    stage = y @ R1[0] @ z + TAU_MIN * y @ LY1[0] - TAU_MAX * z @ LZ1[0]
    assert close(ref.pair_value(game, r, ly, lz), stage)


def test_successor_lists_match_dense_expectation():
    rng = np.random.default_rng(3)
    p = rng.uniform(size=(4, 2, 3, 4)) * (rng.uniform(size=(4, 2, 3, 4)) < 0.6)
    p[..., 0] += 0.1
    p /= p.sum(axis=-1, keepdims=True)
    v = rng.normal(size=4)
    game = ref.Game(p, np.full(4, 0.25), np.zeros(4, bool), GAMMA, TAU_MIN, TAU_MAX)
    assert np.allclose(game.expect(v), np.einsum("sabn,n->sab", p, v), rtol=0, atol=1e-14)
    w = rng.uniform(size=(4, 2, 3))
    assert np.allclose(game.push(w), np.einsum("sab,sabn->n", w, p), rtol=0, atol=1e-14)


def test_agrees_rejects_perturbation():
    assert ref.agrees(2.5, 2.5 + 1e-12, run.GAP_TOL)
    assert not ref.agrees(2.5 + 1e-6, 2.5, run.GAP_TOL)
    assert not ref.agrees(2.5 + 1e-8, 2.5, run.UL_TOL)


def _perturbed(good, record=None, **state):
    res = good.result
    records = res.records[:-1] + [dataclasses.replace(res.records[-1], **(record or {}))]
    st = dataclasses.replace(res.state, **state)
    return dataclasses.replace(good, result=dataclasses.replace(res, records=records, state=st))


def test_check_run_rejects_perturbed_records():
    """A short synthetic run passes its checks; nudging any checked value fails them."""
    wl = dataclasses.replace(run.WORKLOADS["synthetic-sampled"], optimizers=("panda",),
                             outer_iters=2)
    panda, exp, _ = run.setup(wl)
    good = run.run_round(panda, exp, wl, seed=0)[0]
    assert run.check_run(panda, exp, wl, good, 0, {}) == []
    last = good.result.records[-1]
    for record in ({"ul_objective": last.ul_objective + 1e-6},
                   {"ni_gap": last.ni_gap + 1e-5},
                   {"env_steps": last.env_steps + 10**6}):
        assert run.check_run(panda, exp, wl, _perturbed(good, record), 0, {}), record


def test_check_run_rejects_stale_oracle_shadow():
    wl = dataclasses.replace(run.WORKLOADS["synthetic-oracle"], outer_iters=2)
    panda, exp, _ = run.setup(wl)
    good = run.run_round(panda, exp, wl, seed=0)[0]
    assert run.check_run(panda, exp, wl, good, 0, {}) == []
    shadow = good.result.state.shadow_max
    nudged = type(shadow)(shadow.logits + np.eye(*shadow.logits.shape) * 1e-2)
    assert run.check_run(panda, exp, wl, _perturbed(good, shadow_max=nudged), 0, {})
