"""Exact-solver tests.

Derived expectations are computed by independent oracles inside the tests:
truncated power iteration for policy evaluation, simplex grid search for the
per-state saddle, a from-scratch dense soft value iteration for the gap, and
Monte-Carlo rollouts for the visitation distribution.
"""

import tracemalloc

import numpy as np
import pytest

from panda.envs import build_env
from panda.game import (MarkovGame, RewardModel, TabularPolicy, effective_reward,
                        effective_reward_grad_x, probs)
from panda import exact
from panda.exact import (
    LinearSolveError,
    SaddleSolveError,
    ValueIterationError,
    bellman_policy_operator,
    best_response,
    exact_grad_policy,
    exact_grad_x,
    exact_grads_truncated,
    finite_horizon_grad,
    finite_horizon_value,
    j_value,
    ni_gap,
    ni_gradients,
    pl_constant,
    policy_eval,
    solve_ne,
    soft_bellman_optimality,
    visitation,
)
from conftest import random_game, random_policies


def one_state_game(na=2, nb=3, gamma=0.5, tau_min=0.1, tau_max=0.1):
    p = np.ones((1, na, nb, 1))
    return MarkovGame(transition=p, init_dist=np.ones(1), absorbing=np.zeros(1, bool),
                      discount=gamma, tau_min=tau_min, tau_max=tau_max)


def zero_reward(game):
    shape = (game.n_states, game.n_actions_min, game.n_actions_max)
    return RewardModel(base=np.zeros(shape), incentive_params=np.zeros(shape),
                       incentive_scale=0.0)


# --- policy evaluation -----------------------------------------------------

def test_policy_eval_zero_reward_equal_temps_uniform():
    game = one_state_game(na=2, nb=2, gamma=0.9)
    v = policy_eval(game, zero_reward(game), np.full((1, 2), 0.5), np.full((1, 2), 0.5))
    # entropies cancel at equal temperatures and equal action counts
    np.testing.assert_allclose(v, 0.0, atol=1e-12)


def test_policy_eval_entropy_imbalance_closed_form():
    game = one_state_game(na=2, nb=3, gamma=0.5)
    v = policy_eval(game, zero_reward(game), np.full((1, 2), 0.5), np.full((1, 3), 1 / 3))
    expect = 0.1 * (np.log(3.0) - np.log(2.0)) / 0.5
    np.testing.assert_allclose(v, expect, rtol=1e-12)


def test_policy_eval_matches_power_iteration():
    game, model = random_game(23, n_states=3, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(1)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    v = policy_eval(game, model, pmin, pmax)
    # independent oracle: iterate the evaluation operator from zero
    w = np.zeros(3)
    for _ in range(2000):
        w = bellman_policy_operator(game, model, pmin, pmax, w)
    np.testing.assert_allclose(v, w, atol=1e-9)


def test_policy_eval_absorbing_states_are_zero():
    game, model = random_game(31, n_states=4, n_absorbing=2)
    rng = np.random.default_rng(2)
    pmin, pmax = random_policies(rng, 4, 2, 2)
    v = policy_eval(game, model, pmin, pmax)
    np.testing.assert_allclose(v[2:], 0.0, atol=1e-14)


# --- Bellman operator properties -------------------------------------------

@pytest.mark.parametrize("opname", ["policy", "optimality"])
def test_operator_contraction_monotone_distributive(opname):
    game, model = random_game(7, n_states=3, na=2, nb=3, gamma=0.9)
    rng = np.random.default_rng(4)
    pmin, pmax = random_policies(rng, 3, 2, 3)

    if opname == "policy":
        def op(v):
            return bellman_policy_operator(game, model, pmin, pmax, v)
    else:
        def op(v):
            return soft_bellman_optimality(game, model, v, tol=1e-12)[0]

    for _ in range(10):
        v = rng.normal(scale=3.0, size=3)
        w = rng.normal(scale=3.0, size=3)
        lhs = np.abs(op(v) - op(w)).max()
        assert lhs <= game.discount * np.abs(v - w).max() + 1e-9

        lo = np.minimum(v, w)
        assert np.all(op(lo) <= op(v) + 1e-9)

        c = 3.7
        np.testing.assert_allclose(op(v + c), op(v) + game.discount * c, atol=1e-9)


def test_soft_optimality_identity_payoff_value():
    # single state, gamma=0, Q=I, tau=1: symmetric saddle at (1/2,1/2), value 1/2
    game = one_state_game(na=2, nb=2, gamma=0.0, tau_min=1.0, tau_max=1.0)
    model = RewardModel(base=np.eye(2)[None], incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=0.0)
    tv, y, z = soft_bellman_optimality(game, model, np.zeros(1), tol=1e-12)
    np.testing.assert_allclose(tv, 0.5, atol=1e-10)
    np.testing.assert_allclose(y, 0.5, atol=1e-10)


# --- per-state saddles -----------------------------------------------------
#
# A one-state game with discount 0 backs up its payoff matrix alone, so one
# optimality backup solves the regularized matrix saddle of q.

def solve_saddle(q, tau_min, tau_max, **kw):
    """(y, z, value, KKT residual) of y'Qz - tau_min*H(y) + tau_max*H(z)."""
    q = np.asarray(q, dtype=float)
    na, nb = q.shape
    game = one_state_game(na=na, nb=nb, gamma=0.0, tau_min=tau_min, tau_max=tau_max)
    model = RewardModel(base=q[None], incentive_params=np.zeros((1, na, nb)),
                        incentive_scale=0.0)
    tv, y, z = soft_bellman_optimality(game, model, np.zeros(1), **kw)
    y, z = y[0], z[0]
    by = np.exp(-(q @ z) / tau_min)
    bz = np.exp((q.T @ y) / tau_max)
    residual = max(np.abs(y - by / by.sum()).max(), np.abs(z - bz / bz.sum()).max())
    return y, z, float(tv[0]), residual


def test_saddle_zero_matrix_uniform():
    y, z, value, residual = solve_saddle(np.zeros((3, 4)), 0.1, 0.2)
    np.testing.assert_allclose(y, 1 / 3, atol=1e-12)
    np.testing.assert_allclose(z, 1 / 4, atol=1e-12)
    np.testing.assert_allclose(value, 0.2 * np.log(4) - 0.1 * np.log(3), rtol=1e-12)
    assert residual <= 1e-10


def _grid_saddle_2x2(q, tau_min, tau_max, n=10001):
    """Brute-force oracle: min over y-grid of max over z-grid of the objective."""
    ps = np.linspace(0.0, 1.0, n)

    def ent(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(p > 0, p * np.log(p), 0.0)
            u = np.where(1 - p > 0, (1 - p) * np.log(1 - p), 0.0)
        return -(t + u)

    hy = ent(ps)  # entropy of (p, 1-p)
    best_val = np.inf
    best_p = None
    # y'Qz with y=(p,1-p), z=(q0,1-q0)
    for i in range(0, n, 250):
        chunk = ps[i:i + 250]
        a = chunk[:, None] * (q[0, 0] * ps[None, :] + q[0, 1] * (1 - ps[None, :]))
        b = (1 - chunk[:, None]) * (q[1, 0] * ps[None, :] + q[1, 1] * (1 - ps[None, :]))
        obj = a + b - tau_min * ent(chunk)[:, None] + tau_max * hy[None, :]
        inner = obj.max(axis=1)
        j = int(inner.argmin())
        if inner[j] < best_val:
            best_val = float(inner[j])
            best_p = float(chunk[j])
    return best_val, best_p


def test_saddle_against_grid_search():
    q = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y, _, value, residual = solve_saddle(q, 0.1, 0.1)
    val, p = _grid_saddle_2x2(q, 0.1, 0.1)
    assert abs(value - val) <= 1e-3
    assert abs(y[0] - p) <= 5e-4
    assert residual <= 1e-10


def test_saddle_identity_tau_one():
    _, _, value, _ = solve_saddle(np.eye(2), 1.0, 1.0)
    np.testing.assert_allclose(value, 0.5, atol=1e-10)
    val, _ = _grid_saddle_2x2(np.eye(2), 1.0, 1.0)
    assert abs(value - val) <= 1e-3


def test_saddle_kkt_fixed_point():
    rng = np.random.default_rng(9)
    for _ in range(5):
        q = rng.uniform(-3, 3, size=(3, 4))
        _, _, _, residual = solve_saddle(q, 0.15, 0.3)
        assert residual <= 1e-10


def test_saddle_nonconvergence_raises():
    q = np.random.default_rng(0).uniform(-20, 20, size=(4, 5))
    with pytest.raises(SaddleSolveError) as ei:
        solve_saddle(q, 0.05, 0.05, tol=1e-12, max_iter=10)
    assert ei.value.residual > 0


# --- Nash equilibrium ------------------------------------------------------

def test_solve_ne_zero_reward_closed_form():
    game = one_state_game(na=2, nb=3, gamma=0.5)
    ne = solve_ne(game, zero_reward(game), tol=1e-9)
    np.testing.assert_allclose(ne.policy_min, 0.5, atol=1e-10)
    np.testing.assert_allclose(ne.policy_max, 1 / 3, atol=1e-10)
    expect = 0.1 * (np.log(3.0) - np.log(2.0)) / 0.5
    np.testing.assert_allclose(ne.j_star, expect, rtol=1e-8)


def test_solve_ne_saddle_point_inequalities():
    game, model = random_game(41, n_states=3, na=2, nb=2, gamma=0.9)
    ne = solve_ne(game, model, tol=1e-9)
    rng = np.random.default_rng(10)
    for _ in range(100):
        ydev, zdev = random_policies(rng, 3, 2, 2, spread=2.0)
        # deviations by the minimizer cannot decrease J below j*
        assert j_value(game, model, ydev, ne.policy_max) >= ne.j_star - 1e-8
        # deviations by the maximizer cannot increase J above j*
        assert j_value(game, model, ne.policy_min, zdev) <= ne.j_star + 1e-8


def test_solve_ne_residual_and_gap():
    game, model = random_game(43, n_states=4, na=3, nb=2, gamma=0.9, n_absorbing=1)
    ne = solve_ne(game, model, tol=1e-9)
    g = game.discount
    assert ne.residual <= 1e-9 * (1 - g) / g
    assert abs(ni_gap(game, model, ne.policy_min, ne.policy_max)) <= 1e-6
    # self-consistency: V* is a fixed point of the optimality operator
    tv, _, _ = soft_bellman_optimality(game, model, ne.v_star, tol=1e-12)
    assert np.abs(tv - ne.v_star).max() <= 2e-9


def test_minmax_equals_maxmin():
    game, model = random_game(47, n_states=3, na=2, nb=3, gamma=0.85)
    ne = solve_ne(game, model, tol=1e-10)
    j1 = best_response(game, model, ne.policy_min, "max", tol=1e-12).j_value
    j2 = best_response(game, model, ne.policy_max, "min", tol=1e-12).j_value
    assert abs(j1 - j2) <= 2e-9


def test_solve_ne_max_sweeps_raises():
    game, model = random_game(3, gamma=0.9)
    with pytest.raises(ValueIterationError) as ei:
        solve_ne(game, model, tol=1e-9, max_sweeps=2)
    assert ei.value.residual > 0


# --- best responses --------------------------------------------------------

def test_best_response_single_state_closed_form():
    game = one_state_game(na=3, nb=2, gamma=0.6, tau_min=0.2, tau_max=0.1)
    rng = np.random.default_rng(12)
    base = rng.uniform(size=(1, 3, 2))
    model = RewardModel(base=base, incentive_params=np.zeros((1, 3, 2)), incentive_scale=0.0)
    z = np.array([[0.7, 0.3]])
    br = best_response(game, model, z, "min", tol=1e-12)
    # single state: argmin_y is softmax(-(E_z r)/tau_min); continuation shifts cancel
    scores = -(base[0] @ z[0]) / 0.2
    expect = np.exp(scores - scores.max())
    expect /= expect.sum()
    np.testing.assert_allclose(br.policy[0], expect, atol=1e-8)


def test_best_response_zero_reward_uniform():
    game = one_state_game(na=2, nb=4, gamma=0.7)
    br = best_response(game, zero_reward(game), np.full((1, 2), 0.5), "max", tol=1e-12)
    np.testing.assert_allclose(br.policy, 0.25, atol=1e-10)


def test_best_response_at_ne_recovers_game_value():
    game, model = random_game(53, n_states=3, na=2, nb=2, gamma=0.9)
    ne = solve_ne(game, model, tol=1e-10)
    bmax = best_response(game, model, ne.policy_min, "max", tol=1e-12)
    bmin = best_response(game, model, ne.policy_max, "min", tol=1e-12)
    assert abs(bmax.j_value - ne.j_star) <= 1e-7
    assert abs(bmin.j_value - ne.j_star) <= 1e-7


def test_best_response_improves_over_any_fixed_opponent():
    game, model = random_game(59, n_states=3, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(13)
    for _ in range(10):
        y, z = random_policies(rng, 3, 2, 2)
        bmax = best_response(game, model, y, "max", tol=1e-10)
        assert bmax.j_value >= j_value(game, model, y, z) - 1e-8
        bmin = best_response(game, model, z, "min", tol=1e-10)
        assert bmin.j_value <= j_value(game, model, y, z) + 1e-8


# --- Nikaido-Isoda gap -----------------------------------------------------

def _brute_force_gap(game, model, y, z, iters=4000):
    """From-scratch oracle: two single-player soft VIs written with plain loops."""
    S, A, B = game.n_states, game.n_actions_min, game.n_actions_max
    r = model.values().copy()
    r[game.absorbing] = 0.0
    gam = game.discount

    def neg_ent(p):
        return float(np.sum([pi * np.log(pi) for pi in p if pi > 0]))

    # max player against fixed y
    v = np.zeros(S)
    for _ in range(iters):
        vn = np.zeros(S)
        for s in range(S):
            if game.absorbing[s]:
                continue
            q = np.zeros(B)
            for b in range(B):
                q[b] = sum(y[s, a] * r[s, a, b] for a in range(A))
                q[b] += game.tau_min * neg_ent(y[s])
                q[b] += gam * sum(game.transition[s, a, b, sn] * y[s, a] * v[sn]
                                  for a in range(A) for sn in range(S))
            m = q.max()
            vn[s] = m + game.tau_max * np.log(np.exp((q - m) / game.tau_max).sum())
        v = vn
    j1 = float(game.init_dist @ v)

    # min player against fixed z (maximize the negated game)
    w = np.zeros(S)
    for _ in range(iters):
        wn = np.zeros(S)
        for s in range(S):
            if game.absorbing[s]:
                continue
            q = np.zeros(A)
            for a in range(A):
                q[a] = -sum(z[s, b] * r[s, a, b] for b in range(B))
                q[a] += game.tau_max * neg_ent(z[s])
                q[a] += gam * sum(game.transition[s, a, b, sn] * z[s, b] * w[sn]
                                  for b in range(B) for sn in range(S))
            m = q.max()
            wn[s] = m + game.tau_min * np.log(np.exp((q - m) / game.tau_min).sum())
        w = wn
    j2 = -float(game.init_dist @ w)
    return j1 - j2


def test_ni_gap_against_brute_force():
    game, model = random_game(61, n_states=3, na=2, nb=2, gamma=0.8)
    y = np.full((3, 2), 0.5)
    z = np.full((3, 2), 0.5)
    got = ni_gap(game, model, y, z, tol=1e-12)
    want = _brute_force_gap(game, model, y, z, iters=200)  # gamma^200 ~ 1e-20
    assert abs(got - want) <= 1e-8


def test_ni_gap_nonnegative_everywhere():
    game, model = random_game(67, n_states=3, na=3, nb=2, gamma=0.9, n_absorbing=1)
    rng = np.random.default_rng(14)
    for _ in range(20):
        y, z = random_policies(rng, 3, 3, 2, spread=2.0)
        assert ni_gap(game, model, y, z) >= -1e-8


def test_ni_gap_zero_iff_ne():
    game, model = random_game(71, n_states=3, na=2, nb=2, gamma=0.9)
    ne = solve_ne(game, model, tol=1e-10)
    assert abs(ni_gap(game, model, ne.policy_min, ne.policy_max)) <= 1e-6
    rng = np.random.default_rng(15)
    y, z = random_policies(rng, 3, 2, 2, spread=2.0)
    assert ni_gap(game, model, y, z) > 1e-3  # generic point is far from the NE


# --- visitation ------------------------------------------------------------

def test_visitation_tiny_discount_is_rho():
    game, _ = random_game(73, n_states=4)
    game2 = MarkovGame(game.transition, game.init_dist, game.absorbing, 1e-12,
                       game.tau_min, game.tau_max)
    rng = np.random.default_rng(16)
    y, z = random_policies(rng, 4, 2, 2)
    d = visitation(game2, y, z)
    np.testing.assert_allclose(d, game.init_dist, atol=1e-11)


def test_visitation_single_state():
    game = one_state_game()
    d = visitation(game, np.full((1, 2), 0.5), np.full((1, 3), 1 / 3))
    np.testing.assert_allclose(d, 1.0, atol=1e-12)


def test_visitation_sums_to_one():
    game, _ = random_game(79, n_states=5, na=2, nb=3, gamma=0.95, n_absorbing=1)
    rng = np.random.default_rng(17)
    y, z = random_policies(rng, 5, 2, 3)
    d = visitation(game, y, z)
    assert abs(d.sum() - 1.0) <= 1e-10
    assert np.all(d >= -1e-15)


def test_visitation_against_monte_carlo():
    # 4-state chain, gamma=0.9; empirical discounted visitation from 1e6 rollouts
    gamma = 0.9
    rng = np.random.default_rng(18)
    p = rng.uniform(0.1, 1.0, size=(4, 2, 2, 4))
    p /= p.sum(axis=3, keepdims=True)
    rho = np.array([0.4, 0.3, 0.2, 0.1])
    game = MarkovGame(p, rho, np.zeros(4, bool), gamma, 0.1, 0.1)
    y, z = random_policies(rng, 4, 2, 2)
    d = visitation(game, y, z)

    yp, zp = probs(y), probs(z)
    p_yz = np.einsum("sabn,sa,sb->sn", p, yp, zp)
    cum = np.cumsum(p_yz, axis=1)
    n, t_max = 1_000_000, 160
    mc = np.random.default_rng(19)
    states = np.searchsorted(np.cumsum(rho), mc.random(n), side="right")
    acc = np.zeros((n, 4))
    w = 1.0
    for _ in range(t_max):
        np.add.at(acc, (np.arange(n), states), w)
        u = mc.random(n)
        states = (u[:, None] < cum[states]).argmax(axis=1)
        w *= gamma
    x = (1 - gamma) * acc
    se = x.std(axis=0, ddof=1) / np.sqrt(n)
    err = np.abs(x.mean(axis=0) - d)
    assert np.all(err <= 3 * se + 1e-9), (err, se)


# --- exact gradients -------------------------------------------------------

def test_grad_x_zero_when_scale_zero():
    game, model = random_game(83, scale=0.0)
    rng = np.random.default_rng(20)
    y, z = random_policies(rng, 3, 2, 2)
    assert np.abs(exact_grad_x(game, model, y, z)).max() == 0.0


def test_grad_policy_finite_difference():
    game, model = random_game(89, n_states=3, na=2, nb=3, gamma=0.9, n_absorbing=1)
    rng = np.random.default_rng(21)
    pmin, pmax = random_policies(rng, 3, 2, 3)
    gmin = exact_grad_policy(game, model, pmin, pmax, "min")
    gmax = exact_grad_policy(game, model, pmin, pmax, "max")
    eps = 1e-6
    for (i, j) in [(0, 0), (1, 1), (2, 0)]:
        lp = pmin.logits.copy()
        lp[i, j] += eps
        up = j_value(game, model, TabularPolicy(lp), pmax)
        lp[i, j] -= 2 * eps
        dn = j_value(game, model, TabularPolicy(lp), pmax)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - gmin[i, j]) <= 1e-5 * max(1.0, abs(fd))
    for (i, j) in [(0, 2), (1, 0), (2, 1)]:
        lp = pmax.logits.copy()
        lp[i, j] += eps
        up = j_value(game, model, pmin, TabularPolicy(lp))
        lp[i, j] -= 2 * eps
        dn = j_value(game, model, pmin, TabularPolicy(lp))
        fd = (up - dn) / (2 * eps)
        assert abs(fd - gmax[i, j]) <= 1e-5 * max(1.0, abs(fd))


def test_grad_x_finite_difference():
    game, model = random_game(97, n_states=3, na=2, nb=2, gamma=0.85, scale=0.6)
    rng = np.random.default_rng(22)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    gx = exact_grad_x(game, model, pmin, pmax)
    eps = 1e-6
    for idx in [(0, 0, 0), (1, 1, 0), (2, 0, 1)]:
        xp = model.incentive_params.copy()
        xp[idx] += eps
        up = j_value(game, model.with_params(xp), pmin, pmax)
        xp[idx] -= 2 * eps
        dn = j_value(game, model.with_params(xp), pmin, pmax)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - gx[idx]) <= 1e-5 * max(1.0, abs(fd))


def test_gradients_vanish_at_ne():
    game, model = random_game(101, n_states=3, na=2, nb=2, gamma=0.9)
    ne = solve_ne(game, model, tol=1e-10)
    # interior regularized saddle: stationary in both players' logits
    gmin = exact_grad_policy(game, model, ne.policy_min, ne.policy_max, "min")
    gmax = exact_grad_policy(game, model, ne.policy_min, ne.policy_max, "max")
    assert np.abs(gmin).max() <= 1e-6
    assert np.abs(gmax).max() <= 1e-6


def test_truncated_grad_single_step_enumeration():
    game, model = random_game(103, n_states=2, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(23)
    pmin, pmax = random_policies(rng, 2, 2, 2)
    y, z = probs(pmin), probs(pmax)
    r = model.values()
    got = exact_grads_truncated(game, model, pmin, pmax, 1)[0]
    want = np.zeros_like(y)
    for s in range(2):
        for a in range(2):
            for b in range(2):
                w = r[s, a, b] + 0.1 * np.log(y[s, a]) - 0.1 * np.log(z[s, b])
                score = -y[s].copy()
                score[a] += 1.0
                want[s] += game.init_dist[s] * y[s, a] * z[s, b] * score * w
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_truncated_grad_x_matches_forward_loop():
    # the x-gradient weights the score-free rows y z dr/dx by sum_t gamma^t p_t;
    # reference: one term per step along the forward state distributions
    game, model = random_game(109, n_states=4, na=2, nb=3, gamma=0.9, n_absorbing=1, scale=0.8)
    pmin, pmax = random_policies(np.random.default_rng(25), 4, 2, 3)
    y, z = probs(pmin), probs(pmax)
    p_yz = np.einsum("sabn,sa,sb->sn", game.transition, y, z)
    rows = y[:, :, None] * z[:, None, :] * effective_reward_grad_x(game, model)
    want, pt = np.zeros_like(rows), game.init_dist.copy()
    for t in range(7):
        want += game.discount ** t * pt[:, None, None] * rows
        pt = p_yz.T @ pt
    np.testing.assert_allclose(exact_grads_truncated(game, model, pmin, pmax, 7)[2], want,
                               rtol=1e-13, atol=1e-15)


def test_truncated_grads_converge_to_full():
    game, model = random_game(107, n_states=3, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(24)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    full = exact_grad_policy(game, model, pmin, pmax, "min")
    t200, _, tx = exact_grads_truncated(game, model, pmin, pmax, 200)
    np.testing.assert_allclose(t200, full, atol=1e-6)
    fx = exact_grad_x(game, model, pmin, pmax)
    np.testing.assert_allclose(tx, fx, atol=1e-6)
    # truncation error shrinks roughly like gamma^H
    e40 = np.linalg.norm(exact_grads_truncated(game, model, pmin, pmax, 40)[0] - full)
    e80 = np.linalg.norm(exact_grads_truncated(game, model, pmin, pmax, 80)[0] - full)
    assert e80 < e40 * 0.9 ** 30


# --- gap gradients and the PL inequality -----------------------------------

def test_ni_gradients_equal_the_separate_gradient_calls():
    # ni_gradients shares each best-response pair's solves between its two
    # gradients; the results must be those of the separate public calls, bit for bit
    for seed, n_absorbing in ((111, 0), (112, 1), (113, 2)):
        game, model = random_game(seed, n_states=5, na=2, nb=3, gamma=0.9,
                                  n_absorbing=n_absorbing)
        pmin, pmax = random_policies(np.random.default_rng(seed), 5, 2, 3, spread=2.0)
        res = ni_gradients(game, model, pmin, pmax, tol=1e-10)
        y, z = probs(pmin), probs(pmax)
        assert np.array_equal(res.grad_min,
                              exact_grad_policy(game, model, y, res.br_max, "min"))
        assert np.array_equal(res.grad_max,
                              -exact_grad_policy(game, model, res.br_min, z, "max"))
        assert np.array_equal(res.grad_x, exact_grad_x(game, model, y, res.br_max)
                              - exact_grad_x(game, model, res.br_min, z))


def test_ni_gradients_match_finite_difference():
    game, model = random_game(109, n_states=3, na=2, nb=2, gamma=0.85)
    rng = np.random.default_rng(25)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    res = ni_gradients(game, model, pmin, pmax, tol=1e-12)
    eps = 1e-5
    for (i, j) in [(0, 0), (2, 1)]:
        lp = pmin.logits.copy()
        lp[i, j] += eps
        up = ni_gap(game, model, TabularPolicy(lp), pmax, tol=1e-12)
        lp[i, j] -= 2 * eps
        dn = ni_gap(game, model, TabularPolicy(lp), pmax, tol=1e-12)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - res.grad_min[i, j]) <= 1e-5 + 1e-4 * abs(fd)
    for (i, j) in [(1, 0), (2, 1)]:
        lp = pmax.logits.copy()
        lp[i, j] += eps
        up = ni_gap(game, model, pmin, TabularPolicy(lp), tol=1e-12)
        lp[i, j] -= 2 * eps
        dn = ni_gap(game, model, pmin, TabularPolicy(lp), tol=1e-12)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - res.grad_max[i, j]) <= 1e-5 + 1e-4 * abs(fd)
    # x-gradient of the gap by the same recipe
    for idx in [(0, 0, 0), (2, 1, 1)]:
        xp = model.incentive_params.copy()
        xp[idx] += eps
        up = ni_gap(game, model.with_params(xp), pmin, pmax, tol=1e-12)
        xp[idx] -= 2 * eps
        dn = ni_gap(game, model.with_params(xp), pmin, pmax, tol=1e-12)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - res.grad_x[idx]) <= 1e-5 + 1e-4 * abs(fd)


def test_pl_inequality_for_gap():
    rng = np.random.default_rng(26)
    for seed in range(5):
        game, model = random_game(200 + seed, n_states=3, na=2, nb=2, gamma=0.9)
        for _ in range(4):
            pmin, pmax = random_policies(rng, 3, 2, 2, spread=1.5)
            res = ni_gradients(game, model, pmin, pmax, tol=1e-11)
            mu = pl_constant(game, probs(pmin), probs(pmax))
            sq = 0.5 * (np.sum(res.grad_min ** 2) + np.sum(res.grad_max ** 2))
            assert sq >= mu * res.gap - 1e-9


def test_pl_inequality_for_value_function():
    rng = np.random.default_rng(27)
    for seed in range(5):
        game, model = random_game(300 + seed, n_states=3, na=2, nb=2, gamma=0.9)
        pmin, pmax = random_policies(rng, 3, 2, 2, spread=1.5)
        mu = pl_constant(game, probs(pmin), probs(pmax))
        j = j_value(game, model, pmin, pmax)
        j1 = best_response(game, model, pmin, "max", tol=1e-11).j_value
        j2 = best_response(game, model, pmax, "min", tol=1e-11).j_value
        gmin = exact_grad_policy(game, model, pmin, pmax, "min")
        gmax = exact_grad_policy(game, model, pmin, pmax, "max")
        assert 0.5 * np.sum(gmin ** 2) >= mu * (j - j2) - 1e-9
        assert 0.5 * np.sum(gmax ** 2) >= mu * (j1 - j) - 1e-9


# --- the dense and matrix-free paths --------------------------------------

def sparse_game(seed, n_states, na, nb, k, n_absorbing, gamma=0.95):
    """Random game on padded successor lists: k distinct successors per (s, a, b)."""
    rng = np.random.default_rng(seed)
    succ = np.sort(np.array([rng.choice(n_states, size=k, replace=False)
                             for _ in range(n_states * na * nb)]), axis=1)
    prob = rng.uniform(0.05, 1.0, size=succ.shape)
    succ, prob = succ.reshape(n_states, na, nb, k), prob.reshape(n_states, na, nb, k)
    absorbing = np.arange(n_states) >= n_states - n_absorbing
    succ[absorbing], prob[absorbing] = np.arange(n_states)[absorbing, None, None, None], 0.0
    prob[absorbing, :, :, 0] = 1.0
    prob /= prob.sum(axis=3, keepdims=True)
    rho = np.where(absorbing, 0.0, rng.uniform(0.2, 1.0, size=n_states))
    game = MarkovGame.from_successors(succ, prob, rho / rho.sum(), absorbing, gamma, 0.1, 0.2)
    shape = (n_states, na, nb)
    model = RewardModel(rng.uniform(-1.0, 1.0, size=shape), rng.normal(size=shape), 1.0)
    return game, model


def _grid():
    env = build_env("sentinel")
    return env.game, env.model


def _path_games():
    """Matrix-free games: the grid; random ones with absorbing states, K = 1 and K = 2,
    and one at discount 0, where policy iteration's stopping test checks nothing."""
    yield pytest.param(_grid, id="grid")
    yield pytest.param(lambda: sparse_game(5, 48, 2, 3, 1, 3), id="random-k1")
    yield pytest.param(lambda: sparse_game(6, 64, 2, 2, 2, 2), id="random-k2")
    yield pytest.param(lambda: sparse_game(7, 48, 2, 3, 1, 3, gamma=0.0), id="random-gamma0")


def _path_results(game, model, y, z, stage):
    bmax, bmin = best_response(game, model, y, "max"), best_response(game, model, z, "min")
    ni = ni_gradients(game, model, y, z)
    out = [bmax.j_value, bmax.policy, bmax.soft_v, bmin.j_value, bmin.policy, bmin.soft_v,
           ni.gap, ni.grad_min, ni.grad_max, ni.grad_x,
           exact_grad_policy(game, model, y, z, "min"),
           exact_grad_policy(game, model, y, z, "max"),
           exact_grad_x(game, model, y, z), visitation(game, y, z)]
    for gamma in (game.discount, 1.0):
        out.append(finite_horizon_value(game, stage, y, z, 20, gamma))
        out.extend(finite_horizon_grad(game, stage, y, z, 20, gamma))
    return out


@pytest.mark.parametrize("build", _path_games())
def test_dense_and_matrix_free_paths_agree(build):
    """The same quantities by LU on folded matrices and by GMRES on the successor
    lists, at uniform and at sharp policies, agree to 1e-11 of each one's scale."""
    game, model = build()
    assert game.matrix_free
    S, A, B = game.n_states, game.n_actions_min, game.n_actions_max
    rng = np.random.default_rng(31)
    stage = rng.uniform(size=(S, A, B))
    for scale in (0.0, 3.0):
        y = probs(TabularPolicy(scale * rng.normal(size=(S, A))))
        z = probs(TabularPolicy(scale * rng.normal(size=(S, B))))
        results = {}
        for matrix_free in (False, True):
            game.matrix_free = matrix_free
            results[matrix_free] = _path_results(game, model, y, z, stage)
        for i, (lists, dense) in enumerate(zip(results[True], results[False], strict=True)):
            lists, dense = np.asarray(lists), np.asarray(dense)
            assert lists.shape == dense.shape
            assert np.abs(lists - dense).max() <= 1e-11 * np.abs(dense).max(), (scale, i)


def test_matrix_free_solve_raises_when_it_misses_its_bound(monkeypatch):
    # three restarts of two Krylov vectors cannot solve a policy evaluation on these
    # lists; the best response must fail loudly rather than go on with a rough solve
    game, model = sparse_game(5, 48, 2, 3, 1, 3)
    monkeypatch.setattr(exact, "_RESTART", 2)
    monkeypatch.setattr(exact, "_MAX_RESTARTS", 3)
    with pytest.raises(LinearSolveError, match="above its bound") as err:
        best_response(game, model, TabularPolicy.uniform(48, 2), "max")
    assert err.value.residual > err.value.bound
    assert err.value.restarts == 3


def test_grid_exact_evaluation_allocates_no_transition_sized_array():
    """A best response, an NI-gradient evaluation and the upper-level gradient on the
    626-state grid each allocate less at their peak than one (S, S) float array."""
    env = build_env("sentinel")
    game, model = env.game, env.model
    y = probs(TabularPolicy.uniform(game.n_states, game.n_actions_min))
    z = probs(TabularPolicy.uniform(game.n_states, game.n_actions_max))
    effective_reward(game, model)  # the reward table is built once per model, before the calls
    for call in (lambda: best_response(game, model, y, "max"),
                 lambda: ni_gradients(game, model, y, z),
                 lambda: env.ul.grad_policies_exact(model, y, z)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < game.n_states ** 2 * 8
