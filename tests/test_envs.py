import numpy as np
import pytest

from panda.envs import (
    GridSpec,
    SyntheticSpec,
    build_env,
    build_sentinel,
    build_synthetic,
)
from panda.game import TabularPolicy, effective_reward_grad_x, log_softmax, probs
from panda.sampling import RngStream, estimate_gradients, sample_batch


def uniform_pols(env):
    return (TabularPolicy.uniform(env.game.n_states, env.game.n_actions_min),
            TabularPolicy.uniform(env.game.n_states, env.game.n_actions_max))


# --- synthetic -------------------------------------------------------------

def test_synthetic_seed_reproducibility():
    a = build_synthetic(SyntheticSpec(seed=3))
    b = build_synthetic(SyntheticSpec(seed=3))
    c = build_synthetic(SyntheticSpec(seed=4))
    assert np.array_equal(a.game.transition, b.game.transition)
    assert np.array_equal(a.model.base, b.model.base)
    assert np.array_equal(a.ul.reward_id.base, b.ul.reward_id.base)
    assert not np.array_equal(a.game.transition, c.game.transition)


def test_synthetic_shapes_and_defaults():
    env = build_synthetic(SyntheticSpec(seed=0))
    assert env.game.n_states == 5
    assert env.game.n_actions_min == 3 and env.game.n_actions_max == 3
    assert env.game.discount == 0.99
    assert env.game.tau_min == 0.1 and env.game.tau_max == 0.1
    assert env.ul.horizon == 3
    assert np.all(env.model.incentive_params == 0.0)
    np.testing.assert_allclose(env.game.init_dist, 0.2)


def test_synthetic_zero_incentive_rewards():
    env = build_synthetic(SyntheticSpec(seed=1))
    np.testing.assert_allclose(env.model.values(), env.model.base + 0.5, atol=1e-15)


def test_synthetic_ul_constant_reward_value():
    env = build_synthetic(SyntheticSpec(seed=2))
    env.ul.reward_id.base[:] = 1.0
    pmin, pmax = uniform_pols(env)
    got = env.ul.value_exact(env.model, pmin, pmax)
    assert got == pytest.approx(-(1.0 + 0.99 + 0.99 ** 2), abs=1e-12)


def test_synthetic_ul_grad_x_is_zero():
    env = build_synthetic(SyntheticSpec(seed=6))
    pmin, pmax = uniform_pols(env)
    assert np.all(env.ul.grad_x_exact(env.model, pmin, pmax) == 0.0)
    gx, steps = env.ul.grad_x_estimate(env.model, pmin, pmax, 16, RngStream(0))
    assert np.all(gx == 0.0) and steps == 0


def test_synthetic_ul_value_against_monte_carlo():
    env = build_synthetic(SyntheticSpec(seed=7))
    rng = np.random.default_rng(40)
    pmin = TabularPolicy(rng.normal(size=(5, 3)))
    pmax = TabularPolicy(rng.normal(size=(5, 3)))
    exact = env.ul.value_exact(env.model, pmin, pmax)

    # vectorized episode simulation in the designer MDP
    n = 1_000_000
    mdp = env.ul.mdp
    y, z = probs(pmin), probs(pmax)
    cum_y, cum_z = np.cumsum(y, axis=1), np.cumsum(z, axis=1)
    mc = np.random.default_rng(41)
    states = np.searchsorted(np.cumsum(mdp.init_dist), mc.random(n), side="right")
    total = np.zeros(n)
    for t in range(env.ul.horizon):
        a = (mc.random(n)[:, None] < cum_y[states]).argmax(axis=1)
        b = (mc.random(n)[:, None] < cum_z[states]).argmax(axis=1)
        total += (0.99 ** t) * env.ul.reward_id.base[states, a, b]
        cum_p = np.cumsum(mdp.transition[states, a, b], axis=1)
        states = (mc.random(n)[:, None] < cum_p).argmax(axis=1)
    vals = -total
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - exact) <= 4 * se


def test_synthetic_ul_exact_grad_finite_difference():
    env = build_synthetic(SyntheticSpec(seed=8))
    rng = np.random.default_rng(42)
    pmin = TabularPolicy(rng.normal(size=(5, 3)))
    pmax = TabularPolicy(rng.normal(size=(5, 3)))
    gmin, gmax = env.ul.grad_policies_exact(env.model, pmin, pmax)
    eps = 1e-6
    for (i, j) in [(0, 0), (2, 1), (4, 2)]:
        lp = pmin.logits.copy()
        lp[i, j] += eps
        up = env.ul.value_exact(env.model, TabularPolicy(lp), pmax)
        lp[i, j] -= 2 * eps
        dn = env.ul.value_exact(env.model, TabularPolicy(lp), pmax)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - gmin[i, j]) <= 1e-6 + 1e-6 * abs(fd)
        lp2 = pmax.logits.copy()
        lp2[i, j] += eps
        up = env.ul.value_exact(env.model, pmin, TabularPolicy(lp2))
        lp2[i, j] -= 2 * eps
        dn = env.ul.value_exact(env.model, pmin, TabularPolicy(lp2))
        fd = (up - dn) / (2 * eps)
        assert abs(fd - gmax[i, j]) <= 1e-6 + 1e-6 * abs(fd)


def test_synthetic_ul_estimator_unbiased():
    env = build_synthetic(SyntheticSpec(seed=9))
    rng = np.random.default_rng(43)
    pmin = TabularPolicy(rng.normal(scale=0.5, size=(5, 3)))
    pmax = TabularPolicy(rng.normal(scale=0.5, size=(5, 3)))
    exact_min, exact_max = env.ul.grad_policies_exact(env.model, pmin, pmax)
    stream = RngStream(44)
    chunks_min, chunks_max = [], []
    for rep in range(500):
        gmin, gmax, steps = env.ul.grad_policies_estimate(
            env.model, pmin, pmax, 50, stream, purpose=0, outer=rep)
        assert steps == 50 * 3
        chunks_min.append(gmin.reshape(-1))
        chunks_max.append(gmax.reshape(-1))
    for chunks, exact in [(chunks_min, exact_min), (chunks_max, exact_max)]:
        m = np.array(chunks)
        se = m.std(axis=0, ddof=1) / np.sqrt(len(chunks))
        err = np.abs(m.mean(axis=0) - exact.reshape(-1))
        assert np.all(err <= 4 * se + 1e-6), (err, se)


# --- sentinel --------------------------------------------------------------

def test_sentinel_state_count_and_geometry():
    env = build_sentinel(GridSpec())
    assert env.game.n_states == 25 * 25 + 1
    assert env.game.n_actions_min == 5 and env.game.n_actions_max == 5
    assert env.game.absorbing.sum() == 1 and env.game.absorbing[-1]
    # every transition row is deterministic
    assert np.all(env.game.transition.max(axis=3) == 1.0)
    # initial states: sentinel top-right, intruder on one of three spawn cells
    idx = np.flatnonzero(env.game.init_dist)
    assert sorted(idx) == [4 * 25 + 0, 4 * 25 + 1, 4 * 25 + 5]
    np.testing.assert_allclose(env.game.init_dist[idx], 1 / 3)
    # six restricted cells, marked for any intruder position
    assert env.ul.restricted_state.sum() == 6 * 25


def test_sentinel_rows_have_one_certain_successor():
    game = build_sentinel(GridSpec()).game
    assert game.succ.shape == (626, 5, 5, 1)
    assert np.all(game.succ_prob == 1.0)


def test_sentinel_capture_and_target_transitions():
    spec = GridSpec()
    env = build_sentinel(spec)
    term = env.game.n_states - 1
    # state with both on one cell: any action pair captures immediately
    s_same = 7 * 25 + 7
    assert np.all(env.game.transition[s_same, :, :, term] == 1.0)
    assert np.all(env.model.base[s_same] == 10.0)
    # intruder already on target: payout -10
    s_tgt = 0 * 25 + 24
    assert np.all(env.game.transition[s_tgt, :, :, term] == 1.0)
    assert np.all(env.model.base[s_tgt] == -10.0)
    # simultaneous arrival on the target cell: capture wins the tie
    s = 19 * 25 + 23  # sentinel (3,4), intruder (4,3)
    a_right, b_down = 3, 1
    assert env.game.transition[s, a_right, b_down, term] == 1.0
    assert env.model.base[s, a_right, b_down] == 10.0


def test_sentinel_wall_clipping():
    env = build_sentinel(GridSpec())
    # sentinel at (0,4) stays put moving up (action 0); intruder at (0,0)
    # stays moving left (action 2); no rewards, state unchanged
    s = 4 * 25 + 0
    assert env.game.transition[s, 2, 0, s] == 1.0
    assert env.model.base[s, 2, 0] == 0.0


def test_sentinel_spawn_capture_single_step():
    spec = GridSpec()
    env = build_sentinel(spec)
    rho = np.zeros(env.game.n_states)
    rho[12 * 25 + 12] = 1.0  # sentinel spawned on the intruder's cell
    game = env.game
    game2 = type(game)(game.transition, rho, game.absorbing, game.discount,
                       game.tau_min, game.tau_max)
    pmin, pmax = uniform_pols(env)
    traj = sample_batch(game2, env.model, [pmin], [pmax], 1, spec.max_steps, RngStream(5), [0])
    assert traj.lengths.tolist() == [1]
    assert traj.rewards[0, 0] == pytest.approx(10.0 + 0.05 * 0.5, abs=1e-12)


def test_sentinel_episode_cap():
    env = build_sentinel(GridSpec())
    pmin, pmax = uniform_pols(env)
    batch = sample_batch(env.game, env.model, [pmin], [pmax], 64, env.ul.horizon, RngStream(6),
                         [0])
    assert batch.states.shape == (64, 20)
    assert batch.lengths.max() <= 20


def test_sentinel_empty_restricted_zero_loss():
    env = build_sentinel(GridSpec(restricted=()))
    pmin, pmax = uniform_pols(env)
    assert env.ul.value_exact(env.model, pmin, pmax) == 0.0
    v, _ = env.ul.value_estimate(env.model, pmin, pmax, 32, RngStream(7))
    assert v == 0.0


def test_sentinel_ul_value_against_sampled_episodes():
    env = build_sentinel(GridSpec())
    pmin, pmax = uniform_pols(env)
    exact = env.ul.value_exact(env.model, pmin, pmax)
    batch = sample_batch(env.game, env.model, [pmin], [pmax], 4000, env.ul.horizon, RngStream(8),
                         [0])
    counts = np.array([env.ul.restricted_state[s[:m]].sum()
                       for s, m in zip(batch.states, batch.lengths)], dtype=float)
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - exact) <= 4 * se + 1e-9


def test_sentinel_ul_exact_grad_finite_difference():
    env = build_sentinel(GridSpec(max_steps=6))
    rng = np.random.default_rng(45)
    pmin = TabularPolicy(0.3 * rng.normal(size=(env.game.n_states, 5)))
    pmax = TabularPolicy(0.3 * rng.normal(size=(env.game.n_states, 5)))
    gmin, gmax = env.ul.grad_policies_exact(env.model, pmin, pmax)
    eps = 1e-5
    s0 = 4 * 25 + 0  # a spawn state, so the coordinate actually matters
    for (pol, grad, other, order) in [(pmin, gmin, pmax, "min"), (pmax, gmax, pmin, "max")]:
        lp = pol.logits.copy()
        lp[s0, 1] += eps
        hi = TabularPolicy(lp)
        lp2 = pol.logits.copy()
        lp2[s0, 1] -= eps
        lo = TabularPolicy(lp2)
        if order == "min":
            fd = (env.ul.value_exact(env.model, hi, other) -
                  env.ul.value_exact(env.model, lo, other)) / (2 * eps)
        else:
            fd = (env.ul.value_exact(env.model, other, hi) -
                  env.ul.value_exact(env.model, other, lo)) / (2 * eps)
        assert abs(fd - grad[s0, 1]) <= 1e-6 + 1e-5 * abs(fd)


def test_sentinel_ul_estimator_unbiased():
    env = build_sentinel(GridSpec(max_steps=8))
    pmin, pmax = uniform_pols(env)
    exact_min, exact_max = env.ul.grad_policies_exact(env.model, pmin, pmax)
    stream = RngStream(46)
    sm, sx = [], []
    for rep in range(300):
        gmin, gmax, _ = env.ul.grad_policies_estimate(env.model, pmin, pmax, 20,
                                                      stream, purpose=1, outer=rep)
        sm.append(gmin[env.game.init_dist > 0].reshape(-1))
        sx.append(gmax[env.game.init_dist > 0].reshape(-1))
    for chunks, exact in [(sm, exact_min), (sx, exact_max)]:
        m = np.array(chunks)
        se = m.std(axis=0, ddof=1) / np.sqrt(len(chunks))
        err = np.abs(m.mean(axis=0) - exact[env.game.init_dist > 0].reshape(-1))
        assert np.all(err <= 4 * se + 1e-6), (err.max(), se.max())


@pytest.mark.parametrize("name,n_batches", [("synthetic", 800), ("sentinel", 200)])
def test_ul_estimators_agree_with_exact(name, n_batches):
    """Both UL objectives' sampled value and policy gradient against the exact layer.

    z-scores of batch means over distinct `outer` coordinates, for the value
    and for four projections of the (min, max) gradient: along the exact
    gradient and along three fixed random directions.  Per-entry z-scores
    would not do: on the grid, rarely visited entries have a near-zero
    standard error.
    """
    env = build_env(name)
    game, model, ul = env.game, env.model, env.ul
    rng = np.random.default_rng(49)
    pmin = TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_min)))
    pmax = TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_max)))
    exact_grad = np.concatenate([g.ravel() for g in ul.grad_policies_exact(model, pmin, pmax)])
    dirs = np.vstack([exact_grad, rng.normal(size=(3, exact_grad.size))])
    exact = np.concatenate([[ul.value_exact(model, pmin, pmax)], dirs @ exact_grad])
    stream, batch = RngStream(50), 16
    samples = np.empty((n_batches, 5))
    for outer in range(n_batches):
        samples[outer, 0], _ = ul.value_estimate(model, pmin, pmax, batch, stream,
                                                 purpose=0, outer=outer)
        gmin, gmax, _ = ul.grad_policies_estimate(model, pmin, pmax, batch, stream,
                                                  purpose=1, outer=outer)
        samples[outer, 1:] = dirs @ np.concatenate([gmin.ravel(), gmax.ravel()])
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_batches)
    z = (samples.mean(axis=0) - exact) / se
    assert np.all(np.abs(z) <= 4.0), z


def _per_row_reinforce(batch, rewards, pol, side, gamma):
    """REINFORCE batch mean from a loop over rows, reading only [:lengths[i]]."""
    pi = probs(pol)
    grad = np.zeros_like(pi)
    acts = batch.actions_min if side == "min" else batch.actions_max
    for i, m in enumerate(batch.lengths):
        s, a, u = batch.states[i, :m], acts[i, :m], rewards[i][:m]
        for t in range(m):
            ret = sum(gamma ** (j - t) * u[j] for j in range(t, m))
            score = -pi[s[t]]
            score[a[t]] += 1.0
            grad[s[t]] += gamma ** t * ret * score
    return grad / len(batch)


def test_padded_steps_never_leak():
    # the restricted band holds state 0 (both players on cell (0,0)), which
    # is also what every padded step records
    env = build_sentinel(GridSpec(restricted=((0, 0),) + GridSpec().restricted))
    game, model = env.game, env.model
    assert env.ul.restricted_state[0]
    rng = np.random.default_rng(47)
    pmin = TabularPolicy(0.3 * rng.normal(size=(game.n_states, 5)))
    pmax = TabularPolicy(0.3 * rng.normal(size=(game.n_states, 5)))
    coords = dict(purpose=4, outer=2, inner=1)
    batch = sample_batch(game, model, [pmin], [pmax], 64, env.ul.horizon, RngStream(48),
                         [coords["purpose"]], coords["outer"], coords["inner"])
    assert (batch.lengths < env.ul.horizon).any() and (batch.lengths == env.ul.horizon).any()

    # upper level: the sentinel's restricted-step counts
    counts = [env.ul.restricted_state[batch.states[i, :m]].astype(float)
              for i, m in enumerate(batch.lengths)]
    v, steps = env.ul.value_estimate(model, pmin, pmax, 64, RngStream(48), **coords)
    assert steps == sum(batch.lengths)
    assert v == pytest.approx(np.mean([c.sum() for c in counts]), abs=1e-12)
    gmin, gmax, _ = env.ul.grad_policies_estimate(model, pmin, pmax, 64, RngStream(48),
                                                  **coords)
    np.testing.assert_allclose(gmin, _per_row_reinforce(batch, counts, pmin, "min", 1.0),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gmax, _per_row_reinforce(batch, counts, pmax, "max", 1.0),
                               rtol=1e-10, atol=1e-12)

    # lower level: regularized rewards and the incentive gradient
    lp_y, lp_z = log_softmax(pmin.logits), log_softmax(pmax.logits)
    reg = []
    for i, m in enumerate(batch.lengths):
        s, a, b = batch.states[i, :m], batch.actions_min[i, :m], batch.actions_max[i, :m]
        u = batch.rewards[i, :m] + game.tau_min * lp_y[s, a] - game.tau_max * lp_z[s, b]
        reg.append(np.where(game.absorbing[s], 0.0, u))
    for pol, side in ((pmin, "min"), (pmax, "max")):
        np.testing.assert_allclose(
            estimate_gradients(game, model, [pmin], [pmax], batch, [side])[0],
            _per_row_reinforce(batch, reg, pol, side, game.discount), rtol=1e-10, atol=1e-12)
    gx = effective_reward_grad_x(game, model)
    ref_x = np.zeros_like(gx)
    for i, m in enumerate(batch.lengths):
        for t in range(m):
            sab = batch.states[i, t], batch.actions_min[i, t], batch.actions_max[i, t]
            ref_x[sab] += game.discount ** t * gx[sab]
    np.testing.assert_allclose(estimate_gradients(game, model, [pmin], [pmax], batch, ["x"])[0],
                               ref_x / len(batch), rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("name", ["synthetic", "sentinel"])
def test_ul_estimators_sample_exactly_their_horizon(name, monkeypatch):
    """Every `*_estimate` method rolls out `ul.horizon` steps and counts the steps it drew.

    The z-score test above cannot see a rollout one step too long: on the
    grid most trajectories end before the horizon.
    """
    from panda import envs

    env = build_env(name)
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_batch(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(envs, "sample_batch", recording)
    pmin, pmax = uniform_pols(env)
    methods = sorted(m for m in vars(type(env.ul)) if m.endswith("_estimate"))
    assert methods == ["grad_policies_estimate", "grad_x_estimate", "value_estimate"]
    sampled = set()
    for method in methods:
        drawn.clear()
        out = getattr(env.ul, method)(env.model, pmin, pmax, 8, RngStream(1),
                                      purpose=4, outer=2, inner=3)
        assert [b.states.shape for b in drawn] == [(8, env.ul.horizon)] * len(drawn), method
        assert out[-1] == sum(int(b.lengths.sum()) for b in drawn), method
        if drawn:
            sampled.add(method)
    assert sampled == {"grad_policies_estimate", "value_estimate"}
