import numpy as np
import pytest

from panda.game import MarkovGame, RewardModel, TabularPolicy
from panda.exact import exact_grad_policy_truncated, exact_grad_x_truncated
from panda.sampling import (
    RngStream,
    Trajectory,
    estimate_grad_policy,
    estimate_grad_x,
    estimate_gradients,
    n_env_steps,
    reinforce,
    rollout,
    sample_batch,
)
from conftest import random_game, random_policies


def single_state_game(gamma=0.9):
    p = np.ones((1, 2, 2, 1))
    game = MarkovGame(p, np.ones(1), np.zeros(1, bool), gamma, 0.1, 0.1)
    model = RewardModel(base=np.arange(4.0).reshape(1, 2, 2),
                        incentive_params=np.zeros((1, 2, 2)), incentive_scale=0.0)
    return game, model


def test_rollout_fixed_horizon_single_state():
    game, model = single_state_game()
    pol = TabularPolicy(np.zeros((1, 2)))
    traj = rollout(game, model, pol, pol, 3, RngStream(0).generator())
    assert len(traj) == 3
    assert np.all(traj.states == 0)
    for t in range(3):
        assert traj.rewards[t] == model.values()[0, traj.actions_min[t], traj.actions_max[t]]


def test_rollout_absorbing_start_single_step():
    p = np.zeros((1, 2, 2, 1))
    p[..., 0] = 1.0
    game = MarkovGame(p, np.ones(1), np.ones(1, bool), 0.9, 0.1, 0.1)
    model = RewardModel(base=np.ones((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=0.0)
    traj = rollout(game, model, TabularPolicy(np.zeros((1, 2))),
                   TabularPolicy(np.zeros((1, 2))), 5, RngStream(1).generator())
    assert len(traj) == 1
    assert traj.rewards[0] == 0.0  # absorbing states pay nothing


def test_rollout_stops_on_entering_absorbing():
    # state 0 always moves to absorbing state 1: trajectories have length 1
    # and keep the transition's own reward
    p = np.zeros((2, 1, 1, 2))
    p[0, 0, 0, 1] = 1.0
    p[1, 0, 0, 1] = 1.0
    game = MarkovGame(p, np.array([1.0, 0.0]), np.array([False, True]), 0.9, 0.1, 0.1)
    model = RewardModel(base=np.full((2, 1, 1), 7.0), incentive_params=np.zeros((2, 1, 1)),
                        incentive_scale=0.0)
    pol = TabularPolicy(np.zeros((2, 1)))
    traj = rollout(game, model, pol, pol, 10, RngStream(2).generator())
    assert len(traj) == 1
    assert traj.states[0] == 0
    assert traj.rewards[0] == 7.0


def test_rollout_respects_policy():
    game, model = single_state_game()
    det = TabularPolicy(np.array([[50.0, 0.0]]))
    traj = rollout(game, model, det, det, 20, RngStream(3).generator())
    assert np.all(traj.actions_min == 0)
    assert np.all(traj.actions_max == 0)


def test_streams_deterministic_and_order_free():
    game, model = random_game(131, n_states=3, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(30)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    stream = RngStream(42)
    batch = sample_batch(game, model, pmin, pmax, 10, 6, stream, purpose=2, outer=5, inner=1)
    again = sample_batch(game, model, pmin, pmax, 10, 6, stream, purpose=2, outer=5, inner=1)
    for a, b in zip(batch, again):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions_min, b.actions_min)
        assert np.array_equal(a.actions_max, b.actions_max)
        assert np.array_equal(a.rewards, b.rewards)
    # trajectory 7 regenerated in isolation matches its in-batch copy
    solo = rollout(game, model, pmin, pmax, 6, stream.generator(2, 5, 1, 7))
    assert np.array_equal(solo.states, batch[7].states)
    assert np.array_equal(solo.rewards, batch[7].rewards)
    # different coordinates give different draws
    other = sample_batch(game, model, pmin, pmax, 10, 6, stream, purpose=3, outer=5, inner=1)
    assert any(not np.array_equal(a.states, b.states) for a, b in zip(batch, other))


def test_uniforms_rows_match_per_trajectory_generators():
    stream = RngStream(9)
    u = stream.uniforms(3, 4, 5, 6, 7)
    assert u.shape == (6, 7)
    for i in range(6):
        assert np.array_equal(u[i], stream.generator(3, 4, 5, i).random(7))


def test_n_env_steps_counts_lengths():
    game, model = random_game(137, n_states=3, gamma=0.9)
    rng = np.random.default_rng(31)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, pmin, pmax, 8, 4, RngStream(7))
    assert n_env_steps(batch) == sum(len(t) for t in batch)
    assert n_env_steps(batch) == 8 * 4  # no absorbing states here


def test_reinforce_two_step_closed_form():
    # two-step trajectory with rewards (1, 2) and gamma 0.5: reward-to-go
    # (2, 2), discounted weights (2, 1); a one-step trajectory with reward 4
    # weighs its score by 4; state 1 is never visited
    trajs = [Trajectory(states=np.array([0, 0]), actions_min=np.array([0, 1]),
                        actions_max=np.array([1, 0]), rewards=np.zeros(2)),
             Trajectory(states=np.array([0]), actions_min=np.array([1]),
                        actions_max=np.array([1]), rewards=np.zeros(1))]
    step_rewards = [np.array([1.0, 2.0]), np.array([4.0])]
    y = np.array([[0.25, 0.75], [0.5, 0.5]])
    z = np.array([[0.5, 0.5], [0.9, 0.1]])
    # min: (2*(e0 - y0) + (e1 - y0) + 4*(e1 - y0)) / 2
    np.testing.assert_allclose(reinforce(trajs, step_rewards, y, "min", 0.5),
                               [[0.125, -0.125], [0.0, 0.0]], atol=1e-15)
    # max: (2*(e1 - z0) + (e0 - z0) + 4*(e1 - z0)) / 2
    np.testing.assert_allclose(reinforce(trajs, step_rewards, z, "max", 0.5),
                               [[-1.25, 1.25], [0.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError):
        reinforce(trajs, step_rewards, y, "both", 0.5)


def test_estimate_grad_x_zero_scale():
    game, model = random_game(149, scale=0.0)
    rng = np.random.default_rng(33)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, pmin, pmax, 4, 3, RngStream(9))
    assert np.abs(estimate_grad_x(game, model, batch)).max() == 0.0


def test_estimate_grad_x_single_deterministic_step():
    game, _ = single_state_game()
    model = RewardModel(base=np.zeros((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=1.0)
    det = TabularPolicy(np.array([[50.0, 0.0]]))
    batch = sample_batch(game, model, det, det, 1, 1, RngStream(10))
    g = estimate_grad_x(game, model, batch)
    assert g[0, 0, 0] == pytest.approx(0.25, abs=1e-12)  # sigmoid'(0)
    assert np.abs(g).sum() == pytest.approx(0.25, abs=1e-12)


def _chunked_mean_se(chunks):
    m = np.array([c.reshape(-1) for c in chunks])
    mean = m.mean(axis=0)
    se = m.std(axis=0, ddof=1) / np.sqrt(len(chunks))
    return mean, se


def test_estimate_grad_policy_unbiased_for_truncated_gradient():
    game, model = random_game(151, n_states=3, na=2, nb=2, gamma=0.9, n_absorbing=1)
    rng = np.random.default_rng(34)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    horizon = 4
    exact = exact_grad_policy_truncated(game, model, pmin, pmax, horizon, "min")
    stream = RngStream(11)
    chunks = []
    for rep in range(400):
        batch = sample_batch(game, model, pmin, pmax, 50, horizon, stream, purpose=0, outer=rep)
        chunks.append(estimate_grad_policy(game, pmin, pmax, batch, "min"))
    mean, se = _chunked_mean_se(chunks)
    err = np.abs(mean - exact.reshape(-1))
    assert np.all(err <= 4 * se + 1e-12), (err, se)


def test_estimate_grad_x_unbiased_for_truncated_gradient():
    game, model = random_game(157, n_states=3, na=2, nb=2, gamma=0.9, scale=0.8)
    rng = np.random.default_rng(35)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    horizon = 4
    exact = exact_grad_x_truncated(game, model, pmin, pmax, horizon)
    stream = RngStream(12)
    chunks = []
    for rep in range(400):
        batch = sample_batch(game, model, pmin, pmax, 50, horizon, stream, purpose=1, outer=rep)
        chunks.append(estimate_grad_x(game, model, batch))
    mean, se = _chunked_mean_se(chunks)
    err = np.abs(mean - exact.reshape(-1))
    assert np.all(err <= 4 * se + 1e-12), (err, se)


def test_estimate_grad_policy_symmetric_game_is_mean_zero():
    # zero reward, equal temps, uniform policies: the exact gradient vanishes
    game, _ = single_state_game()
    model = RewardModel(base=np.zeros((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=0.0)
    pol = TabularPolicy(np.zeros((1, 2)))
    exact = exact_grad_policy_truncated(game, model, pol, pol, 3, "max")
    np.testing.assert_allclose(exact, 0.0, atol=1e-14)
    stream = RngStream(13)
    chunks = []
    for rep in range(200):
        batch = sample_batch(game, model, pol, pol, 50, 3, stream, outer=rep)
        chunks.append(estimate_grad_policy(game, pol, pol, batch, "max"))
    mean, se = _chunked_mean_se(chunks)
    assert np.all(np.abs(mean) <= 4 * se + 1e-12)


def test_estimate_gradients_bundle():
    game, model = random_game(163, n_states=3, gamma=0.9)
    rng = np.random.default_rng(36)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, pmin, pmax, 6, 3, RngStream(14))
    est = estimate_gradients(game, model, pmin, pmax, batch)
    assert est.n_env_steps == n_env_steps(batch)
    np.testing.assert_array_equal(est.grad_x, estimate_grad_x(game, model, batch))
    np.testing.assert_array_equal(est.grad_min,
                                  estimate_grad_policy(game, pmin, pmax, batch, "min"))
    est2 = estimate_gradients(game, model, pmin, pmax, batch, want=("max",))
    assert est2.grad_x is None and est2.grad_min is None
    assert est2.grad_max is not None


def test_variance_scales_inversely_with_batch():
    game, model = random_game(167, n_states=3, gamma=0.9)
    rng = np.random.default_rng(37)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    stream = RngStream(15)

    def total_variance(batch_size, reps, purpose):
        samples = []
        for rep in range(reps):
            batch = sample_batch(game, model, pmin, pmax, batch_size, 3, stream,
                                 purpose=purpose, outer=rep)
            samples.append(estimate_grad_policy(game, pmin, pmax, batch, "min").reshape(-1))
        m = np.array(samples)
        return m.var(axis=0, ddof=1).sum()

    v1 = total_variance(1, 3000, 0)
    v8 = total_variance(8, 3000, 1)
    ratio = v1 / (8 * v8)
    assert 0.8 <= ratio <= 1.25, ratio
