import gc
import weakref

import numpy as np
import pytest

from panda import game as game_module, sampling
from panda.envs import build_env
from panda.game import MarkovGame, RewardModel, TabularPolicy, probs
from panda.exact import exact_grads_truncated
from panda.sampling import (
    RngStream,
    _successors,
    TrajBatch,
    estimate_gradients,
    n_env_steps,
    reinforce,
    sample_batch,
)
from conftest import gapped_transition, random_game, random_policies


def single_state_game(gamma=0.9):
    p = np.ones((1, 2, 2, 1))
    game = MarkovGame(p, np.ones(1), np.zeros(1, bool), gamma, 0.1, 0.1)
    model = RewardModel(base=np.arange(4.0).reshape(1, 2, 2),
                        incentive_params=np.zeros((1, 2, 2)), incentive_scale=0.0)
    return game, model


def test_rollout_fixed_horizon_single_state():
    game, model = single_state_game()
    pol = TabularPolicy(np.zeros((1, 2)))
    traj = sample_batch(game, model, [pol], [pol], 1, 3, RngStream(0), [0])
    assert len(traj) == 1
    assert traj.lengths.tolist() == [3]
    assert np.all(traj.states == 0)
    for t in range(3):
        assert traj.rewards[0, t] == model.values()[0, traj.actions_min[0, t],
                                                    traj.actions_max[0, t]]


def test_rollout_absorbing_start_single_step():
    p = np.zeros((1, 2, 2, 1))
    p[..., 0] = 1.0
    game = MarkovGame(p, np.ones(1), np.ones(1, bool), 0.9, 0.1, 0.1)
    model = RewardModel(base=np.ones((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=0.0)
    traj = sample_batch(game, model, [TabularPolicy(np.zeros((1, 2)))],
                        [TabularPolicy(np.zeros((1, 2)))], 1, 5, RngStream(1), [0])
    assert traj.lengths.tolist() == [1]
    assert traj.rewards[0, 0] == 0.0  # absorbing states pay nothing


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
    traj = sample_batch(game, model, [pol], [pol], 1, 10, RngStream(2), [0])
    assert traj.lengths.tolist() == [1]
    assert traj.states[0, 0] == 0
    assert traj.rewards[0, 0] == 7.0
    # the columns past the length are padding: state 0, action 0, reward 0
    assert traj.states.shape == traj.rewards.shape == (1, 10)
    assert traj.mask.tolist() == [[True] + [False] * 9]
    assert not traj.rewards[0, 1:].any() and not traj.actions_min[0, 1:].any()


def test_rollout_respects_policy():
    game, model = single_state_game()
    det = TabularPolicy(np.array([[50.0, 0.0]]))
    traj = sample_batch(game, model, [det], [det], 1, 20, RngStream(3), [0])
    assert traj.lengths.tolist() == [20]
    assert np.all(traj.actions_min == 0)
    assert np.all(traj.actions_max == 0)


def test_streams_deterministic_and_order_free():
    game, model = random_game(131, n_states=3, na=2, nb=2, gamma=0.9)
    rng = np.random.default_rng(30)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    stream = RngStream(42)
    batch = sample_batch(game, model, [pmin], [pmax], 10, 6, stream, [2], outer=5, inner=1)
    again = sample_batch(game, model, [pmin], [pmax], 10, 6, stream, [2], outer=5, inner=1)
    assert len(batch) == 10 and batch.states.shape == (10, 6)
    assert np.array_equal(batch.states, again.states)
    assert np.array_equal(batch.actions_min, again.actions_min)
    assert np.array_equal(batch.actions_max, again.actions_max)
    assert np.array_equal(batch.rewards, again.rewards)
    assert np.array_equal(batch.lengths, again.lengths)
    # trajectory 7 of a smaller batch on the same coordinates matches its copy
    fewer = sample_batch(game, model, [pmin], [pmax], 8, 6, stream, [2], outer=5, inner=1)
    assert fewer.lengths[7] == batch.lengths[7]
    assert np.array_equal(fewer.states[7], batch.states[7])
    assert np.array_equal(fewer.rewards[7], batch.rewards[7])
    # different coordinates give different draws
    other = sample_batch(game, model, [pmin], [pmax], 10, 6, stream, [3], outer=5, inner=1)
    assert not np.array_equal(batch.states, other.states)


def test_uniforms_rows_match_per_trajectory_generators():
    stream = RngStream(9)
    u = stream.uniforms(3, 4, 5, 6, 7)
    assert u.shape == (6, 7)
    for i in range(6):
        assert np.array_equal(u[i], stream.generator(3, 4, 5, i).random(7))


def test_uniforms_rows_at_the_top_of_every_counter_field():
    # each counter and key word is at or above 2**63 once it is a Python int
    stream = RngStream(2**64 - 1)
    top = (2**16 - 1, 2**48 - 1, 2**64 - 1)
    u = stream.uniforms(*top, 3, 5)
    for i in range(3):
        assert np.array_equal(u[i], stream.generator(*top, i).random(5))
    # a later call at small coordinates is not disturbed by the large ones
    assert np.array_equal(stream.uniforms(1, 2, 3, 2, 4)[1],
                          stream.generator(1, 2, 3, 1).random(4))


def test_philox_key_is_seed_and_salt_as_uint64():
    # below 2**53 the draws are those earlier versions made, from a key list numpy
    # rounded to float64 (salt 0x9E3779B97F4A7C15 read as 0x9E3779B97F4A8000)
    for seed, pinned in ((0, [0.014626098260587361, 0.9834770889644125, 0.5184199981048835]),
                         (12345, [0.07791435526761015, 0.7492322225497187, 0.7431158845989021]),
                         (2**53 - 1, [0.3180822131545886, 0.08708894831876635, 0.6863569166926962])):
        gen = RngStream(seed).generator(purpose=1, outer=4, inner=2, traj=3)
        assert gen.random(3).tolist() == pinned
        assert gen.bit_generator.state["state"]["key"].tolist() == [seed, 0x9E3779B97F4A8000]
    # from 2**53 on every seed has a stream of its own, up to the largest
    draws = [RngStream(s).generator().random(4) for s in (2**53, 2**53 + 1, 2**64 - 2, 2**64 - 1)]
    assert len({d.tobytes() for d in draws}) == 4
    key = RngStream(2**64 - 1).generator().bit_generator.state["state"]["key"]
    assert key.tolist() == [2**64 - 1, 0x9E3779B97F4A8000]


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0, "0"])
def test_rng_stream_rejects_seeds_outside_uint64(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        RngStream(seed)


def test_n_env_steps_counts_lengths():
    game, model = random_game(137, n_states=3, gamma=0.9)
    rng = np.random.default_rng(31)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, [pmin], [pmax], 8, 4, RngStream(7), [0])
    assert n_env_steps(batch) == batch.mask.sum()
    assert n_env_steps(batch) == 8 * 4  # no absorbing states here


def test_reinforce_two_step_closed_form():
    # two-step trajectory with rewards (1, 2) and gamma 0.5: reward-to-go
    # (2, 2), discounted weights (2, 1); a one-step trajectory with reward 4
    # weighs its score by 4; state 1 is never visited
    # (the second row's padded step holds state 0, action 0, reward 0)
    trajs = TrajBatch(states=np.array([[0, 0], [0, 0]]),
                      actions_min=np.array([[0, 1], [1, 0]]),
                      actions_max=np.array([[1, 0], [1, 0]]),
                      rewards=np.zeros((2, 2)), lengths=np.array([2, 1]))
    step_rewards = np.array([[1.0, 2.0], [4.0, 0.0]])
    y = np.array([[0.25, 0.75], [0.5, 0.5]])
    z = np.array([[0.5, 0.5], [0.9, 0.1]])
    # min: (2*(e0 - y0) + (e1 - y0) + 4*(e1 - y0)) / 2
    np.testing.assert_allclose(reinforce(trajs, step_rewards, [y], ["min"], 0.5)[0],
                               [[0.125, -0.125], [0.0, 0.0]], atol=1e-15)
    # max: (2*(e1 - z0) + (e0 - z0) + 4*(e1 - z0)) / 2
    np.testing.assert_allclose(reinforce(trajs, step_rewards, [z], ["max"], 0.5)[0],
                               [[-1.25, 1.25], [0.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError):
        reinforce(trajs, step_rewards, [y], ["both"], 0.5)


def test_estimate_grad_x_zero_scale():
    game, model = random_game(149, scale=0.0)
    rng = np.random.default_rng(33)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, [pmin], [pmax], 4, 3, RngStream(9), [0])
    assert np.abs(estimate_gradients(game, model, [pmin], [pmax], batch, ["x"])[0]).max() == 0.0


def test_estimate_grad_x_single_deterministic_step():
    game, _ = single_state_game()
    model = RewardModel(base=np.zeros((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=1.0)
    det = TabularPolicy(np.array([[50.0, 0.0]]))
    batch = sample_batch(game, model, [det], [det], 1, 1, RngStream(10), [0])
    g, = estimate_gradients(game, model, [det], [det], batch, ["x"])
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
    exact = exact_grads_truncated(game, model, pmin, pmax, horizon)[0]
    stream = RngStream(11)
    chunks = []
    for rep in range(400):
        batch = sample_batch(game, model, [pmin], [pmax], 50, horizon, stream, [0], outer=rep)
        chunks.append(estimate_gradients(game, model, [pmin], [pmax], batch, ["min"])[0])
    mean, se = _chunked_mean_se(chunks)
    err = np.abs(mean - exact.reshape(-1))
    assert np.all(err <= 4 * se + 1e-12), (err, se)


def test_estimate_grad_x_unbiased_for_truncated_gradient():
    game, model = random_game(157, n_states=3, na=2, nb=2, gamma=0.9, scale=0.8)
    rng = np.random.default_rng(35)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    horizon = 4
    exact = exact_grads_truncated(game, model, pmin, pmax, horizon)[2]
    stream = RngStream(12)
    chunks = []
    for rep in range(400):
        batch = sample_batch(game, model, [pmin], [pmax], 50, horizon, stream, [1], outer=rep)
        chunks.append(estimate_gradients(game, model, [pmin], [pmax], batch, ["x"])[0])
    mean, se = _chunked_mean_se(chunks)
    err = np.abs(mean - exact.reshape(-1))
    assert np.all(err <= 4 * se + 1e-12), (err, se)


def test_estimate_grad_policy_symmetric_game_is_mean_zero():
    # zero reward, equal temps, uniform policies: the exact gradient vanishes
    game, _ = single_state_game()
    model = RewardModel(base=np.zeros((1, 2, 2)), incentive_params=np.zeros((1, 2, 2)),
                        incentive_scale=0.0)
    pol = TabularPolicy(np.zeros((1, 2)))
    exact = exact_grads_truncated(game, model, pol, pol, 3)[1]
    np.testing.assert_allclose(exact, 0.0, atol=1e-14)
    stream = RngStream(13)
    chunks = []
    for rep in range(200):
        batch = sample_batch(game, model, [pol], [pol], 50, 3, stream, [0], outer=rep)
        chunks.append(estimate_gradients(game, model, [pol], [pol], batch, ["max"])[0])
    mean, se = _chunked_mean_se(chunks)
    assert np.all(np.abs(mean) <= 4 * se + 1e-12)


def test_estimate_gradients_bundle():
    game, model = random_game(163, n_states=3, gamma=0.9)
    rng = np.random.default_rng(36)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    batch = sample_batch(game, model, [pmin], [pmax], 6, 3, RngStream(14), [0])
    with pytest.raises(ValueError, match="side"):
        estimate_gradients(game, model, [pmin], [pmax], batch, ["y"])


def test_variance_scales_inversely_with_batch():
    game, model = random_game(167, n_states=3, gamma=0.9)
    rng = np.random.default_rng(37)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    stream = RngStream(15)

    def total_variance(batch_size, reps, purpose):
        samples = []
        for rep in range(reps):
            batch = sample_batch(game, model, [pmin], [pmax], batch_size, 3, stream,
                                 [purpose], outer=rep)
            samples.append(estimate_gradients(game, model, [pmin], [pmax], batch,
                                              ["min"])[0].reshape(-1))
        m = np.array(samples)
        return m.var(axis=0, ddof=1).sum()

    v1 = total_variance(1, 3000, 0)
    v8 = total_variance(8, 3000, 1)
    ratio = v1 / (8 * v8)
    assert 0.8 <= ratio <= 1.25, ratio


def _reference_batch(game, model, pmin, pmax, horizon, us):
    """One trajectory at a time, each draw a searchsorted over its row capped at the last
    entry of positive mass."""
    def draw(p, u):
        cum = np.cumsum(p)
        return min(int(np.searchsorted(cum, u, side="right")), np.flatnonzero(p)[-1])

    y, z = probs(pmin), probs(pmax)
    r = np.where(game.absorbing[:, None, None], 0.0, model.values())
    n = len(us)
    states, amin, amax = (np.zeros((n, horizon), np.intp) for _ in range(3))
    rewards = np.zeros((n, horizon))
    lengths = np.zeros(n, np.intp)
    for i, u in enumerate(us):
        s = draw(game.init_dist, u[0])
        for t in range(horizon):
            a, b = draw(y[s], u[1 + 3 * t]), draw(z[s], u[2 + 3 * t])
            states[i, t], amin[i, t], amax[i, t], rewards[i, t] = s, a, b, r[s, a, b]
            lengths[i] = t + 1
            s = game.succ[s, a, b, draw(game.succ_prob[s, a, b], u[3 + 3 * t])]
            if game.absorbing[s]:
                break
    return states, amin, amax, rewards, lengths


def _deterministic_game(rng, n_states, na, nb):
    """One successor per (s, a, b), the last state absorbing."""
    p = np.zeros((n_states, na, nb, n_states))
    nxt = rng.integers(0, n_states, size=(n_states, na, nb))
    nxt[-1] = n_states - 1
    np.put_along_axis(p, nxt[..., None], 1.0, axis=3)
    rho = rng.uniform(0.2, 1.0, size=n_states)
    absorbing = np.arange(n_states) == n_states - 1
    return MarkovGame(p, rho / rho.sum(), absorbing, 0.9, 0.1, 0.1)


def test_rollout_matches_per_row_reference():
    rng = np.random.default_rng(17)
    games = [random_game(150 + i, n_states=4, na=2, nb=3, n_absorbing=i % 3)
             for i in range(6)]
    gapped = MarkovGame(gapped_transition(), np.array([0.4, 0.4, 0.2]),
                        np.array([False, False, True]), 0.9, 0.1, 0.1)
    games.append((gapped, RewardModel(rng.normal(size=(3, 2, 2)),
                                      rng.normal(size=(3, 2, 2)), 1.0)))
    for n in (3, 6):
        det = _deterministic_game(rng, n, 2, 3)
        assert det.succ.shape[3] == 1
        games.append((det, RewardModel(rng.normal(size=(n, 2, 3)),
                                       rng.normal(size=(n, 2, 3)), 1.0)))
    # games with and without absorbing states take different paths through the rollout
    assert {bool(game.absorbing.any()) for game, _ in games} == {False, True}
    early_ends = absorbing_starts = 0
    for g, (game, model) in enumerate(games):
        S, A, B, _ = game.succ.shape
        pmin, pmax = random_policies(rng, S, A, B, spread=2.0)
        for horizon in (1, 2, 5, 13, 20):
            stream = RngStream(g)
            batch = int(rng.integers(1, 40))
            got = sample_batch(game, model, [pmin], [pmax], batch, horizon, stream,
                               [1], outer=horizon, inner=g)
            us = stream.uniforms(1, horizon, g, batch, 1 + 3 * horizon)
            want = _reference_batch(game, model, pmin, pmax, horizon, us)
            for name, w in zip(("states", "actions_min", "actions_max", "rewards", "lengths"),
                               want):
                arr = getattr(got, name)
                assert arr.dtype == w.dtype and np.array_equal(arr, w), (g, horizon, name)
            early_ends += int((got.lengths < horizon).sum())
            absorbing_starts += int(game.absorbing[got.states[:, 0]].sum())
    assert early_ends > 100 and absorbing_starts > 10  # padding and absorbing starts occur


def test_successor_draws_match_dense_searchsorted():
    p = gapped_transition()
    game = MarkovGame(p, np.array([0.5, 0.5, 0.0]), np.array([False, False, True]),
                      0.9, 0.1, 0.1)
    rng = np.random.default_rng(9)
    for s, a, b in np.ndindex(p.shape[:3]):
        cum = np.cumsum(p[s, a, b])
        # random draws, every cumulative value, and the floats just below them
        u = np.concatenate([rng.random(200), [0.0], cum[:-1],
                            np.nextafter(cum, 0.0)])
        u = u[u < cum[-1]]
        n = len(u)
        sab = np.ravel_multi_index((s, a, b), p.shape[:3])
        got = _successors(game)(np.full(n, sab), u)
        assert np.array_equal(got, np.searchsorted(cum, u, side="right")), (s, a, b)


def test_successor_draw_past_a_short_row_sum_stays_on_a_successor():
    # a row summing to just under one: a draw above its sum takes the last
    # real successor, never a zero-probability pad
    succ = np.array([[[[0, 1, 1]]], [[[1, 1, 1]]]])
    prob = np.array([[[[0.5, 0.5 - 1e-12, 0.0]]], [[[1.0, 0.0, 0.0]]]])
    game = MarkovGame.from_successors(succ, prob, np.array([1.0, 0.0]),
                                      np.array([False, True]), 0.9, 0.1, 0.1)
    assert _successors(game)(np.zeros(1, np.intp), np.array([1.0 - 1e-13])).tolist() == [1]


def test_initial_states_come_from_the_initial_support():
    # six spawns: the initial masses sum to just under 1, and the absorbing
    # terminal after them has mass 0; the largest uniform below 1 must still
    # start every trajectory on a spawn
    spawns = ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (4, 0))
    env = build_env("sentinel", intruder_spawns=spawns)
    game = env.game
    assert np.cumsum(game.init_dist)[-1] < 1.0 and game.init_dist[-1] == 0.0

    class TopStream:
        def uniforms(self, purpose, outer, inner, batch, n):
            us = np.full((batch, n), 0.5)
            us[:, 0] = np.nextafter(1.0, 0.0)
            return us

    pol = TabularPolicy.uniform(game.n_states, game.n_actions_min)
    batch = sample_batch(game, env.model, [pol], [pol], 4, 3, TopStream(), [0])
    assert np.all(game.init_dist[batch.states[:, 0]] > 0.0)
    assert batch.states[:, 0].tolist() == [np.flatnonzero(game.init_dist)[-1]] * 4


class _ConstantStream:
    """Every uniform of every row equal to `value`."""

    def __init__(self, value):
        self.value = value

    def uniforms(self, purpose, outer, inner, batch, n):
        return np.full((batch, n), self.value)


def test_action_of_probability_zero_is_never_drawn():
    # the first six actions' masses sum to 0.9999999999999999 and the last has mass 0:
    # the largest uniform below 1 must take the sixth action, not the seventh
    game = MarkovGame(np.ones((1, 7, 1, 1)), np.ones(1), np.zeros(1, bool), 0.9, 0.1, 0.1)
    model = RewardModel(np.zeros((1, 7, 1)), np.zeros((1, 7, 1)), 0.0)
    pmin = TabularPolicy([[0, 0, 0, 0, 0, 0, -1000]])
    assert probs(pmin)[0, 6] == 0.0 and np.cumsum(probs(pmin))[5] < 1.0
    batch = sample_batch(game, model, [pmin], [TabularPolicy.uniform(1, 1)], 2, 3,
                         _ConstantStream(np.nextafter(1.0, 0.0)), [0])
    assert batch.actions_min.tolist() == [[5] * 3] * 2


def test_rng_stream_rejects_coordinates_outside_their_fields():
    stream = RngStream(5)
    # purpose and outer share one counter word: outer 2**48 would alias purpose 1
    with pytest.raises(ValueError, match=r"outer must be an integer in \[0, 2\*\*48\)"):
        stream.generator(purpose=0, outer=2**48)
    with pytest.raises(ValueError, match=r"purpose must be an integer in \[0, 2\*\*16\)"):
        stream.generator(purpose=2**16)
    for coords in ({"outer": -1}, {"inner": -1}, {"traj": -1}, {"purpose": -1},
                   {"inner": 2**64}, {"traj": 2**64}, {"inner": True}, {"outer": 1.0}):
        with pytest.raises(ValueError, match=f"{next(iter(coords))} must be an integer"):
            stream.generator(**coords)
    with pytest.raises(ValueError, match="outer must be an integer"):
        stream.uniforms(0, -1, 0, 4, 3)
    # the largest coordinates of each field are distinct streams
    top = [stream.generator(2**16 - 1, 0).random(2), stream.generator(0, 2**48 - 1).random(2),
           stream.generator(inner=2**64 - 1).random(2), stream.generator(traj=2**64 - 1).random(2),
           stream.generator(1, 0).random(2)]
    assert len({d.tobytes() for d in top}) == 5
    assert np.array_equal(stream.generator(np.int64(1), np.uint64(3)).random(2),
                          stream.generator(1, 3).random(2))


def _stacking_games():
    """Random games with 0-2 absorbing states and unequal action sets, the gapped game,
    and the pursuit grid."""
    rng = np.random.default_rng(61)
    games = [random_game(170 + i, n_states=4, na=2, nb=3, n_absorbing=i) for i in range(3)]
    gapped = MarkovGame(gapped_transition(), np.array([0.4, 0.4, 0.2]),
                        np.array([False, False, True]), 0.9, 0.1, 0.1)
    games.append((gapped, RewardModel(rng.normal(size=(3, 2, 2)),
                                      rng.normal(size=(3, 2, 2)), 1.0)))
    grid = build_env("sentinel")
    games.append((grid.game, grid.model.with_params(rng.normal(size=grid.model.base.shape))))
    return games


def test_stacked_batches_give_the_per_pair_bits():
    """A stacked sample_batch + estimate_gradients against one call per pair, byte for byte."""
    rng = np.random.default_rng(62)
    early_ends = 0
    for g, (game, model) in enumerate(_stacking_games()):
        S, A, B, _ = game.succ.shape
        y0, z0 = random_policies(rng, S, A, B, spread=2.0)
        y1, z1 = random_policies(rng, S, A, B, spread=2.0)
        # one policy repeated across pairs in each list, as descent-ascent does
        pairs = [(y0, z0), (y1, z0), (y0, z1)]
        purposes = [2, 5, 3]
        for n_req in (1, 2, 3):
            pmins, pmaxs = [p[0] for p in pairs[:n_req]], [p[1] for p in pairs[:n_req]]
            for horizon in (1, 3, 20):
                stream, batch = RngStream(g), int(rng.integers(1, 12))
                coords = {"outer": horizon, "inner": g}
                stacked = sample_batch(game, model, pmins, pmaxs, batch, horizon, stream,
                                       purposes[:n_req], **coords)
                alone = [sample_batch(game, model, [pmins[p]], [pmaxs[p]], batch, horizon,
                                      stream, [purposes[p]], **coords) for p in range(n_req)]
                for name in ("states", "actions_min", "actions_max", "rewards", "lengths"):
                    got = getattr(stacked, name)
                    want = np.concatenate([getattr(a, name) for a in alone])
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        (g, n_req, horizon, name)
                early_ends += int((stacked.lengths < horizon).sum())
                for sides in (["min", "max", "min"], ["max", "min", "max"], ["x"] * 3):
                    grads = estimate_gradients(game, model, pmins, pmaxs, stacked,
                                               sides[:n_req])
                    assert len(grads) == n_req
                    for p, (got, one) in enumerate(zip(grads, alone)):
                        want, = estimate_gradients(game, model, [pmins[p]], [pmaxs[p]], one,
                                                   [sides[p]])
                        assert (got.dtype == want.dtype and got.shape == want.shape
                                and got.tobytes() == want.tobytes()), (g, n_req, horizon, sides, p)
    assert early_ends > 50


def test_stacked_calls_check_their_requests():
    game, model = random_game(173, n_states=3)
    rng = np.random.default_rng(63)
    pmin, pmax = random_policies(rng, 3, 2, 2)
    with pytest.raises(ValueError, match="policies_max has 1"):
        sample_batch(game, model, [pmin, pmin], [pmax], 4, 2, RngStream(0), [0, 1])
    batch = sample_batch(game, model, [pmin, pmin], [pmax, pmax], 4, 2, RngStream(0), [0, 1])
    with pytest.raises(ValueError, match="cannot mix"):
        estimate_gradients(game, model, [pmin, pmin], [pmax, pmax], batch, ["x", "min"])
    with pytest.raises(ValueError, match="side"):
        estimate_gradients(game, model, [pmin, pmin], [pmax, pmax], batch, ["min", "y"])
    # each request argument of the three functions: a bare entry (the old single
    # form), an empty list and a list shorter than the others fail, naming it
    calls = [
        (lambda **kw: sample_batch(game, model, batch=4, horizon=2, stream=RngStream(0), **kw),
         {"policies_min": [pmin, pmin], "policies_max": [pmax, pmax], "purposes": [0, 1]}),
        (lambda **kw: estimate_gradients(game, model, batch=batch, **kw),
         {"policies_min": [pmin, pmin], "policies_max": [pmax, pmax], "sides": ["min", "max"]}),
        (lambda **kw: reinforce(batch, batch.rewards, gamma=0.9, **kw),
         {"tables": [probs(pmin), probs(pmax)], "sides": ["min", "max"]}),
    ]
    for call, good in calls:
        assert len(call(**good)) in (2, 8)
        for name, value in good.items():
            listed = f"^{name} must be a non-empty list, one entry per request, got "
            for bad, msg in ((value[0], listed + type(value[0]).__name__ + "$"),
                             ([], listed + "an empty list$"),
                             (value[:1], rf"equal lengths: .*\b{name} has 1\b")):
                with pytest.raises(ValueError, match=msg):
                    call(**{**good, name: bad})


def test_reinforce_on_lists_gives_each_sides_bits():
    game, model = random_game(179, n_states=4, na=2, nb=3, n_absorbing=1)
    rng = np.random.default_rng(64)
    pmin, pmax = random_policies(rng, 4, 2, 3, spread=2.0)
    batch = sample_batch(game, model, [pmin], [pmax], 9, 6, RngStream(3), [0])
    rewards = np.where(batch.mask, rng.normal(size=batch.rewards.shape), 0.0)
    y, z = probs(pmin), probs(pmax)
    for tables, sides in (([y, z], ["min", "max"]), ([z, y, z], ["max", "min", "max"])):
        grads = reinforce(batch, rewards, tables, sides, 0.9)
        for got, table, side in zip(grads, tables, sides):
            want, = reinforce(batch, rewards, [table], [side], 0.9)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), side


def _counting(monkeypatch, name):
    calls = []
    real = getattr(sampling, name)
    monkeypatch.setattr(sampling, name, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("n_req", [1, 2, 4])
def test_one_table_pass_per_side_per_phase(monkeypatch, n_req):
    game, model = random_game(181, n_states=4, na=2, nb=3, n_absorbing=1)
    rng = np.random.default_rng(65)
    pairs = [random_policies(rng, 4, 2, 3) for _ in range(n_req)]
    pmins, pmaxs = [p[0] for p in pairs], [p[1] for p in pairs]
    softmaxes = _counting(monkeypatch, "softmax")
    log_softmaxes = _counting(monkeypatch, "log_softmax")
    batch = sample_batch(game, model, pmins, pmaxs, 5, 4, RngStream(0), list(range(n_req)))
    assert (len(softmaxes), len(log_softmaxes)) == (2, 0)
    for sides in (["min"] * n_req, [("max", "min")[p % 2] for p in range(n_req)]):
        log_softmaxes.clear()
        estimate_gradients(game, model, pmins, pmaxs, batch, sides)
        assert len(log_softmaxes) == 2
    assert len(softmaxes) == 2


def test_draw_tables_built_once_per_game(monkeypatch):
    built = []
    real = game_module._cumulative
    monkeypatch.setattr(game_module, "_cumulative", lambda p: built.append(p.shape) or real(p))
    game, model = random_game(191, n_states=3)
    pol = TabularPolicy(np.zeros((3, 2)))
    for n_req in (1, 2, 1):
        sample_batch(game, model, [pol] * n_req, [pol] * n_req, 4, 2, RngStream(0),
                     list(range(n_req)))
    assert built == [(12, 3), (3,)]  # successor rows, then the initial support's row


def test_dropping_a_game_frees_its_draw_tables():
    game, model = random_game(193, n_states=3, n_absorbing=1)
    pol = TabularPolicy(np.zeros((3, 2)))
    sample_batch(game, model, [pol], [pol], 4, 2, RngStream(0), [0])
    tables = weakref.ref(game._draws[0])
    ref = weakref.ref(game)
    del game
    gc.collect()
    assert ref() is None and tables() is None
