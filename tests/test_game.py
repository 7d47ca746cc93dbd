import numpy as np
import pytest

from panda.game import (
    MarkovGame,
    RewardModel,
    TabularPolicy,
    effective_reward,
)
from conftest import gapped_transition, random_game


def test_uniform_probs_from_zero_logits():
    pol = TabularPolicy(np.zeros((2, 3)))
    np.testing.assert_allclose(pol.probs_all(), np.full((2, 3), 1.0 / 3.0), atol=1e-15)


def test_constant_logit_shift_is_uniform():
    pol = TabularPolicy(np.full((1, 2), 7.3))
    np.testing.assert_allclose(pol.probs_all()[0], [0.5, 0.5], atol=1e-15)


def test_two_to_one_odds():
    pol = TabularPolicy(np.array([[np.log(2.0), 0.0]]))
    np.testing.assert_allclose(pol.probs_all()[0], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_reward_values_closed_form():
    base = np.full((1, 1, 1), 0.5)
    m = RewardModel(base=base, incentive_params=np.zeros((1, 1, 1)), incentive_scale=1.0)
    assert m.values()[0, 0, 0] == pytest.approx(1.0, abs=1e-15)  # 0.5 + sigmoid(0)
    assert m.grad_x()[0, 0, 0] == pytest.approx(0.25, abs=1e-15)  # sigmoid'(0)

    m0 = RewardModel(base=base, incentive_params=np.full((1, 1, 1), 9.0), incentive_scale=0.0)
    assert m0.values()[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert m0.grad_x()[0, 0, 0] == 0.0

    ms = RewardModel(base=np.zeros((1, 1, 1)), incentive_params=np.full((1, 1, 1), 2.0),
                     incentive_scale=0.05)
    sig2 = 1.0 / (1.0 + np.exp(-2.0))
    assert ms.values()[0, 0, 0] == pytest.approx(0.05 * sig2, rel=1e-14)


def test_reward_grad_finite_difference():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 2, 2))
    m = RewardModel(base=rng.uniform(size=(2, 2, 2)), incentive_params=x, incentive_scale=0.7)
    h = 1e-5
    for idx in [(0, 0, 0), (1, 1, 0), (0, 1, 1)]:
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd = (m.with_params(xp).values()[idx] - m.with_params(xm).values()[idx]) / (2 * h)
        assert abs(fd - m.grad_x()[idx]) < 1e-8


def test_transition_row_sum_validation():
    p = np.full((2, 1, 1, 2), 0.5)
    p[0, 0, 0, 0] += 1e-6  # off by too much
    with pytest.raises(ValueError):
        MarkovGame(transition=p, init_dist=np.array([0.5, 0.5]),
                   absorbing=np.zeros(2, bool), discount=0.9, tau_min=0.1, tau_max=0.1)
    p[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="rows must sum to 1"):
        MarkovGame(transition=p, init_dist=np.array([0.5, 0.5]),
                   absorbing=np.zeros(2, bool), discount=0.9, tau_min=0.1, tau_max=0.1)


def test_negative_transition_rejected():
    p = np.zeros((1, 1, 1, 1))
    p[0, 0, 0, 0] = 1.0
    g = MarkovGame(transition=p, init_dist=np.ones(1), absorbing=np.zeros(1, bool),
                   discount=0.5, tau_min=0.1, tau_max=0.1)
    assert g.n_states == 1
    p2 = np.array([[[[1.5, -0.5]]], [[[0.0, 1.0]]]])
    with pytest.raises(ValueError):
        MarkovGame(transition=p2, init_dist=np.array([1.0, 0.0]),
                   absorbing=np.zeros(2, bool), discount=0.5, tau_min=0.1, tau_max=0.1)


def test_absorbing_must_self_loop():
    p = np.zeros((2, 1, 1, 2))
    p[0, 0, 0, 1] = 1.0
    p[1, 0, 0, 0] = 1.0  # claims absorbing but moves away
    with pytest.raises(ValueError):
        MarkovGame(transition=p, init_dist=np.array([1.0, 0.0]),
                   absorbing=np.array([False, True]), discount=0.9, tau_min=0.1, tau_max=0.1)


def test_effective_reward_masks_absorbing():
    game, model = random_game(5, n_states=4, n_absorbing=2)
    r = effective_reward(game, model)
    assert np.all(r[2:] == 0.0)
    assert np.any(r[:2] != 0.0)


def _gapped_game():
    return MarkovGame(gapped_transition(), np.array([0.5, 0.5, 0.0]),
                      np.array([False, False, True]), 0.9, 0.1, 0.2)


def _dense_kernels(game, rng):
    p = game.transition
    y = TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_min))).probs_all()
    z = TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_max))).probs_all()
    v = rng.normal(size=game.n_states)
    ours = (game.expect(v), game.fold_pair(y, z), game.fold_min(y), game.fold_max(z))
    dense = (np.einsum("sabn,n->sab", p, v), np.einsum("sabn,sa,sb->sn", p, y, z),
             np.einsum("sabn,sa->sbn", p, y), np.einsum("sabn,sb->san", p, z))
    return ours, dense


def test_successor_kernels_match_dense_einsums():
    rng = np.random.default_rng(0)
    for seed in range(10):
        for n_states, na, nb, n_absorbing in ((3, 2, 2, 0), (5, 3, 3, 0), (4, 2, 3, 1),
                                              (6, 3, 2, 2)):
            game, _ = random_game(seed, n_states=n_states, na=na, nb=nb,
                                  n_absorbing=n_absorbing)
            for ours, dense in zip(*_dense_kernels(game, rng)):
                assert ours.shape == dense.shape
                if n_absorbing == 0:  # full support: the same sums in the same order
                    assert np.array_equal(ours, dense)
                else:
                    np.testing.assert_allclose(ours, dense, rtol=1e-15, atol=0.0)
    for ours, dense in zip(*_dense_kernels(_gapped_game(), rng)):
        np.testing.assert_allclose(ours, dense, rtol=1e-15, atol=0.0)


def test_transition_returns_dense_input_and_pads_point_at_last_successor():
    game = _gapped_game()
    assert game.succ.shape == (3, 2, 2, 3)
    # [0, 0, 1] has the single successor 1; its two pads repeat it with probability 0
    assert game.succ[0, 0, 1].tolist() == [1, 1, 1]
    assert game.succ_prob[0, 0, 1].tolist() == [1.0, 0.0, 0.0]
    assert game.succ[0, 1, 1].tolist() == [1, 2, 2]
    rng = np.random.default_rng(4)
    dense = rng.uniform(0.05, 1.0, size=(4, 3, 2, 4))
    dense[3] = 0.0
    dense[3, :, :, 3] = 1.0
    dense /= dense.sum(axis=3, keepdims=True)
    for p in (gapped_transition(), dense):
        absorbing = np.arange(len(p)) == len(p) - 1
        game = MarkovGame(p, np.eye(len(p))[0], absorbing, 0.9, 0.1, 0.1)
        assert np.array_equal(game.transition, p)
        assert game.transition is not game.transition  # built on demand


def test_from_successors_validates_like_the_dense_constructor():
    succ = np.array([[[[1]]], [[[1]]]])
    args = (np.array([1.0, 0.0]), np.array([False, True]), 0.9, 0.1, 0.1)
    game = MarkovGame.from_successors(succ, np.ones((2, 1, 1, 1)), *args)
    assert np.array_equal(game.transition, [[[[0.0, 1.0]]], [[[0.0, 1.0]]]])
    with pytest.raises(ValueError, match="rows must sum to 1"):
        MarkovGame.from_successors(succ, np.full((2, 1, 1, 1), 0.5), *args)
    with pytest.raises(ValueError, match="does not self-loop"):
        MarkovGame.from_successors(np.zeros((2, 1, 1, 1), int), np.ones((2, 1, 1, 1)), *args)
    with pytest.raises(ValueError, match="out of range"):
        MarkovGame.from_successors(succ + 1, np.ones((2, 1, 1, 1)), *args)
