import numpy as np
import pytest

from panda.game import (
    MarkovGame,
    RewardModel,
    TabularPolicy,
    effective_reward,
)
from conftest import random_game


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
