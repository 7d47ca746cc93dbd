"""Shared builders for seeded test games and acceptance-line reporting."""

import numpy as np

from panda.game import MarkovGame, RewardModel

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_game(seed, n_states=3, na=2, nb=2, gamma=0.9, tau_min=0.1, tau_max=0.1,
                n_absorbing=0, scale=1.0, reward_lo=0.0, reward_hi=1.0):
    """Dense random game with uniform-ish transitions and full-support rho."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(n_states, na, nb, n_states))
    absorbing = np.zeros(n_states, dtype=bool)
    for s in range(n_states - n_absorbing, n_states):
        absorbing[s] = True
        p[s] = 0.0
        p[s, :, :, s] = 1.0
    p /= p.sum(axis=3, keepdims=True)
    rho = rng.uniform(0.2, 1.0, size=n_states)
    rho /= rho.sum()
    game = MarkovGame(transition=p, init_dist=rho, absorbing=absorbing,
                      discount=gamma, tau_min=tau_min, tau_max=tau_max)
    base = rng.uniform(reward_lo, reward_hi, size=(n_states, na, nb))
    x = rng.normal(0.0, 1.0, size=(n_states, na, nb))
    model = RewardModel(base=base, incentive_params=x, incentive_scale=scale)
    return game, model


def gapped_transition():
    """Three states, rows of one to three successors with zero entries between them; state 2 absorbs."""
    p = np.zeros((3, 2, 2, 3))
    p[0, 0, 0] = [0.25, 0.0, 0.75]
    p[0, 0, 1] = [0.0, 1.0, 0.0]
    p[0, 1, 0] = [0.1, 0.2, 0.7]
    p[0, 1, 1] = [0.0, 0.3, 0.7]
    p[1, :, :] = [0.6, 0.0, 0.4]
    p[2, :, :, 2] = 1.0
    return p


def random_policies(rng, n_states, na, nb, spread=1.0):
    from panda.game import TabularPolicy
    return (TabularPolicy(rng.normal(0.0, spread, size=(n_states, na))),
            TabularPolicy(rng.normal(0.0, spread, size=(n_states, nb))))
