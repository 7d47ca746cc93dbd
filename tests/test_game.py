import numpy as np
import pytest

from panda.envs import GridSpec, SyntheticSpec, build_env
from panda.exact import exact_grad_policy
from panda.game import (
    MarkovGame,
    RewardModel,
    TabularPolicy,
    effective_reward,
    probs,
)
from panda.optim import OracleOptions, PandaConfig
from panda.sampling import RngStream, estimate_gradients, reinforce, sample_batch
from conftest import gapped_transition, random_game


def test_uniform_probs_from_zero_logits():
    pol = TabularPolicy(np.zeros((2, 3)))
    np.testing.assert_allclose(probs(pol), np.full((2, 3), 1.0 / 3.0), atol=1e-15)


def test_constant_logit_shift_is_uniform():
    pol = TabularPolicy(np.full((1, 2), 7.3))
    np.testing.assert_allclose(probs(pol)[0], [0.5, 0.5], atol=1e-15)


def test_two_to_one_odds():
    pol = TabularPolicy(np.array([[np.log(2.0), 0.0]]))
    np.testing.assert_allclose(probs(pol)[0], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


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


@pytest.mark.parametrize("discount,tau,msg", [
    (0.9, float("nan"), "tau_max must be a finite real > 0, got nan"),
    (0.9, float("inf"), "tau_max must be a finite real > 0, got inf"),
    (False, 0.1, "discount"),
])
def test_game_rejects_bool_discount_and_nonfinite_temperature(discount, tau, msg):
    with pytest.raises(ValueError, match=msg):
        MarkovGame(transition=np.ones((1, 1, 1, 1)), init_dist=np.ones(1),
                   absorbing=np.zeros(1, bool), discount=discount, tau_min=0.1, tau_max=tau)


def _one_state_game(tau_min=0.1, tau_max=0.1):
    return MarkovGame(np.ones((1, 1, 1, 1)), np.ones(1), np.zeros(1, bool), 0.9, tau_min, tau_max)


def _side_sites():
    """(site, allowed sides, call of the site with a side) for the four side checks."""
    game, model = random_game(3)
    env = build_env("synthetic")
    p = TabularPolicy.uniform(5, 3)
    batch = sample_batch(env.game, env.model, [p], [p], 4, 3, RngStream(0), [0])
    yield ("response_kernel", ("min", "max"),
           lambda side: game.response_kernel(np.full((3, 2), 0.5), side))
    yield ("exact_grad_policy", ("min", "max"),
           lambda side: exact_grad_policy(game, model, np.full((3, 2), 0.5),
                                          np.full((3, 2), 0.5), side))
    yield ("reinforce", ("min", "max"),
           lambda side: reinforce(batch, batch.rewards, [probs(p)], [side], 0.9))
    yield ("estimate_gradients", ("x", "min", "max"),
           lambda side: estimate_gradients(env.game, env.model, [p], [p], batch, [side]))


_ONE_CELL = dict(sentinel_spawn=(0, 0), intruder_spawns=((0, 0),), target=(0, 0), restricted=())

# every owner of a shared rule: (owner, build(name, value), names, rule), a rule being
# ("count", least), ("real", "> 0" or ">= 0") or ("side", the allowed sides)
_SHARED_RULES = [
    ("PandaConfig", lambda n, v: PandaConfig(**{n: v}),
     ("inner_iters", "outer_iters", "batch_traj", "batch_ul", "horizon", "eval_cadence"),
     ("count", 1)),
    ("PandaConfig", lambda n, v: PandaConfig(**{n: v}), ("seed", "env_step_budget"), ("count", 0)),
    ("PandaConfig", lambda n, v: PandaConfig(**{n: v}), ("lam",), ("real", "> 0")),
    ("PandaConfig", lambda n, v: PandaConfig(**{n: v}),
     ("eta_x", "eta_theta", "eta_shadow_min", "eta_shadow_max"), ("real", ">= 0")),
    ("OracleOptions", lambda n, v: OracleOptions(**{n: v}), ("inner_cap",), ("count", 1)),
    ("OracleOptions", lambda n, v: OracleOptions(**{n: v}), ("inner_tol",), ("real", ">= 0")),
    ("OracleOptions", lambda n, v: OracleOptions(**{n: v}), ("br_tol",), ("real", "> 0")),
    ("SyntheticSpec", lambda n, v: SyntheticSpec(**{n: v}),
     ("n_states", "n_actions", "ul_horizon"), ("count", 1)),
    ("SyntheticSpec", lambda n, v: SyntheticSpec(**{n: v}), ("seed",), ("count", 0)),
    ("GridSpec", lambda n, v: GridSpec(**_ONE_CELL, **{n: v}),
     ("width", "height", "max_steps"), ("count", 1)),
    ("MarkovGame", lambda n, v: _one_state_game(**{n: v}), ("tau_min", "tau_max"),
     ("real", "> 0")),
    *((site, lambda n, v, call=call: call(v), ("side",), ("side", allowed))
      for site, allowed, call in _side_sites()),
]


@pytest.mark.parametrize("owner,build,names,rule", [
    pytest.param(*case, id=f"{case[0]}-{case[2][0]}") for case in _SHARED_RULES])
def test_shared_rules_reject_in_one_wording_and_accept_their_bounds(owner, build, names, rule):
    kind, bound = rule
    if kind == "count":
        bad = [bound - 1, float(bound), True, float("nan"), float("inf"), -float("inf"),
               str(bound)]
        good, form = [bound], f"must be an integer >= {bound}"
    elif kind == "real":
        bad = [-1.0, True, float("nan"), float("inf"), -float("inf"), "1"]
        bad += [0.0] if bound == "> 0" else []
        good = [5e-324] if bound == "> 0" else [0.0]  # the least value each rule accepts
        form = f"must be a finite real {bound}"
    else:
        bad = ["both", "MIN", None, 0] + ([] if "x" in bound else ["x"])
        good, form = list(bound), "must be " + " or ".join(map(repr, bound))
    for name in names:
        for v in bad:
            with pytest.raises(ValueError) as err:
                build(name, v)
            assert str(err.value) == f"{name} {form}, got {v!r}"
        for v in good:
            build(name, v)


@pytest.mark.parametrize("base,scale,msg", [
    (0.0, float("nan"), "incentive_scale"),
    (0.0, "x", "incentive_scale"),
    (0.0, True, "incentive_scale"),
    (float("inf"), 1.0, "base payoff must be finite"),
])
def test_reward_model_rejects_nonfinite_base_and_bad_scale(base, scale, msg):
    with pytest.raises(ValueError, match=msg):
        RewardModel(base=np.full((1, 1, 1), base), incentive_params=np.zeros((1, 1, 1)),
                    incentive_scale=scale)


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


def test_effective_reward_is_one_read_only_table_per_game_and_model():
    game, model = random_game(6, n_states=4, n_absorbing=1)
    other, _ = random_game(7, n_states=4, n_absorbing=2)
    r = effective_reward(game, model)
    assert effective_reward(game, model) is r
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0, 0] = 1.0
    # a model with new parameters, and another game, each get a table of their own
    moved = model.with_params(model.incentive_params + 1.0)
    r_moved = effective_reward(game, moved)
    r_other = effective_reward(other, model)
    assert r_moved is not r and r_other is not r
    assert np.array_equal(r_moved, np.where(game.absorbing[:, None, None], 0.0, moved.values()))
    assert np.array_equal(r_other, np.where(other.absorbing[:, None, None], 0.0, model.values()))
    assert effective_reward(game, model) is r  # still there after the other game's call
    assert np.array_equal(r, np.where(game.absorbing[:, None, None], 0.0, model.values()))


def _gapped_game():
    return MarkovGame(gapped_transition(), np.array([0.5, 0.5, 0.0]),
                      np.array([False, False, True]), 0.9, 0.1, 0.2)


def _dense_kernels(game, rng):
    p = game.transition
    y = probs(TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_min))))
    z = probs(TabularPolicy(rng.normal(size=(game.n_states, game.n_actions_max))))
    v = rng.normal(size=game.n_states)
    k_max, k_min = game.response_kernel(y, "max"), game.response_kernel(z, "min")
    ours = (game.expect(v), game.fold_pair(y, z),
            k_max.backup(v), k_max.fold(z), k_min.backup(v), k_min.fold(y))
    # the single-player kernels of the max player against y and the min player against z
    p_max, p_min = np.einsum("sabn,sa->sbn", p, y), np.einsum("sabn,sb->san", p, z)
    dense = (np.einsum("sabn,n->sab", p, v), np.einsum("sabn,sa,sb->sn", p, y, z),
             np.einsum("skn,n->sk", p_max, v), np.einsum("skn,sk->sn", p_max, z),
             np.einsum("skn,n->sk", p_min, v), np.einsum("skn,sk->sn", p_min, y))
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


def _dense_response_kernel(game, fixed, side):
    """The dense (S, K, S) single-player kernel, built as one `bincount` over (s, a, b, k)."""
    S, A, B, _ = game.succ.shape
    s = np.arange(S)[:, None, None, None]
    if side == "max":
        index = ((s * B + np.arange(B)[:, None]) * S + game.succ).ravel()
        w, k = game.succ_prob * fixed[:, :, None, None], B
    else:
        index = ((s * A + np.arange(A)[:, None, None]) * S + game.succ).ravel()
        w, k = game.succ_prob * fixed[:, None, :, None], A
    return np.bincount(index, weights=w.ravel(), minlength=S * k * S).reshape(S, k, S)


def _same_bits(a, b):
    """Equal shapes and bit patterns, so +0.0 and -0.0 differ."""
    bits = [np.ascontiguousarray(x, dtype=float).view(np.int64) for x in (a, b)]
    return np.array_equal(*bits)


def _kernel_games():
    """Builders of dense games: the grid is matrix-free and has no `ResponseKernel`."""
    yield pytest.param(lambda: build_env("synthetic").game, id="synthetic")
    yield pytest.param(_gapped_game, id="gapped")
    for seed in range(4):
        yield pytest.param(lambda seed=seed: random_game(seed, n_states=7, na=3, nb=2,
                                                         n_absorbing=2)[0], id=f"random-{seed}")


@pytest.mark.parametrize("build", _kernel_games())
def test_response_kernel_gives_the_dense_kernels_bits(build):
    rng = np.random.default_rng(17)
    game = build()
    assert not game.matrix_free
    S = game.n_states
    for trial in range(3):
        y = probs(TabularPolicy(3.0 * rng.normal(size=(S, game.n_actions_min))))
        z = probs(TabularPolicy(3.0 * rng.normal(size=(S, game.n_actions_max))))
        if trial == 2:  # exact zeros in the policies too
            y[::2, 1:], z[1::2, :1] = 0.0, 0.0
            y, z = y / y.sum(axis=1, keepdims=True), z / z.sum(axis=1, keepdims=True)
        v = rng.normal(size=S)
        for fixed, pol, side in ((y, z, "max"), (z, y, "min")):
            dense = _dense_response_kernel(game, fixed, side)
            p_pol = np.einsum("skn,sk->sn", dense, pol)
            kernel = game.response_kernel(fixed, side)
            assert _same_bits(kernel.backup(v), np.einsum("skn,n->sk", dense, v))
            assert _same_bits(kernel.backup(-v), np.einsum("skn,n->sk", dense, -v))
            assert _same_bits(kernel.fold(pol), p_pol)
            stopped = p_pol.copy()
            stopped[game.absorbing] = 0.0
            assert _same_bits(kernel.chain(pol).matrix, stopped)
        assert _same_bits(game.pair_chain(y, z).matrix, game.fold_pair(y, z))


def test_only_the_grid_is_matrix_free():
    synthetic = build_env("synthetic")
    assert not synthetic.game.matrix_free and not synthetic.ul.mdp.matrix_free
    assert build_env("sentinel").game.matrix_free


def test_response_kernel_rejects_unknown_side():
    game = _gapped_game()
    with pytest.raises(ValueError, match="side"):
        game.response_kernel(np.full((3, 2), 0.5), "both")


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
