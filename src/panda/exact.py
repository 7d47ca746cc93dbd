"""Exact dynamic-programming machinery for regularized zero-sum Markov games.

Everything here treats the game as a known model.  The stage objective at a
state couples the two players bilinearly through the payoff matrix and adds
entropy regularization with temperatures (tau_min, tau_max):

    G_s(y, z) = y' Q_s z - tau_min * H(y) + tau_max * H(z),

minimized in y and maximized in z over the simplices.  The module provides

  * the per-state regularized saddle solver (composite mirror-prox in KL
    geometry, equivalently a damped softmax fixed-point iteration),
  * policy evaluation and the two Bellman operators (fixed-policy and
    optimality), both gamma-contractions,
  * Nash equilibrium computation by value iteration over the optimality
    operator,
  * single-player soft best responses by soft policy iteration on the
    induced regularized MDPs, and the Nikaido-Isoda gap built from them,
  * discounted state visitation and exact score-function gradients of the
    regularized value in policy logits and in the reward parameters,
  * the finite-horizon value and policy gradient of any per-step stage
    reward, which give the truncated gradients matching the sampled
    estimators and the environments' upper-level objectives.

Absorbing states are excluded from rewards and regularization throughout:
their value is identically zero and gradients place no weight on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (MarkovGame, RewardModel, effective_reward, effective_reward_grad_x,
                   log_softmax, probs, softmax)

__all__ = [
    "SaddleSolveError",
    "ValueIterationError",
    "StateSaddle",
    "NashSolution",
    "BestResponse",
    "NIGradients",
    "solve_state_saddle",
    "bellman_policy_operator",
    "soft_bellman_optimality",
    "policy_eval",
    "j_value",
    "solve_ne",
    "best_response",
    "ni_gap",
    "ni_gradients",
    "visitation",
    "exact_grad_policy",
    "exact_grad_x",
    "finite_horizon_value",
    "finite_horizon_grad",
    "exact_grad_policy_truncated",
    "exact_grad_x_truncated",
    "pl_constant",
]

_LOG_FLOOR = 1e-320  # below this, probabilities are treated as exactly zero


class SaddleSolveError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(f"saddle solver stalled at residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


class ValueIterationError(RuntimeError):
    def __init__(self, residual: float, sweeps: int):
        super().__init__(f"value iteration stopped at residual {residual:.3e} after {sweeps} sweeps")
        self.residual = residual
        self.sweeps = sweeps


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def _neg_entropy(p: np.ndarray) -> np.ndarray:
    """Row-wise sum p*log(p) with the 0*log(0)=0 convention."""
    return np.sum(p * _safe_log(p), axis=-1)


# --------------------------------------------------------------------------
# Per-state regularized saddle points
# --------------------------------------------------------------------------

@dataclass
class StateSaddle:
    y: np.ndarray
    z: np.ndarray
    value: float
    kkt_residual: float
    iterations: int


def _saddle_batch(q, tau_min, tau_max, tol, max_iter, warm=None, check_every=16):
    """Solve a batch of regularized matrix saddle points.

    Args:
        q: payoff matrices, shape (N, A, B).
        warm: optional (log_y, log_z) warm start, shapes (N, A) and (N, B).

    Returns (y, z, values, residual, iterations).  The iteration is the
    composite mirror-prox step in KL geometry: the bilinear coupling is
    treated by extragradient while the entropy terms are absorbed exactly,
    which makes each half-step a damped softmax of the opponent response.
    Per-state step sizes 1/(tau + spread(Q)) give a linear rate in tau/spread.
    """
    q = np.asarray(q, dtype=float)
    n, na, nb = q.shape
    if warm is None:
        ly = np.full((n, na), -np.log(na))
        lz = np.full((n, nb), -np.log(nb))
    else:
        ly, lz = warm[0].copy(), warm[1].copy()

    spread = q.max(axis=(1, 2)) - q.min(axis=(1, 2))
    eta = 1.0 / (max(tau_min, tau_max) + spread)  # (N,)
    eta = eta[:, None]
    dy = 1.0 - eta * tau_min
    dz = 1.0 - eta * tau_max

    def qz(z):
        return np.einsum("nab,nb->na", q, z)

    def qty(y):
        return np.einsum("nab,na->nb", q, y)

    def residual(y, z):
        ry = np.abs(y - softmax(-qz(z) / tau_min)).max()
        rz = np.abs(z - softmax(qty(y) / tau_max)).max()
        return max(ry, rz)

    it = 0
    res = np.inf
    while it < max_iter:
        y = np.exp(ly)
        z = np.exp(lz)
        if it % check_every == 0:
            res = residual(y, z)
            if res <= tol:
                break
        lyh = log_softmax(dy * ly - eta * qz(z))
        lzh = log_softmax(dz * lz + eta * qty(y))
        ly = log_softmax(dy * ly - eta * qz(np.exp(lzh)))
        lz = log_softmax(dz * lz + eta * qty(np.exp(lyh)))
        it += 1
    else:
        y = np.exp(ly)
        z = np.exp(lz)
        res = residual(y, z)
        if res > tol:
            raise SaddleSolveError(res, it)

    values = np.einsum("na,nab,nb->n", y, q, z) + tau_min * _neg_entropy(y) - tau_max * _neg_entropy(z)
    return y, z, values, res, it


def solve_state_saddle(q, tau_min, tau_max, tol=1e-10, max_iter=100_000) -> StateSaddle:
    """Unique saddle of y'Qz - tau_min*H(y) + tau_max*H(z) over the simplices.

    The KKT residual reported is the l-inf distance of (y, z) from the
    softmax best-response maps.
    """
    q = np.asarray(q, dtype=float)
    y, z, values, res, it = _saddle_batch(q[None], tau_min, tau_max, tol, max_iter)
    return StateSaddle(y=y[0], z=z[0], value=float(values[0]), kkt_residual=float(res), iterations=it)


# --------------------------------------------------------------------------
# Bellman operators and policy evaluation
# --------------------------------------------------------------------------

def _folded(game: MarkovGame, r_eff, y, z):
    """Per-state reward/transition/regularizer under a fixed policy pair."""
    r_yz = np.einsum("sab,sa,sb->s", r_eff, y, z)
    p_yz = game.fold_pair(y, z)
    h = game.tau_min * _neg_entropy(y) - game.tau_max * _neg_entropy(z)
    h[game.absorbing] = 0.0
    return r_yz, p_yz, h


def bellman_policy_operator(game: MarkovGame, model: RewardModel, policy_min, policy_max, v):
    """One application of the fixed-policy evaluation operator."""
    y, z = probs(policy_min), probs(policy_max)
    r_eff = effective_reward(game, model)
    r_yz, p_yz, h = _folded(game, r_eff, y, z)
    return r_yz + h + game.discount * p_yz @ v


def soft_bellman_optimality(game: MarkovGame, model: RewardModel, v, tol=1e-10,
                            max_iter=100_000, warm=None):
    """One application of the regularized optimality operator.

    Returns (Tv, y, z) where (y, z) solve the per-state saddles at the
    backed-up payoff matrices.  Absorbing states back up gamma*v with
    uniform placeholder policies.
    """
    v = np.asarray(v, dtype=float)
    r_eff = effective_reward(game, model)
    q = r_eff + game.discount * game.expect(v)
    live = ~game.absorbing
    tv = game.discount * v.copy()
    y = np.full((game.n_states, game.n_actions_min), 1.0 / game.n_actions_min)
    z = np.full((game.n_states, game.n_actions_max), 1.0 / game.n_actions_max)
    if live.any():
        w = None if warm is None else (warm[0][live], warm[1][live])
        yl, zl, vals, _, _ = _saddle_batch(q[live], game.tau_min, game.tau_max, tol, max_iter, warm=w)
        tv[live] = vals
        y[live] = yl
        z[live] = zl
    return tv, y, z


def _solve_value(game: MarkovGame, r_yz, p_yz, h) -> np.ndarray:
    return np.linalg.solve(np.eye(game.n_states) - game.discount * p_yz, r_yz + h)


def _solve_visitation(game: MarkovGame, p_yz) -> np.ndarray:
    a = np.eye(game.n_states) - game.discount * p_yz.T
    return np.linalg.solve(a, (1.0 - game.discount) * game.init_dist)


def policy_eval(game: MarkovGame, model: RewardModel, policy_min, policy_max) -> np.ndarray:
    """Regularized value of a fixed policy pair, by direct linear solve."""
    y, z = probs(policy_min), probs(policy_max)
    return _solve_value(game, *_folded(game, effective_reward(game, model), y, z))


def j_value(game: MarkovGame, model: RewardModel, policy_min, policy_max) -> float:
    """J = rho' V for the regularized value of the pair."""
    return float(game.init_dist @ policy_eval(game, model, policy_min, policy_max))


# --------------------------------------------------------------------------
# Nash equilibrium by value iteration
# --------------------------------------------------------------------------

@dataclass
class NashSolution:
    policy_min: np.ndarray
    policy_max: np.ndarray
    v_star: np.ndarray
    j_star: float
    residual: float
    sweeps: int


def solve_ne(game: MarkovGame, model: RewardModel, tol=1e-9, max_sweeps=100_000,
             saddle_tol=1e-12) -> NashSolution:
    """Nash equilibrium of the regularized game.

    Value iteration with the optimality operator from v=0, stopping when the
    Bellman residual drops below tol*(1-gamma)/gamma, so the fixed-point
    error is at most tol.  Per-state saddles are warm-started across sweeps;
    the returned policies come from a final solve at the converged values.
    """
    g = game.discount
    thr = tol * (1.0 - g) / g if g > 0 else np.inf
    r_eff = effective_reward(game, model)
    live = ~game.absorbing
    v = np.zeros(game.n_states)
    na, nb = game.n_actions_min, game.n_actions_max
    ly = np.full((live.sum(), na), -np.log(na))
    lz = np.full((live.sum(), nb), -np.log(nb))
    res = np.inf
    inner_tol = 1e-9
    for sweep in range(1, max_sweeps + 1):
        q = r_eff + g * game.expect(v)
        yl, zl, vals, _, _ = _saddle_batch(
            q[live], game.tau_min, game.tau_max, inner_tol, 100_000, warm=(ly, lz))
        ly, lz = _safe_log(yl), _safe_log(zl)
        tv = g * v.copy()
        tv[live] = vals
        res = np.abs(tv - v).max()
        v = tv
        inner_tol = min(1e-9, max(saddle_tol, res * 1e-3))
        if res <= thr:
            break
    else:
        raise ValueIterationError(float(res), max_sweeps)

    # Final polished saddle at the converged values.
    q = r_eff + g * game.expect(v)
    y = np.full((game.n_states, na), 1.0 / na)
    z = np.full((game.n_states, nb), 1.0 / nb)
    yl, zl, _, _, _ = _saddle_batch(q[live], game.tau_min, game.tau_max, saddle_tol,
                                    100_000, warm=(ly, lz))
    y[live] = yl
    z[live] = zl
    return NashSolution(policy_min=y, policy_max=z, v_star=v,
                        j_star=float(game.init_dist @ v), residual=float(res), sweeps=sweep)


# --------------------------------------------------------------------------
# Single-player soft best responses and the Nikaido-Isoda gap
# --------------------------------------------------------------------------

@dataclass
class BestResponse:
    j_value: float       # value of J at the best response (max_z J or min_y J)
    policy: np.ndarray   # best-responding policy, rows softmax(Q/tau)
    soft_v: np.ndarray   # internal soft values (useful as a warm start)
    residual: float
    sweeps: int          # policy-iteration rounds


def _soft_policy_iteration(r_fold, p_fold, tau, absorbing, gamma, tol,
                           max_rounds=200, v0=None):
    """Policy iteration for a single-player MDP regularized at temperature tau.

    Alternates exact evaluation of the entropy-regularized policy (a linear
    solve) with the softmax improvement step.  Being Newton's method on the
    soft Bellman fixed point, it converges in a handful of rounds regardless
    of the discount.  It stops once the log-sum-exp backup moves the values
    by at most tol*(1-gamma)/gamma.
    """
    s, k = r_fold.shape
    thr = tol * (1.0 - gamma) / gamma if gamma > 0 else np.inf
    eye = np.eye(s)
    v = np.zeros(s) if v0 is None else np.asarray(v0, dtype=float).copy()
    v[absorbing] = 0.0
    qf = r_fold + gamma * np.einsum("skn,n->sk", p_fold, v)
    pol = softmax(qf / tau)
    res = np.inf
    for rounds in range(1, max_rounds + 1):
        c = np.einsum("sk,sk->s", pol, r_fold) - tau * _neg_entropy(pol)
        p_pol = np.einsum("skn,sk->sn", p_fold, pol)
        c[absorbing] = 0.0
        p_pol[absorbing] = 0.0
        v = np.linalg.solve(eye - gamma * p_pol, c)
        qf = r_fold + gamma * np.einsum("skn,n->sk", p_fold, v)
        m = qf.max(axis=1)
        tv = tau * (m / tau + np.log(np.exp(qf / tau - m[:, None] / tau).sum(axis=1)))
        tv[absorbing] = 0.0
        pol = softmax(qf / tau)
        res = np.abs(tv - v).max()
        if res <= thr:
            break
    else:
        raise ValueIterationError(float(res), max_rounds)
    pol[absorbing] = 1.0 / k
    return v, pol, float(res), rounds


def best_response(game: MarkovGame, model: RewardModel, fixed, side,
                  tol=1e-10, v0=None) -> BestResponse:
    """Soft best response of one player against a fixed opponent policy.

    side="max": `fixed` is the min player's policy; maximizes J over z by
    dynamic programming on the induced MDP over B-actions, whose reward
    folds in the opponent's expected payoff and entropy.  side="min" is the
    mirror image on a sign-flipped reward; its j_value is min_y J.  Both
    are solved by soft policy iteration; `v0` warm-starts its values.
    """
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    r_eff = effective_reward(game, model)
    pi = probs(fixed)
    if side == "max":
        r_fold = np.einsum("sab,sa->sb", r_eff, pi) + game.tau_min * _neg_entropy(pi)[:, None]
        p_fold = game.fold_min(pi)
        tau, sign = game.tau_max, 1.0
    else:
        r_fold = -np.einsum("sab,sb->sa", r_eff, pi) + game.tau_max * _neg_entropy(pi)[:, None]
        p_fold = game.fold_max(pi)
        tau, sign = game.tau_min, -1.0
    r_fold[game.absorbing] = 0.0
    v, pol, res, sweeps = _soft_policy_iteration(r_fold, p_fold, tau, game.absorbing,
                                                 game.discount, tol, v0=v0)
    return BestResponse(sign * float(game.init_dist @ v), pol, v, res, sweeps)


def ni_gap(game: MarkovGame, model: RewardModel, policy_min, policy_max, tol=1e-10) -> float:
    """Nikaido-Isoda gap max_z J(y, z) - min_y J(y', z); zero exactly at the NE."""
    j1 = best_response(game, model, policy_min, "max", tol=tol).j_value
    j2 = best_response(game, model, policy_max, "min", tol=tol).j_value
    return j1 - j2


# --------------------------------------------------------------------------
# Visitation and exact gradients
# --------------------------------------------------------------------------

def visitation(game: MarkovGame, policy_min, policy_max) -> np.ndarray:
    """Discounted state visitation d = (1-gamma) * (I - gamma*P')^{-1} rho."""
    return _solve_visitation(game, game.fold_pair(probs(policy_min), probs(policy_max)))


def _regularized_stage(game, r_eff, y, z):
    """Per-step regularized payoff r(s,a,b) + tau_min*log y(a|s) - tau_max*log z(b|s)."""
    return (r_eff
            + game.tau_min * _safe_log(y)[:, :, None]
            - game.tau_max * _safe_log(z)[:, None, :])


def _score_rows(pi, avg_w, weight):
    """Rows weight(s) * sum_a pi (e_a - pi) avg_w = weight * pi * (avg_w - <pi, avg_w>)."""
    inner = np.sum(pi * avg_w, axis=1, keepdims=True)
    return weight[:, None] * pi * (avg_w - inner)


def exact_grad_policy(game: MarkovGame, model: RewardModel, policy_min, policy_max, side) -> np.ndarray:
    """Exact gradient of J in one player's softmax logits.

    Score-function form: rows are visitation-weighted advantage-like terms
    with the regularized continuation weight, so it matches the expectation
    of the sampled reward-to-go estimator at infinite horizon.
    """
    y, z = probs(policy_min), probs(policy_max)
    r_eff = effective_reward(game, model)
    r_yz, p_yz, h = _folded(game, r_eff, y, z)
    v = _solve_value(game, r_yz, p_yz, h)
    d = _solve_visitation(game, p_yz)
    # regularized payoff plus discounted continuation, zero on absorbing
    # states: the mean of the sampled regularized reward-to-go given (s, a, b)
    w = _regularized_stage(game, r_eff, y, z) + game.discount * game.expect(v)
    w[game.absorbing] = 0.0
    d_over = d / (1.0 - game.discount)
    if side == "min":
        return _score_rows(y, np.einsum("sab,sb->sa", w, z), d_over)
    if side == "max":
        return _score_rows(z, np.einsum("sab,sa->sb", w, y), d_over)
    raise ValueError(f"side must be 'min' or 'max', got {side!r}")


def exact_grad_x(game: MarkovGame, model: RewardModel, policy_min, policy_max) -> np.ndarray:
    """Exact gradient of J in the incentive parameters x, shape (S, A, B)."""
    y, z = probs(policy_min), probs(policy_max)
    d = visitation(game, y, z)
    g = effective_reward_grad_x(game, model)
    return (d / (1.0 - game.discount))[:, None, None] * y[:, :, None] * z[:, None, :] * g


# --------------------------------------------------------------------------
# Finite-horizon value and policy gradient of a per-step stage reward
# --------------------------------------------------------------------------

def finite_horizon_value(game: MarkovGame, stage, y, z, horizon, gamma) -> float:
    """E[sum_{t<horizon} gamma^t stage(s_t, a_t, b_t)] from s_0 ~ rho under (y, z).

    `stage` has shape (S, A, B); `gamma` need not be the game's discount.
    Absorbing states end the episode and add nothing.  The recursion runs on
    the chain folded under the policy pair, one (S, S) mat-vec per step.
    """
    p_yz = game.fold_pair(y, z)
    u = np.einsum("sab,sa,sb->s", stage, y, z)
    v = np.zeros(game.n_states)
    for _ in range(horizon):
        v = u + gamma * (p_yz @ v)
        v[game.absorbing] = 0.0
    return float(game.init_dist @ v)


def finite_horizon_grad(game: MarkovGame, stage, y, z, horizon, gamma):
    """Gradients of `finite_horizon_value` in both players' softmax logits.

    A backward recursion builds the step-t action values
    q_t = stage + gamma * P v_{t+1} (zero on absorbing states); a forward pass
    then weights each step's score-function rows by gamma^t times the
    step-t state distribution.  Returns (grad_min, grad_max).
    """
    p_yz = game.fold_pair(y, z)
    v_next = np.zeros(game.n_states)
    qs = []
    for _ in range(horizon):
        q = stage + gamma * game.expect(v_next)
        q[game.absorbing] = 0.0
        v_next = np.einsum("sab,sa,sb->s", q, y, z)
        qs.append(q)

    gmin = np.zeros_like(y)
    gmax = np.zeros_like(z)
    pt = game.init_dist
    for t, q in enumerate(reversed(qs)):  # q holds the step-t action values
        sc = (gamma ** t) * pt
        gmin += _score_rows(y, np.einsum("sab,sb->sa", q, z), sc)
        gmax += _score_rows(z, np.einsum("sab,sa->sb", q, y), sc)
        pt = p_yz.T @ pt
    return gmin, gmax


def exact_grad_policy_truncated(game: MarkovGame, model: RewardModel, policy_min,
                                policy_max, horizon, side) -> np.ndarray:
    """Exact gradient of the horizon-truncated J; the sampled estimator's mean."""
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    y, z = probs(policy_min), probs(policy_max)
    stage = _regularized_stage(game, effective_reward(game, model), y, z)
    gmin, gmax = finite_horizon_grad(game, stage, y, z, horizon, game.discount)
    return gmin if side == "min" else gmax


def exact_grad_x_truncated(game: MarkovGame, model: RewardModel, policy_min,
                           policy_max, horizon) -> np.ndarray:
    y, z = probs(policy_min), probs(policy_max)
    g = effective_reward_grad_x(game, model)
    p_yz = game.fold_pair(y, z)
    pt = game.init_dist.copy()
    grad = np.zeros_like(g)
    for t in range(horizon):
        grad += (game.discount ** t) * pt[:, None, None] * y[:, :, None] * z[:, None, :] * g
        pt = p_yz.T @ pt
    return grad


# --------------------------------------------------------------------------
# Nikaido-Isoda gradients (Danskin) and the PL constant
# --------------------------------------------------------------------------

@dataclass
class NIGradients:
    gap: float
    grad_min: np.ndarray      # d(gap)/d(min player logits)
    grad_max: np.ndarray      # d(gap)/d(max player logits)
    grad_x: np.ndarray        # d(gap)/dx
    br_min: np.ndarray        # argmin_y J(y, z), opponent of the max player
    br_max: np.ndarray        # argmax_z J(y, z)
    j1: float
    j2: float
    v_min: np.ndarray         # soft values of the min-side response (warm start)
    v_max: np.ndarray


def ni_gradients(game: MarkovGame, model: RewardModel, policy_min, policy_max,
                 tol=1e-10, v0_min=None, v0_max=None) -> NIGradients:
    """Gap and its exact gradients via Danskin at the inner best responses.

    `v0_min`/`v0_max` warm-start the two best-response solves; pass the
    `v_min`/`v_max` of a previous call at nearby policies to make repeated
    evaluation along an optimization path cheap.
    """
    y, z = probs(policy_min), probs(policy_max)
    bmax = best_response(game, model, y, "max", tol=tol, v0=v0_max)
    bmin = best_response(game, model, z, "min", tol=tol, v0=v0_min)
    grad_min = exact_grad_policy(game, model, y, bmax.policy, "min")
    grad_max = -exact_grad_policy(game, model, bmin.policy, z, "max")
    grad_x = exact_grad_x(game, model, y, bmax.policy) - exact_grad_x(game, model, bmin.policy, z)
    return NIGradients(gap=bmax.j_value - bmin.j_value, grad_min=grad_min,
                       grad_max=grad_max, grad_x=grad_x, br_min=bmin.policy,
                       br_max=bmax.policy, j1=bmax.j_value, j2=bmin.j_value,
                       v_min=bmin.soft_v, v_max=bmax.soft_v)


def pl_constant(game: MarkovGame, policy_min, policy_max) -> float:
    """Non-uniform PL modulus (1-gamma) * (min tau / S) * min rho^2 * min pi^2."""
    y, z = probs(policy_min), probs(policy_max)
    tau = min(game.tau_min, game.tau_max)
    rho2 = float(np.min(game.init_dist) ** 2)
    pi2 = float(min(np.min(y), np.min(z)) ** 2)
    return (1.0 - game.discount) * tau / game.n_states * rho2 * pi2
