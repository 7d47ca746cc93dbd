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
  * the linear solves (I - gamma P) x = b of policy evaluation and
    visitation: an LU factorization of the folded (S, S) matrix on a dense
    game, restarted GMRES on the successor lists on a matrix-free one
    (`MarkovGame.matrix_free`), stopped at a max-norm residual bound,
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

import math
from dataclasses import dataclass

import numpy as np

from .game import (MarkovGame, RewardModel, _check_side, effective_reward,
                   effective_reward_grad_x, log_softmax, probs, softmax)

__all__ = [
    "SolverError",
    "SaddleSolveError",
    "ValueIterationError",
    "LinearSolveError",
    "NashSolution",
    "BestResponse",
    "NIGradients",
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
    "exact_grads_truncated",
    "pl_constant",
]

_LOG_FLOOR = 1e-320  # below this, probabilities are treated as exactly zero


class SolverError(RuntimeError):
    """An exact solver stopped short of its tolerance or bound."""


class SaddleSolveError(SolverError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(f"saddle solver stalled at residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


class ValueIterationError(SolverError):
    """Value iteration (`solve_ne`, in sweeps) or soft policy iteration (`best_response`,
    in rounds) missed its residual threshold; `sweeps` counts either."""

    def __init__(self, residual: float, sweeps: int, method="value iteration", unit="sweeps"):
        super().__init__(f"{method} stopped at residual {residual:.3e} after {sweeps} {unit}")
        self.residual = residual
        self.sweeps = sweeps


class LinearSolveError(SolverError):
    def __init__(self, residual: float, bound: float, restarts: int):
        super().__init__(f"linear solve stopped at residual {residual:.3e} above its bound "
                         f"{bound:.3e} after {restarts} restarts")
        self.residual = residual
        self.bound = bound
        self.restarts = restarts


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def _neg_entropy(p: np.ndarray) -> np.ndarray:
    """Row-wise sum p*log(p) with the 0*log(0)=0 convention."""
    return np.sum(p * _safe_log(p), axis=-1)


# --------------------------------------------------------------------------
# Per-state regularized saddle points
# --------------------------------------------------------------------------

def _saddle_batch(q, tau_min, tau_max, tol, max_iter, warm=None):
    """Solve a batch of regularized matrix saddle points.

    Args:
        q: payoff matrices, shape (N, A, B).
        warm: optional (log_y, log_z) warm start, shapes (N, A) and (N, B).

    Returns (y, z, values).  The iteration is the composite mirror-prox
    step in KL geometry: the bilinear coupling is treated by extragradient
    while the entropy terms are absorbed exactly, which makes each
    half-step a damped softmax of the opponent response.
    Per-state step sizes 1/(tau + spread(Q)) give a linear rate in tau/spread.
    The residual is checked every 16 iterations.
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
        if it % 16 == 0:
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
    return y, z, values


# --------------------------------------------------------------------------
# Bellman operators and policy evaluation
# --------------------------------------------------------------------------

def _folded(game: MarkovGame, r_eff, y, z):
    """Per-state regularized stage payoff, and the state chain, under a fixed policy pair."""
    r_yz = np.einsum("sab,sa,sb->s", r_eff, y, z)
    h = game.tau_min * _neg_entropy(y) - game.tau_max * _neg_entropy(z)
    h[game.absorbing] = 0.0
    return r_yz + h, game.pair_chain(y, z)


def bellman_policy_operator(game: MarkovGame, model: RewardModel, policy_min, policy_max, v):
    """One application of the fixed-policy evaluation operator."""
    y, z = probs(policy_min), probs(policy_max)
    r_eff = effective_reward(game, model)
    c, chain = _folded(game, r_eff, y, z)
    return c + game.discount * chain.step(v)


def soft_bellman_optimality(game: MarkovGame, model: RewardModel, v, tol=1e-10,
                            max_iter=100_000, warm=None):
    """One application of the regularized optimality operator.

    Returns (Tv, y, z) where (y, z) solve the per-state saddles at the
    backed-up payoff matrices.  Absorbing states back up gamma*v with
    uniform placeholder policies.  `warm`, a (log y, log z) pair over all
    states, warm-starts the saddle solves.
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
        y[live], z[live], tv[live] = _saddle_batch(q[live], game.tau_min, game.tau_max,
                                                   tol, max_iter, warm=w)
    return tv, y, z


# Restarted GMRES: Krylov vectors per restart, and restarts before a solve gives up.
_RESTART = 64
_MAX_RESTARTS = 100
# No solve asks for a residual below this many units in the last place of the larger of
# |b| and |x|: computing the residual of a float solution rounds about that much.
_FLOOR_ULPS = 16


def _gmres(step, b, gamma, x, bound):
    """Solve (I - gamma P) x = b by restarted GMRES (Saad & Schultz 1986), P as `step`.

    `x` is the first guess (None for zeros).  Each restart recomputes the true
    residual, so restarts also refine the solution.  The solve returns once
    that residual's max-norm is at most `bound`, or `_FLOOR_ULPS` ulps of
    max(|b|, |x|) when that is larger; within a restart, the GMRES estimate of
    the residual's 2-norm ends the Arnoldi process at the same bound.  It
    raises `LinearSolveError` when `_MAX_RESTARTS` restarts do not meet it.
    """
    x = np.zeros_like(b) if x is None else np.array(x, dtype=float)
    basis = np.empty((_RESTART + 1, len(b)))
    upper = np.zeros((_RESTART, _RESTART))  # R of the Hessenberg matrix's QR
    b_max = np.abs(b).max()
    for restart in range(_MAX_RESTARTS + 1):
        r = b - (x - gamma * step(x))
        res = np.abs(r).max()
        target = max(bound, _FLOOR_ULPS * np.finfo(float).eps * max(b_max, np.abs(x).max()))
        if res <= target:
            return x
        if restart == _MAX_RESTARTS:
            raise LinearSolveError(float(res), float(target), restart)
        g = [math.sqrt(r @ r)]  # the rotated right-hand side, beta e_1
        basis[0] = r / g[0]
        cs, sn = [], []
        for j in range(_RESTART):
            w = basis[j] - gamma * step(basis[j])
            # classical Gram-Schmidt, applied twice to keep the basis orthogonal
            h = np.einsum("js,s->j", basis[:j + 1], w)
            w -= np.einsum("j,js->s", h, basis[:j + 1])
            h2 = np.einsum("js,s->j", basis[:j + 1], w)
            w -= np.einsum("j,js->s", h2, basis[:j + 1])
            col = (h + h2).tolist()
            norm = math.sqrt(w @ w)
            for i in range(j):  # the earlier Givens rotations, then a new one
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = math.hypot(col[j], norm)
            cs.append(col[j] / rho)
            sn.append(norm / rho)
            col[j] = rho
            upper[:j + 1, j] = col
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            if abs(g[j + 1]) <= target:  # also on breakdown, where norm is 0
                break
            basis[j + 1] = w / norm
        k = len(cs)
        x += np.linalg.solve(upper[:k, :k], g[:k]) @ basis[:k]


def _solve(chain, b, gamma, x=None, bound=0.0, transpose=False) -> np.ndarray:
    """Solve (I - gamma P) x = b, or (I - gamma P') x = b, for a chain's P.

    On a `FoldedChain` by LU (`x` and `bound` unused); on a `ListChain` by
    `_gmres` from the guess `x`, to the max-norm residual `bound`.
    """
    if chain.matrix is not None:
        m = chain.matrix.T if transpose else chain.matrix
        return np.linalg.solve(np.eye(len(m)) - gamma * m, b)
    return _gmres(chain.step_back if transpose else chain.step, b, gamma, x, bound)


def _solve_visitation(game: MarkovGame, chain) -> np.ndarray:
    return _solve(chain, (1.0 - game.discount) * game.init_dist, game.discount,
                  transpose=True)


def policy_eval(game: MarkovGame, model: RewardModel, policy_min, policy_max) -> np.ndarray:
    """Regularized value of a fixed policy pair, by one linear solve."""
    c, chain = _folded(game, effective_reward(game, model), probs(policy_min), probs(policy_max))
    return _solve(chain, c, game.discount)


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


def solve_ne(game: MarkovGame, model: RewardModel, tol=1e-9, max_sweeps=100_000) -> NashSolution:
    """Nash equilibrium of the regularized game.

    Value iteration with the optimality operator from v=0, stopping when the
    Bellman residual drops below tol*(1-gamma)/gamma, so the fixed-point
    error is at most tol.  Per-state saddles are warm-started across sweeps;
    the returned policies come from a final solve, to 1e-12, at the converged values.
    """
    g = game.discount
    thr = tol * (1.0 - g) / g if g > 0 else np.inf
    v = np.zeros(game.n_states)
    warm = None
    res = np.inf
    inner_tol = 1e-9
    for sweep in range(1, max_sweeps + 1):
        tv, y, z = soft_bellman_optimality(game, model, v, tol=inner_tol, warm=warm)
        warm = (_safe_log(y), _safe_log(z))
        res = np.abs(tv - v).max()
        v = tv
        inner_tol = min(1e-9, max(1e-12, res * 1e-3))
        if res <= thr:
            break
    else:
        raise ValueIterationError(float(res), max_sweeps)

    # Final polished saddle at the converged values.
    _, y, z = soft_bellman_optimality(game, model, v, tol=1e-12, warm=warm)
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


def _soft_policy_iteration(r_fold, kernel, tau, absorbing, gamma, tol, v0=None):
    """Policy iteration for a single-player MDP regularized at temperature tau.

    Alternates exact evaluation of the entropy-regularized policy (`_solve`,
    from the previous round's values) with the softmax improvement step.
    Being Newton's method on the soft Bellman fixed point, it converges in a
    handful of rounds regardless of the discount.  It stops once the
    log-sum-exp backup moves the values by at most thr = tol*(1-gamma)/gamma,
    or fails after 200 rounds.  Near the fixed point that move is the
    evaluation's residual plus the improvement step's gain, so a GMRES
    evaluation is solved to a residual of thr/8 (tol/8 when that is smaller,
    as at gamma = 0, where thr is infinite and the values are the residual's
    only check).  `kernel` is the MDP's `ResponseKernel` or `ListResponse`.
    """
    s, k = r_fold.shape
    thr = tol * (1.0 - gamma) / gamma if gamma > 0 else np.inf
    v = np.zeros(s) if v0 is None else np.asarray(v0, dtype=float).copy()
    v[absorbing] = 0.0
    qf = r_fold + gamma * kernel.backup(v)
    pol = softmax(qf / tau)
    res = np.inf
    for rounds in range(1, 201):
        c = np.einsum("sk,sk->s", pol, r_fold) - tau * _neg_entropy(pol)
        c[absorbing] = 0.0
        v = _solve(kernel.chain(pol), c, gamma, v, min(thr, tol) / 8)
        qf = r_fold + gamma * kernel.backup(v)
        m = qf.max(axis=1)
        tv = tau * (m / tau + np.log(np.exp(qf / tau - m[:, None] / tau).sum(axis=1)))
        tv[absorbing] = 0.0
        pol = softmax(qf / tau)
        res = np.abs(tv - v).max()
        if res <= thr:
            break
    else:
        raise ValueIterationError(float(res), rounds, "policy iteration", "rounds")
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
    r_eff = effective_reward(game, model)
    pi = probs(fixed)
    if side == "max":
        r_fold = np.einsum("sab,sa->sb", r_eff, pi) + game.tau_min * _neg_entropy(pi)[:, None]
        tau, sign = game.tau_max, 1.0
    else:
        r_fold = -np.einsum("sab,sb->sa", r_eff, pi) + game.tau_max * _neg_entropy(pi)[:, None]
        tau, sign = game.tau_min, -1.0
    r_fold[game.absorbing] = 0.0
    v, pol, res, sweeps = _soft_policy_iteration(r_fold, game.response_kernel(pi, side), tau,
                                                 game.absorbing, game.discount, tol, v0=v0)
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
    return _solve_visitation(game, game.pair_chain(probs(policy_min), probs(policy_max)))


def _regularized_stage(game, r_eff, y, z):
    """Per-step regularized payoff r(s,a,b) + tau_min*log y(a|s) - tau_max*log z(b|s)."""
    return (r_eff
            + game.tau_min * _safe_log(y)[:, :, None]
            - game.tau_max * _safe_log(z)[:, None, :])


def _score_rows(pi, avg_w, weight):
    """Rows weight(s) * sum_a pi (e_a - pi) avg_w = weight * pi * (avg_w - <pi, avg_w>)."""
    inner = np.sum(pi * avg_w, axis=1, keepdims=True)
    return weight[:, None] * pi * (avg_w - inner)


def _pair_terms(game, r_eff, y, z, v0=None):
    """Visitation weights d/(1-gamma) and continuation payoffs w of a policy pair.

    w(s,a,b) is the regularized payoff plus the discounted continuation,
    zero on absorbing states: the mean of the sampled regularized
    reward-to-go given (s, a, b).  `v0` guesses the pair's values.
    """
    c, chain = _folded(game, r_eff, y, z)
    v = _solve(chain, c, game.discount, v0)
    d = _solve_visitation(game, chain)
    w = _regularized_stage(game, r_eff, y, z) + game.discount * game.expect(v)
    w[game.absorbing] = 0.0
    return d / (1.0 - game.discount), w


def _grad_policy(y, z, d_over, w, side):
    if side == "min":
        return _score_rows(y, np.einsum("sab,sb->sa", w, z), d_over)
    return _score_rows(z, np.einsum("sab,sa->sb", w, y), d_over)


def _grad_x(y, z, weights, g):
    return weights[:, None, None] * y[:, :, None] * z[:, None, :] * g


def exact_grad_policy(game: MarkovGame, model: RewardModel, policy_min, policy_max, side) -> np.ndarray:
    """Exact gradient of J in one player's softmax logits.

    Score-function form: rows are visitation-weighted advantage-like terms
    with the regularized continuation weight, so it matches the expectation
    of the sampled reward-to-go estimator at infinite horizon.
    """
    _check_side(side)
    y, z = probs(policy_min), probs(policy_max)
    d_over, w = _pair_terms(game, effective_reward(game, model), y, z)
    return _grad_policy(y, z, d_over, w, side)


def exact_grad_x(game: MarkovGame, model: RewardModel, policy_min, policy_max) -> np.ndarray:
    """Exact gradient of J in the incentive parameters x, shape (S, A, B)."""
    y, z = probs(policy_min), probs(policy_max)
    d = visitation(game, y, z)
    return _grad_x(y, z, d / (1.0 - game.discount), effective_reward_grad_x(game, model))


# --------------------------------------------------------------------------
# Finite-horizon value and policy gradient of a per-step stage reward
# --------------------------------------------------------------------------

def finite_horizon_value(game: MarkovGame, stage, y, z, horizon, gamma) -> float:
    """E[sum_{t<horizon} gamma^t stage(s_t, a_t, b_t)] from s_0 ~ rho under (y, z).

    `stage` has shape (S, A, B); `gamma` need not be the game's discount.
    Absorbing states end the episode and add nothing.  The recursion runs on
    the chain of the policy pair, one `step` per time step.
    """
    chain = game.pair_chain(y, z)
    u = np.einsum("sab,sa,sb->s", stage, y, z)
    v = np.zeros(game.n_states)
    for _ in range(horizon):
        v = u + gamma * chain.step(v)
        v[game.absorbing] = 0.0
    return float(game.init_dist @ v)


def finite_horizon_grad(game: MarkovGame, stage, y, z, horizon, gamma):
    """Gradients of `finite_horizon_value` in both players' softmax logits.

    A backward recursion builds the step-t action values
    q_t = stage + gamma * P v_{t+1} (zero on absorbing states) and keeps only
    their contractions with each opponent's policy; a forward pass then
    weights each step's score-function rows by gamma^t times the step-t
    state distribution p_t.  Returns (grad_min, grad_max, occupancy),
    occupancy = sum_t gamma^t p_t weighting the gradient in stage parameters.
    """
    v_next = np.zeros(game.n_states)
    qs = []  # per step, E_b q_t (S, A) and E_a q_t (S, B)
    for _ in range(horizon):
        q = stage + gamma * game.expect(v_next)
        q[game.absorbing] = 0.0
        v_next = np.einsum("sab,sa,sb->s", q, y, z)
        qs.append((np.einsum("sab,sb->sa", q, z), np.einsum("sab,sa->sb", q, y)))

    chain = game.pair_chain(y, z)
    gmin = np.zeros_like(y)
    gmax = np.zeros_like(z)
    occupancy = np.zeros(game.n_states)
    pt = game.init_dist
    for t, (q_min, q_max) in enumerate(reversed(qs)):  # the step-t action values
        sc = (gamma ** t) * pt
        gmin += _score_rows(y, q_min, sc)
        gmax += _score_rows(z, q_max, sc)
        occupancy += sc
        pt = chain.step_back(pt)
    return gmin, gmax, occupancy


def exact_grads_truncated(game: MarkovGame, model: RewardModel, policy_min,
                          policy_max, horizon):
    """Exact (grad_min, grad_max, grad_x) of the horizon-truncated J: the estimators' means."""
    y, z = probs(policy_min), probs(policy_max)
    stage = _regularized_stage(game, effective_reward(game, model), y, z)
    gmin, gmax, occupancy = finite_horizon_grad(game, stage, y, z, horizon, game.discount)
    return gmin, gmax, _grad_x(y, z, occupancy, effective_reward_grad_x(game, model))


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
    # one value and one visitation solve per pair serve both of its gradients; each
    # pair's values are its responder's soft values, with the sign of J
    r_eff = effective_reward(game, model)
    d_max, w_max = _pair_terms(game, r_eff, y, bmax.policy, bmax.soft_v)
    d_min, w_min = _pair_terms(game, r_eff, bmin.policy, z, -bmin.soft_v)
    g = effective_reward_grad_x(game, model)
    grad_min = _grad_policy(y, bmax.policy, d_max, w_max, "min")
    grad_max = -_grad_policy(bmin.policy, z, d_min, w_min, "max")
    grad_x = _grad_x(y, bmax.policy, d_max, g) - _grad_x(bmin.policy, z, d_min, g)
    return NIGradients(gap=bmax.j_value - bmin.j_value, grad_min=grad_min,
                       grad_max=grad_max, grad_x=grad_x, br_min=bmin.policy,
                       br_max=bmax.policy, v_min=bmin.soft_v, v_max=bmax.soft_v)


def pl_constant(game: MarkovGame, policy_min, policy_max) -> float:
    """Non-uniform PL modulus (1-gamma) * (min tau / S) * min rho^2 * min pi^2."""
    y, z = probs(policy_min), probs(policy_max)
    tau = min(game.tau_min, game.tau_max)
    rho2 = float(np.min(game.init_dist) ** 2)
    pi2 = float(min(np.min(y), np.min(z)) ** 2)
    return (1.0 - game.discount) * tau / game.n_states * rho2 * pi2
