"""Penalty-based policy optimization for incentive design over zero-sum games.

The designer's problem is

    min_{x, y, z}  f(x, y, z)   subject to  (y, z) near-equilibrium of J(x, .)

where J is the entropy-regularized discounted value of the lower-level game
and f is an upper-level objective supplied by an environment bundle.  The
equilibrium constraint is relaxed through the Nikaido-Isoda gap

    g(x, y, z) = max_z' J(x, y, z') - min_y' J(x, y', z) >= 0,

and the penalized loss L = f + lam * g is minimized in (x, y, z) jointly.
Because g itself hides an inner max/min, each optimizer maintains a pair of
*shadow* policies (y~, z~) tracking the two inner best responses; the gap
gradients are then plain policy gradients of J evaluated against the shadows.

Four optimizers share this scaffolding:

- ``run_panda``    stochastic, shadow policies warm-started across outer
                   iterations (carried in the optimizer state);
- ``run_pbrl``     stochastic, shadow policies re-initialized from the
                   current policy pair at every outer iteration;
- ``run_alternating`` stochastic descent-ascent on J alone, ignoring f's
                   coupling into the policies (equilibrium tracking only);
- ``run_oracle``   deterministic reference: exact gradients, exact best
                   responses, inner loop iterated to stationarity.

All stochastic gradients draw fresh trajectory batches from counter-based
streams keyed on (purpose, outer, inner, trajectory), so runs are
reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .envs import EnvBundle
from .exact import best_response, exact_grad_policy, exact_grad_x, ni_gradients
from .game import RewardModel, TabularPolicy
from .sampling import RngStream, estimate_gradients, sample_batch

# Stream purposes.  Every estimator call site owns one label so that no two
# draws within a run ever share a Philox counter block.
PURPOSE_SHADOW_MIN = 0   # batch for the min-shadow update grad
PURPOSE_SHADOW_MAX = 1   # batch for the max-shadow update grad
PURPOSE_PENALTY_MIN = 2  # batch for the penalty grad in the min policy
PURPOSE_PENALTY_MAX = 3  # batch for the penalty grad in the max policy
PURPOSE_UL_POLICY = 4    # upper-level objective, policy gradients
PURPOSE_OUTER_X_MAIN = 5    # incentive grad of J at (y, z~)
PURPOSE_OUTER_X_SHADOW = 6  # incentive grad of J at (y~, z)
PURPOSE_UL_X = 7         # upper-level objective, incentive gradient


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or +-inf; the run cannot continue honestly."""

    def __init__(self, what: str, optimizer: str, outer: int, inner: int | None):
        at = f"outer {outer}" if inner is None else f"outer {outer}, inner {inner}"
        super().__init__(f"{optimizer}: non-finite {what} gradient at {at}")
        self.what = what
        self.optimizer = optimizer
        self.outer = outer
        self.inner = inner


@dataclass
class PandaConfig:
    """Hyperparameters shared by all optimizers.

    `eta_theta` steps the policy pair being optimized, `eta_shadow_*` step the
    best-response trackers, `eta_x` the incentive parameters.  `batch_traj`
    trajectories feed every lower-level gradient estimate and `batch_ul`
    every upper-level one; each estimate uses its own fresh batch.  When
    `env_step_budget` is set, a run stops at the end of the first outer
    iteration whose cumulative environment step count reaches it.  `lam`
    must be finite and positive, the step sizes finite and non-negative, and
    the counts (iterations, batch sizes, horizon, seed, cadence, budget)
    integers.
    """

    lam: float = 4.0
    eta_x: float = 0.05
    eta_theta: float = 0.1
    eta_shadow_min: float = 0.1
    eta_shadow_max: float = 0.1
    inner_iters: int = 10
    outer_iters: int = 200
    batch_traj: int = 16
    batch_ul: int = 16
    horizon: int = 3
    seed: int = 0
    eval_cadence: int = 5
    env_step_budget: int | None = None

    def __post_init__(self):
        counts = ["inner_iters", "outer_iters", "batch_traj", "batch_ul", "horizon",
                  "seed", "eval_cadence"]
        if self.env_step_budget is not None:
            counts.append("env_step_budget")
        for name in counts:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.inner_iters < 1 or self.outer_iters < 1:
            raise ValueError("inner_iters and outer_iters must be positive")
        if self.batch_traj < 1 or self.batch_ul < 1 or self.horizon < 1:
            raise ValueError("batch sizes and horizon must be positive")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"penalty weight lam must be positive and finite, got {self.lam}")
        for name in ("eta_x", "eta_theta", "eta_shadow_min", "eta_shadow_max"):
            eta = getattr(self, name)
            if not (math.isfinite(eta) and eta >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {eta}")
        if self.env_step_budget is not None and self.env_step_budget < 0:
            raise ValueError(f"env_step_budget must be non-negative, got {self.env_step_budget}")
        if self.eval_cadence < 1:
            raise ValueError("eval_cadence must be positive")


@dataclass
class OptimizerState:
    """Current iterates: incentives, policy pair, and best-response shadows."""

    x: np.ndarray
    policy_min: TabularPolicy
    policy_max: TabularPolicy
    shadow_min: TabularPolicy
    shadow_max: TabularPolicy
    env_steps: int = 0


@dataclass
class RunRecord:
    """One outer iteration's metrics row.

    Exact metrics (`ul_objective`, `ni_gap`, `grad_norm`) are refreshed every
    `eval_cadence` iterations and at the final one; rows in between carry the
    most recent values forward.  `grad_norm` is the Euclidean norm of the
    exact penalty gradient in all variables (x, y, z) at the current iterate,
    with the gap term evaluated at exact best responses.
    """

    outer_iter: int
    env_steps: int
    ul_objective: float
    ni_gap: float
    grad_norm: float
    wall_ms: float


@dataclass
class RunResult:
    records: list[RunRecord]
    state: OptimizerState


class ULObjective(Protocol):
    """Upper-level objective f(x, y, z) with exact and sampled oracles."""

    def value_exact(self, model, policy_min, policy_max) -> float: ...

    def grad_policies_exact(self, model, policy_min, policy_max): ...

    def grad_x_exact(self, model, policy_min, policy_max) -> np.ndarray: ...

    def value_estimate(self, model, policy_min, policy_max, batch,
                       stream, purpose=0, outer=0, inner=0): ...

    def grad_policies_estimate(self, model, policy_min, policy_max, batch,
                               stream, purpose=0, outer=0, inner=0): ...

    def grad_x_estimate(self, model, policy_min, policy_max, batch,
                        stream, purpose=0, outer=0, inner=0): ...


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def init_state(env: EnvBundle) -> OptimizerState:
    """Uniform policies, incentives at the environment's initial point."""
    g = env.game
    pmin = TabularPolicy.uniform(g.n_states, g.n_actions_min)
    pmax = TabularPolicy.uniform(g.n_states, g.n_actions_max)
    return OptimizerState(
        x=env.model.incentive_params.copy(),
        policy_min=pmin, policy_max=pmax,
        shadow_min=pmin.copy(), shadow_max=pmax.copy(),
    )


def _step(params, eta, grad, what, optimizer, outer, inner=None) -> np.ndarray:
    """`params - eta * grad`, which must be finite.

    A non-finite gradient, or a step that overflows, aborts the run here,
    before the parameters are used, so numpy never sees them overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        new = params - eta * grad
    if not np.all(np.isfinite(new)):
        raise NonFiniteGradientError(what, optimizer, outer, inner)
    return new


@dataclass
class ExactMetrics:
    ul_objective: float
    ni_gap: float
    grad_norm: float


@dataclass
class _EvalCache:
    v_min: np.ndarray | None = None
    v_max: np.ndarray | None = None


def exact_metrics(env: EnvBundle, state: OptimizerState, lam: float,
                  cache: _EvalCache | None = None, tol: float = 1e-9) -> ExactMetrics:
    """Exact f, NI gap, and penalty-gradient norm at the current iterate."""
    model_x = env.model.with_params(state.x)
    v0_min = cache.v_min if cache is not None else None
    v0_max = cache.v_max if cache is not None else None
    ni = ni_gradients(env.game, model_x, state.policy_min, state.policy_max,
                      tol=tol, v0_min=v0_min, v0_max=v0_max)
    if cache is not None:
        cache.v_min, cache.v_max = ni.v_min, ni.v_max
    f_val = env.ul.value_exact(model_x, state.policy_min, state.policy_max)
    f_gmin, f_gmax = env.ul.grad_policies_exact(model_x, state.policy_min, state.policy_max)
    f_gx = env.ul.grad_x_exact(model_x, state.policy_min, state.policy_max)
    parts = (f_gx + lam * ni.grad_x,
             f_gmin + lam * ni.grad_min,
             f_gmax + lam * ni.grad_max)
    norm = float(np.sqrt(sum(float(np.sum(p * p)) for p in parts)))
    return ExactMetrics(ul_objective=float(f_val), ni_gap=float(ni.gap), grad_norm=norm)


def _step_policies(state, cfg, gmin, gmax, optimizer, outer, inner) -> None:
    """Descend the policy pair's logits along (gmin, gmax) with step `eta_theta`."""
    state.policy_min = TabularPolicy(_step(state.policy_min.logits, cfg.eta_theta, gmin,
                                           "min-policy", optimizer, outer, inner))
    state.policy_max = TabularPolicy(_step(state.policy_max.logits, cfg.eta_theta, gmax,
                                           "max-policy", optimizer, outer, inner))


def _sampled_j_grad(env, model_x: RewardModel, policy_min, policy_max, side: str,
                    cfg: PandaConfig, stream: RngStream, purpose: int,
                    outer: int, inner: int):
    """Fresh-batch policy-gradient estimate of J in one variable block."""
    batch = sample_batch(env.game, model_x, policy_min, policy_max,
                         cfg.batch_traj, cfg.horizon, stream, purpose, outer, inner)
    est = estimate_gradients(env.game, model_x, policy_min, policy_max,
                             batch, want=(side,))
    grad = {"min": est.grad_min, "max": est.grad_max, "x": est.grad_x}[side]
    return grad, est.n_env_steps


def _penalty_inner_loop(env, cfg, state, stream, t, optimizer,
                        f_scale=None, pen_scale=1.0):
    """K stochastic inner iterations: track best responses, step the pair.

    Each iteration draws five fresh batches: two to advance the shadows, two
    to form the gap gradients against the *advanced* shadows, and one for the
    upper-level policy gradient.  The policy pair then takes one step on
    f_scale * f + pen_scale * surrogate-gap; the two weightings in use are
    (1/lam, 1) -- the penalized loss rescaled by lam, the default -- and
    (1, lam), the penalized loss itself.
    """
    if f_scale is None:
        f_scale = 1.0 / cfg.lam
    model_x = env.model.with_params(state.x)
    for k in range(cfg.inner_iters):
        u, s1 = _sampled_j_grad(env, model_x, state.shadow_min, state.policy_max,
                                "min", cfg, stream, PURPOSE_SHADOW_MIN, t, k)
        v, s2 = _sampled_j_grad(env, model_x, state.policy_min, state.shadow_max,
                                "max", cfg, stream, PURPOSE_SHADOW_MAX, t, k)
        shadow_min = TabularPolicy(_step(state.shadow_min.logits, cfg.eta_shadow_min, u,
                                         "min-shadow", optimizer, t, k))
        shadow_max = TabularPolicy(_step(state.shadow_max.logits, cfg.eta_shadow_max, -v,
                                         "max-shadow", optimizer, t, k))

        f_gmin, f_gmax, s3 = env.ul.grad_policies_estimate(
            model_x, state.policy_min, state.policy_max, cfg.batch_ul,
            stream, purpose=PURPOSE_UL_POLICY, outer=t, inner=k)
        pen_min, s4 = _sampled_j_grad(env, model_x, state.policy_min, shadow_max,
                                      "min", cfg, stream, PURPOSE_PENALTY_MIN, t, k)
        pen_max, s5 = _sampled_j_grad(env, model_x, shadow_min, state.policy_max,
                                      "max", cfg, stream, PURPOSE_PENALTY_MAX, t, k)
        gmin = f_scale * f_gmin + pen_scale * pen_min
        gmax = f_scale * f_gmax - pen_scale * pen_max
        _step_policies(state, cfg, gmin, gmax, optimizer, t, k)
        state.shadow_min, state.shadow_max = shadow_min, shadow_max
        state.env_steps += s1 + s2 + s3 + s4 + s5


def _incentive_step(env, cfg, state, stream, t, optimizer):
    """Outer update of x along f's gradient plus lam times the gap's."""
    model_x = env.model.with_params(state.x)
    g_main, s1 = _sampled_j_grad(env, model_x, state.policy_min, state.shadow_max,
                                 "x", cfg, stream, PURPOSE_OUTER_X_MAIN, t, 0)
    g_shadow, s2 = _sampled_j_grad(env, model_x, state.shadow_min, state.policy_max,
                                   "x", cfg, stream, PURPOSE_OUTER_X_SHADOW, t, 0)
    f_gx, s3 = env.ul.grad_x_estimate(model_x, state.policy_min, state.policy_max,
                                      cfg.batch_ul, stream,
                                      purpose=PURPOSE_UL_X, outer=t)
    ell = f_gx + cfg.lam * (g_main - g_shadow)
    state.x = _step(state.x, cfg.eta_x, ell, "incentive", optimizer, t)
    state.env_steps += s1 + s2 + s3


def _metrics_loop(env, cfg, state, step_fn) -> RunResult:
    """Drive `step_fn` for up to `outer_iters` iterations, recording metrics.

    `step_fn(t)` performs one full outer iteration, mutating `state`.  Exact
    metrics are computed on the eval cadence and at the last recorded row
    (whether reached by iteration count or by the env-step budget); other
    rows repeat the previous values so every row is populated.
    """
    cache = _EvalCache()
    metrics = exact_metrics(env, state, cfg.lam, cache)
    records: list[RunRecord] = []
    for t in range(cfg.outer_iters):
        t0 = time.perf_counter()
        try:
            step_fn(t)
        except NonFiniteGradientError as e:
            # completed iterations survive as a partial result for callers
            # that want to persist what the run managed before aborting
            e.partial = RunResult(records=records, state=state)
            raise
        wall = (time.perf_counter() - t0) * 1e3
        out_of_budget = (cfg.env_step_budget is not None
                         and state.env_steps >= cfg.env_step_budget)
        last = out_of_budget or t + 1 == cfg.outer_iters
        if (t + 1) % cfg.eval_cadence == 0 or last:
            metrics = exact_metrics(env, state, cfg.lam, cache)
        records.append(RunRecord(
            outer_iter=t + 1, env_steps=state.env_steps,
            ul_objective=metrics.ul_objective, ni_gap=metrics.ni_gap,
            grad_norm=metrics.grad_norm, wall_ms=wall))
        if out_of_budget:
            break
    return RunResult(records=records, state=state)


# --------------------------------------------------------------------------
# Optimizers
# --------------------------------------------------------------------------

def run_panda(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Stochastic penalty method with warm-started best-response shadows.

    The shadow pair survives from one outer iteration to the next, so after
    the incentives move the trackers resume from their previous position
    instead of relearning the responses from scratch.
    """
    state = init_state(env)
    stream = RngStream(cfg.seed)

    def step(t):
        _penalty_inner_loop(env, cfg, state, stream, t, "panda")
        _incentive_step(env, cfg, state, stream, t, "panda")

    return _metrics_loop(env, cfg, state, step)


def run_pbrl(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Penalty baseline whose shadows restart at every outer iteration.

    Joint stochastic gradient descent on the penalized loss f + lam * gap
    itself (not the 1/lam rescaling the warm-started method uses), with the
    best-response trackers re-initialized from the current policy pair before
    each inner loop; with a small inner budget they chronically lag the true
    responses.
    """
    state = init_state(env)
    stream = RngStream(cfg.seed)

    def step(t):
        state.shadow_min = state.policy_min.copy()
        state.shadow_max = state.policy_max.copy()
        _penalty_inner_loop(env, cfg, state, stream, t, "pbrl",
                            f_scale=1.0, pen_scale=cfg.lam)
        _incentive_step(env, cfg, state, stream, t, "pbrl")

    return _metrics_loop(env, cfg, state, step)


def run_alternating(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Descent-ascent on J alone, then an incentive step on f's gradient.

    The policy pair ignores the upper-level objective entirely, so this
    baseline drives the equilibrium gap down but leaves f to whatever the
    incentive gradient alone can reach; with objectives that influence f
    only through the policies, x never moves.
    """
    state = init_state(env)
    stream = RngStream(cfg.seed)

    def step(t):
        model_x = env.model.with_params(state.x)
        for k in range(cfg.inner_iters):
            u, s1 = _sampled_j_grad(env, model_x, state.policy_min, state.policy_max,
                                    "min", cfg, stream, PURPOSE_SHADOW_MIN, t, k)
            v, s2 = _sampled_j_grad(env, model_x, state.policy_min, state.policy_max,
                                    "max", cfg, stream, PURPOSE_SHADOW_MAX, t, k)
            _step_policies(state, cfg, u, -v, "alternating", t, k)
            state.env_steps += s1 + s2
        f_gx, s3 = env.ul.grad_x_estimate(model_x, state.policy_min, state.policy_max,
                                          cfg.batch_ul, stream,
                                          purpose=PURPOSE_UL_X, outer=t)
        state.x = _step(state.x, cfg.eta_x, f_gx, "incentive", "alternating", t)
        state.env_steps += s3

    return _metrics_loop(env, cfg, state, step)


def run_oracle(env: EnvBundle, cfg: PandaConfig, inner_tol: float = 1e-8,
               inner_cap: int = 500, br_tol: float = 1e-10) -> RunResult:
    """Deterministic reference run on exact gradients and best responses.

    The inner loop replaces the shadow trackers with exact soft best
    responses (so the surrogate gap equals the true gap along the way) and
    iterates until the policy update is below `inner_tol` in sup norm or
    `inner_cap` iterations elapse.  No trajectories are sampled; env_steps
    stays zero.
    """
    state = init_state(env)
    ws = _EvalCache()

    def responses(model_x):
        bmax = best_response(env.game, model_x, state.policy_min, "max",
                             tol=br_tol, v0=ws.v_max)
        bmin = best_response(env.game, model_x, state.policy_max, "min",
                             tol=br_tol, v0=ws.v_min)
        ws.v_min, ws.v_max = bmin.soft_v, bmax.soft_v
        return bmin, bmax

    def step(t):
        model_x = env.model.with_params(state.x)
        for k in range(inner_cap):
            bmin, bmax = responses(model_x)
            f_gmin, f_gmax = env.ul.grad_policies_exact(
                model_x, state.policy_min, state.policy_max)
            pen_min = exact_grad_policy(env.game, model_x,
                                        state.policy_min, bmax.policy, "min")
            pen_max = exact_grad_policy(env.game, model_x,
                                        bmin.policy, state.policy_max, "max")
            gmin = f_gmin / cfg.lam + pen_min
            gmax = f_gmax / cfg.lam - pen_max
            _step_policies(state, cfg, gmin, gmax, "oracle", t, k)
            step_size = max(cfg.eta_theta * np.abs(gmin).max(),
                            cfg.eta_theta * np.abs(gmax).max())
            if step_size <= inner_tol:
                break
        bmin, bmax = responses(model_x)
        state.shadow_min = TabularPolicy(np.log(np.maximum(bmin.policy, 1e-300)))
        state.shadow_max = TabularPolicy(np.log(np.maximum(bmax.policy, 1e-300)))
        f_gx = env.ul.grad_x_exact(model_x, state.policy_min, state.policy_max)
        ell = f_gx + cfg.lam * (
            exact_grad_x(env.game, model_x, state.policy_min, bmax.policy)
            - exact_grad_x(env.game, model_x, bmin.policy, state.policy_max))
        state.x = _step(state.x, cfg.eta_x, ell, "incentive", "oracle", t)

    return _metrics_loop(env, cfg, state, step)


OPTIMIZERS = {
    "panda": run_panda,
    "pbrl": run_pbrl,
    "alternating": run_alternating,
    "oracle": run_oracle,
}
