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

One update rule serves three optimizers: a policy step on a weighted sum
of f and the surrogate gap at the shadows (`_penalty_step`) and an
incentive step on f + lam * surrogate gap (`_incentive_step`), both over a
gradient source, sampled (`_Sampled`) or exact (`_Exact`).  They differ in
source, shadow rule, weighting and stop rule:

- ``run_panda``    sampled, shadow policies warm-started across outer
                   iterations (carried in the optimizer state);
- ``run_pbrl``     sampled, shadow policies re-initialized from the
                   current policy pair at every outer iteration;
- ``run_oracle``   exact gradients against exact best responses, inner
                   loop stopped at a step tolerance or an iteration cap.

``run_alternating`` is the sampled baseline outside the rule: descent-ascent
on J alone, ignoring f's coupling into the policies.

All stochastic gradients draw fresh trajectory batches from counter-based
streams keyed on (purpose, outer, inner, trajectory), so runs are
reproducible bit-for-bit regardless of scheduling.  The gradients of one
update phase (the shadow pair, the penalty pair, the incentive pair, the
descent-ascent pair) are asked for together through `j_grads`, which the
sampled source answers with one stacked batch; it adds each batch's steps
to the state's count as it draws them, so an aborted run counts them too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .envs import EnvBundle
from .exact import SolverError, best_response, exact_grad_policy, exact_grad_x, ni_gradients
from .game import TabularPolicy, _check_counts, _check_reals
from .sampling import RngStream, estimate_gradients, n_env_steps, sample_batch

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
    """A gradient of block `what` (at inner iteration `inner`, if any) contained NaN
    or +-inf; the run cannot continue honestly.  `_metrics_loop` adds `outer`, `phase`."""

    def __init__(self, what: str, inner: int | None):
        at = "" if inner is None else f" at inner {inner}"
        super().__init__(f"non-finite {what} gradient{at}")
        self.what, self.inner = what, inner


# the errors that abort a run; `_metrics_loop` gives each the rows recorded so far
RUN_ABORTS = (NonFiniteGradientError, SolverError)


@dataclass
class PandaConfig:
    """Hyperparameters shared by all optimizers.

    `eta_theta` steps the policy pair being optimized, `eta_shadow_*` step the
    best-response trackers, `eta_x` the incentive parameters.  `batch_traj`
    trajectories feed every lower-level gradient estimate and `batch_ul`
    every upper-level one; each estimate uses its own fresh batch.  When
    `env_step_budget` is set, a run stops at the end of the first outer
    iteration whose cumulative environment step count reaches it.  `lam`
    must be a finite real > 0 and the step sizes finite reals >= 0 (not
    booleans); the counts (iterations, batch sizes, horizon, cadence) must be
    integers >= 1, the seed and the budget integers >= 0.
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
        # the reals first, so that a config with a bad step and a bad budget names the step
        _check_reals(self, ("lam",), positive=True)
        _check_reals(self, ("eta_x", "eta_theta", "eta_shadow_min", "eta_shadow_max"))
        _check_counts(self, ("inner_iters", "outer_iters", "batch_traj", "batch_ul", "horizon",
                             "eval_cadence"))
        _check_counts(self, ("seed",) if self.env_step_budget is None
                      else ("seed", "env_step_budget"), least=0)


@dataclass(frozen=True)
class OracleOptions:
    """Settings of `run_oracle`'s inner loop, checked on construction.

    The loop stops once a policy step moves no logit by more than
    `inner_tol` (a finite real >= 0) or after `inner_cap` iterations (an
    integer >= 1); `br_tol` (a finite real > 0) is the best-response
    solver's tolerance.
    """

    inner_tol: float = 1e-8
    inner_cap: int = 500
    br_tol: float = 1e-10

    def __post_init__(self):
        _check_counts(self, ("inner_cap",))
        _check_reals(self, ("inner_tol",))
        _check_reals(self, ("br_tol",), positive=True)


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


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def init_state(env: EnvBundle) -> OptimizerState:
    """Uniform policies, incentives at the environment's initial point.

    The shadows start as the policy objects themselves: a step replaces a
    policy and never writes into one, so nothing is copied.
    """
    g = env.game
    pmin = TabularPolicy.uniform(g.n_states, g.n_actions_min)
    pmax = TabularPolicy.uniform(g.n_states, g.n_actions_max)
    return OptimizerState(
        x=env.model.incentive_params.copy(),
        policy_min=pmin, policy_max=pmax,
        shadow_min=pmin, shadow_max=pmax,
    )


def _step(params, eta, grad, what, inner=None) -> np.ndarray:
    """`params - eta * grad`, which must be finite.

    A non-finite gradient, or a step that overflows, aborts the run here,
    before the parameters are used, so numpy never sees them overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        new = params - eta * grad
    if not np.all(np.isfinite(new)):
        raise NonFiniteGradientError(what, inner)
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
                  cache: _EvalCache | None = None) -> ExactMetrics:
    """Exact f, NI gap, and penalty-gradient norm at the current iterate."""
    model_x = env.model.with_params(state.x)
    cache = cache if cache is not None else _EvalCache()
    ni = ni_gradients(env.game, model_x, state.policy_min, state.policy_max,
                      tol=1e-9, v0_min=cache.v_min, v0_max=cache.v_max)
    cache.v_min, cache.v_max = ni.v_min, ni.v_max
    f_val = env.ul.value_exact(model_x, state.policy_min, state.policy_max)
    f_gmin, f_gmax = env.ul.grad_policies_exact(model_x, state.policy_min, state.policy_max)
    f_gx = env.ul.grad_x_exact(model_x, state.policy_min, state.policy_max)
    parts = (f_gx + lam * ni.grad_x,
             f_gmin + lam * ni.grad_min,
             f_gmax + lam * ni.grad_max)
    norm = float(np.sqrt(sum(float(np.sum(p * p)) for p in parts)))
    return ExactMetrics(ul_objective=float(f_val), ni_gap=float(ni.gap), grad_norm=norm)


def _step_policies(state, cfg, gmin, gmax, inner) -> None:
    """Descend the policy pair's logits along (gmin, gmax) with step `eta_theta`."""
    state.policy_min = TabularPolicy(_step(state.policy_min.logits, cfg.eta_theta, gmin,
                                           "min-policy", inner))
    state.policy_max = TabularPolicy(_step(state.policy_max.logits, cfg.eta_theta, gmax,
                                           "max-policy", inner))


def _metrics_loop(env, cfg, state, step_fn) -> RunResult:
    """Drive `step_fn` for up to `outer_iters` iterations, recording metrics.

    `step_fn(t)` performs one full outer iteration, mutating `state`.  Exact
    metrics are computed before the first iteration, on the eval cadence
    and at the last recorded row (whether reached by iteration count or by
    the env-step budget); other rows repeat the previous values so every row
    is populated.  A `RUN_ABORTS` error raised in a step or an evaluation
    aborts the run, carrying the rows recorded so far as its `partial`
    result, the outer iteration it happened in as `outer`, and its `phase`:
    "step", "exact evaluation" after that iteration's step, or "initial exact
    evaluation" (outer 0) before any step.
    """
    cache = _EvalCache()
    records: list[RunRecord] = []
    outer, phase = 0, "initial exact evaluation"
    try:
        metrics = exact_metrics(env, state, cfg.lam, cache)
        for t in range(cfg.outer_iters):
            outer, phase = t, "step"
            t0 = time.perf_counter()
            step_fn(t)
            wall = (time.perf_counter() - t0) * 1e3
            out_of_budget = (cfg.env_step_budget is not None
                             and state.env_steps >= cfg.env_step_budget)
            last = out_of_budget or t + 1 == cfg.outer_iters
            if (t + 1) % cfg.eval_cadence == 0 or last:
                phase = "exact evaluation"
                metrics = exact_metrics(env, state, cfg.lam, cache)
            records.append(RunRecord(
                outer_iter=t + 1, env_steps=state.env_steps,
                ul_objective=metrics.ul_objective, ni_gap=metrics.ni_gap,
                grad_norm=metrics.grad_norm, wall_ms=wall))
            if out_of_budget:
                break
    except RUN_ABORTS as e:
        # completed iterations survive as a partial result for callers
        # that want to persist what the run managed before aborting
        e.partial = RunResult(records=records, state=state)
        e.outer, e.phase = outer, phase
        raise
    return RunResult(records=records, state=state)


# --------------------------------------------------------------------------
# Gradient sources.  Each answers `j_grads` (J's gradients for one update
# phase: a list of requests (policy_min, policy_max, side, purpose), each
# asking for one block, "x", "min" or "max", at a policy pair, all at one
# (outer, inner)), `ul_policies` and `ul_x` (the upper-level objective's
# gradients), each returning gradients only.
# --------------------------------------------------------------------------

class _Sampled:
    """Policy-gradient estimates, each from a fresh trajectory batch; the
    requests of one phase are drawn and estimated as one stacked batch.
    Every environment step drawn is added to `state.env_steps` at once."""

    def __init__(self, env: EnvBundle, cfg: PandaConfig, state: OptimizerState):
        self.env, self.cfg, self.state, self.stream = env, cfg, state, RngStream(cfg.seed)

    def j_grads(self, model_x, requests, outer, inner):
        game, cfg = self.env.game, self.cfg
        policies_min, policies_max, sides, purposes = zip(*requests)
        batch = sample_batch(game, model_x, policies_min, policies_max, cfg.batch_traj,
                             cfg.horizon, self.stream, purposes, outer, inner)
        self.state.env_steps += n_env_steps(batch)
        return estimate_gradients(game, model_x, policies_min, policies_max, batch, sides)

    def ul_policies(self, model_x, policy_min, policy_max, outer, inner):
        gmin, gmax, steps = self.env.ul.grad_policies_estimate(
            model_x, policy_min, policy_max, self.cfg.batch_ul, self.stream,
            purpose=PURPOSE_UL_POLICY, outer=outer, inner=inner)
        self.state.env_steps += steps
        return gmin, gmax

    def ul_x(self, model_x, policy_min, policy_max, outer):
        gx, steps = self.env.ul.grad_x_estimate(model_x, policy_min, policy_max,
                                                self.cfg.batch_ul, self.stream,
                                                purpose=PURPOSE_UL_X, outer=outer)
        self.state.env_steps += steps
        return gx


class _Exact:
    """Exact gradients; no environment steps."""

    def __init__(self, env: EnvBundle):
        self.env = env

    def j_grads(self, model_x, requests, outer, inner):
        game = self.env.game
        return [exact_grad_x(game, model_x, pmin, pmax) if side == "x"
                else exact_grad_policy(game, model_x, pmin, pmax, side)
                for pmin, pmax, side, _ in requests]

    def ul_policies(self, model_x, policy_min, policy_max, outer, inner):
        return self.env.ul.grad_policies_exact(model_x, policy_min, policy_max)

    def ul_x(self, model_x, policy_min, policy_max, outer):
        return self.env.ul.grad_x_exact(model_x, policy_min, policy_max)


# --------------------------------------------------------------------------
# The update rule
# --------------------------------------------------------------------------

def _penalty_step(src, cfg, state, model_x, shadow_min, shadow_max, f_scale, pen_scale, t, k):
    """Step the policy pair on f_scale * f + pen_scale * surrogate gap.

    The gap gradients are J's policy gradients against the given shadows
    (policies or probability arrays).  The two weightings in use are
    (1/lam, 1) -- the penalized loss rescaled by lam, the default -- and
    (1, lam), the penalized loss itself.  Returns the step's gradients.
    """
    f_gmin, f_gmax = src.ul_policies(model_x, state.policy_min, state.policy_max, t, k)
    pen_min, pen_max = src.j_grads(
        model_x, [(state.policy_min, shadow_max, "min", PURPOSE_PENALTY_MIN),
                  (shadow_min, state.policy_max, "max", PURPOSE_PENALTY_MAX)], t, k)
    gmin = f_scale * f_gmin + pen_scale * pen_min
    gmax = f_scale * f_gmax - pen_scale * pen_max
    _step_policies(state, cfg, gmin, gmax, k)
    return gmin, gmax


def _incentive_step(src, cfg, state, model_x, shadow_min, shadow_max, t):
    """Outer update of x along f's gradient plus lam times the surrogate gap's."""
    g_main, g_shadow = src.j_grads(
        model_x, [(state.policy_min, shadow_max, "x", PURPOSE_OUTER_X_MAIN),
                  (shadow_min, state.policy_max, "x", PURPOSE_OUTER_X_SHADOW)], t, 0)
    f_gx = src.ul_x(model_x, state.policy_min, state.policy_max, t)
    state.x = _step(state.x, cfg.eta_x, f_gx + cfg.lam * (g_main - g_shadow), "incentive")


def _shadow_inner_step(src, cfg, state, model_x, f_scale, pen_scale, t, k):
    """One inner iteration of the sampled penalty methods.

    Each shadow first takes one gradient step toward its best response; the
    policy pair then takes the penalty step against the advanced shadows.
    """
    u, v = src.j_grads(
        model_x, [(state.shadow_min, state.policy_max, "min", PURPOSE_SHADOW_MIN),
                  (state.policy_min, state.shadow_max, "max", PURPOSE_SHADOW_MAX)], t, k)
    shadow_min = TabularPolicy(_step(state.shadow_min.logits, cfg.eta_shadow_min, u,
                                     "min-shadow", k))
    shadow_max = TabularPolicy(_step(state.shadow_max.logits, cfg.eta_shadow_max, -v,
                                     "max-shadow", k))
    _penalty_step(src, cfg, state, model_x, shadow_min, shadow_max, f_scale, pen_scale, t, k)
    state.shadow_min, state.shadow_max = shadow_min, shadow_max


def _shadow_run(env, cfg, reset, f_scale, pen_scale) -> RunResult:
    """Sampled penalty method; with `reset` the shadows restart from the policy
    pair at every outer iteration (as the policy objects themselves, which no
    step writes into), otherwise they carry over."""
    state = init_state(env)
    src = _Sampled(env, cfg, state)

    def step(t):
        model_x = env.model.with_params(state.x)
        if reset:
            state.shadow_min, state.shadow_max = state.policy_min, state.policy_max
        for k in range(cfg.inner_iters):
            _shadow_inner_step(src, cfg, state, model_x, f_scale, pen_scale, t, k)
        _incentive_step(src, cfg, state, model_x, state.shadow_min, state.shadow_max, t)

    return _metrics_loop(env, cfg, state, step)


# --------------------------------------------------------------------------
# Optimizers
# --------------------------------------------------------------------------

def run_panda(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Stochastic penalty method with warm-started best-response shadows.

    The shadow pair survives from one outer iteration to the next, so after
    the incentives move the trackers resume from their previous position
    instead of relearning the responses from scratch.
    """
    return _shadow_run(env, cfg, reset=False, f_scale=1.0 / cfg.lam, pen_scale=1.0)


def run_pbrl(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Penalty baseline whose shadows restart at every outer iteration.

    Joint stochastic gradient descent on the penalized loss f + lam * gap
    itself (not the 1/lam rescaling the warm-started method uses), with the
    best-response trackers re-initialized from the current policy pair before
    each inner loop; with a small inner budget they chronically lag the true
    responses.
    """
    return _shadow_run(env, cfg, reset=True, f_scale=1.0, pen_scale=cfg.lam)


def run_alternating(env: EnvBundle, cfg: PandaConfig) -> RunResult:
    """Descent-ascent on J alone, then an incentive step on f's gradient.

    The policy pair ignores the upper-level objective entirely, so this
    baseline drives the equilibrium gap down but leaves f to whatever the
    incentive gradient alone can reach; with objectives that influence f
    only through the policies, x never moves.
    """
    state = init_state(env)
    src = _Sampled(env, cfg, state)

    def step(t):
        model_x = env.model.with_params(state.x)
        for k in range(cfg.inner_iters):
            pair = (state.policy_min, state.policy_max)
            u, v = src.j_grads(model_x, [(*pair, "min", PURPOSE_SHADOW_MIN),
                                         (*pair, "max", PURPOSE_SHADOW_MAX)], t, k)
            _step_policies(state, cfg, u, -v, k)
        f_gx = src.ul_x(model_x, state.policy_min, state.policy_max, t)
        state.x = _step(state.x, cfg.eta_x, f_gx, "incentive")

    return _metrics_loop(env, cfg, state, step)


def run_oracle(env: EnvBundle, cfg: PandaConfig, **options) -> RunResult:
    """Deterministic reference: the `panda` update on exact gradients and best responses.

    The shadows are the exact soft best responses at the current policies
    (so the surrogate gap is the true gap), and the inner loop runs until a
    policy step moves no logit by more than `inner_tol` or `inner_cap`
    iterations elapse.  `options` are the `OracleOptions` fields, checked
    before any work.  No trajectories are sampled; env_steps stays zero.
    """
    opts = OracleOptions(**options)
    state = init_state(env)
    src = _Exact(env)
    ws = _EvalCache()

    def responses(model_x):
        bmax = best_response(env.game, model_x, state.policy_min, "max",
                             tol=opts.br_tol, v0=ws.v_max)
        bmin = best_response(env.game, model_x, state.policy_max, "min",
                             tol=opts.br_tol, v0=ws.v_min)
        ws.v_min, ws.v_max = bmin.soft_v, bmax.soft_v
        return bmin.policy, bmax.policy

    def step(t):
        model_x = env.model.with_params(state.x)
        for k in range(opts.inner_cap):
            gmin, gmax = _penalty_step(src, cfg, state, model_x, *responses(model_x),
                                       1.0 / cfg.lam, 1.0, t, k)
            step_size = max(cfg.eta_theta * np.abs(gmin).max(),
                            cfg.eta_theta * np.abs(gmax).max())
            if step_size <= opts.inner_tol:
                break
        br_min, br_max = responses(model_x)
        state.shadow_min = TabularPolicy(np.log(np.maximum(br_min, 1e-300)))
        state.shadow_max = TabularPolicy(np.log(np.maximum(br_max, 1e-300)))
        _incentive_step(src, cfg, state, model_x, br_min, br_max, t)

    return _metrics_loop(env, cfg, state, step)


OPTIMIZERS = {
    "panda": run_panda,
    "pbrl": run_pbrl,
    "alternating": run_alternating,
    "oracle": run_oracle,
}
