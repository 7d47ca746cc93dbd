"""Property-check suites shared by the CLI and the acceptance tests.

Each suite returns a list of `CheckResult`s.  A result's `residual` is the
worst observed violation statistic for that property across all seeded
instances; the property holds when `residual <= tol`.  Randomness is fully
seeded so the suites are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import (
    bellman_policy_operator,
    best_response,
    exact_grad_policy,
    exact_grad_x,
    exact_grads_truncated,
    j_value,
    ni_gradients,
    pl_constant,
    policy_eval,
    soft_bellman_optimality,
    solve_ne,
)
from .game import MarkovGame, RewardModel, TabularPolicy
from .sampling import RngStream, estimate_gradients, sample_batch


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _random_instance(rng: np.random.Generator, n_states, na, nb, gamma,
                     tau_min=0.1, tau_max=0.1, scale=1.0):
    p = rng.uniform(0.05, 1.0, size=(n_states, na, nb, n_states))
    p /= p.sum(axis=-1, keepdims=True)
    rho = rng.uniform(0.2, 1.0, size=n_states)
    rho /= rho.sum()
    game = MarkovGame(p, rho, np.zeros(n_states, dtype=bool), gamma,
                      tau_min, tau_max)
    model = RewardModel(rng.uniform(0.0, 1.0, size=(n_states, na, nb)),
                        rng.normal(size=(n_states, na, nb)), scale)
    return game, model


def _random_pols(rng, n_states, na, nb, spread=1.0):
    return (TabularPolicy(spread * rng.normal(size=(n_states, na))),
            TabularPolicy(spread * rng.normal(size=(n_states, nb))))


# --------------------------------------------------------------------------
# Operator suite
# --------------------------------------------------------------------------

def operator_suite() -> list[CheckResult]:
    """Contraction, monotonicity, and constant-shift identities of both
    Bellman operators on 50 seeded (game, value-vector) instances."""
    rng = np.random.default_rng(0)
    worst = {}
    for _ in range(50):
        n, na, nb = rng.integers(2, 6), rng.integers(2, 4), rng.integers(2, 4)
        gamma = rng.uniform(0.5, 0.99)
        game, model = _random_instance(rng, n, na, nb, gamma)
        pmin, pmax = _random_pols(rng, n, na, nb)
        v1 = rng.normal(scale=3.0, size=n)
        v2 = rng.normal(scale=3.0, size=n)
        c = float(rng.uniform(0.5, 4.0))
        dv = np.abs(v1 - v2).max()
        operators = {"policy": lambda v: bellman_policy_operator(game, model, pmin, pmax, v),
                     "optimality": lambda v: soft_bellman_optimality(game, model, v)[0]}
        for op, apply in operators.items():
            t1, t2, t_hi, t_c = map(apply, (v1, v2, np.maximum(v1, v2), v1 + c))
            for prop, violation in (("contraction", np.abs(t1 - t2).max() - gamma * dv),
                                    ("monotonicity", (t1 - t_hi).max()),
                                    ("shift", np.abs(t_c - (t1 + gamma * c)).max())):
                key = f"{op}-{prop}"
                worst[key] = max(worst.get(key, 0.0), violation)
    return [CheckResult(k, float(v), 1e-10) for k, v in worst.items()]


# --------------------------------------------------------------------------
# Equilibrium suite
# --------------------------------------------------------------------------

def equilibrium_suite() -> list[CheckResult]:
    """solve_ne on 20 seeded games: residual scale, gap at the NE, saddle
    inequalities against random deviations, and minmax = maxmin."""
    rng = np.random.default_rng(1)
    worst_res = worst_gap = worst_saddle = worst_mm = 0.0
    for _ in range(20):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.6, 0.97))
        game, model = _random_instance(rng, n, k, k, gamma,
                                       tau_min=float(rng.uniform(0.05, 0.3)),
                                       tau_max=float(rng.uniform(0.05, 0.3)))
        ne = solve_ne(game, model, tol=1e-9)
        worst_res = max(worst_res,
                        ne.residual / (1e-9 * (1 - gamma) / gamma))

        bmax = best_response(game, model, ne.policy_min, "max", tol=1e-10)
        bmin = best_response(game, model, ne.policy_max, "min", tol=1e-10)
        worst_gap = max(worst_gap, bmax.j_value - bmin.j_value)
        worst_mm = max(worst_mm, abs(bmax.j_value - bmin.j_value))

        v_ne = j_value(game, model, ne.policy_min, ne.policy_max)
        for _ in range(100):
            dev_min, dev_max = _random_pols(rng, n, k, k, spread=2.0)
            # J(y*, z') <= J(y*, z*) <= J(y', z*) up to slack
            lo = j_value(game, model, ne.policy_min, dev_max)
            hi = j_value(game, model, dev_min, ne.policy_max)
            worst_saddle = max(worst_saddle, lo - v_ne, v_ne - hi)
    return [
        CheckResult("ne-bellman-residual-scaled", float(worst_res), 1.0),
        CheckResult("ni-gap-at-ne", float(worst_gap), 1e-6),
        CheckResult("saddle-inequality-slack", float(worst_saddle), 1e-8),
        CheckResult("minmax-equals-maxmin", float(worst_mm), 2e-9),
    ]


# --------------------------------------------------------------------------
# Gradient suite
# --------------------------------------------------------------------------

def _central_difference(f, params, index, eps):
    """(f(params + eps e_index) - f(params - eps e_index)) / (2 eps)."""
    p = params.copy()
    p[index] += eps
    up = f(p)
    p[index] -= 2 * eps
    return (up - f(p)) / (2 * eps)


def gradient_suite() -> list[CheckResult]:
    """Exact policy/incentive gradients of J against central differences (step
    1e-6) at 20 seeded points."""
    rng = np.random.default_rng(2)
    worst = {"grad-min-fd": 0.0, "grad-max-fd": 0.0, "grad-x-fd": 0.0}
    for _ in range(20):
        n, na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.5, 0.97))
        game, model = _random_instance(rng, n, na, nb, gamma)
        pmin, pmax = _random_pols(rng, n, na, nb)
        # (name, exact gradient, J as a function of the block, the block's values)
        blocks = (
            ("grad-min-fd", exact_grad_policy(game, model, pmin, pmax, "min"),
             lambda lp: j_value(game, model, TabularPolicy(lp), pmax), pmin.logits),
            ("grad-max-fd", exact_grad_policy(game, model, pmin, pmax, "max"),
             lambda lp: j_value(game, model, pmin, TabularPolicy(lp)), pmax.logits),
            ("grad-x-fd", exact_grad_x(game, model, pmin, pmax),
             lambda xp: j_value(game, model.with_params(xp), pmin, pmax), model.incentive_params),
        )
        for name, grad, f, params in blocks:
            for _ in range(4):
                index = tuple(int(rng.integers(k)) for k in params.shape)
                fd = _central_difference(f, params, index, 1e-6)
                worst[name] = max(worst[name], abs(fd - grad[index]) / (1.0 + abs(fd)))
    return [CheckResult(k, float(v), 1e-5) for k, v in worst.items()]


# --------------------------------------------------------------------------
# Estimator suite
# --------------------------------------------------------------------------

def estimator_suite() -> list[CheckResult]:
    """Sampling-based gradient estimators: unbiasedness against truncated
    exact gradients (z-scores), 1/B variance scaling, and the horizon-
    truncation bias decay rate."""
    rng = np.random.default_rng(3)
    game, model = _random_instance(rng, 3, 2, 2, gamma=0.9)
    pmin, pmax = _random_pols(rng, 3, 2, 2, spread=0.5)
    horizon = 20
    stream = RngStream(101)

    # (a) unbiasedness: batch means over 100,000 trajectories
    batch = 50
    reps = 100_000 // batch
    sums = {}
    sq_sums = {}
    for rep in range(reps):
        trajs = sample_batch(game, model, [pmin], [pmax], batch, horizon, stream,
                             [0], outer=rep)
        for key in ("min", "max", "x"):
            flat = estimate_gradients(game, model, [pmin], [pmax], trajs, [key])[0].ravel()
            sums[key] = sums.get(key, 0.0) + flat
            sq_sums[key] = sq_sums.get(key, 0.0) + flat * flat
    exact = dict(zip(("min", "max", "x"),
                     exact_grads_truncated(game, model, pmin, pmax, horizon)))
    worst_z = 0.0
    for key in ("min", "max", "x"):
        mean = sums[key] / reps
        var = (sq_sums[key] / reps - mean * mean) * reps / (reps - 1)
        se = np.sqrt(np.maximum(var, 1e-30) / reps)
        z = np.abs(mean - exact[key].ravel()) / (se + 1e-12)
        worst_z = max(worst_z, float(z.max()))

    # (b) variance scaling: Var[batch mean] ~ 1/B on a fixed projection
    proj = rng.normal(size=pmin.logits.size)
    proj /= np.linalg.norm(proj)
    scaled = {}
    for b_idx, b in enumerate((4, 16, 64)):
        vals = np.empty(10_000)
        for rep in range(10_000):
            trajs = sample_batch(game, model, [pmin], [pmax], b, 10, stream,
                                 [10 + b_idx], outer=rep)
            g, = estimate_gradients(game, model, [pmin], [pmax], trajs, ["min"])
            vals[rep] = proj @ g.ravel()
        scaled[b] = b * vals.var(ddof=1)
    ratios = [scaled[4] / scaled[16], scaled[16] / scaled[64],
              scaled[4] / scaled[64]]
    worst_ratio = max(max(r, 1.0 / r) for r in ratios)

    # (c) truncation bias between H and H+10 decays like gamma^10
    h0 = 8
    full_min = exact_grad_policy(game, model, pmin, pmax, "min")
    full_x = exact_grad_x(game, model, pmin, pmax)
    truncated = [exact_grads_truncated(game, model, pmin, pmax, h) for h in (h0, h0 + 10)]
    bias = [np.linalg.norm(gmin - full_min) + np.linalg.norm(gx - full_x)
            for gmin, _, gx in truncated]
    decay = bias[1] / bias[0]
    target = game.discount ** 10
    worst_decay = max(decay / target, target / decay)

    return [
        CheckResult("estimator-unbiased-zmax", worst_z, 4.0),
        CheckResult("estimator-variance-1-over-b", float(worst_ratio), 1.25),
        CheckResult("truncation-bias-decay-factor", float(worst_decay), 3.0),
    ]


# --------------------------------------------------------------------------
# PL suite
# --------------------------------------------------------------------------

def pl_suite() -> list[CheckResult]:
    """Non-uniform gradient-dominance inequalities at 50 seeded points.

    For the gap: 0.5*||grad g||^2 >= mu * g - 1e-9 with the visitation- and
    policy-dependent modulus `pl_constant`.  The same modulus bounds the
    value function's suboptimality for the min player at fixed opponent:
    0.5*||grad_y J||^2 >= mu * (J - min_y J).
    """
    rng = np.random.default_rng(4)
    worst_gap = worst_j = -np.inf
    for _ in range(50):
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.5, 0.95))
        game, model = _random_instance(rng, n, k, k, gamma,
                                       tau_min=float(rng.uniform(0.05, 0.2)),
                                       tau_max=float(rng.uniform(0.05, 0.2)))
        x = rng.normal(scale=0.5, size=model.incentive_params.shape)
        model = model.with_params(x)
        pmin, pmax = _random_pols(rng, n, k, k)
        mu = pl_constant(game, pmin, pmax)

        ni = ni_gradients(game, model, pmin, pmax, tol=1e-10)
        sq = 0.5 * (float(np.sum(ni.grad_min ** 2))
                    + float(np.sum(ni.grad_max ** 2)))
        worst_gap = max(worst_gap, mu * ni.gap - 1e-9 - sq)

        j = j_value(game, model, pmin, pmax)
        j2 = best_response(game, model, pmax, "min", tol=1e-10).j_value
        gmin = exact_grad_policy(game, model, pmin, pmax, "min")
        worst_j = max(worst_j, mu * (j - j2) - 1e-9
                      - 0.5 * float(np.sum(gmin ** 2)))
    return [
        CheckResult("pl-gap-inequality", float(worst_gap), 0.0),
        CheckResult("pl-value-inequality", float(worst_j), 0.0),
    ]


SUITES = {
    "operators": operator_suite,
    "equilibrium": equilibrium_suite,
    "gradients": gradient_suite,
    "estimators": estimator_suite,
    "pl": pl_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out: list[CheckResult] = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
