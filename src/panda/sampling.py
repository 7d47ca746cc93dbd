"""Trajectory sampling and score-function gradient estimators.

Sampling is organized around counter-based RNG: every trajectory gets its own
Philox stream derived from (seed, purpose, outer, inner, trajectory index),
so a trajectory's contents depend only on those coordinates and never on how
many draws other trajectories consumed.  Rollouts record (s, a, b, r) per
step and stop once the next state is absorbing, so absorbing states are
visited at most once (only when the initial draw lands on one, in which case
a single zero-reward step is recorded).  A batch is stepped together, one
vectorized pass per time step, each trajectory reading only its own
pre-drawn uniforms, so the trajectories are those a one-at-a-time walk on
the same streams would give.

All policy-gradient estimates go through one REINFORCE loop, `reinforce`,
which weights each step's score by the discounted reward-to-go of whatever
per-step rewards it is given.  For the entropy-regularized game value those
are the regularized rewards (environment reward plus tau-weighted
log-probabilities of the executed actions); the environments feed it their
upper-level rewards.  The reward-parameter gradient accumulates discounted
derivative mass on the visited (s, a, b) triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (MarkovGame, RewardModel, TabularPolicy, effective_reward,
                   effective_reward_grad_x, probs)

__all__ = [
    "RngStream",
    "Trajectory",
    "GradEstimate",
    "rollout",
    "sample_batch",
    "estimate_grad_x",
    "estimate_grad_policy",
    "estimate_gradients",
    "reinforce",
    "n_env_steps",
]

_KEY_SALT = 0x9E3779B97F4A7C15  # second Philox key word, fixed arbitrary constant


@dataclass(frozen=True)
class RngStream:
    """Factory for per-trajectory Philox generators.

    `generator(purpose, outer, inner, traj)` places the four coordinates in
    the upper Philox counter words (word 0 stays free for block advancement),
    so distinct coordinates can never overlap streams.
    """

    seed: int

    def generator(self, purpose: int = 0, outer: int = 0, inner: int = 0,
                  traj: int = 0) -> np.random.Generator:
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, _KEY_SALT]
        counter = [0, traj, inner, (purpose << 48) | outer]
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    def uniforms(self, purpose: int, outer: int, inner: int, batch: int,
                 n: int) -> np.ndarray:
        """(batch, n) uniforms; row i equals `generator(purpose, outer, inner, i).random(n)`.

        One generator is built and its Philox state reset per row, which is
        cheaper than building a generator per trajectory.
        """
        gen = self.generator(purpose, outer, inner, 0)
        state = gen.bit_generator.state
        out = np.empty((batch, n))
        for i in range(batch):
            state["state"]["counter"][1] = i
            gen.bit_generator.state = state
            gen.random(out=out[i])
        return out


@dataclass
class Trajectory:
    states: np.ndarray
    actions_min: np.ndarray
    actions_max: np.ndarray
    rewards: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


def _cumulative(game: MarkovGame):
    cache = game._cum_cache
    if "p" not in cache:
        cache["p"] = np.cumsum(game.transition, axis=-1)
        cache["rho"] = np.cumsum(game.init_dist)
    return cache["p"], cache["rho"]


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by uniforms `u` from cumulative rows `cum`.

    `cum` is one row per entry of `u`, or a single row shared by all.  The
    index is the number of cumulative values <= u (searchsorted with
    side="right"), capped at the last one against rounding in the row sums.
    """
    return np.minimum((cum <= u[:, None]).sum(axis=-1), cum.shape[-1] - 1)


def rollout(game: MarkovGame, model: RewardModel, policy_min, policy_max,
            horizon: int, rng: np.random.Generator) -> Trajectory:
    """Sample one trajectory of at most `horizon` recorded steps."""
    r_eff = effective_reward(game, model)
    return _rollout_batch(game, r_eff, np.cumsum(probs(policy_min), axis=1),
                          np.cumsum(probs(policy_max), axis=1), horizon,
                          rng.random(1 + 3 * horizon)[None])[0]


def _rollout_batch(game, r_eff, cum_y, cum_z, horizon, us) -> list[Trajectory]:
    """Step all trajectories of a batch together.

    Row i of `us` holds trajectory i's uniforms: the initial state, then
    (min action, max action, next state) per step.  Trajectories drop out of
    the batch once they enter an absorbing state.
    """
    cum_p, cum_rho = _cumulative(game)
    n = len(us)
    states = np.zeros((n, horizon), dtype=np.intp)
    amin = np.zeros_like(states)
    amax = np.zeros_like(states)
    rewards = np.zeros((n, horizon))
    lengths = np.full(n, horizon)
    live = np.arange(n)
    s = _pick(cum_rho, us[:, 0])
    for t in range(horizon):
        if live.size == 0:
            break
        k = 1 + 3 * t
        a = _pick(cum_y[s], us[live, k])
        b = _pick(cum_z[s], us[live, k + 1])
        states[live, t], amin[live, t], amax[live, t] = s, a, b
        rewards[live, t] = r_eff[s, a, b]
        s = _pick(cum_p[s, a, b], us[live, k + 2])
        ended = game.absorbing[s]
        lengths[live[ended]] = t + 1
        live, s = live[~ended], s[~ended]
    return [Trajectory(states[i, :m].copy(), amin[i, :m].copy(), amax[i, :m].copy(),
                       rewards[i, :m].copy())
            for i, m in enumerate(lengths)]


def sample_batch(game: MarkovGame, model: RewardModel, policy_min, policy_max,
                 batch: int, horizon: int, stream: RngStream, purpose: int = 0,
                 outer: int = 0, inner: int = 0) -> list[Trajectory]:
    """Sample `batch` independent trajectories on dedicated per-index streams."""
    r_eff = effective_reward(game, model)
    return _rollout_batch(game, r_eff, np.cumsum(probs(policy_min), axis=1),
                          np.cumsum(probs(policy_max), axis=1), horizon,
                          stream.uniforms(purpose, outer, inner, batch, 1 + 3 * horizon))


def n_env_steps(trajs) -> int:
    return int(sum(len(t) for t in trajs))


def _padded(rows, dtype=float):
    """Stack 1-D arrays row-wise, zero-padded to the longest; returns (array, mask)."""
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = np.zeros(mask.shape, dtype=dtype)
    if len(rows):
        out[mask] = np.concatenate(rows)
    return out, mask


def _reg_rewards(game: MarkovGame, lp_y, lp_z, trajs) -> np.ndarray:
    """Padded per-step regularized rewards r + tau_min*log y - tau_max*log z, masked."""
    s, mask = _padded([t.states for t in trajs], np.intp)
    a, _ = _padded([t.actions_min for t in trajs], np.intp)
    b, _ = _padded([t.actions_max for t in trajs], np.intp)
    r, _ = _padded([t.rewards for t in trajs])
    u = r + game.tau_min * lp_y[s, a] - game.tau_max * lp_z[s, b]
    u[game.absorbing[s] | ~mask] = 0.0
    return u


def reinforce(trajs, step_rewards, probs, side: str, gamma: float) -> np.ndarray:
    """Batch-mean REINFORCE gradient sum_t gamma^t score_t * reward-to-go_t.

    `step_rewards[i]` holds the per-step rewards of `trajs[i]` (a list of
    arrays, or an array zero-padded past each trajectory's end); `probs`
    (S, K) is the acting player's policy on `side` ("min" or "max"), whose
    softmax logits the gradient is taken in.  The whole batch is processed
    at once; the gradient entries are accumulated trajectory by trajectory
    in step order, as a per-trajectory loop would.
    """
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    s, mask = _padded([t.states for t in trajs], np.intp)
    acts, _ = _padded([t.actions_min if side == "min" else t.actions_max for t in trajs],
                      np.intp)
    u = step_rewards if isinstance(step_rewards, np.ndarray) else _padded(step_rewards)[0]
    n, h = s.shape
    k = probs.shape[1]
    g = np.zeros((n, h))
    acc = np.zeros(n)
    for t in range(h - 1, -1, -1):
        acc = u[:, t] + gamma * acc
        g[:, t] = acc
    w = g * gamma ** np.arange(h)
    # per trajectory: its chosen-action entries, then its -w*pi rows
    idx = np.concatenate([s * k + acts, (s[:, :, None] * k + np.arange(k)).reshape(n, -1)],
                         axis=1)
    val = np.concatenate([w, (-w[:, :, None] * probs[s]).reshape(n, -1)], axis=1)
    sel = np.concatenate([mask, np.repeat(mask, k, axis=1)], axis=1)
    grad = np.zeros(probs.size)
    np.add.at(grad, idx[sel], val[sel])
    return grad.reshape(probs.shape) / len(trajs)


def estimate_grad_policy(game: MarkovGame, policy_min: TabularPolicy,
                         policy_max: TabularPolicy, trajs, side: str) -> np.ndarray:
    """Batch-mean REINFORCE gradient of J in one player's logits."""
    lp_y = policy_min.log_probs_all()
    lp_z = policy_max.log_probs_all()
    return reinforce(trajs, _reg_rewards(game, lp_y, lp_z, trajs),
                     np.exp(lp_y if side == "min" else lp_z), side, game.discount)


def estimate_grad_x(game: MarkovGame, model: RewardModel, trajs) -> np.ndarray:
    """Batch-mean gradient of J in the incentive parameters."""
    gx = effective_reward_grad_x(game, model)
    s, mask = _padded([t.states for t in trajs], np.intp)
    a, _ = _padded([t.actions_min for t in trajs], np.intp)
    b, _ = _padded([t.actions_max for t in trajs], np.intp)
    w = gx[s, a, b] * game.discount ** np.arange(s.shape[1])
    grad = np.zeros(gx.size)
    np.add.at(grad, np.ravel_multi_index((s, a, b), gx.shape)[mask], w[mask])
    return grad.reshape(gx.shape) / len(trajs)


@dataclass
class GradEstimate:
    grad_x: np.ndarray | None
    grad_min: np.ndarray | None
    grad_max: np.ndarray | None
    n_env_steps: int


def estimate_gradients(game: MarkovGame, model: RewardModel, policy_min: TabularPolicy,
                       policy_max: TabularPolicy, trajs,
                       want=("x", "min", "max")) -> GradEstimate:
    return GradEstimate(
        grad_x=estimate_grad_x(game, model, trajs) if "x" in want else None,
        grad_min=estimate_grad_policy(game, policy_min, policy_max, trajs, "min") if "min" in want else None,
        grad_max=estimate_grad_policy(game, policy_min, policy_max, trajs, "max") if "max" in want else None,
        n_env_steps=n_env_steps(trajs),
    )
