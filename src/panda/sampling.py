"""Batched trajectory sampling and score-function gradient estimators.

Sampling is organized around counter-based RNG: every trajectory gets its own
Philox stream derived from (seed, purpose, outer, inner, trajectory index),
so a trajectory's contents depend only on those coordinates and never on how
many draws other trajectories consumed.  Rollouts record (s, a, b, r) per
step and stop once the next state is absorbing, so absorbing states are
visited at most once (only when the initial draw lands on one, in which case
a single zero-reward step is recorded).  A batch is stepped together, one
vectorized pass per time step, each trajectory reading only its own
pre-drawn uniforms, so the trajectories are those a one-at-a-time walk on
the same streams would give.  A batch is returned as one `TrajBatch`:
(B, H) arrays zero-padded past each trajectory's length, which every
estimator reads as they are.

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

from .game import (MarkovGame, RewardModel, TabularPolicy, _is_int, effective_reward,
                   effective_reward_grad_x, probs)

__all__ = [
    "RngStream",
    "TrajBatch",
    "sample_batch",
    "estimate_gradients",
    "reinforce",
    "n_env_steps",
]

_KEY_SALT = 0x9E3779B97F4A8000  # second Philox key word: 0x9E3779B97F4A7C15 rounded to float64


@dataclass(frozen=True)
class RngStream:
    """Factory for per-trajectory Philox generators.

    `generator(purpose, outer, inner, traj)` places the four coordinates in
    the upper Philox counter words (word 0 stays free for block advancement),
    so distinct coordinates can never overlap streams.  The seed, an integer
    in [0, 2**64), is the first key word.
    """

    seed: int

    def __post_init__(self):
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    def generator(self, purpose: int = 0, outer: int = 0, inner: int = 0,
                  traj: int = 0) -> np.random.Generator:
        key = np.array([self.seed, _KEY_SALT], dtype=np.uint64)
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


@dataclass(frozen=True)
class TrajBatch:
    """A batch of trajectories as (B, H) arrays, H the rollout horizon.

    Row i holds trajectory i's first `lengths[i]` steps.  The columns past
    its length hold state 0, actions 0 and reward 0, so a step quantity
    derived from the states must be masked with `mask`.
    """

    states: np.ndarray
    actions_min: np.ndarray
    actions_max: np.ndarray
    rewards: np.ndarray
    lengths: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        """(B, H) bool, True on each trajectory's recorded steps."""
        return np.arange(self.states.shape[1]) < self.lengths[:, None]

    def __len__(self) -> int:
        return len(self.lengths)


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums of probability rows along the last axis, each row's last entry +inf."""
    cum = np.cumsum(p, axis=-1)
    cum[..., -1] = np.inf
    return cum


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by uniforms `u` from rows `cum` of `_cumulative`.

    `cum` is one row per entry of `u`, or a single row shared by all.  The
    rows are nondecreasing, so the first entry > u is at the number of
    entries <= u (searchsorted with side="right"); the +inf ending caps the
    index at the last entry against rounding in the row sums.
    """
    return (cum > u[:, None]).argmax(axis=-1)


def _successors(game: MarkovGame, sab, u) -> np.ndarray:
    """Next states drawn by uniforms `u` over the successor lists of flat (s, a, b) indices.

    A game whose lists hold one successor each needs no draw.
    """
    k = game.succ.shape[3]
    succ = game.succ.reshape(-1, k)
    if k == 1:
        return succ[sab, 0]
    return succ[sab, _pick(_cumulative(game.succ_prob.reshape(-1, k)[sab]), u)]


def _rollout_batch(game, model, policy_min, policy_max, horizon, us) -> TrajBatch:
    """Step all trajectories of a batch together.

    Row i of `us` holds trajectory i's uniforms: the initial state, then
    (min action, max action, next state) per step.  Every row is stepped
    while any trajectory is running; a trajectory ends once it enters an
    absorbing state, and the steps recorded past its end are zeroed at the
    end.
    """
    n = len(us)
    _, na, nb, _ = game.succ.shape
    r_flat = effective_reward(game, model).ravel()
    cum_y, cum_z = _cumulative(probs(policy_min)), _cumulative(probs(policy_max))
    states = np.empty((n, horizon), dtype=np.intp)
    amin = np.empty_like(states)
    amax = np.empty_like(states)
    rewards = np.empty((n, horizon))
    lengths = np.full(n, horizon)
    running = np.ones(n, dtype=bool)
    s = _pick(_cumulative(game.init_dist), us[:, 0])
    for t in range(horizon):
        k = 1 + 3 * t
        a = _pick(cum_y[s], us[:, k])
        b = _pick(cum_z[s], us[:, k + 1])
        states[:, t], amin[:, t], amax[:, t] = s, a, b
        sab = (s * na + a) * nb + b
        rewards[:, t] = r_flat[sab]
        s = _successors(game, sab, us[:, k + 2])
        ended = running & game.absorbing[s]
        lengths[ended] = t + 1
        running &= ~ended
        if not running.any():
            break
    pad = np.arange(horizon) >= lengths[:, None]
    for steps in (states, amin, amax, rewards):
        steps[pad] = 0
    return TrajBatch(states, amin, amax, rewards, lengths)


def sample_batch(game: MarkovGame, model: RewardModel, policy_min, policy_max,
                 batch: int, horizon: int, stream: RngStream, purpose: int = 0,
                 outer: int = 0, inner: int = 0) -> TrajBatch:
    """Sample `batch` independent trajectories on dedicated per-index streams."""
    return _rollout_batch(game, model, policy_min, policy_max, horizon,
                          stream.uniforms(purpose, outer, inner, batch, 1 + 3 * horizon))


def n_env_steps(batch: TrajBatch) -> int:
    return int(batch.lengths.sum())


def _reg_rewards(game: MarkovGame, lp_y, lp_z, batch: TrajBatch) -> np.ndarray:
    """Per-step regularized rewards r + tau_min*log y - tau_max*log z, zero past each length."""
    s, a, b = batch.states, batch.actions_min, batch.actions_max
    u = batch.rewards + game.tau_min * lp_y[s, a] - game.tau_max * lp_z[s, b]
    u[game.absorbing[s] | ~batch.mask] = 0.0
    return u


def reinforce(batch: TrajBatch, step_rewards: np.ndarray, probs, side: str,
              gamma: float) -> np.ndarray:
    """Batch-mean REINFORCE gradient sum_t gamma^t score_t * reward-to-go_t.

    `step_rewards` (B, H) holds the per-step rewards of the batch's
    trajectories and must be zero past each trajectory's length, since the
    reward-to-go sums the whole row; `probs` (S, K) is the acting player's
    policy on `side` ("min" or "max"), whose softmax logits the gradient is
    taken in.  The whole batch is processed at once; the gradient entries
    are accumulated trajectory by trajectory in step order, as a
    per-trajectory loop would.
    """
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    s = batch.states
    acts = batch.actions_min if side == "min" else batch.actions_max
    mask = batch.mask
    n, h = s.shape
    k = probs.shape[1]
    g = np.zeros((n, h))
    acc = np.zeros(n)
    for t in range(h - 1, -1, -1):
        acc = step_rewards[:, t] + gamma * acc
        g[:, t] = acc
    w = g * gamma ** np.arange(h)
    # per trajectory: its chosen-action entries, then its -w*pi rows
    idx = np.concatenate([s * k + acts, (s[:, :, None] * k + np.arange(k)).reshape(n, -1)],
                         axis=1)
    val = np.concatenate([w, (-w[:, :, None] * probs[s]).reshape(n, -1)], axis=1)
    sel = np.concatenate([mask, np.repeat(mask, k, axis=1)], axis=1)
    grad = np.zeros(probs.size)
    np.add.at(grad, idx[sel], val[sel])
    return grad.reshape(probs.shape) / len(batch)


def estimate_gradients(game: MarkovGame, model: RewardModel, policy_min: TabularPolicy,
                       policy_max: TabularPolicy, batch: TrajBatch, side: str) -> np.ndarray:
    """Batch-mean gradient of J in one block: "x" (incentives), "min" or "max" (logits)."""
    if side == "x":
        gx = effective_reward_grad_x(game, model)
        s, a, b = batch.states, batch.actions_min, batch.actions_max
        mask = batch.mask
        w = gx[s, a, b] * game.discount ** np.arange(s.shape[1])
        grad = np.zeros(gx.size)
        np.add.at(grad, np.ravel_multi_index((s, a, b), gx.shape)[mask], w[mask])
        return grad.reshape(gx.shape) / len(batch)
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'x', 'min' or 'max', got {side!r}")
    lp_y = policy_min.log_probs_all()
    lp_z = policy_max.log_probs_all()
    return reinforce(batch, _reg_rewards(game, lp_y, lp_z, batch),
                     np.exp(lp_y if side == "min" else lp_z), side, game.discount)
