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

An optimizer's update phase asks for several gradients at one (outer,
inner) coordinate, each from its own policy pair and stream purpose.
`sample_batch` and `estimate_gradients` take their requests as equal-length
lists, one entry per request (a single request is a one-entry list), and
treat them as one stacked batch: request p owns rows p*B ... (p+1)*B - 1,
drawn from its own purpose's streams, and reads its policies' tables stacked
as (P*S, K) arrays at row p*S + s.  Each side's tables are built by one
row-wise pass over its requests' stacked logits, which gives each row the
bits a table of its policy alone would.  Its gradient accumulates at its own
offset of one `np.add.at`, in the order a call for that request alone would
use, so a stacked phase gives each request the bits a separate call would.
A game's draw tables are built on its first rollout and kept while it lives.

All policy-gradient estimates go through one REINFORCE loop, `reinforce`,
which weights each step's score by the discounted reward-to-go of whatever
per-step rewards it is given, for a list of players on one batch, one table
and side each.  For the entropy-regularized game value those
are the regularized rewards (environment reward plus tau-weighted
log-probabilities of the executed actions); the environments feed it their
upper-level rewards.  The reward-parameter gradient accumulates discounted
derivative mass on the visited (s, a, b) triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .game import (MarkovGame, RewardModel, _check_side, _cumulative, _is_int,
                   effective_reward, effective_reward_grad_x, log_softmax, softmax)

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
    the upper Philox counter words (word 0 stays free for block advancement):
    traj and inner fill words 1 and 2, purpose and outer share word 3 as
    `(purpose << 48) | outer`.  Each coordinate must be an integer in its
    field, purpose in [0, 2**16), outer in [0, 2**48), inner and traj in
    [0, 2**64), so distinct coordinates can never overlap streams.  The seed,
    an integer in [0, 2**64), is the first key word.
    """

    seed: int
    # one generator, its bit generator and a fresh state of it with every
    # number a Python int, built on the first `uniforms` call
    _rows: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @staticmethod
    def _counter(purpose, outer, inner, traj) -> list[int]:
        for name, v, bits in (("purpose", purpose, 16), ("outer", outer, 48),
                              ("inner", inner, 64), ("traj", traj, 64)):
            if not (_is_int(v) and 0 <= v < 1 << bits):
                raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {v!r}")
        return [0, int(traj), int(inner), int(purpose) << 48 | int(outer)]

    def generator(self, purpose: int = 0, outer: int = 0, inner: int = 0,
                  traj: int = 0) -> np.random.Generator:
        counter = np.array(self._counter(purpose, outer, inner, traj), dtype=np.uint64)
        key = np.array([self.seed, _KEY_SALT], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    def uniforms(self, purpose: int, outer: int, inner: int, batch: int,
                 n: int) -> np.ndarray:
        """(batch, n) uniforms; row i equals `generator(purpose, outer, inner, i).random(n)`.

        The coordinates are checked once per call.  The stream keeps one
        generator and sets its whole Philox state (counter, buffer) per row,
        which is cheaper than building a generator per trajectory or per
        call: building one and reading its state took about 20 us, half of
        it the OS entropy a bit generator draws before its key is replaced.
        The state is a dict whose counter, key and buffer are lists of Python
        ints, so the setter reads plain ints instead of uint64 array items:
        0.5 us per row against 1.2 us from arrays (2-core x86 VM, numpy 2.4).
        A numpy Philox4x64-10 that gives the same bits, one block per row and
        counter, was slower than a generator per call: 682 us against 120 us
        at 16 rows of 10, and 1,063 us against 448 us at 64 rows of 61.
        """
        if not self._rows:
            gen = self.generator()
            state = gen.bit_generator.state
            state["state"] = {k: v.tolist() for k, v in state["state"].items()}
            state["buffer"] = state["buffer"].tolist()
            self._rows.extend((gen, gen.bit_generator, state))
        gen, bits, state = self._rows
        counter = state["state"]["counter"]
        counter[:] = self._counter(purpose, outer, inner, 0)
        out = np.empty((batch, n))
        for i in range(batch):
            counter[1] = i
            bits.state = state
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


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by uniforms `u` from rows `cum` of `_cumulative`.

    `cum` is one row per entry of `u`, or a single row shared by all.  The
    rows are nondecreasing, so the first entry > u is at the number of
    entries <= u (searchsorted with side="right"); the +inf entries cap the
    index against rounding in the row sums.
    """
    return (cum > u[:, None]).argmax(axis=-1)


def _successors(game: MarkovGame):
    """Function drawing next states by uniforms `u` over the successor lists of flat
    (s, a, b) indices `sab`, from the game's cumulative rows (`MarkovGame._draws`).

    A game whose lists hold one successor each needs no draw.
    """
    k = game.succ.shape[3]
    succ = game.succ.reshape(-1, k)
    if k == 1:
        return lambda sab, u: succ[sab, 0]
    cum = game._draws[0]
    return lambda sab, u: succ[sab, _pick(cum[sab], u)]


def _check_requests(**lists) -> int:
    """The common length of the named request lists, each a non-empty list or tuple."""
    for name, v in lists.items():
        if not (isinstance(v, (list, tuple)) and v):
            got = "an empty list" if isinstance(v, (list, tuple)) else type(v).__name__
            raise ValueError(f"{name} must be a non-empty list, one entry per request, got {got}")
    lengths = {len(v) for v in lists.values()}
    if len(lengths) > 1:
        raise ValueError("request lists must have equal lengths: "
                         + ", ".join(f"{name} has {len(v)}" for name, v in lists.items()))
    return lengths.pop()


def _stacked_logits(policies) -> np.ndarray:
    """The policies' (S, K) logits stacked into one (P*S, K) array, request p at rows
    p*S ... (p+1)*S - 1."""
    return np.concatenate([p.logits for p in policies])


@lru_cache(maxsize=64)
def _block_offsets(n: int, n_req: int, size: int) -> np.ndarray:
    """p * size for each of n rows split into n_req equal blocks, p the row's block.

    Request p's (S, K) tables are stacked into (P*S, K) arrays at rows
    p*S ... (p+1)*S - 1, so a row of block p in state s reads row p*S + s.
    The array is shared between calls and read-only.
    """
    offsets = np.repeat(np.arange(n_req) * size, n // n_req)
    offsets.flags.writeable = False
    return offsets


def sample_batch(game: MarkovGame, model: RewardModel, policies_min: list,
                 policies_max: list, batch: int, horizon: int, stream: RngStream,
                 purposes: list, outer: int = 0, inner: int = 0) -> TrajBatch:
    """Sample `batch` independent trajectories per request on dedicated per-index streams.

    `policies_min`, `policies_max` (`TabularPolicy` objects) and `purposes`
    are equal-length lists, one entry per request.  Rows p*batch ...
    (p+1)*batch - 1 hold request p's trajectories, each row the trajectory a
    call for request p alone would give.  Row i's uniforms give its initial
    state, then (min action, max action, next state) per step.  Each side's
    cumulative action rows come from one softmax and one cumulative sum over
    its requests' stacked logits; the game's draw tables are built once per
    game.  Every row is stepped while any trajectory is running; on a game
    with absorbing states a trajectory ends once it enters one, and the steps
    recorded past its end are zeroed at the end.
    """
    _check_requests(policies_min=policies_min, policies_max=policies_max, purposes=purposes)
    us = np.concatenate([stream.uniforms(p, outer, inner, batch, 1 + 3 * horizon)
                         for p in purposes])
    n = len(us)
    n_states, na, nb, _ = game.succ.shape
    r_flat = effective_reward(game, model).ravel()
    cum_y = _cumulative(softmax(_stacked_logits(policies_min)))
    cum_z = _cumulative(softmax(_stacked_logits(policies_max)))
    block = _block_offsets(n, len(policies_min), n_states)
    successors = _successors(game)
    _, support, cum_init, absorbing = game._draws
    states = np.empty((n, horizon), dtype=np.intp)
    amin = np.empty_like(states)
    amax = np.empty_like(states)
    rewards = np.empty((n, horizon))
    lengths = np.full(n, horizon)
    running = np.ones(n, dtype=bool)
    # drawn over the initial support, so no rounding short of 1 starts a row off it
    s = support[_pick(cum_init, us[:, 0])]
    for t in range(horizon):
        k = 1 + 3 * t
        row = block + s
        a = _pick(cum_y[row], us[:, k])
        b = _pick(cum_z[row], us[:, k + 1])
        states[:, t], amin[:, t], amax[:, t] = s, a, b
        sab = (s * na + a) * nb + b
        rewards[:, t] = r_flat[sab]
        s = successors(sab, us[:, k + 2])
        if absorbing:
            ended = running & game.absorbing[s]
            lengths[ended] = t + 1
            running &= ~ended
            if not running.any():
                break
    if absorbing:
        pad = np.arange(horizon) >= lengths[:, None]
        for steps in (states, amin, amax, rewards):
            steps[pad] = 0
    return TrajBatch(states, amin, amax, rewards, lengths)


def n_env_steps(batch: TrajBatch) -> int:
    return int(batch.lengths.sum())


def _discounted_to_go(step_rewards: np.ndarray, gamma: float) -> np.ndarray:
    """gamma^t times the reward-to-go of each step of (n, H) rewards."""
    n, h = step_rewards.shape
    g = np.zeros((n, h))
    acc = np.zeros(n)
    for t in range(h - 1, -1, -1):
        acc = step_rewards[:, t] + gamma * acc
        g[:, t] = acc
    return g * gamma ** np.arange(h)


def _score_sums(s, acts, w, mask, tables) -> list[np.ndarray]:
    """Batch sums of REINFORCE terms w * (e_act - pi(.|s)), one per table, in one `np.add.at`.

    The (n, H) rows are split into one equal block per table (S, K_p), block p
    scored against table p.  The tables are stacked, zero-padded to the widest
    K if their widths differ, into one (P*S, K) array that row i of block p
    reads at `s` = p*S + its state, which is also its accumulator row, so
    accumulator p sits at offset p*S*K.  Each cell's terms are added
    trajectory by trajectory in step order, as a per-trajectory loop would.
    """
    n, h = s.shape
    n_states, k = len(tables[0]), max(t.shape[1] for t in tables)
    if all(t.shape[1] == k for t in tables):
        probs = np.concatenate(tables)
    else:
        probs = np.zeros((len(tables) * n_states, k))
        for p, t in enumerate(tables):
            probs[p * n_states:(p + 1) * n_states, :t.shape[1]] = t
    # per trajectory: its chosen-action entries, then its -w*pi rows
    idx = np.concatenate([s * k + acts, (s[:, :, None] * k + np.arange(k)).reshape(n, -1)],
                         axis=1)
    val = np.concatenate([w, (-w[:, :, None] * probs[s]).reshape(n, -1)], axis=1)
    sel = np.concatenate([mask, np.repeat(mask, k, axis=1)], axis=1)
    grad = np.zeros(probs.size)
    np.add.at(grad, idx[sel], val[sel])
    grad = grad.reshape(len(tables), n_states, k)
    return [g[:, :t.shape[1]] for g, t in zip(grad, tables)]


def reinforce(batch: TrajBatch, step_rewards: np.ndarray, tables: list, sides: list,
              gamma: float) -> list[np.ndarray]:
    """Batch-mean REINFORCE gradients sum_t gamma^t score_t * reward-to-go_t, one per side.

    `step_rewards` (B, H) holds the per-step rewards of the batch's
    trajectories and must be zero past each trajectory's length, since the
    reward-to-go sums the whole row.  `tables` and `sides` are equal-length
    lists, one entry per player whose gradient the batch estimates: table
    (S, K) is the policy of the player on its side ("min" or "max"), whose
    softmax logits the gradient is taken in.  The whole batch is processed
    at once; the gradient entries are accumulated trajectory by trajectory
    in step order, as a per-trajectory loop would.
    """
    _check_requests(tables=tables, sides=sides)
    for sd in sides:
        _check_side(sd)
    # one copy of the batch's rows per side, scored against that side's table
    states, w, mask = (np.concatenate([rows] * len(sides)) for rows in
                       (batch.states, _discounted_to_go(step_rewards, gamma), batch.mask))
    acts = np.concatenate([batch.actions_min if sd == "min" else batch.actions_max
                           for sd in sides])
    rows = states + _block_offsets(len(states), len(sides), len(tables[0]))[:, None]
    return [g / len(batch) for g in _score_sums(rows, acts, w, mask, tables)]


def estimate_gradients(game: MarkovGame, model: RewardModel, policies_min: list,
                       policies_max: list, batch: TrajBatch, sides: list) -> list[np.ndarray]:
    """Batch-mean gradients of J, each in one block: "x" (incentives), "min" or "max" (logits).

    `policies_min`, `policies_max` and `sides` are equal-length lists, one
    entry per request of a `sample_batch` call: row block p of `batch`
    estimates request p's block.  The sides must be all "x" or all policy
    sides.  Each side's log-probabilities come from one log-softmax over its
    requests' stacked logits, and the score tables are their `exp`.
    """
    n_req = _check_requests(policies_min=policies_min, policies_max=policies_max, sides=sides)
    for sd in sides:
        _check_side(sd, ("x", "min", "max"))
    per = len(batch) // n_req
    s, a, b = batch.states, batch.actions_min, batch.actions_max
    mask = batch.mask
    if "x" in sides:
        if set(sides) != {"x"}:
            raise ValueError("a stacked call cannot mix side 'x' with policy sides")
        gx = effective_reward_grad_x(game, model)
        w = gx[s, a, b] * game.discount ** np.arange(s.shape[1])
        block = _block_offsets(len(batch), n_req, gx.size)[:, None]
        grad = np.zeros(n_req * gx.size)
        np.add.at(grad, (np.ravel_multi_index((s, a, b), gx.shape) + block)[mask], w[mask])
        return list(grad.reshape(n_req, *gx.shape) / per)
    n_states = game.n_states
    row = s + _block_offsets(len(batch), n_req, n_states)[:, None]
    lp = {"min": log_softmax(_stacked_logits(policies_min)),
          "max": log_softmax(_stacked_logits(policies_max))}
    u = batch.rewards + game.tau_min * lp["min"][row, a] - game.tau_max * lp["max"][row, b]
    u[game.absorbing[s] | ~mask] = 0.0
    acts = np.where(np.repeat([sd == "min" for sd in sides], per)[:, None], a, b)
    score = {sd: np.exp(lp[sd]) for sd in set(sides)}
    tables = [score[sd][p * n_states:(p + 1) * n_states] for p, sd in enumerate(sides)]
    return [g / per for g in _score_sums(row, acts, _discounted_to_go(u, game.discount),
                                         mask, tables)]
