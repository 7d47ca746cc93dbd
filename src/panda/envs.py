"""Desk-scale experiment environments.

Two instances are provided, both bilevel problems whose lower level is an
entropy-regularized zero-sum Markov game and whose upper level is minimized:

* synthetic: a dense random game on a handful of states.  The designer's
  objective is the negated expected discounted return of a separate random
  "designer MDP" evaluated over a short horizon under the two equilibrium
  policies; the incentive x shifts the game's payoff through a bounded
  sigmoid term.

* sentinel: a 5x5 pursuit grid.  A sentinel (maximizer) tries to capture an
  intruder (minimizer) before it reaches a target cell; capture pays +10 to
  the game value and target arrival pays -10.  The positions are tabularized
  into (sentinel cell, intruder cell) pairs plus one terminal state.  The
  designer adds a small incentive (scale 0.05) to the stage payoff and wants
  the sentinel to stay out of a band of restricted cells, so the upper-level
  loss is the expected number of steps the sentinel spends there during a
  truncated episode.

In both cases the upper-level objective has no direct dependence on x (only
through the equilibrium policies), so its partial x-gradient is identically
zero; the estimator interfaces still expose it for uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import finite_horizon_grad, finite_horizon_value
from .game import MarkovGame, RewardModel, _check_counts, _is_int, _is_real, probs
from .sampling import RngStream, n_env_steps, reinforce, sample_batch

__all__ = [
    "SyntheticSpec",
    "GridSpec",
    "ENV_SPECS",
    "EnvBundle",
    "SyntheticUL",
    "SentinelUL",
    "build_synthetic",
    "build_sentinel",
    "build_env",
]


# --------------------------------------------------------------------------
# Synthetic incentive-design instance
# --------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Sizes and horizon are integers >= 1, the seed >= 0; `MarkovGame` checks discount and tau."""

    n_states: int = 5
    n_actions: int = 3
    discount: float = 0.99
    tau: float = 0.1
    ul_horizon: int = 3
    incentive_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, ("n_states", "n_actions", "ul_horizon"))
        _check_counts(self, ("seed",), least=0)


@dataclass
class SyntheticUL:
    """Designer objective f = -E[short-horizon discounted return in the designer MDP].

    The designer MDP shares the players' action sets; both policies act in it
    jointly.  f is minimized, hence the negation of the collected return.
    """

    mdp: MarkovGame
    reward_id: RewardModel
    horizon: int

    def _kernel_args(self, policy_min, policy_max):
        return (self.mdp, self.reward_id.base, probs(policy_min), probs(policy_max),
                self.horizon, self.mdp.discount)

    def value_exact(self, model, policy_min, policy_max) -> float:
        return -finite_horizon_value(*self._kernel_args(policy_min, policy_max))

    def grad_policies_exact(self, model, policy_min, policy_max):
        gmin, gmax, _ = finite_horizon_grad(*self._kernel_args(policy_min, policy_max))
        return -gmin, -gmax

    def grad_x_exact(self, model, policy_min, policy_max) -> np.ndarray:
        return np.zeros_like(model.incentive_params)

    def _sample(self, policy_min, policy_max, batch, stream, purpose, outer, inner):
        return sample_batch(self.mdp, self.reward_id, [policy_min], [policy_max],
                            batch, self.horizon, stream, [purpose], outer, inner)

    def value_estimate(self, model, policy_min, policy_max, batch,
                       stream: RngStream, purpose=0, outer=0, inner=0):
        trajs = self._sample(policy_min, policy_max, batch, stream, purpose, outer, inner)
        vals = -(trajs.rewards * self.mdp.discount ** np.arange(self.horizon)).sum(axis=1)
        return float(np.mean(vals)), n_env_steps(trajs)

    def grad_policies_estimate(self, model, policy_min, policy_max, batch,
                               stream: RngStream, purpose=0, outer=0, inner=0):
        trajs = self._sample(policy_min, policy_max, batch, stream, purpose, outer, inner)
        gmin, gmax = reinforce(trajs, trajs.rewards, [probs(policy_min), probs(policy_max)],
                               ["min", "max"], self.mdp.discount)
        return -gmin, -gmax, n_env_steps(trajs)

    def grad_x_estimate(self, model, policy_min, policy_max, batch,
                        stream: RngStream, purpose=0, outer=0, inner=0):
        # f has no direct x-dependence; nothing to sample
        return np.zeros_like(model.incentive_params), 0


@dataclass
class EnvBundle:
    """Game, reward model and upper-level objective `ul` (f by `*_exact`/`*_estimate`)."""

    name: str
    game: MarkovGame
    model: RewardModel
    ul: object


def build_synthetic(spec: SyntheticSpec) -> EnvBundle:
    """Seeded dense random game plus a designer MDP on the same action sets.

    Draw order (stable across versions): game transitions, base payoff,
    designer transitions, designer rewards.
    """
    rng = np.random.default_rng(spec.seed)
    s, a = spec.n_states, spec.n_actions
    p = rng.uniform(0.0, 1.0, size=(s, a, a, s))
    p /= p.sum(axis=3, keepdims=True)
    base = rng.uniform(0.0, 1.0, size=(s, a, a))
    p_id = rng.uniform(0.0, 1.0, size=(s, a, a, s))
    p_id /= p_id.sum(axis=3, keepdims=True)
    r_id = rng.uniform(0.0, 1.0, size=(s, a, a))

    rho = np.full(s, 1.0 / s)
    game = MarkovGame(transition=p, init_dist=rho, absorbing=np.zeros(s, bool),
                      discount=spec.discount, tau_min=spec.tau, tau_max=spec.tau)
    model = RewardModel(base=base, incentive_params=np.zeros((s, a, a)),
                        incentive_scale=spec.incentive_scale)
    mdp = MarkovGame(transition=p_id, init_dist=rho, absorbing=np.zeros(s, bool),
                     discount=spec.discount, tau_min=spec.tau, tau_max=spec.tau)
    reward_id = RewardModel(base=r_id, incentive_params=np.zeros((s, a, a)),
                            incentive_scale=0.0)
    ul = SyntheticUL(mdp=mdp, reward_id=reward_id, horizon=spec.ul_horizon)
    return EnvBundle(name="synthetic", game=game, model=model, ul=ul)


# --------------------------------------------------------------------------
# Sentinel-intruder pursuit grid
# --------------------------------------------------------------------------

@dataclass
class GridSpec:
    """Sizes and step cap are integers >= 1, cells on the grid, intruder spawns non-empty
    and distinct, payoff real."""

    width: int = 5
    height: int = 5
    sentinel_spawn: tuple = (0, 4)
    intruder_spawns: tuple = ((0, 0), (0, 1), (1, 0))
    target: tuple = (4, 4)
    restricted: tuple = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4))
    payoff: float = 10.0
    incentive_scale: float = 0.05
    max_steps: int = 20
    discount: float = 0.99
    tau: float = 0.1

    def __post_init__(self):
        _check_counts(self, ("width", "height", "max_steps"))
        if not _is_real(self.payoff):  # `RewardModel` rejects an infinite or NaN one
            raise ValueError(f"payoff must be a real number, got {self.payoff!r}")
        if not self.intruder_spawns:
            raise ValueError("intruder_spawns must not be empty")
        cells = [("sentinel_spawn", self.sentinel_spawn), ("target", self.target)]
        cells += [(name, rc) for name in ("intruder_spawns", "restricted")
                  for rc in getattr(self, name)]
        for name, rc in cells:
            if not (isinstance(rc, (tuple, list)) and len(rc) == 2 and all(map(_is_int, rc))
                    and 0 <= rc[0] < self.height and 0 <= rc[1] < self.width):
                raise ValueError(f"{name} cell {rc!r} is not on the "
                                 f"{self.height}x{self.width} grid")
        spawns = [tuple(rc) for rc in self.intruder_spawns]
        for i, rc in enumerate(spawns):
            if rc in spawns[:i]:
                raise ValueError(f"intruder_spawns cell {rc!r} is repeated")

    def cell(self, rc) -> int:
        return rc[0] * self.width + rc[1]


# action order shared by both players: up, down, left, right, stay
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))


@dataclass
class SentinelUL:
    """Designer loss: expected restricted-cell step count of the sentinel.

    Counts every non-terminal step of a truncated episode whose state has the
    sentinel inside the restricted band (repeat visits count again).  The
    count depends on x only through the policies, so the direct x-gradient
    is zero.
    """

    game: MarkovGame
    restricted_state: np.ndarray  # bool (S,), terminal excluded
    horizon: int

    def _kernel_args(self, policy_min, policy_max):
        # the step count c(s) of every action pair, undiscounted; the terminal
        # is absorbing, so steps the rollout never records count nothing
        g = self.game
        stage = np.broadcast_to(self.restricted_state.astype(float)[:, None, None],
                                (g.n_states, g.n_actions_min, g.n_actions_max))
        return (g, stage, probs(policy_min), probs(policy_max), self.horizon, 1.0)

    def value_exact(self, model, policy_min, policy_max) -> float:
        return finite_horizon_value(*self._kernel_args(policy_min, policy_max))

    def grad_policies_exact(self, model, policy_min, policy_max):
        return finite_horizon_grad(*self._kernel_args(policy_min, policy_max))[:2]

    def grad_x_exact(self, model, policy_min, policy_max) -> np.ndarray:
        return np.zeros_like(model.incentive_params)

    def _counts(self, trajs):
        # padded steps sit on state 0, which may itself be restricted
        return (self.restricted_state[trajs.states] & trajs.mask).astype(float)

    def value_estimate(self, model, policy_min, policy_max, batch,
                       stream: RngStream, purpose=0, outer=0, inner=0):
        trajs = sample_batch(self.game, model, [policy_min], [policy_max], batch,
                             self.horizon, stream, [purpose], outer, inner)
        return float(np.mean(self._counts(trajs).sum(axis=1))), n_env_steps(trajs)

    def grad_policies_estimate(self, model, policy_min, policy_max, batch,
                               stream: RngStream, purpose=0, outer=0, inner=0):
        trajs = sample_batch(self.game, model, [policy_min], [policy_max], batch,
                             self.horizon, stream, [purpose], outer, inner)
        gmin, gmax = reinforce(trajs, self._counts(trajs),
                               [probs(policy_min), probs(policy_max)], ["min", "max"], 1.0)
        return gmin, gmax, n_env_steps(trajs)

    def grad_x_estimate(self, model, policy_min, policy_max, batch,
                        stream: RngStream, purpose=0, outer=0, inner=0):
        return np.zeros_like(model.incentive_params), 0


def build_sentinel(spec: GridSpec) -> EnvBundle:
    """Tabularize the pursuit grid into (sentinel, intruder) pairs + terminal.

    Simultaneous moves with wall clipping.  Post-move collisions capture
    (capture wins ties with target arrival); a state that already has both
    players on one cell captures immediately at the next step, and a state
    with the intruder on the target pays out immediately, both regardless of
    actions.
    """
    w, h = spec.width, spec.height
    n_cells = w * h
    n_states = n_cells * n_cells + 1
    terminal = n_states - 1
    target = spec.cell(spec.target)
    n_act = len(_MOVES)

    # (cells, moves) table of the cell each move leads to, clipped at the walls
    rows, cols = np.divmod(np.arange(n_cells), w)
    dr, dc = np.array(_MOVES).T
    moved = np.clip(rows[:, None] + dr, 0, h - 1) * w + np.clip(cols[:, None] + dc, 0, w - 1)
    sent, intr = np.divmod(np.arange(n_cells * n_cells), n_cells)
    # (pair, a, b): a is the intruder's (min player's) move, b the sentinel's
    sent2, intr2 = moved[sent][:, None, :], moved[intr][:, :, None]
    same, on_target = (sent == intr)[:, None, None], (intr == target)[:, None, None]
    capture = same | (~on_target & (sent2 == intr2))
    arrive = ~capture & (on_target | (intr2 == target))

    # every move is deterministic: one successor per (s, a, b), the terminal
    # unless the move lands on a live pair of cells
    succ = np.full((n_states, n_act, n_act, 1), terminal, dtype=np.intp)
    succ[:terminal, :, :, 0] = np.where(capture | arrive, terminal, sent2 * n_cells + intr2)
    base = np.zeros((n_states, n_act, n_act))
    base[:terminal] = np.where(capture, spec.payoff, np.where(arrive, -spec.payoff, 0.0))

    rho = np.zeros(n_states)
    sent0 = spec.cell(spec.sentinel_spawn)
    for rc in spec.intruder_spawns:
        rho[sent0 * n_cells + spec.cell(rc)] = 1.0 / len(spec.intruder_spawns)

    absorbing = np.zeros(n_states, dtype=bool)
    absorbing[terminal] = True
    game = MarkovGame.from_successors(succ, np.ones(succ.shape), rho, absorbing,
                                      spec.discount, spec.tau, spec.tau)
    model = RewardModel(base=base, incentive_params=np.zeros((n_states, n_act, n_act)),
                        incentive_scale=spec.incentive_scale)

    restricted_state = np.zeros(n_states, dtype=bool)
    restricted_state[:terminal] = np.isin(sent, [spec.cell(rc) for rc in spec.restricted])

    ul = SentinelUL(game=game, restricted_state=restricted_state, horizon=spec.max_steps)
    return EnvBundle(name="sentinel", game=game, model=model, ul=ul)


# name -> (spec dataclass, builder); a config's env overrides are spec fields
ENV_SPECS = {
    "synthetic": (SyntheticSpec, build_synthetic),
    "sentinel": (GridSpec, build_sentinel),
}


def build_env(name: str, **overrides) -> EnvBundle:
    if name not in ENV_SPECS:
        raise ValueError(f"unknown environment {name!r}")
    spec, build = ENV_SPECS[name]
    return build(spec(**overrides))
