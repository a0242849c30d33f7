"""Vector-reward episodic environments.

Two toy continuous-control tasks with smooth, genuinely conflicting
objectives are built in:

``DualGoal``
    A 2-D point mass pushed by a bounded force. Objective 1 rewards x
    velocity, objective 2 rewards y velocity, and both pay the same
    quadratic control cost, so any preference between the axes picks a
    different steady heading.

``SpeedEnergy``
    A 1-D cart. Objective 1 is forward velocity, objective 2 is the
    negative squared control effort, trading top speed against energy.

Both are fixed-horizon (no early termination), deterministic given the
reset seed, and cheap enough to roll out millions of steps in seconds.
Dynamics for both: v' = v + (a - friction * v) * dt, p' = p + v' * dt,
with actions clipped to [-1, 1] per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True)
class EnvSpec:
    """Static description of an environment instance."""

    name: str
    obs_dim: int
    act_dim: int
    d: int
    horizon: int = 100
    dt: float = 0.05
    control_cost_coeff: float = 0.05
    friction: float = 0.1

    def __post_init__(self) -> None:
        if min(self.obs_dim, self.act_dim, self.d, self.horizon) < 1:
            raise ValueError("obs_dim, act_dim, d and horizon must all be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def check_weight(weights: np.ndarray, d: int | None = None) -> np.ndarray:
    """Validate a preference weight: nonnegative entries summing to 1."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or (d is not None and weights.shape != (d,)):
        raise ValueError(f"weight has shape {weights.shape}, expected ({d},)")
    if np.any(weights < -SIMPLEX_ATOL):
        raise ValueError(f"weight has negative entries: {weights}")
    if abs(float(weights.sum()) - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"weight entries sum to {weights.sum()}, expected 1")
    return weights


class VectorRewardEnv:
    """Base class: fixed-horizon point-mass dynamics with a vector reward.

    Subclasses define the state layout and the per-step reward. All the
    physics lives in `_advance`, written over batched arrays whose rows are
    independent episodes, so a whole bank of them steps in lockstep; a
    single episode is a batch of one.
    """

    spec: EnvSpec

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def _initial_obs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _advance(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (next_obs, rewards) for a batch; actions already clipped."""
        raise NotImplementedError

    def reset_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._initial_obs(n, rng)

    def step_batch(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        actions = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
        return self._advance(obs, actions)


class DualGoal(VectorRewardEnv):
    """2-D point mass, observation (px, py, vx, vy), action = force in [-1,1]^2.

    R1 = vx' - c * |a|^2 and R2 = vy' - c * |a|^2: pushing east and pushing
    north conflict through the shared control budget.
    """

    def __init__(
        self,
        horizon: int = 100,
        dt: float = 0.05,
        control_cost_coeff: float = 0.05,
        friction: float = 0.1,
    ):
        super().__init__(
            EnvSpec(
                name="dual_goal",
                obs_dim=4,
                act_dim=2,
                d=2,
                horizon=horizon,
                dt=dt,
                control_cost_coeff=control_cost_coeff,
                friction=friction,
            )
        )

    def _initial_obs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        obs = np.zeros((n, 4))
        obs[:, :2] = rng.uniform(-0.1, 0.1, size=(n, 2))
        return obs

    def _advance(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        pos, vel = obs[:, :2], obs[:, 2:]
        new_vel = vel + (actions - spec.friction * vel) * spec.dt
        new_pos = pos + new_vel * spec.dt
        cost = spec.control_cost_coeff * np.sum(actions**2, axis=1)
        rewards = np.stack([new_vel[:, 0] - cost, new_vel[:, 1] - cost], axis=1)
        return np.concatenate([new_pos, new_vel], axis=1), rewards


class SpeedEnergy(VectorRewardEnv):
    """1-D cart, observation (p, v), action = force in [-1,1].

    R1 = v' (forward velocity), R2 = -sum_j a_j^2 (energy efficiency).
    """

    def __init__(self, horizon: int = 100, dt: float = 0.05, friction: float = 0.1):
        super().__init__(
            EnvSpec(
                name="speed_energy",
                obs_dim=2,
                act_dim=1,
                d=2,
                horizon=horizon,
                dt=dt,
                control_cost_coeff=0.0,
                friction=friction,
            )
        )

    def _initial_obs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        obs = np.zeros((n, 2))
        obs[:, 0] = rng.uniform(-0.1, 0.1, size=n)
        return obs

    def _advance(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        pos, vel = obs[:, 0], obs[:, 1]
        new_vel = vel + (actions[:, 0] - spec.friction * vel) * spec.dt
        new_pos = pos + new_vel * spec.dt
        rewards = np.stack([new_vel, -np.sum(actions**2, axis=1)], axis=1)
        return np.stack([new_pos, new_vel], axis=1), rewards


ENV_REGISTRY = {
    "dual_goal": DualGoal,
    "speed_energy": SpeedEnergy,
}


def make_env(name: str, **kwargs) -> VectorRewardEnv:
    """Build a registered environment by name."""
    try:
        cls = ENV_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; known: {sorted(ENV_REGISTRY)}") from None
    return cls(**kwargs)
