"""Flat parameter vectors and the networks that are views of them.

All trainable state of an actor-critic lives in one float64 vector with a
recorded layout, which is the representation every module operates on:
training updates it, directional differences subtract it, and the
extension stage takes linear combinations of it. `unflatten` is the one
way to turn a vector, or a (C, P) stack of vectors, into networks: the
tanh MLP mean and state-independent log stds of a Gaussian actor, and a
tanh MLP critic, all views into the vector's data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .envs import VectorRewardEnv

LOG_2PI = float(np.log(2.0 * np.pi))


class Mlp:
    """A fully-connected network, one weight and bias per layer; tanh
    hidden layers, linear output.

    Weights may carry leading axes, (..., in, out) with biases (..., out):
    a stack of C networks is then one object whose passes take inputs
    (C, rows, in), and each stacked product makes one BLAS call per
    network, so every slice rounds like the network alone.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for i in range(len(self.weights) - 1):
            h = np.tanh(h @ self.weights[i] + self.biases[i][..., None, :])
        return h @ self.weights[-1] + self.biases[-1][..., None, :]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping post-activation values for backprop."""
        acts = [x]
        h = x
        for i in range(len(self.weights) - 1):
            h = np.tanh(h @ self.weights[i] + self.biases[i][..., None, :])
            acts.append(h)
        return h @ self.weights[-1] + self.biases[-1][..., None, :], acts

    def backward(
        self,
        grad_out: np.ndarray,
        acts: list[np.ndarray],
        grad_w: list[np.ndarray],
        grad_b: list[np.ndarray],
    ) -> None:
        """Grads of a scalar loss wrt weights/biases given d(loss)/d(output).

        They are written into `grad_w[i]` and `grad_b[i]`, arrays shaped
        like the weights and biases (typically views into a gradient
        vector, see `unflatten`).
        """
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(np.swapaxes(acts[i], -1, -2), delta, out=grad_w[i])
            delta.sum(axis=-2, out=grad_b[i])
            if i > 0:
                # tanh'(z) = 1 - tanh(z)^2, and acts[i] stores tanh(z).
                delta = (delta @ np.swapaxes(self.weights[i], -1, -2)) * (1.0 - acts[i] ** 2)


# ---------------------------------------------------------------------------
# Flat parameter vectors


@dataclass(frozen=True)
class ParamLayout:
    """Ordered (key, shape) blocks defining the flat form of an actor-critic,
    and the only description of its networks: `policy_layout` makes one
    from layer sizes, and `unflatten` reads each net's `W{i}`/`b{i}`
    blocks from it.

    Sizes and offsets are computed once per layout object: block lookups
    sit on the training hot path.
    """

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def size(self) -> int:
        return sum(math.prod(shape) for _, shape in self.entries)

    @cached_property
    def _offsets(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        table = {}
        pos = 0
        for key, shape in self.entries:
            n = math.prod(shape)
            table[key] = (pos, pos + n, shape)
            pos += n
        return table

    def offsets(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        return self._offsets


@dataclass
class ParameterVector:
    """Flat float64 view of all trainable parameters plus its layout.

    `data` may also be a (C, P) matrix holding C vectors of one layout as
    its rows; `block` then returns stacked (C, *shape) views, and the
    networks `unflatten` builds from them are stacks.
    """

    data: np.ndarray
    layout: ParamLayout

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim not in (1, 2) or self.data.shape[-1] != self.layout.size:
            raise ValueError(
                f"data has shape {self.data.shape} but layout describes {self.layout.size} entries"
            )

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.data.copy(), self.layout)

    def block(self, key: str) -> np.ndarray:
        start, end, shape = self.layout.offsets()[key]
        return self.data[..., start:end].reshape(self.data.shape[:-1] + shape)


def _mlp_entries(prefix: str, sizes: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    entries = []
    for i in range(len(sizes) - 1):
        entries.append((f"{prefix}.W{i}", (sizes[i], sizes[i + 1])))
        entries.append((f"{prefix}.b{i}", (sizes[i + 1],)))
    return entries


def policy_layout(actor_sizes: tuple[int, ...], critic_sizes: tuple[int, ...]) -> ParamLayout:
    """The layout of an actor-critic whose tanh networks have these layer
    sizes, (input, hidden..., output) each; a size that is not an integer
    is a TypeError. Sizes are made ints before the cache is consulted:
    8.0 == 8, so a float size would otherwise share its integer's entry."""
    return _cached_layout(tuple(map(operator.index, actor_sizes)), tuple(map(operator.index, critic_sizes)))


@lru_cache(maxsize=None)
def _cached_layout(actor_sizes: tuple[int, ...], critic_sizes: tuple[int, ...]) -> ParamLayout:
    for sizes in (actor_sizes, critic_sizes):
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s < 1 for s in sizes):
            raise ValueError("all layer sizes must be >= 1")
    entries = _mlp_entries("actor", actor_sizes)
    entries.append(("actor.log_std", (actor_sizes[-1],)))
    entries.extend(_mlp_entries("critic", critic_sizes))
    return ParamLayout(tuple(entries))


policy_layout.cache_clear = _cached_layout.cache_clear


class Networks(NamedTuple):
    """An actor-critic as views into a parameter vector: the actor's mean
    network, its state-independent log stds and the critic."""

    actor: Mlp
    log_std: np.ndarray
    critic: Mlp


def unflatten(theta: ParameterVector) -> Networks:
    """The networks of theta, shaped by its layout, as views into its data:
    a write through them changes theta, and they see every in-place
    update of it. A (C, P) stack gives stacked networks, with (C, in, out)
    weights, (C, out) biases and (C, act_dim) log stds."""

    def mlp(prefix: str) -> Mlp:
        layers = range(sum(key.startswith(f"{prefix}.W") for key, _ in theta.layout.entries))
        return Mlp([theta.block(f"{prefix}.W{i}") for i in layers], [theta.block(f"{prefix}.b{i}") for i in layers])

    return Networks(mlp("actor"), theta.block("actor.log_std"), mlp("critic"))


# ---------------------------------------------------------------------------
# Acting and evaluation


def gaussian_log_prob(actions: np.ndarray, means: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian, rows = samples: actions and
    means (..., rows, act_dim), log stds (..., act_dim)."""
    log_std = log_std[..., None, :]
    z = (actions - means) / np.exp(log_std)
    return -0.5 * np.sum(z**2, axis=-1) - np.sum(log_std, axis=-1) - 0.5 * actions.shape[-1] * LOG_2PI


def evaluate_returns(
    stack: ParameterVector,
    env: VectorRewardEnv,
    episodes: int,
    seed: int,
    deterministic: bool = True,
) -> np.ndarray:
    """Mean undiscounted episodic return vectors of a (C, P) stack of
    policies (one layout), as a (C, d) float64 matrix whose row k belongs
    to stack row k.

    Episodes run in lockstep (the environments are fixed-horizon), so the
    whole evaluation is `horizon` batched network passes regardless of the
    episode or policy count. The stack's actor views have (C, in, out)
    weights, so each network pass is one stacked product whose slices
    round like the single-policy product, and all C * episodes rows step
    together. Every policy sees the same initial states and action noise
    as it would alone, so each row equals that policy evaluated as a
    stack of one. deterministic=True plays the policy mean.
    """
    if stack.data.ndim != 2:
        raise ValueError(f"evaluate_returns takes a (C, P) stack, got shape {stack.data.shape}")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    n = stack.data.shape[0]
    nets = unflatten(stack)
    std = np.exp(nets.log_std)[:, None, :]
    rng = np.random.default_rng(seed)
    obs = np.tile(env.reset_batch(episodes, rng), (n, 1))
    totals = np.zeros((n * episodes, env.spec.d))
    for _ in range(env.spec.horizon):
        means = nets.actor.forward(obs.reshape(n, episodes, -1))
        if deterministic:
            actions = means
        else:
            actions = means + std * rng.standard_normal(means.shape[1:])
        obs, rewards = env.step_batch(obs, actions.reshape(n * episodes, -1))
        totals += rewards
    returns = totals.reshape(n, episodes, -1).mean(axis=1)
    if not np.all(np.isfinite(returns)):
        raise ValueError("return vector contains non-finite entries")
    return returns
