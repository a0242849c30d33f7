"""Minimal clipped-surrogate PPO over a scalarized vector reward.

Gradients are computed analytically for the fixed network family (tanh
MLP mean, state-independent log stds, tanh MLP critic); there is no
autodiff anywhere. `loss_and_grad` is a pure function of the flat
parameter vector its views were built from, which makes the whole update
finite-difference checkable coordinate by coordinate.

One update minimizes

    L = -E[min(r A, clip(r, 1-eps, 1+eps) A)] + c_v E[(V(s) - R)^2] - c_e H

with r the likelihood ratio, A the (batch-normalized) GAE advantage and
H the Gaussian entropy. Advantages are normalized once per batch, the
value loss is unclipped, and gradients are clipped by global norm.

The hot path allocates little: an update builds its network and
gradient views once (`UpdateViews`), the backward pass writes into them
and Adam steps in place, with the same floating-point operations in the
same order as the textbook formulas.

Training runs in lockstep. `train` takes a stack of C policies, each
with its own weight, seed, log stream and step budget. The members'
vectors are the rows of one (C, P) matrix whose block views are stacked
networks, so a rollout step is one stacked actor pass over C
environments and a minibatch is one stacked `loss_and_grad` call and one
Adam step on the matrix. A member leaves the stack, with its Adam rows,
generator and carried observation, after its last whole batch or after
the batch in which its loss went non-finite, and the others go on as
they would alone.
Each member draws from its own generator in the order it would alone,
and every operation on the stack either works row by row (elementwise
arithmetic, sums along a row, one norm per row) or makes one BLAS call
per member (a stacked product), so each member rounds exactly as it
would trained alone, and a diverged member's non-finite rows cannot
reach the others' bits. Per-call numpy overhead, which dominates these
small networks, is paid once per stack instead of once per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .envs import VectorRewardEnv, check_weight
from .policy import ParameterVector, gaussian_log_prob, policy_layout, unflatten

# OpenBLAS runs a matrix product on a second thread once m*n*k exceeds
# this; the woken thread then busy-waits through the single-threaded work
# that follows.
BLAS_ONE_THREAD_MNK = 262_144
# Rows per critic pass over a rollout batch: a whole 512-row batch through
# a 64x64 hidden layer (2.1M) crosses the threshold, 64-row blocks stay at
# it and give bit-identical values.
VALUE_PASS_ROWS = BLAS_ONE_THREAD_MNK // (64 * 64)
# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class DivergenceError(RuntimeError):
    """A training run whose PPO loss went non-finite."""


@dataclass(frozen=True)
class PpoConfig:
    steps_per_batch: int = 512
    learning_rate: float = 3e-4
    gamma: float = 0.995
    gae_lambda: float = 0.95
    # 32-row minibatches of a 512-step batch: half the Adam steps of 16-row
    # ones, with every acceptance criterion kept (the sweep is in CHANGES.md),
    # and a stacked product stays at 32*64*64, under BLAS_ONE_THREAD_MNK.
    # 64-row minibatches fail the tests that train for one to ten batches.
    minibatches: int = 16
    epochs: int = 10
    clip: float = 0.2
    value_coeff: float = 0.5
    entropy_coeff: float = 0.0
    max_grad_norm: float = 0.5

    def __post_init__(self) -> None:
        if self.steps_per_batch < 1:
            raise ValueError("steps_per_batch must be >= 1")
        if self.minibatches < 1:
            raise ValueError("minibatches must be >= 1")
        if self.steps_per_batch % self.minibatches:
            raise ValueError(
                f"minibatches {self.minibatches} does not divide steps_per_batch {self.steps_per_batch}"
            )
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.clip <= 0:
            raise ValueError("clip must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.value_coeff >= 0:
            raise ValueError("value_coeff must be >= 0")
        if not self.max_grad_norm > 0:
            raise ValueError("max_grad_norm must be positive")


@dataclass
class RolloutBuffer:
    """One batch of on-policy experience, rewards already scalarized; a
    stack's arrays lead with the member axis."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    scalar_rewards: np.ndarray
    value_estimates: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return self.observations.shape[-2]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    delta_t = r_t + gamma * v_{t+1} * (1 - done_t) - v_t, accumulated
    backwards with factor gamma * lam and cut at episode boundaries;
    returns are advantages + values. `bootstrap_value` stands in for
    v_{T} after the last stored transition. The arrays may lead with a
    member axis: each row is its own sequence, with its own entry of
    `bootstrap_value`.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("rewards, values and dones must have equal shapes")
    bootstrap = np.broadcast_to(bootstrap_value, rewards.shape[:-1])[..., None]
    next_values = np.concatenate([values[..., 1:], bootstrap], axis=-1)
    not_done = 1.0 - dones.astype(np.float64)
    td_errors = rewards + gamma * next_values * not_done - values
    advantages = np.empty(rewards.shape)
    acc = 0.0
    for t in range(rewards.shape[-1] - 1, -1, -1):
        acc = td_errors[..., t] + gamma * lam * not_done[..., t] * acc
        advantages[..., t] = acc
    return advantages, advantages + values


# ---------------------------------------------------------------------------
# Loss and analytic gradient


class UpdateViews:
    """The networks of one parameter vector, plus one gradient buffer of
    the same layout and its networks, all built by `unflatten`.

    Built once per update and shared by every minibatch; the views stay
    valid while the vector is updated in place. Built from a (C, P)
    stack, every view is stacked.
    """

    def __init__(self, theta: ParameterVector):
        self.nets = unflatten(theta)
        grad = ParameterVector(np.zeros(theta.data.shape), theta.layout)
        self.grad = grad.data
        self.grads = unflatten(grad)


def loss_and_grad(
    views: UpdateViews,
    obs: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """PPO loss on a minibatch and its exact gradient wrt the flat vector
    the views were built from.

    The gradient is written into the views' buffer, which the next call
    with the same views overwrites. For the views of one (P,) vector the
    loss is a 0-d array and the gradient (P,); for a (C, P) stack the
    minibatch arrays lead with the member axis, the loss is a (C,) array
    and the gradient (C, P). A non-finite loss is returned like any
    other; the caller decides what it means.
    """
    actor, log_std_row, critic = views.nets
    grads = views.grads
    log_std = log_std_row[..., None, :]
    n = obs.shape[-2]

    means, actor_acts = actor.forward_cached(obs)
    std = np.exp(log_std)
    inv_var = 1.0 / std**2
    log_probs = gaussian_log_prob(actions, means, log_std_row)
    ratios = np.exp(log_probs - log_probs_old)
    clipped = np.clip(ratios, 1.0 - cfg.clip, 1.0 + cfg.clip)
    unclipped_term = ratios * advantages
    clipped_term = clipped * advantages
    policy_loss = -np.mean(np.minimum(unclipped_term, clipped_term), axis=-1)

    values_out, critic_acts = critic.forward_cached(obs)
    values = values_out[..., 0]
    value_err = values - returns
    value_loss = np.mean(value_err**2, axis=-1)

    entropy = np.sum(log_std_row, axis=-1) + 0.5 * log_std.shape[-1] * (1.0 + np.log(2.0 * np.pi))
    loss = policy_loss + cfg.value_coeff * value_loss - cfg.entropy_coeff * entropy

    # min(.,.) subgradient: take the unclipped branch on ties, matching the
    # convention that the surrogate's gradient vanishes only when clipping
    # is strictly active.
    use_unclipped = unclipped_term <= clipped_term
    grad_ratio = np.where(use_unclipped, advantages, 0.0)
    grad_logp = -(grad_ratio * ratios) / n

    diff = actions - means
    grad_means = grad_logp[..., None] * diff * inv_var
    grad_log_std = np.sum(grad_logp[..., None] * (diff**2 * inv_var - 1.0), axis=-2, out=grads.log_std)
    grad_log_std -= cfg.entropy_coeff  # dH/dlog_std = 1 per dimension
    actor.backward(grad_means, actor_acts, grads.actor.weights, grads.actor.biases)

    grad_values = (2.0 * cfg.value_coeff / n) * value_err
    critic.backward(grad_values[..., None], critic_acts, grads.critic.weights, grads.critic.biases)
    return loss, views.grad


class Adam:
    """Adam row by row over a (C, P) stack of flat parameter vectors."""

    def __init__(self, shape: tuple[int, int], lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self._num = np.empty(shape)
        self._den = np.empty(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """params -= (lr * m_hat) / (sqrt(v_hat) + eps), in place.

        Each operation matches the textbook expression's, in its order, so
        the result is bit-identical to evaluating it with temporaries.
        """
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
        m += num
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=den)
        den *= 1.0 - ADAM_BETA2
        v += den
        np.divide(v, 1.0 - ADAM_BETA2**self.t, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**self.t, out=num)
        num *= self.lr
        num /= den
        params -= num

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the state of the stack rows where `keep` is False."""
        self.m, self.v, self._num, self._den = (a[keep] for a in (self.m, self.v, self._num, self._den))


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale each row of a (C, P) gradient stack in place down to global
    norm `max_norm`; returns the stack."""
    for row in grad:
        norm = float(np.linalg.norm(row))
        if norm > max_norm > 0:
            row *= max_norm / norm
    return grad


def ppo_update(
    stack: ParameterVector,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    rngs: Sequence[np.random.Generator],
    optimizer: Adam,
) -> tuple[ParameterVector, dict[int, DivergenceError]]:
    """Run `epochs` passes of minibatch clipped-surrogate descent on a
    stack of C policies in lockstep.

    `stack.data` has shape (C, P), `buffer` comes from `collect_rollout`
    on it and `rngs` holds one generator per member. Each minibatch is
    one stacked `loss_and_grad` call and one step of `optimizer`, an Adam
    over the (C, P) shape that carries its moments across the batches of
    a training run. The input stack is not mutated. A member's first
    non-finite loss becomes its DivergenceError; its row stays in the
    stack to the end of the update, where the caller drops it. Returns
    the updated stack and {stack row: DivergenceError}.
    """
    stack = stack.copy()
    arrays = [buffer.observations, buffer.actions, buffer.log_probs, buffer.advantages, buffer.returns]
    rows = np.arange(len(rngs))[:, None]
    errors: dict[int, DivergenceError] = {}
    views = UpdateViews(stack)
    n = len(buffer)
    mb_size = n // cfg.minibatches
    for _ in range(cfg.epochs):
        order = np.stack([g.permutation(n) for g in rngs])
        for start in range(0, n, mb_size):
            idx = order[:, start : start + mb_size]
            loss, grad = loss_and_grad(views, *(a[rows, idx] for a in arrays), cfg)
            finite = np.isfinite(loss)
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    errors.setdefault(int(row), DivergenceError(f"non-finite PPO loss ({loss[row]})"))
            optimizer.step(stack.data, clip_grad_norm(grad, cfg.max_grad_norm))
    return stack, errors


# ---------------------------------------------------------------------------
# Rollout collection and the training loop


def _reset(env: VectorRewardEnv, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One fresh initial observation per member, each from its own generator."""
    return np.concatenate([env.reset_batch(1, g) for g in rngs])


def collect_rollout(
    stack: ParameterVector,
    env: VectorRewardEnv,
    weights: np.ndarray,
    cfg: PpoConfig,
    rngs: Sequence[np.random.Generator],
    carry: tuple[np.ndarray, int] | None,
) -> tuple[RolloutBuffer, tuple[np.ndarray, int]]:
    """Gather one on-policy batch per member of a stack of C policies,
    scalarizing rewards at storage time.

    `stack.data` has shape (C, P), `weights` (C, d), and `rngs` holds one
    generator per member. The C environments step in lockstep, one
    stacked actor pass per step, each member drawing its noise and resets
    from its own generator; the buffer's arrays and the carried
    observations lead with the member axis. Episodes auto-reset at the
    horizon; `carry` is the ((C, obs_dim) observations, step index) of the
    episodes left unfinished by the previous batch. The members share the
    step index, since they start together and the horizon is fixed.
    """
    c = len(rngs)
    actor, log_std, critic = unflatten(stack)
    std = np.exp(log_std)
    weights = np.reshape(weights, (c, env.spec.d, 1))
    horizon = env.spec.horizon

    n = cfg.steps_per_batch
    obs_buf = np.empty((c, n, env.spec.obs_dim))
    act_buf = np.empty((c, n, env.spec.act_dim))
    mean_buf = np.empty((c, n, env.spec.act_dim))
    rew_buf = np.empty((c, n))
    done_buf = np.empty((c, n), dtype=bool)
    noise = np.empty((c, env.spec.act_dim))

    if carry is None:
        obs = _reset(env, rngs)
        step_index = 0
    else:
        obs, step_index = carry

    for t in range(n):
        mean = actor.forward(obs[:, None, :])[:, 0]
        for g, row in zip(rngs, noise):
            g.standard_normal(out=row)
        action = mean + std * noise
        next_obs, rewards = env.step_batch(obs, action)
        step_index += 1
        done = step_index >= horizon
        obs_buf[:, t] = obs
        act_buf[:, t] = action
        mean_buf[:, t] = mean
        # One (1, d) @ (d, 1) dot product per member on purpose: a batched
        # (n, d) @ (d,) goes through gemv, which rounds some rows differently.
        rew_buf[:, t] = (rewards[:, None, :] @ weights)[:, 0, 0]
        done_buf[:, t] = done
        if done:
            obs = _reset(env, rngs)
            step_index = 0
        else:
            obs = next_obs

    logp_buf = gaussian_log_prob(act_buf, mean_buf, log_std)
    values = np.empty((c, n))
    for start in range(0, n, VALUE_PASS_ROWS):
        rows = slice(start, start + VALUE_PASS_ROWS)
        values[:, rows] = critic.forward(obs_buf[:, rows])[..., 0]
    bootstrap = 0.0 if done_buf[0, -1] else critic.forward(obs[:, None, :])[:, 0, 0]
    advantages, returns = compute_gae(
        rew_buf, values, done_buf, cfg.gamma, cfg.gae_lambda, bootstrap
    )
    advantages = (advantages - advantages.mean(axis=-1, keepdims=True)) / (
        advantages.std(axis=-1, keepdims=True) + 1e-8
    )
    return RolloutBuffer(
        observations=obs_buf,
        actions=act_buf,
        log_probs=logp_buf,
        scalar_rewards=rew_buf,
        value_estimates=values,
        dones=done_buf,
        advantages=advantages,
        returns=returns,
    ), (obs, step_index)


def steps_taken(total_steps: int, cfg: PpoConfig) -> int:
    """Environment steps `train` takes on a budget: whole batches only."""
    return int(total_steps) // cfg.steps_per_batch * cfg.steps_per_batch


def train(
    thetas: Sequence[ParameterVector],
    env: VectorRewardEnv,
    weights: Sequence[np.ndarray],
    total_steps: int,
    cfg: PpoConfig,
    seeds: Sequence[int],
    logs: Sequence[IO[str] | None],
    *,
    member_steps: Sequence[int] | None = None,
) -> list[ParameterVector | DivergenceError]:
    """Train a stack of C policies in lockstep until each member's step
    budget is consumed.

    `thetas` holds the C start vectors (one layout); `weights`, `seeds`
    and `logs` hold one entry per member, and a log may be None. A list
    comes back in member order, each vector bit-identical to training
    that member in a stack of one and reproducible from (theta, seed).

    Whole batches only: a member takes `steps_taken(budget, cfg)`
    environment steps. `total_steps` is every member's budget unless
    `member_steps` gives one per member, each at most `total_steps`. A
    member leaves the stack after its last whole batch, and one whose
    budget is below one batch never joins it and comes back unchanged. A
    member whose loss goes non-finite leaves the stack after that batch,
    and its DivergenceError takes the place of its vector in the list.
    """
    budgets = [total_steps] * len(thetas) if member_steps is None else list(member_steps)
    if not len(thetas) == len(weights) == len(seeds) == len(logs) == len(budgets):
        raise ValueError("need one weight, seed, log stream and step budget per policy")
    if max(budgets) > total_steps:
        raise ValueError("a member's step budget exceeds total_steps")
    weights = np.stack([check_weight(w, env.spec.d) for w in weights])
    layout = thetas[0].layout
    n_batches = [steps_taken(steps, cfg) // cfg.steps_per_batch for steps in budgets]
    results: list[ParameterVector | DivergenceError] = [t.copy() for t in thetas]
    members = [m for m, n in enumerate(n_batches) if n > 0]  # member of each stack row
    if not members:
        return results
    stack = ParameterVector(np.stack([thetas[m].data for m in members]), layout)
    weights = weights[members]
    rngs = [np.random.default_rng(np.random.SeedSequence(seeds[m])) for m in members]
    optimizer = Adam(stack.data.shape, cfg.learning_rate)
    carry = None
    for batch_index in range(max(n_batches)):
        buffer, carry = collect_rollout(stack, env, weights, cfg, rngs, carry)
        stack, errors = ppo_update(stack, buffer, cfg, rngs, optimizer)
        # A diverged member, and one whose last batch this was, leaves here.
        keep = np.array([row not in errors and n_batches[m] > batch_index + 1 for row, m in enumerate(members)])
        for row, member in enumerate(members):
            if row in errors:
                results[member] = errors[row]
                continue
            if not keep[row]:
                results[member] = ParameterVector(stack.data[row].copy(), layout)
            if logs[member] is not None:
                mean_ep = float(buffer.scalar_rewards[row].sum() / max(1, buffer.dones[row].sum()))
                residual = float(np.mean((buffer.value_estimates[row] - buffer.returns[row]) ** 2))
                logs[member].write(
                    f"steps={(batch_index + 1) * cfg.steps_per_batch} "
                    f"scalar_return_per_episode={mean_ep:.4f} "
                    f"value_residual={residual:.4f}\n"
                )
        optimizer.keep_rows(keep)
        stack = ParameterVector(stack.data[keep], layout)
        members = [m for m, k in zip(members, keep) if k]
        rngs = [g for g, k in zip(rngs, keep) if k]
        weights = weights[keep]
        carry = (carry[0][keep], carry[1])
        if not members:
            break
    return results


def init_actor_critic(env: VectorRewardEnv, seed: int, hidden: tuple[int, ...] = (64, 64)) -> ParameterVector:
    """Fresh flat actor-critic parameters for an environment.

    Weights are drawn N(0, 1/fan_in), layer by layer, the actor's before
    the critic's; the actor's output layer is scaled by a further 0.01 so
    untrained mean actions sit near zero. Biases and log stds are zero.
    """
    sizes = (env.spec.obs_dim, *hidden)
    layout = policy_layout((*sizes, env.spec.act_dim), (*sizes, 1))
    theta = ParameterVector(np.zeros(layout.size), layout)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nets = unflatten(theta)
    for net, out_scale in ((nets.actor, 0.01), (nets.critic, 1.0)):
        for i, w in enumerate(net.weights):
            scale = 1.0 / np.sqrt(w.shape[0])
            if i == len(net.weights) - 1:
                scale *= out_scale
            w[...] = rng.normal(0.0, scale, size=w.shape)
    return theta
