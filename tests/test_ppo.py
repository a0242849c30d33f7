import hashlib

import numpy as np
import pytest

from morlext.envs import DualGoal, SpeedEnergy, VectorRewardEnv, EnvSpec
from morlext.ppo import (
    Adam,
    PpoConfig,
    UpdateViews,
    collect_rollout,
    compute_gae,
    init_actor_critic,
    loss_and_grad,
    ppo_update,
    train,
)


def small_cfg(**overrides):
    defaults = dict(steps_per_batch=128, minibatches=8, epochs=3)
    defaults.update(overrides)
    return PpoConfig(**defaults)


# ---------------------------------------------------------------------------
# GAE


def test_gae_lambda_zero_is_one_step_td():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 1.0, -0.5])
    dones = np.array([False, False, False])
    adv, ret = compute_gae(rewards, values, dones, gamma=0.9, lam=0.0, bootstrap_value=2.0)
    deltas = rewards + 0.9 * np.array([1.0, -0.5, 2.0]) - values
    assert np.allclose(adv, deltas)
    assert np.allclose(ret, adv + values)


def test_gae_monte_carlo_limit():
    rewards = np.array([1.0, 2.0, 3.0, 4.0])
    zeros = np.zeros(4)
    adv, _ = compute_gae(rewards, zeros, np.zeros(4, dtype=bool), gamma=1.0, lam=1.0)
    assert np.allclose(adv, [10.0, 9.0, 7.0, 4.0])  # suffix sums


def test_gae_two_step_hand_recursion():
    # delta = (1, 1); adv_1 = 1, adv_0 = 1 + 0.5*0.5*1 = 1.25
    adv, ret = compute_gae(
        np.array([1.0, 1.0]),
        np.array([0.0, 0.0]),
        np.array([False, False]),
        gamma=0.5,
        lam=0.5,
        bootstrap_value=0.0,
    )
    assert np.allclose(adv, [1.25, 1.0])
    assert np.allclose(ret, [1.25, 1.0])


def test_gae_resets_at_episode_boundary():
    rewards = np.array([1.0, 1.0, 1.0])
    values = np.zeros(3)
    dones = np.array([False, True, False])
    adv, _ = compute_gae(rewards, values, dones, gamma=1.0, lam=1.0, bootstrap_value=5.0)
    # Episode break after t=1: t=2 bootstraps, t<=1 do not see it.
    assert np.allclose(adv, [2.0, 1.0, 6.0])


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        compute_gae(np.zeros(3), np.zeros(2), np.zeros(3, dtype=bool), 0.9, 0.9)


# ---------------------------------------------------------------------------
# Loss gradient


def frozen_minibatch(env, theta, n=32, seed=0):
    """A fixed batch with old log probs offset so clipping is exercised."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, env.spec.obs_dim))
    actions = rng.normal(size=(n, env.spec.act_dim))
    from morlext.policy import unflatten, gaussian_log_prob

    model = unflatten(theta)
    means = model.actor.forward(obs)
    logp = gaussian_log_prob(actions, means, model.log_std)
    logp_old = logp + rng.normal(scale=0.3, size=n)  # spreads ratios past the clip range
    advantages = rng.normal(size=n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    returns = rng.normal(size=n)
    return obs, actions, logp_old, advantages, returns


def test_gradient_matches_finite_differences():
    env = DualGoal()
    theta = init_actor_critic(env, seed=123, hidden=(16, 16))
    cfg = PpoConfig()
    obs, actions, logp_old, advantages, returns = frozen_minibatch(env, theta)

    def loss_at(vec):
        from morlext.policy import ParameterVector

        loss, _ = loss_and_grad(
            UpdateViews(ParameterVector(vec, theta.layout)),
            obs, actions, logp_old, advantages, returns, cfg,
        )
        return loss

    _, grad = loss_and_grad(
        UpdateViews(theta), obs, actions, logp_old, advantages, returns, cfg
    )
    rng = np.random.default_rng(7)
    coords = rng.choice(theta.layout.size, size=100, replace=False)
    ok = 0
    for c in coords:
        h = 1e-5 * max(1.0, abs(theta.data[c]))
        plus = theta.data.copy()
        plus[c] += h
        minus = theta.data.copy()
        minus[c] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
        denom = max(abs(fd), abs(grad[c]), 1e-8)
        if abs(fd - grad[c]) / denom <= 1e-4:
            ok += 1
    assert ok >= 95


def test_clipping_actually_active_in_frozen_batch():
    env = DualGoal()
    theta = init_actor_critic(env, seed=123, hidden=(16, 16))
    obs, actions, logp_old, _, _ = frozen_minibatch(env, theta)
    from morlext.policy import unflatten, gaussian_log_prob

    model = unflatten(theta)
    ratios = np.exp(
        gaussian_log_prob(actions, model.actor.forward(obs), model.log_std)
        - logp_old
    )
    assert np.any(ratios > 1.2) and np.any(ratios < 0.8)


# ---------------------------------------------------------------------------
# Updates


def stack_of_one(theta):
    """`theta` as a (1, P) stack."""
    from morlext.policy import ParameterVector

    return ParameterVector(theta.data[None], theta.layout)


def make_buffer(env, theta, cfg, seed=0):
    rng = np.random.default_rng(seed)
    buf, _ = collect_rollout(stack_of_one(theta), env, np.array([[0.5, 0.5]]), cfg, [rng], None)
    return buf


def test_update_lr_zero_is_identity():
    env = DualGoal()
    theta = init_actor_critic(env, seed=1, hidden=(8, 8))
    cfg = small_cfg()
    buf = make_buffer(env, theta, cfg)
    # PpoConfig rejects learning_rate=0, so the zero-step optimizer is passed in.
    zero_lr = Adam((1, theta.layout.size), lr=0.0)
    out, errors = ppo_update(stack_of_one(theta), buf, cfg, [np.random.default_rng(0)], zero_lr)
    assert errors == {}
    assert np.array_equal(out.data[0], theta.data)


def test_update_zero_advantages_only_moves_critic():
    env = DualGoal()
    theta = init_actor_critic(env, seed=2, hidden=(8, 8))
    cfg = small_cfg()
    buf = make_buffer(env, theta, cfg)
    buf.advantages[:] = 0.0
    adam = Adam((1, theta.layout.size), cfg.learning_rate)
    out, _ = ppo_update(stack_of_one(theta), buf, cfg, [np.random.default_rng(0)], adam)
    offsets = theta.layout.offsets()
    for key, _ in theta.layout.entries:
        start, end, _ = offsets[key]
        same = np.array_equal(out.data[0, start:end], theta.data[start:end])
        if key.startswith("actor"):
            assert same, f"{key} moved with zero advantages"
        else:
            assert not same, f"{key} did not move"


def test_update_does_not_mutate_input():
    env = DualGoal()
    theta = init_actor_critic(env, seed=3, hidden=(8, 8))
    snapshot = theta.data.copy()
    cfg = small_cfg()
    buf = make_buffer(env, theta, cfg)
    stack = stack_of_one(theta)
    ppo_update(stack, buf, cfg, [np.random.default_rng(0)], Adam(stack.data.shape, cfg.learning_rate))
    assert np.array_equal(stack.data[0], snapshot)
    assert np.array_equal(theta.data, snapshot)


def test_adam_zero_grad_zero_step():
    opt = Adam((1, 4), lr=0.1)
    params = np.ones((1, 4))
    opt.step(params, np.zeros((1, 4)))
    assert np.array_equal(params, np.ones((1, 4)))


def test_adam_step_equals_textbook_formula_bit_for_bit():
    """The in-place step, which writes its numerator into the spent
    gradient, rounds exactly like the textbook update with temporaries."""
    from morlext.ppo import ADAM_BETA1 as b1
    from morlext.ppo import ADAM_BETA2 as b2
    from morlext.ppo import ADAM_EPS as eps

    rng = np.random.default_rng(5)
    params = rng.standard_normal((3, 50))
    expected = params.copy()
    m = v = np.zeros(params.shape)
    adam = Adam(params.shape, lr=0.01)
    for t in range(1, 6):
        grad = rng.standard_normal(params.shape)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * (grad * grad)
        expected = expected - 0.01 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        adam.step(params, grad)
        assert np.array_equal(params, expected)


def test_non_finite_loss_reports_divergence():
    from morlext.ppo import DivergenceError

    env = DualGoal()
    theta = init_actor_critic(env, seed=11, hidden=(8, 8))
    cfg = small_cfg()
    buf = make_buffer(env, theta, cfg)
    buf.returns[:] = np.inf  # poisons the value loss
    adam = Adam((1, theta.layout.size), cfg.learning_rate)
    with np.errstate(invalid="ignore"):
        out, errors = ppo_update(stack_of_one(theta), buf, cfg, [np.random.default_rng(0)], adam)
    assert set(errors) == {0}
    assert isinstance(errors[0], DivergenceError)
    # The first non-finite loss is recorded, not a later one of the NaN row.
    assert str(errors[0]) == "non-finite PPO loss (inf)"
    # The row stays in the stack; `train` drops it after the batch.
    assert out.data.shape == (1, theta.layout.size)


def test_loss_and_grad_returns_non_finite_stacked_loss():
    from morlext.policy import ParameterVector

    env = DualGoal()
    cfg = PpoConfig()
    thetas = [init_actor_critic(env, seed=s, hidden=(16, 16)) for s in (12, 13)]
    stack = ParameterVector(np.stack([t.data for t in thetas]), thetas[0].layout)
    batches = [frozen_minibatch(env, t, seed=k) for k, t in enumerate(thetas)]
    obs, actions, logp_old, advantages, returns = (np.stack(parts) for parts in zip(*batches))
    returns[1] = np.inf
    with np.errstate(invalid="ignore"):
        loss, grad = loss_and_grad(UpdateViews(stack), obs, actions, logp_old, advantages, returns, cfg)
    assert loss.shape == (2,) and np.isposinf(loss[1])
    alone_loss, alone_grad = loss_and_grad(UpdateViews(thetas[0]), *batches[0], cfg)
    assert loss[0] == alone_loss
    assert np.array_equal(grad[0], alone_grad)


# ---------------------------------------------------------------------------
# Training loop


@pytest.mark.parametrize("env_cls, seed, hidden, digest", [
    (DualGoal, 0, (64, 64), "54c3651748d4ea371319cf1579e5186034a5d3cfd655862aaf8f59d409a84322"),
    (DualGoal, 90, (8, 8), "d4fe4647a2c8f3fa752d59d2afcbf14409c2b230f18f907c0bc3742d6200f8e6"),
    (SpeedEnergy, 0, (64, 64), "2eb44d8b7a8e4fb6a7f9007e77f03824cb92b46ff6c3f25f5f3bf67525b8fff4"),
    (SpeedEnergy, 90, (8, 8), "6b85f2b42702528d72251815fd6994e355c410f5b536d5098cb815af909dbf57"),
])
def test_init_actor_critic_bytes_are_pinned(env_cls, seed, hidden, digest):
    """Every run starts from these vectors, so a change to the draws or
    their order would change every run directory."""
    theta = init_actor_critic(env_cls(), seed, hidden)
    assert hashlib.sha256(theta.data.tobytes()).hexdigest() == digest


def test_train_zero_steps_identity():
    env = SpeedEnergy()
    theta = init_actor_critic(env, seed=4, hidden=(8, 8))
    out = train([theta], env, [np.array([1.0, 0.0])], 0, small_cfg(), [0], [None])[0]
    assert np.array_equal(out.data, theta.data)


def test_train_deterministic():
    env = DualGoal()
    theta = init_actor_critic(env, seed=5, hidden=(8, 8))
    cfg = small_cfg()
    w = np.array([0.5, 0.5])
    a = train([theta], env, [w], 3 * cfg.steps_per_batch, cfg, [77], [None])[0]
    b = train([theta], env, [w], 3 * cfg.steps_per_batch, cfg, [77], [None])[0]
    assert np.array_equal(a.data, b.data)


def test_train_consumes_whole_batches_only():
    env = DualGoal()
    theta = init_actor_critic(env, seed=6, hidden=(8, 8))
    cfg = small_cfg()
    out_partial = train([theta], env, [np.array([0.5, 0.5])], cfg.steps_per_batch - 1, cfg, [0], [None])[0]
    assert np.array_equal(out_partial.data, theta.data)


def test_scalarization_consistency_single_objective_wrapper():
    """Training with w=(1,0) is trajectory-identical to a wrapper exposing R1."""

    class FirstObjectiveOnly(VectorRewardEnv):
        def __init__(self, inner):
            self.inner = inner
            s = inner.spec
            self.spec = EnvSpec(
                name=s.name + "_r1", obs_dim=s.obs_dim, act_dim=s.act_dim, d=1, horizon=s.horizon
            )

        def _initial_obs(self, n, rng):
            return self.inner._initial_obs(n, rng)

        def _advance(self, obs, actions):
            next_obs, rewards = self.inner._advance(obs, actions)
            return next_obs, rewards[:, :1]

    env = DualGoal()
    theta = init_actor_critic(env, seed=7, hidden=(8, 8))
    cfg = small_cfg()
    full = train([theta], env, [np.array([1.0, 0.0])], 2 * cfg.steps_per_batch, cfg, [9], [None])[0]
    wrapped = train([theta], FirstObjectiveOnly(DualGoal()), [np.array([1.0])], 2 * cfg.steps_per_batch, cfg, [9],
                    [None])[0]
    assert np.array_equal(full.data, wrapped.data)


@pytest.mark.slow
def test_opposite_preferences_learn_opposite_tradeoffs():
    """Policies trained under opposite vertex weights each beat the other
    on their own favored objective."""
    from morlext.policy import evaluate_returns
    from morlext.seeding import derive_seed

    cfg = PpoConfig()
    env = DualGoal()
    theta0 = init_actor_critic(env, derive_seed(0, "net"))
    # Both runs as one stack; each member trains as it would alone.
    east, north = train(
        [theta0, theta0], env, [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 100_000, cfg,
        [derive_seed(0, "east"), derive_seed(0, "north")], [None, None],
    )
    v_east = evaluate_returns(stack_of_one(east), env, 32, seed=7)[0]
    v_north = evaluate_returns(stack_of_one(north), env, 32, seed=7)[0]
    assert v_east[0] > v_north[0]
    assert v_north[1] > v_east[1]


def test_interaction_accounting_within_one_batch():
    counted = {"n": 0}

    class CountingEnv(DualGoal):
        def step_batch(self, obs, actions):
            counted["n"] += obs.shape[0]
            return super().step_batch(obs, actions)

    env = CountingEnv()
    theta = init_actor_critic(env, seed=8, hidden=(8, 8))
    cfg = small_cfg()
    requested = 3 * cfg.steps_per_batch + 57
    train([theta], env, [np.array([0.5, 0.5])], requested, cfg, [0], [None])
    assert counted["n"] == 3 * cfg.steps_per_batch
    assert requested - counted["n"] < cfg.steps_per_batch


# ---------------------------------------------------------------------------
# Bit-identity with a textbook reference loop


def _reference_grad(theta, obs, actions, logp_old, advantages, returns, cfg):
    """The PPO gradient with fresh views, allocating backprop and a packed vector."""
    from morlext.policy import gaussian_log_prob, unflatten

    actor, log_std, critic = unflatten(theta)
    n = obs.shape[0]
    means, actor_acts = actor.forward_cached(obs)
    inv_var = 1.0 / np.exp(log_std) ** 2
    ratios = np.exp(gaussian_log_prob(actions, means, log_std) - logp_old)
    clipped = np.clip(ratios, 1.0 - cfg.clip, 1.0 + cfg.clip)
    use_unclipped = ratios * advantages <= clipped * advantages
    grad_logp = -(np.where(use_unclipped, advantages, 0.0) * ratios) / n
    diff = actions - means
    grad_log_std = np.sum(grad_logp[:, None] * (diff**2 * inv_var - 1.0), axis=0)
    grad_log_std -= cfg.entropy_coeff
    values, critic_acts = critic.forward_cached(obs)
    grad_values = (2.0 * cfg.value_coeff / n) * (values[:, 0] - returns)

    def backward(net, delta, acts):
        blocks = []
        for i in range(len(net.weights) - 1, -1, -1):
            blocks = [acts[i].T @ delta, delta.sum(axis=0)] + blocks
            if i > 0:
                delta = (delta @ net.weights[i].T) * (1.0 - acts[i] ** 2)
        return blocks

    blocks = (
        backward(actor, grad_logp[:, None] * diff * inv_var, actor_acts)
        + [grad_log_std]
        + backward(critic, grad_values[:, None], critic_acts)
    )
    return np.concatenate([b.reshape(-1) for b in blocks])


def _reference_train(theta, env, weight, total_steps, cfg, seed):
    """PPO as textbook code: per-step log probs, one-shot value pass,
    per-call unflatten and the allocating Adam formula."""
    from morlext.policy import gaussian_log_prob, unflatten

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = np.zeros(theta.layout.size)
    v = np.zeros(theta.layout.size)
    t = 0
    obs, step_index = env.reset_batch(1, rng)[0], 0
    theta = theta.copy()
    n = cfg.steps_per_batch
    for _ in range(total_steps // n):
        model = unflatten(theta)
        log_std = model.log_std
        obs_buf, act_buf = np.empty((n, env.spec.obs_dim)), np.empty((n, env.spec.act_dim))
        logp_buf, rew_buf, done_buf = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        for i in range(n):
            mean = model.actor.forward(obs[None, :])[0]
            action = mean + np.exp(log_std) * rng.standard_normal(env.spec.act_dim)
            logp_buf[i] = gaussian_log_prob(action[None, :], mean[None, :], log_std)[0]
            next_obs, rewards = env.step_batch(obs[None, :], action[None, :])
            step_index += 1
            obs_buf[i], act_buf[i] = obs, action
            rew_buf[i] = rewards[0] @ weight
            done_buf[i] = step_index >= env.spec.horizon
            if done_buf[i]:
                obs, step_index = env.reset_batch(1, rng)[0], 0
            else:
                obs = next_obs[0]
        values = model.critic.forward(obs_buf)[:, 0]
        bootstrap = 0.0 if done_buf[-1] else float(model.critic.forward(obs[None, :])[0, 0])
        adv, ret = compute_gae(rew_buf, values, done_buf, cfg.gamma, cfg.gae_lambda, bootstrap)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        mb_size = max(1, n // cfg.minibatches)
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, mb_size):
                idx = order[start : start + mb_size]
                grad = _reference_grad(
                    theta, obs_buf[idx], act_buf[idx],
                    logp_buf[idx], adv[idx], ret[idx], cfg,
                )
                norm = float(np.linalg.norm(grad))
                if norm > cfg.max_grad_norm > 0:
                    grad = grad * (cfg.max_grad_norm / norm)
                t += 1
                m = 0.9 * m + (1.0 - 0.9) * grad
                v = 0.999 * v + (1.0 - 0.999) * grad**2
                m_hat = m / (1.0 - 0.9**t)
                v_hat = v / (1.0 - 0.999**t)
                theta.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return theta


def test_train_bit_identical_to_textbook_reference():
    env = DualGoal()
    theta = init_actor_critic(env, seed=21)  # default (64, 64) actor-critic
    cfg = PpoConfig()
    w = np.array([0.3, 0.7])
    steps = 3 * cfg.steps_per_batch
    out = train([theta], env, [w], steps, cfg, [5], [None])[0]
    ref = _reference_train(theta, env, w, steps, cfg, seed=5)
    assert not np.array_equal(out.data, theta.data)
    assert np.array_equal(out.data, ref.data)


def test_loss_and_grad_result_survives_next_call():
    env = DualGoal()
    theta = init_actor_critic(env, seed=22, hidden=(16, 16))
    cfg = PpoConfig()
    first = frozen_minibatch(env, theta, seed=0)
    _, grad = loss_and_grad(UpdateViews(theta), *first, cfg)
    kept = grad.copy()
    assert np.array_equal(kept, _reference_grad(theta, *first, cfg))
    _, other = loss_and_grad(UpdateViews(theta), *frozen_minibatch(env, theta, seed=1), cfg)
    assert not np.array_equal(other, kept)
    assert np.array_equal(grad, kept)


# ---------------------------------------------------------------------------
# Lockstep stacks


def stack_members(env, n=3):
    """Start vectors, weights and seeds that differ in every member."""
    thetas = [init_actor_critic(env, seed=30 + k) for k in range(n)]
    weights = [np.array([1.0, 0.0]), np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.0, 1.0]),
               np.array([0.8, 0.2])][:n]
    return thetas, weights, [40 + k for k in range(n)]


def test_stack_equals_single_runs_bit_for_bit():
    import io

    env = DualGoal()
    cfg = small_cfg()
    steps = 3 * cfg.steps_per_batch
    thetas, weights, seeds = stack_members(env)
    logs = [io.StringIO() for _ in thetas]
    stacked = train(thetas, env, weights, steps, cfg, seeds, logs)
    assert len(stacked) == 3
    for theta, w, seed, got, log in zip(thetas, weights, seeds, stacked, logs):
        alone_log = io.StringIO()
        alone = train([theta], env, [w], steps, cfg, [seed], [alone_log])[0]
        assert not np.array_equal(got.data, theta.data)
        assert np.array_equal(got.data, alone.data)
        assert log.getvalue() == alone_log.getvalue() != ""
    ref = _reference_train(thetas[0], env, weights[0], steps, cfg, seeds[0])
    assert np.array_equal(stacked[0].data, ref.data)


def test_stack_member_with_inf_log_std_diverges_alone():
    from morlext.ppo import DivergenceError

    env = DualGoal()
    cfg = small_cfg()
    steps = 2 * cfg.steps_per_batch
    thetas, weights, seeds = stack_members(env)
    bad = thetas[1].copy()
    bad.block("actor.log_std")[:] = np.inf
    thetas[1] = bad
    with np.errstate(invalid="ignore"):
        stacked = train(thetas, env, weights, steps, cfg, seeds, [None] * 3)
        alone_err = train([bad], env, [weights[1]], steps, cfg, [seeds[1]], [None])[0]
    assert isinstance(alone_err, DivergenceError)
    assert isinstance(stacked[1], DivergenceError)
    assert str(stacked[1]) == str(alone_err)
    for k in (0, 2):
        alone = train([thetas[k]], env, [weights[k]], steps, cfg, [seeds[k]], [None])[0]
        assert np.array_equal(stacked[k].data, alone.data)


def test_mixed_budget_stack_equals_single_runs_bit_for_bit():
    import io

    env = DualGoal()
    cfg = small_cfg()
    batch = cfg.steps_per_batch
    budgets = [3 * batch, batch, 0, 2 * batch, batch - 1]
    thetas, weights, seeds = stack_members(env, n=5)
    logs = [io.StringIO() for _ in thetas]
    stacked = train(thetas, env, weights, 3 * batch, cfg, seeds, logs, member_steps=budgets)
    for theta, w, seed, steps, got, log in zip(thetas, weights, seeds, budgets, stacked, logs):
        if steps < batch:
            assert np.array_equal(got.data, theta.data)
            assert log.getvalue() == ""
            continue
        alone_log = io.StringIO()
        alone = train([theta], env, [w], steps, cfg, [seed], [alone_log])[0]
        assert np.array_equal(got.data, alone.data)
        assert log.getvalue() == alone_log.getvalue()
        assert len(log.getvalue().splitlines()) == steps // batch


def test_train_peak_memory_in_stack_units():
    """Training a stack of full-size networks peaks at about eight (C, P)
    arrays: the stack, the update's copy of it and the gradient, Adam's m,
    v and one scratch array, and two arrays' worth of 32-row minibatch
    activations. No start vector is copied beside the stack, which shrinks
    only in the batch where a member leaves."""
    import tracemalloc

    env = DualGoal()
    c = 8
    thetas = [init_actor_critic(env, seed=90 + k) for k in range(c)]  # (64, 64): P = 9,157
    cfg = PpoConfig(steps_per_batch=64, minibatches=2, epochs=1)  # 32-row minibatches, as by default
    batch = cfg.steps_per_batch
    budgets = [2 * batch] * (c - 1) + [batch]  # the last member leaves after one batch
    unit = c * thetas[0].data.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = train(thetas, env, [np.array([0.5, 0.5])] * c, 2 * batch, cfg, list(range(c)), [None] * c,
                    member_steps=budgets)
        peak = (tracemalloc.get_traced_memory()[1] - before) / unit
    finally:
        tracemalloc.stop()
    assert len(out) == c
    # A copy of every start vector, or a fourth Adam array, adds one array.
    assert peak < 9.0, f"peak {peak:.2f} (C, P) arrays"


def test_member_diverging_after_a_shorter_member_left(monkeypatch):
    """The second member's returns are poisoned at the third minibatch of
    its second batch, after the first member has left the stack and in the
    batch that the third member finishes."""
    import morlext.ppo as ppo
    from morlext.ppo import DivergenceError

    env = DualGoal()
    cfg = small_cfg()
    batch = cfg.steps_per_batch
    budgets = [batch, 3 * batch, 2 * batch, 3 * batch]
    thetas, weights, seeds = stack_members(env, n=4)
    real = ppo.loss_and_grad
    poison_at = cfg.epochs * cfg.minibatches + 3
    calls = []  # stack size at each loss_and_grad call

    def poisoned(views, obs, actions, log_probs_old, advantages, returns, cfg):
        calls.append(len(returns))
        if len(calls) == poison_at:
            returns[0] = np.inf  # stack row 0: the second member once the first has left
        return real(views, obs, actions, log_probs_old, advantages, returns, cfg)

    monkeypatch.setattr(ppo, "loss_and_grad", poisoned)
    with np.errstate(invalid="ignore"):
        stacked = train(thetas, env, weights, 3 * batch, cfg, seeds, [None] * 4, member_steps=budgets)
        assert calls[0] == 4 and calls[poison_at - 1] == 3
        calls.clear()
        alone_err = train([thetas[1]], env, [weights[1]], budgets[1], cfg, [seeds[1]], [None])[0]
    assert isinstance(alone_err, DivergenceError)
    assert isinstance(stacked[1], DivergenceError)
    assert str(stacked[1]) == str(alone_err)
    monkeypatch.setattr(ppo, "loss_and_grad", real)
    for k in (0, 2, 3):
        alone = train([thetas[k]], env, [weights[k]], budgets[k], cfg, [seeds[k]], [None])[0]
        assert np.array_equal(stacked[k].data, alone.data)


def test_member_steps_of_wrong_length_rejected():
    env = DualGoal()
    cfg = small_cfg()
    thetas, weights, seeds = stack_members(env)
    with pytest.raises(ValueError, match="step budget per policy"):
        train(thetas, env, weights, cfg.steps_per_batch, cfg, seeds, [None] * 3,
              member_steps=[cfg.steps_per_batch] * 2)
