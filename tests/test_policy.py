import numpy as np
import pytest

from morlext.envs import DualGoal, SpeedEnergy
from morlext.policy import ParameterVector, evaluate_returns, gaussian_log_prob, unflatten
from morlext.ppo import init_actor_critic


def test_layout_size_small_net():
    # actor [2, 4, 1]: (2*4+4) + (4*1+1) + 1 log_std = 18; critic [2, 4, 1]: 17
    theta = init_actor_critic(SpeedEnergy(), 0, hidden=(4,))
    assert theta.data.shape == (35,)


def test_single_weight_change_single_coordinate():
    theta = init_actor_critic(DualGoal(), 7, hidden=(8, 8))
    before = theta.data.copy()
    unflatten(theta).actor.weights[0][1, 2] += 0.25
    assert int(np.sum(theta.data != before)) == 1


def test_stack_views_are_stacked_networks():
    env = DualGoal()
    thetas = [init_actor_critic(env, seed, hidden=(8, 6)) for seed in (3, 4, 5)]
    stack = ParameterVector(np.stack([t.data for t in thetas]), thetas[0].layout)
    nets = unflatten(stack)
    assert [w.shape for w in nets.actor.weights] == [(3, 4, 8), (3, 8, 6), (3, 6, 2)]
    assert [b.shape for b in nets.critic.biases] == [(3, 8), (3, 6), (3, 1)]
    assert nets.log_std.shape == (3, 2)
    obs = np.random.default_rng(0).normal(size=(3, 5, 4))
    means = nets.actor.forward(obs)
    values = nets.critic.forward(obs)
    for k, theta in enumerate(thetas):
        alone = unflatten(theta)
        assert np.array_equal(means[k], alone.actor.forward(obs[k]))
        assert np.array_equal(values[k], alone.critic.forward(obs[k]))


def test_zero_vector_gives_zero_mean_policy():
    layout = init_actor_critic(DualGoal(), 0, hidden=(4,)).layout
    zero = unflatten(ParameterVector(np.zeros(layout.size), layout))
    obs = np.random.default_rng(0).normal(size=(5, 4))
    assert np.allclose(zero.actor.forward(obs), 0.0)


def test_log_prob_of_mean_unit_std():
    # Closed-form Gaussian density at its mean with std=1, one dim.
    nets = unflatten(init_actor_critic(SpeedEnergy(), 0, hidden=(4,)))
    obs = np.array([[0.3, -0.7]])
    mean = nets.actor.forward(obs)
    logp = gaussian_log_prob(mean, mean, nets.log_std)[0]
    assert logp == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_evaluate_zero_policy_dual_goal():
    env = DualGoal()
    layout = init_actor_critic(env, 0, hidden=(8, 8)).layout
    zero = ParameterVector(np.zeros(layout.size), layout)
    result = evaluate_returns(zero, env, episodes=4, seed=5)
    assert np.allclose(result.values, [0.0, 0.0], atol=1e-12)


def test_evaluate_full_throttle_speed_energy():
    # Constant action 1 for 100 steps: energy objective totals -100.
    env = SpeedEnergy(horizon=100)
    layout = init_actor_critic(env, 0, hidden=(8, 8)).layout
    theta = ParameterVector(np.zeros(layout.size), layout)
    theta.block("actor.b1")[...] = 5.0  # saturates nothing: output layer bias below
    theta.block("actor.b2")[...] = 1.0
    result = evaluate_returns(theta, env, episodes=3, seed=2)
    assert result.values[1] == pytest.approx(-100.0)


def test_evaluate_deterministic_is_pure():
    env = DualGoal()
    theta = init_actor_critic(env, 9)
    a = evaluate_returns(theta, env, episodes=2, seed=31)
    b = evaluate_returns(theta, env, episodes=2, seed=31)
    assert np.array_equal(a.values, b.values)
    assert a.episodes_averaged == 2


def test_evaluation_noise_shrinks_with_episodes():
    env = DualGoal()
    theta = init_actor_critic(env, 1, hidden=(16, 16))
    est_1 = [evaluate_returns(theta, env, 1, seed=s, deterministic=False).values for s in range(24)]
    est_64 = [evaluate_returns(theta, env, 64, seed=s, deterministic=False).values for s in range(24)]
    std_1 = np.std(np.stack(est_1), axis=0)
    std_64 = np.std(np.stack(est_64), axis=0)
    assert np.all(std_64 < std_1)


def per_policy_returns(theta, env, episodes, seed, deterministic=True):
    """Reference: one policy at a time, a 2-D network pass per step."""
    nets = unflatten(theta)
    rng = np.random.default_rng(seed)
    obs = env.reset_batch(episodes, rng)
    totals = np.zeros((episodes, env.spec.d))
    std = np.exp(nets.log_std)
    for _ in range(env.spec.horizon):
        means = nets.actor.forward(obs)
        actions = means if deterministic else means + std * rng.standard_normal(means.shape)
        obs, rewards = env.step_batch(obs, actions)
        totals += rewards
    return totals.mean(axis=0)


def perturbed_policies(env, n, seed=0):
    """n default-shape actor-critics with weights large enough to act."""
    rng = np.random.default_rng(seed)
    thetas = []
    for _ in range(n):
        theta = init_actor_critic(env, int(rng.integers(2**31)))
        theta.data += 0.3 * rng.standard_normal(theta.data.shape)
        thetas.append(theta)
    return thetas


@pytest.mark.parametrize("env_cls", [DualGoal, SpeedEnergy])
@pytest.mark.parametrize("episodes", [8, 32])
def test_batched_evaluation_equals_per_policy_loop(env_cls, episodes):
    env = env_cls()
    thetas = perturbed_policies(env, 130)
    batched = evaluate_returns(thetas, env, episodes, seed=17)
    assert len(batched) == len(thetas)
    for theta, got in zip(thetas, batched):
        assert np.array_equal(got.values, per_policy_returns(theta, env, episodes, 17))
        assert got.episodes_averaged == episodes
    single = evaluate_returns(thetas[5], env, episodes, seed=17)
    assert np.array_equal(single.values, batched[5].values)


@pytest.mark.parametrize("env_cls", [DualGoal, SpeedEnergy])
def test_stochastic_evaluation_unchanged_and_shared_by_a_batch(env_cls):
    env = env_cls()
    thetas = perturbed_policies(env, 3, seed=4)
    single = evaluate_returns(thetas[0], env, 8, seed=23, deterministic=False)
    assert np.array_equal(single.values, per_policy_returns(thetas[0], env, 8, 23, deterministic=False))
    batched = evaluate_returns(thetas, env, 8, seed=23, deterministic=False)
    for theta, got in zip(thetas, batched):
        assert np.array_equal(got.values, per_policy_returns(theta, env, 8, 23, deterministic=False))
