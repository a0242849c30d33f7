import numpy as np
import pytest

from morlext.envs import DualGoal, SpeedEnergy
from morlext.policy import (
    ActorCritic,
    GaussianPolicy,
    MlpSpec,
    ParameterVector,
    default_specs,
    evaluate_returns,
    flatten,
    gaussian_log_prob,
    unflatten,
)


def random_policy(spec, seed=0, log_std_init=0.0):
    return GaussianPolicy.init(spec, np.random.default_rng(seed), log_std_init)


def test_flatten_size_small_net():
    # [2, 4, 1]: (2*4+4) + (4*1+1) + 1 log_std = 18
    spec = MlpSpec((2, 4, 1))
    theta = flatten(random_policy(spec))
    assert theta.data.shape == (18,)


def test_flatten_unflatten_roundtrip_bit_exact():
    spec = MlpSpec((3, 8, 5, 2))
    policy = random_policy(spec, seed=4)
    theta = flatten(policy)
    back = unflatten(theta)
    assert isinstance(back, GaussianPolicy)
    theta2 = flatten(back)
    assert np.array_equal(theta.data, theta2.data)
    obs = np.random.default_rng(1).normal(size=(6, 3))
    assert np.array_equal(policy.mean_net.forward(obs), back.mean_net.forward(obs))


def test_flatten_actor_critic_roundtrip():
    actor_spec, critic_spec = default_specs(4, 2, hidden=(8, 8))
    ac = ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(2))
    theta = flatten(ac)
    back = unflatten(theta)
    assert np.array_equal(flatten(back).data, theta.data)


def test_single_weight_change_single_coordinate():
    spec = MlpSpec((2, 4, 1))
    policy = random_policy(spec, seed=7)
    theta_a = flatten(policy)
    policy.mean_net.weights[0][1, 2] += 0.25
    theta_b = flatten(policy)
    assert int(np.sum(theta_a.data != theta_b.data)) == 1


def test_zero_vector_gives_zero_mean_policy():
    spec = MlpSpec((3, 4, 2))
    layout = flatten(random_policy(spec)).layout
    zero = unflatten(ParameterVector(np.zeros(layout.size), layout))
    obs = np.random.default_rng(0).normal(size=(5, 3))
    assert np.allclose(zero.mean_net.forward(obs), 0.0)


def test_log_prob_of_mean_unit_std():
    # Closed-form Gaussian density at its mean with std=1, one dim.
    spec = MlpSpec((2, 4, 1))
    policy = random_policy(spec, seed=0, log_std_init=0.0)
    obs = np.array([[0.3, -0.7]])
    mean = policy.mean_net.forward(obs)
    logp = gaussian_log_prob(mean, mean, policy.log_std)[0]
    assert logp == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_evaluate_zero_policy_dual_goal():
    env = DualGoal()
    actor_spec, critic_spec = default_specs(env.spec.obs_dim, env.spec.act_dim, hidden=(8, 8))
    layout = flatten(ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(0))).layout
    zero = ParameterVector(np.zeros(layout.size), layout)
    result = evaluate_returns(zero, env, episodes=4, seed=5)
    assert np.allclose(result.values, [0.0, 0.0], atol=1e-12)


def test_evaluate_full_throttle_speed_energy():
    # Constant action 1 for 100 steps: energy objective totals -100.
    env = SpeedEnergy(horizon=100)
    actor_spec, critic_spec = default_specs(env.spec.obs_dim, env.spec.act_dim, hidden=(8, 8))
    layout = flatten(ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(0))).layout
    theta = ParameterVector(np.zeros(layout.size), layout)
    theta.block("actor.b1")[...] = 5.0  # saturates nothing: output layer bias below
    theta.block(f"actor.b{actor_spec.n_layers - 1}")[...] = 1.0
    result = evaluate_returns(theta, env, episodes=3, seed=2)
    assert result.values[1] == pytest.approx(-100.0)


def test_evaluate_deterministic_is_pure():
    env = DualGoal()
    actor_spec, critic_spec = default_specs(env.spec.obs_dim, env.spec.act_dim)
    theta = flatten(ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(9)))
    a = evaluate_returns(theta, env, episodes=2, seed=31)
    b = evaluate_returns(theta, env, episodes=2, seed=31)
    assert np.array_equal(a.values, b.values)
    assert a.episodes_averaged == 2


def test_evaluation_noise_shrinks_with_episodes():
    env = DualGoal()
    actor_spec, critic_spec = default_specs(env.spec.obs_dim, env.spec.act_dim, hidden=(16, 16))
    theta = flatten(ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(1)))
    est_1 = [evaluate_returns(theta, env, 1, seed=s, deterministic=False).values for s in range(24)]
    est_64 = [evaluate_returns(theta, env, 64, seed=s, deterministic=False).values for s in range(24)]
    std_1 = np.std(np.stack(est_1), axis=0)
    std_64 = np.std(np.stack(est_64), axis=0)
    assert np.all(std_64 < std_1)


def test_actor_from_vector_matches_unflatten():
    actor_spec, critic_spec = default_specs(4, 2)
    theta = flatten(ActorCritic.init(actor_spec, critic_spec, np.random.default_rng(3)))
    actor = GaussianPolicy.from_vector(theta)
    obs = np.random.default_rng(0).normal(size=(3, 4))
    full = unflatten(theta)
    assert np.array_equal(actor.mean_net.forward(obs), full.policy.mean_net.forward(obs))


def per_policy_returns(theta, env, episodes, seed, deterministic=True):
    """Reference: one policy at a time, a 2-D network pass per step."""
    policy = GaussianPolicy.from_vector(theta)
    rng = np.random.default_rng(seed)
    obs = env.reset_batch(episodes, rng)
    totals = np.zeros((episodes, env.spec.d))
    std = np.exp(policy.log_std)
    for _ in range(env.spec.horizon):
        means = policy.mean_net.forward(obs)
        actions = means if deterministic else means + std * rng.standard_normal(means.shape)
        obs, rewards = env.step_batch(obs, actions)
        totals += rewards
    return totals.mean(axis=0)


def perturbed_policies(env, n, seed=0):
    """n default-shape actor-critics with weights large enough to act."""
    rng = np.random.default_rng(seed)
    actor_spec, critic_spec = default_specs(env.spec.obs_dim, env.spec.act_dim)
    thetas = []
    for _ in range(n):
        theta = flatten(ActorCritic.init(actor_spec, critic_spec, rng))
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
