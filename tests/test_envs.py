import numpy as np
import pytest

from morlext.envs import DualGoal, SpeedEnergy, make_env


def reset_one(env, seed):
    """Initial observation of one episode, a batch of one."""
    return env.reset_batch(1, np.random.default_rng(seed))


def step_one(env, obs, action):
    """One step of a batch-of-one episode: (next_obs, reward vector)."""
    next_obs, rewards = env.step_batch(obs, np.asarray(action, dtype=np.float64)[None, :])
    return next_obs, rewards[0]


def test_reset_same_seed_identical():
    env = DualGoal()
    assert np.array_equal(reset_one(env, 7), reset_one(env, 7))


def test_reset_different_seeds_differ():
    env = DualGoal()
    assert not np.array_equal(reset_one(env, 7), reset_one(env, 8))


def test_reset_observation_shape():
    env = SpeedEnergy()
    assert reset_one(env, 0).shape == (1, env.spec.obs_dim)


def test_dual_goal_zero_action_from_rest_zero_reward():
    env = DualGoal()
    _, reward = step_one(env, reset_one(env, 3), np.zeros(2))
    assert np.allclose(reward, [0.0, 0.0])


def test_speed_energy_control_cost_is_squared_action():
    env = SpeedEnergy()
    _, reward = step_one(env, reset_one(env, 0), np.array([1.0]))
    assert reward[1] == pytest.approx(-1.0)


def test_dual_goal_single_step_hand_evaluated():
    # One step from rest with a=(1,0), dt=0.05, no friction:
    # v' = (0.05, 0), R1 = 0.05 - c, R2 = -c.
    c = 0.05
    env = DualGoal(dt=0.05, friction=0.0, control_cost_coeff=c)
    _, reward = step_one(env, reset_one(env, 1), np.array([1.0, 0.0]))
    assert reward[0] == pytest.approx(0.05 * 1.0 - c * 1.0)
    assert reward[1] == pytest.approx(-c * 1.0)


def test_actions_clipped_not_rejected():
    env = SpeedEnergy()
    obs = reset_one(env, 0)
    _, r_big = step_one(env, obs, np.array([5.0]))
    _, r_one = step_one(env, obs, np.array([1.0]))
    assert np.allclose(r_big, r_one)


def test_trajectories_reproducible():
    env = DualGoal()
    actions = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    trajs = []
    for _ in range(2):
        obs = reset_one(env, 11)
        rows = []
        for a in actions:
            obs, r = step_one(env, obs, a)
            rows.append(np.concatenate([obs[0], r]))
        trajs.append(np.stack(rows))
    assert np.array_equal(trajs[0], trajs[1])


def test_make_env_registry():
    assert make_env("dual_goal").spec.name == "dual_goal"
    assert make_env("speed_energy").spec.obs_dim == 2
    with pytest.raises(ValueError):
        make_env("nope")


def test_batch_and_single_step_agree():
    # Rows are independent episodes: a batch of three steps like three batches of one.
    env = DualGoal()
    rng = np.random.default_rng(5)
    obs = env.reset_batch(3, rng)
    actions = rng.uniform(-1, 1, size=(3, 2))
    next_obs, rewards = env.step_batch(obs, actions)
    for i in range(3):
        next_one, r = step_one(env, obs[i : i + 1].copy(), actions[i])
        assert np.allclose(next_one[0], next_obs[i])
        assert np.allclose(r, rewards[i])
