"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with --capture=tee-sys or
-rA to see the lines for passing tests)."""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from morlext.distance import hungarian_distance, incoming_matrices
from morlext.envs import DualGoal, SpeedEnergy
from morlext.extension import LleConfig, run_pipeline
from morlext.pareto import expected_utility, hypervolume, sparsity
from morlext.policy import ParameterVector, evaluate_returns
from morlext.ppo import PpoConfig, UpdateViews, init_actor_critic, loss_and_grad, train
from morlext.quadratic import preset_error_curve
from morlext.seeding import derive_seed


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} ({detail})")


# ---------------------------------------------------------------------------
# 1. Metric oracles


def monte_carlo_hv(front, ref, n, seed):
    top = front.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(ref, top, size=(n, ref.shape[0]))
    covered = np.zeros(n, dtype=bool)
    for p in front:
        covered |= np.all(pts <= p, axis=1)
    return float(np.prod(top - ref) * covered.mean())


def test_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for trial in range(20):
        d = 2 if trial < 10 else 3
        front = rng.uniform(0.5, 4.0, size=(int(rng.integers(2, 10)), d))
        ref = np.zeros(d)
        exact = hypervolume(front, ref)
        mc = monte_carlo_hv(front, ref, n=1_000_000, seed=trial)
        worst_rel = max(worst_rel, abs(exact - mc) / mc)
    hv_ok = worst_rel <= 0.01

    staircase = hypervolume(np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]]), np.zeros(2))
    staircase_ok = staircase == 6.0

    eu = expected_utility(np.array([[1.0, 0.0], [0.0, 1.0]]), n_weights=1_000_000, seed=0)
    eu_ok = abs(eu - 0.75) <= 0.005

    sp = sparsity(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
    sp_ok = sp == 2.0

    ok = hv_ok and staircase_ok and eu_ok and sp_ok
    report(
        "metric oracles",
        ok,
        f"worst hv rel err {worst_rel:.4%}, staircase hv {staircase}, "
        f"eu {eu:.4f}, sp {sp}, {time.monotonic() - start:.0f}s",
    )
    assert hv_ok and staircase_ok and eu_ok and sp_ok


# ---------------------------------------------------------------------------
# 2. Hungarian distance


def brute_force_layer_cost(a, b):
    n = a.shape[0]
    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    perms = np.array(list(itertools.permutations(range(n))))
    return float(cost[np.arange(n)[None, :], perms].sum(axis=1).min())


def make_theta(seed, hidden=(7, 6)):
    return init_actor_critic(DualGoal(), seed, hidden)


def test_hungarian_distance_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    # zero on per-layer row-permuted copies, exactly
    zeros_ok = True
    for trial in range(10):
        theta = make_theta(trial)
        permuted = theta.copy()
        for prefix in ("actor", "critic"):
            for layer, mat in enumerate(incoming_matrices(theta, prefix)):
                perm = rng.permutation(mat.shape[0])
                w = permuted.block(f"{prefix}.W{layer}")
                b = permuted.block(f"{prefix}.b{layer}")
                w[...] = w[:, perm]
                b[...] = b[perm]
        total, _ = hungarian_distance(theta, permuted)
        zeros_ok &= total == 0.0

    # equals factorial brute force on 50 random pairs, exactly (fp-tolerant)
    brute_ok = True
    sym_ok = True
    for trial in range(50):
        a = make_theta(1000 + trial)
        b = make_theta(2000 + trial)
        total, _ = hungarian_distance(a, b)
        expected = sum(
            brute_force_layer_cost(la, lb)
            for prefix in ("actor", "critic")
            for la, lb in zip(incoming_matrices(a, prefix), incoming_matrices(b, prefix))
        )
        brute_ok &= abs(total - expected) <= 1e-9 * max(1.0, expected)
        sym_ok &= hungarian_distance(b, a)[0] == pytest.approx(total, abs=1e-9)

    ok = zeros_ok and brute_ok and sym_ok
    report(
        "hungarian distance",
        ok,
        f"permuted-copy zero {zeros_ok}, brute-force match {brute_ok}, "
        f"symmetric {sym_ok}, {time.monotonic() - start:.0f}s",
    )
    assert zeros_ok and brute_ok and sym_ok


# ---------------------------------------------------------------------------
# 3. PPO gradient check


def test_ppo_gradient_check():
    start = time.monotonic()
    env = DualGoal()
    theta = init_actor_critic(env, seed=2718, hidden=(16, 16))
    cfg = PpoConfig()
    rng = np.random.default_rng(31)
    n = 32
    obs = rng.normal(size=(n, env.spec.obs_dim))
    actions = rng.normal(size=(n, env.spec.act_dim))
    from morlext.policy import ParameterVector, gaussian_log_prob, unflatten

    model = unflatten(theta)
    logp_old = gaussian_log_prob(
        actions, model.actor.forward(obs), model.log_std
    ) + rng.normal(scale=0.3, size=n)
    advantages = rng.normal(size=n)
    returns = rng.normal(size=n)

    def loss_at(vec):
        loss, _ = loss_and_grad(
            UpdateViews(ParameterVector(vec, theta.layout)),
            obs, actions, logp_old, advantages, returns, cfg,
        )
        return loss

    _, grad = loss_and_grad(UpdateViews(theta), obs, actions, logp_old, advantages, returns, cfg)
    coords = rng.choice(theta.layout.size, size=100, replace=False)
    matches = 0
    for c in coords:
        h = 1e-5 * max(1.0, abs(theta.data[c]))
        plus, minus = theta.data.copy(), theta.data.copy()
        plus[c] += h
        minus[c] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
        if abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8) <= 1e-4:
            matches += 1
    ok = matches >= 95
    report("ppo gradient check", ok, f"{matches}/100 coordinates within 1e-4, {time.monotonic() - start:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. Single-objective training sanity


@pytest.mark.slow
def test_single_objective_training_sanity():
    start = time.monotonic()
    cfg = PpoConfig()
    w = np.array([1.0, 0.0])
    wins = 0
    details = []
    seeds = range(5)
    env = SpeedEnergy()
    starts = [init_actor_critic(env, derive_seed(seed, "net")) for seed in seeds]
    # One stack for the five seeds; each member trains as it would alone.
    trained_all = train(
        starts, env, [w] * len(starts), 50_000, cfg, [derive_seed(seed, "train") for seed in seeds],
        [None] * len(starts),
    )
    for seed, theta0, trained in zip(seeds, starts, trained_all):
        one = ParameterVector(theta0.data[None], theta0.layout)
        episodes = np.stack(
            [
                evaluate_returns(one, env, 1, derive_seed(seed, "ep", i), deterministic=False)[0]
                for i in range(32)
            ]
        )
        base_mean, base_std = episodes.mean(axis=0)[0], episodes.std(axis=0)[0]
        final = evaluate_returns(
            ParameterVector(trained.data[None], trained.layout), env, 32, derive_seed(seed, "eval")
        )[0, 0]
        sigmas = (final - base_mean) / base_std
        wins += sigmas >= 5.0
        details.append(f"{sigmas:.1f}")
    ok = wins >= 4
    report(
        "single-objective training sanity",
        ok,
        f"{wins}/5 seeds >= 5 sigma (got {', '.join(details)}), {time.monotonic() - start:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Retraining stays structurally close (model-distance comparison)


@pytest.mark.slow
def test_retrained_policy_closer_than_independent():
    start = time.monotonic()
    cfg = PpoConfig()
    w1 = np.array([0.5, 0.5])
    w2 = np.array([0.4, 0.6])  # delta_s = 0.1 shift
    base_steps, retrain_steps = 30_000, 5_120
    wins = 0
    ratios = []
    seeds = range(5)
    env = DualGoal()
    # One stack per stage: the bases beside the independent runs, each on
    # its own budget, then the retrains; each member trains as it would alone.
    first = train(
        [init_actor_critic(env, derive_seed(seed, net)) for net in ("net-a", "net-b") for seed in seeds],
        env, [w1] * 5 + [w2] * 5, base_steps + retrain_steps, cfg,
        [derive_seed(seed, run) for run in ("base", "indep") for seed in seeds], [None] * 10,
        member_steps=[base_steps] * 5 + [base_steps + retrain_steps] * 5,
    )
    bases, independents = first[:5], first[5:]
    retrains = train(
        bases, env, [w2] * 5, retrain_steps, cfg, [derive_seed(seed, "retrain") for seed in seeds], [None] * 5
    )
    for base, retrained, independent in zip(bases, retrains, independents):
        d_retrained, _ = hungarian_distance(base, retrained)
        d_independent, _ = hungarian_distance(base, independent)
        wins += d_retrained < d_independent
        ratios.append(f"{d_retrained:.1f}<{d_independent:.1f}")
    ok = wins >= 4
    report(
        "retrained vs independent model distance",
        ok,
        f"{wins}/5 seeds (distances {'; '.join(ratios)}), {time.monotonic() - start:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Pipeline monotonicity, the extension stage's own gain, training-free extension


@pytest.mark.slow
def test_pipeline_monotonicity_and_budget(train_record):
    start = time.monotonic()
    ok = True
    details = []
    for seed in range(3):
        train_record.calls.clear()
        cfg = LleConfig(K=6, seed=seed)
        result = run_pipeline(DualGoal(), cfg, PpoConfig(), total_budget=150_000)
        hv_bases = hypervolume(result.base_archive, result.ref_point)
        hv_selection = hypervolume(result.selection_archive, result.ref_point)
        hv_final = hypervolume(result.archive, result.ref_point)
        monotone = hv_final >= hv_bases
        # The extension stage's own gain: selection strictly beats the bases.
        extension_gain = hv_selection > hv_bases
        # No `train` call while stages 3 and 4 run, and the ledger's
        # training fields equal the steps the recorded calls took.
        training_free = train_record.training_free(result)
        within_budget = result.ledger.training_steps <= 150_000
        ok &= monotone and extension_gain and training_free and within_budget
        details.append(
            f"seed {seed}: bases {hv_bases:.1f} -> selection {hv_selection:.1f} -> final {hv_final:.1f}, "
            f"{len(train_record.calls)} train calls, {sum(s for _, s in train_record.calls)} steps, "
            f"training-free {training_free}"
        )
    report(
        "pipeline monotonicity and extension gain",
        ok,
        f"{'; '.join(details)}; {time.monotonic() - start:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Fine-tuning value (ablation analogue)


@pytest.mark.slow
def test_fine_tuning_improves_hypervolume():
    """The final front (with fine-tuned policies) strictly beats the front
    of the same run before fine-tuning, at the run's reference point."""
    start = time.monotonic()
    budget = 75_000
    wins = 0
    details = []
    for seed in range(5):
        result = run_pipeline(DualGoal(), LleConfig(K=4, seed=seed), PpoConfig(), budget)
        hv_final = hypervolume(result.archive, result.ref_point)
        hv_selection = hypervolume(result.selection_archive, result.ref_point)
        wins += hv_final > hv_selection
        details.append(f"{hv_final:.1f}>{hv_selection:.1f}")
    ok = wins >= 4
    report(
        "fine-tuning hypervolume gain",
        ok,
        f"{wins}/5 seeds ({'; '.join(details)}), {time.monotonic() - start:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Theory check (extrapolation error order)


def test_extrapolation_error_order():
    start = time.monotonic()
    flat = preset_error_curve("flat")
    curved = preset_error_curve("curved")
    flat_ok = flat.distances.max() <= 1e-4
    curved_ok = 1.7 <= curved.fitted_slope <= 2.3
    ok = flat_ok and curved_ok
    report(
        "extrapolation error order",
        ok,
        f"flat max dist {flat.distances.max():.2e}, curved slope {curved.fitted_slope:.3f}, "
        f"{time.monotonic() - start:.0f}s",
    )
    assert flat_ok and curved_ok


# ---------------------------------------------------------------------------
# 9. Determinism end to end


@pytest.mark.slow
def test_bit_identical_front_tables(tmp_path):
    start = time.monotonic()
    config = tmp_path / "config.ini"
    config.write_text(
        "[run]\n"
        "env = dual_goal\n"
        "seed = 42\n"
        "total_budget = 20000\n"
        f"output_dir = {tmp_path / 'a'}\n"
        "[lle]\n"
        "k = 3\n"
        "delta_alpha = 0.25\n"
        "eval_episodes = 4\n"
        "final_eval_episodes = 8\n"
    )
    for out in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "morlext.cli", "run", "--config", str(config),
             "--output-dir", str(tmp_path / out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    table_a = (tmp_path / "a" / "front.csv").read_bytes()
    table_b = (tmp_path / "b" / "front.csv").read_bytes()
    ok = table_a == table_b
    report(
        "bit-identical front tables",
        ok,
        f"{len(table_a)} bytes compared, {time.monotonic() - start:.0f}s",
    )
    assert ok
