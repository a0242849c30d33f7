import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from morlext import extension
from morlext.cli import main
from morlext.envs import DualGoal, EnvSpec, VectorRewardEnv
from morlext.extension import (
    EVAL_CHUNK,
    BudgetLedger,
    CandidatePolicy,
    DirectionSet,
    LleConfig,
    _evaluate,
    _graded_returns,
    _Job,
    _train_all,
    alpha_grid,
    clip_to_simplex,
    directional_retrain,
    extend,
    fine_tune,
    make_base_weights,
    run_pipeline,
    select_candidates,
    shift_weight,
)
from morlext.pareto import dominates, hypervolume
from morlext.policy import ParameterVector, evaluate_returns
from morlext.ppo import DivergenceError, PpoConfig, init_actor_critic, train
from morlext.seeding import derive_seed


def tiny_ppo():
    return PpoConfig(steps_per_batch=64, minibatches=4, epochs=2)


def tiny_cfg(**overrides):
    defaults = dict(
        K=2,
        delta_s=0.1,
        alpha_start=-1.0,
        alpha_end=1.0,
        delta_alpha=0.5,
        eval_episodes=2,
        final_eval_episodes=4,
        seed=0,
    )
    defaults.update(overrides)
    return LleConfig(**defaults)


# ---------------------------------------------------------------------------
# Weights


def test_base_weights_k3_d2():
    w = make_base_weights(3)
    assert np.allclose(w, [[1, 0], [0.5, 0.5], [0, 1]])


def test_base_weights_k6_d2_step():
    w = np.stack(make_base_weights(6))
    assert np.allclose(np.diff(w[:, 0]), -0.2)
    assert np.allclose(w[0], [1, 0]) and np.allclose(w[-1], [0, 1])


def test_base_weights_all_on_simplex():
    for k in (2, 7, 10):
        for w in make_base_weights(k):
            assert w.min() >= 0 and w.sum() == pytest.approx(1.0)
        assert len(make_base_weights(k)) == k


def test_shift_weight_midpoint():
    assert np.allclose(shift_weight(np.array([0.5, 0.5]), 0.1), [0.4, 0.6])


def test_shift_weight_reflects_at_boundary():
    assert np.allclose(shift_weight(np.array([0.05, 0.95]), 0.1), [0.15, 0.85])


def test_shift_weight_vertex_moves_inward():
    assert np.allclose(shift_weight(np.array([1.0, 0.0]), 0.1), [0.9, 0.1])


def test_shift_weight_rejects_large_delta():
    with pytest.raises(ValueError):
        shift_weight(np.array([0.5, 0.5]), 1.0)


def test_shift_weight_rejects_three_objective_weight():
    with pytest.raises(ValueError, match="expected"):
        shift_weight(np.array([0.6, 0.3, 0.1]), 0.1)


def test_alpha_grid_default_is_61_points():
    grid = alpha_grid(-1.5, 1.5, 0.05)
    assert grid.shape == (61,)
    assert grid[0] == -1.5 and grid[-1] == pytest.approx(1.5)
    assert 0.0 in grid and 1.0 in grid


@pytest.mark.parametrize(
    "start, end, delta, landmarks",
    [(-1.2, 1.2, 0.1, (0.0, 1.0)), (-0.9, 0.9, 0.3, (0.0,))],
)
def test_alpha_grid_hits_landmarks_exactly(start, end, delta, landmarks):
    # Unsnapped, these grids give 2.2e-16 and 1.0000000000000002.
    grid = alpha_grid(start, end, delta)
    for landmark in landmarks:
        assert landmark in grid
    assert np.allclose(grid, start + delta * np.arange(grid.shape[0]), rtol=0, atol=1e-12)


def test_clip_to_simplex():
    w = clip_to_simplex(np.array([1.4, -0.4]))
    assert np.allclose(w, [1.0, 0.0])
    assert clip_to_simplex(np.array([0.2, 0.3])).sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Directions and extension (tiny training budgets)


def base_policy(theta, weight, k=0):
    """Base k as the pipeline holds it: an alpha = 0 candidate with id k."""
    return CandidatePolicy(
        matched_w=weight, raw_w=weight, base_index=k, alpha=0.0, stage="extended", policy_id=k, trained=theta
    )


@pytest.fixture(scope="module")
def small_run():
    env = DualGoal()
    cfg = tiny_cfg()
    ppo_cfg = tiny_ppo()
    base_w = np.array([0.5, 0.5])
    theta = init_actor_critic(env, seed=derive_seed(0, "net", 0), hidden=(8, 8))
    ledger = BudgetLedger()
    (dirs,) = directional_retrain(
        [base_policy(theta, base_w)], env, cfg, ppo_cfg, [2 * ppo_cfg.steps_per_batch], ledger, {}
    )
    return env, cfg, ppo_cfg, dirs, ledger


def rolled_out(cands, env, episodes, seed, ledger):
    """The candidates' returns table, filled as `run_pipeline` fills it
    for one grid."""
    table = {}
    _graded_returns(cands, table, env, episodes, seed, ledger)
    return table


def test_directional_retrain_counts(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    assert dirs.m == env.spec.d - 1 == 1
    assert ledger.retrain_steps == 2 * ppo_cfg.steps_per_batch
    assert not dirs.degenerate
    assert np.allclose(dirs.weight_delta, [-0.1, 0.1])


def test_zero_budget_retrain_is_degenerate():
    env = DualGoal()
    cfg = tiny_cfg()
    ppo_cfg = tiny_ppo()
    theta = init_actor_critic(env, seed=1, hidden=(8, 8))
    with pytest.warns(UserWarning, match="direction for base 0 is zero"):
        (dirs,) = directional_retrain(
            [base_policy(theta, np.array([0.5, 0.5]))], env, cfg, ppo_cfg, [0], BudgetLedger(), {}
        )
    assert dirs.degenerate
    assert np.allclose(dirs.delta.data, 0.0)


def test_extend_identity_and_endpoint_bit_exact(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 100)
    grid = alpha_grid(cfg.alpha_start, cfg.alpha_end, cfg.delta_alpha)
    assert [c.alpha for c in cands] == list(grid)
    base, delta = dirs.base_theta.data, dirs.delta.data
    for c in cands:
        a = c.alpha
        if a == 0.0:
            expected = base
        elif a == 1.0:
            expected = dirs.retrained_theta.data
        else:
            expected = base + a * delta
        assert np.array_equal(c.theta.data, expected), a


def test_extended_candidates_store_no_theta(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    assert len(result.candidates) > len(result.directions)
    for c in result.candidates:
        assert c.trained is None and c.direction is not None
        assert not any(isinstance(v, ParameterVector) for v in vars(c).values())
        assert c.theta is not c.theta  # formed afresh on each read


def extend_peak_bytes(dirs, env, delta_alpha):
    """Traced allocation peak of one `extend` call over [-1, 1] and the
    rollout of its grid."""
    cfg = tiny_cfg(delta_alpha=delta_alpha, eval_episodes=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rolled_out(extend(dirs, cfg, 0), env, cfg.eval_episodes, 3, BudgetLedger())
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_extend_memory_does_not_grow_with_the_grid():
    # A full-size network, so that stored thetas would dwarf the per-candidate bookkeeping.
    env = DualGoal()
    base = init_actor_critic(env, seed=80)
    moved = base.copy()
    moved.data += 0.01 * np.random.default_rng(81).standard_normal(moved.data.shape)
    dirs = DirectionSet(
        base_index=0, base_theta=base, base_w=np.array([0.5, 0.5]),
        delta=ParameterVector(moved.data - base.data, base.layout),
        weight_delta=np.array([-0.1, 0.1]), retrained_theta=moved,
    )
    small = extend_peak_bytes(dirs, env, 2 / 128)
    large = extend_peak_bytes(dirs, env, 2 / 256)
    # 128 more candidates: stored thetas would add two chunks' worth.
    assert large - small < EVAL_CHUNK * base.data.nbytes


def test_evaluate_holds_one_chunk_of_formed_vectors():
    # Full-size policies formed on demand, as grid candidates are: batching
    # them must not keep a chunk's formed vectors beside its stack.
    env = DualGoal()
    base = init_actor_critic(env, seed=82)
    noise = np.random.default_rng(83).standard_normal(base.data.shape)
    n = 2 * EVAL_CHUNK + 1
    formed = (ParameterVector(base.data + (0.01 * k) * noise, base.layout) for k in range(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        returns = _evaluate(formed, n, env, 1, 3, BudgetLedger())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(returns) == n
    assert peak < 1.5 * EVAL_CHUNK * base.data.nbytes


def test_evaluate_allocates_a_stack_of_exact_size():
    # Fewer policies than a chunk: the one stack holds exactly their rows,
    # beside a few formed vectors and the rollout's small temporaries.
    env = DualGoal()
    base = init_actor_critic(env, seed=86)
    noise = np.random.default_rng(87).standard_normal(base.data.shape)
    n = EVAL_CHUNK // 2 + 1
    formed = (ParameterVector(base.data + (0.01 * k) * noise, base.layout) for k in range(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        returns = _evaluate(formed, n, env, 1, 3, BudgetLedger())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert returns.shape == (n, env.spec.d)
    assert peak < (n + 8) * base.data.nbytes


def test_evaluate_under_a_trace_hook_matches_untraced():
    # A tracer (pdb, coverage, cProfile) holds the frame's locals, and with
    # them a second reference to the stack.
    env = DualGoal()
    base = init_actor_critic(env, seed=84, hidden=(4, 4))
    noise = np.random.default_rng(85).standard_normal(base.data.shape)
    n = 2 * EVAL_CHUNK + 1

    def formed():
        return (ParameterVector(base.data + (0.01 * k) * noise, base.layout) for k in range(n))

    def tracer(frame, event, arg):
        return tracer if frame.f_code is _evaluate.__code__ else None

    untraced = _evaluate(formed(), n, env, 1, 3, BudgetLedger())
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced = _evaluate(formed(), n, env, 1, 3, BudgetLedger())
    finally:
        sys.settrace(previous)
    assert untraced.shape == (n, env.spec.d)
    assert np.array_equal(traced, untraced)


def test_extend_makes_no_rollout_and_takes_no_step(small_run, monkeypatch):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    before = ledger.as_dict()

    def forbidden(*args, **kwargs):
        raise AssertionError("extend rolled out or trained a policy")

    monkeypatch.setattr(extension, "_evaluate", forbidden)
    monkeypatch.setattr(extension, "train", forbidden)
    cands = extend(dirs, cfg, 500)
    assert [c.alpha for c in cands] == alpha_grid(cfg.alpha_start, cfg.alpha_end, cfg.delta_alpha).tolist()
    assert [c.policy_id for c in cands] == list(range(500, 500 + len(cands)))
    assert ledger.as_dict() == before


def test_extend_matched_weights(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 0)
    for c in cands:
        raw = dirs.base_w + c.alpha * dirs.weight_delta
        assert np.allclose(c.raw_w, raw)
        assert c.matched_w.min() >= 0 and c.matched_w.sum() == pytest.approx(1.0)


def test_select_candidates_matches_brute_force(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 1000)
    returns = rolled_out(cands, env, cfg.eval_episodes, 5, ledger)
    selected = select_candidates(cands, returns)
    selected_ids = {c.policy_id for c in selected}
    for c in cands:
        dominated = any(
            dominates(returns[o.key], returns[c.key]) for o in cands if o.policy_id != c.policy_id
        )
        if dominated:
            assert c.policy_id not in selected_ids
        else:
            # kept, unless an identical-returns twin with a lower id was kept
            twin_kept = any(
                s.policy_id < c.policy_id and np.array_equal(returns[s.key], returns[c.key])
                for s in selected
            )
            assert (c.policy_id in selected_ids) or twin_kept
    ids = [c.policy_id for c in selected]
    assert ids == sorted(ids)


def test_select_single_candidate_is_itself(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 0)
    returns = rolled_out(cands, env, cfg.eval_episodes, 5, ledger)
    only = select_candidates([cands[0]], returns)
    assert len(only) == 1 and only[0].policy_id == cands[0].policy_id


def test_select_candidates_rejects_a_grid_never_rolled_out(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 300)
    with pytest.raises(ValueError, match="candidate 300 has not been evaluated"):
        select_candidates(cands, {})


def test_fine_tune_sub_batch_budget_trains_nothing(small_run, tmp_path):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 2000)[:3]
    before = ledger.finetune_steps
    tuned = fine_tune(
        cands, env, cfg, ppo_cfg, [0, 0, ppo_cfg.steps_per_batch - 1], 3000, ledger,
        log_dir=tmp_path / "logs",
    )
    assert tuned == []
    assert ledger.finetune_steps == before
    assert not (tmp_path / "logs").exists()


def test_fine_tune_trains_under_matched_weight(small_run):
    env, cfg, ppo_cfg, dirs, ledger = small_run
    cands = extend(dirs, cfg, 4000)[:2]
    before = ledger.finetune_steps
    tuned = fine_tune(
        cands, env, cfg, ppo_cfg,
        [ppo_cfg.steps_per_batch, ppo_cfg.steps_per_batch], 5000, ledger,
    )
    assert ledger.finetune_steps - before == 2 * ppo_cfg.steps_per_batch
    assert all(not np.array_equal(t.theta.data, c.theta.data) for t, c in zip(tuned, cands))


def test_fine_tuned_copy_of_base_is_not_a_base(small_run):
    env, cfg, ppo_cfg, dirs, _ = small_run
    ledger = BudgetLedger()
    zero = [c for c in extend(dirs, cfg, 6000) if c.is_base]
    assert [c.alpha for c in zero] == [0.0]
    (tuned,) = fine_tune(zero, env, cfg, ppo_cfg, [ppo_cfg.steps_per_batch], 7000, ledger)
    assert tuned.alpha == 0.0 and tuned.stage == "fine_tuned"
    assert not tuned.is_base


def test_train_all_makes_one_stacked_call_and_returns_job_order(monkeypatch, tmp_path):
    env = DualGoal()
    ppo_cfg = tiny_ppo()
    batch = ppo_cfg.steps_per_batch
    jobs = [
        _Job(init_actor_critic(env, seed=60 + j, hidden=(8, 8)), np.array([w, 1.0 - w]), steps, 70 + j,
             f"job_{j}")
        for j, (w, steps) in enumerate([(1.0, 2 * batch), (0.75, batch), (0.5, 2 * batch), (0.0, batch)])
    ]
    calls = []
    real = extension.train

    def recording(thetas, env, weights, total_steps, cfg, seeds, logs, *, member_steps=None):
        calls.append((total_steps, list(seeds), list(member_steps)))
        return real(thetas, env, weights, total_steps, cfg, seeds, logs, member_steps=member_steps)

    monkeypatch.setattr(extension, "train", recording)
    ledger = BudgetLedger()
    trained, taken = _train_all(jobs, env, ppo_cfg, tmp_path, ledger)
    assert calls == [(2 * batch, [70, 71, 72, 73], [2 * batch, batch, 2 * batch, batch])]
    assert taken == ledger.train_all_steps == 6 * batch
    for job, theta in zip(jobs, trained):
        alone = train([job.theta], env, [job.weight], job.steps, ppo_cfg, [job.seed], [None])[0]
        assert np.array_equal(theta.data, alone.data)
        assert len((tmp_path / f"{job.name}.log").read_text().splitlines()) == job.steps // batch


# ---------------------------------------------------------------------------
# Batched evaluation


def stack_of_one(theta):
    """`theta` as a (1, P) stack."""
    return ParameterVector(theta.data[None], theta.layout)


def varied_thetas(env, n, seed=0):
    rng = np.random.default_rng(seed)
    thetas = []
    for k in range(n):
        theta = init_actor_critic(env, seed=seed + k, hidden=(8, 8))
        theta.data += 0.3 * rng.standard_normal(theta.data.shape)
        thetas.append(theta)
    return thetas


def test_evaluate_many_matches_per_policy_calls_across_chunks():
    env = DualGoal()
    thetas = varied_thetas(env, 2 * EVAL_CHUNK + 2)
    got = _evaluate(thetas, len(thetas), env, 8, 13, BudgetLedger())
    assert got.shape == (len(thetas), env.spec.d)
    for theta, r in zip(thetas, got):
        assert np.array_equal(r, evaluate_returns(stack_of_one(theta), env, 8, seed=13)[0])


def test_evaluate_many_returns_input_order():
    env = DualGoal()
    a, b, c = varied_thetas(env, 3, seed=40)
    forward = _evaluate([a, b, c], 3, env, 4, 2, BudgetLedger())
    backward = _evaluate([c, a, b], 3, env, 4, 2, BudgetLedger())
    assert np.array_equal(backward, forward[[2, 0, 1]])
    assert not np.array_equal(forward[0], forward[1])


def test_evaluate_nothing_gives_an_empty_matrix():
    env = DualGoal()
    ledger = BudgetLedger()
    got = _evaluate(iter(()), 0, env, 4, 3, ledger)
    assert got.shape == (0, env.spec.d) and got.dtype == np.float64
    assert ledger.eval_steps == 0


def test_evaluate_repeated_theta_gets_equal_returns_and_every_policy_is_charged():
    env = DualGoal()
    a, b = varied_thetas(env, 2, seed=50)
    ledger = BudgetLedger()
    got = _evaluate([a, b, a.copy(), a], 4, env, 4, 3, ledger)
    assert np.array_equal(got[0], got[2])
    assert np.array_equal(got[0], got[3])
    assert not np.array_equal(got[0], got[1])
    assert ledger.eval_steps == 4 * 4 * env.spec.horizon
    again = _evaluate([b, a], 2, env, 4, 3, ledger)
    assert np.array_equal(again[1], got[0])
    assert ledger.eval_steps == 6 * 4 * env.spec.horizon


# ---------------------------------------------------------------------------
# Full pipeline at desk scale


@pytest.fixture(scope="module")
def pipeline_result():
    env = DualGoal()
    cfg = tiny_cfg(K=2, delta_alpha=0.25)
    ppo_cfg = tiny_ppo()
    return run_pipeline(env, cfg, ppo_cfg, total_budget=2000), cfg, ppo_cfg


def test_pipeline_budget_ledger(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    ledger = result.ledger
    assert ledger.extension_training_steps == 0
    assert ledger.init_steps + ledger.retrain_steps + ledger.finetune_steps == ledger.training_steps
    assert ledger.training_steps <= ledger.total_budget
    # each stage consumed its share up to one batch of slack per run
    assert 3 * 2000 // 5 - ledger.init_steps < cfg.K * ppo_cfg.steps_per_batch


def test_pipeline_evaluates_each_policy_once_per_grade(reference_k3):
    # Bases and retrained policies are rolled out at final grade in stage 2,
    # and the grid's alpha = 0 copies take the bases' selection-grade
    # returns; a selected alpha = 0 or 1 copy takes the final-grade returns
    # of the policy it copies. Everything else is rolled out once per grade.
    result, cfg = reference_k3, tiny_cfg(K=3)
    horizon = DualGoal().spec.horizon
    n_dirs = len(result.directions)
    zero_copies = [c for c in result.candidates if c.is_base]
    selected_copies = [c for c in result.selected if c.alpha in (0.0, 1.0)]
    assert len(zero_copies) == n_dirs > 0
    assert {c.alpha for c in selected_copies} == {0.0, 1.0}
    final_grade = (
        len(result.bases) + n_dirs + len(result.selected) - len(selected_copies) + len(result.fine_tuned)
    )
    select_grade = len(result.bases) + len(result.candidates) - n_dirs + len(result.fine_tuned)
    assert result.ledger.eval_steps == horizon * (
        cfg.final_eval_episodes * final_grade + cfg.eval_episodes * select_grade
    )
    bases = {b.base_index: b for b in result.bases}
    for copy in zero_copies:
        base = bases[copy.base_index]
        assert np.array_equal(copy.theta.data, base.theta.data)
        assert np.array_equal(result.select_returns[copy.key], result.select_returns[base.key])
    final_seed = derive_seed(cfg.seed, "eval.final")
    for c in result.bases + result.selected + result.fine_tuned:
        values, theta = result.final_returns[c.key], c.theta
        fresh = evaluate_returns(stack_of_one(theta), DualGoal(), cfg.final_eval_episodes, final_seed)
        assert np.array_equal(values, fresh[0])


def test_pipeline_returns_tables_hold_each_policy_once_at_its_grade(reference_k3):
    # The selection table holds every base, grid point and fine-tuned
    # policy; the final table every pool member and both ends of every
    # direction. Each value is a fresh rollout of its policy at its grade.
    result, cfg = reference_k3, tiny_cfg(K=3)
    env = DualGoal()
    evaluated = result.bases + result.candidates + result.fine_tuned
    pool = result.bases + result.selected + result.fine_tuned
    ends = {(dirs.base_index, alpha) for dirs in result.directions for alpha in (0.0, 1.0)}
    assert set(result.select_returns) == {c.key for c in evaluated}
    assert set(result.final_returns) == {c.key for c in pool} | ends
    thetas = {c.key: c.theta for c in evaluated}
    thetas.update(((dirs.base_index, 1.0), dirs.retrained_theta) for dirs in result.directions)
    for table, episodes, grade in (
        (result.select_returns, cfg.eval_episodes, "eval.select"),
        (result.final_returns, cfg.final_eval_episodes, "eval.final"),
    ):
        seed = derive_seed(cfg.seed, grade)
        for key, values in table.items():
            fresh = _evaluate([thetas[key]], 1, env, episodes, seed, BudgetLedger())
            assert np.array_equal(values, fresh[0]), (grade, key)


def test_pipeline_trains_only_in_its_training_stages(train_record):
    result = run_pipeline(DualGoal(), tiny_cfg(K=2, delta_alpha=0.25), tiny_ppo(), total_budget=2000)
    assert len(train_record.calls) == 3  # bases, retrains, fine-tunes
    assert train_record.training_free(result)


def test_training_free_check_fails_on_training_during_extension(train_record, monkeypatch):
    # The check can fail: a train call made while `extend` runs is caught.
    real_grid = extension.alpha_grid

    def training_grid(*args):
        env = DualGoal()
        extension.train([init_actor_critic(env, seed=90, hidden=(8, 8))], env, [np.array([0.5, 0.5])],
                        tiny_ppo().steps_per_batch, tiny_ppo(), [91], [None])
        return real_grid(*args)

    monkeypatch.setattr(extension, "alpha_grid", training_grid)
    result = run_pipeline(DualGoal(), tiny_cfg(K=2), tiny_ppo(), total_budget=2000)
    assert any(during for during, _ in train_record.calls)
    assert not train_record.training_free(result)


def test_ledger_charges_training_during_extension(monkeypatch):
    # Steps `_train_all` takes while `extend` runs reach the ledger, and
    # with it metrics.json, as extension_training_steps.
    real_extend = extension.extend
    real_train_all = extension._train_all
    ppo_cfg = tiny_ppo()
    steps = 2 * ppo_cfg.steps_per_batch
    extra = []
    run = {}

    def recording_train_all(jobs, env, ppo_cfg, log_dir, ledger):
        run.update(env=env, ledger=ledger)
        return real_train_all(jobs, env, ppo_cfg, log_dir, ledger)

    def training_extend(dirs, cfg, id_start):
        if not extra:
            env = run["env"]
            job = _Job(init_actor_critic(env, seed=90, hidden=(8, 8)), np.array([0.5, 0.5]), steps, 91, "extra")
            extra.append(real_train_all([job], env, ppo_cfg, None, run["ledger"])[1])
        return real_extend(dirs, cfg, id_start)

    monkeypatch.setattr(extension, "_train_all", recording_train_all)
    monkeypatch.setattr(extension, "extend", training_extend)
    result = run_pipeline(DualGoal(), tiny_cfg(K=2), ppo_cfg, total_budget=2000)
    ledger = result.ledger
    assert extra == [steps]
    assert ledger.as_dict()["extension_training_steps"] == steps
    assert ledger.training_steps == ledger.init_steps + ledger.retrain_steps + steps + ledger.finetune_steps


def test_pipeline_hv_chain(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    ref = result.ref_point
    hv_bases = hypervolume(result.base_archive, ref)
    hv_selection = hypervolume(result.selection_archive, ref)
    hv_final = hypervolume(result.archive, ref)
    assert hv_bases <= hv_selection <= hv_final


def test_pipeline_final_archive_mutually_non_dominated(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    values = result.archive.matrix()
    for i in range(len(values)):
        for j in range(len(values)):
            if i != j:
                assert not dominates(values[i], values[j])


def test_pipeline_archive_not_dominated_by_any_pool_member(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    pool_values = [result.final_returns[c.key] for c in result.bases + result.selected + result.fine_tuned]
    for row in result.archive.matrix():
        assert not any(dominates(v, row) for v in pool_values)


def test_pipeline_provenance(pipeline_result):
    result, cfg, ppo_cfg = pipeline_result
    for point in result.archive.points:
        cand = result.policies_by_id[point.policy_id]
        assert cand.stage in ("extended", "fine_tuned")
        assert 0 <= cand.base_index < cfg.K
        assert type(cand.alpha) is float


def test_pipeline_deterministic():
    env = DualGoal()
    cfg = tiny_cfg(K=2, delta_alpha=0.5, seed=13)
    ppo_cfg = tiny_ppo()
    a = run_pipeline(env, cfg, ppo_cfg, total_budget=1500)
    b = run_pipeline(DualGoal(), cfg, ppo_cfg, total_budget=1500)
    assert np.array_equal(a.archive.matrix(), b.archive.matrix())
    assert [p.policy_id for p in a.archive.points] == [p.policy_id for p in b.archive.points]


def test_pipeline_budget_too_small_rejected():
    env = DualGoal()
    with pytest.raises(ValueError, match="budget too small"):
        run_pipeline(env, tiny_cfg(K=2), tiny_ppo(), total_budget=300)


def test_pipeline_rejects_three_objectives_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train must not be called")

    monkeypatch.setattr(extension, "train", no_training)
    env = VectorRewardEnv(EnvSpec("three_objective", obs_dim=4, act_dim=2, d=3))
    with pytest.raises(ValueError, match="d = 3"):
        run_pipeline(env, tiny_cfg(), tiny_ppo(), total_budget=2000)


# ---------------------------------------------------------------------------
# One divergence rule for every training run

# K = 3 on DualGoal: three batches per base, one per retrain, three fine-tunes.
DIVERGE_BUDGET = 1000


def diverging_train(monkeypatch, bad_seeds):
    """Make `extension.train` report DivergenceError for the group members
    with the given seeds; returns the list of seeds it is called with."""
    real = extension.train
    seen = []

    def fake(thetas, env, weights, total_steps, cfg, seeds, logs, *, member_steps=None):
        seen.extend(seeds)
        results = real(thetas, env, weights, total_steps, cfg, seeds, logs, member_steps=member_steps)
        return [DivergenceError("non-finite PPO loss (nan)") if seed in bad_seeds else result
                for seed, result in zip(seeds, results)]

    monkeypatch.setattr(extension, "train", fake)
    return seen


def run_diverging(monkeypatch, bad_seeds):
    """Pipeline result and the divergence warnings, in order."""
    diverging_train(monkeypatch, bad_seeds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_pipeline(DualGoal(), tiny_cfg(K=3), tiny_ppo(), DIVERGE_BUDGET)
    return result, [str(w.message) for w in caught if "diverged" in str(w.message)]


def dropped_message(name):
    return f"training run {name} diverged and is dropped: non-finite PPO loss (nan)"


@pytest.fixture(scope="module")
def reference_k3():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(DualGoal(), tiny_cfg(K=3), tiny_ppo(), DIVERGE_BUDGET)


def test_diverged_base_is_dropped_with_everything_built_from_it(monkeypatch):
    result, dropped = run_diverging(monkeypatch, {derive_seed(0, "init", 1)})
    assert dropped == [dropped_message("init_1")]
    assert [b.base_index for b in result.bases] == [0, 2]
    assert [dirs.base_index for dirs in result.directions] == [0, 2]
    assert all(c.base_index != 1 for c in result.policies_by_id.values())
    batch = tiny_ppo().steps_per_batch
    assert result.ledger.init_steps == 2 * 3 * batch
    assert result.ledger.retrain_steps == 2 * batch


def test_fewer_than_two_bases_exits_2_before_retraining(monkeypatch, tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_text(
        f"[run]\nenv = dual_goal\noutput_dir = {tmp_path / 'run'}\ntotal_budget = {DIVERGE_BUDGET}\n"
        "seed = 0\n[lle]\nk = 3\ndelta_alpha = 0.5\neval_episodes = 2\nfinal_eval_episodes = 4\n"
        "[ppo]\nsteps_per_batch = 64\nminibatches = 4\nepochs = 2\n"
    )
    seen = diverging_train(monkeypatch, {derive_seed(0, "init", 0), derive_seed(0, "init", 2)})
    with pytest.warns(UserWarning, match="diverged and is dropped"):
        assert main(["run", "--config", str(config)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert seen == [derive_seed(0, "init", k) for k in range(3)]
    assert not (tmp_path / "run").exists()
    assert not list(tmp_path.glob(".run.partial-*"))


def test_diverged_retrain_keeps_its_base_unextended(monkeypatch):
    result, dropped = run_diverging(monkeypatch, {derive_seed(0, "retrain", 1, 1)})
    assert dropped == [dropped_message("retrain_1_1")]
    assert [b.base_index for b in result.bases] == [0, 1, 2]
    assert result.bases[1].key in result.final_returns
    assert [dirs.base_index for dirs in result.directions] == [0, 2]
    assert not [c for c in result.candidates if c.base_index == 1]
    assert result.ledger.retrain_steps == 2 * tiny_ppo().steps_per_batch


def test_zero_direction_is_warned_about_once_per_base(monkeypatch, tmp_path):
    """Retraining that returns its input unchanged gives every base a zero
    direction: one warning per base, and a degenerate direction record."""
    from morlext.archive import load_archive

    real = extension.train
    retrain_seeds = {derive_seed(0, "retrain", k, 1) for k in range(3)}

    def unmoved_retrain(thetas, env, weights, total_steps, cfg, seeds, logs, *, member_steps=None):
        if set(seeds) <= retrain_seeds:
            return [theta.copy() for theta in thetas]
        return real(thetas, env, weights, total_steps, cfg, seeds, logs, member_steps=member_steps)

    monkeypatch.setattr(extension, "train", unmoved_retrain)
    config = tmp_path / "c.ini"
    config.write_text(
        f"[run]\nenv = dual_goal\noutput_dir = {tmp_path / 'run'}\ntotal_budget = {DIVERGE_BUDGET}\n"
        "seed = 0\n[lle]\nk = 3\ndelta_alpha = 0.5\neval_episodes = 2\nfinal_eval_episodes = 4\n"
        "[ppo]\nsteps_per_batch = 64\nminibatches = 4\nepochs = 2\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config)]) == 0
    messages = [str(w.message) for w in caught]
    zero = [m for m in messages if "direction" in m or "degenerate" in m]
    assert zero == [f"direction for base {k} is zero: its retrain did not move it" for k in range(3)]
    records = load_archive(tmp_path / "run" / "policies" / "directions.jsonl", ())
    assert [r.meta["base_index"] for r in records] == [0, 1, 2]
    assert all(r.meta["degenerate_set"] is True and r.meta["direction_index"] == 1 for r in records)


def test_diverged_fine_tune_drops_only_its_output(monkeypatch, reference_k3):
    first = reference_k3.selected[0]
    assert len(reference_k3.fine_tuned) >= 2
    result, dropped = run_diverging(monkeypatch, {derive_seed(0, "finetune", first.policy_id)})
    assert dropped == [dropped_message(f"finetune_{first.policy_id}")]
    assert [c.policy_id for c in result.selected] == [c.policy_id for c in reference_k3.selected]
    assert len(result.fine_tuned) == len(reference_k3.fine_tuned) - 1
    for got, want in zip(result.fine_tuned, reference_k3.fine_tuned[1:]):
        assert np.array_equal(got.theta.data, want.theta.data)
    budgets = extension._even_batch_split(DIVERGE_BUDGET // 5, len(result.selected), tiny_ppo().steps_per_batch)
    assert result.ledger.finetune_steps == reference_k3.ledger.finetune_steps - budgets[0]


# ---------------------------------------------------------------------------
# Training-scale direction and fine-tuning oracles


@pytest.mark.slow
def test_retraining_moves_performance_toward_new_preference():
    """Brief retraining at a shifted weight changes the return vector and
    improves the shifted scalarization, across seeds."""
    import warnings as w_mod

    ppo_cfg = PpoConfig()
    base_w = np.array([1.0, 0.0])
    good = 0
    for seed in range(10):
        env = DualGoal()
        base = init_actor_critic(env, derive_seed(seed, "net"))
        from morlext.ppo import train

        base = train([base], env, [base_w], 20_000, ppo_cfg, [derive_seed(seed, "train")], [None])[0]
        cfg = LleConfig(K=2, seed=seed, final_eval_episodes=32)
        with w_mod.catch_warnings():
            w_mod.simplefilter("ignore")
            final_returns = {}
            (dirs,) = directional_retrain(
                [base_policy(base, base_w)], env, cfg, ppo_cfg, [5_120], BudgetLedger(), final_returns
            )
        shifted_w = base_w + dirs.weight_delta
        base_returns, retrained_returns = final_returns[0, 0.0], final_returns[0, 1.0]
        differs = not np.array_equal(base_returns, retrained_returns)
        improved = float(shifted_w @ retrained_returns) >= float(
            shifted_w @ base_returns
        )
        assert isinstance(dirs.mutual_non_dominated, bool)  # flag recorded either way
        good += differs and improved
    assert good >= 8, f"only {good}/10 seeds moved toward the shifted preference"


@pytest.mark.slow
def test_fine_tuning_improves_scalarized_return_on_most_candidates():
    import warnings as w_mod

    with w_mod.catch_warnings():
        w_mod.simplefilter("ignore")
        result = run_pipeline(DualGoal(), LleConfig(K=4, seed=0), PpoConfig(), total_budget=60_000)
    before_by_key = {
        (c.base_index, c.alpha): float(c.matched_w @ result.select_returns[c.key]) for c in result.selected
    }
    improved, total = 0, 0
    for tuned in result.fine_tuned:
        before = before_by_key.get((tuned.base_index, tuned.alpha))
        if before is None:
            continue
        total += 1
        improved += float(tuned.matched_w @ result.select_returns[tuned.key]) >= before
    assert total > 0
    assert improved / total >= 0.7, f"only {improved}/{total} candidates improved"
