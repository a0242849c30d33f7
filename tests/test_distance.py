import itertools

import numpy as np
import pytest

from morlext.distance import hungarian_distance, hungarian_solve, incoming_matrices, layer_matching_cost
from morlext.envs import DualGoal
from morlext.ppo import init_actor_critic


def brute_force_assignment_cost(cost):
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def make_theta(seed, hidden=(6, 5)):
    return init_actor_critic(DualGoal(), seed, hidden)


def permute_layer_rows(theta, prefix, layer, perm, propagate=False):
    """Reorder neurons of one layer. propagate=True keeps the function
    identical by permuting the next layer's input coordinates too."""
    out = theta.copy()
    w = out.block(f"{prefix}.W{layer}")
    b = out.block(f"{prefix}.b{layer}")
    w[...] = w[:, perm]
    b[...] = b[perm]
    if propagate:
        w_next = out.block(f"{prefix}.W{layer + 1}")
        w_next[...] = w_next[perm, :]
    return out


# ---------------------------------------------------------------------------
# Solver


def test_solver_zero_diagonal():
    m = hungarian_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert m.total_cost == pytest.approx(0.0)
    assert list(m.assignment) == [0, 1]


def test_solver_two_by_two_enumerated():
    # identity matching costs 4+3=7, swap costs 1+2=3
    m = hungarian_solve(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert m.total_cost == pytest.approx(3.0)
    assert list(m.assignment) == [1, 0]


def test_solver_matches_brute_force_6x6():
    rng = np.random.default_rng(0)
    for trial in range(20):
        cost = rng.uniform(0, 10, size=(6, 6))
        m = hungarian_solve(cost)
        assert sorted(m.assignment) == list(range(6))  # a permutation
        assert m.total_cost == pytest.approx(brute_force_assignment_cost(cost))


def test_solver_rejects_non_square():
    with pytest.raises(ValueError):
        hungarian_solve(np.zeros((2, 3)))


def test_solver_singleton():
    m = hungarian_solve(np.array([[2.5]]))
    assert m.total_cost == pytest.approx(2.5)


def _reference_hungarian_solve(cost):
    """The solver's per-column loop form: the same arithmetic in the same
    order, one column at a time."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_col = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[match_col[j] - 1] = j - 1
    return assignment, float(cost[np.arange(n), assignment].sum())


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 65])
@pytest.mark.parametrize("kind", ["tied", "random"])
def test_solver_equals_loop_reference_bit_for_bit(n, kind):
    rng = np.random.default_rng(n)
    for trial in range(3):
        if kind == "tied":
            # Few distinct integer costs: many ties, settled by lowest column.
            cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        else:
            cost = rng.uniform(0, 10, size=(n, n))
        assignment, total = _reference_hungarian_solve(cost)
        m = hungarian_solve(cost)
        assert m.assignment.tolist() == assignment.tolist()
        assert m.total_cost == total


@pytest.mark.parametrize("n", [64, 128])
def test_solver_equals_loop_reference_on_near_permutations(n):
    # The shape `distance` meets: neuron descriptors against a reordered,
    # slightly perturbed copy of themselves.
    rng = np.random.default_rng(1000 + n)
    for trial in range(2):
        a = rng.standard_normal((n, n + 1))
        b = a[rng.permutation(n)] + 0.05 * rng.standard_normal(a.shape)
        cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        assignment, total = _reference_hungarian_solve(cost)
        m = hungarian_solve(cost)
        assert m.assignment.tolist() == assignment.tolist()
        assert m.total_cost == total


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (64, 65)])
def test_layer_matching_cost_equals_the_squared_difference_formula(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    a_before, b_before = a.copy(), b.copy()
    cost = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
    assert layer_matching_cost(a, b) == hungarian_solve(cost).total_cost
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


# ---------------------------------------------------------------------------
# Network distance


def test_distance_identical_networks_zero():
    theta = make_theta(1)
    total, breakdown = hungarian_distance(theta, theta)
    assert total == 0.0
    assert all(v == 0.0 for v in breakdown.values())


def test_distance_symmetry():
    a, b = make_theta(2), make_theta(3)
    ab, _ = hungarian_distance(a, b)
    ba, _ = hungarian_distance(b, a)
    assert ab == pytest.approx(ba)
    assert ab > 0


def test_function_preserving_permutation_zeroes_that_layer():
    theta = make_theta(4)
    perm = np.array([2, 0, 4, 1, 3, 5])
    permuted = permute_layer_rows(theta, "actor", 0, perm, propagate=True)
    total_same, breakdown = hungarian_distance(theta, permuted)
    assert breakdown["actor.layer0"] == pytest.approx(0.0, abs=1e-12)
    # The propagated layer-1 input reordering is a real structural change.
    assert breakdown["actor.layer1"] > 0


def test_rowwise_permuted_copy_distance_zero():
    theta = make_theta(5)
    rng = np.random.default_rng(9)
    permuted = theta.copy()
    for prefix in ("actor", "critic"):
        n_hidden = 2
        for layer in range(n_hidden):
            size = permuted.block(f"{prefix}.b{layer}").shape[0]
            permuted = permute_layer_rows(permuted, prefix, layer, rng.permutation(size), propagate=False)
    total, _ = hungarian_distance(theta, permuted)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_single_weight_perturbation_distance():
    theta = make_theta(6)
    eps = 0.37
    other = theta.copy()
    other.block("actor.W1")[2, 3] += eps
    total, breakdown = hungarian_distance(theta, other)
    assert total == pytest.approx(eps, abs=1e-9)
    assert breakdown["actor.layer1"] == pytest.approx(eps, abs=1e-9)


def test_distance_matches_layerwise_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(6):
        a = make_theta(100 + trial, hidden=(5, 4))
        b = make_theta(200 + trial, hidden=(5, 4))
        total, _ = hungarian_distance(a, b)
        expected = 0.0
        for prefix in ("actor", "critic"):
            for la, lb in zip(incoming_matrices(a, prefix), incoming_matrices(b, prefix)):
                cost = np.sqrt(((la[:, None, :] - lb[None, :, :]) ** 2).sum(axis=2))
                expected += brute_force_assignment_cost(cost)
        assert total == pytest.approx(expected, abs=1e-9)


def test_distance_layout_mismatch_rejected():
    a = make_theta(7, hidden=(6, 5))
    b = make_theta(8, hidden=(5, 5))
    with pytest.raises(ValueError):
        hungarian_distance(a, b)


def test_log_std_excluded_from_distance():
    theta = make_theta(9)
    other = theta.copy()
    other.block("actor.log_std")[...] += 1.0
    total, _ = hungarian_distance(theta, other)
    assert total == 0.0
