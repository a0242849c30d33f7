import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morlext import pareto
from morlext.pareto import (
    FILTER_BLOCK,
    FrontPoint,
    ParetoArchive,
    default_reference_point,
    dominates,
    expected_utility,
    hypervolume,
    load_front_table,
    non_dominated_filter,
    sample_simplex,
    save_front_table,
    sparsity,
)


def archive_of(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64)
    ids = ids if ids is not None else list(range(len(rows)))
    return [FrontPoint(r, i) for r, i in zip(rows, ids)]


# ---------------------------------------------------------------------------
# Oracles


def brute_force_filter(rows):
    """O(n^2) pairwise dominance oracle."""
    rows = np.asarray(rows, dtype=np.float64)
    keep = []
    for i, r in enumerate(rows):
        if not any(dominates(o, r) for j, o in enumerate(rows) if j != i):
            keep.append(tuple(r))
    return set(keep)


def monte_carlo_hypervolume(front, ref, n=1_000_000, seed=0):
    """Box-sampling volume oracle."""
    front = np.asarray(front, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    top = front.max(axis=0)
    box = np.prod(top - ref)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(ref, top, size=(n, ref.shape[0]))
    covered = np.zeros(n, dtype=bool)
    for p in front:
        covered |= np.all(pts <= p, axis=1)
    return box * covered.mean()


def monte_carlo_eu(front, n=1_000_000, seed=0):
    front = np.asarray(front, dtype=np.float64)
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((n, front.shape[1]))
    w = e / e.sum(axis=1, keepdims=True)
    return float((w @ front.T).max(axis=1).mean())


# ---------------------------------------------------------------------------
# Dominance and filtering


def test_dominates_examples():
    assert dominates(np.array([2.0, 3.0]), np.array([1.0, 3.0]))
    assert not dominates(np.array([2.0, 3.0]), np.array([2.0, 3.0]))
    assert not dominates(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates(np.array([1.0]), np.array([1.0, 2.0]))


def test_filter_simple():
    archive = non_dominated_filter(archive_of([[1, 1], [2, 2], [0, 3]]))
    kept = {tuple(p.returns) for p in archive.points}
    assert kept == {(2.0, 2.0), (0.0, 3.0)}


def test_filter_collapses_duplicates_lowest_id():
    pts = archive_of([[1, 1], [1, 1], [1, 1]], ids=[5, 2, 9])
    archive = non_dominated_filter(pts)
    assert len(archive) == 1
    assert archive.points[0].policy_id == 2


def test_filter_matches_brute_force_200_points():
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(200, 2))
    archive = non_dominated_filter(archive_of(rows))
    assert {tuple(p.returns) for p in archive.points} == brute_force_filter(rows)


def test_filter_matches_brute_force_3d():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(120, 3))
    archive = non_dominated_filter(archive_of(rows))
    assert {tuple(p.returns) for p in archive.points} == brute_force_filter(rows)


def test_filter_idempotent():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(80, 2))
    once = non_dominated_filter(archive_of(rows))
    twice = non_dominated_filter(once.points)
    assert {tuple(p.returns) for p in once.points} == {tuple(p.returns) for p in twice.points}


def sequential_filter(points):
    """Reference: duplicates collapse to the lowest policy_id, then each
    point in lexicographically descending order is kept unless an earlier
    survivor dominates it."""
    by_returns = {}
    for p in points:
        key = tuple(p.returns.tolist())
        kept = by_returns.get(key)
        if kept is None or p.policy_id < kept.policy_id:
            by_returns[key] = p
    unique = list(by_returns.values())
    order = sorted(range(len(unique)), key=lambda i: tuple(-unique[i].returns))
    kept_points = []
    for i in order:
        if not any(dominates(k.returns, unique[i].returns) for k in kept_points):
            kept_points.append(unique[i])
    return kept_points


def assert_same_points(got, want):
    assert [p.policy_id for p in got] == [p.policy_id for p in want]
    assert [p.returns.tobytes() for p in got] == [p.returns.tobytes() for p in want]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 40, FILTER_BLOCK, FILTER_BLOCK + 1, 3 * FILTER_BLOCK + 17])
@pytest.mark.parametrize("id_kind", ["int", "str"])
def test_filter_matches_sequential_reference(d, n, id_kind):
    rng = np.random.default_rng([d, n])
    for decimals in (0, 1, 3):
        # Few distinct values per objective: duplicates and ties on
        # single objectives are common.
        rows = np.round(rng.normal(size=(n, d)), decimals)
        perm = rng.permutation(n)
        ids = [int(i) for i in perm] if id_kind == "int" else [f"p{i}" for i in perm]
        points = archive_of(rows, ids)
        archive = non_dominated_filter(points)
        assert archive.d == d
        assert_same_points(archive.points, sequential_filter(points))


@pytest.mark.parametrize("d", [2, 3])
def test_filter_keeps_an_all_front_set_in_reference_order(d):
    rng = np.random.default_rng(d)
    x = np.abs(rng.standard_normal((2 * FILTER_BLOCK + 5, d)))
    rows = x / np.linalg.norm(x, axis=1, keepdims=True)
    points = archive_of(rows, [f"p{i}" for i in range(len(rows))])
    archive = non_dominated_filter(points)
    assert len(archive) == len(rows)
    assert_same_points(archive.points, sequential_filter(points))


def test_filter_single_point_is_itself():
    points = archive_of([[0.5, -2.0, 1.0]], ids=[7])
    archive = non_dominated_filter(points)
    assert_same_points(archive.points, points)


# ---------------------------------------------------------------------------
# Hypervolume


def test_hv_unit_box():
    assert hypervolume(np.array([[1.0, 1.0]]), np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_hv_three_point_staircase():
    front = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]])
    assert hypervolume(front, np.array([0.0, 0.0])) == pytest.approx(6.0)


def test_hv_ref_shift_adds_extent():
    front = np.array([[3.0, 1.0], [1.0, 3.0]])
    ref = np.array([0.0, 0.0])
    base = hypervolume(front, ref)
    t = 0.7
    shifted = hypervolume(front, ref - np.array([t, 0.0]))
    # Shifting the ref by -t in one coordinate adds t * extent in the other.
    assert shifted - base == pytest.approx(t * 3.0)


def test_hv_ref_must_be_dominated():
    with pytest.raises(ValueError):
        hypervolume(np.array([[1.0, 1.0]]), np.array([2.0, 0.0]))


@pytest.mark.parametrize("ref", [[np.nan, 0.0], [-np.inf, 0.0]])
def test_hv_ref_must_be_finite(ref):
    with pytest.raises(ValueError, match="non-finite"):
        hypervolume(np.array([[1.0, 1.0]]), np.array(ref))


def test_hv_monotone_under_added_points():
    rng = np.random.default_rng(0)
    front = rng.uniform(1, 2, size=(6, 2))
    ref = np.zeros(2)
    base = hypervolume(front, ref)
    grown = hypervolume(np.vstack([front, [[2.5, 2.5]]]), ref)
    assert grown >= base
    dominated_added = hypervolume(np.vstack([front, front.min(axis=0)[None, :]]), ref)
    assert dominated_added == pytest.approx(base)


@pytest.mark.parametrize("d", [2, 3])
def test_hv_agrees_with_monte_carlo(d):
    rng = np.random.default_rng(17)
    for trial in range(10):
        front = rng.uniform(0.5, 3.0, size=(rng.integers(2, 9), d))
        ref = np.zeros(d)
        exact = hypervolume(front, ref)
        mc = monte_carlo_hypervolume(front, ref, n=200_000, seed=trial)
        assert exact == pytest.approx(mc, rel=0.02)


def _reference_hv2d(front, ref):
    """The 2-D sweep's loop form: strips added one point at a time."""
    order = np.argsort(-front[:, 0])
    hv = 0.0
    best_y = ref[1]
    for x, y in front[order]:
        if y > best_y:
            hv += (x - ref[0]) * (y - best_y)
            best_y = y
    return hv


def _reference_hv3d(front, ref):
    """The 3-D sweep's loop form: each slab's points gathered into a list."""
    order = np.argsort(-front[:, 2])
    pts = front[order]
    volume = 0.0
    layer = []
    i = 0
    prev_z = None
    while i < len(pts):
        z = pts[i, 2]
        if layer and prev_z is not None and prev_z > z:
            volume += _reference_hv2d(np.stack(layer), ref[:2]) * (prev_z - z)
        while i < len(pts) and pts[i, 2] == z:
            layer.append(pts[i, :2])
            i += 1
        prev_z = z
    if layer and prev_z is not None:
        volume += _reference_hv2d(np.stack(layer), ref[:2]) * (prev_z - ref[2])
    return volume


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 60, 400])
def test_hv_equals_loop_reference_bit_for_bit(d, n):
    rng = np.random.default_rng(n + d)
    reference = {2: _reference_hv2d, 3: _reference_hv3d}[d]
    # Coarse grids repeat x and z values; a fine one mostly does not; points
    # on a sphere are mutually non-dominated, so every one adds a strip.
    sphere = np.abs(rng.standard_normal((n, d)))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    for values in (rng.integers(0, 4, size=(n, d)) / 2.0, rng.uniform(0, 1, size=(n, d)), sphere):
        ref = np.full(d, -0.25)
        assert hypervolume(values, ref) == float(reference(values, ref))


def test_hv3d_hand_value():
    # Two boxes: (2,1,1) and (1,1,2) from origin: union = 2 + 2 - 1 = 3.
    front = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    assert hypervolume(front, np.zeros(3)) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Expected utility


def test_eu_two_vertices_closed_form():
    # E[max(w, 1-w)] over uniform w = 3/4.
    front = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert expected_utility(front, n_weights=1_000_000, seed=0) == pytest.approx(0.75, abs=0.005)


def test_eu_singleton_mean_weight():
    g = np.array([2.0, 5.0, 8.0])
    eu = expected_utility(g[None, :], n_weights=1_000_000, seed=1)
    assert eu == pytest.approx(g.sum() / 3, abs=0.01)


def test_eu_constant_on_diagonal_point():
    assert expected_utility(np.array([[1.0, 1.0]]), n_weights=100, seed=2) == pytest.approx(1.0)


def test_eu_seeded_reproducible():
    front = np.array([[1.0, 0.2], [0.3, 0.9]])
    assert expected_utility(front, 5000, seed=3) == expected_utility(front, 5000, seed=3)


def test_eu_invariant_to_dominated_points():
    front = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    plus = np.vstack([front, [[0.5, 0.5]]])  # dominated by (0.6, 0.6)
    a = expected_utility(front, 20_000, seed=4)
    b = expected_utility(plus, 20_000, seed=4)
    assert a == pytest.approx(b, abs=1e-12)


def test_eu_empty_archive_rejected():
    with pytest.raises(ValueError):
        expected_utility(np.zeros((0, 2)), 10, seed=0)


def one_block_eu(front, n_weights, seed, chunk=65_536):
    """Expected utility with each sum chunk's whole weight-by-front product in one block."""
    rng = np.random.default_rng(seed)
    total, remaining = 0.0, n_weights
    while remaining > 0:
        m = min(chunk, remaining)
        weights = sample_simplex(m, front.shape[1], rng)
        total += float((weights @ front.T).max(axis=1).sum())
        remaining -= m
    return total / n_weights


# 70,000 weights cross the 65,536-weight sum chunk; 1,025 and 10,003 leave
# a lone last row for blocks of 1,024 and 2.
@pytest.mark.parametrize("block", [2, 7, 1024])
@pytest.mark.parametrize("n_weights", [1025, 10_000, 10_003, 70_000])
@pytest.mark.parametrize("d, n_points", [(2, 1), (2, 389), (3, 400)])
def test_eu_blocks_match_one_block_bit_for_bit(monkeypatch, block, n_weights, d, n_points):
    front = np.random.default_rng(d * 1000 + n_points).uniform(-50.0, 50.0, (n_points, d))
    monkeypatch.setattr(pareto, "EU_BLOCK", block)
    assert expected_utility(front, n_weights, seed=5) == one_block_eu(front, n_weights, seed=5)


def test_eu_memory_is_bounded_by_one_block():
    front = np.random.default_rng(6).uniform(-50.0, 50.0, (400, 3))
    tracemalloc.start()
    try:
        expected_utility(front, 10_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The one-block product alone is 10,000 x 400 x 8 B = 32 MB.
    assert peak < 8e6


# ---------------------------------------------------------------------------
# Sparsity


def test_sparsity_hand_value():
    front = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert sparsity(front) == pytest.approx(2.0)


def test_sparsity_identical_points_zero():
    assert sparsity(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0


def test_sparsity_uniform_1d_spacing():
    delta = 0.35
    vals = (np.arange(7) * delta)[:, None]
    assert sparsity(vals) == pytest.approx(delta**2)


def test_sparsity_singleton_zero():
    assert sparsity(np.array([[3.0, 4.0]])) == 0.0


@given(st.floats(-50, 50), st.floats(0.1, 10))
@settings(max_examples=25)
def test_sparsity_translation_and_scaling(shift, scale):
    rng = np.random.default_rng(8)
    front = rng.normal(size=(6, 2))
    base = sparsity(front)
    assert sparsity(front + shift) == pytest.approx(base, rel=1e-9)
    assert sparsity(front * scale) == pytest.approx(base * scale**2, rel=1e-9)


# ---------------------------------------------------------------------------
# Table I/O and reference points


def test_front_table_roundtrip(tmp_path):
    pts = [FrontPoint(np.array([1.25, -0.75]), 3, "extended"),
           FrontPoint(np.array([0.2, 0.9]), 7, "fine_tuned")]
    archive = non_dominated_filter(pts)
    path = tmp_path / "front.csv"
    save_front_table(path, archive)
    back = load_front_table(path)
    assert back.d == 2
    assert {tuple(p.returns) for p in back.points} == {tuple(p.returns) for p in archive.points}
    assert {p.stage for p in back.points} == {p.stage for p in archive.points}


def test_front_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError):
        load_front_table(path)


@pytest.mark.parametrize(
    "returns",
    [[1.0, np.nan], [np.inf, 0.0], [-np.inf], [[1.0], [np.nan]], np.nan, [1e308, 1e308], [], [[2.0], [3.0]], 4.0],
)
def test_front_point_rejects_exactly_what_isfinite_rejects(returns):
    # Returns that are not a non-empty vector are refused before their values are read.
    values = np.asarray(returns, dtype=np.float64)
    if values.ndim != 1 or not values.size:
        with pytest.raises(ValueError, match="not a non-empty vector"):
            FrontPoint(returns, 0)
    elif np.isfinite(values).all():
        FrontPoint(returns, 0)
    else:
        with pytest.raises(ValueError, match="non-finite"):
            FrontPoint(returns, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_front_table_keeps_ids_order_and_return_bytes(tmp_path, d):
    rng = np.random.default_rng(d)
    rows = rng.normal(scale=100.0, size=(300, d))
    rows[::7] = np.nextafter(rows[::7], np.inf)
    rows[3] = -0.0
    lines = ["policy_id," + ",".join(f"obj_{k + 1}" for k in range(d)) + ",stage"]
    lines += [f"p{i}," + ",".join(repr(float(v)) for v in row) + f",s{i % 3}" for i, row in enumerate(rows)]
    lines.insert(5, "")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    table = load_front_table(path)
    assert table.d == d
    assert [(p.policy_id, p.stage) for p in table.points] == [(f"p{i}", f"s{i % 3}") for i in range(300)]
    assert [p.returns.tobytes() for p in table.points] == [row.tobytes() for row in rows]


HEADER = "policy_id,obj_1,obj_2,stage\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "not a front table (header None)"),
        ("nope,nope\n1,2\n", "not a front table (header ['nope', 'nope'])"),
        (HEADER, "front table has no rows"),
        (HEADER + "\n\n", "front table has no rows"),
        (HEADER + "a,1,2,s\nb,1,2\n", "row has 3 fields, expected 4"),
        (HEADER + "a,1,abc,s\n", "could not convert string to float: 'abc'"),
        (HEADER + "a,1,2,s\nb,nan,2,s\n", "front point has non-finite returns"),
        (HEADER + "a,1,1e400,s\n", "front point has non-finite returns"),
        # The first bad row decides the error, whatever comes after it.
        (HEADER + "a,inf,2,s\nb,1,2\n", "front point has non-finite returns"),
        (HEADER + "a,-inf,2,s\nb,1,abc,s\n", "front point has non-finite returns"),
        (HEADER + "a,1,2\nb,nan,2,s\n", "row has 3 fields, expected 4"),
        (HEADER + "a,nan,abc,s\n", "could not convert string to float: 'abc'"),
    ],
)
def test_front_table_errors(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_front_table(path)
    assert str(err.value).removeprefix(f"{path}: ") == message


def test_default_reference_point():
    ref = default_reference_point([np.array([1.0, 5.0]), np.array([3.0, 2.0])])
    assert np.allclose(ref, [0.0, 1.0])
