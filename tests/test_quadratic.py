import numpy as np
import pytest

from morlext.quadratic import (
    ErrorCurve,
    QuadraticObjectiveFamily,
    lle_error_curve,
    pareto_path,
    polyline_distance,
    preset_error_curve,
    preset_family,
    retrain_direction,
    PRESET_BASE_WEIGHT,
    PRESET_DELTA_S,
)


def one_dim_family():
    return QuadraticObjectiveFamily(centers=np.array([[0.0]]), curvatures=np.array([[[1.0]]]))


def test_family_rejects_indefinite_curvature():
    with pytest.raises(ValueError):
        QuadraticObjectiveFamily(
            centers=np.array([[0.0, 0.0]]),
            curvatures=np.array([[[1.0, 0.0], [0.0, -1.0]]]),
        )


def test_constant_difference_component():
    # Two identical objectives: V1 - V2 vanishes everywhere.
    fam = QuadraticObjectiveFamily(
        centers=np.array([[0.2, -0.1], [0.2, -0.1]]),
        curvatures=np.stack([np.eye(2), np.eye(2)]),
    )
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 2))
    vals = fam.values(pts)
    assert np.allclose(vals[:, 0] - vals[:, 1], 0.0)


# ---------------------------------------------------------------------------
# Analytic Pareto structure (identity curvatures)


def test_segment_points_non_dominated_and_off_segment_dominated():
    fam = preset_family("flat")
    c1, c2 = fam.centers
    _, front = pareto_path(fam, n_points=20_001)
    rng = np.random.default_rng(5)

    # On the open segment: nothing on the dense front dominates the point.
    ts = rng.uniform(0.01, 0.99, size=300)
    for v in fam.values(c1 + ts[:, None] * (c2 - c1)):
        dominated = np.any(np.all(front >= v, axis=1) & np.any(front > v, axis=1))
        assert not dominated

    # Off the segment: the projection dominates the point.
    thetas = rng.uniform(-0.5, 1.5, size=(700, 2))
    ts = np.clip((thetas - c1) @ (c2 - c1) / np.dot(c2 - c1, c2 - c1), 0.0, 1.0)
    projs = c1 + ts[:, None] * (c2 - c1)
    off = np.linalg.norm(thetas - projs, axis=1) >= 1e-6
    for v_theta, v_proj in zip(fam.values(thetas[off]), fam.values(projs[off])):
        assert np.all(v_proj >= v_theta) and np.any(v_proj > v_theta)


def test_polyline_distance_exact_on_simple_shape():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    queries = np.array([[0.5, 0.3], [2.0, 1.0], [-1.0, 0.0]])
    d = polyline_distance(queries, line)
    assert np.allclose(d, [0.3, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Error curves


def test_flat_preset_stays_on_front():
    curve = preset_error_curve("flat")
    assert curve.distances.max() <= 1e-4


def test_curved_preset_second_order_slope():
    curve = preset_error_curve("curved")
    assert 1.7 <= curve.fitted_slope <= 2.3


def test_error_at_alpha_zero_within_discretization_tolerance():
    fam = preset_family("curved")
    base = fam.scalarized_optimum(PRESET_BASE_WEIGHT)
    _, front = pareto_path(fam)
    assert polyline_distance(fam.values(base[None, :]), front)[0] <= 1e-6


def test_error_vanishes_first_order_near_zero():
    """dist(alpha)/alpha stays bounded by the small-range maximum ratio."""
    curve = preset_error_curve("curved", coefficients=np.geomspace(1e-3, 0.1, 25))
    ratios = curve.distances / curve.alpha_norms
    c = ratios.max()
    assert np.all(curve.distances <= c * curve.alpha_norms * (1 + 1e-9))
    # and the two smallest coefficients already sit well inside that bound
    assert ratios[0] <= c and ratios[1] <= c


def test_error_curve_distances_deterministic():
    a = preset_error_curve("curved")
    b = preset_error_curve("curved")
    assert np.array_equal(a.distances, b.distances)


def test_error_curve_rejects_rank_deficient_directions():
    fam = preset_family("curved")
    base = fam.scalarized_optimum(PRESET_BASE_WEIGHT)
    with pytest.raises(ValueError, match="direction is zero"):
        lle_error_curve(fam, base, np.zeros(2), np.array([0.1, 0.2]))


def test_error_curve_requires_increasing_norms():
    with pytest.raises(ValueError):
        ErrorCurve(alpha_norms=np.array([0.2, 0.1]), distances=np.array([0.0, 0.0]))


def test_retrain_directions_vanish_with_shift():
    fam = preset_family("curved")
    small = retrain_direction(fam, PRESET_BASE_WEIGHT, 1e-6)
    large = retrain_direction(fam, PRESET_BASE_WEIGHT, PRESET_DELTA_S)
    assert small.shape == large.shape == (fam.n,)
    assert np.linalg.norm(small) < 1e-4
    assert np.linalg.norm(large) > 0.1


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_family("bent")
