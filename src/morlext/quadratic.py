"""Synthetic parameter-to-performance landscapes with known Pareto sets.

Each objective is a concave quadratic V_i(theta) = -(theta - c_i)' A_i
(theta - c_i) with SPD curvature A_i. For d = 2 the exact Pareto set is
the weighted-optimum path

    theta*(u) = ((1-u) A_1 + u A_2)^{-1} ((1-u) A_1 c_1 + u A_2 c_2)

for u in [0, 1] (the segment [c_1, c_2] when both curvatures are the
identity). This gives a closed-form stand-in for policy returns, so the
extrapolation error order of the linear extension step can be measured
directly: distances to the front vanish with the step coefficient and
grow second-order once curvature bends the lifted set.

Directions are produced the way the training pipeline produces them,
minus the RL noise: brief retraining under a shifted preference is
replaced by one exact gradient ascent step of the shifted scalarized
objective, taken at the converged base point. Note that at a Pareto
point the Jacobian of V has rank d-1 with image tangent to the front,
so a chord through a second front point or a tangent estimate both
suppress the second-order error term this harness is meant to expose;
the single gradient step is the faithful, generic choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class QuadraticObjectiveFamily:
    """d concave quadratic objectives over R^n."""

    centers: np.ndarray  # (d, n)
    curvatures: np.ndarray  # (d, n, n), each SPD

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.curvatures = np.asarray(self.curvatures, dtype=np.float64)
        d, n = self.centers.shape
        if self.curvatures.shape != (d, n, n):
            raise ValueError("curvatures must be one (n, n) matrix per objective")
        for i, a in enumerate(self.curvatures):
            if not np.allclose(a, a.T):
                raise ValueError(f"curvature {i} is not symmetric")
            if np.linalg.eigvalsh(a).min() <= 0:
                raise ValueError(f"curvature {i} is not positive definite")

    @property
    def d(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """V at each row of a (k, n) matrix: a (k, d) matrix."""
        thetas = np.asarray(thetas, dtype=np.float64)
        out = np.empty((thetas.shape[0], self.d))
        for i in range(self.d):
            diff = thetas - self.centers[i]
            out[:, i] = -np.einsum("kj,jl,kl->k", diff, self.curvatures[i], diff)
        return out

    def scalarized_optimum(self, weight: np.ndarray) -> np.ndarray:
        """Exact maximizer of w . V, the converged-training stand-in: an
        (n,) vector for a (d,) weight, or one row per row of a (k, d)
        weight matrix."""
        weight = np.asarray(weight, dtype=np.float64)
        lhs = np.einsum("...i,ijk->...jk", weight, self.curvatures)
        rhs = np.einsum("...i,ijk,ik->...j", weight, self.curvatures, self.centers)
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]

    def scalarized_gradient(self, weight: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Gradient of w . V at theta."""
        weight = np.asarray(weight, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        grad = np.zeros(self.n)
        for i in range(self.d):
            grad += weight[i] * (-2.0) * (self.curvatures[i] @ (theta - self.centers[i]))
        return grad


# ---------------------------------------------------------------------------
# Exact fronts and extrapolation error curves


def pareto_path(fam: QuadraticObjectiveFamily, n_points: int = 100_001) -> tuple[np.ndarray, np.ndarray]:
    """Dense parameterization of the exact Pareto set and front (d = 2)."""
    if fam.d != 2:
        raise ValueError("analytic Pareto path implemented for d = 2")
    us = np.linspace(0.0, 1.0, n_points)
    thetas = fam.scalarized_optimum(np.stack([1.0 - us, us], axis=1))
    return thetas, fam.values(thetas)


def polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Min Euclidean distance from each row of a (k, d) matrix of query
    points to a polyline.

    Distances go to the segments, not only the vertices, so the
    discretization error is second order in the vertex spacing.
    """
    points = np.asarray(points, dtype=np.float64)
    seg_a = polyline[:-1]
    seg_v = polyline[1:] - seg_a
    seg_len2 = np.maximum(np.sum(seg_v**2, axis=1), 1e-300)
    out = np.empty(points.shape[0])
    for i, p in enumerate(points):
        t = np.clip(np.sum((p - seg_a) * seg_v, axis=1) / seg_len2, 0.0, 1.0)
        nearest = seg_a + t[:, None] * seg_v
        out[i] = np.sqrt(np.min(np.sum((p - nearest) ** 2, axis=1)))
    return out


# Step-coefficient range over which an error curve's log-log slope is fitted.
FIT_WINDOW = (0.05, 0.5)


@dataclass
class ErrorCurve:
    """Extrapolation error against the exact front, by step-coefficient size."""

    alpha_norms: np.ndarray
    distances: np.ndarray
    fitted_slope: float = field(init=False, default=float("nan"))

    def __post_init__(self) -> None:
        self.alpha_norms = np.asarray(self.alpha_norms, dtype=np.float64)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        if np.any(np.diff(self.alpha_norms) <= 0):
            raise ValueError("alpha norms must be strictly increasing")
        if np.any(self.distances < 0):
            raise ValueError("distances must be nonnegative")
        self.fitted_slope = self._fit_slope()

    def _fit_slope(self) -> float:
        lo, hi = FIT_WINDOW
        mask = (self.alpha_norms >= lo) & (self.alpha_norms <= hi) & (self.distances > 0)
        if mask.sum() < 2:
            return float("nan")
        x = np.log(self.alpha_norms[mask])
        y = np.log(self.distances[mask])
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)


def retrain_direction(
    fam: QuadraticObjectiveFamily,
    base_weight: np.ndarray,
    delta_s: float,
) -> np.ndarray:
    """The direction from a single exact gradient step at a shifted preference.

    It is the grad of (w + delta (e_1 - e_0)) . V at the base
    optimum: the update brief retraining would take first. The base is
    stationary for its own weight, so the direction vanishes as
    delta_s -> 0 and points along the local trade-off otherwise.
    """
    shifted = np.asarray(base_weight, dtype=np.float64) + delta_s * np.array([-1.0, 1.0])
    return fam.scalarized_gradient(shifted, fam.scalarized_optimum(base_weight))


def lle_error_curve(
    fam: QuadraticObjectiveFamily,
    base_theta: np.ndarray,
    direction: np.ndarray,
    alphas: np.ndarray,
) -> ErrorCurve:
    """Distance from extrapolated returns to the exact front, per step size.

    theta(alpha) = base + alpha * direction for each entry of `alphas`;
    distance is measured in return space against the dense analytic front
    polyline, and |alpha| is the step size.
    """
    base_theta = np.asarray(base_theta, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (fam.n,):
        raise ValueError("direction must have one entry per parameter dimension")
    if not np.any(direction):
        raise ValueError("direction is zero")
    alphas = np.asarray(alphas, dtype=np.float64)
    _, front = pareto_path(fam)
    thetas = base_theta[None, :] + alphas[:, None] * direction[None, :]
    dists = polyline_distance(fam.values(thetas), front)
    norms = np.abs(alphas)
    order = np.argsort(norms)
    return ErrorCurve(alpha_norms=norms[order], distances=dists[order])


# ---------------------------------------------------------------------------
# Named desk-scale presets


def preset_family(name: str) -> QuadraticObjectiveFamily:
    """The flat and curved two-objective instances used by synth-check.

    flat: identity curvatures, so the lifted Pareto set is the straight
    segment between the centers and linear extrapolation along it is
    exact. curved: distinct curvatures with centers off the shared
    eigenvector, making the lifted set provably bent so the extension
    error grows second-order.
    """
    if name == "flat":
        return QuadraticObjectiveFamily(
            centers=np.array([[0.0, 0.0], [1.0, 0.0]]),
            curvatures=np.stack([np.eye(2), np.eye(2)]),
        )
    if name == "curved":
        return QuadraticObjectiveFamily(
            centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
            curvatures=np.stack([np.eye(2), np.diag([1.0, 4.0])]),
        )
    raise ValueError(f"unknown preset {name!r}; choose 'flat' or 'curved'")


PRESET_BASE_WEIGHT = np.array([0.5, 0.5])
PRESET_DELTA_S = 0.1


def preset_error_curve(name: str, coefficients: np.ndarray | None = None) -> ErrorCurve:
    """Error curve for a named preset with its standard base and directions."""
    fam = preset_family(name)
    if coefficients is None:
        coefficients = np.geomspace(0.01, 1.0, 41)
    base = fam.scalarized_optimum(PRESET_BASE_WEIGHT)
    direction = retrain_direction(fam, PRESET_BASE_WEIGHT, PRESET_DELTA_S)
    return lle_error_curve(fam, base, direction, coefficients)
