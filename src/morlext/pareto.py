"""Dominance, non-dominated filtering, and front-quality metrics.

All objectives are maximized. The three metrics:

Hypervolume (HV)
    Lebesgue measure of the union of boxes [ref, p] over front points p,
    computed exactly by a sorted sweep for d=2 and by sweeping the third
    coordinate over 2-D slabs for d=3.

Expected utility (EU)
    Mean over uniform-simplex preference samples w of max_p w . p.

Sparsity (SP)
    S(P) = 1/(|P|-1) * sum_i sum_k (G_i(k) - G_i(k+1))^2 where G_i is the
    i-th objective's values sorted descending; lower means denser.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ppo import BLAS_ONE_THREAD_MNK

# Distance of the default reference point below the worst evaluated return.
REF_POINT_MARGIN = 1.0
# Sorted rows non_dominated_filter decides per array step.
FILTER_BLOCK = 256
# Preference weights per expected-utility product block (at least 2, see
# expected_utility); it bounds the product's memory and changes no result.
EU_BLOCK = 1024
# Preference weights per expected-utility sum chunk; each chunk is summed
# on its own, so it is part of the result.
EU_CHUNK = 65_536


@dataclass
class FrontPoint:
    returns: np.ndarray
    policy_id: int | str
    stage: str = ""

    def __post_init__(self) -> None:
        self.returns = np.asarray(self.returns, dtype=np.float64)
        if self.returns.ndim != 1 or not self.returns.size:
            raise ValueError("front point returns are not a non-empty vector")
        # The same test as np.isfinite(...).all(), at a fifth of the cost on
        # a few objectives; tables build one point per row.
        if not all(map(math.isfinite, self.returns.tolist())):
            raise ValueError("front point has non-finite returns")


@dataclass
class ParetoArchive:
    """A mutually non-dominated set of front points."""

    points: list[FrontPoint]
    d: int

    def matrix(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, self.d))
        return np.stack([p.returns for p in self.points])

    def __len__(self) -> int:
        return len(self.points)


def _front_matrix(archive: ParetoArchive | np.ndarray) -> np.ndarray:
    """Objective matrix of an archive, or the given array as float64."""
    return archive.matrix() if isinstance(archive, ParetoArchive) else np.asarray(archive, dtype=np.float64)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a is componentwise >= b and strictly greater somewhere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def _weakly_above(upper: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), len(upper)) mask: upper[j] >= rows[i] in every objective."""
    mask = upper[None, :, 0] >= rows[:, None, 0]
    for k in range(1, rows.shape[1]):
        mask &= upper[None, :, k] >= rows[:, None, k]
    return mask


def non_dominated_filter(points: Sequence[FrontPoint]) -> ParetoArchive:
    """Keep exactly the points dominated by no other input point.

    Duplicate return vectors collapse to the representative with the
    lowest policy_id. The rest are sorted lexicographically descending,
    the order of the output, so a point can only be dominated by one
    before it. Rows are then decided FILTER_BLOCK at a time against the
    survivors so far and the earlier rows of their own block (a row
    dominated by a dropped row is also dominated by a survivor).
    """
    if not points:
        raise ValueError("cannot filter an empty point set")
    d = points[0].returns.shape[0]
    for p in points:
        if p.returns.shape[0] != d:
            raise ValueError("points mix objective counts")

    by_returns: dict[tuple[float, ...], FrontPoint] = {}
    for p in points:
        key = tuple(p.returns.tolist())
        kept = by_returns.get(key)
        if kept is None or p.policy_id < kept.policy_id:
            by_returns[key] = p
    unique = list(by_returns.values())
    matrix = np.stack([p.returns for p in unique])
    # lexsort's primary key is its last one.
    order = np.lexsort(-matrix.T[::-1])
    rows = matrix[order]

    survivors = np.zeros(len(unique), dtype=bool)
    earlier_in_block = np.tri(FILTER_BLOCK, k=-1, dtype=bool)
    for start in range(0, len(rows), FILTER_BLOCK):
        block = rows[start : start + FILTER_BLOCK]
        n = len(block)
        # Rows are distinct, so an earlier row weakly above a row in
        # every objective dominates it.
        above_survivor = _weakly_above(rows[survivors], block).any(axis=1)
        above_earlier = (_weakly_above(block, block) & earlier_in_block[:n, :n]).any(axis=1)
        survivors[start : start + n] = ~(above_survivor | above_earlier)
    return ParetoArchive(points=[unique[i] for i in order[survivors]], d=d)


# ---------------------------------------------------------------------------
# Hypervolume


def _check_ref(front: np.ndarray, ref: np.ndarray) -> None:
    if not np.all(np.isfinite(ref)):
        raise ValueError(f"reference point {ref.tolist()} has a non-finite entry")
    bad = np.any(front < ref, axis=1)
    if np.any(bad):
        raise ValueError(
            f"reference point {ref.tolist()} is not weakly dominated by all "
            f"front points (e.g. {front[np.argmax(bad)].tolist()})"
        )


def _hv2d(front: np.ndarray, ref: np.ndarray) -> float:
    # Sweep x downwards: a point adds the strip between its y and the best
    # y before it. cumsum adds the strips left to right, like a loop would.
    x, y = front[np.argsort(-front[:, 0])].T
    best_before = np.maximum.accumulate(np.concatenate([ref[1:2], y[:-1]]))
    strips = np.where(y > best_before, (x - ref[0]) * (y - best_before), 0.0)
    return np.cumsum(strips)[-1]


def _hv3d(front: np.ndarray, ref: np.ndarray) -> float:
    # Sweep the third objective downwards; between consecutive levels the
    # dominated region is the 2-D hypervolume of the points above, a
    # prefix of the sorted array, times the slab height.
    pts = front[np.argsort(-front[:, 2])]
    z = pts[:, 2]
    levels = np.flatnonzero(np.concatenate([[True], z[1:] != z[:-1]]))  # first index of each z
    volume = 0.0
    for prev, i in zip(levels, levels[1:]):
        volume += _hv2d(pts[:i, :2], ref[:2]) * (z[prev] - z[i])
    return volume + _hv2d(pts[:, :2], ref[:2]) * (z[levels[-1]] - ref[2])


def hypervolume(archive: ParetoArchive | np.ndarray, ref_point: np.ndarray) -> float:
    """Exact hypervolume of a front against a reference point (d = 2 or 3)."""
    front = _front_matrix(archive)
    ref = np.asarray(ref_point, dtype=np.float64)
    if front.ndim != 2 or front.shape[1] != ref.shape[0]:
        raise ValueError("front and reference point disagree on objective count")
    _check_ref(front, ref)
    if front.shape[0] == 0:
        return 0.0
    d = ref.shape[0]
    if d == 1:
        return float(front[:, 0].max() - ref[0])
    if d == 2:
        return float(_hv2d(front, ref))
    if d == 3:
        return float(_hv3d(front, ref))
    raise ValueError(f"exact hypervolume implemented for d <= 3, got d={d}")


# ---------------------------------------------------------------------------
# Expected utility


def sample_simplex(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (flat Dirichlet) samples on the (d-1)-simplex via exponentials."""
    e = rng.standard_exponential((n, d))
    return e / e.sum(axis=1, keepdims=True)


def expected_utility(
    archive: ParetoArchive | np.ndarray,
    n_weights: int = 10_000,
    seed: int = 0,
) -> float:
    """Mean best scalarized return over uniform random preferences.

    Weights are drawn EU_CHUNK at a time; each chunk's best returns are
    taken a block of weights at a time into one buffer that is summed
    once, so no temporary exceeds (EU_BLOCK + 1, front) and the result
    does not depend on the block size. A block is EU_BLOCK weights or,
    for a large front, as many as keep the product on one BLAS thread.
    """
    front = _front_matrix(archive)
    if front.shape[0] == 0:
        raise ValueError("expected utility of an empty archive is undefined")
    if n_weights < 1:
        raise ValueError("n_weights must be >= 1")
    d = front.shape[1]
    block = max(2, min(EU_BLOCK, BLAS_ONE_THREAD_MNK // max(front.size, 1)))
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = n_weights
    while remaining > 0:
        m = min(EU_CHUNK, remaining)
        weights = sample_simplex(m, d, rng)
        best = np.empty(m)
        # No block is a lone last row: a one-row product goes through
        # BLAS's vector routine, which may round differently.
        bounds = [0, *range(block, m - 1, block), m]
        for lo, hi in zip(bounds, bounds[1:]):
            np.max(weights[lo:hi] @ front.T, axis=1, out=best[lo:hi])
        total += float(best.sum())
        remaining -= m
    return total / n_weights


# ---------------------------------------------------------------------------
# Sparsity


def sparsity(archive: ParetoArchive | np.ndarray) -> float:
    """Mean squared gap between consecutive sorted objective values.

    Duplicate return vectors are collapsed first so repeated points cannot
    deflate the score. Archives of size <= 1 return 0 by convention (the
    metric is undefined there; callers should report that separately).
    """
    front = np.unique(_front_matrix(archive), axis=0)
    m = front.shape[0]
    if m <= 1:
        return 0.0
    sorted_desc = -np.sort(-front, axis=0)
    gaps = np.diff(sorted_desc, axis=0)
    return float(np.sum(gaps**2) / (m - 1))


# ---------------------------------------------------------------------------
# Front table I/O (plain CSV, header: policy_id,obj_1,...,obj_d,stage)


def save_front_table(path: str | Path, archive: ParetoArchive) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy_id"] + [f"obj_{i + 1}" for i in range(archive.d)] + ["stage"])
        for p in archive.points:
            writer.writerow([p.policy_id] + [repr(float(v)) for v in p.returns] + [p.stage])


def load_front_table(path: str | Path) -> ParetoArchive:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "policy_id" or header[-1] != "stage":
            raise ValueError(f"{path}: not a front table (header {header})")
        d = len(header) - 2
        points = []
        for row in reader:
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}: row has {len(row)} fields, expected {d + 2}")
            points.append(
                FrontPoint(
                    returns=np.array([float(v) for v in row[1 : 1 + d]]),
                    policy_id=row[0],
                    stage=row[-1],
                )
            )
    if not points:
        raise ValueError(f"{path}: front table has no rows")
    return ParetoArchive(points=points, d=d)


def default_reference_point(all_returns: Iterable[np.ndarray]) -> np.ndarray:
    """Componentwise minimum over every evaluated policy, minus REF_POINT_MARGIN."""
    stacked = np.stack([np.asarray(r, dtype=np.float64) for r in all_returns])
    return stacked.min(axis=0) - REF_POINT_MARGIN
