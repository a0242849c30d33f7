"""Assignment-based structural distance between two networks.

For each layer, every neuron is described by its incoming weight vector
(bias appended). The layer cost matrix holds pairwise Euclidean
distances between the two networks' neuron descriptors, a minimum-cost
perfect matching is solved exactly, and the matched costs are summed
over all layers of the actor mean net and the critic. Hidden-unit
permutation therefore never inflates the distance. State-independent
log stds have no neuron structure and are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import ParameterVector


@dataclass
class Matching:
    """A perfect matching: assignment[i] is the column matched to row i."""

    assignment: np.ndarray
    total_cost: float


def hungarian_solve(cost: np.ndarray) -> Matching:
    """Exact minimum-cost perfect matching on a square matrix, O(m^3).

    Shortest-augmenting-path formulation with row/column potentials
    (Jonker-Volgenant style). Each augmenting step scans the free columns
    as one array pass, updating buffers allocated once in place; ties go
    to the lowest column. Rows and columns are 0-indexed.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    n = cost.shape[0]
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match_col[j] = row assigned to column j (1-based rows, 0 = free)
    match_col = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    # Per-row state, allocated once. minv is held at inf on used columns,
    # whose value is never read again, so argmin skips them and
    # `minv -= delta` leaves them.
    minv = np.empty(n + 1)
    used = np.empty(n + 1, dtype=bool)
    free = np.empty(n + 1, dtype=bool)
    used_rows = np.empty(n + 1, dtype=bool)
    cur = np.empty(n)
    better = np.empty(n, dtype=bool)
    minv_cols, way_cols, v_cols, free_cols = minv[1:], way[1:], v[1:], free[1:]
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv.fill(inf)
        used.fill(False)
        free.fill(True)
        used_rows.fill(False)
        while True:
            used[j0] = True
            free[j0] = False
            minv[j0] = inf
            i0 = match_col[j0]
            used_rows[i0] = True
            np.subtract(cost[i0 - 1], u[i0], out=cur)
            cur -= v_cols
            np.less(cur, minv_cols, out=better)
            better &= free_cols
            np.copyto(minv_cols, cur, where=better)
            np.copyto(way_cols, j0, where=better)
            j1 = int(minv.argmin())
            delta = minv[j1]
            # used_rows marks match_col[used]: the used columns hold distinct rows.
            np.add(u, delta, out=u, where=used_rows)
            np.subtract(v, delta, out=v, where=used)
            minv -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    assignment[match_col[1:] - 1] = np.arange(n)
    total = float(cost[np.arange(n), assignment].sum())
    return Matching(assignment=assignment, total_cost=total)


def incoming_matrices(theta: ParameterVector, prefix: str) -> list[np.ndarray]:
    """Per-layer neuron descriptors: rows are incoming weights plus bias."""
    layers = []
    i = 0
    offsets = theta.layout.offsets()
    while f"{prefix}.W{i}" in offsets:
        w = theta.block(f"{prefix}.W{i}")  # (in, out)
        b = theta.block(f"{prefix}.b{i}")  # (out,)
        layers.append(np.concatenate([w.T, b[:, None]], axis=1))
        i += 1
    return layers


def layer_matching_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum summed Euclidean distance over neuron pairings of one layer."""
    if a.shape != b.shape:
        raise ValueError(f"layer shapes differ: {a.shape} vs {b.shape}")
    diffs = a[:, None, :] - b[None, :, :]
    np.square(diffs, out=diffs)
    cost = np.sqrt(np.sum(diffs, axis=2))
    return hungarian_solve(cost).total_cost


def hungarian_distance(
    a: ParameterVector, b: ParameterVector
) -> tuple[float, dict[str, float]]:
    """Combined matching distance between two networks with equal layouts.

    Actor and critic layers are each matched independently and all layer
    costs are summed. Returns (total, per-layer breakdown).
    """
    if a.layout != b.layout:
        raise ValueError("parameter layouts differ; distance requires identical network shapes")
    breakdown: dict[str, float] = {}
    total = 0.0
    for prefix in ("actor", "critic"):
        layers_a = incoming_matrices(a, prefix)
        layers_b = incoming_matrices(b, prefix)
        for i, (la, lb) in enumerate(zip(layers_a, layers_b)):
            c = layer_matching_cost(la, lb)
            breakdown[f"{prefix}.layer{i}"] = c
            total += c
    return total, breakdown
