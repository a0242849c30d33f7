"""Output checks and independent oracles.

Nothing here calls the code under test to decide what is right: the
dominance and hypervolume oracles are brute force over numpy arrays, and
the run-directory checks read the files the CLI wrote. Each check
returns a list of failure messages; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

# Files and directories `morlext run` documents in its run directory.
RUN_ARTIFACTS = (
    "config.ini",
    "candidates.csv",
    "front.csv",
    "front.svg",
    "metrics.json",
    "policies/bases.jsonl",
    "policies/directions.jsonl",
    "policies/fine_tuned.jsonl",
    "policies/final.jsonl",
    "policies/selected.jsonl",
    "train_logs",
)

HV_RTOL = 1e-9
DISTANCE_ATOL = 1e-9


def read_table(path: Path) -> np.ndarray:
    """Objective matrix of a front table (policy_id, obj_1..obj_d, stage)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:-1]] for row in rows[1:] if row], dtype=np.float64)


def dominated_mask(points: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Rows dominated by some other row: the vectorised O(n^2) oracle."""
    out = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), chunk):
        block = points[lo : lo + chunk, None, :]
        ge = np.all(points[None, :, :] >= block, axis=2)
        gt = np.any(points[None, :, :] > block, axis=2)
        out[lo : lo + chunk] = np.any(ge & gt, axis=1)
    return out


def oracle_front(points: np.ndarray) -> set[tuple[float, ...]]:
    return {tuple(row) for row in points[~dominated_mask(points)].tolist()}


def grid_hypervolume(front: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume by summing the dominated cells of the coordinate grid."""
    axes = [np.unique(np.concatenate([[ref[k]], front[:, k]])) for k in range(front.shape[1])]
    total = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        upper = np.array([axes[k][i + 1] for k, i in enumerate(cell)])
        if np.any(np.all(front >= upper, axis=1)):
            total += float(np.prod([axes[k][i + 1] - axes[k][i] for k, i in enumerate(cell)]))
    return total


def check_hypervolume(hypervolume, fronts: list[np.ndarray], rng: np.random.Generator, size: int = 12) -> list[str]:
    """Compare `hypervolume` with the grid oracle on three random sub-fronts of each front."""
    failures = []
    for front in fronts:
        for _ in range(3):
            sub = front[rng.choice(len(front), size=min(size, len(front)), replace=False)]
            ref = sub.min(axis=0) - 1.0
            got, want = hypervolume(sub, ref), grid_hypervolume(sub, ref)
            if abs(got - want) > HV_RTOL * max(1.0, abs(want)):
                failures.append(f"hypervolume d={front.shape[1]}: {got!r} vs oracle {want!r}")
    return failures


def check_filtered(raw: np.ndarray, filtered: np.ndarray, label: str) -> list[str]:
    got = {tuple(row) for row in filtered.tolist()}
    want = oracle_front(raw)
    if got != want:
        return [f"{label}: filter kept {len(got)} points, oracle {len(want)} ({len(got ^ want)} differ)"]
    return []


def permute_hidden(theta, rng: np.random.Generator):
    """Copy of a flat actor-critic with the units of every hidden layer reordered.

    Each unit keeps its incoming weights and bias, which is the neuron
    descriptor the matching distance compares, so the distance from the
    original must be zero.
    """
    out = theta.copy()
    offsets = theta.layout.offsets()
    for prefix in ("actor", "critic"):
        i = 0
        while f"{prefix}.W{i + 1}" in offsets:
            perm = rng.permutation(out.block(f"{prefix}.b{i}").shape[0])
            out.block(f"{prefix}.W{i}")[...] = out.block(f"{prefix}.W{i}")[:, perm]
            out.block(f"{prefix}.b{i}")[...] = out.block(f"{prefix}.b{i}")[perm]
            i += 1
    return out


def check_distance(hungarian_distance, a, b, rng: np.random.Generator) -> list[str]:
    failures = []
    to_copy = hungarian_distance(a, permute_hidden(a, rng))[0]
    if not to_copy <= DISTANCE_ATOL:
        failures.append(f"distance to a hidden-unit permutation is {to_copy!r}")
    ab, ba = hungarian_distance(a, b)[0], hungarian_distance(b, a)[0]
    if abs(ab - ba) > DISTANCE_ATOL * max(1.0, abs(ab)):
        failures.append(f"distance not symmetric: {ab!r} vs {ba!r}")
    return failures


def check_run_dir(run_dir: Path) -> tuple[list[str], dict]:
    """Check a `morlext run` directory; returns failures and the metrics.json content."""
    missing = [name for name in RUN_ARTIFACTS if not (run_dir / name).exists()]
    if missing:
        return [f"missing artifacts: {missing}"], {}
    failures = []
    if not any((run_dir / "train_logs").iterdir()):
        failures.append("train_logs is empty")
    metrics = json.loads((run_dir / "metrics.json").read_text())
    budget = metrics["budget"]
    if budget["extension_training_steps"] != 0:
        failures.append(f"extension stage trained {budget['extension_training_steps']} steps")
    if budget["training_steps"] > budget["total_budget"]:
        failures.append(f"training steps {budget['training_steps']} exceed budget {budget['total_budget']}")
    hv = metrics["stage_hv"]
    if not hv["bases"] <= hv["after_selection"] <= hv["final"]:
        failures.append(f"stage hypervolume not monotone: {hv}")
    front = read_table(run_dir / "front.csv")
    if len(front) == 0 or dominated_mask(front).any():
        failures.append("front.csv is empty or not mutually non-dominated")
    return failures, metrics
