"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 bench/selftest.py

It runs every workload untraced and traced at tiny sizes and checks that
every op passes its output checks, that the printed metric names and
units match BENCHMARK.json in both directions, that each per-layer
metric is moved by some workload, that spans nest, that
self times are non-negative and sum to no more than the traced wall
time, that the trace wrappers leave the outputs byte-identical (each
traced op is compared with the untraced ones) and are removed again, and
that the benchmark refuses to run without the morlext sources. Exits 0
when all hold and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from spans import Tracer

TINY = {
    "pipeline_train": run.Pipeline(
        "dual_goal", K=2, total_budget=1280, delta_alpha=0.5,
        ppo={"steps_per_batch": 128, "minibatches": 4, "epochs": 1},
    ),
    "pipeline_extend": run.Pipeline(
        "speed_energy", K=3, total_budget=1920, delta_alpha=0.25,
        ppo={"steps_per_batch": 128, "minibatches": 4, "epochs": 1},
    ),
    "front_analysis": run.FrontAnalysis(d2_points=300, d3_points=150, d2_front=20, d3_front=30, pairs=2),
}

# Per-layer metrics that can read 0 on every tiny workload; every other
# one must be non-zero on at least one, which catches a span name that
# matches nothing.
MAY_BE_ZERO = {"extension.warnings", "extension.zero_step_finetune_ratio"}

# Allowance for rounding when a parent's duration and its children's are
# subtracted.
EPS = 1e-9


def check_spans(tracer: Tracer, traced_wall: float) -> list[str]:
    failures = []
    by_id = {span[0]: span for span in tracer.spans}
    children: dict[int | None, list[tuple]] = {}
    for span in tracer.spans:
        span_id, parent_id, name, start, end = span
        children.setdefault(parent_id, []).append(span)
        if end < start:
            failures.append(f"span {name} ends before it starts")
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None or not parent[3] <= start <= end <= parent[4]:
                failures.append(f"span {name} is not inside its parent")
    for siblings in children.values():
        siblings.sort(key=lambda s: s[3])
        for a, b in zip(siblings, siblings[1:]):
            if b[3] < a[4]:
                failures.append(f"sibling spans {a[2]} and {b[2]} overlap")
    self_times = [stat[2] for stat in tracer.stats.values()]
    if min(self_times) < -EPS:
        failures.append(f"negative self time {min(self_times)}")
    if sum(self_times) > traced_wall + EPS:
        failures.append(f"self times sum to {sum(self_times)} s, more than traced wall {traced_wall} s")
    return failures


def check_names(result: dict, declared: list[dict], label: str) -> list[str]:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        diff = sorted(set(printed.items()) ^ set(wanted.items()))
        return [f"{label}: printed metrics differ from BENCHMARK.json: {diff}"]
    return []


def check_refuses_without_sources() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "front_analysis",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without morlext sources: code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    reached = set()
    if set(TINY) != set(run.WORKLOADS) or set(TINY) != {w["name"] for w in declared["workloads"]}:
        failures.append("tiny workloads, run.WORKLOADS and BENCHMARK.json name different workloads")
    for name, spec in TINY.items():
        result, _ = run.run_workload(name, spec, 0, 0.0, trace=False, log=lambda line: None)
        failures += check_names(result, declared["end_to_end"], f"{name} untraced")
        if not result["correct"]:
            failures.append(f"{name} untraced: {result['failed']} of {result['attempted']} ops failed")

        tracer = Tracer(keep_spans=True)
        result, ops = run.run_workload(name, spec, 0, 0.0, trace=True, tracer=tracer, log=lambda line: None)
        failures += check_names(result, declared["per_layer"], f"{name} traced")
        reached |= {metric for metric, m in result["metrics"].items() if m["value"] != 0}
        if not result["correct"]:
            failures.append(f"{name} traced: ops failed or differ from untraced ones: "
                            + "; ".join(op.error for op in ops if op.error))
        if not any(op.traced for op in ops) or all(op.traced for op in ops):
            failures.append(f"{name} traced: needs both traced and untraced ops")
        failures += [f"{name}: {f}" for f in check_spans(tracer, sum(op.wall_s for op in ops if op.traced))]

    if unreached := set(run.PER_LAYER) - reached - MAY_BE_ZERO:
        failures.append(f"per-layer metrics that no workload moves: {sorted(unreached)}")

    morlext = run.import_morlext()
    if hasattr(morlext.extension.train, "__wrapped__") or morlext.extension.train is not morlext.ppo.train:
        failures.append("trace wrappers were not removed")
    failures += check_refuses_without_sources()

    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
