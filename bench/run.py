"""End-to-end benchmark of morlext.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client in this process runs one op
at a time, until the next op would end after S seconds (at least two
ops). An op is one in-process `morlext run`, or one pass of front
analysis over generated inputs. Every op's output is checked, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END). With
--trace 1, untraced and traced ops alternate, and the metrics are the
per-layer ones (PER_LAYER), taken per traced op from spans that wrap
morlext's public functions (see spans.py).

morlext is imported from the `src` directory next to this one and never
from anywhere else. BLAS threads stay at the library default; the thread
count and the variables that set it are recorded, not pinned.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_OPS = 2
SETUP_SAMPLES = 12
# Spread of the dominated points below a generated front, as a share of its radius.
TABLE_NOISE = 0.1


@dataclass(frozen=True)
class Pipeline:
    """One `morlext run` per op; `ppo` holds extra [ppo] config keys."""

    env: str
    K: int
    total_budget: int
    delta_alpha: float
    ppo: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FrontAnalysis:
    """Load, filter and score two front tables, export a front from a policy
    archive, and match archived network pairs, per op."""

    d2_points: int
    d3_points: int
    d2_front: int
    d3_front: int
    pairs: int


# Why each workload: see README.md in this directory.
WORKLOADS = {
    "pipeline_train": Pipeline("dual_goal", K=4, total_budget=40_000, delta_alpha=0.25),
    "pipeline_extend": Pipeline("speed_energy", K=6, total_budget=15_360, delta_alpha=0.02),
    "front_analysis": FrontAnalysis(d2_points=4000, d3_points=1500, d2_front=150, d3_front=400, pairs=16),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better); values are per traced op unless a ratio.
PER_LAYER = {
    "envs.step_batch.calls": ("count", "lower"),
    "envs.step_batch.rows": ("count", "lower"),
    "envs.step_batch.self_s": ("s", "lower"),
    "policy.evaluate_returns.calls": ("count", "lower"),
    "policy.evaluate_returns.self_s": ("s", "lower"),
    "policy.Mlp.forward.calls": ("count", "lower"),
    "policy.Mlp.forward.self_s": ("s", "lower"),
    "policy.unflatten.calls": ("count", "lower"),
    "policy.unflatten.self_s": ("s", "lower"),
    "ppo.train.calls": ("count", "lower"),
    "ppo.train.self_s": ("s", "lower"),
    "ppo.train.steps_per_s": ("1/s", "higher"),
    "ppo.collect_rollout.calls": ("count", "lower"),
    "ppo.collect_rollout.self_s": ("s", "lower"),
    "ppo.compute_gae.self_s": ("s", "lower"),
    "ppo.ppo_update.calls": ("count", "lower"),
    "ppo.ppo_update.self_s": ("s", "lower"),
    "ppo.loss_and_grad.calls": ("count", "lower"),
    "ppo.loss_and_grad.self_s": ("s", "lower"),
    "ppo.Adam.step.calls": ("count", "lower"),
    "ppo.Adam.step.self_s": ("s", "lower"),
    "pareto.non_dominated_filter.calls": ("count", "lower"),
    "pareto.non_dominated_filter.points_in": ("count", "lower"),
    "pareto.non_dominated_filter.points_kept": ("count", "lower"),
    "pareto.non_dominated_filter.self_s": ("s", "lower"),
    "pareto.dominates.calls": ("count", "lower"),
    "pareto.hypervolume.self_s": ("s", "lower"),
    "pareto.expected_utility.self_s": ("s", "lower"),
    "pareto.sparsity.self_s": ("s", "lower"),
    "pareto.load_front_table.self_s": ("s", "lower"),
    "pareto.save_front_table.self_s": ("s", "lower"),
    "distance.hungarian_distance.calls": ("count", "lower"),
    "distance.hungarian_distance.self_s": ("s", "lower"),
    "distance.hungarian_solve.calls": ("count", "lower"),
    "distance.hungarian_solve.self_s": ("s", "lower"),
    "extension.init.s": ("s", "lower"),
    "extension.directional_retrain.s": ("s", "lower"),
    "extension.extend.s": ("s", "lower"),
    "extension.select_candidates.s": ("s", "lower"),
    "extension.fine_tune.s": ("s", "lower"),
    "extension.final_eval.s": ("s", "lower"),
    "extension.candidates": ("count", "higher"),
    "extension.survivor_ratio": ("ratio", "higher"),
    "extension.eval_cache_hit_ratio": ("ratio", "higher"),
    "extension.zero_step_finetune_ratio": ("ratio", "lower"),
    "extension.train_env_steps": ("count", "lower"),
    "extension.eval_env_steps": ("count", "lower"),
    "extension.warnings": ("count", "lower"),
    "archive.save_archive.self_s": ("s", "lower"),
    "archive.save_archive.bytes": ("B", "lower"),
    "archive.load_archive.self_s": ("s", "lower"),
    "archive.load_archive.bytes": ("B", "lower"),
    "cli.artifacts_s": ("s", "lower"),
    "cli.run_dir_bytes": ("B", "lower"),
    "cli.run_dir_files": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

STAGES = ("directional_retrain", "extend", "select_candidates", "fine_tune")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no morlext sources)."""


def import_morlext():
    """Import morlext from SRC, refusing any other copy."""
    if not (SRC / "morlext" / "__init__.py").is_file():
        raise BenchError(f"no morlext sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import morlext
    import morlext.cli

    if Path(morlext.__file__).resolve().parent != SRC / "morlext":
        raise BenchError(f"imported morlext from {morlext.__file__}, not from {SRC}")
    return morlext


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, the op, and its checks


class PipelineWorkload:
    def __init__(self, spec: Pipeline, seed: int, work: Path):
        self.config = work / "config.ini"
        ppo = "".join(f"{k} = {v}\n" for k, v in spec.ppo.items())
        self.config.write_text(
            f"[run]\nenv = {spec.env}\nseed = {seed}\ntotal_budget = {spec.total_budget}\n"
            f"[lle]\nk = {spec.K}\ndelta_alpha = {spec.delta_alpha!r}\n"
            + (f"[ppo]\n{ppo}" if ppo else "")
        )
        self.setup_code = (
            f"cfg = morlext.cli.load_run_config({str(self.config)!r})\n"
            "morlext.envs.make_env(cfg['env'])\n"
        )

    def op(self, morlext, out_dir: Path) -> None:
        code = morlext.cli.main(["run", "--config", str(self.config), "--output-dir", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"morlext run exited with code {code}")

    def check(self, morlext, out_dir: Path) -> tuple[list[str], dict]:
        failures, metrics = checks.check_run_dir(out_dir)
        return failures, {k: metrics[k] for k in ("hv", "eu") if k in metrics}

    def fingerprint(self, out_dir: Path) -> bytes:
        return (out_dir / "front.csv").read_bytes()


def _write_table(path: Path, points: np.ndarray) -> None:
    d = points.shape[1]
    lines = ["policy_id," + ",".join(f"obj_{i + 1}" for i in range(d)) + ",stage"]
    lines += [f"p{i}," + ",".join(repr(float(v)) for v in row) + ",generated" for i, row in enumerate(points)]
    path.write_text("\n".join(lines) + "\n")


def concave_front(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random points on the positive orthant of a sphere of radius 100.

    Points of equal norm cannot dominate each other, so all n are on the front.
    """
    x = np.abs(rng.standard_normal((n, d)))
    return 100.0 * x / np.linalg.norm(x, axis=1, keepdims=True)


def noisy_table(rng: np.random.Generator, n: int, d: int, n_front: int) -> np.ndarray:
    """n_front front points plus n - n_front points below them, shuffled.

    Each extra point is a front point minus positive noise in every
    objective, so it is dominated. The front size, and with it the work
    of filtering and scoring, is the same for every seed.
    """
    front = concave_front(rng, n_front, d)
    below = front[rng.integers(n_front, size=n - n_front)]
    below = below - 100.0 * TABLE_NOISE * np.abs(rng.standard_normal(below.shape)) - 1e-6
    return rng.permutation(np.concatenate([front, below]))


class FrontAnalysisWorkload:
    def __init__(self, spec: FrontAnalysis, seed: int, work: Path):
        from morlext.archive import ArchiveRecord, save_archive
        from morlext.envs import make_env
        from morlext.ppo import init_actor_critic

        self.spec = spec
        self.rng = np.random.default_rng([seed, 1])
        rng = np.random.default_rng(seed)
        self.raw = {
            "d2": noisy_table(rng, spec.d2_points, 2, spec.d2_front),
            "d3": noisy_table(rng, spec.d3_points, 3, spec.d3_front),
        }
        self.tables = {}
        for name, points in self.raw.items():
            self.tables[name] = work / f"table_{name}.csv"
            _write_table(self.tables[name], points)
        env = make_env("dual_goal")
        self.returns = noisy_table(rng, 2 * spec.pairs, 2, spec.pairs)
        self.nets_a, self.nets_b = [], []
        for i in range(spec.pairs):
            a = init_actor_critic(env, int(rng.integers(2**31)))
            b = checks.permute_hidden(a, rng)
            b.data += 0.05 * rng.standard_normal(b.data.shape)
            self.nets_a.append(a)
            self.nets_b.append(b)
        self.archives = (work / "policies_a.jsonl", work / "policies_b.jsonl")
        for path, nets, offset in zip(self.archives, (self.nets_a, self.nets_b), (0, spec.pairs)):
            save_archive(path, [
                ArchiveRecord(theta, {"policy_id": offset + i, "stage": "generated",
                                      "returns": self.returns[offset + i].tolist()})
                for i, theta in enumerate(nets)
            ])
        self.setup_code = "morlext.cli.build_parser()\n"
        self.checked = False

    def op(self, morlext, out_dir: Path) -> None:
        pareto = morlext.pareto
        out_dir.mkdir(parents=True)
        for name, table in self.tables.items():
            front = pareto.non_dominated_filter(pareto.load_front_table(table).points)
            pareto.save_front_table(out_dir / f"front_{name}.csv", front)
            _cli(morlext, ["metrics", str(out_dir / f"front_{name}.csv")], out_dir / f"metrics_{name}.json")
        _cli(morlext, ["front-export", str(self.archives[0]), "-o", str(out_dir / "export.csv")], None)
        for i in range(self.spec.pairs):
            args = ["distance", *map(str, self.archives), "--entry-a", str(i), "--entry-b", str(i)]
            _cli(morlext, args, out_dir / f"distance_{i}.txt")

    def check(self, morlext, out_dir: Path) -> tuple[list[str], dict]:
        failures = []
        values = {}
        for name, raw in self.raw.items():
            front = checks.read_table(out_dir / f"front_{name}.csv")
            if not self.checked:
                failures += checks.check_filtered(raw, front, f"front_{name}")
            metrics = json.loads((out_dir / f"metrics_{name}.json").read_text())
            values[f"hv_{name}"] = metrics["hv"]
            values[f"eu_{name}"] = metrics["eu"]
        if not self.checked:
            self.checked = True
            fronts = [checks.read_table(out_dir / f"front_{name}.csv") for name in self.raw]
            failures += checks.check_hypervolume(morlext.pareto.hypervolume, fronts, self.rng)
            failures += checks.check_distance(
                morlext.distance.hungarian_distance, self.nets_a[0], self.nets_b[0], self.rng
            )
            reverse = morlext.distance.hungarian_distance(self.nets_b[0], self.nets_a[0])[0]
            forward = float((out_dir / "distance_0.txt").read_text().split()[-1])
            # The CLI prints six significant digits.
            if abs(forward - reverse) > 1e-5 * max(1.0, abs(reverse)):
                failures.append(f"CLI distance {forward!r} disagrees with the reverse pair {reverse!r}")
            exported = checks.read_table(out_dir / "export.csv")
            failures += checks.check_filtered(self.returns[: self.spec.pairs], exported, "front-export")
        return failures, values

    def fingerprint(self, out_dir: Path) -> bytes:
        return b"".join(path.read_bytes() for path in sorted(out_dir.iterdir()))


def _cli(morlext, argv: list[str], stdout_path: Path | None) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = morlext.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"morlext {argv[0]} exited with code {code}")
    if stdout_path is not None:
        stdout_path.write_text(buf.getvalue())


def make_workload(spec, seed: int, work: Path):
    if isinstance(spec, Pipeline):
        return PipelineWorkload(spec, seed, work)
    return FrontAnalysisWorkload(spec, seed, work)


# ---------------------------------------------------------------------------
# Measurement


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def setup_seconds(workload) -> float:
    """Seconds from starting a fresh interpreter to being ready for the first op."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport numpy, morlext, morlext.cli\n"
    code += workload.setup_code + "print('ready', flush=True)\n"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"set-up probe failed with code {child.returncode}")
    return ready - start


@dataclass
class OpResult:
    traced: bool
    wall_s: float
    cpu_s: float
    warnings: int
    error: str | None
    out_bytes: int = 0
    out_files: int = 0
    check_values: dict = field(default_factory=dict)


def run_op(workload, morlext, out_dir: Path, tracer: Tracer | None, reference: list) -> OpResult:
    """Time one op, then check its output (untimed) and remove it."""
    out = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install(morlext)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                workload.op(morlext, out_dir)
        except Exception as err:  # an op failure is counted, not fatal
            error = f"{type(err).__name__}: {err} {out.getvalue()[-500:]}"
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result = OpResult(tracer is not None, wall, cpu, len(caught), error)
    if error is None:
        try:
            failures, values = workload.check(morlext, out_dir)
            fingerprint = workload.fingerprint(out_dir)
        except (OSError, ValueError, KeyError) as err:
            failures, values, fingerprint = [f"unreadable output: {err}"], {}, None
        if not reference:
            reference.append(fingerprint)
        elif fingerprint != reference[0]:
            failures.append("output bytes differ from the first op of this seed")
        if failures:
            result.error = "; ".join(failures)
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        result.out_files = len(files)
        result.out_bytes = sum(p.stat().st_size for p in files)
        result.check_values = values
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def measure(workload, morlext, work: Path, seconds: float, tracer: Tracer | None) -> list[OpResult]:
    """Closed loop; with a tracer, untraced and traced ops alternate."""
    results: list[OpResult] = []
    reference: list = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        result = run_op(workload, morlext, work / f"op{len(results)}", tracer if traced else None, reference)
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_OPS and elapsed + max(r.wall_s for r in results) > seconds:
            return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def per_layer_metrics(tracer: Tracer, traced: list[OpResult], untraced: list[OpResult]) -> dict[str, float]:
    n = len(traced)
    stats, under, counters = tracer.stats, tracer.under, tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / n

    def total_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / n

    def count(name):
        return counters.get(name, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if measure == "calls":
            values[name] = calls(layer)
        elif measure == "self_s":
            values[name] = self_s(layer)
    for name in ("envs.step_batch.rows", "pareto.non_dominated_filter.points_in",
                 "pareto.non_dominated_filter.points_kept", "archive.save_archive.bytes",
                 "archive.load_archive.bytes", "extension.candidates",
                 "extension.train_env_steps", "extension.eval_env_steps"):
        values[name] = count(name)
    values["ppo.train.steps_per_s"] = ratio(count("extension.train_env_steps"), total_s("ppo.train"))

    pipeline = "extension.run_pipeline"
    values["extension.init.s"] = under.get((pipeline, "ppo.train"), 0.0) / n
    for stage in STAGES:
        values[f"extension.{stage}.s"] = under.get((pipeline, f"extension.{stage}"), 0.0) / n
    values["extension.final_eval.s"] = total_s(pipeline) - sum(
        values[f"extension.{stage}.s"] for stage in ("init",) + STAGES
    )
    values["extension.survivor_ratio"] = ratio(count("extension.selected"), count("extension.candidates"))
    values["extension.eval_cache_hit_ratio"] = (
        1.0 - ratio(calls("policy.evaluate_returns"), count("extension.eval_requests"))
        if count("extension.eval_requests") else 0.0
    )
    values["extension.zero_step_finetune_ratio"] = ratio(
        count("ppo.train.zero_step_calls"), count("extension.selected")
    )
    values["extension.warnings"] = sum(r.warnings for r in traced) / n
    values["cli.artifacts_s"] = total_s("cli.cmd_run") - under.get(("cli.cmd_run", pipeline), 0.0) / n
    values["cli.run_dir_bytes"] = sum(r.out_bytes for r in traced) / n
    values["cli.run_dir_files"] = sum(r.out_files for r in traced) / n
    traced_wall = sum(r.wall_s for r in traced)
    values["trace.coverage"] = tracer.root_s / traced_wall
    values["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
    )
    return values


# ---------------------------------------------------------------------------
# Machine facts


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it exposes one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, spec, seed: int, seconds: float, trace: bool,
                 tracer: Tracer | None = None, log=print) -> tuple[dict, list[OpResult]]:
    """Run one workload; returns the result object (the last output line) and the ops."""
    morlext = import_morlext()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make_workload(spec, seed, work)
        # Half the set-up samples before the ops and half after, so the
        # median spans the run's changes in machine speed.
        probes = 0 if trace else SETUP_SAMPLES // 2
        setups = [setup_seconds(workload) for _ in range(probes)]
        tracer = tracer if tracer is not None else (Tracer() if trace else None)
        results = measure(workload, morlext, work, seconds, tracer)
        setups += [setup_seconds(workload) for _ in range(probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    log(f"workload {name} seed {seed} trace {int(trace)}: {spec}")
    log("machine " + json.dumps(facts))
    failed = [r for r in results if r.error]
    for i, r in enumerate(results):
        log(f"op {i}: {'traced' if r.traced else 'untraced'} wall {r.wall_s:.4f} s "
            f"cpu {r.cpu_s:.4f} s warnings {r.warnings} {r.error or 'ok'}")
        if r.error is None:
            log(f"  check values {json.dumps(r.check_values)}")
    log(f"error_rate {len(failed)}/{len(results)} = {len(failed) / len(results):.4f}")
    untraced = [r for r in results if not r.traced]
    if trace:
        traced = [r for r in results if r.traced]
        values = per_layer_metrics(tracer, traced, untraced)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])[:15]
        log(f"self time per traced op, top {len(top)} of {len(tracer.stats)} spans:")
        for span, (calls, total, self_time) in top:
            log(f"  {span:40s} calls {calls / len(traced):>10.0f} self {self_time / len(traced):9.4f} s")
        self_sum = sum(s[2] for s in tracer.stats.values()) / len(traced)
        log(f"self times sum to {self_sum:.4f} s of {statistics.mean(r.wall_s for r in traced):.4f} s "
            f"traced wall per op")
    else:
        walls = [r.wall_s for r in untraced]
        q1, med, q3 = quartiles(walls)
        log(f"wall_s median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(walls)}")
        cq1, cmed, cq3 = quartiles([r.cpu_s for r in untraced])
        log(f"cpu_s median {cmed:.4f} q1 {cq1:.4f} q3 {cq3:.4f} n {len(walls)}")
        log(f"setup_s samples {[round(s, 4) for s in setups]}")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": med,
            "cpu_s": cmed,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _ = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
