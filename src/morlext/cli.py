"""Command-line front end.

Subcommands: run (full pipeline into a run directory), metrics
(recompute front quality from a table), distance (structural distance
between two archived policies), synth-check (closed-form extrapolation
error harness), front-export (rebuild a front table from a policy
archive). Exit codes: 0 success, 1 usage or configuration error,
2 numerical failure.

Configs are flat INI files; every field has a default, so a minimal
config only names the environment and an output directory.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import os
import shutil
import sys
import time
from dataclasses import Field, fields
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .archive import ArchiveRecord, load_archive, save_archive
from .distance import hungarian_distance
from .envs import make_env
from .extension import LleConfig, PipelineResult, run_pipeline
from .pareto import (
    FrontPoint,
    ParetoArchive,
    default_reference_point,
    expected_utility,
    hypervolume,
    load_front_table,
    non_dominated_filter,
    save_front_table,
    sparsity,
)
from .ppo import DivergenceError, PpoConfig
from .quadratic import FIT_WINDOW, preset_error_curve
from .seeding import derive_seed
from .svgplot import render_front_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

EU_DEFAULT_SAMPLES = 10_000

CURVED_SLOPE_WINDOW = (1.7, 2.3)
FLAT_MAX_DIST = 1e-4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config files


def _section_fields(cls: type) -> dict[str, Field]:
    """INI key -> field of a config dataclass. The run seed is set only in [run]."""
    return {f.name.lower(): f for f in fields(cls) if f.name != "seed"}


def _number(key: str, text: str | int, kind: type) -> int | float:
    """A config number as `kind` (int or float); text that is not one, and
    inf or nan, are rejected naming the key."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return value


def _parse_section(sections: dict[str, dict[str, str]], section: str, cls: type) -> dict:
    """Keyword arguments for `cls` from one INI section, each value converted
    to the type of its field's default."""
    known = _section_fields(cls)
    kwargs = {}
    for key, text in sections.get(section, {}).items():
        if key not in known:
            raise ConfigError(f"unknown [{section}] key: {key}")
        field = known[key]
        kwargs[field.name] = _number(key, text, type(field.default))
    return kwargs


def load_run_config(path: str | Path) -> dict:
    """Parse an INI run config, applying defaults for anything omitted. A
    file that does not parse, or that has a section other than [run], [lle]
    and [ppo] (names are case-sensitive), is a ConfigError."""
    # No header can name the empty section, so [DEFAULT] is an ordinary
    # section, and an unknown one, rather than defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as err:
        # Some of these messages span lines; the CLI prints one.
        raise ConfigError(" ".join(str(err).split())) from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    sections = {name: dict(parser[name]) for name in parser.sections()}
    if unknown := set(sections) - {"run", "lle", "ppo"}:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}; known: [run], [lle], [ppo]")

    run = sections.get("run", {})
    known_run = {"env", "seed", "total_budget", "output_dir"}
    if unknown := set(run) - known_run:
        raise ConfigError(f"unknown [run] keys: {sorted(unknown)}")

    seed = _number("seed", run.get("seed", 0), int)
    try:
        lle_cfg = LleConfig(seed=seed, **_parse_section(sections, "lle", LleConfig))
        ppo_cfg = PpoConfig(**_parse_section(sections, "ppo", PpoConfig))
    except ValueError as err:
        raise ConfigError(str(err)) from err

    return {
        "env": run.get("env", "dual_goal"),
        "seed": seed,
        "total_budget": int(_number("total_budget", run.get("total_budget", 150_000), float)),
        "output_dir": run.get("output_dir"),
        "lle": lle_cfg,
        "ppo": ppo_cfg,
    }


def write_config_snapshot(path: Path, config: dict) -> None:
    """Persist the fully resolved configuration; replaying it reproduces the run."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        "env": config["env"],
        "seed": str(config["seed"]),
        "total_budget": str(config["total_budget"]),
        "output_dir": str(config["output_dir"]),
    }
    def fmt(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    for section, cfg in (("lle", config["lle"]), ("ppo", config["ppo"])):
        parser[section] = {
            key: fmt(getattr(cfg, f.name)) for key, f in _section_fields(type(cfg)).items()
        }
    with open(path, "w") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# run


def _candidate_records(cands, result: PipelineResult) -> Iterator[ArchiveRecord]:
    """One archive record per candidate of the final pool, with its
    returns at both grades, each made (and its theta formed) only when
    `save_archive` asks for it."""
    for c in cands:
        meta = {
            "policy_id": c.policy_id,
            "stage": c.stage,
            "base_index": c.base_index,
            "alphas": [c.alpha],
            "matched_w": c.matched_w.tolist(),
            "raw_w": c.raw_w.tolist(),
            "returns": result.select_returns[c.key].tolist(),
            "final_returns": result.final_returns[c.key].tolist(),
        }
        yield ArchiveRecord(theta=c.theta, meta=meta)


def _write_run_artifacts(out_dir: Path, config: dict, result: PipelineResult, wall_seconds: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_snapshot(out_dir / "config.ini", config)

    # Each selected or fine-tuned policy is stored once: selected.jsonl and
    # fine_tuned.jsonl hold only those final.jsonl does not. bases.jsonl
    # stays whole, because `distance` addresses bases by entry index.
    final_ids = {p.policy_id for p in result.archive.points}

    def off_front(cands):
        return _candidate_records([c for c in cands if c.policy_id not in final_ids], result)

    policies_dir = out_dir / "policies"
    save_archive(policies_dir / "bases.jsonl", _candidate_records(result.bases, result))
    save_archive(policies_dir / "fine_tuned.jsonl", off_front(result.fine_tuned))
    # One direction per base; "direction_index" stays in the format.
    direction_records = [
        ArchiveRecord(
            theta=dirs.retrained_theta,
            meta={
                "base_index": dirs.base_index,
                "direction_index": 1,
                "weight_delta": dirs.weight_delta.tolist(),
                "mutually_non_dominated": bool(dirs.mutual_non_dominated),
                "degenerate_set": bool(dirs.degenerate),
            },
        )
        for dirs in result.directions
    ]
    save_archive(policies_dir / "directions.jsonl", direction_records)
    final_members = [result.policies_by_id[p.policy_id] for p in result.archive.points]
    save_archive(policies_dir / "final.jsonl", _candidate_records(final_members, result))
    save_archive(policies_dir / "selected.jsonl", off_front(result.selected))

    with open(out_dir / "candidates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        d = result.archive.d
        writer.writerow(
            ["policy_id", "base_index", "alphas", "matched_w", "raw_w"]
            + [f"obj_{i + 1}" for i in range(d)]
            + ["stage", "selected"]
        )
        selected_ids = {c.policy_id for c in result.selected}
        for c in result.bases + result.candidates + result.fine_tuned:
            writer.writerow(
                [
                    c.policy_id,
                    c.base_index,
                    repr(c.alpha),
                    ";".join(repr(x) for x in c.matched_w.tolist()),
                    ";".join(repr(x) for x in c.raw_w.tolist()),
                ]
                + [repr(float(v)) for v in result.select_returns[c.key]]
                + [c.stage, int(c.policy_id in selected_ids)]
            )

    save_front_table(out_dir / "front.csv", result.archive)

    metrics = compute_metrics(
        result.archive,
        ref_point=result.ref_point,
        eu_samples=EU_DEFAULT_SAMPLES,
        eu_seed=derive_seed(config["seed"], "eu"),
    )
    metrics["budget"] = result.ledger.as_dict()
    metrics["wall_clock_seconds"] = wall_seconds
    metrics["stage_hv"] = {
        "bases": hypervolume(result.base_archive, result.ref_point),
        "after_selection": hypervolume(result.selection_archive, result.ref_point),
        "final": hypervolume(result.archive, result.ref_point),
    }
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)

    render_front_svg(
        out_dir / "front.svg",
        result.archive.matrix(),
        [p.stage for p in result.archive.points],
        [result.policies_by_id[p.policy_id].is_base for p in result.archive.points],
        title=f"{config['env']} front (seed {config['seed']})",
    )
    return metrics


def compute_metrics(
    archive: ParetoArchive, ref_point: np.ndarray, eu_samples: int, eu_seed: int
) -> dict:
    return {
        "hv": hypervolume(archive, ref_point),
        "eu": expected_utility(archive, eu_samples, seed=eu_seed),
        "sp": sparsity(archive),
        "sp_defined": len(archive) >= 2,
        "ref_point": [float(v) for v in np.asarray(ref_point)],
        "n_weights": eu_samples,
        "eu_seed": int(eu_seed),
        "archive_size": len(archive),
    }


def _terminate(signum, frame):
    """SIGTERM handler for `cmd_run`: exit through its cleanup."""
    raise SystemExit(128 + signum)


def cmd_run(args) -> int:
    """Run the pipeline into a hidden sibling of the output directory and
    move it into place only when complete, so the output path holds a
    whole run or nothing. An existing output path is never written to.
    SIGTERM exits through the same cleanup as an error (exit 143); the
    previous SIGTERM handler is restored on return."""
    import signal  # here, not at the top: it adds about 1 ms to every CLI start

    config = load_run_config(args.config)
    if args.output_dir is not None:
        config["output_dir"] = args.output_dir
    if config["output_dir"] is None:
        raise ConfigError("no output_dir in [run] section and no --output-dir given")
    out_dir = Path(config["output_dir"])
    if out_dir.exists():
        raise ConfigError(f"output directory {out_dir} already exists; choose a new one")
    env = make_env(config["env"])
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    partial = out_dir.with_name(f".{out_dir.name}.partial-{os.getpid()}")
    start = time.monotonic()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run_pipeline(
            env, config["lle"], config["ppo"], config["total_budget"], log_dir=partial / "train_logs"
        )
        metrics = _write_run_artifacts(partial, config, result, time.monotonic() - start)
        os.replace(partial, out_dir)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"run complete: {len(result.archive)} front points -> {out_dir}")
    print(f"hv={metrics['hv']:.6g} eu={metrics['eu']:.6g} sp={metrics['sp']:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> int:
    if args.eu_samples < 1:
        raise ConfigError(f"--eu-samples must be at least 1, got {args.eu_samples}")
    if args.eu_seed < 0:
        raise ConfigError(f"--eu-seed must be at least 0, got {args.eu_seed}")
    archive = load_front_table(args.front_table)
    if args.ref_point is not None:
        try:
            ref = np.array([float(v) for v in args.ref_point.split(",")])
        except ValueError:
            raise ConfigError(f"--ref-point must be comma-separated numbers, got {args.ref_point!r}") from None
        if ref.shape[0] != archive.d:
            raise ConfigError(f"reference point has {ref.shape[0]} entries, front has {archive.d}")
    else:
        ref = default_reference_point(archive.matrix())
    metrics = compute_metrics(archive, ref, args.eu_samples, args.eu_seed)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# distance


def cmd_distance(args) -> int:
    records_a = load_archive(args.archive_a, {args.entry_a})
    records_b = load_archive(args.archive_b, {args.entry_b})
    for name, records, entry in (("a", records_a, args.entry_a), ("b", records_b, args.entry_b)):
        if not 0 <= entry < len(records):
            raise ConfigError(f"--entry-{name} {entry} out of range: archive has {len(records)} records")
    rec_a, rec_b = records_a[args.entry_a], records_b[args.entry_b]
    total, breakdown = hungarian_distance(rec_a.theta, rec_b.theta)
    for layer, value in breakdown.items():
        print(f"{layer}: {value:.6g}")
    print(f"combined (log stds excluded): {total:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth-check


def cmd_synth_check(args) -> int:
    curve = preset_error_curve(args.preset)
    if args.output is not None:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_norm", "distance"])
            for a, dist in zip(curve.alpha_norms, curve.distances):
                writer.writerow([repr(float(a)), repr(float(dist))])
        print(f"curve table -> {out}")
    print(f"preset={args.preset} max_distance={curve.distances.max():.3e} "
          f"fitted_slope={curve.fitted_slope:.4f} window={FIT_WINDOW}")
    if args.preset == "flat":
        if curve.distances.max() > FLAT_MAX_DIST:
            print(f"FAIL: flat preset distance exceeds {FLAT_MAX_DIST}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"PASS: extrapolation stays on the front (<= {FLAT_MAX_DIST})")
    else:
        lo, hi = CURVED_SLOPE_WINDOW
        if not lo <= curve.fitted_slope <= hi:
            print(f"FAIL: slope {curve.fitted_slope:.3f} outside [{lo}, {hi}]", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"PASS: second-order error growth (slope in [{lo}, {hi}])")
    return EXIT_OK


# ---------------------------------------------------------------------------
# front-export


def cmd_front_export(args) -> int:
    records = load_archive(args.policies, ())
    points = []
    for rec in records:
        values = rec.meta.get("final_returns") or rec.meta.get("returns")
        if values is None:
            raise ConfigError(f"{args.policies}: record without return metadata")
        # The filter breaks ties between equal returns by comparing ids.
        policy_id = rec.meta.get("policy_id", len(points))
        if type(policy_id) is not int:
            raise ConfigError(f"{args.policies}: record {len(points)}: policy_id {policy_id!r} is not an integer")
        points.append(FrontPoint(values, policy_id, rec.meta.get("stage", "")))
    archive = non_dominated_filter(points)
    save_front_table(args.output, archive)
    print(f"{len(archive)} non-dominated rows -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigError, so that they exit 1
    like every other usage error; its subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = _Parser(
        prog="morlext",
        description="Scalarized PPO training with training-free Pareto front extension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the full pipeline from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None, help="override [run] output_dir")

    p_metrics = sub.add_parser("metrics", help="recompute hv/eu/sp from a front table")
    p_metrics.add_argument("front_table")
    p_metrics.add_argument("--ref-point", default=None, help="comma-separated override")
    p_metrics.add_argument("--eu-samples", type=int, default=EU_DEFAULT_SAMPLES)
    p_metrics.add_argument("--eu-seed", type=int, default=0)

    p_dist = sub.add_parser("distance", help="matching distance between two archived policies")
    p_dist.add_argument("archive_a")
    p_dist.add_argument("archive_b")
    p_dist.add_argument("--entry-a", type=int, default=0)
    p_dist.add_argument("--entry-b", type=int, default=0)

    p_synth = sub.add_parser("synth-check", help="closed-form extrapolation error harness")
    p_synth.add_argument("preset", choices=("flat", "curved"))
    p_synth.add_argument("--output", default=None, help="write the curve table here")

    p_export = sub.add_parser("front-export", help="front table from an archived policy set")
    p_export.add_argument("policies", help="policy archive (.jsonl) with return metadata")
    p_export.add_argument("-o", "--output", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up at call time, so a replaced module attribute is the one called.
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (DivergenceError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
