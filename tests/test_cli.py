import csv
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import morlext
from morlext import archive
from morlext.cli import load_run_config, main, write_config_snapshot
from morlext.extension import LleConfig
from morlext.pareto import load_front_table
from morlext.ppo import PpoConfig
from morlext.svgplot import render_front_svg


MINIMAL_CONFIG = """\
[run]
env = dual_goal
output_dir = {out}
total_budget = 3000
seed = 5

[lle]
k = 2
delta_alpha = 0.5
eval_episodes = 2
final_eval_episodes = 4

[ppo]
steps_per_batch = 64
minibatches = 4
epochs = 2
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    config = tmp / "config.ini"
    out = tmp / "run"
    config.write_text(MINIMAL_CONFIG.format(out=out))
    assert main(["run", "--config", str(config)]) == 0
    return out


def test_run_writes_all_artifact_kinds(run_dir):
    assert (run_dir / "config.ini").is_file()
    assert (run_dir / "front.csv").is_file()
    assert (run_dir / "metrics.json").is_file()
    assert (run_dir / "front.svg").is_file()
    policies = run_dir / "policies"
    for name in ("bases", "directions", "selected", "fine_tuned", "final"):
        assert (policies / f"{name}.jsonl").is_file()
    assert (run_dir / "candidates.csv").is_file()
    assert any((run_dir / "train_logs").iterdir())
    assert not list(run_dir.parent.glob(".run.partial-*"))


def test_each_selected_policy_is_archived_once(run_dir):
    def ids(name):
        return {json.loads(line)["meta"]["policy_id"]
                for line in (run_dir / "policies" / f"{name}.jsonl").read_text().splitlines()}

    with open(run_dir / "candidates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    members = {
        "selected": {int(row["policy_id"]) for row in rows if row["selected"] == "1"},
        "fine_tuned": {int(row["policy_id"]) for row in rows if row["stage"] == "fine_tuned"},
    }
    for name, policy_ids in members.items():
        assert policy_ids, name
        assert not ids(name) & ids("final"), name
        assert policy_ids <= ids(name) | ids("final"), name
        assert ids(name) <= policy_ids, name


def test_metrics_json_consistent_with_front(run_dir):
    metrics = json.loads((run_dir / "metrics.json").read_text())
    archive = load_front_table(run_dir / "front.csv")
    assert metrics["archive_size"] == len(archive)
    assert metrics["budget"]["extension_training_steps"] == 0
    assert len(metrics["ref_point"]) == archive.d
    assert metrics["stage_hv"]["bases"] <= metrics["stage_hv"]["final"]


def test_metrics_recompute_matches_run_report(run_dir, capsys):
    metrics = json.loads((run_dir / "metrics.json").read_text())
    ref = ",".join(repr(v) for v in metrics["ref_point"])
    code = main(
        ["metrics", str(run_dir / "front.csv"), f"--ref-point={ref}",
         f"--eu-seed={metrics['eu_seed']}", f"--eu-samples={metrics['n_weights']}"]
    )
    assert code == 0
    recomputed = json.loads(capsys.readouterr().out)
    assert recomputed["hv"] == metrics["hv"]
    assert recomputed["eu"] == metrics["eu"]
    assert recomputed["sp"] == metrics["sp"]


def test_replaying_snapshot_reproduces_front(run_dir, tmp_path):
    replay_out = tmp_path / "replay"
    code = main(["run", "--config", str(run_dir / "config.ini"), "--output-dir", str(replay_out)])
    assert code == 0
    assert (replay_out / "front.csv").read_bytes() == (run_dir / "front.csv").read_bytes()


def test_front_svg_has_marker_shapes(run_dir):
    svg = (run_dir / "front.svg").read_text()
    assert svg.startswith("<svg")
    assert "circle" in svg


PINNED_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" viewBox="0 0 800 600">
<rect width="800" height="600" fill="white"/>
<text x="400.0" y="22" text-anchor="middle" font-size="16">pinned front</text>
<rect x="70.0" y="40" width="710.0" height="510" fill="none" stroke="#444" stroke-width="1"/>
<text x="425.0" y="588" text-anchor="middle" font-size="14">objective 1</text>
<text x="18.0" y="300.0" text-anchor="middle" font-size="14" transform="rotate(-90 18.0 300.0)">objective 2</text>
<text x="64.0" y="566" text-anchor="end" font-size="11">0.85</text>
<text x="780.0" y="566" text-anchor="end" font-size="11">4.15</text>
<text x="62.0" y="550" text-anchor="end" font-size="11">-1.56</text>
<text x="62.0" y="50" text-anchor="end" font-size="11">5.31</text>
<circle cx="102.3" cy="63.2" r="7" fill="none" stroke="#2ca02c" stroke-width="2"/>
<circle cx="102.3" cy="63.2" r="3.5" fill="#1f77b4"/>
<rect x="421.5" y="208.0" width="7" height="7" fill="#d62728"/>
<circle cx="747.7" cy="526.8" r="3.5" fill="#1f77b4"/>
</svg>"""


def test_front_svg_text_is_pinned(tmp_path):
    path = tmp_path / "front.svg"
    front = np.array([[1.0, 5.0], [2.5, 3.0], [4.0, -1.25]])
    stages = ["extended", "fine_tuned", "extended"]
    render_front_svg(path, front, stages, [True, False, False], title="pinned front")
    assert path.read_text() == PINNED_SVG


def test_front_svg_rejects_three_objectives(tmp_path):
    with pytest.raises(ValueError, match="two-objective"):
        render_front_svg(tmp_path / "front.svg", np.ones((3, 3)), ["extended"] * 3, [False] * 3)
    assert not (tmp_path / "front.svg").exists()


def test_distance_subcommand(run_dir, capsys):
    bases = str(run_dir / "policies" / "bases.jsonl")
    assert main(["distance", bases, bases, "--entry-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "combined" in out and "actor.layer0" in out
    assert main(["distance", bases, bases]) == 0
    out = capsys.readouterr().out
    assert "combined (log stds excluded): 0" in out


@pytest.mark.parametrize("command", ["metrics", "distance"])
def test_directory_input_is_usage_error(tmp_path, capsys, command):
    argv = [command, str(tmp_path)] + ([str(tmp_path)] if command == "distance" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Is a directory" in captured.err and captured.out == ""


def test_main_dispatches_by_name_through_one_parser(run_dir, monkeypatch, capsys):
    from morlext import cli

    called = []
    real = cli.cmd_metrics

    def wrapped(args):
        called.append(args.command)
        return real(args)

    monkeypatch.setattr(cli, "cmd_metrics", wrapped)
    parser = cli.build_parser()
    bases = str(run_dir / "policies" / "bases.jsonl")
    assert main(["metrics", str(run_dir / "front.csv")]) == 0
    assert main(["metrics", "--eu-seed=x", str(run_dir / "front.csv")]) == 1
    assert main(["distance", bases, bases, "--entry-b", "1"]) == 0
    assert main(["metrics", str(run_dir / "front.csv"), "--eu-seed=3"]) == 0
    assert called == ["metrics", "metrics"]
    assert cli.build_parser() is parser
    out = capsys.readouterr().out
    assert "combined" in out and out.count('"hv"') == 2 and '"eu_seed": 3' in out


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--config", "c.ini", "--bogus"],
    ["metrics", "--eu-seed=x", "front.csv"],
    ["distance", "a.jsonl"],
    ["synth-check", "wiggly"],
    ["front-export", "policies.jsonl"],
    ["nope"],
    [],
])
def test_argument_errors_exit_1_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["-h"], ["synth-check", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_distance_bad_entry_is_usage_error(run_dir, capsys):
    bases = run_dir / "policies" / "bases.jsonl"
    n = len(bases.read_text().splitlines())
    assert main(["distance", str(bases), str(bases), "--entry-b", "99"]) == 1
    assert f"--entry-b 99 out of range: archive has {n} records" in capsys.readouterr().err


def count_decodes(monkeypatch) -> list:
    """Record each base64 decode of archived parameter bytes."""
    calls = []
    real = archive.base64.b64decode
    monkeypatch.setattr(archive.base64, "b64decode", lambda data: calls.append(1) or real(data))
    return calls


def test_distance_decodes_only_its_two_records(run_dir, monkeypatch, capsys):
    final = run_dir / "policies" / "final.jsonl"
    n = len(final.read_text().splitlines())
    assert n >= 3
    decodes = count_decodes(monkeypatch)
    assert main(["distance", str(final), str(final), "--entry-a", "1", "--entry-b", str(n - 1)]) == 0
    assert len(decodes) == 2


def test_front_export_builds_no_parameter_vector(run_dir, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("front-export built a parameter vector")

    decodes = count_decodes(monkeypatch)
    monkeypatch.setattr(archive, "ParameterVector", refuse)
    out = tmp_path / "exported.csv"
    assert main(["front-export", str(run_dir / "policies" / "final.jsonl"), "-o", str(out)]) == 0
    assert decodes == [] and load_front_table(out).points


MALFORMED = {
    "not_an_object": lambda record: [1, 2],
    "meta_not_an_object": lambda record: {**record, "meta": [1, 2]},
    "no_layout": lambda record: {k: v for k, v in record.items() if k != "layout"},
    "no_data": lambda record: {k: v for k, v in record.items() if k != "data"},
    "layout_not_a_list": lambda record: {**record, "layout": 5},
    "data_not_a_string": lambda record: {**record, "data": 5},
    "shape_not_a_list": lambda record: {**record, "layout": [[key, "a"] for key, _ in record["layout"]]},
    "scalar_returns": lambda record: {**record, "meta": {**record["meta"], "returns": 5}},
    "empty_returns": lambda record: {**record, "meta": {**record["meta"], "returns": []}},
    "string_policy_id": lambda record: {**record, "meta": {**record["meta"], "policy_id": "a"}},
    "dict_policy_id": lambda record: {**record, "meta": {**record["meta"], "policy_id": {}}},
    "null_policy_id": lambda record: {**record, "meta": {**record["meta"], "policy_id": None}},
    "bool_policy_id": lambda record: {**record, "meta": {**record["meta"], "policy_id": True}},
    "float_policy_id": lambda record: {**record, "meta": {**record["meta"], "policy_id": 1.0}},
    "foreign_net_key": lambda record: {**record, "layout": [
        ["x.W0" if key == "actor.W0" else key, shape] for key, shape in record["layout"]]},
    "flat_weight_block": lambda record: {**record, "layout": [
        [key, [shape[0] * shape[1]] if key == "actor.W0" else shape] for key, shape in record["layout"]]},
    "no_log_std": lambda record: {**record, "layout": [
        ["actor.std" if key == "actor.log_std" else key, shape] for key, shape in record["layout"]]},
}


@pytest.mark.parametrize("case, command", [
    ("not_an_object", "front-export"),
    ("not_an_object", "distance"),
    ("meta_not_an_object", "front-export"),
    ("no_layout", "distance"),
    ("no_data", "distance"),
    ("layout_not_a_list", "distance"),
    ("data_not_a_string", "distance"),
    ("shape_not_a_list", "distance"),
    ("scalar_returns", "front-export"),
    ("empty_returns", "front-export"),
    ("string_policy_id", "front-export"),
    ("dict_policy_id", "front-export"),
    ("null_policy_id", "front-export"),
    ("bool_policy_id", "front-export"),
    ("float_policy_id", "front-export"),
    ("foreign_net_key", "distance"),
    ("flat_weight_block", "distance"),
    ("no_log_std", "distance"),
])
def test_malformed_archive_record_is_usage_error(tmp_path, capsys, case, command):
    from morlext.envs import DualGoal
    from morlext.ppo import init_actor_critic

    theta = init_actor_critic(DualGoal(), seed=0, hidden=(4, 4))
    record = json.loads(archive._encode(archive.ArchiveRecord(theta, {"policy_id": 0, "returns": [1.0, 2.0]})))
    path = tmp_path / "policies.jsonl"
    path.write_text(json.dumps(MALFORMED[case](record)) + "\n")
    if command == "distance":
        argv = ["distance", str(path), str(path)]
    else:
        argv = ["front-export", str(path), "-o", str(tmp_path / "front.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("id_a, id_b", [("a", 3), ({"k": 1}, {"k": 2}), (None, 2)])
def test_front_export_rejects_tied_records_with_incomparable_ids(tmp_path, capsys, id_a, id_b):
    # Equal returns make the filter compare the two ids.
    from morlext.envs import DualGoal
    from morlext.ppo import init_actor_critic

    theta = init_actor_critic(DualGoal(), seed=0, hidden=(4, 4))
    path = tmp_path / "policies.jsonl"
    path.write_text("".join(
        archive._encode(archive.ArchiveRecord(theta, {"policy_id": pid, "returns": [1.0, 2.0]})) + "\n"
        for pid in (id_a, id_b)
    ))
    assert main(["front-export", str(path), "-o", str(tmp_path / "front.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "policy_id" in err
    assert not (tmp_path / "front.csv").exists()


def test_python_dash_m_morlext_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(morlext.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "morlext", "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert "front-export" in proc.stdout


def test_front_export_roundtrip(run_dir, tmp_path, capsys):
    out = tmp_path / "exported.csv"
    code = main(["front-export", str(run_dir / "policies" / "final.jsonl"), "-o", str(out)])
    assert code == 0
    exported = load_front_table(out)
    original = load_front_table(run_dir / "front.csv")
    assert {tuple(p.returns) for p in exported.points} == {tuple(p.returns) for p in original.points}


def test_synth_check_exit_codes(tmp_path, capsys):
    assert main(["synth-check", "flat"]) == 0
    table = tmp_path / "curve.csv"
    assert main(["synth-check", "curved", "--output", str(table)]) == 0
    assert table.is_file() and "alpha_norm" in table.read_text().splitlines()[0]
    assert main(["synth-check", "wiggly"]) == 1


def test_synth_check_numerical_failure_exits_2(monkeypatch, capsys):
    import morlext.cli as cli
    from morlext.quadratic import ErrorCurve

    bad = ErrorCurve(alpha_norms=np.array([0.05, 0.1, 0.5]),
                     distances=np.array([0.05, 0.1, 0.5]))  # slope 1: outside window
    monkeypatch.setattr(cli, "preset_error_curve", lambda name: bad)
    assert main(["synth-check", "curved"]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_missing_config_is_usage_error(capsys):
    assert main(["run", "--config", "/nonexistent/config.ini"]) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    # Stage budgets come from the 3:1:1 split and the seed from [run], so
    # no [lle] key sets either.
    cases = [("run", "bogus_key", "3"), ("lle", "t_init", "63"), ("lle", "t_dir", "64"),
             ("lle", "t_ref", "0"), ("lle", "seed", "7"), ("run", "total_budget", "inf"),
             ("run", "total_budget", "lots"), ("run", "total_budget", "15360.9"), ("run", "seed", "1.5"),
             ("run", "seed", "4294967296"), ("run", "seed", "-1")]
    for section, key, value in cases:
        sections = {"run": f"env = dual_goal\noutput_dir = {tmp_path / 'x'}\n",
                    "ppo": "steps_per_batch = 64\n", "lle": ""}
        sections[section] += f"{key} = {value}\n"
        config = tmp_path / "c.ini"
        config.write_text("".join(f"[{name}]\n{body}" for name, body in sections.items()))
        assert main(["run", "--config", str(config)]) == 1, key
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section", ["LLE", "PPO", "Run", "extra", "DEFAULT"])
def test_unknown_config_section_rejected(tmp_path, capsys, section):
    # Section names are case-sensitive: [LLE] k = 3 used to load as K = 6.
    # [DEFAULT] k = 3 was ignored too, unless an [lle] section took it.
    config = tmp_path / "c.ini"
    config.write_text(f"[run]\nenv = dual_goal\noutput_dir = {tmp_path / 'x'}\n[{section}]\nk = 3\n")
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{section}'" in err
    assert not (tmp_path / "x").exists()


UNPARSABLE_CONFIGS = {
    "no_section_header": "k = 3\n",
    "duplicate_key": "[run]\nseed = 1\nseed = 2\n",
    "duplicate_section": "[run]\nenv = dual_goal\n[run]\nseed = 1\n",
    "stray_line": "[run]\nenv = dual_goal\nstray\n",
}


@pytest.mark.parametrize("case", sorted(UNPARSABLE_CONFIGS))
def test_unparsable_config_is_usage_error(tmp_path, capsys, case):
    config = tmp_path / "c.ini"
    config.write_text(UNPARSABLE_CONFIGS[case])
    assert main(["run", "--config", str(config), "--output-dir", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_percent_sign_in_a_config_value_is_literal(tmp_path):
    # An output directory with "%" in it is written to the snapshot and read back as it is.
    config = {"env": "dual_goal", "seed": 0, "total_budget": 4000, "output_dir": str(tmp_path / "100%"),
              "lle": LleConfig(), "ppo": PpoConfig()}
    write_config_snapshot(tmp_path / "config.ini", config)
    assert load_run_config(tmp_path / "config.ini") == config


def test_existing_output_dir_is_rejected_untouched(tmp_path, monkeypatch, capsys):
    import morlext.extension as extension

    def no_training(*args, **kwargs):
        raise AssertionError("train must not be called")

    monkeypatch.setattr(extension, "train", no_training)
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("an earlier run")
    config = tmp_path / "config.ini"
    config.write_text(MINIMAL_CONFIG.format(out=out))
    assert main(["run", "--config", str(config)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "an earlier run"
    assert not list(tmp_path.glob(".run.partial-*"))


def test_sigterm_mid_run_leaves_nothing_behind(tmp_path):
    config = tmp_path / "c.ini"
    out = tmp_path / "run"
    config.write_text(f"[run]\nenv = dual_goal\noutput_dir = {out}\ntotal_budget = 200000\n[lle]\nk = 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(morlext.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "morlext.cli", "run", "--config", str(config)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".run.partial-*")) and time.monotonic() < deadline:
            assert proc.poll() is None, "the run ended before it was signalled"
            time.sleep(0.05)
        assert list(tmp_path.glob(".run.partial-*")), "the run never created its partial directory"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert not out.exists()
    assert not list(tmp_path.glob(".run.partial-*"))


def test_config_snapshot_round_trips_every_field(tmp_path):
    lle = LleConfig(
        K=3, delta_s=0.2, alpha_start=-0.75, alpha_end=1.25, delta_alpha=0.125,
        eval_episodes=3, final_eval_episodes=5, seed=11,
    )
    ppo = PpoConfig(
        steps_per_batch=96, learning_rate=1e-3, gamma=0.9, gae_lambda=0.8, minibatches=3,
        epochs=4, clip=0.3, value_coeff=0.25, entropy_coeff=0.01, max_grad_norm=0.75,
    )
    for cls, cfg in ((LleConfig, lle), (PpoConfig, ppo)):
        assert all(getattr(cfg, f.name) != f.default for f in fields(cls))
    config = {"env": "speed_energy", "seed": 11, "total_budget": 4321,
              "output_dir": str(tmp_path / "out"), "lle": lle, "ppo": ppo}
    write_config_snapshot(tmp_path / "config.ini", config)
    loaded = load_run_config(tmp_path / "config.ini")
    assert loaded == config
    for section, cls in (("lle", LleConfig), ("ppo", PpoConfig)):
        for f in fields(cls):  # 3.0 == 3, so equality alone would pass a float K
            assert type(getattr(loaded[section], f.name)) is type(getattr(config[section], f.name))


def test_budget_too_small_is_usage_error(tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_text(
        f"[run]\nenv = dual_goal\ntotal_budget = 400\noutput_dir = {tmp_path / 'x'}\n"
        "[lle]\nk = 2\n"
    )
    assert main(["run", "--config", str(config)]) == 1
    assert "budget too small" in capsys.readouterr().err


def test_three_line_config_has_full_defaults(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text("[run]\nenv = speed_energy\noutput_dir = unused\n")
    parsed = load_run_config(config)
    assert parsed["total_budget"] == 150_000
    assert parsed["lle"].K == 6
    assert parsed["lle"].delta_alpha == 0.05
    assert parsed["ppo"].steps_per_batch == 512
    assert parsed["ppo"].gamma == 0.995


def test_integral_budget_in_float_notation_loads(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[run]\nenv = dual_goal\ntotal_budget = 1.5e4\n")
    budget = load_run_config(config)["total_budget"]
    assert budget == 15_000 and type(budget) is int


INVALID_FIELDS = [
    ("ppo", "steps_per_batch", "0"), ("ppo", "steps_per_batch", "-512"), ("ppo", "minibatches", "0"),
    ("ppo", "learning_rate", "-1"), ("ppo", "learning_rate", "0"),
    ("lle", "eval_episodes", "0"), ("lle", "final_eval_episodes", "0"),
    ("lle", "alpha_end", "inf"), ("lle", "delta_alpha", "nan"), ("ppo", "max_grad_norm", "nan"),
    ("ppo", "clip", "nan"), ("ppo", "value_coeff", "inf"), ("lle", "k", "six"),
    ("ppo", "max_grad_norm", "0"), ("ppo", "value_coeff", "-0.5"),
    ("ppo", "minibatches", "24"), ("ppo", "steps_per_batch", "100"),
]


@pytest.mark.parametrize(
    "section, key, value", INVALID_FIELDS, ids=[f"{key}-{value}" for _, key, value in INVALID_FIELDS]
)
def test_invalid_ppo_field_is_usage_error(tmp_path, capsys, section, key, value):
    config = tmp_path / "c.ini"
    config.write_text(
        f"[run]\nenv = dual_goal\noutput_dir = {tmp_path / 'x'}\n[{section}]\n{key} = {value}\n"
    )
    assert main(["run", "--config", str(config)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--entry-a", "--entry-b"])
def test_distance_negative_entry_is_usage_error(run_dir, capsys, flag):
    bases = run_dir / "policies" / "bases.jsonl"
    n = len(bases.read_text().splitlines())
    assert main(["distance", str(bases), str(bases), flag, "-1"]) == 1
    assert f"{flag} -1 out of range: archive has {n} records" in capsys.readouterr().err


def test_metrics_default_ref_point_is_front_min_minus_one(run_dir, capsys):
    front = run_dir / "front.csv"
    assert main(["metrics", str(front)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    expected = load_front_table(front).matrix().min(axis=0) - 1.0
    assert metrics["ref_point"] == expected.tolist()


def test_metrics_ref_point_wrong_length_is_usage_error(run_dir, capsys):
    assert main(["metrics", str(run_dir / "front.csv"), "--ref-point=-1,-1,-1"]) == 1
    assert "reference point has 3 entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--ref-point=abc,1", "--ref-point must be comma-separated numbers, got 'abc,1'"),
        ("--eu-samples=0", "--eu-samples must be at least 1, got 0"),
        ("--eu-samples=-5", "--eu-samples must be at least 1, got -5"),
        ("--eu-seed=-1", "--eu-seed must be at least 0, got -1"),
    ],
)
def test_metrics_flag_errors_name_their_flag(run_dir, capsys, flag, message):
    assert main(["metrics", str(run_dir / "front.csv"), flag]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("ref", ["nan,0", "-inf,0"])
def test_metrics_non_finite_ref_point_is_usage_error(run_dir, capsys, ref):
    assert main(["metrics", str(run_dir / "front.csv"), f"--ref-point={ref}"]) == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err and captured.out == ""


def test_run_dir_records_each_coefficient_as_one_float(run_dir):
    with open(run_dir / "candidates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        float(row["alphas"])  # raises on a numpy repr such as 'np.float64(0.5)'
    for name in ("bases", "final", "selected"):
        for record in archive.load_archive(run_dir / "policies" / f"{name}.jsonl", ()):
            alphas = record.meta["alphas"]
            assert isinstance(alphas, list) and len(alphas) == 1 and type(alphas[0]) is float, (name, alphas)
    bases = [r.meta["base_index"] for r in archive.load_archive(run_dir / "policies" / "bases.jsonl", ())]
    directions = archive.load_archive(run_dir / "policies" / "directions.jsonl", ())
    assert [r.meta["base_index"] for r in directions] == bases
    assert all(r.meta["direction_index"] == 1 for r in directions)
