import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import seqgate
from seqgate import harness, ratio
from seqgate.cli import cli_dispatch
from seqgate.dataio import load_calibration, save_calibration, write_dataset
from seqgate.kernels import FitConfig, LogisticModel
from seqgate.ratio import RatioModel
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.thresholds import ville_threshold
from seqgate.trajectories import CalibrationSet, LabeledTrajectory


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset(sample_dataset(SyntheticSpec(), 300, seed=7), path)
    return path


def run(argv, stdin=None):
    stdout = io.StringIO()
    code = cli_dispatch(argv, stdin=stdin, stdout=stdout)
    return code, stdout.getvalue()


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "synth.jsonl"
    code = cli_dispatch(["synth", "--n", "25", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 25
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "scores", "label"}


def test_synth_inline_spec(tmp_path):
    out = tmp_path / "synth.jsonl"
    spec = '{"mu_null": 0.6, "mu_alt": 0.2, "sigma": 0.1, "stop_prob": 1.0}'
    code = cli_dispatch(
        ["synth", "--n", "10", "--seed", "3", "--spec", spec, "--out", str(out)]
    )
    assert code == 0
    for line in out.read_text().splitlines():
        assert len(json.loads(line)["scores"]) == 1


def test_synth_zero_n_is_usage_error(tmp_path, capsys):
    code = cli_dispatch(["synth", "--n", "0", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_unknown_command_usage_error():
    assert cli_dispatch(["frobnicate"]) == 2
    assert cli_dispatch([]) == 2


def test_calibrate_then_monitor_roundtrip(tmp_path, data_file):
    model_path = tmp_path / "model.json"
    code = cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.2",
            "--threshold", "pac", "--seed", "5", "--out", str(model_path),
        ]
    )
    assert code == 0
    model, spec, meta = load_calibration(model_path)
    assert spec.kind == "pac" and spec.alpha == 0.2
    assert meta["data_digest"].startswith("sha256:")

    # a second calibrate run writes a byte-identical artifact
    model_path2 = tmp_path / "model2.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.2",
            "--threshold", "pac", "--seed", "5", "--out", str(model_path2),
        ]
    )
    first = json.loads(model_path.read_text())
    second = json.loads(model_path2.read_text())
    first["metadata"].pop("data")
    second["metadata"].pop("data")
    assert first == second

    # monitoring with a benign stream accepts at end of input
    code, out = run(
        ["monitor", "--model", str(model_path)],
        stdin=io.StringIO("0.7\n0.72\n0.69\n"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["CONTINUE", "CONTINUE", "CONTINUE"]
    assert lines[3] == "ACCEPT t=3"


def test_monitor_rejects_with_exit_code_3(tmp_path, data_file):
    model_path = tmp_path / "model.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.5",
            "--threshold", "ville", "--seed", "5", "--out", str(model_path),
        ]
    )
    # a long run of terrible scores must cross the 1/alpha = 2 threshold
    scores = "\n".join(["-0.5"] * 12) + "\n"
    code, out = run(["monitor", "--model", str(model_path)], stdin=io.StringIO(scores))
    assert code == 3
    assert out.splitlines()[-1].startswith("REJECT t=")


def test_monitor_bad_line(tmp_path, data_file, capsys):
    model_path = tmp_path / "model.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.5",
            "--threshold", "ville", "--seed", "5", "--out", str(model_path),
        ]
    )
    code, _ = run(["monitor", "--model", str(model_path)], stdin=io.StringIO("zebra\n"))
    assert code == 1
    assert "ERROR PARSE_ERROR" in capsys.readouterr().err


def test_calibrate_insufficient_calibration_exit_4(tmp_path, capsys):
    small = sample_dataset(SyntheticSpec(), 30, seed=2)
    path = tmp_path / "small.jsonl"
    write_dataset(small, path)
    code = cli_dispatch(
        [
            "calibrate", "--data", str(path), "--alpha", "0.05",
            "--threshold", "pac", "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "ERROR INSUFFICIENT_CALIBRATION" in err
    assert "need at least n=59" in err


def test_evaluate_deterministic_csv(tmp_path, data_file):
    args = [
        "evaluate", "--data", str(data_file), "--alphas", "0.2,0.4",
        "--splits", "3", "--cal-fraction", "0.3",
        "--methods", "evaluator_ville,raw", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_dispatch(args + ["--out", str(out1)]) == 0
    assert cli_dispatch(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "method,alpha,far_mean,far_lo,far_hi,power_mean,power_lo,power_hi"


def test_tokens_cli(tmp_path):
    items = []
    base = sample_dataset(SyntheticSpec(), 120, seed=9)
    for item in base:
        items.append(
            LabeledTrajectory(
                id=item.id,
                scores=list(item.scores),
                label=item.label,
                tokens=[40 * (t + 1) for t in range(len(item))],
            )
        )
    path = tmp_path / "tok.jsonl"
    write_dataset(CalibrationSet(items), path)
    out = tmp_path / "tokens.csv"
    code = cli_dispatch(
        [
            "tokens", "--data", str(path), "--alphas", "0.3",
            "--methods", "raw,calibrated", "--seed", "2", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,alpha,tokens_used,accuracy"
    assert lines[1].startswith("never_terminate,0.0,")
    assert len(lines) == 4


def test_tokens_cli_missing_tokens(data_file, tmp_path, capsys):
    code = cli_dispatch(
        [
            "tokens", "--data", str(data_file), "--alphas", "0.3",
            "--methods", "raw", "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 1
    assert "ERROR MISSING_TOKENS" in capsys.readouterr().err


def test_ablate_cli_reports_failed_fraction(tmp_path, data_file, capsys):
    out = tmp_path / "ablate.csv"
    code = cli_dispatch(
        [
            "ablate", "--data", str(data_file), "--alphas", "0.3",
            "--fractions", "0.003,0.3", "--splits", "2",
            "--methods", "raw", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "WARN cal_fraction=0.003 failed" in err
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "cal_fraction,method,alpha,far_mean,far_lo,far_hi,"
        "power_mean,power_lo,power_hi"
    )
    assert all(line.startswith("0.3,") for line in lines[1:])


def test_chess_cli(tmp_path):
    games = tmp_path / "games.jsonl"
    games.write_text(
        '{"id":"g1","centipawns":[30,90],"result":"white_win"}\n'
        '{"id":"g2","centipawns":[-10,-80],"result":"draw"}\n'
    )
    out = tmp_path / "chess.jsonl"
    assert cli_dispatch(["chess", "--games", str(games), "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["label"] for r in recs] == [1, 0]
    assert recs[0]["scores"][0] == pytest.approx(0.5276, abs=1e-4)


def test_missing_data_file(tmp_path, capsys):
    code = cli_dispatch(
        [
            "evaluate", "--data", str(tmp_path / "nope.jsonl"), "--alphas", "0.3",
            "--methods", "raw", "--out", str(tmp_path / "o.csv"),
        ]
    )
    assert code == 1
    assert "ERROR IO_ERROR" in capsys.readouterr().err


def test_calibrate_ville_and_bonferroni_artifacts(tmp_path, data_file):
    ville_path = tmp_path / "ville.json"
    code = cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.25",
            "--threshold", "ville", "--out", str(ville_path),
        ]
    )
    assert code == 0
    _, spec, _ = load_calibration(ville_path)
    assert spec.kind == "ville" and spec.value == 4.0

    bonf_path = tmp_path / "bonf.json"
    code = cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.25",
            "--threshold", "bonferroni", "--out", str(bonf_path),
        ]
    )
    assert code == 0
    _, spec, _ = load_calibration(bonf_path)
    longest = max(
        len(json.loads(line)["scores"])
        for line in open(data_file, encoding="utf-8")
    )
    assert spec.kind == "bonferroni"
    assert spec.t_cal_max == longest
    assert spec.value == longest / 0.25


def test_synth_spec_from_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"stop_prob": 1.0, "prior_1": 0.5}')
    out = tmp_path / "synth.jsonl"
    code = cli_dispatch(
        ["synth", "--n", "12", "--seed", "1", "--spec", str(spec_path),
         "--out", str(out)]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(len(r["scores"]) == 1 for r in recs)


def test_synth_bad_spec_key_fails(tmp_path, capsys):
    code = cli_dispatch(
        ["synth", "--n", "5", "--spec", '{"nonsense": 1}',
         "--out", str(tmp_path / "x.jsonl")]
    )
    assert code == 1
    assert "ERROR PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_monitor_nonfinite_score_fails_closed(tmp_path, data_file, capsys, bad):
    model_path = tmp_path / "model.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.5",
            "--threshold", "ville", "--seed", "5", "--out", str(model_path),
        ]
    )
    stdin = io.StringIO(f"0.7\n{bad}\n0.7\n")
    code, out = run(["monitor", "--model", str(model_path)], stdin=stdin)
    assert code == 1
    assert out.splitlines() == ["CONTINUE"]
    assert "ERROR INVALID_TRAJECTORY" in capsys.readouterr().err


def test_monitor_nan_statistic_fails_closed(tmp_path, capsys):
    # finite scores whose step-2 logit is 2*1e308 - 2*1e308 = inf - inf = nan
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    model = RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())
    model_path = tmp_path / "model.json"
    save_calibration(model_path, model, ville_threshold(0.1))
    stdin = io.StringIO("1e308\n1e308\n")
    code, out = run(["monitor", "--model", str(model_path)], stdin=stdin)
    assert code == 1
    assert out.splitlines() == ["CONTINUE"]
    assert "ERROR INVALID_TRAJECTORY" in capsys.readouterr().err


def overflow_model():
    steps = (LogisticModel((1.0,), 0.0), LogisticModel((2.0, -2.0), 0.0))
    return RatioModel(step_models=steps, prior_1=0.5, t_max=2, fit_config=FitConfig())


NAN_STATISTIC_RUNS = {
    "evaluate": ["evaluate", "--alphas", "0.3", "--splits", "2"],
    "ablate": ["ablate", "--alphas", "0.3", "--fractions", "0.5", "--splits", "2"],
    "calibrate pac": ["calibrate", "--alpha", "0.5", "--threshold", "pac"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(NAN_STATISTIC_RUNS))
def test_batch_nan_statistic_fails_closed(tmp_path, capsys, command):
    # every trajectory's step-2 logit is inf - inf under the patched fit: the
    # batch paths stop with the monitor's error line and no numpy warning
    data = CalibrationSet(
        [LabeledTrajectory(f"x{i}", [1e308, 1e308], i % 2) for i in range(80)]
    )
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    argv = NAN_STATISTIC_RUNS[command] + [
        "--data", str(path), "--out", str(tmp_path / "out"),
    ]
    fit = lambda *args, **kwargs: overflow_model()  # noqa: E731
    with mock.patch.object(harness, "fit_ratio_model", fit), mock.patch.object(
        ratio, "fit_ratio_model", fit
    ):
        code = cli_dispatch(argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR INVALID_TRAJECTORY"), err


DEGENERATE_FIT_RUNS = {
    "calibrate pac": ["calibrate", "--alpha", "0.2", "--threshold", "pac"],
    "calibrate ville": ["calibrate", "--alpha", "0.2", "--threshold", "ville"],
    # at split seed 3 the first split fits on the degenerate trajectory
    "evaluate": ["evaluate", "--alphas", "0.1,0.3", "--splits", "2", "--seed", "3"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(DEGENERATE_FIT_RUNS))
def test_degenerate_fit_fails_closed(tmp_path, capsys, command):
    # finite scores whose Hessian overflows: the fit would keep all-zero
    # weights, so it stops with one error line and no numpy warning
    path = tmp_path / "data.jsonl"
    assert cli_dispatch(["synth", "--n", "400", "--seed", "1", "--out", str(path)]) == 0
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"id": "bad", "scores": [1e308, -1e308, 1e308], "label": 0}\n')
    capsys.readouterr()
    argv = DEGENERATE_FIT_RUNS[command] + [
        "--data", str(path), "--out", str(tmp_path / "out"),
    ]
    assert cli_dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR INVALID_TRAJECTORY"), err
    assert not (tmp_path / "out").exists()


def test_monitor_imports_neither_harness_nor_generator(tmp_path, data_file):
    model_path = tmp_path / "model.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.5",
            "--threshold", "ville", "--out", str(model_path),
        ]
    )
    script = (
        "import io, sys\n"
        "from seqgate.cli import cli_dispatch\n"
        "code = cli_dispatch(['monitor', '--model', sys.argv[1]],\n"
        "                    stdin=io.StringIO('0.7\\n0.2\\n'), stdout=io.StringIO())\n"
        "print(code, [m for m in ('seqgate.harness', 'seqgate.synthetic')\n"
        "             if m in sys.modules])\n"
    )
    src = str(Path(seqgate.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script, str(model_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.split(" ", 1)
    assert code in ("0", "3") and loaded.strip() == "[]", done.stdout


def test_every_export_resolves():
    # the package exports lazily: each name comes from its module on access
    for name in seqgate.__all__:
        namespace = {}
        exec(f"from seqgate import {name}", namespace)
        assert namespace[name] is getattr(seqgate, name)
    assert "make_calibrated_rule" not in seqgate.__all__
    with pytest.raises(AttributeError):
        seqgate.no_such_name


@pytest.fixture(scope="module")
def artifact_payload(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifact")
    write_dataset(sample_dataset(SyntheticSpec(), 300, seed=7), d / "data.jsonl")
    cli_dispatch(
        [
            "calibrate", "--data", str(d / "data.jsonl"), "--alpha", "0.5",
            "--threshold", "pac", "--seed", "5", "--out", str(d / "model.json"),
        ]
    )
    return json.loads((d / "model.json").read_text())


def _steps(a):
    return a["ratio_model"]["step_models"]


ARTIFACT_FAULTS = {
    "missing threshold.value": lambda a: a["threshold"].pop("value"),
    "missing threshold": lambda a: a.pop("threshold"),
    "missing step intercept": lambda a: _steps(a)[0].pop("intercept"),
    "unknown fit_config key": lambda a: a["ratio_model"]["fit_config"].update(momentum=0.9),
    "t_max above the step count": lambda a: a["ratio_model"].update(
        t_max=a["ratio_model"]["t_max"] + 1
    ),
    "t_max not an integer": lambda a: a["ratio_model"].update(t_max="2"),
    "step-2 weights of length 1": lambda a: _steps(a)[1].update(weights=[0.5]),
    "prior_1 above 1": lambda a: a["ratio_model"].update(prior_1=1.5),
    "prior_1 zero": lambda a: a["ratio_model"].update(prior_1=0.0),
    "alpha 7": lambda a: a["threshold"].update(alpha=7),
    "nan weight": lambda a: _steps(a)[0]["weights"].__setitem__(0, float("nan")),
    "infinite threshold value": lambda a: a["threshold"].update(value=float("inf")),
    "non-finite fit_config": lambda a: a["ratio_model"]["fit_config"].update(
        l2_lambda=float("-inf")
    ),
    "unknown threshold kind": lambda a: a["threshold"].update(kind="bogus"),
    "subnormal prob_clamp": lambda a: a["ratio_model"]["fit_config"].update(
        prob_clamp=1e-320
    ),
    "bogus kind with alpha 7": lambda a: a["threshold"].update(kind="bogus", alpha=7),
}


@pytest.mark.parametrize("fault", sorted(ARTIFACT_FAULTS))
def test_monitor_rejects_malformed_artifact_at_load(
    tmp_path, artifact_payload, capsys, fault
):
    payload = json.loads(json.dumps(artifact_payload))
    ARTIFACT_FAULTS[fault](payload)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    code, out = run(["monitor", "--model", str(model_path)], stdin=io.StringIO("0.7\n"))
    assert code == 1
    assert out == ""  # failed at load, before any score was read
    assert "ERROR PARSE_ERROR" in capsys.readouterr().err
