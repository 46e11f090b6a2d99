import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from unittest import mock

import pytest

import seqgate
from seqgate import artifact, harness, ratio
from seqgate.artifact import THRESHOLD_KINDS, FitConfig, LogisticModel, RatioModel
from seqgate.artifact import ville_threshold
from seqgate.cli import _build_parser, cli_dispatch
from seqgate.dataio import load_calibration, read_dataset, save_calibration, write_dataset
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory


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

    # monitoring with a benign stream accepts at end of input; blank lines
    # are skipped
    code, out = run(
        ["monitor", "--model", str(model_path)],
        stdin=io.StringIO("0.7\n\n0.72\n  \n0.69\n"),
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
    assert capsys.readouterr().err == "ERROR PARSE_ERROR: not a number: 'zebra'\n"


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


def test_calibrate_pac_above_the_null_sample_cap_is_out_of_range(
    tmp_path, data_file, capsys, monkeypatch
):
    # the cap lowered below this data's null count stands in for 10**7 nulls
    monkeypatch.setattr(artifact, "MAX_NULL_SAMPLES", 10)
    code = cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.3",
            "--threshold", "pac", "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR OUT_OF_RANGE: n must be")
    assert not (tmp_path / "m.json").exists()


def test_summary_lines_go_to_the_given_stdout(tmp_path, capsys):
    base = sample_dataset(SyntheticSpec(), 200, seed=4)
    items = [
        LabeledTrajectory(i.id, list(i.scores), i.label, list(range(10, 10 * len(i) + 1, 10)))
        for i in base
    ]
    data = tmp_path / "data.jsonl"
    write_dataset(items, data)
    games = tmp_path / "games.jsonl"
    games.write_text('{"id":"g1","centipawns":[30],"result":"draw"}\n')
    grid = ["--data", str(data), "--alphas", "0.3", "--methods", "raw"]
    out = str(tmp_path / "out")
    cases = [
        (["synth", "--n", "5"], "wrote 5 trajectories"),
        (["calibrate", "--data", str(data), "--alpha", "0.3", "--threshold", "ville"],
         "calibrated t_max="),
        (["evaluate", *grid, "--splits", "2"], "wrote 1 curve points"),
        (["tokens", *grid], "wrote 2 token points"),
        (["ablate", *grid, "--fractions", "0.3", "--splits", "2"],
         "wrote curves for 1/1 fractions"),
        (["chess", "--games", str(games)], "converted 1 games"),
    ]
    for argv, summary in cases:
        code, printed = run(argv + ["--out", out])
        assert code == 0, argv
        assert printed.startswith(summary) and printed.endswith(f" -> {out}\n"), argv
        assert printed.count("\n") == 1, argv
    assert capsys.readouterr().out == ""


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
    write_dataset(items, path)
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


@pytest.mark.parametrize(
    "record",
    ['5', '"identity"', '{"id": 7, "centipawns": [30], "result": "draw"}'],
)
def test_chess_cli_bad_record_fails_closed(tmp_path, capsys, record):
    games = tmp_path / "games.jsonl"
    games.write_text(record + "\n")
    out = tmp_path / "chess.jsonl"
    assert cli_dispatch(["chess", "--games", str(games), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR PARSE_ERROR: line 1:")
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "9" * 400], ids=["NaN", "400 digits"])
def test_chess_cli_non_finite_centipawn_fails_closed(tmp_path, capsys, value):
    # 400 digits are too many for a float, but not for the JSON decoder
    games = tmp_path / "games.jsonl"
    games.write_text(
        '{"id": "g1", "centipawns": [30], "result": "draw"}\n'
        f'{{"id": "g2", "centipawns": [30, {value}], "result": "draw"}}\n'
    )
    out = tmp_path / "chess.jsonl"
    assert cli_dispatch(["chess", "--games", str(games), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "ERROR INVALID_TRAJECTORY: non-finite centipawn value id='g2' "
        "field=centipawns line=2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--alpha", "0.2"],
        ["evaluate", "--alphas", "0.2"],
        ["tokens", "--alphas", "0.2"],
        ["ablate", "--alphas", "0.2", "--fractions", "0.2"],
        ["synth", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_seed_must_be_a_non_negative_integer(tmp_path, data_file, capsys, argv, seed):
    out = tmp_path / "o.out"
    data = [] if argv[0] == "synth" else ["--data", str(data_file)]
    code = cli_dispatch(argv + data + ["--seed", seed, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage: seqgate" in err and "not a non-negative integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--alphas", "abc"],
        ["ablate", "--alphas", "0.3", "--fractions", "x,0.2"],
    ],
    ids=["evaluate --alphas", "ablate --fractions"],
)
def test_non_numeric_list_flag_is_usage_error(tmp_path, data_file, capsys, argv):
    out = tmp_path / "o.csv"
    code = cli_dispatch(argv + ["--data", str(data_file), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage: seqgate" in err and "not comma-separated numbers" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--alphas", "0.3", "--methods", "raw,raw"],
        ["evaluate", "--alphas", "0.3", "--methods", ","],
        ["tokens", "--alphas", "0.3", "--methods", ","],
        ["ablate", "--alphas", "0.3", "--fractions", ","],
        ["ablate", "--alphas", "0.3", "--fractions", "0.2,0.2"],
        ["calibrate", "--alpha", "0.3", "--threshold", "ville", "--delta", "5"],
        ["calibrate", "--alpha", "0.3", "--threshold", "bonferroni", "--delta", "5"],
    ],
    ids=[
        "evaluate repeated", "evaluate empty", "tokens empty", "ablate empty",
        "ablate repeated", "calibrate ville delta", "calibrate bonferroni delta",
    ],
)
def test_empty_or_repeated_list_fails_closed(tmp_path, capsys, argv):
    # with token counts, so that tokens has nothing else to fail on; a
    # calibrate --delta outside (0, 1) fails the same way for every kind,
    # also for one that does not read delta
    data = tmp_path / "tok.jsonl"
    base = sample_dataset(SyntheticSpec(), 120, seed=9)
    write_dataset(
        [
            LabeledTrajectory(item.id, item.scores, item.label, range(1, len(item) + 1))
            for item in base
        ],
        data,
    )
    out = tmp_path / "o.csv"
    argv = argv + ["--data", str(data), "--out", str(out)]
    code = cli_dispatch(argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR OUT_OF_RANGE:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--alphas", "0.3", "--out", "o.csv", "--data"],
        ["calibrate", "--alpha", "0.3", "--out", "m.json", "--data"],
        ["chess", "--out", "c.jsonl", "--games"],
        ["monitor", "--model"],
        ["synth", "--n", "3", "--out", "s.jsonl", "--spec"],
    ],
    ids=lambda argv: argv[0] + " " + argv[-1],
)
def test_non_utf8_input_fails_closed(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'\xff\xfe{\x00"\x00i\x00d\x00"\x00}\x00\n\x00')
    code = cli_dispatch(argv + [str(bad)], stdin=io.StringIO("0.5\n"))
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("ERROR PARSE_ERROR:")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


# JSON text the decoder refuses with a ValueError or a RecursionError that is
# no JSONDecodeError
UNDECODABLE = {
    "5,000 digits": "9" * 5000,
    "200,000 levels": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("literal", sorted(UNDECODABLE))
@pytest.mark.parametrize(
    "argv, text",
    [
        (["evaluate", "--alphas", "0.3", "--out", "o.csv", "--data"],
         '{"id": "a", "scores": %s, "label": 0}'),
        (["chess", "--out", "c.jsonl", "--games"],
         '{"id": "g", "centipawns": %s, "result": "draw"}'),
        (["monitor", "--model"],
         '{"format": "seqgate-calibration", "version": 1, "metadata": %s}'),
        (["synth", "--n", "3", "--out", "s.jsonl", "--spec"], '{"sigma": %s}'),
    ],
    ids=lambda value: value[0] + " " + value[-1] if isinstance(value, list) else "",
)
def test_json_past_the_decoder_limits_fails_closed(
    tmp_path, capsys, monkeypatch, argv, text, literal
):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(text % UNDECODABLE[literal] + "\n")
    code = cli_dispatch(argv + [str(bad)], stdin=io.StringIO("0.5\n"))
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("ERROR PARSE_ERROR:")
    assert "malformed JSON" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_inline_spec_past_the_digit_limit_fails_closed(tmp_path, capsys):
    # text that does not decode is tried as a path, which is too long; the
    # line gives both reasons and does not echo the text as a file name
    out = tmp_path / "x.jsonl"
    spec = '{"sigma": %s}' % UNDECODABLE["5,000 digits"]
    assert cli_dispatch(["synth", "--n", "3", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert err.startswith(
        "ERROR PARSE_ERROR: --spec is neither inline JSON nor a JSON file: "
        "malformed JSON (Exceeds the limit (4300 digits)"
    )
    assert "; as a path: " in err and "9" * 10 not in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["5", "[1]", '"sigma"', "null"])
@pytest.mark.parametrize("where", ["inline", "file"])
def test_synth_spec_that_is_no_json_object_fails(tmp_path, capsys, spec, where):
    if where == "file":
        (tmp_path / "spec.json").write_text(spec)
        spec = str(tmp_path / "spec.json")
    out = tmp_path / "x.jsonl"
    assert cli_dispatch(["synth", "--n", "3", "--spec", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ERROR PARSE_ERROR: --spec must be a JSON object\n"
    assert not out.exists()


def test_evaluate_dre_fraction_out_of_range(tmp_path, data_file, capsys):
    # raw splits off no ratio-fitting side, so only the config check sees it
    out = tmp_path / "o.csv"
    code = cli_dispatch(
        [
            "evaluate", "--data", str(data_file), "--alphas", "0.3",
            "--methods", "raw", "--dre-fraction", "1.5", "--splits", "1",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert "ERROR OUT_OF_RANGE: dre_fraction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ['{"sigma": 1e999}', '{"mu_null": [1, 2]}'])
def test_synth_spec_value_not_a_finite_number_fails(tmp_path, capsys, spec):
    out = tmp_path / "x.jsonl"
    code = cli_dispatch(["synth", "--n", "5", "--spec", spec, "--out", str(out)])
    assert code == 1
    assert "ERROR PARSE_ERROR: invalid synthetic spec" in capsys.readouterr().err
    assert not out.exists()


def test_missing_data_file(tmp_path, capsys):
    code = cli_dispatch(
        [
            "evaluate", "--data", str(tmp_path / "nope.jsonl"), "--alphas", "0.3",
            "--methods", "raw", "--out", str(tmp_path / "o.csv"),
        ]
    )
    assert code == 1
    assert "ERROR IO_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, name",
    [(["--alpha", "0"], "alpha"), (["--alpha", "0.2", "--dre-fraction", "1.5"], "dre_fraction")],
)
def test_calibrate_checks_flags_before_reading_data(tmp_path, capsys, flags, name):
    # the data file is missing: only a check made before the read can win
    missing = str(tmp_path / "nope.jsonl")
    out = tmp_path / "m.json"
    assert cli_dispatch(["calibrate", "--data", missing, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR OUT_OF_RANGE: {name} must lie strictly in (0, 1)"), err
    assert not out.exists()


def test_calibrate_checks_the_ville_threshold_before_reading_data(tmp_path, capsys):
    # 1 / alpha overflows: the ville value needs only alpha, so it fails
    # before the missing data file is read
    missing = str(tmp_path / "nope.jsonl")
    out = tmp_path / "m.json"
    argv = ["calibrate", "--data", missing, "--alpha", "1e-310", "--threshold", "ville"]
    assert cli_dispatch(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR OUT_OF_RANGE: 1 / alpha must be a finite float"), err
    assert not out.exists()


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


def test_calibrate_warns_of_a_threshold_the_statistic_never_reaches(
    tmp_path, data_file, capsys
):
    # the clamped logit caps the statistic at odds * e^L, about 1e6 here, so
    # a ville threshold of 1e7 can never reject; the exit code and the
    # summary line stay as they are
    path = tmp_path / "model.json"
    argv = ["calibrate", "--data", str(data_file), "--threshold", "ville"]
    code, out = run(argv + ["--alpha", "1e-7", "--out", str(path)])
    model, spec, _ = load_calibration(path)
    ceiling = model.prior_odds * math.exp(model.logit_bound)
    assert code == 0 and out.endswith(f"value={spec.value!r} -> {path}\n")
    assert spec.value > ceiling
    assert capsys.readouterr().err == (
        f"WARN threshold value={spec.value!r} is above the statistic's largest "
        f"value {ceiling!r}: no trajectory can be rejected\n"
    )
    code, _ = run(argv + ["--alpha", "0.2", "--out", str(path)])
    assert code == 0 and capsys.readouterr().err == ""


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
    # ville and bonferroni replay the threshold set too
    "calibrate ville": ["calibrate", "--alpha", "0.5", "--threshold", "ville"],
    "calibrate bonferroni": ["calibrate", "--alpha", "0.5", "--threshold", "bonferroni"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(NAN_STATISTIC_RUNS))
def test_batch_nan_statistic_fails_closed(tmp_path, capsys, command):
    # every trajectory's step-2 logit is inf - inf under the patched fit: the
    # batch paths stop with the monitor's error line and no numpy warning
    data = [LabeledTrajectory(f"x{i}", [1e308, 1e308], i % 2) for i in range(80)]
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    argv = NAN_STATISTIC_RUNS[command] + [
        "--data", str(path), "--out", str(tmp_path / "out"),
    ]
    fit = lambda *args, **kwargs: overflow_model()  # noqa: E731
    with mock.patch.object(ratio, "fit_ratio_model", fit):
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


BATCH_MODULES = ("numpy",) + tuple(
    f"seqgate.{name}"
    for name in (
        "kernels", "ratio", "trajectories", "dataio", "harness",
        "synthetic",
    )
)


CHILD = """
import contextlib, io, json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None
from seqgate.cli import cli_dispatch
results = []
for argv, stdin in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_dispatch(argv, stdin=io.StringIO(stdin), stdout=out)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([results, sorted(m for m, v in sys.modules.items() if v is not None)]))
"""


def run_child(cases, blocked=(), script=CHILD):
    """Run each (argv, stdin) case through cli_dispatch in one fresh
    interpreter, with the imports of ``blocked`` made to fail and a
    RuntimeWarning made an error. Returns each case's (code, stdout, stderr)
    and the names of the modules loaded at the end, or what ``script``
    prints as JSON, given the cases on stdin."""
    src = str(Path(seqgate.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *blocked],
        input=json.dumps(cases), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_monitor_imports_neither_harness_nor_generator(tmp_path, data_file):
    # nor numpy nor any batch module; with numpy's import blocked, a session
    # gives the same transcript and exit code
    model_path = tmp_path / "model.json"
    cli_dispatch(
        [
            "calibrate", "--data", str(data_file), "--alpha", "0.5",
            "--threshold", "ville", "--out", str(model_path),
        ]
    )
    sessions = []
    for blocked in ((), ("numpy",)):
        case = (["monitor", "--model", str(model_path)], "0.7\n0.2\n0.9\n")
        [[code, transcript, _]], modules = run_child([case], blocked)
        sessions.append([code, transcript, [m for m in BATCH_MODULES if m in modules]])
    code, transcript, loaded = sessions[0]
    assert code in (0, 3) and transcript and loaded == [], sessions[0]
    assert sessions[1] == sessions[0]


def test_batch_commands_leave_numpy_random_unimported(tmp_path):
    # splits and derived seeds are drawn in plain Python; the data comes from
    # the stdlib's random, since sample_dataset draws through numpy.random
    rng = random.Random(4)
    data = tmp_path / "data.jsonl"
    with data.open("w") as fh:
        for i in range(300):
            label = int(rng.random() < 0.6)
            scores = [rng.gauss(0.7 if label else 0.3, 0.2) for _ in range(rng.randint(1, 6))]
            tokens = [10 * t for t in range(1, len(scores) + 1)]
            record = {"id": f"t{i}", "scores": scores, "label": label, "tokens": tokens}
            fh.write(json.dumps(record) + "\n")
    common = ["--data", str(data), "--alphas", "0.1,0.3"]
    commands = [
        ["calibrate", "--data", str(data), "--alpha", "0.2"],
        ["evaluate", *common, "--splits", "2"],
        ["tokens", *common],
        ["ablate", *common, "--fractions", "0.2,0.4", "--splits", "2"],
    ]
    cases = [(argv + ["--out", str(tmp_path / f"{argv[0]}.out")], "") for argv in commands]
    results, modules = run_child(cases)
    assert [code for code, _, _ in results] == [0] * len(commands), results
    assert [m for m in modules if m.split(".")[:2] == ["numpy", "random"]] == []
    assert all((tmp_path / f"{argv[0]}.out").exists() for argv in commands)


def test_calibrate_digests_the_data_without_openssl(tmp_path, data_file):
    # hashlib would map libcrypto through _hashlib; blocking _hashlib alone
    # proves nothing, since hashlib then falls back on the built-in hashes
    cases = [
        ([
            "calibrate", "--data", str(data_file), "--alpha", "0.2",
            "--threshold", kind, "--out", str(tmp_path / f"{kind}.json"),
        ], "")
        for kind in THRESHOLD_KINDS
    ]
    results, modules = run_child(cases)
    assert [code for code, _, _ in results] == [0] * len(cases), results
    assert "_hashlib" not in modules
    expected = "sha256:" + hashlib.sha256(data_file.read_bytes()).hexdigest()
    for kind in THRESHOLD_KINDS:
        _, _, meta = load_calibration(tmp_path / f"{kind}.json")
        assert meta["data_digest"] == expected, kind


MONITOR_CHILD = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None
from seqgate.artifact import FitConfig, LogisticModel, RatioModel
from seqgate.monitor import MonitorState, ratio_rule, raw_score_rule
steps = (LogisticModel((1.0,), 0.0), LogisticModel((0.0, 1.0), 0.0))
model = RatioModel(steps, prior_1=0.5, t_max=2, fit_config=FitConfig())
decisions = []
for rule, scores in json.load(sys.stdin):
    state = MonitorState(ratio_rule(model, 2.0) if rule == "ratio" else raw_score_rule(1))
    decisions.append([state.observe(score).decision for score in scores])
loaded = [m for m in ("numpy", "seqgate.kernels") if sys.modules.get(m) is not None]
print(json.dumps([decisions, loaded]))
"""


def test_monitor_module_runs_both_rules_without_numpy():
    # an int threshold and an int score take the non-float checks; the ratio
    # at step t is exp(-score_t), so -1 gives e >= 2
    cases = [["ratio", [0.5, -1]], ["raw", [1.5, 2, 0.5]]]
    decisions, loaded = run_child(cases, blocked=("numpy",), script=MONITOR_CHILD)
    assert decisions == [["active", "rejected"], ["active", "active", "rejected"]]
    assert loaded == []


OPENS_CHILD = """
import io, json, sys
from seqgate.cli import cli_dispatch
argv = json.load(sys.stdin)
path, opens = argv[argv.index("--data") + 1], []

def hook(event, args):
    if event == "open" and args[0] == path:
        opens.append(args[1])

sys.addaudithook(hook)
print(json.dumps([cli_dispatch(argv, stdout=io.StringIO()), opens]))
"""


def test_calibrate_opens_the_data_once(tmp_path, data_file):
    # every file open raises the "open" audit event; a hook cannot be
    # removed, so it is added in a child interpreter
    argv = [
        "calibrate", "--data", str(data_file), "--alpha", "0.2",
        "--out", str(tmp_path / "model.json"),
    ]
    code, opens = run_child(argv, script=OPENS_CHILD)
    assert code == 0 and opens == ["r"], opens


def test_every_export_resolves():
    # the package exports lazily: each name comes from its module on access
    for name in seqgate.__all__:
        namespace = {}
        exec(f"from seqgate import {name}", namespace)
        assert namespace[name] is getattr(seqgate, name)
    # the closed-form oracles and the streaming isotonic rule live in tests
    moved = {
        "make_calibrated_rule", "calibrated_score_rule", "toy_marginal_example",
        "ToyMarginalResult", "true_ratio_process", "true_ratio_rule", "log_ratio_increments",
    }
    assert moved.isdisjoint(seqgate.__all__)
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


def _threshold_of(**fields):
    """A fault that replaces the whole threshold: the valid ville spec at
    alpha 0.2, with ``fields`` changed."""
    spec = dict(
        kind="ville", alpha=0.2, value=5.0, delta=None, n_null=None, k_index=None,
        t_cal_max=None,
    )
    return lambda a: a.update(threshold=spec | fields)


ARTIFACT_FAULTS = {
    "missing threshold.value": lambda a: a["threshold"].pop("value"),
    "missing threshold": lambda a: a.pop("threshold"),
    "missing step intercept": lambda a: _steps(a)[0].pop("intercept"),
    "unknown fit_config key": lambda a: a["ratio_model"]["fit_config"].update(momentum=0.9),
    "t_max above the step count": lambda a: a["ratio_model"].update(
        t_max=a["ratio_model"]["t_max"] + 1
    ),
    "t_max not an integer": lambda a: a["ratio_model"].update(t_max="2"),
    "t_max 0 with no step models": lambda a: a["ratio_model"].update(
        t_max=0, step_models=[]
    ),
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
    "fit_config max_iters 2.5": lambda a: a["ratio_model"]["fit_config"].update(
        max_iters=2.5
    ),
    "subnormal prob_clamp": lambda a: a["ratio_model"]["fit_config"].update(
        prob_clamp=1e-320
    ),
    "bogus kind with alpha 7": lambda a: a["threshold"].update(kind="bogus", alpha=7),
    # true == 1 == 1.0 in Python, so only the int 1 names version 1
    "version true": lambda a: a.update(version=True),
    "version 1.0": lambda a: a.update(version=1.0),
    # each threshold must be the one its own fields derive
    "ville value 0.01": _threshold_of(value=0.01),
    "ville with t_cal_max set": _threshold_of(t_cal_max=7),
    "bonferroni value not t_cal_max/alpha": _threshold_of(
        kind="bonferroni", t_cal_max=7, value=0.5
    ),
    "bonferroni t_cal_max true": _threshold_of(kind="bonferroni", t_cal_max=True),
    "bonferroni t_cal_max 2.5": _threshold_of(kind="bonferroni", t_cal_max=2.5, value=12.5),
    # min_null_samples(0.2, 0.05) is 14
    "pac n_null 3 at alpha 0.2": lambda a: a["threshold"].update(
        alpha=0.2, n_null=3, k_index=1
    ),
    "pac k_index off by one": lambda a: a["threshold"].update(
        k_index=a["threshold"]["k_index"] + 1
    ),
    "pac delta null": lambda a: a["threshold"].update(delta=None),
    # min_null_samples at this alpha is past the float range
    "pac alpha 1e-320": lambda a: a["threshold"].update(alpha=1e-320),
    "pac with t_cal_max set": lambda a: a["threshold"].update(t_cal_max=7),
    # a pac value is just above a statistic >= 0; these reject every trajectory
    "pac value 0.0": lambda a: a["threshold"].update(value=0.0),
    "pac value -1.0": lambda a: a["threshold"].update(value=-1.0),
    # integers too large for a float: 401 nines
    "bonferroni t_cal_max of 401 digits": _threshold_of(
        kind="bonferroni", t_cal_max=10**401 - 1, value=5.0
    ),
    "pac n_null of 401 digits": lambda a: a["threshold"].update(n_null=10**401 - 1),
    # a float-sized n_null above MAX_NULL_SAMPLES, refused before pac_index
    # walks its tail
    "pac n_null 10**18": lambda a: a["threshold"].update(n_null=10**18),
    "metadata 5": lambda a: a.update(metadata=5),
    # the top level holds exactly its five keys, as every nested object does
    "unknown top-level key": lambda a: a.update(extra=5),
    "missing metadata": lambda a: a.pop("metadata"),
    "step_models 5": lambda a: a["ratio_model"].update(step_models=5),
    # a nested value that is no JSON object
    "ratio_model 5": lambda a: a.update(ratio_model=5),
    "threshold []": lambda a: a.update(threshold=[]),
    "fit_config null": lambda a: a["ratio_model"].update(fit_config=None),
    "step_models[0] 5": lambda a: _steps(a).__setitem__(0, 5),
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


def test_malformed_artifacts_fail_closed_without_numpy(tmp_path, artifact_payload):
    # the load-time checks, pac_index and the JSON decoder included, run with
    # numpy's import blocked
    texts = {}
    for fault in ARTIFACT_FAULTS:
        payload = json.loads(json.dumps(artifact_payload))
        ARTIFACT_FAULTS[fault](payload)
        texts[fault] = json.dumps(payload)
    # json.dumps refuses an int of 5,000 digits, so the literal is spliced in
    for name, literal in UNDECODABLE.items():
        text = json.dumps(dict(artifact_payload, metadata="@"))
        texts[f"metadata of {name}"] = text.replace('"@"', literal)
    paths = []
    for i, fault in enumerate(sorted(texts)):
        paths.append(tmp_path / f"model{i}.json")
        paths[-1].write_text(texts[fault])
    cases = [(["monitor", "--model", str(path)], "0.7\n") for path in paths]
    results, _ = run_child(cases, ("numpy",))
    results = {
        fault: [code, out, err.split(":")[0], err.count("\n"), "Traceback" in err]
        for fault, (code, out, err) in zip(sorted(texts), results)
    }
    assert all(r == [1, "", "ERROR PARSE_ERROR", 1, False] for r in results.values()), results


@pytest.mark.parametrize("kind", THRESHOLD_KINDS)
def test_calibrate_artifact_of_each_kind_loads_as_saved(tmp_path, data_file, kind):
    path = tmp_path / "model.json"
    argv = ["calibrate", "--data", str(data_file), "--alpha", "0.2", "--threshold", kind]
    assert cli_dispatch(argv + ["--out", str(path)]) == 0
    model, spec, metadata = load_calibration(path)
    assert spec.kind == kind
    save_calibration(tmp_path / "again.json", model, spec, metadata)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", THRESHOLD_KINDS)
def test_calibrate_artifact_is_the_library_calibration(tmp_path, data_file, kind):
    # the CLI and the library run one calibration step, so they cannot drift
    path = tmp_path / "model.json"
    argv = ["calibrate", "--data", str(data_file), "--alpha", "0.2", "--delta", "0.1",
            "--threshold", kind, "--dre-fraction", "0.4", "--seed", "3"]
    assert cli_dispatch(argv + ["--out", str(path)]) == 0
    model, spec, metadata = load_calibration(path)
    cal = ratio.Calibration(read_dataset(data_file), 0.4, 3)
    assert model == cal.model
    assert spec == cal.threshold(kind, 0.2, 0.1)
    assert metadata["n_dre"] == len(cal.fit_set)
    assert metadata["n_threshold"] == len(cal.thresh_set)


@pytest.mark.parametrize("command", ["evaluate", "tokens", "ablate"])
def test_experiment_flag_defaults_are_the_config_defaults(command):
    argv = [command, "--data", "d.jsonl", "--alphas", "0.1", "--out", "o.csv"]
    if command == "ablate":
        argv += ["--fractions", "0.2"]
    args = _build_parser().parse_args(argv)
    config = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}
    for name in ("cal_fraction", "delta", "dre_fraction", "seed"):
        assert getattr(args, name) == config[name], name
    if command != "tokens":  # tokens runs one split and has no --splits
        assert args.splits == config["n_splits"]
    assert tuple(args.methods.split(",")) == config["methods"]


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    data, model, label = d / "data.jsonl", d / "model.json", d / "label.jsonl"
    games = d / "games.jsonl"
    games.write_text(
        '{"id": "g1", "centipawns": [30, -12, 250], "result": "white_win"}\n'
        '{"id": "g2", "centipawns": [-40, -300], "result": "draw"}\n'
    )
    quiet = io.StringIO()
    argv = ["synth", "--n", "400", "--seed", "1", "--out", str(data)]
    assert cli_dispatch(argv, stdout=quiet) == 0
    argv = ["calibrate", "--data", str(data), "--alpha", "0.2", "--threshold", "ville"]
    assert cli_dispatch(argv + ["--out", str(model)], stdout=quiet) == 0
    assert load_calibration(model)[0].t_max == CONTRACT_T_MAX
    head = data.read_text().splitlines(keepends=True)[:2]
    label.write_text("".join(head) + '{"id": "bad", "scores": [0.5], "label": 2}\n')
    return {
        "{data}": str(data), "{model}": str(model), "{label}": str(label),
        "{games}": str(games), "{missing}": str(d / "missing.jsonl"),
    }


Row = namedtuple("Row", "argv stdin blocked code stream pattern")
# the t_max of the contract model, which contract_files asserts
CONTRACT_T_MAX = 21
DATA, OUT = ["--data", "{data}"], ["--out", "{out}"]

# The CLI's exit-code and error-line contract, one row per case that no test
# above asserts. A row holds the argv, whose arguments "{data}", "{label}",
# "{model}" and "{games}" name the contract_files, "{missing}" a file that
# does not exist and "{out}" the row's output file; the stdin; the import made to fail (None, "numpy" or
# "numpy.random"); the exit code; and a pattern that stdout ("out"), stderr
# ("err") or the output file ("file") must match. Every row also asserts no
# Traceback and no RuntimeWarning, a failing row no output file, a usage
# error (exit 2) argparse's usage lines and any other failing row one stderr
# line "ERROR <CODE>: ..." under 300 characters.
CONTRACT = {
    # splits and derived seeds load no numpy.random
    "calibrate without numpy.random": Row(
        ["calibrate", *DATA, "--alpha", "0.2", "--threshold", "ville", *OUT], "",
        "numpy.random", 0, "out", r"^calibrated t_max=\d+ threshold_kind=ville value=5\.0 -> ",
    ),
    "evaluate without numpy.random": Row(
        ["evaluate", *DATA, "--alphas", "0.1,0.3", "--splits", "2", *OUT], "",
        "numpy.random", 0, "file", r"\Amethod,alpha,far_mean,[^\n]*\n(?:[^\n]*\n){10}\Z",
    ),
    # the monitor loads no numpy, on the accept path and the error path
    "monitor session without numpy": Row(
        ["monitor", "--model", "{model}"], "0.9\n0.8\n0.7\n",
        "numpy", 0, "out", r"\ACONTINUE\nCONTINUE\nCONTINUE\nACCEPT t=3\n\Z",
    ),
    # past t_max the statistic is frozen, and every step still counts
    "monitor session of 3 t_max": Row(
        ["monitor", "--model", "{model}"], "0.9\n" * (3 * CONTRACT_T_MAX),
        None, 0, "out", r"\A(?:CONTINUE\n){%d}ACCEPT t=%d\n\Z" % ((3 * CONTRACT_T_MAX,) * 2),
    ),
    "monitor malformed line past t_max": Row(
        ["monitor", "--model", "{model}"], "0.9\n" * (2 * CONTRACT_T_MAX) + "0.9x\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '0\.9x'\n\Z",
    ),
    "monitor nan score without numpy": Row(
        ["monitor", "--model", "{model}"], "nan\n",
        "numpy", 1, "err", r"^ERROR INVALID_TRAJECTORY: non-finite score",
    ),
    # float reads the separator in "0_5" as 5.0; the dataset format refuses it
    "monitor digit separator": Row(
        ["monitor", "--model", "{model}"], "0_5\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '0_5'\n\Z",
    ),
    # float reads the ARABIC-INDIC DIGIT THREE as 3.0; the dataset format refuses it
    "monitor non-ASCII digit": Row(
        ["monitor", "--model", "{model}"], "\u0663\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\u0663'\n\Z",
    ),
    # only JSON's whitespace may surround a score: float skips the rest too,
    # and str.strip strips it, reading a line of NEL alone as blank
    "monitor NO-BREAK SPACE": Row(
        ["monitor", "--model", "{model}"], "\u00a00.5\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\\xa00\.5'\n\Z",
    ),
    "monitor EM SPACE": Row(
        ["monitor", "--model", "{model}"], "\u20030.5\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\\u20030\.5'\n\Z",
    ),
    "monitor form feed": Row(
        ["monitor", "--model", "{model}"], "\x0c0.5\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\\x0c0\.5'\n\Z",
    ),
    "monitor U+001C": Row(
        ["monitor", "--model", "{model}"], "\x1c0.5\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\\x1c0\.5'\n\Z",
    ),
    "monitor NEL line": Row(
        ["monitor", "--model", "{model}"], "0.5\n\x85\n",
        None, 1, "err", r"\AERROR PARSE_ERROR: not a number: '\\x85'\n\Z",
    ),
    # blank lines are skipped, and space, tab and CR may surround a number
    "monitor JSON whitespace": Row(
        ["monitor", "--model", "{model}"], "\n \t\r\n\t.5\r\n 1e-1 \n",
        None, 3, "out", r"\ACONTINUE\nREJECT t=2\n\Z",
    ),
    # dataio and trajectories load no numpy: one trajectory per game
    "chess without numpy": Row(
        ["chess", "--games", "{games}", *OUT], "",
        "numpy", 0, "file",
        r'\A\{"id": "g1", [^\n]*"label": 1\}\n\{"id": "g2", [^\n]*"label": 0\}\n\Z',
    ),
    # one row per fraction, method and alpha; the degenerate fraction adds none
    "ablate row count": Row(
        ["ablate", *DATA, "--alphas", "0.1,0.3", "--fractions", "0.001,0.2,0.4",
         "--splits", "2", *OUT], "",
        None, 0, "file", r"\Acal_fraction,method,[^\n]*\n(?:0\.[24],[^\n]*\n){20}\Z",
    ),
    # ablate runs at each of its --fractions, so it takes no --cal-fraction
    "ablate cal-fraction": Row(
        ["ablate", *DATA, "--alphas", "0.1", "--fractions", "0.2", "--cal-fraction", "0.3",
         *OUT], "",
        None, 2, "err", r"^seqgate: error: unrecognized arguments: --cal-fraction 0\.3$",
    ),
    "bad label on line 3": Row(
        ["evaluate", "--data", "{label}", "--alphas", "0.1", *OUT], "",
        None, 1, "err", r"^ERROR INVALID_TRAJECTORY: .* field=label line=3$",
    ),
    "evaluate cal-fraction 1.5": Row(
        ["evaluate", *DATA, "--alphas", "0.1", "--cal-fraction", "1.5", *OUT], "",
        None, 1, "err", r"^ERROR OUT_OF_RANGE: cal_fraction",
    ),
    # at a tiny alpha pac is infeasible: one short line, whose n is the cap
    # plus one, where the n itself has 301 digits or overflows a float
    "calibrate pac alpha 1e-300": Row(
        ["calibrate", *DATA, "--alpha", "1e-300", "--threshold", "pac", *OUT], "",
        None, 4, "err", r"^ERROR INSUFFICIENT_CALIBRATION: .* need at least n=1000001$",
    ),
    "calibrate pac alpha 1e-320": Row(
        ["calibrate", *DATA, "--alpha", "1e-320", "--threshold", "pac", *OUT], "",
        None, 4, "err", r"^ERROR INSUFFICIENT_CALIBRATION: .* need at least n=1000001$",
    ),
    "evaluate pac alpha 1e-320": Row(
        ["evaluate", *DATA, "--alphas", "1e-320,0.2", "--methods", "evaluator_pac",
         "--splits", "2", *OUT], "",
        None, 0, "file", r"\A[^\n]*\nevaluator_pac,1e-320(?:,nan){6}\nevaluator_pac,0\.2,",
    ),
    # a 1/alpha past the float range is refused before the read, which would
    # fail with IO_ERROR; bonferroni's t_cal_max/alpha >= 1/alpha overflows too
    "evaluate alpha 1e-320 before the read": Row(
        ["evaluate", "--data", "{missing}", "--alphas", "1e-320,0.2", "--splits", "2", *OUT],
        "", None, 1, "err", r"^ERROR OUT_OF_RANGE: 1 / alpha must be a finite float",
    ),
    "evaluate bonferroni alpha 1e-310 before the read": Row(
        ["evaluate", "--data", "{missing}", "--alphas", "1e-310,0.2", "--methods",
         "bonferroni", "--splits", "2", *OUT],
        "", None, 1, "err", r"^ERROR OUT_OF_RANGE: 1 / alpha must be a finite float",
    ),
    "calibrate bonferroni alpha 1e-310 before the read": Row(
        ["calibrate", "--data", "{missing}", "--alpha", "1e-310", "--threshold",
         "bonferroni", *OUT],
        "", None, 1, "err", r"^ERROR OUT_OF_RANGE: 1 / alpha must be a finite float",
    ),
    # the raw and calibrated rules need no 1/alpha
    "evaluate raw and calibrated alpha 1e-320": Row(
        ["evaluate", *DATA, "--alphas", "1e-320,0.2", "--methods", "raw,calibrated",
         "--splits", "2", *OUT],
        "", None, 0, "file", r"\A[^\n]*\nraw,1e-320,[^\n]*\nraw,0\.2,[^\n]*\ncalibrated,1e-320,",
    ),
    # the overflow of a t_cal_max/alpha that depends on the data fails closed
    # after the read
    "evaluate bonferroni alpha 1e-307": Row(
        ["evaluate", *DATA, "--alphas", "1e-307", "--methods", "bonferroni",
         "--splits", "2", *OUT],
        "", None, 1, "err", r"^ERROR OUT_OF_RANGE: t_cal_max / alpha must be a finite float",
    ),
    "calibrate delta 0": Row(
        ["calibrate", *DATA, "--alpha", "0.2", "--delta", "0", *OUT], "",
        None, 1, "err", r"^ERROR OUT_OF_RANGE: delta",
    ),
    "synth spec prior_1 1.0": Row(
        ["synth", "--n", "5", "--spec", '{"prior_1": 1.0}', *OUT], "",
        None, 1, "err", r"^ERROR PARSE_ERROR: invalid synthetic spec: prior_1",
    ),
    # tried as a path too; the line names the digit limit, not the text
    "synth inline spec of 5,000 digits": Row(
        ["synth", "--n", "3", "--spec", '{"sigma": %s}' % UNDECODABLE["5,000 digits"], *OUT],
        "", None, 1, "err", r"^ERROR PARSE_ERROR: --spec .*\(4300 digits\).*; as a path: ",
    ),
}


def fill(argv, files, out):
    return [dict(files, **{"{out}": str(out)}).get(a, a) for a in argv]


def check_row(row, code, out, err, out_path):
    assert code == row.code, err
    text = out_path.read_text() if row.stream == "file" else {"out": out, "err": err}[row.stream]
    assert re.search(row.pattern, text, re.M), text[:300]
    assert "Traceback" not in err
    if code == 2:  # argparse's usage lines, then its error line
        assert err.startswith("usage: seqgate ") and not out_path.exists(), err[:300]
    elif code not in (0, 3):
        assert err.count("\n") == 1 and err.startswith("ERROR ") and len(err) < 300, err[:300]
        assert not out_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", [name for name, row in CONTRACT.items() if row.blocked is None])
def test_cli_contract(tmp_path, capsys, contract_files, name):
    row, out_path = CONTRACT[name], tmp_path / "out"
    code, out = run(fill(row.argv, contract_files, out_path), io.StringIO(row.stdin))
    check_row(row, code, out, capsys.readouterr().err, out_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("blocked", ["numpy", "numpy.random"])
def test_cli_contract_with_an_import_blocked(tmp_path, capsys, contract_files, blocked):
    # one child runs every row that blocks this module; each row must hold
    # there, and give the code, lines and output bytes of a plain run
    rows = [row for row in CONTRACT.values() if row.blocked == blocked]
    paths = [tmp_path / f"{i}.out" for i in range(len(rows))]
    cases = [(fill(row.argv, contract_files, p), row.stdin) for row, p in zip(rows, paths)]
    results, _ = run_child(cases, (blocked,))

    def outcome(code, out, err, path):
        data = path.read_bytes() if path.exists() else None
        return code, out.replace(str(path), "{out}"), err, data

    for row, path, (code, out, err) in zip(rows, paths, results):
        check_row(row, code, out, err, path)
        plain = path.with_suffix(".plain")
        plain_code, plain_out = run(fill(row.argv, contract_files, plain), io.StringIO(row.stdin))
        assert outcome(code, out, err, path) == outcome(
            plain_code, plain_out, capsys.readouterr().err, plain
        )
