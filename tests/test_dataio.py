import hashlib
import io
import json
import math
import random
import tracemalloc
from array import array
from dataclasses import dataclass, replace

import numpy as np
import pytest

from seqgate.artifact import ThresholdSpec, pac_index, ville_threshold
from seqgate.dataio import (
    centipawn_to_prob,
    load_calibration,
    read_chess,
    read_dataset,
    read_digested,
    save_calibration,
    write_csv,
    write_dataset,
)
from seqgate.errors import InvalidTrajectory, OutOfRange, ParseError
from seqgate.ratio import fit_ratio_model
from seqgate.synthetic import SyntheticSpec, sample_dataset
from seqgate.trajectories import LabeledTrajectory


def test_read_dataset_basic():
    stream = io.StringIO('{"id":"a","scores":[0.9,0.8],"label":1}\n')
    data = read_dataset(stream)
    assert len(data) == 1
    assert data[0].scores == array("d", [0.9, 0.8])
    assert data[0].label == 1
    assert data[0].tokens is None


def test_read_dataset_holds_about_8_bytes_a_score(tmp_path):
    # packed float64 scores take 8 bytes each, plus a few hundred bytes of
    # object overhead per trajectory: about 13 B a score here. One float
    # object and one tuple slot per score would take about 36.
    n, length = 1000, 50
    rng = random.Random(0)
    path = tmp_path / "data.jsonl"
    write_dataset(
        [
            LabeledTrajectory(f"t{i:04d}", [rng.random() for _ in range(length)], i % 2)
            for i in range(n)
        ],
        path,
    )
    read_dataset(io.StringIO('{"id":"warm","scores":[0.5],"label":1}\n'))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = read_dataset(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(data) == n
    assert held < 20 * n * length, f"{held / (n * length):.1f} bytes a score"


def test_read_dataset_with_tokens():
    stream = io.StringIO('{"id":"b","scores":[0.5],"label":0,"tokens":[12]}\n')
    data = read_dataset(stream)
    assert data[0].tokens == (12,)


def test_read_dataset_missing_label():
    stream = io.StringIO('{"id":"a","scores":[0.9]}\n')
    with pytest.raises(ParseError) as err:
        read_dataset(stream)
    assert err.value.line == 1


def test_read_dataset_malformed_json_line_number():
    stream = io.StringIO('{"id":"a","scores":[0.9],"label":1}\n{oops\n')
    with pytest.raises(ParseError) as err:
        read_dataset(stream)
    assert err.value.line == 2


def test_read_dataset_type_errors():
    # a record that is no trajectory yet is a parse error
    with pytest.raises(ParseError):
        read_dataset(io.StringIO('{"id":1,"scores":[0.9],"label":1}\n'))
    # a field of the wrong type is left to LabeledTrajectory, which names it
    for line, field in (
        ('{"id":"a","scores":"x","label":1}', "scores"),
        ('{"id":"a","scores":[0.9],"label":"1"}', "label"),
        ('{"id":"a","scores":[0.9],"label":1,"tokens":[1.5]}', "tokens"),
        ('{"id":"a","scores":[0.9,true],"label":1}', "scores"),
        ('{"id":"a","scores":[0.9,"0.5"],"label":1}', "scores"),
        ('{"id":"a","scores":[0.9,[0.5]],"label":1}', "scores"),
        ('{"id":"a","scores":[0.9],"label":1,"tokens":[true]}', "tokens"),
    ):
        with pytest.raises(InvalidTrajectory) as err:
            read_dataset(io.StringIO('{"id":"ok","scores":[0.5],"label":1}\n' + line + "\n"))
        assert (err.value.field, err.value.line, err.value.trajectory_id) == (field, 2, "a")


def test_read_dataset_names_the_type_of_a_string_or_object_field():
    # not the first character or key, nor "empty score sequence" for ""
    for field, value, kind in (
        ("scores", "x", "str"),
        ("scores", "", "str"),
        ("scores", {"0.5": 1}, "dict"),
        ("tokens", "7", "str"),
    ):
        line = json.dumps({"id": "a", "scores": [0.5], "label": 1, field: value})
        with pytest.raises(InvalidTrajectory) as err:
            read_dataset(io.StringIO('{"id":"ok","scores":[0.5],"label":1}\n' + line + "\n"))
        assert (err.value.field, err.value.line, err.value.trajectory_id) == (field, 2, "a")
        assert str(err.value).startswith(f"{field} must be a sequence, got {kind}"), str(err.value)


def test_read_dataset_invariant_errors_carry_line():
    stream = io.StringIO(
        '{"id":"ok","scores":[0.5],"label":1}\n{"id":"bad","scores":[],"label":0}\n'
    )
    with pytest.raises(InvalidTrajectory) as err:
        read_dataset(stream)
    assert err.value.line == 2
    assert err.value.trajectory_id == "bad"
    # json.loads accepts the NaN and Infinity literals; they are scores of
    # the right type, so they fail as invalid values, not as parse errors
    # and so is an integer too large for a float
    for literal in ("NaN", "Infinity", "-Infinity", "9" * 400):
        stream = io.StringIO(
            '{"id":"ok","scores":[0.5],"label":1}\n\n'
            f'{{"id":"bad","scores":[0.5,{literal}],"label":0}}\n'
        )
        with pytest.raises(InvalidTrajectory) as err:
            read_dataset(stream)
        assert err.value.line == 3
        assert err.value.trajectory_id == "bad"
        assert err.value.field == "scores"
        assert "non-finite score" in str(err.value)


RECORDS = {
    read_dataset: '{"id":"a","scores":[0.9],"label":1}',
    read_chess: '{"id":"g","centipawns":[50],"result":"draw"}',
}


@pytest.mark.parametrize("reader", RECORDS, ids=lambda reader: reader.__name__)
@pytest.mark.parametrize(
    "line, blank",
    [("", True), (" \t ", True), ("\r", True), ("\u00a0", False), ("\x1c", False),
     ("\x85", False), ("\x0c", False), ("\u2003 ", False)],
    ids=["empty", "space and tab", "CR", "NO-BREAK SPACE", "U+001C", "U+0085",
         "form feed", "EM SPACE"],
)
def test_read_dataset_skips_blank_lines(tmp_path, reader, line, blank):
    # only JSON's whitespace (space, tab, CR, LF) makes a line blank; a line
    # of any other whitespace is malformed JSON, as in seqgate monitor
    path = tmp_path / "data.jsonl"
    path.write_bytes(f"\n{RECORDS[reader]}\n{line}\n{RECORDS[reader]}\n".encode())
    if blank:
        assert len(reader(path)) == 2
    else:
        with pytest.raises(ParseError, match=r"^line 3: malformed JSON") as err:
            reader(path)
        assert err.value.line == 3


def test_dataset_roundtrip(tmp_path):
    data = sample_dataset(SyntheticSpec(), 30, seed=3)
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    again = read_dataset(path)
    assert again == data
    # byte for byte: each score is held as a packed C double between the
    # read and the write
    write_dataset(again, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_write_dataset_bytes():
    # key order id, scores, label, then tokens only when the trajectory has them
    data = (
        LabeledTrajectory("a", [0.5, 1], 1, tokens=[3, 7]),
        LabeledTrajectory("b", [0.25], 0),
    )
    buf = io.StringIO()
    write_dataset(data, buf)
    assert buf.getvalue() == (
        '{"id": "a", "scores": [0.5, 1.0], "label": 1, "tokens": [3, 7]}\n'
        '{"id": "b", "scores": [0.25], "label": 0}\n'
    )


# (scores, label) the constructor accepts, stored as floats and an int
BUILDS = [
    pytest.param([0.5, 1, 2**60], 1, id="ints and floats"),
    pytest.param(np.array([0.25, -3.5]), np.int64(0), id="numpy array and int label"),
    pytest.param([np.float32(0.1), np.int64(7)], 1, id="numpy scalars"),
    pytest.param((x / 7 for x in range(3)), 0, id="generator"),
]
# (scores, label, field) whose record read_dataset refuses
REFUSED = [
    pytest.param(["0.5"], 1, "scores", id="str score"),
    pytest.param([0.5, True], 0, "scores", id="bool score"),
    pytest.param([0.5], True, "label", id="bool label"),
    pytest.param([0.5], 1.0, "label", id="float label"),
    pytest.param([0.5], np.float64(0.0), "label", id="numpy float label"),
]


@pytest.mark.parametrize("scores, label", BUILDS)
def test_a_built_trajectory_reads_back_equal(tmp_path, scores, label):
    data = (LabeledTrajectory("a", scores, label),)
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    assert read_dataset(path) == data


@pytest.mark.parametrize("scores, label, field", REFUSED)
def test_what_the_reader_refuses_cannot_be_built(scores, label, field):
    with pytest.raises(InvalidTrajectory) as exc:
        LabeledTrajectory("a", scores, label)
    assert exc.value.field == field
    # the reader refuses it through the same constructor, at its line
    record = json.dumps({"id": "a", "scores": scores, "label": label})
    with pytest.raises(InvalidTrajectory) as exc:
        read_dataset(io.StringIO(record + "\n"))
    assert (exc.value.field, exc.value.line) == (field, 1)


def test_centipawn_zero_is_half():
    assert centipawn_to_prob(0.0) == 0.5


def test_centipawn_limits():
    assert centipawn_to_prob(1e7) == pytest.approx(1.0, abs=1e-12)
    assert centipawn_to_prob(-1e7) == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < centipawn_to_prob(-9000.0) < centipawn_to_prob(9000.0) < 1.0


def test_centipawn_spot_value():
    # frozen from a 40-digit mpmath evaluation of the published formula
    assert centipawn_to_prob(100.0) == pytest.approx(0.5910258971916129, abs=1e-9)


def test_centipawn_odd_symmetry():
    for s in (0.3, 1.0, 57.0, 333.0, 2900.0, 12000.0):
        assert centipawn_to_prob(-s) == pytest.approx(
            1.0 - centipawn_to_prob(s), abs=1e-15
        )


def test_centipawn_strictly_increasing():
    grid = [-4000, -800, -100, -1, 0, 1, 100, 800, 4000]
    vals = [centipawn_to_prob(s) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_chess_labels():
    lines = "\n".join(
        [
            '{"id":"g1","centipawns":[50,120],"result":"white_win"}',
            '{"id":"g2","centipawns":[-50],"result":"black_win"}',
            '{"id":"g3","centipawns":[0,0,0],"result":"draw"}',
        ]
    )
    data = read_chess(io.StringIO(lines + "\n"))
    labels = {item.id: item.label for item in data}
    assert labels == {"g1": 1, "g2": 0, "g3": 0}
    assert data[0].scores == array("d", [centipawn_to_prob(50.0), centipawn_to_prob(120.0)])
    assert data[1].scores == array("d", [centipawn_to_prob(-50.0)])
    assert data[2].scores == array("d", [0.5, 0.5, 0.5])


def test_chess_bad_result():
    with pytest.raises(ParseError):
        read_chess(io.StringIO('{"id":"g","centipawns":[1],"result":"stalemate"}\n'))


@pytest.mark.parametrize(
    "record",
    ['5', '"identity"', '{"id": 7, "centipawns": [1], "result": "draw"}'],
)
def test_chess_rejects_a_non_object_record_or_a_non_string_id(record):
    # the same record checks as read_dataset: a JSON object with a string id
    stream = io.StringIO(
        '{"id":"g1","centipawns":[50],"result":"draw"}\n\n' + record + "\n"
    )
    with pytest.raises(ParseError) as err:
        read_chess(stream)
    assert err.value.line == 3


def test_chess_empty_centipawns():
    with pytest.raises(ParseError):
        read_chess(io.StringIO('{"id":"g","centipawns":[],"result":"draw"}\n'))


@pytest.mark.parametrize("last", ["blank lines", "no newline"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("size", [0, 1, 65536, 65537, 200_003])
def test_data_digest_is_the_sha256_of_the_bytes(tmp_path, size, newline, last):
    # sizes on either side of a multiple of the text layer's 8 KiB reads;
    # two-byte characters in the ids, which a read can split, then blank
    # lines, or no line ending after the last record
    rng, data, newline = random.Random(size), b"", newline.encode()
    while True:
        record = {"id": f"\u00fc{len(data)}", "scores": [rng.random()], "label": 1}
        line = json.dumps(record, ensure_ascii=False).encode() + newline
        if len(data) + len(line) > size:
            break
        data += line
    if last == "blank lines":
        data += newline * ((size - len(data)) // len(newline))
    elif data:
        data = data[: -len(newline)]
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    assert read_digested(path) == (read_dataset(path), digest)
    assert read_digested(str(path)) == (read_dataset(path), digest)


def test_calibration_artifact_roundtrip(tmp_path):
    data = sample_dataset(SyntheticSpec(), 150, seed=14)
    model = fit_ratio_model(data)
    spec = ville_threshold(0.1)
    path = tmp_path / "model.json"
    save_calibration(path, model, spec, {"note": "test"})
    model2, spec2, meta = load_calibration(path)
    assert model2 == model  # bit-exact weights via repr round-trip
    assert spec2 == spec
    assert meta == {"note": "test"}


def test_a_model_of_numpy_ints_saves_and_loads_back_equal(tmp_path):
    # each is a count, stored as the int count returns: json.dump refuses a
    # numpy int, and would fail midway through the file
    model = fit_ratio_model(sample_dataset(SyntheticSpec(), 150, seed=14))
    cfg = replace(model.fit_config, max_iters=np.int64(model.fit_config.max_iters))
    model = replace(model, t_max=np.int64(model.t_max), fit_config=cfg)
    assert type(model.t_max) is int and type(model.fit_config.max_iters) is int
    path = tmp_path / "model.json"
    save_calibration(path, model, ville_threshold(0.1))
    assert load_calibration(path)[0] == model


@pytest.mark.parametrize(
    "threshold",
    [
        ThresholdSpec("pac", 0.1, 1.0, 0.05, np.int64(100), np.int64(96)),
        ThresholdSpec("bonferroni", 0.1, 70.0, t_cal_max=np.int64(7)),
    ],
    ids=["pac n_null and k_index", "bonferroni t_cal_max"],
)
def test_a_threshold_of_numpy_ints_saves_and_loads_back_equal(tmp_path, threshold):
    # each is a count, stored as the int count returns, as RatioModel.t_max is
    counts = (threshold.n_null, threshold.k_index, threshold.t_cal_max)
    assert all(type(c) is int for c in counts if c is not None)
    model = fit_ratio_model(sample_dataset(SyntheticSpec(), 150, seed=14))
    path = tmp_path / "model.json"
    save_calibration(path, model, threshold)
    assert load_calibration(path)[1] == threshold


@pytest.mark.parametrize(
    "metadata, error",
    [({"when": object()}, TypeError), ([1], ParseError)],
    ids=["metadata that is not JSON", "metadata that is no JSON object"],
)
def test_a_refused_save_leaves_the_old_artifact(tmp_path, metadata, error):
    model = fit_ratio_model(sample_dataset(SyntheticSpec(), 150, seed=14))
    path = tmp_path / "model.json"
    save_calibration(path, model, ville_threshold(0.1), {"note": "old"})
    before = path.read_bytes()
    with pytest.raises(error):
        save_calibration(path, model, ville_threshold(0.2), metadata)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "fields",
    [
        # 5.0 is not 1/0.1, so the loader would refuse the file
        ("ville", 0.1, 5.0),
        # a pac value is just above a statistic >= 0; 0 would reject every trajectory
        ("pac", 0.1, 0.0, 0.05, 100, pac_index(100, 0.1, 0.05)),
    ],
    ids=["ville value 5.0", "pac value 0"],
)
def test_a_threshold_its_fields_do_not_derive_is_refused_when_built(fields):
    # so save_calibration never holds one to write
    with pytest.raises(OutOfRange, match="^value must be"):
        ThresholdSpec(*fields)


def test_calibration_artifact_rejects_other_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format":"something-else","version":1}')
    with pytest.raises(ParseError):
        load_calibration(path)
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_calibration(path)



@dataclass(frozen=True)
class _Row:
    name: str
    count: int
    share: float


def test_write_csv_header_is_the_fields_and_cells_follow_their_types(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, _Row, [_Row("a", 7, 1), _Row("b", 0, 0.1 + 0.2)])
    assert path.read_bytes() == (
        b"name,count,share\na,7,1.0\nb,0,0.30000000000000004\n"
    )


def test_write_csv_lead_column_leads_each_row_as_a_float():
    buf = io.StringIO()
    write_csv(buf, _Row, [(0.25, _Row("a", 7, 0.5)), (1, _Row("b", 0, 0.0))], lead="f")
    assert buf.getvalue() == "f,name,count,share\n0.25,a,7,0.5\n1.0,b,0,0.0\n"
    assert not buf.closed  # a stream is left open
