"""File formats: JSON-lines trajectory datasets, chess game records read
into a dataset, and the CSV tables of the experiment harness.

A path is opened by ``artifact._opened``, as strict UTF-8 with line endings
kept; an open text stream is read as given and left open. Input that is not
UTF-8, or a line that is not a JSON object, fails as ParseError. The
versioned calibration artifact lives in ``artifact``; ``load_calibration``
and ``save_calibration`` are re-exported here only for the benchmark: its
untraced run (``perfbench/run.py``) calls ``dataio.load_calibration``, and
its tracer (``perfbench/spans.py``) wraps ``dataio.save_calibration``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields

from .artifact import JSON_WHITESPACE, _opened, json_object, real
from .artifact import load_calibration, save_calibration
from .errors import InvalidTrajectory, ParseError
from .trajectories import LabeledTrajectory

CHESS_RESULTS = ("white_win", "black_win", "draw")
# published logistic slope for converting engine centipawns to a win chance
CENTIPAWN_SCALE = 0.00368208


def _require(record: dict, field: str, line: int):
    if field not in record:
        raise ParseError(f"missing required field {field!r}", line=line)
    return record[field]


def _records(path_or_stream):
    """(1-based line number, JSON object with a string ``id``) for each
    line of a JSON-lines file that holds more than JSON's whitespace."""
    with _opened(path_or_stream, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip(JSON_WHITESPACE):
                continue
            record = json_object(line, "record", line_no)
            if not isinstance(_require(record, "id", line_no), str):
                raise ParseError("'id' must be a string", line=line_no)
            yield line_no, record


def read_dataset(path_or_stream) -> tuple:
    """Parse one-JSON-object-per-line trajectory records: each becomes a
    LabeledTrajectory, which checks the type and value of every field; the
    dataset is the tuple of them.

    Errors carry the 1-based line number of the offending record.
    """
    items = []
    for line_no, record in _records(path_or_stream):
        scores = _require(record, "scores", line_no)
        label = _require(record, "label", line_no)
        try:
            items.append(LabeledTrajectory(record["id"], scores, label, record.get("tokens")))
        except InvalidTrajectory as exc:
            exc.line = line_no
            raise
    return tuple(items)


def write_dataset(data, path_or_stream) -> None:
    """One JSON object per trajectory, keyed id, scores, label and, when the
    trajectory has them, tokens."""
    with _opened(path_or_stream, "w") as fh:
        for item in data:
            record = {"id": item.id, "scores": list(item.scores), "label": item.label}
            if item.tokens is not None:
                record["tokens"] = list(item.tokens)
            fh.write(json.dumps(record) + "\n")


def centipawn_to_prob(s: float) -> float:
    """White win chance from a signed centipawn score: the published
    logistic map 0.5 * (2 / (1 + exp(-0.00368208 * s)))."""
    z = CENTIPAWN_SCALE * s
    if z >= 0:
        return 0.5 * (2.0 / (1.0 + math.exp(-z)))
    ez = math.exp(z)
    return 0.5 * (2.0 * ez / (1.0 + ez))


def read_chess(path_or_stream) -> tuple:
    """Parse JSONL chess records (id, centipawns White-positive, result) into
    the dataset of their trajectories. The null hypothesis is a White win:
    label 1 iff result == white_win (draws count as the alternative), and
    the scores are the per-move win chances."""
    items = []
    for line_no, record in _records(path_or_stream):
        cps = _require(record, "centipawns", line_no)
        result = _require(record, "result", line_no)
        if not isinstance(cps, list) or not cps or not all(map(real, cps)):
            raise ParseError(
                "'centipawns' must be a non-empty array of numbers", line=line_no
            )
        # artifact.number's test, which nan, inf and an int past the float range fail
        if not all(abs(c) <= sys.float_info.max for c in cps):
            raise InvalidTrajectory(
                "non-finite centipawn value",
                trajectory_id=record["id"], field="centipawns", line=line_no,
            )
        if result not in CHESS_RESULTS:
            raise ParseError(
                f"'result' must be one of {CHESS_RESULTS}, got {result!r}",
                line=line_no,
            )
        scores = [centipawn_to_prob(float(c)) for c in cps]
        label = 1 if result == "white_win" else 0
        items.append(LabeledTrajectory(record["id"], scores, label))
    return tuple(items)


def read_digested(path) -> tuple:
    """``read_dataset(path)`` and ``"sha256:"`` plus the hex SHA-256 of the
    file's bytes, as ``sha256sum`` prints it, from one open: each line read
    is hashed as its UTF-8 bytes, which are the file's bytes, line endings
    kept. It is CPython's built-in SHA-256: hashlib would load OpenSSL's
    libcrypto, several MB of resident memory."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:  # a build without the built-in hashes
            from hashlib import sha256
    digest = sha256()

    def hashed(lines):
        for line in lines:
            digest.update(line.encode("utf-8"))
            yield line

    with _opened(path, "r") as fh:
        return read_dataset(hashed(fh)), "sha256:" + digest.hexdigest()


def write_csv(path_or_stream, cls, rows, lead=None) -> None:
    """One CSV row per ``cls`` instance under a header of cls's field names:
    str fields verbatim, int fields by ``str`` and float fields by
    ``repr(float(...))``. With ``lead``, ``rows`` holds (value, instance)
    pairs and each value leads its row, as a float, under that column."""
    names = [f.name for f in fields(cls)]
    floats = {f.name for f in fields(cls) if f.type in ("float", float)}
    with _opened(path_or_stream, "w") as fh:
        fh.write(",".join(([lead] if lead else []) + names) + "\n")
        for row in rows:
            cells, row = ([repr(float(row[0]))], row[1]) if lead else ([], row)
            for name in names:
                value = getattr(row, name)
                cells.append(repr(float(value)) if name in floats else str(value))
            fh.write(",".join(cells) + "\n")
