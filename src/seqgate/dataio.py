"""File formats: JSON-lines trajectory datasets, chess game conversion, and
the versioned calibration artifact bundling a fitted ratio model with its
decision threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from .errors import InvalidTrajectory, OutOfRange, ParseError
from .kernels import FitConfig, LogisticModel
from .ratio import RatioModel
from .thresholds import THRESHOLD_KINDS, ThresholdSpec
from .trajectories import CalibrationSet, LabeledTrajectory, validate

ARTIFACT_FORMAT = "seqgate-calibration"
ARTIFACT_VERSION = 1

CHESS_RESULTS = ("white_win", "black_win", "draw")
# published logistic slope for converting engine centipawns to a win chance
CENTIPAWN_SCALE = 0.00368208


@dataclass(frozen=True)
class ChessGameRecord:
    id: str
    centipawns: tuple
    result: str


def _open_maybe(path_or_stream, mode):
    if isinstance(path_or_stream, (str, Path)):
        return open(path_or_stream, mode, encoding="utf-8"), True
    return path_or_stream, False


def _require(record: dict, field: str, line: int):
    if field not in record:
        raise ParseError(f"missing required field {field!r}", line=line)
    return record[field]


def read_dataset(path_or_stream) -> CalibrationSet:
    """Parse one-JSON-object-per-line trajectory records, validating each.

    Errors carry the 1-based line number of the offending record.
    """
    fh, owned = _open_maybe(path_or_stream, "r")
    items = []
    try:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed JSON ({exc.msg})", line=line_no) from exc
            if not isinstance(record, dict):
                raise ParseError("record must be a JSON object", line=line_no)
            ident = _require(record, "id", line_no)
            scores = _require(record, "scores", line_no)
            label = _require(record, "label", line_no)
            tokens = record.get("tokens")
            if not isinstance(ident, str):
                raise ParseError("'id' must be a string", line=line_no)
            # json.loads gives a number as exactly int or float, and bool is
            # a type of its own, so exact types rule out true and false
            if not isinstance(scores, list) or not {int, float}.issuperset(
                map(type, scores)
            ):
                raise ParseError("'scores' must be an array of numbers", line=line_no)
            if not isinstance(label, int) or isinstance(label, bool):
                raise ParseError("'label' must be an integer 0 or 1", line=line_no)
            if tokens is not None and (
                not isinstance(tokens, list) or not {int}.issuperset(map(type, tokens))
            ):
                raise ParseError("'tokens' must be an array of integers", line=line_no)
            traj = LabeledTrajectory(id=ident, scores=scores, label=label, tokens=tokens)
            items.append(validate(traj, line=line_no))
    finally:
        if owned:
            fh.close()
    return CalibrationSet(items)


def trajectory_to_record(item: LabeledTrajectory) -> dict:
    record = {"id": item.id, "scores": list(item.scores), "label": item.label}
    if item.tokens is not None:
        record["tokens"] = list(item.tokens)
    return record


def write_dataset(cal: CalibrationSet, path_or_stream) -> None:
    fh, owned = _open_maybe(path_or_stream, "w")
    try:
        for item in cal:
            fh.write(json.dumps(trajectory_to_record(item)) + "\n")
    finally:
        if owned:
            fh.close()


def centipawn_to_prob(s: float) -> float:
    """White win chance from a signed centipawn score: the published
    logistic map 0.5 * (2 / (1 + exp(-0.00368208 * s)))."""
    z = CENTIPAWN_SCALE * s
    if z >= 0:
        return 0.5 * (2.0 / (1.0 + math.exp(-z)))
    ez = math.exp(z)
    return 0.5 * (2.0 * ez / (1.0 + ez))


def read_chess_games(path_or_stream) -> list:
    """Parse JSONL chess records: id, centipawns (White-positive), result."""
    fh, owned = _open_maybe(path_or_stream, "r")
    games = []
    try:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed JSON ({exc.msg})", line=line_no) from exc
            ident = _require(record, "id", line_no)
            cps = _require(record, "centipawns", line_no)
            result = _require(record, "result", line_no)
            if not isinstance(cps, list) or not cps or any(
                not isinstance(c, (int, float)) or isinstance(c, bool) for c in cps
            ):
                raise ParseError(
                    "'centipawns' must be a non-empty array of numbers", line=line_no
                )
            if any(not math.isfinite(float(c)) for c in cps):
                raise InvalidTrajectory(
                    "non-finite centipawn value",
                    trajectory_id=ident, field="centipawns", line=line_no,
                )
            if result not in CHESS_RESULTS:
                raise ParseError(
                    f"'result' must be one of {CHESS_RESULTS}, got {result!r}",
                    line=line_no,
                )
            games.append(
                ChessGameRecord(
                    id=str(ident), centipawns=tuple(float(c) for c in cps), result=result
                )
            )
    finally:
        if owned:
            fh.close()
    return games


def chess_to_dataset(games) -> CalibrationSet:
    """Null hypothesis is a White win: label 1 iff result == white_win
    (draws count as the alternative). Scores are per-move win chances."""
    items = []
    for game in games:
        items.append(
            validate(
                LabeledTrajectory(
                    id=game.id,
                    scores=[centipawn_to_prob(c) for c in game.centipawns],
                    label=1 if game.result == "white_win" else 0,
                )
            )
        )
    return CalibrationSet(items)


def data_digest(path) -> str:
    import hashlib

    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_calibration(
    path,
    model: RatioModel,
    threshold: ThresholdSpec,
    metadata: Optional[dict] = None,
) -> None:
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "ratio_model": asdict(model),
        "threshold": asdict(threshold),
        "metadata": metadata or {},
    }
    fh, owned = _open_maybe(path, "w")
    try:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def _fields_of(cls, payload, where: str) -> dict:
    """``payload`` checked to be a JSON object holding exactly cls's fields."""
    if not isinstance(payload, dict):
        raise ParseError(f"{where} must be a JSON object")
    names = {f.name for f in fields(cls)}
    missing = sorted(names - payload.keys())
    unknown = sorted(payload.keys() - names)
    if missing or unknown:
        raise ParseError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return payload


def _number(value, where: str, kind=(int, float)):
    finite = isinstance(value, kind) and not isinstance(value, bool)
    if not (finite and math.isfinite(value)):
        raise ParseError(f"{where} must be a finite number, got {value!r}")
    return value


def _probability(value, where: str) -> float:
    if not 0.0 < _number(value, where) < 1.0:
        raise ParseError(f"{where} must lie strictly in (0, 1), got {value!r}")
    return value


def _ratio_model(payload) -> RatioModel:
    p = _fields_of(RatioModel, payload, "ratio_model")
    cfg = _fields_of(FitConfig, p["fit_config"], "ratio_model.fit_config")
    t_max, steps = _number(p["t_max"], "ratio_model.t_max", int), p["step_models"]
    if not isinstance(steps, list) or len(steps) != t_max:
        raise ParseError(f"ratio_model.t_max={t_max} != the number of step models")
    models = []
    for t, step in enumerate(steps, start=1):
        where = f"ratio_model.step_models[{t - 1}]"
        step = _fields_of(LogisticModel, step, where)
        if not isinstance(step["weights"], list) or len(step["weights"]) != t:
            raise ParseError(f"{where}.weights must hold {t} numbers")
        weights = tuple(_number(w, f"{where}.weights") for w in step["weights"])
        intercept = _number(step["intercept"], f"{where}.intercept")
        models.append(LogisticModel(weights, intercept))
    try:
        fit_config = FitConfig(
            **{k: _number(v, f"ratio_model.fit_config.{k}") for k, v in cfg.items()}
        )
    except OutOfRange as exc:
        raise ParseError(f"ratio_model.fit_config: {exc}") from exc
    prior_1 = _probability(p["prior_1"], "ratio_model.prior_1")
    return RatioModel(tuple(models), prior_1, t_max, fit_config)


def _threshold(payload) -> ThresholdSpec:
    p = _fields_of(ThresholdSpec, payload, "threshold")
    if p["kind"] not in THRESHOLD_KINDS:
        raise ParseError(f"threshold.kind {p['kind']!r} is not one of {THRESHOLD_KINDS}")
    _probability(p["alpha"], "threshold.alpha")
    _number(p["value"], "threshold.value")
    for key in ("delta", "n_null", "k_index", "t_cal_max"):
        if p[key] is not None:
            _number(p[key], f"threshold.{key}", float if key == "delta" else int)
    return ThresholdSpec(**p)


def load_calibration(path):
    """(ratio model, threshold, metadata) from an artifact, every field
    validated; anything malformed raises ParseError."""
    fh, owned = _open_maybe(path, "r")
    try:
        payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed calibration artifact ({exc.msg})") from exc
    finally:
        if owned:
            fh.close()
    if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
        raise ParseError(f"not a {ARTIFACT_FORMAT} file")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ParseError(f"unsupported artifact version {payload.get('version')!r}")
    model = _ratio_model(payload.get("ratio_model"))
    threshold = _threshold(payload.get("threshold"))
    return model, threshold, payload.get("metadata", {})
