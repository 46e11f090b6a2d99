"""The calibration artifact without numpy: the model and threshold types
``seqgate calibrate`` writes, the threshold formulas, the scalar statistic
``seqgate monitor`` streams, the versioned JSON format that bundles them, and
the input checks ``number``, ``probability``, ``count`` and ``json_object``.
The batch modules import these names from here, so a monitor process loads
this module, ``monitor`` and ``cli`` alone, and re-derives the threshold it loads.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from .errors import EmptyPrefix, InsufficientCalibration, OutOfRange, ParseError

DEFAULT_PROB_CLAMP = 1e-6
# the CLI's and the experiment's defaults, here so that the parser needs no numpy
DEFAULT_DELTA = 0.05
DEFAULT_DRE_FRACTION = 0.5
DEFAULT_CAL_FRACTION = 0.2
DEFAULT_SPLITS = 50
THRESHOLD_KINDS = ("pac", "ville", "bonferroni")
# the rules the experiment compares: the ratio statistic under the PAC, Ville
# and Bonferroni thresholds, and the raw and calibrated scores
KNOWN_METHODS = ("evaluator_pac", "evaluator_ville", "bonferroni", "raw", "calibrated")
# the largest pac n_null: pac_index sums up to n terms, about 1 s per million
MAX_NULL_SAMPLES = 10**6
ARTIFACT_FORMAT = "seqgate-calibration"
ARTIFACT_VERSION = 1
ARTIFACT_KEYS = ("format", "version", "ratio_model", "threshold", "metadata")
# the whitespace JSON admits around a value; str.strip() strips more
JSON_WHITESPACE = " \t\r\n"


def number(value, name: str, kind=(int, float)):
    """``value`` if it is a finite ``kind`` and not a bool; OutOfRange otherwise."""
    valid = isinstance(value, kind) and not isinstance(value, bool)
    # False for nan, the infinities and an int too large for a float
    if not (valid and abs(value) <= sys.float_info.max):
        raise OutOfRange(f"{name} must be a finite number, got {value!r}")
    return value


def probability(value, name: str):
    """``value`` if it is a number strictly in (0, 1); OutOfRange otherwise."""
    if not 0.0 < number(value, name) < 1.0:
        raise OutOfRange(f"{name} must lie strictly in (0, 1), got {value!r}")
    return value


def count(value, name: str, upper=None, lower=1) -> int:
    """``value`` as an int if it is an integer in [lower, upper] and not a
    bool, with no upper bound for None; OutOfRange otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = lower - 1
    # operator.index reads True as 1
    if isinstance(value, bool) or n < lower or (upper is not None and n > upper):
        bounds = f">= {lower}" if upper is None else f"in [{lower}, {upper}]"
        raise OutOfRange(f"{name} must be an integer {bounds}, got {value!r}")
    return n


def json_object(text: str, name: str, line=None) -> dict:
    """``text`` decoded as a JSON object; otherwise ParseError at ``line``:
    "<name> must be a JSON object" for any other JSON value, and, caused by
    the decoder's error, for text that does not decode, an integer past
    Python's digit limit or nesting past its recursion limit included."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise ParseError(f"malformed JSON ({reason})", line=line) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{name} must be a JSON object", line=line)
    return payload


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for the logistic kernel.

    l2_lambda penalizes squared weight norm (the intercept is never
    penalized); prob_clamp bounds predicted probabilities away from 0 and 1
    so downstream ratios stay finite. The default penalty is a light floor:
    informative verifiers induce large true weights, and heavy shrinkage
    biases the estimated ratio process downward at every step.

    l2_lambda >= 0, tolerance > 0 and prob_clamp are each a finite
    ``number``, and max_iters is a ``count``.
    """

    l2_lambda: float = 0.02
    max_iters: int = 100
    tolerance: float = 1e-8
    prob_clamp: float = DEFAULT_PROB_CLAMP

    def __post_init__(self):
        if number(self.l2_lambda, "l2_lambda") < 0:
            raise OutOfRange(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        count(self.max_iters, "max_iters")
        if number(self.tolerance, "tolerance") <= 0:
            raise OutOfRange(f"tolerance must be > 0, got {self.tolerance}")
        # the ratio takes math.exp of logits up to log((1 - c)/c), which
        # raises OverflowError unless (1 - c)/c is a finite float
        if not (sys.float_info.min <= number(self.prob_clamp, "prob_clamp") < 0.5):
            raise OutOfRange(
                f"prob_clamp must lie in [{sys.float_info.min!r}, 0.5), "
                f"got {self.prob_clamp}"
            )


@dataclass(frozen=True)
class LogisticModel:
    """One step's classifier: ``weights``, a sequence of finite ``number``
    values, stored as a tuple, and a finite ``number`` intercept."""

    weights: tuple
    intercept: float

    def __post_init__(self):
        if not isinstance(self.weights, Sequence):
            raise OutOfRange(f"weights must be a sequence, got {self.weights!r}")
        weights = tuple(number(w, "weights") for w in self.weights)
        object.__setattr__(self, "weights", weights)
        number(self.intercept, "intercept")


@dataclass(frozen=True)
class RatioModel:
    """Per-step classifiers plus the class-prior estimate they plug into:
    step_models is a sequence, stored as a tuple, whose step t is a
    LogisticModel with exactly t weights, t_max a ``count`` of them and
    prior_1 a ``probability``."""

    step_models: tuple
    prior_1: float
    t_max: int
    fit_config: FitConfig

    def __post_init__(self):
        if not isinstance(self.step_models, Sequence):
            raise OutOfRange(f"step_models must be a sequence, got {self.step_models!r}")
        object.__setattr__(self, "step_models", tuple(self.step_models))
        if count(self.t_max, "t_max") != len(self.step_models):
            raise OutOfRange(f"t_max={self.t_max} but {len(self.step_models)} step models")
        for t, step in enumerate(self.step_models, start=1):
            if not isinstance(step, LogisticModel) or len(step.weights) != t:
                raise OutOfRange(
                    f"step_models[{t - 1}] must be a LogisticModel with {t} weights"
                )
        probability(self.prior_1, "prior_1")

    # cached beside the fields: asdict, == and the artifact bytes ignore them
    @cached_property
    def prior_odds(self) -> float:
        """prior_1 / (1 - prior_1), the factor every ratio value carries."""
        return self.prior_1 / (1.0 - self.prior_1)

    @cached_property
    def logit_bound(self) -> float:
        """L = log((1 - c)/c): f = sigmoid(z) in [c, 1 - c] is z in [-L, L]."""
        c = self.fit_config.prob_clamp
        return math.log((1.0 - c) / c)


def ratio_statistic(model: RatioModel):
    """The plug-in density ratio at the end of a prefix, as a function of the
    prefix alone.

    Each step's (weights, intercept), t_max, the logit bound and the prior
    odds are read once, here. Prefixes longer than t_max are truncated to
    their first t_max scores, freezing the statistic. The arithmetic is
    replay's, one prefix at a time.
    """
    steps = [(step.weights, step.intercept) for step in model.step_models]
    t_max = model.t_max
    bound, odds, exp = model.logit_bound, model.prior_odds, math.exp

    def value(prefix) -> float:
        t = len(prefix)
        if t > t_max:
            t = t_max
        elif not t:
            raise EmptyPrefix("cannot evaluate the ratio on an empty prefix")
        weights, intercept = steps[t - 1]
        z = 0.0
        for w, v in zip(weights, prefix):
            z = z + w * v
        z = z + intercept
        # two comparisons, as np.clip: a nan logit stays nan
        if z > bound:
            z = bound
        elif z < -bound:
            z = -bound
        return odds * exp(-z)

    return value


@dataclass(frozen=True)
class ThresholdSpec:
    """A resolved decision threshold plus how it was derived."""

    kind: str  # one of THRESHOLD_KINDS
    alpha: float
    value: float
    delta: Optional[float] = None   # pac only
    n_null: Optional[int] = None    # pac only
    k_index: Optional[int] = None   # pac only
    t_cal_max: Optional[int] = None  # bonferroni only


def ville_threshold(alpha: float) -> ThresholdSpec:
    """Universal threshold 1/alpha."""
    probability(alpha, "alpha")
    # a subnormal alpha overflows 1/alpha to inf, a threshold that never rejects
    value = 1.0 / alpha
    if not math.isfinite(value):
        raise OutOfRange(f"1 / alpha must be a finite float, alpha={alpha}")
    return ThresholdSpec(kind="ville", alpha=alpha, value=value)


def bonferroni_threshold(alpha: float, t_cal_max: int) -> ThresholdSpec:
    """Per-step rejection at level alpha/T, i.e. statistic threshold T/alpha."""
    probability(alpha, "alpha")
    t = count(t_cal_max, "t_cal_max")
    # an infinite threshold never rejects; t past the float range overflows
    try:
        value = t / alpha
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OutOfRange(f"t_cal_max / alpha must be a finite float, alpha={alpha}")
    return ThresholdSpec(kind="bonferroni", alpha=alpha, value=value, t_cal_max=t)


def _log_tails(n: int, p: float):
    """log Pr[Binomial(n, p) >= i] for i = n, n - 1, ..., 1, for 0 < p < 1:
    a running log-sum-exp of log-gamma terms, a few ulps of relative error
    per term, so stopping at i costs n - i + 1 terms and no memory."""
    log_p, log_q = math.log(p), math.log1p(-p)
    log_cn = math.lgamma(n + 1)
    top, total = -math.inf, 0.0  # the tail is exp(top) * total
    for i in range(n, 0, -1):
        term = log_cn - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        term = term + i * log_p + (n - i) * log_q
        if term > top:
            total = total * math.exp(top - term) + 1.0
            top = term
        else:
            total += math.exp(term - top)
        yield top + math.log(total)


def min_null_samples(alpha: float, delta: float) -> int:
    """Smallest n with Pr[Bin(n, 1-alpha) >= n] <= delta, or MAX_NULL_SAMPLES + 1
    if it is past that cap, as at a tiny alpha, where it can overflow a float."""
    return math.ceil(min(math.log(delta) / math.log1p(-alpha), MAX_NULL_SAMPLES + 1))


def pac_index(n: int, alpha: float, delta: float) -> int:
    """Smallest k in 1..n with Pr[Bin(n, 1-alpha) >= k] <= delta: the tails
    from k = n down to the first one above delta, about n * alpha terms. n
    may not exceed MAX_NULL_SAMPLES."""
    probability(alpha, "alpha")
    probability(delta, "delta")
    n = count(n, "n", MAX_NULL_SAMPLES)
    p, k = 1.0 - alpha, n + 1
    # an alpha below the float spacing at 1 leaves p = 1: Pr[X >= n] = 1
    for log_tail in _log_tails(n, p) if p < 1.0 else ():
        if math.exp(log_tail) > delta:
            break
        k -= 1
    if k > n:
        raise InsufficientCalibration(n, alpha, delta, min_null_samples(alpha, delta))
    return k


def pac_threshold(maxima, alpha: float, delta: float) -> ThresholdSpec:
    """The float just above the order statistic M_(k), k = pac_index(n, alpha,
    delta), of the null maxima: the bound covers Pr[M > M_(k)], and rules
    reject at >=, so null maxima tied at M_(k) must not reject."""
    n = len(maxima)
    # sorted orders a list holding nan arbitrarily
    if any(map(math.isnan, maxima)):
        raise OutOfRange("maxima must not be nan")
    k = pac_index(n, alpha, delta)
    return ThresholdSpec(
        kind="pac",
        alpha=alpha,
        value=math.nextafter(sorted(maxima)[k - 1], math.inf),
        delta=delta,
        n_null=n,
        k_index=k,
    )


@contextmanager
def _opened(path_or_stream, mode):
    """A path opened as UTF-8 text with newlines untranslated, or a stream
    as given, closing only what it opened; text that does not decode as
    UTF-8 raises ParseError."""
    try:
        if isinstance(path_or_stream, (str, Path)):
            with open(path_or_stream, mode, encoding="utf-8", newline="") as fh:
                yield fh
        else:
            yield path_or_stream
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text") from exc


def save_calibration(
    path,
    model: RatioModel,
    threshold: ThresholdSpec,
    metadata: Optional[dict] = None,
) -> None:
    """Write the artifact that ``load_calibration`` reads back. The threshold
    is certified as the loader certifies it, and the metadata encoded and
    decoded as a JSON object, before the file is opened: a failure leaves any
    file at ``path`` as it was. The rest always encodes, so it streams."""
    _threshold(asdict(threshold))
    metadata = metadata or {}
    json_object(json.dumps(metadata, sort_keys=True), "metadata")
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "ratio_model": asdict(model),
        "threshold": asdict(threshold),
        "metadata": metadata,
    }
    with _opened(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fields_of(keys, payload, where: str) -> dict:
    """``payload`` checked to be a JSON object holding exactly ``keys``: the
    names in a tuple, or a dataclass's field names."""
    if not isinstance(payload, dict):
        raise ParseError(f"{where} must be a JSON object")
    names = set(keys) if isinstance(keys, tuple) else {f.name for f in fields(keys)}
    missing = sorted(names - payload.keys())
    unknown = sorted(payload.keys() - names)
    if missing or unknown:
        raise ParseError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return payload


def _ratio_model(payload) -> RatioModel:
    p = _fields_of(RatioModel, payload, "ratio_model")
    if not isinstance(p["step_models"], list):
        raise ParseError("ratio_model.step_models must be a JSON array")
    steps = []
    for i, step in enumerate(p["step_models"]):
        where = f"ratio_model.step_models[{i}]"
        try:
            steps.append(LogisticModel(**_fields_of(LogisticModel, step, where)))
        except OutOfRange as exc:
            raise ParseError(f"{where}.{exc}") from exc
    cfg = FitConfig(**_fields_of(FitConfig, p["fit_config"], "ratio_model.fit_config"))
    return RatioModel(steps, p["prior_1"], p["t_max"], cfg)


def _threshold(payload) -> ThresholdSpec:
    """The threshold, certified by deriving it again from its own alpha,
    t_cal_max, delta and n_null; a pac value comes from data, so only its
    type and sign are checked: it is just above a statistic, which is >= 0."""
    p = _fields_of(ThresholdSpec, payload, "threshold")
    kind = p["kind"]
    if kind not in THRESHOLD_KINDS:
        raise ParseError(f"threshold.kind {kind!r} is not one of {THRESHOLD_KINDS}")
    number(p["value"], "threshold.value")
    for key in ("delta", "n_null", "k_index", "t_cal_max"):
        if p[key] is not None or (kind == "pac" and key != "t_cal_max"):
            number(p[key], f"threshold.{key}", float if key == "delta" else int)
    spec = ThresholdSpec(**p)
    if kind == "ville":
        derived = ville_threshold(spec.alpha)
    elif kind == "bonferroni":
        derived = bonferroni_threshold(spec.alpha, spec.t_cal_max)
    else:
        if spec.value <= 0:  # such a threshold rejects every trajectory
            raise ParseError(f"pac threshold.value must be > 0, got {spec.value!r}")
        k = pac_index(spec.n_null, spec.alpha, spec.delta)
        derived = replace(spec, k_index=k, t_cal_max=None)
    if spec != derived:
        raise ParseError(f"threshold {p} is not the {kind} threshold its fields derive")
    return spec


def load_calibration(path):
    """(ratio model, threshold, metadata) from an artifact, every field
    validated and the threshold re-derived; anything malformed raises
    ParseError."""
    with _opened(path, "r") as fh:
        payload = json_object(fh.read(), "calibration artifact")
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ParseError(f"not a {ARTIFACT_FORMAT} file")
    # the int 1 only: true and 1.0 compare equal to it
    version = payload.get("version")
    if type(version) is not int or version != ARTIFACT_VERSION:
        raise ParseError(f"unsupported artifact version {version!r}")
    _fields_of(ARTIFACT_KEYS, payload, "calibration artifact")
    try:
        model = _ratio_model(payload["ratio_model"])
        threshold = _threshold(payload["threshold"])
    except (OutOfRange, InsufficientCalibration) as exc:
        raise ParseError(str(exc)) from exc
    metadata = payload["metadata"]
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be a JSON object")
    return model, threshold, metadata
