"""Core data types: labeled score trajectories, valid by construction
because each checks its own invariants when built, and the seeded
stratified splits every downstream stage consumes. A dataset is a tuple of
trajectories; every stage accepts any sequence of them. Each trajectory
holds its scores packed in its own float64 ``array("d")``, 8 bytes a score,
not one float object each.

Splits and derived seeds come from this module's own port of numpy's
``SeedSequence`` hash (NEP 19, after O'Neill's ``seed_seq``) and of its
PCG64 generator (O'Neill 2014), in plain Python: they equal numpy's streams
as of numpy 2.x, do not change when numpy changes its own, and never import
numpy's random module.

Label convention: 1 marks a successful trajectory (the null hypothesis of
monitoring), 0 an unsuccessful one (the alternative).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from .artifact import count, probability, score
from .errors import DegenerateSplit, InvalidTrajectory, OutOfRange


@dataclass(frozen=True)
class LabeledTrajectory:
    """Ordered per-step verifier scores plus the trajectory-level outcome label.

    ``scores`` holds at least one score that ``artifact.score`` accepts: a
    ``numbers.Real`` that is not a bool, finite as a float. It is stored as
    the trajectory's own ``array("d")`` of them: a copy, which no caller is
    to write to. It is left out of the hash, so trajectories stay hashable;
    equality compares its values.
    ``label`` is an integer 0 or 1 and not a bool: a ``count`` in [0, 1].
    ``tokens``, when present, holds cumulative token counts after each step
    (non-negative ints, as many as scores, non-decreasing). Anything else
    raises InvalidTrajectory naming the id and field, and the first refused
    score in order.
    """

    id: str
    scores: array = field(hash=False)
    label: int
    tokens: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        values = self._tuple("scores")
        if not values:
            raise self._invalid("empty score sequence", "scores")
        try:
            # exact types make the common case one pass; bool is a type of its own
            exact = {float, int}.issuperset(map(type, values))
            scores = array("d", values) if exact else None
        except OverflowError:  # an int too large for a float
            scores = None
        if scores is None or not all(map(math.isfinite, scores)):
            # the first score in order that artifact.score refuses raises
            scores = array("d", [score(s, self.id) for s in values])
        object.__setattr__(self, "scores", scores)
        try:
            object.__setattr__(self, "label", count(self.label, "label", upper=1, lower=0))
        except OutOfRange as exc:
            raise self._invalid(str(exc), "label") from None
        if self.tokens is None:
            return
        tokens = self._tuple("tokens")
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) != len(scores):
            raise self._invalid(
                f"tokens length {len(tokens)} != scores length {len(scores)}", "tokens"
            )
        prev = 0
        for tok in tokens:
            if not isinstance(tok, int) or isinstance(tok, bool) or tok < 0:
                raise self._invalid(
                    f"token counts must be non-negative integers, got {tok!r}", "tokens"
                )
            if tok < prev:
                raise self._invalid("token counts must be non-decreasing", "tokens")
            prev = tok

    def _tuple(self, field: str) -> tuple:
        value = getattr(self, field)
        # a JSON string or object iterates, but as characters or keys, and
        # bytes as small ints
        if not isinstance(value, (str, bytes, bytearray, Mapping)):
            try:
                return tuple(value)
            except TypeError:
                pass
        raise self._invalid(
            f"{field} must be a sequence, got {type(value).__name__}", field
        )

    def _invalid(self, message: str, field: str) -> InvalidTrajectory:
        return InvalidTrajectory(message, trajectory_id=self.id, field=field)

    def __len__(self) -> int:
        return len(self.scores)


# numpy's SeedSequence hash constants (NEP 19) and PCG64's multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed) -> list:
    """A ``count`` from 0 as the 32-bit entropy words SeedSequence reads
    from an int: low first, and one zero word for 0."""
    seed = count(seed, "seed", lower=0)
    return [seed >> w & _MASK32 for w in range(0, max(seed.bit_length(), 1), 32)]


def seed_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` as a list of words.

    Each entropy word ("lane") is a Python int below 2**32 or a uint32 array
    of one entry per item, and so is each word returned. Every product is
    masked to 32 bits, so both kinds wrap as numpy's uint32 does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for k in range(n_words):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return state


def derive_seed(master: int, *key) -> int:
    """Stable indexed sub-seed derivation:
    ``SeedSequence((master,) + key).generate_state(1)[0]``."""
    return seed_state([w for v in (master, *key) for w in seed_words(v)], 1)[0]


class SplitStream:
    """The draws numpy's ``default_rng(seed)`` makes in ``permutation``.

    PCG64 (XSL-RR 128/64) seeded as ``PCG64(SeedSequence(seed))``: its four
    64-bit seed words give initstate and initseq. Each 64-bit output gives
    two 32-bit draws, low half first, and a half left unused is kept for the
    next call, so successive permutations share one stream.
    """

    def __init__(self, seed: int):
        w = seed_state(seed_words(seed), 2 * _POOL_SIZE)
        # generate_state(4, np.uint64): each pair of words, low first
        w = [w[k] | w[k + 1] << 32 for k in range(0, 2 * _POOL_SIZE, 2)]
        initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
        self.inc = (initseq << 1 | 1) & _MASK128
        # step from state 0, add initstate, step
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _MASK128
        self.half = None

    def permutation(self, values) -> list:
        """A shuffled copy of ``values``, as ``Generator.permutation`` makes
        it: a backward Fisher-Yates pass that draws each index with numpy's
        masked rejection (``random_interval``) on 32-bit draws, which numpy
        uses for up to 2**32 values."""
        order = list(values)
        state, inc, half = self.state, self.inc, self.half
        mask = (1 << max(len(order) - 1, 0).bit_length()) - 1
        for i in range(len(order) - 1, 0, -1):
            if i <= mask >> 1:  # the smallest all-ones mask >= i
                mask >>= 1
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    x = (state >> 64 ^ state) & _MASK64
                    x = (x << 64 | x) >> (state >> 122) & _MASK64  # rotate right
                    j, half = x & mask, x >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self.state, self.half = state, half
        return order


def _per_label_take(counts: dict, k: int) -> dict:
    """Allocate the first-side quota across labels, keeping at least one item
    of each label on both sides (required by every downstream fitting stage)."""
    n1, n0 = counts.get(1, 0), counts.get(0, 0)
    n = n1 + n0
    if n1 < 2 or n0 < 2 or k < 2 or k > n - 2:
        raise DegenerateSplit(
            f"cannot place both labels on both sides: n1={n1}, n0={n0}, "
            f"first-side size {k} of {n}"
        )
    frac = k / n
    k1 = min(max(int(math.floor(frac * n1 + 0.5)), 1), n1 - 1)
    k0 = min(max(k - k1, 1), n0 - 1)
    return {1: k - k0, 0: k0}


def split_calibration(cal, fraction: float, seed: int):
    """Seeded stratified partition of the trajectories ``cal`` into two
    disjoint tuples, each in ``cal``'s order.

    The first side holds round(fraction * n) items, ``fraction`` a
    ``probability``; both sides keep at least one trajectory of each label,
    else DegenerateSplit is raised. The label-1 items, then the label-0
    items, are permuted on one ``SplitStream(seed)``, the draws of
    ``default_rng(seed)``, ``seed`` a ``count`` from 0.
    """
    probability(fraction, "fraction")
    count(seed, "seed", lower=0)
    n = len(cal)
    if n == 0:
        raise DegenerateSplit("cannot split an empty calibration set")
    k = int(math.floor(fraction * n + 0.5))
    labels = [item.label for item in cal]
    take = _per_label_take({1: labels.count(1), 0: labels.count(0)}, k)

    stream = SplitStream(seed)
    chosen = set()
    for label in (1, 0):
        members = [i for i, y in enumerate(labels) if y == label]
        chosen.update(stream.permutation(members)[: take[label]])
    return (
        tuple(item for i, item in enumerate(cal) if i in chosen),
        tuple(item for i, item in enumerate(cal) if i not in chosen),
    )
