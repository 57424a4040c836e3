"""Thue-Morse bits, cube-freeness, and level decoration of sentences.

Decorating every letter with the Thue-Morse bit of its level makes page
codes position-aware: two decorated sentences sharing a long identical
tail must have equal lengths, because a shifted match inside the
sequence would exhibit a cube www, which the sequence never contains.

Decoration alone does not make diaries tell letters apart.  At every
page capacity kappa, 15C + 1 included, two single-word sentences longer
than kappa whose last kappa levels carry the same bits share a diary,
while their level-1 letters may differ: every window of the sequence
recurs.  The letter-identification lemma excludes such pairs by its
hypotheses: at least p >= 3 stop signs behind the letters, tails of at
most n(p - 2) letters, word offsets within 2.  No suite samples it.
Sentences of words shorter than kappa - 1 page every word on a terminal
page, so their diaries spell them out whole, and equal diaries there
mean equal sentences; the tests pin this and the collisions.
"""
from __future__ import annotations

import random
from typing import Sequence

from qtrees.diary import STOP, segments_and_stops
from qtrees.reporting import CheckResult, PASS


def mt_prefix(n: int) -> tuple[int, ...]:
    """First n bits, by iterating the substitution 0 -> 01, 1 -> 10 from 0."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    bits = [0]
    while len(bits) < n:
        bits = [b for x in bits for b in (x, 1 - x)]
    return tuple(bits[:n])


def mt_bit(i: int) -> int:
    """Bit i of the sequence: the parity of the binary digit sum of i."""
    if i < 0:
        raise ValueError("sequence index must be nonnegative")
    return i.bit_count() & 1


def is_cube_free(bits: Sequence[int]) -> bool:
    """True iff no substring has the shape www with w nonempty.

    Exhaustive over (start, period): a cube with period p exists exactly
    when bits[i] == bits[i+p] holds for 2p consecutive positions, that is,
    when the XOR of the sequence with its p-shift has 2p zeros in a row.
    Bits other than 0 and 1 raise ValueError.
    """
    try:
        data = bytes(iter(bits))  # bytes(n) of an int would be n zeros
        valid = not data.translate(None, b"\x00\x01")
    except (TypeError, ValueError):  # not integers in range(256)
        valid = False
    if not valid:
        raise ValueError("cube scan needs a sequence of 0/1 bits")
    n = len(data)
    for p in range(1, n // 3 + 1):
        shifted = int.from_bytes(data[:n - p], "big") ^ \
            int.from_bytes(data[p:], "big")
        if bytes(2 * p) in shifted.to_bytes(n - p, "big"):
            return False
    return True


# ---------------------------------------------------------------------------
# Decoration


def decorate(sentence: Sequence) -> tuple:
    """Replace each token by (token, bit-of-its-level).  A letter's level
    counts the letters up to it; a stop sign takes the level of the letter
    before it.  The bit is ``mt_bit`` of the level, computed inline."""
    segments, _ = segments_and_stops(sentence)
    out = []
    lv = 0
    for seg in segments:
        for tok in seg:
            lv += 1
            out.append((tok, lv.bit_count() & 1))
        out.append((STOP, lv.bit_count() & 1))
    out.pop()  # the last segment has no stop sign after it
    return tuple(out)


def strip(decorated: Sequence) -> tuple:
    out = []
    for tok in decorated:
        if not (isinstance(tok, tuple) and len(tok) == 2):
            raise ValueError(f"not a decorated token: {tok!r}")
        out.append(tok[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# Synchronization checks


def check_synchronization(trials: int = 4000, seed: int = 0,
                          max_len: int = 160) -> CheckResult:
    """Randomized search for shifted identical decorated tails.

    A counterexample would be lengths L != L' within l/2 whose level windows
    carry identical bit patterns of length l; any hit exhibits a cube in the
    sequence.  Single-word sentences realize every (L, L', l) combination,
    so the search runs directly on bit windows: the windows ending at L
    and L' are compared as slices of one prefix.
    """
    res = CheckResult("mt-synchronization", PASS)
    rng = random.Random(seed)
    bits = mt_prefix(max_len + max_len // 3 + 2)  # L' <= max_len * 4/3 + 1
    for _ in range(trials):
        L = rng.randint(2, max_len)
        shift = rng.randint(0, max(1, L // 3))
        Lp = L + shift
        l = rng.randint(max(1, 2 * shift), min(L, max_len))
        if shift == 0:
            continue  # a window against itself cannot fail
        res.checked += 1
        if bits[L - l + 1:L + 1] == bits[Lp - l + 1:Lp + 1]:
            res.add_violation({"L": L, "L'": Lp, "tail": l})
    return res


# ---------------------------------------------------------------------------
# The long-journey collision: a periodic sentence whose undecorated diary
# forgets how many periods there were, while decorated diaries differ.


JOURNEY_WORD = ("b", "a", "a", "a", "a", "a", "a")


def long_journey_pair(k: int = 30, n_stops: int = 2) -> tuple[tuple, tuple]:
    """Sentences w^k s^n and w^(k+1) s^n for the word w = ``JOURNEY_WORD``
    (the extra stop signs terminate empty words)."""

    def build(reps: int) -> tuple:
        toks = list(JOURNEY_WORD) * reps
        toks.append(STOP)
        toks.extend([STOP] * (n_stops - 1))
        return tuple(toks)

    return build(k), build(k + 1)

