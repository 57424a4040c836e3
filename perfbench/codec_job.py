"""One codec sample: encode, decode and check a fixed set of sentences.

    python3 perfbench/codec_job.py {string,tuple} --kappa K --seed N
    python3 perfbench/codec_job.py thue --seed N

The parts:

- ``string``: every sentence over {a, b} with at most 3 words of at most 4
  letters, at page capacity K, on the string path of
  ``diary.encode_segments`` (the path the exhaustive codec oracle uses);
- ``tuple``: the same sentences with tuple tokens, on the path stage 2
  takes (``encode_with_rest`` -> ``decode`` -> ``membership`` /
  ``member_rest``), through the program's own exhaustive check
  ``verify.check_codec_roundtrip``;
- ``thue``: a seeded sample of longer Thue-Morse-decorated sentences at the
  page capacities of the three presets (16, 31, 46), plus
  ``is_cube_free(mt_prefix(2048))``.

Every sentence is checked by round trip: it is a member of the class its
pages decode to, and the codec's rest equals the member's rest.  Both sweeps
also check the converse: every in-bounds fill of a class re-encodes to the
class's pages, and the fills are exactly the enumerated members.

Prints one JSON line with the sentence and violation counts, and for the
string sweep the class count.  The checks of the string sweep and of
``thue`` are the benchmark's own oracle.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random

from qtrees import diary, morse_thue, verify

SWEEP_WORDS = 3
SWEEP_LEN = 4
THUE_KAPPAS = (16, 31, 46)
THUE_SENTENCES = 1500  # per capacity
THUE_WORDS = 12
THUE_MAX_LEN = 8
CUBE_FREE_PREFIX = 2048


def _words(max_len: int) -> list[str]:
    return ["".join(c) for ln in range(max_len + 1)
            for c in itertools.product("ab", repeat=ln)]


def _fills(units, max_len: int):
    """Every word list matching the slotted ``units`` within the bound."""
    options = []
    for has_slot, shown in units:
        if len(shown) > max_len:
            return
        options.append([w + shown for w in _words(max_len - len(shown))]
                       if has_slot else [shown])
    yield from itertools.product(*options)


def _sweep(kappa: int, max_len: int) -> tuple[int, int, int]:
    """Exhaustive sweep of the string path at one capacity; returns
    (sentences, classes, violations)."""
    def encode(combo):
        return diary.encode_segments(combo, diary.STOP * len(combo), kappa)

    classes: dict = {}
    counts: dict = {}
    sentences = violations = 0
    words = _words(max_len)
    for k in range(1, SWEEP_WORDS + 1):
        for combo in itertools.product(words, repeat=k):
            pages, rest = encode(combo)
            sentences += 1
            counts[pages] = counts.get(pages, 0) + 1
            if pages not in classes:
                classes[pages] = diary.decode(pages, kappa)
            slotted, pending = classes[pages]
            if _string_rest(slotted, pending, combo) != rest:
                violations += 1
    for pages, (slotted, _) in classes.items():
        units = [(has_slot, "".join(w)) for has_slot, w in slotted]
        members = 0
        for fill in _fills(units, max_len):
            members += 1
            if encode(fill)[0] != pages:
                violations += 1
        if members != counts[pages]:
            violations += 1
    return sentences, len(classes), violations


def _string_rest(slotted, pending, combo):
    """The rest a member of ``slotted`` must leave, or None when ``combo``
    is not a member."""
    if len(slotted) != len(combo):
        return None
    fillers = {}
    for i, (word, (has_slot, shown)) in enumerate(zip(combo, slotted)):
        shown = "".join(shown)
        if has_slot and word.endswith(shown):
            fillers[i] = word[: len(word) - len(shown)]
        elif word != shown:
            return None
    return "".join(fillers.get(owner, "") + diary.STOP
                   for _, owner in pending)


def _thue(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    sentences = violations = 0
    for kappa in THUE_KAPPAS:
        for _ in range(THUE_SENTENCES):
            plain = tuple(
                t for _ in range(THUE_WORDS)
                for t in (*(rng.choice("abc")
                            for _ in range(rng.randint(0, THUE_MAX_LEN))),
                          diary.STOP))
            deco = morse_thue.decorate(plain)
            pages, rest = diary.encode_with_rest(deco, kappa)
            slotted, pending = diary.decode(pages, kappa)
            sentences += 1
            if not (morse_thue.strip(deco) == plain and
                    diary.membership(slotted, deco) and
                    diary.member_rest(slotted, pending, deco) == rest):
                violations += 1
    prefix = morse_thue.mt_prefix(CUBE_FREE_PREFIX)
    if not morse_thue.is_cube_free(prefix) or \
            morse_thue.is_cube_free(prefix[:8] * 3):
        violations += 1
    return sentences, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("part", choices=("string", "tuple", "thue"))
    parser.add_argument("--kappa", type=int, help="page capacity of a sweep")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    out = {"part": args.part}
    if args.part == "thue":
        out["sentences"], out["violations"] = _thue(args.seed)
    elif args.kappa is None or args.kappa < 1:
        parser.error("a sweep needs --kappa of at least 1")
    elif args.part == "string":
        out["sentences"], out["classes"], out["violations"] = _sweep(
            args.kappa, SWEEP_LEN)
    else:
        res = verify.check_codec_roundtrip(args.kappa, SWEEP_WORDS, SWEEP_LEN)
        # a CheckResult keeps only the first violations; any is a failure
        out["sentences"] = res.checked
        out["violations"] = len(res.violations)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
