"""Named verification suites for the CLI.

Each suite is a list of CheckResults keyed by stable check ids; skipped
hypotheses surface as "inconclusive" entries with counts, never as
silent omissions.  The codec and sequence suites are config-independent
apart from the seed.

The codec checks sweep every in-bound sentence as a tuple of words, in
``itertools.product`` order, and get its pages and rest from its
one-word-shorter prefix's by one encoder step (``diary.encode_step``);
membership and the rest are matched on the same words
(``diary.member_rest_segments``), so no sentence is built flat or split
unless a violation records it.  The page classes form a prefix tree: a
class is found from its prefix class by its last page alone, so no
sentence hashes its whole pages.  Each class holds its pages, its decoded
state, its star-honesty verdicts and how many sentences were enumerated
with it; a new class costs one decoder step (``diary.decode_step``) from
its prefix class's state.  The converse is a count: each class must hold
as many in-bound fills as sentences were enumerated with its pages, and
no fill is built or encoded.  The
pipeline and the geometry stack are imported only when ``run_suite``
runs "all", and the tree side only where a suite reads it, so codec
users never load what they do not run.  The CLI loads this module for
``verify diary|morse_thue|all`` only: it runs the pipeline suites on the
pipeline itself.  ``verify all`` runs the codec suite in a worker made
with ``os.fork`` before the pipeline loads, so the geometry stack loads
and the suites that read the config run beside the worker.
"""
from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Optional

from qtrees import morse_thue as mt
from qtrees.diary import (
    STAR,
    STOP,
    decode_step,
    encode,
    encode_step,
    encode_with_rest,
    fill_slots,
    is_honest,
    member_rest_segments,
    reconstruct,
)
from qtrees.reporting import PASS, PIPELINE_SUITES, CheckResult, suite_dict

if TYPE_CHECKING:
    from qtrees.presets import PipelineConfig


def run_suite(config: PipelineConfig, suite: str) -> dict:
    """The codec suite "diary", the sequence suite "morse_thue", or "all"
    of the suites, the pipeline suites on one shared pipeline; the CLI
    runs a single pipeline suite on the pipeline itself.  Under "all" the
    codec suite, which reads nothing of the config, runs in a worker
    forked before this process loads the pipeline, so the geometry stack
    loads beside the worker."""
    if suite == "diary":
        return suite_dict("diary", diary_suite())
    if suite == "morse_thue":
        return suite_dict("morse_thue", morse_thue_suite(seed=config.seed))
    if suite != "all":
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         "('diary', 'morse_thue', 'all')")

    def others() -> dict:
        from qtrees.pipeline import Pipeline
        pipe = Pipeline(config)
        # stage 2 first, so a page capacity below its floor is refused
        # before stage 1 is built; ``json_text`` sorts the keys, so the
        # printed bytes do not change
        out = {name: pipe.suite_report(name)
               for name in reversed(PIPELINE_SUITES)}
        out["morse_thue"] = suite_dict("morse_thue",
                                       morse_thue_suite(seed=config.seed))
        return out

    diary, out = _beside(diary_suite, others)
    out["diary"] = suite_dict("diary", diary)
    return {"suite": "all", "ok": all(s["ok"] for s in out.values()),
            "suites": out}


def _beside(work, meanwhile) -> tuple:
    """(work(), meanwhile()), with work() run in a forked worker where
    ``os.fork`` exists.  The worker sends its result back pickled over a
    pipe and always ends with ``os._exit``, so it never returns into the
    caller's frames.  The worker is reaped on every path; when meanwhile()
    raises, it is killed first.  If the worker fails, work() runs here, so
    its errors are raised as they are without a worker."""
    if not hasattr(os, "fork"):
        return work(), meanwhile()
    import pickle
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return work(), meanwhile()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as sink:
                pickle.dump(work(), sink)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        try:
            theirs = meanwhile()
            data = source.read()
        except BaseException:
            import signal  # only here: a passing run never pays for it
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    return (pickle.loads(data) if status == 0 else work()), theirs


# ---------------------------------------------------------------------------
# Codec suite (config-independent)

# the letters of the codec sweeps' words
ALPHABET = ("a", "b")


def diary_suite(max_words: int = 3, max_len: int = 3,
                kappas=(1, 2, 3)) -> list[CheckResult]:
    """Exhaustive small-instance oracle for the page codec; acceptance
    criterion 1 runs this suite at the full advertised bounds, 4 words of
    at most 4 letters.

    One incremental sweep per page capacity serves both the round-trip
    check and the star-honesty check: each sentence is encoded once, as
    one encoder step from its one-word-shorter prefix, and each class is
    decoded once, as one decoder step from its prefix class's state.  The
    round-trip check's converse counts each class's in-bound fills against
    the sentences enumerated with its pages (see ``_codec_sweep``); no fill
    is re-encoded.  The star-honesty check (whenever a page carries the
    terminal marker, the prefix up to that page reconstructs honestly)
    reads, for each starred page, the verdict on the state of the prefix
    class that ends with it; no prefix is reconstructed again."""
    star = CheckResult("diary-star-honest", PASS)
    roundtrips = [_codec_sweep(kappa, max_words, max_len, star)
                  for kappa in kappas]
    return [check_worked_example(), star, check_string_recovery(),
            *roundtrips]


def check_codec_roundtrip(kappa: int, max_words: int, max_len: int
                          ) -> CheckResult:
    """Within the enumeration bounds: equal pages <=> same slotted class,
    and the codec's rest sentence equals the member's slot fillers."""
    return _codec_sweep(kappa, max_words, max_len, None)


def _codec_sweep(kappa: int, max_words: int, max_len: int,
                 star: Optional[CheckResult]) -> CheckResult:
    """The round-trip check at one capacity, over every sentence of
    1..max_words words of at most max_len letters of ``ALPHABET``, as word
    tuples in ``itertools.product`` order; when ``star`` is given, the
    star-honesty check reads the same classes.

    A sentence's pages and rest extend those of its one-word-shorter
    prefix by one encoder step (``diary.encode_step``): between words the
    encoder's only state is the rest, which it puts in front of the next
    word.  The prefix continues from its member rest, which equals the
    encoder's rest whenever the prefix passed; so a faulty rest is
    reported on the sentence that shows it and does not also corrupt the
    pages of its extensions.  Where the two rests differ and the member's
    does not hold one stop sign per pending stop of the class, as every
    rest does, the prefix continues from the encoder's rest instead, so a
    faulty member rest is named in the same way.  Only the levels below
    ``max_words`` are kept.

    Each page class is a ``_PageClass``, found from its prefix class by
    its last page, so a sentence looks up one page, not its whole pages.
    A new class is decoded by one decoder step from its prefix class's
    state; a starred page's honesty verdict is taken once per class and
    the class inherits those of its prefix class.  The class counts the
    sentences enumerated with its pages; the round trip checks their
    sum, the star-honesty check the sum of each count times the class's
    starred pages, and the converse pass runs over the classes in the
    order they were made.

    The converse needs no fill to be built.  Let E(P) be the enumerated
    sentences whose step-wise pages are P, and F(P) the in-bound fills of
    decode(P).  The forward pass shows that every sentence of E(P) is a
    member of decode(P), so E(P) is a subset of F(P) whenever that pass
    reports nothing.  Distinct fillers give distinct sentences, so |F(P)|
    is the product of ``within[max_len - len(shown)]`` over the slotted
    units, or 0 when any unit shows more than ``max_len`` letters.  Then
    |F(P)| = |E(P)| gives F(P) = E(P): every fill pages to P.
    Re-encoding each fill with the whole fold would add only "the fold
    equals the steps", which two tests hold:
    ``tests/test_diary.py::test_encode_segments_is_the_fold_of_encode_step``,
    and the flat references of ``tests/test_codec_sweep.py``, which page
    every sentence with the fold and must equal this sweep at four bounds
    and capacities 1..4."""
    if kappa < 1:
        raise ValueError("page capacity must be at least 1")
    res = CheckResult(f"diary-roundtrip-k{kappa}", PASS)
    tail = (STOP,)  # the rest after a word ends with its stop sign
    words = [w for ln in range(max_len + 1)
             for w in itertools.product(ALPHABET, repeat=ln)]
    # within[b] words have at most b letters
    within = list(itertools.accumulate(
        len(ALPHABET) ** ln for ln in range(max_len + 1)))
    root = _PageClass((), (), (), 0, ())
    classes = []  # in creation order
    # per prefix sentence of the level before: its rest and page class
    prefixes = [((), root)]
    for k in range(1, max_words + 1):
        stops = (STOP,) * k
        sentences = itertools.product(words, repeat=k)
        keep = k < max_words  # only the levels below max_words are kept
        level = []
        for prefix_rest, prefix_class in prefixes:
            children = prefix_class.children
            # the next len(words) sentences extend this prefix by each word
            for word, sent_words in zip(words, sentences):
                page, rest = encode_step(prefix_rest, word, tail, kappa)
                cls = children.get(page)
                if cls is None:
                    cls = children[page] = prefix_class.extend(page, kappa)
                    classes.append(cls)
                cls.count += 1
                member = member_rest_segments(cls.slotted, cls.pending,
                                              sent_words, stops)
                if member is None:
                    res.add_violation({"sentence": _flat(sent_words),
                                       "reason": "not a member"})
                elif member != rest:
                    res.add_violation({"sentence": _flat(sent_words),
                                       "reason": "rest mismatch",
                                       "codec_rest": rest})
                if keep:
                    # a rest holds one stop sign per pending stop
                    if member is None or (member != rest and member.count(
                            STOP) != len(cls.pending)):
                        member = rest
                    level.append((member, cls))
                if cls.dishonest and star is not None:
                    for p in cls.dishonest:
                        star.add_violation({"sentence": _flat(sent_words),
                                            "page": p, "kappa": kappa})
        prefixes = level
    res.checked += sum(cls.count for cls in classes)
    if star is not None:
        star.checked += sum(cls.count * cls.starred for cls in classes)
    # converse: each class holds as many in-bound fills as sentences were
    # enumerated with its pages, so every fill pages to the class
    for cls in classes:
        fills = 1
        for has_slot, shown in cls.slotted:
            budget = max_len - len(shown)
            if budget < 0:
                fills = 0
                break
            if has_slot:
                fills *= within[budget]
        if fills != cls.count:
            res.add_violation({"pages": cls.pages,
                               "reason": "class size mismatch",
                               "fills": fills, "enumerated": cls.count})
    return res


class _PageClass:
    """The sentences of a codec sweep that page to ``pages``: their decoded
    state, how many of the pages are starred and the indices of the starred
    pages whose prefix reconstructs dishonestly, how many sentences were
    enumerated with these pages, and the classes one page longer, keyed by
    that page."""

    __slots__ = ("pages", "slotted", "pending", "starred", "dishonest",
                 "count", "children")

    def __init__(self, pages: tuple, slotted: tuple, pending: tuple,
                 starred: int, dishonest: tuple):
        self.pages = pages
        self.slotted = slotted
        self.pending = pending
        self.starred = starred
        self.dishonest = dishonest
        self.count = 0
        self.children: dict = {}

    def extend(self, page, kappa: int) -> _PageClass:
        """The class of these pages followed by ``page``: one decoder step
        from this class's state, and the honesty verdict of a starred
        ``page``."""
        slotted, pending = decode_step((self.slotted, self.pending), page,
                                       kappa)
        starred, dishonest = self.starred, self.dishonest
        if page[-1] == STAR:
            starred += 1
            if not is_honest(slotted):
                dishonest += (len(self.pages),)
        return _PageClass(self.pages + (page,), slotted, pending, starred,
                          dishonest)


def _flat(sent_words) -> tuple:
    """The flat sentence of a word tuple: each word followed by a stop."""
    return tuple(t for w in sent_words for t in (*w, STOP))


def check_worked_example() -> CheckResult:
    """The five-word example: pages (cba)(asa)(bcb)(css)(bs*), honest
    reconstruction, first rest sentence `a s`."""
    res = CheckResult("diary-worked-example", PASS, checked=1)
    sent = tuple("aabc") + (STOP, "a", STOP) + tuple("bcb") + (STOP, "c",
                                                               STOP, "b", STOP)
    pages, rest = encode_with_rest(sent, 3)
    expected = (
        ("c", "b", "a"),
        ("a", STOP, "a"),
        ("b", "c", "b"),
        ("c", STOP, STOP),
        ("b", STOP, "*"),
    )
    if pages != expected:
        res.add_violation({"pages": pages})
    if rest != (STOP,):
        res.add_violation({"rest": rest})
    slotted = reconstruct(pages, 3)
    if not (is_honest(slotted) and fill_slots(slotted, ()) == sent):
        res.add_violation({"slotted": slotted})
    # the intermediate rest after the first page
    one_word = tuple("aabc") + (STOP,)
    if encode_with_rest(one_word, 3)[1] != ("a", STOP):
        res.add_violation({"reason": "first rest sentence"})
    return res


def check_string_recovery() -> CheckResult:
    """When the pages for words m+1..m+p cover the whole stretch back past
    stop sign m (kappa*p tokens >= tokens strictly between stops m and m+p,
    plus one), the reconstruction shows, left of stop m+1, an unbroken run
    of at least kappa + q + (tokens between stops m and m+1) tokens, or the
    whole prefix.  Counts include stop signs: pages record them like any
    other token, so they spend window capacity and appear in the run.
    Checked on 400 random sentences of seed 7."""
    import random

    res = CheckResult("diary-string-recovery", PASS)
    rng = random.Random(7)
    for _ in range(400):
        kappa = rng.randint(1, 4)
        words = []
        for _ in range(rng.randint(2, 8)):
            words.append(tuple(
                rng.choice("ab") for _ in range(rng.randint(0, 2 * kappa))))
        sent = tuple(t for w in words for t in (*w, STOP))
        k_words = len(words)
        slotted = reconstruct(encode(sent, kappa), kappa)
        for m in range(1, k_words):
            for p in range(1, k_words - m + 1):
                between = sum(len(w) for w in words[m: m + p]) + (p - 1)
                if kappa * p < between + 1:
                    continue
                res.checked += 1
                q = kappa * p - between
                need = kappa + q + len(words[m])
                run, complete = _unslotted_run(slotted, m + 1)
                if not complete and run < need:
                    res.add_violation({
                        "sentence": sent, "kappa": kappa, "m": m, "p": p,
                        "run": run, "need": need})
    return res


def _unslotted_run(slotted, stop_index: int) -> tuple[int, bool]:
    """Tokens in a row (stop signs included) left of the given stop sign in
    the slotted sentence, stopping at the first slot; the flag reports that
    the run reaches the very beginning."""
    last = stop_index - 1
    run = len(slotted[last][1])
    if slotted[last][0]:
        return run, False
    for has_slot, word in reversed(slotted[:last]):
        run += 1 + len(word)
        if has_slot:
            return run, False
    return run, True


# ---------------------------------------------------------------------------
# Sequence suite


def morse_thue_suite(seed: int = 0) -> list[CheckResult]:
    return [
        check_prefix(),
        check_cube_free(2048),
        check_decorate_strip(),
        mt.check_synchronization(seed=seed),
        check_long_journey(),
    ]


def check_prefix() -> CheckResult:
    res = CheckResult("mt-prefix", PASS, checked=3)
    if mt.mt_prefix(1) != (0,):
        res.add_violation({"n": 1})
    if mt.mt_prefix(8) != (0, 1, 1, 0, 1, 0, 0, 1):
        res.add_violation({"n": 8})
    if mt.mt_prefix(16) != (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0):
        res.add_violation({"n": 16})
    # prefix stability: doubling the length never rewrites earlier bits
    for n in (1, 2, 5, 13, 64, 200):
        res.checked += 1
        if mt.mt_prefix(2 * n)[:n] != mt.mt_prefix(n):
            res.add_violation({"n": n, "reason": "prefix changed"})
    return res


def check_cube_free(n: int) -> CheckResult:
    res = CheckResult("mt-cube-free", PASS, checked=1)
    if not mt.is_cube_free(mt.mt_prefix(n)):
        res.add_violation({"n": n})
    if mt.is_cube_free((0, 0, 0)) or mt.is_cube_free((0, 1, 0, 1, 0, 1)):
        res.add_violation({"reason": "detector misses explicit cubes"})
    return res


def check_decorate_strip() -> CheckResult:
    res = CheckResult("mt-decorate-strip", PASS)
    samples = [
        ("a", STOP),
        (STOP,),
        ("a", "a", STOP),
        ("a", "b", STOP, STOP, "c", STOP),
    ]
    for sent in samples:
        res.checked += 1
        deco = mt.decorate(sent)
        if mt.strip(deco) != sent:
            res.add_violation({"sentence": sent})
    if mt.decorate(("a", STOP))[0] != ("a", 1):
        res.add_violation({"reason": "first letter bit"})
    if mt.decorate((STOP,))[0] != (STOP, 0):
        res.add_violation({"reason": "leading stop sign level"})
    return res


def check_long_journey() -> CheckResult:
    """Periodic sentences differing by one period (30 and 31 periods, two
    stop signs): undecorated diaries collide, decorated diaries differ, at
    page capacity 3."""
    res = CheckResult("mt-long-journey", PASS, checked=2)
    alpha, beta = mt.long_journey_pair(k=30, n_stops=2)
    if encode(alpha, 3) != encode(beta, 3):
        res.add_violation({"reason": "undecorated diaries differ"})
    if encode(mt.decorate(alpha), 3) == encode(mt.decorate(beta), 3):
        res.add_violation({"reason": "decorated diaries collide"})
    return res
