"""The prefix-sharing codec sweep of ``verify`` against the flat checks it
replaced.

``ref_check_codec_roundtrip`` and ``ref_check_star_honest`` are the earlier
checks, verbatim: every sentence is built flat, split and encoded on its
own, and the converse pass fills slots into flat sentences and encodes
each fill.  The sweep must give the same ``checked``, status and violation
list, on the codec and under mutants of the codec.  The sweep itself
encodes no fill: it counts each class's in-bound fills against the
sentences enumerated with its pages, so a class that the decoder widens
is reported by its size alone."""
import itertools

import pytest

from qtrees import diary, verify
from qtrees.diary import (
    STAR,
    STOP,
    InconsistentDiary,
    decode,
    encode,
    encode_segments,
    encode_with_rest,
    fill_slots,
    is_honest,
    member_rest,
    member_rest_segments,
    reconstruct,
)
from qtrees.reporting import PASS, CheckResult

BOUNDS = [(3, 4), (3, 3), (2, 2), (4, 2)]
KAPPAS = (1, 2, 3, 4)


# -- the flat references ----------------------------------------------------


def ref_enumerate_sentences(alphabet, max_words, max_len):
    words = []
    for ln in range(0, max_len + 1):
        words.extend(itertools.product(alphabet, repeat=ln))
    for k in range(1, max_words + 1):
        for combo in itertools.product(words, repeat=k):
            yield tuple(t for w in combo for t in (*w, STOP))


def ref_check_codec_roundtrip(kappa, max_words, max_len, alphabet=("a", "b")):
    res = CheckResult(f"diary-roundtrip-k{kappa}", PASS)
    classes = {}
    counts = {}
    for sent in ref_enumerate_sentences(alphabet, max_words, max_len):
        pages, rest = encode_with_rest(sent, kappa)
        decoded = classes.get(pages)
        if decoded is None:
            decoded = decode(pages, kappa)
            classes[pages] = decoded
        slotted, pending = decoded
        counts[pages] = counts.get(pages, 0) + 1
        res.checked += 1
        try:
            member = member_rest(slotted, pending, sent)
        except ValueError:
            res.add_violation({"sentence": sent, "reason": "not a member"})
            continue
        if member != rest:
            res.add_violation({"sentence": sent, "reason": "rest mismatch",
                               "codec_rest": rest})
    for pages, (slotted, _) in classes.items():
        members = 0
        for filled in ref_fills_within(slotted, alphabet, max_len):
            members += 1
            if encode(filled, kappa) != pages:
                res.add_violation({"fill": filled, "reason": "diary changed"})
        if members != counts[pages]:
            res.add_violation({"pages": pages, "reason": "class size mismatch",
                               "fills": members, "enumerated": counts[pages]})
    return res


def ref_fills_within(slotted, alphabet, max_len):
    options = []
    for has_slot, word in slotted:
        if not has_slot:
            if len(word) > max_len:
                return
            continue
        budget = max_len - len(word)
        if budget < 0:
            return
        opts = []
        for ln in range(0, budget + 1):
            opts.extend(itertools.product(alphabet, repeat=ln))
        options.append(opts)
    for combo in itertools.product(*options):
        yield fill_slots(slotted, combo)


def ref_check_star_honest(max_words, max_len, kappas):
    res = CheckResult("diary-star-honest", PASS)
    for kappa in kappas:
        for sent in ref_enumerate_sentences(("a", "b"), max_words, max_len):
            pages = encode(sent, kappa)
            for i, page in enumerate(pages):
                if page[-1] == "*":
                    res.checked += 1
                    if not is_honest(reconstruct(pages[: i + 1], kappa)):
                        res.add_violation({"sentence": sent, "page": i,
                                           "kappa": kappa})
    return res


# -- the sweep equals the references -----------------------------------------


@pytest.mark.parametrize("max_words,max_len", BOUNDS)
def test_roundtrip_matches_flat_reference(max_words, max_len):
    for kappa in KAPPAS:
        new = verify.check_codec_roundtrip(kappa, max_words, max_len)
        ref = ref_check_codec_roundtrip(kappa, max_words, max_len)
        assert new.checked > 0 and new.status == "pass"
        assert new.to_dict() == ref.to_dict()


def star_honest(max_words, max_len, kappas):
    """The star-honesty result of the codec suite at these bounds."""
    suite = verify.diary_suite(max_words, max_len, kappas)
    return next(r for r in suite if r.check_id == "diary-star-honest")


@pytest.mark.parametrize("max_words,max_len", BOUNDS[1:])
def test_star_honest_matches_flat_reference(max_words, max_len):
    new = star_honest(max_words, max_len, KAPPAS)
    ref = ref_check_star_honest(max_words, max_len, KAPPAS)
    assert new.checked > 0
    assert new.to_dict() == ref.to_dict()


def test_diary_suite_shares_one_sweep_per_capacity(monkeypatch):
    calls = []
    sweep = verify._codec_sweep

    def counted(kappa, *args):
        calls.append(kappa)
        return sweep(kappa, *args)

    monkeypatch.setattr(verify, "_codec_sweep", counted)
    suite = {r.check_id: r.to_dict() for r in verify.diary_suite()}
    assert calls == [1, 2, 3]
    assert suite["diary-star-honest"] == \
        ref_check_star_honest(3, 3, (1, 2, 3)).to_dict()
    for kappa in (1, 2, 3):
        assert suite[f"diary-roundtrip-k{kappa}"] == \
            ref_check_codec_roundtrip(kappa, 3, 3).to_dict()


# -- and under mutants ------------------------------------------------------


def _patch_everywhere(monkeypatch, name, mutant):
    """Bind a mutant wherever the codec checks look the name up: the codec
    module (which the flat reference reaches through ``encode_with_rest``
    and ``reconstruct``), ``verify``, and this module."""
    for module in (diary, verify):
        monkeypatch.setitem(vars(module), name, mutant)
    monkeypatch.setitem(globals(), name, mutant)


def _both(max_words, max_len, kappa):
    return (verify.check_codec_roundtrip(kappa, max_words, max_len).to_dict(),
            ref_check_codec_roundtrip(kappa, max_words, max_len).to_dict())


REAL_ENCODE_STEP = diary.encode_step


def wrong_rest(rest, word, tail, kappa):
    """An encoder step whose rest carries one stop sign too many."""
    page, rest = REAL_ENCODE_STEP(rest, word, tail, kappa)
    return page, rest + (STOP,)


@pytest.mark.parametrize("max_words,max_len", [(3, 3), (2, 2), (4, 2)])
def test_wrong_rest_mutant_matches_reference(monkeypatch, max_words, max_len):
    # the sweep continues each prefix from its member rest, so a step with
    # a wrong rest shows once per sentence, in its own rest, as the flat
    # reference shows the same extra token on the whole sentence's rest
    def wrong_final_rest(sent, kappa):
        pages, rest = real_flat(sent, kappa)
        return pages, rest + (STOP,)

    real_flat = encode_with_rest
    monkeypatch.setattr(verify, "encode_step", wrong_rest)
    monkeypatch.setitem(globals(), "encode_with_rest", wrong_final_rest)
    for kappa in (1, 2, 3):
        new, ref = _both(max_words, max_len, kappa)
        assert new["status"] == "fail"
        assert {v["reason"] for v in new["violations"]} == {"rest mismatch"}
        assert new == ref


def test_wrong_rest_step_is_a_named_violation(monkeypatch):
    # the same step in the codec module too: the flat reference folds the
    # extra stop signs into its later pages and raises from the decoder,
    # while the sweep, on its member rests, still names each wrong rest
    # and keeps its pages and star verdicts
    expected_star = ref_check_star_honest(3, 3, (1, 2, 3)).to_dict()
    _patch_everywhere(monkeypatch, "encode_step", wrong_rest)
    for kappa in (2, 3):
        with pytest.raises(InconsistentDiary,
                           match="page 2: page shows stop signs that are "
                                 "not pending"):
            ref_check_codec_roundtrip(kappa, 3, 3)
    star = CheckResult("diary-star-honest", PASS)
    for kappa in (1, 2, 3):
        res = verify._codec_sweep(kappa, 3, 3, star)
        assert res.checked > 0 and res.status == "fail"
        assert {v["reason"] for v in res.violations} == {"rest mismatch"}
    assert star.to_dict() == expected_star


@pytest.mark.parametrize("max_words,max_len", [(3, 3), (2, 2), (4, 2)])
def test_extra_unit_decoder_matches_reference(monkeypatch, max_words,
                                              max_len):
    # the flat reference's ``decode`` folds the mutant step as well
    def extra_unit(state, page, kappa):
        slotted, pending = real(state, page, kappa)
        return slotted + ((False, ()),), pending

    real = diary.decode_step
    _patch_everywhere(monkeypatch, "decode_step", extra_unit)
    for kappa in (1, 2, 3):
        new, ref = _both(max_words, max_len, kappa)
        assert new["status"] == "fail"
        assert new == ref
    assert star_honest(max_words, max_len, KAPPAS).to_dict() == \
        ref_check_star_honest(max_words, max_len, KAPPAS).to_dict()


REAL_DECODE_STEP = diary.decode_step


def open_slot(state, page, kappa):
    """A decoder step that leaves the last word of a starred page slotted:
    the class it decodes is wider than the sentences that page to it."""
    slotted, pending = REAL_DECODE_STEP(state, page, kappa)
    if page[-1] == STAR:
        slotted = slotted[:-1] + ((True, slotted[-1][1]),)
    return slotted, pending


@pytest.mark.parametrize("max_words,max_len", [(3, 3), (4, 2)])
def test_dishonest_decoder_matches_star_reference(monkeypatch, max_words,
                                                  max_len):
    # every starred page leaves its last word slotted, so each starred
    # prefix is dishonest; at kappa 3 sentences carry several starred pages
    _patch_everywhere(monkeypatch, "decode_step", open_slot)
    for kappas in (KAPPAS, (3,)):
        new = star_honest(max_words, max_len, kappas).to_dict()
        assert new["status"] == "fail"
        assert new == ref_check_star_honest(max_words, max_len,
                                            kappas).to_dict()
    # some kept sentence is reported at two starred pages
    sentences = [tuple(v["sentence"]) for v in new["violations"]]
    assert len(set(sentences)) < len(sentences)


def test_widened_class_is_caught_by_its_size_alone(monkeypatch):
    # every enumerated sentence is still a member of its widened class with
    # the right rest, so only the count of the class's fills shows it; the
    # flat reference re-encodes the extra fills and fails as well
    _patch_everywhere(monkeypatch, "decode_step", open_slot)
    for kappa in (1, 2, 3):
        res = verify.check_codec_roundtrip(kappa, 2, 2)
        assert res.checked > 0 and res.status == "fail"
        assert res.violations
        assert all(v["reason"] == "class size mismatch" and
                   v["fills"] > v["enumerated"] for v in res.violations)
        assert ref_check_codec_roundtrip(kappa, 2, 2).status == "fail"


def test_markerless_encoder_fails_like_reference(monkeypatch):
    def no_marker(rest, word, tail, kappa):
        page, rest = real(rest, word, tail, kappa)
        return (page[:-1] if page[-1:] == (STAR,) else page), rest

    real = diary.encode_step
    _patch_everywhere(monkeypatch, "encode_step", no_marker)
    for kappa in (1, 2, 3):
        with pytest.raises(InconsistentDiary) as new:
            verify.check_codec_roundtrip(kappa, 3, 3)
        with pytest.raises(InconsistentDiary) as ref:
            ref_check_codec_roundtrip(kappa, 3, 3)
        assert str(new.value) == str(ref.value)
    # the flat star check trips over the first, now empty, page; the shared
    # sweep decodes it and reports the malformed page
    with pytest.raises(IndexError):
        ref_check_star_honest(3, 3, KAPPAS)
    with pytest.raises(InconsistentDiary, match="page 1: malformed page"):
        star_honest(3, 3, KAPPAS)


# -- the split the sweep no longer runs --------------------------------------


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_flat_entry_points_equal_the_segment_cores(kappa):
    for flat in ref_enumerate_sentences(("a", "b"), 3, 3):
        words, stops = diary.words_and_stops(flat)
        pages, rest = encode_segments(words, stops, kappa)
        assert encode_with_rest(flat, kappa) == (pages, rest)
        slotted, pending = decode(pages, kappa)
        assert member_rest(slotted, pending, flat) == \
            member_rest_segments(slotted, pending, words, stops)
