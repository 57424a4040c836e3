import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees import verify
from qtrees.diary import (
    STOP,
    InconsistentDiary,
    decode,
    encode,
    encode_segments,
    encode_with_rest,
    fill_slots,
    format_diary,
    format_sentence,
    format_slotted,
    is_honest,
    member_rest,
    membership,
    page_is_valid,
    parse_sentence,
    reconstruct,
    words_and_stops,
)

EXAMPLE = parse_sentence("a a b c s a s b c b s c s b s")


def test_worked_example_pages():
    pages = encode(EXAMPLE, 3)
    assert format_diary(pages) == "(cba)(asa)(bcb)(css)(bs*)"


def test_worked_example_reconstructs_honestly():
    slotted = reconstruct(encode(EXAMPLE, 3), 3)
    assert is_honest(slotted)
    assert fill_slots(slotted, ()) == EXAMPLE


def test_single_short_word_page():
    assert encode(("a", STOP), 3) == (("a", "*"),)
    slotted = reconstruct((("a", "*"),), 3)
    assert slotted == ((False, ("a",)),)


def test_morning_rule_distinguishes_prefixes():
    # writing the newest day first makes the first pages differ; the
    # evening variant would collide
    a = parse_sentence("a b s c d s e s")
    b = parse_sentence("c a b s d s e s")
    pa, pb = encode(a, 3), encode(b, 3)
    assert pa[0] == ("b", "a", "*")
    assert pb[0] == ("b", "a", "c")
    assert pa != pb


def test_single_full_page_reconstruction():
    slotted = reconstruct((("c", "b", "a"),), 3)
    assert slotted == ((True, ("a", "b", "c")),)
    assert fill_slots(slotted, (("a",),)) == parse_sentence("a a b c s")
    assert membership(slotted, parse_sentence("b c s")) is False
    assert membership(slotted, parse_sentence("x y a b c s")) is True


def test_rest_sentence_examples():
    assert encode_with_rest(parse_sentence("a a b c s"), 3)[1] == ("a", STOP)
    assert encode_with_rest(EXAMPLE, 3)[1] == (STOP,)
    assert encode_with_rest(("a", "b", STOP), 1)[1] == ("a", STOP)
    assert encode_with_rest(("a", STOP), 3)[1] == (STOP,)


def test_empty_sentence_codec_identity():
    assert encode((), 3) == ()
    assert reconstruct((), 3) == ()


def test_empty_words_allowed():
    sent = (STOP, STOP, "a", STOP)
    pages = encode(sent, 2)
    slotted = reconstruct(pages, 2)
    assert membership(slotted, sent)


def test_fill_slots_arity_check():
    slotted = reconstruct((("c", "b", "a"),), 3)
    with pytest.raises(ValueError):
        fill_slots(slotted, ())
    with pytest.raises(ValueError):
        fill_slots(slotted, (("a",), ("b",)))


def test_honest_rest_is_bare_stop():
    slotted, pending = decode(encode(EXAMPLE, 3), 3)
    assert member_rest(slotted, pending, EXAMPLE) == (STOP,)


def test_page_shapes():
    assert page_is_valid(("a", "b", "c"), 3)
    assert page_is_valid(("a", "*"), 3)
    assert page_is_valid(("*",), 3)
    assert not page_is_valid(("a", "b"), 3)
    assert not page_is_valid(("a", "b", "c", "*"), 3)
    assert not page_is_valid(("*", "a"), 3)


def test_inconsistent_diary_detected():
    # a first page can never contain a stop sign
    with pytest.raises(InconsistentDiary):
        reconstruct(((STOP, "a", "b"),), 3)
    # a terminal page must show every pending stop sign
    with pytest.raises(InconsistentDiary):
        reconstruct((("a", "b", "c"), ("x", "*")), 3)


def test_text_syntax_roundtrip():
    sent = parse_sentence("a b s c s")
    assert format_sentence(sent) == "a b s c s"
    slotted = reconstruct(encode(sent, 1), 1)
    text = format_slotted(slotted)
    assert "_" in text and text.endswith("s")


words_strategy = st.lists(
    st.text(alphabet="ab", min_size=0, max_size=5), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(words=words_strategy, kappa=st.integers(min_value=1, max_value=5),
       bits=st.lists(st.integers(min_value=0, max_value=1), min_size=5,
                     max_size=5))
def test_encode_segments_string_path_matches_generic(words, kappa, bits):
    pages, rest = encode_segments(words, STOP * len(words), kappa)
    sent = tuple(t for w in words for t in (*w, STOP))
    tup_pages, tup_rest = encode_with_rest(sent, kappa)
    assert tuple(tuple(p) for p in pages) == tup_pages
    assert tuple(rest) == tup_rest
    # decorated stop signs split the sentence into the same words
    stops = [(STOP, bit) for bit in bits[: len(words)]]
    deco = tuple(t for w, stop in zip(words, stops) for t in (*w, stop))
    deco_words, deco_stops = words_and_stops(deco)
    assert deco_words == words_and_stops(sent)[0]
    assert deco_stops == stops


def test_encode_segments_rejects_length_mismatch():
    with pytest.raises(ValueError):
        encode_segments(("ab", "b"), "s", 2)
    with pytest.raises(ValueError):
        encode_segments([("a",)], [STOP, STOP], 2)


def test_words_and_stops_errors():
    with pytest.raises(ValueError, match="terminal marker"):
        words_and_stops(("a", "*", STOP, "b"))
    with pytest.raises(ValueError, match="end with a stop sign"):
        words_and_stops(("a", STOP, "b"))
    assert words_and_stops(()) == ([], [])


def test_codec_oracle_catches_wrong_rest(monkeypatch):
    def wrong_rest(words, stops, kappa):
        pages, rest = encode_segments(words, stops, kappa)
        return pages, rest + (STOP,)

    monkeypatch.setattr(verify, "encode_segments", wrong_rest)
    res = verify.check_codec_roundtrip(2, 2, 2)
    assert res.checked > 0 and res.status == "fail"
    assert {v["reason"] for v in res.violations} == {"rest mismatch"}


def test_codec_oracle_catches_non_members(monkeypatch):
    def extra_unit(diary, kappa):
        slotted, pending = decode(diary, kappa)
        return slotted + ((False, ()),), pending

    monkeypatch.setattr(verify, "decode", extra_unit)
    res = verify.check_codec_roundtrip(2, 2, 2)
    assert res.checked > 0 and res.status == "fail"
    assert any(v["reason"] == "not a member" for v in res.violations)


@settings(max_examples=300, deadline=None)
@given(words=words_strategy, kappa=st.integers(min_value=1, max_value=4))
def test_roundtrip_property(words, kappa):
    sent = tuple(t for w in words for t in (*w, STOP))
    pages, rest = encode_with_rest(sent, kappa)
    assert len(pages) == len(words)
    slotted, pending = decode(pages, kappa)
    assert len(slotted) == len(words)
    assert membership(slotted, sent)
    assert member_rest(slotted, pending, sent) == rest
    # filling the slots differently never changes the diary
    fillers = tuple(("b",) * i for i in range(
        sum(1 for has_slot, _ in slotted if has_slot)))
    refilled = fill_slots(slotted, fillers)
    assert encode(refilled, kappa) == pages


@settings(max_examples=200, deadline=None)
@given(words=words_strategy, kappa=st.integers(min_value=1, max_value=3))
def test_starred_prefixes_reconstruct_honestly(words, kappa):
    sent = tuple(t for w in words for t in (*w, STOP))
    pages = encode(sent, kappa)
    for i, page in enumerate(pages):
        if page[-1] == "*":
            assert is_honest(reconstruct(pages[: i + 1], kappa))
