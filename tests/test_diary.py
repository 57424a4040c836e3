import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees import verify
from qtrees.diary import (
    STOP,
    InconsistentDiary,
    STAR,
    decode,
    decode_step,
    encode,
    encode_segments,
    encode_step,
    encode_with_rest,
    fill_slots,
    format_diary,
    is_honest,
    is_stop,
    member_rest,
    member_rest_segments,
    membership,
    reconstruct,
    segments_and_stops,
    words_and_stops,
)

EXAMPLE = tuple("a a b c s a s b c b s c s b s".split())


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
    a = tuple("a b s c d s e s".split())
    b = tuple("c a b s d s e s".split())
    pa, pb = encode(a, 3), encode(b, 3)
    assert pa[0] == ("b", "a", "*")
    assert pb[0] == ("b", "a", "c")
    assert pa != pb


def test_single_full_page_reconstruction():
    slotted = reconstruct((("c", "b", "a"),), 3)
    assert slotted == ((True, ("a", "b", "c")),)
    assert fill_slots(slotted, (("a",),)) == tuple("a a b c s".split())
    assert membership(slotted, tuple("b c s".split())) is False
    assert membership(slotted, tuple("x y a b c s".split())) is True


def test_rest_sentence_examples():
    assert encode_with_rest(tuple("a a b c s".split()), 3)[1] == ("a", STOP)
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
    """A page has exactly kappa tokens, or fewer followed by the terminal
    marker (which may stand alone); the decoder refuses any other."""
    for page in (("a", "b", "c"), ("a", "*"), ("*",)):
        decode_step(((), ()), page, 3)
    for page in (("a", "b"), ("a", "b", "c", "*"), ("*", "a")):
        with pytest.raises(InconsistentDiary, match="page 1: malformed page"):
            decode_step(((), ()), page, 3)
    with pytest.raises(ValueError, match="page capacity"):
        decode(((),), 0)


def test_inconsistent_diary_detected():
    # a first page can never contain a stop sign
    with pytest.raises(InconsistentDiary):
        reconstruct(((STOP, "a", "b"),), 3)
    # a terminal page must show every pending stop sign
    with pytest.raises(InconsistentDiary):
        reconstruct((("a", "b", "c"), ("x", "*")), 3)


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


@settings(max_examples=300, deadline=None)
@given(words=words_strategy, kappa=st.integers(min_value=1, max_value=5))
def test_encode_segments_is_the_fold_of_encode_step(words, kappa):
    # on the string path and on the tuple path, each step extends the pages
    # and rest of the words before it
    for path_words, rest, tail in ((words, "", STOP),
                                   ([tuple(w) for w in words], (), (STOP,))):
        pages = ()
        for i, word in enumerate(path_words, 1):
            page, rest = encode_step(rest, word, tail, kappa)
            pages += (page,)
            assert (pages, rest) == encode_segments(
                path_words[:i], [tail[0]] * i, kappa)


def test_stop_rule_reads_the_type_first():
    stops = [STOP, (STOP, 0), (STOP, 1)]
    letters = ["a", ("a", 1), (STOP,), (STOP, 0, 1), [STOP, 0], "*", 0]
    for tok in stops:
        assert is_stop(tok)
    for tok in letters:
        assert not is_stop(tok)
    tokens = ("a", (STOP, 0, 1), STOP, (STOP,), (STOP, 1), "b")
    assert segments_and_stops(tokens) == (
        [("a", (STOP, 0, 1)), ((STOP,),), ("b",)], [STOP, (STOP, 1)])


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
    def wrong_rest(rest, word, tail, kappa):
        page, rest = encode_step(rest, word, tail, kappa)
        return page, rest + (STOP,)

    monkeypatch.setattr(verify, "encode_step", wrong_rest)
    res = verify.check_codec_roundtrip(2, 2, 2)
    assert res.checked > 0 and res.status == "fail"
    assert {v["reason"] for v in res.violations} == {"rest mismatch"}


def test_codec_oracle_catches_non_members(monkeypatch):
    def extra_unit(state, page, kappa):
        slotted, pending = decode_step(state, page, kappa)
        return slotted + ((False, ()),), pending

    monkeypatch.setattr(verify, "decode_step", extra_unit)
    res = verify.check_codec_roundtrip(2, 2, 2)
    assert res.checked > 0 and res.status == "fail"
    assert any(v["reason"] == "not a member" for v in res.violations)


def test_codec_oracle_catches_a_short_member_rest(monkeypatch):
    # a membership core whose rest lacks its last stop sign: each sentence
    # names the mismatch, and its extensions continue from the codec's
    # rest, so their pages and the codec rests they report stay right
    def drop_last(slotted, pending, words, stops):
        out = member_rest_segments(slotted, pending, words, stops)
        return None if out is None else out[:-1]

    monkeypatch.setattr(verify, "member_rest_segments", drop_last)
    for kappa in (1, 2, 3):
        res = verify.check_codec_roundtrip(kappa, 3, 3)
        assert res.checked == 3615 and res.status == "fail"
        assert {v["reason"] for v in res.violations} == {"rest mismatch"}
        for v in res.violations:
            sent = tuple(v["sentence"])
            assert v["codec_rest"] == list(encode_with_rest(sent, kappa)[1])


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


# -- the decoder step against the whole-diary decoder it replaced ------------


def ref_page_is_valid(page, kappa):
    if len(page) == kappa and STAR not in page:
        return True
    return 0 < len(page) <= kappa and page[-1] == STAR \
        and STAR not in page[:-1]


def ref_decode(diary, kappa):
    """The whole-diary decoder, verbatim but for the names of the page
    check and the split."""
    units = []
    pending = []
    for idx, page in enumerate(diary):
        if not ref_page_is_valid(page, kappa):
            raise InconsistentDiary(idx, "malformed page")
        has_star = page[-1] == STAR
        body = page[:-1] if has_star else page
        pi = tuple(body[::-1])
        shown, _ = segments_and_stops(pi)
        new_word = shown.pop()
        p = len(shown)
        if p == 0:
            if has_star:
                if idx > 0:
                    raise InconsistentDiary(
                        idx, "terminal page must reach back to a stop sign")
                units.append((False, new_word))
                pending.append((0, None))
            else:
                units.append((True, new_word))
                pending.append((len(units) - 1, len(units) - 1))
            continue
        if p > len(pending):
            raise InconsistentDiary(idx, "page shows stop signs that are "
                                         "not pending")
        if has_star and p != len(pending):
            raise InconsistentDiary(
                idx, "terminal page must show every pending stop sign")
        visible = pending[len(pending) - p:]
        for seg, (_, owner) in zip(shown[1:], visible[1:]):
            if owner is None:
                if seg:
                    raise InconsistentDiary(
                        idx, "text shown before a fully recorded word")
            else:
                units[owner] = (False, seg + units[owner][1])
        first_owner = visible[0][1]
        if first_owner is None:
            if shown[0]:
                raise InconsistentDiary(
                    idx, "text shown before a fully recorded word")
            carried = None
        else:
            units[first_owner] = (not has_star,
                                  shown[0] + units[first_owner][1])
            carried = None if has_star else first_owner
        del pending[len(pending) - p:]
        units.append((False, new_word))
        pending.append((len(units) - 1, carried))
    return tuple(units), tuple(pending)


page_tokens = st.sampled_from(("a", "b", STOP, (STOP, 1)))


@st.composite
def diaries(draw):
    """A diary at a capacity: the pages of a sentence, with some pages
    replaced by well-shaped pages of random tokens, which are mostly
    inconsistent with the pages before them, or by arbitrary ones."""
    kappa = draw(st.integers(min_value=1, max_value=4))
    words = draw(words_strategy)
    pages = list(encode(tuple(t for w in words for t in (*w, STOP)), kappa))
    for i in draw(st.lists(st.integers(0, len(pages) - 1), max_size=2)):
        pages[i] = draw(st.one_of(
            st.lists(page_tokens, min_size=kappa, max_size=kappa),
            st.lists(page_tokens, max_size=kappa - 1).map(
                lambda body: body + [STAR]),
            st.lists(st.one_of(page_tokens, st.just(STAR)),
                     max_size=kappa + 1)).map(tuple))
    return tuple(pages), kappa


@settings(max_examples=500, deadline=None)
@given(diaries())
def test_decode_is_the_fold_of_decode_step(diary_kappa):
    pages, kappa = diary_kappa
    try:
        expected = ref_decode(pages, kappa)
    except InconsistentDiary as exc:
        with pytest.raises(InconsistentDiary) as new:
            decode(pages, kappa)
        assert new.value.page_index == exc.page_index
        assert str(new.value) == str(exc)
        return
    assert decode(pages, kappa) == expected
    state = ((), ())
    for i, page in enumerate(pages, 1):
        state = decode_step(state, page, kappa)
        assert state == ref_decode(pages[:i], kappa)
    assert state == expected
