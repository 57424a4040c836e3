import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees import morse_thue
from qtrees.diary import (
    STAR,
    STOP,
    decode,
    encode,
    encode_with_rest,
    is_stop,
    member_rest,
    membership,
    reconstruct,
    words_and_stops,
)
from qtrees.morse_thue import (
    check_synchronization,
    decorate,
    is_cube_free,
    long_journey_pair,
    mt_bit,
    mt_prefix,
    strip,
)
from qtrees.reporting import CheckResult, PASS


def test_prefix_values():
    assert mt_prefix(0) == ()
    assert mt_prefix(1) == (0,)
    assert mt_prefix(8) == (0, 1, 1, 0, 1, 0, 0, 1)
    assert mt_prefix(16) == (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=512))
def test_prefix_stability(n):
    assert mt_prefix(2 * n)[:n] == mt_prefix(n)


def _reference_is_cube_free(bits):
    """The O(n^2) scan: a cube of period p is a run of 2p positions i with
    bits[i] == bits[i + p]."""
    n = len(bits)
    for p in range(1, n // 3 + 1):
        run = 0
        for i in range(n - p):
            if bits[i] == bits[i + p]:
                run += 1
                if run >= 2 * p:
                    return False
            else:
                run = 0
    return True


def test_cube_detector():
    assert not is_cube_free((0, 0, 0))
    assert not is_cube_free((0, 1, 0, 1, 0, 1))
    assert not is_cube_free((1, 0, 0, 0, 1))
    assert is_cube_free((0, 1, 1, 0))
    assert is_cube_free(())


def test_cube_detector_matches_reference_scan():
    for n in range(15):
        for bits in itertools.product((0, 1), repeat=n):
            assert is_cube_free(bits) == _reference_is_cube_free(bits), bits


def test_cube_detector_needs_bits():
    for bad in ((0, 2, 0), (0, -1), (0, 1, 256), ("a", "b"), (0.5,), 5):
        with pytest.raises(ValueError):
            is_cube_free(bad)


def test_sequence_cube_free_at_desk_scale():
    prefix = mt_prefix(2048)
    assert is_cube_free(prefix)
    assert _reference_is_cube_free(prefix)


def test_mt_bit_is_digit_sum_parity():
    prefix = mt_prefix(2 ** 14)
    assert [mt_bit(i) for i in range(2 ** 14)] == list(prefix)
    with pytest.raises(ValueError):
        mt_bit(-1)


def test_levels_and_decoration():
    sent = ("a", STOP)
    assert decorate(sent)[0] == ("a", mt_bit(1)) == ("a", 1)
    lead = (STOP, "a", STOP)
    assert decorate(lead)[0] == (STOP, 0)
    two = ("a", "a", STOP)
    assert [b for _, b in decorate(two)] == [1, 1, 1]  # t(1), t(2), stop at 2


def test_decorate_bits_are_mt_bit_of_each_level():
    # each letter's level counts the letters up to it; a stop sign takes
    # the level of the letter before it (0 before the first letter)
    rng = random.Random(5)
    for _ in range(300):
        sent = tuple(rng.choice(("a", "b", STOP))
                     for _ in range(rng.randint(0, 60)))
        lv, expected = 0, []
        for tok in sent:
            if tok != STOP:
                lv += 1
            expected.append((tok, mt_bit(lv)))
        assert decorate(sent) == tuple(expected), sent


def test_strip_inverts_decorate():
    for sent in [("a", STOP), (STOP,), ("a", "b", STOP, "c", STOP)]:
        deco = decorate(sent)
        assert strip(deco) == sent


@pytest.mark.parametrize("kappa", [1, 2, 3, 16, 31, 46])
@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.text(alphabet="abc", max_size=60), min_size=1,
                      max_size=8))
def test_decorated_sentences_round_trip(kappa, words):
    # the path stage 2 takes, at small capacities and at the presets'
    sent = tuple(t for w in words for t in (*w, STOP))
    deco = decorate(sent)
    assert strip(deco) == sent
    pages, rest = encode_with_rest(deco, kappa)
    slotted, pending = decode(pages, kappa)
    assert membership(slotted, deco)
    assert member_rest(slotted, pending, deco) == rest
    # the rest carries the sentence's own decorated stop sign of each
    # pending stop, the last word's last
    stops = [tok for tok in deco if is_stop(tok)]
    assert [tok for tok in rest if is_stop(tok)] == \
        [stops[word_idx] for word_idx, _ in pending]
    assert rest[-1] == stops[-1]


def test_synchronization_search_finds_nothing():
    res = check_synchronization(trials=4000, seed=3)
    assert res.status == "pass" and res.checked > 1000


@pytest.mark.parametrize("kappa", [16, 31, 46])
def test_short_words_page_terminally_so_equal_diaries_mean_equal_sentences(
        kappa):
    # a page is terminal when rest + word is shorter than kappa: a first
    # word of at most kappa - 1 letters, or a later word of at most
    # kappa - 2 behind the stop sign its predecessor left in the rest
    rng = random.Random(kappa)
    for _ in range(300):
        words = [tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(3, 8))]
        deco = decorate(tuple(t for w in words for t in (*w, STOP)))
        pages = encode(deco, kappa)
        assert all(page[-1] == STAR for page in pages), words
        assert reconstruct(pages, kappa) == tuple(
            (False, w) for w in words_and_stops(deco)[0]), words

    def pages(first, later):
        return encode(decorate(("a",) * first + (STOP,)
                               + ("b",) * later + (STOP,)), kappa)

    assert [page[-1] for page in pages(kappa - 1, kappa - 2)] == [STAR] * 2
    assert pages(kappa, 1)[0][-1] != STAR
    assert pages(1, kappa - 1)[1][-1] != STAR


# per page capacity, lengths m < m' of two single-word sentences past the
# capacity whose last kappa levels carry the same Thue-Morse bits
COLLISIONS = {1: (2, 4), 3: (4, 13), 16: (17, 65), 31: (32, 128),
              46: (47, 143)}


def collision_pair(kappa):
    """b a^(m-1) and a^m', decorated: different level-1 letters."""
    m, mp = COLLISIONS[kappa]
    assert kappa < m < mp
    return (decorate(("b",) + ("a",) * (m - 1) + (STOP,)),
            decorate(("a",) * mp + (STOP,)))


@pytest.mark.parametrize("kappa", sorted(COLLISIONS))
def test_equal_diaries_with_different_level_1_letters_exist(kappa):
    # below the proven capacity 15C + 1 and at it for C = 1, 2, 3: a word's
    # page holds its last kappa letters alone
    alpha, beta = collision_pair(kappa)
    assert encode(alpha, kappa) == encode(beta, kappa)
    assert alpha[0] == ("b", 1) and beta[0] == ("a", 1)


def letter_table(sentence):
    """Per letter, in level order: the 1-based index of its word, the stop
    signs behind it and the letters from it to the end."""
    words, stops = words_and_stops(sentence)
    letters = sum(map(len, words))
    table = []
    for m, word in enumerate(words, 1):
        for _ in word:
            table.append((m, len(stops) - m + 1, letters - len(table)))
    return table


def levels_meeting_the_hypotheses(alpha, beta, n=3):
    """The levels at which the letters of two sentences meet the
    hypotheses of letter identification: at least p >= 3 stop signs behind
    both, tails of at most n(p - 2) letters, word indices within 2."""
    levels = []
    for lv, ((m_a, stops_a, tail_a), (m_b, stops_b, tail_b)) in enumerate(
            zip(letter_table(alpha), letter_table(beta)), 1):
        p = min(stops_a, stops_b)
        if abs(m_a - m_b) <= 2 and p >= 3 and \
                max(tail_a, tail_b) <= n * (p - 2):
            levels.append(lv)
    return levels


def test_equal_diaries_hypotheses_exclude_the_collisions():
    # one word has one stop sign, short of the three the hypotheses ask for
    for kappa in COLLISIONS:
        assert levels_meeting_the_hypotheses(*collision_pair(kappa)) == []
    # six words of two letters: word 1 has 6 stop signs behind it and
    # tails of 12 and 11 letters, word 2 has 5 and a tail of 9 at level 4
    six = decorate(("a", "b", STOP) * 6)
    assert levels_meeting_the_hypotheses(six, six) == [1, 2, 4]


def test_long_journey_controls():
    alpha, beta = long_journey_pair(k=30, n_stops=2)
    assert encode(alpha, 3) == encode(beta, 3)
    assert encode(decorate(alpha), 3) != encode(decorate(beta), 3)


def test_long_journey_shape():
    alpha, _ = long_journey_pair(k=2, n_stops=2)
    # one long word then an empty word: two stop signs total
    assert alpha == ("b", "a", "a", "a", "a", "a", "a") * 2 + (STOP, STOP)


def reference_synchronization(seq, trials, seed, max_len):
    """The search with two lists of l bits per trial, read off ``seq``."""
    res = CheckResult("mt-synchronization", PASS)
    rng = random.Random(seed)
    for _ in range(trials):
        L = rng.randint(2, max_len)
        shift = rng.randint(0, max(1, L // 3))
        Lp = L + shift
        l = rng.randint(max(1, 2 * shift), min(L, max_len))
        if shift == 0:
            continue
        res.checked += 1
        window = [seq[L - i] for i in range(l)]
        window_p = [seq[Lp - i] for i in range(l)]
        if window == window_p:
            res.add_violation({"L": L, "L'": Lp, "tail": l})
    return res


def sparse_bits(seed):
    """300 random bits, 3% of them ones: equal windows are common."""
    rng = random.Random(seed)
    return tuple(int(rng.random() < 0.03) for _ in range(300))


@pytest.mark.parametrize("seed", range(6))
def test_synchronization_slices_the_windows_it_means(seed, monkeypatch):
    # on sparse random bits in place of the Thue-Morse prefix equal windows
    # are common, and the sliced search must report exactly the pairs the
    # bitwise one does
    seq = sparse_bits(seed)
    monkeypatch.setattr(morse_thue, "mt_prefix", lambda n: seq[:n])
    got = morse_thue.check_synchronization(trials=30, seed=seed, max_len=60)
    want = reference_synchronization(seq, 30, seed, 60)
    assert got.to_dict() == want.to_dict()
    assert got.violations


@pytest.mark.parametrize("seed", range(6))
def test_a_synchronization_violation_exhibits_a_cube(seed, monkeypatch):
    # equal windows of l bits ending at L and L + s, with 2s <= l, make
    # bits[L - l + 1 .. L + s] s-periodic over at least 3s bits: a cube.
    # So the search cannot fail on bits that mt-cube-free passes, and it
    # reads 215 bits where mt-cube-free scans 2048
    seq = sparse_bits(seed)
    read = []
    monkeypatch.setattr(morse_thue, "mt_prefix",
                        lambda n: read.append(n) or seq[:n])
    res = morse_thue.check_synchronization(seed=seed)
    assert read == [215]
    assert res.violations
    assert not is_cube_free(seq[:215])
    for v in res.violations:
        assert not is_cube_free(seq[v["L"] - v["tail"] + 1:v["L'"] + 1]), v
