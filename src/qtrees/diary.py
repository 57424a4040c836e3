"""Fixed-capacity page codec for token sentences.

A sentence is a flat token sequence whose words are terminated by stop
signs.  Encoding walks the words left to right; for each word it emits
one page holding the last ``kappa`` not-yet-recorded tokens before the
word's stop sign, written in reverse, or everything that is left plus a
terminal marker when fewer remain.  Decoding inverts this as far as the
information allows: the result is a slotted sentence whose slots stand
for arbitrary unrecorded prefixes, and the set of sentences obtained by
filling the slots is exactly the preimage of the diary.

Tokens are opaque hashables.  A stop sign is either the plain marker
``s`` or a pair ``(s, bit)`` carrying a decoration bit; everything else
is a letter.  That rule is written once for a single token (``is_stop``)
and once for a whole sequence (``segments_and_stops``); every split, count
and level walk here and in ``morse_thue`` goes through one of the two.
"""
from __future__ import annotations

from typing import Optional, Sequence

STOP = "s"
STAR = "*"

Token = object
Sentence = tuple
Page = tuple
Diary = tuple
# Slotted sentence: tuple of units (has_slot, word_tokens)
Slotted = tuple


class InconsistentDiary(ValueError):
    """No sentence can produce this diary."""

    def __init__(self, page_index: int, reason: str):
        super().__init__(f"page {page_index + 1}: {reason}")
        self.page_index = page_index


def is_stop(tok) -> bool:
    if isinstance(tok, tuple):
        return len(tok) == 2 and tok[0] == STOP
    return tok == STOP


def segments_and_stops(tokens: Sequence) -> tuple[list[tuple], list]:
    """Cut a token sequence at its stop signs: the segment before each stop
    sign, then whatever follows the last one (empty for a sentence), and
    the stop tokens themselves."""
    tokens = tuple(tokens)
    segments: list[tuple] = []
    stops: list = []
    start = end = 0  # tok is tokens[end - 1]
    for tok in tokens:
        end += 1
        # the type first, so that no decorated token is compared with STOP
        cls = tok.__class__
        if cls is str:
            if tok != STOP:
                continue
        elif cls is tuple or isinstance(tok, tuple):
            if len(tok) != 2 or not tok[0] == STOP:
                continue
        elif not tok == STOP:
            continue
        segments.append(tokens[start:end - 1])
        stops.append(tok)
        start = end
    segments.append(tokens[start:])
    return segments, stops


def words_and_stops(sentence: Sequence) -> tuple[list[tuple], list]:
    """Split a well-formed sentence into its words and their stop tokens."""
    if STAR in sentence:
        raise ValueError("terminal marker cannot appear in a sentence")
    words, stops = segments_and_stops(sentence)
    if words.pop():
        raise ValueError("sentence must end with a stop sign")
    return words, stops


# ---------------------------------------------------------------------------
# Encoding


def encode_step(rest, word, tail, kappa: int):
    """One step of the paging rule: the page of ``word`` and the new rest,
    from the rest of the words before it.

    The page holds the last ``kappa`` tokens of ``rest + word``, reversed,
    or all of them and the terminal marker when fewer remain; the new rest
    is what the page left out followed by ``tail``, the word's stop sign as
    a one-token sequence.  Rest, word and tail are tuples of tokens or
    plain strings of single-character tokens, and the page and rest share
    their type.  The caller checks ``kappa >= 1``.
    """
    base = rest + word
    if len(base) >= kappa:
        return base[:-kappa - 1:-1], base[:-kappa] + tail
    return base[::-1] + (STAR if tail.__class__ is str else (STAR,)), tail


def encode_segments(words: Sequence, stops: Sequence, kappa: int):
    """Core paging rule on pre-split words, one stop token per word: the
    fold of ``encode_step`` over the words, from the empty rest.

    Words, stops and the returned pages/rest all share the type of the
    inputs (tuples of tokens, or plain strings of single-character tokens
    with "s" as the stop sign); string inputs keep the hot path at slicing
    speed for exhaustive sweeps.
    """
    if kappa < 1:
        raise ValueError("page capacity must be at least 1")
    if len(words) != len(stops):
        raise ValueError(
            f"{len(words)} words but {len(stops)} stop signs")
    if isinstance(stops, str) or (len(stops) > 0
                                  and isinstance(stops[0], str)
                                  and isinstance(words[0], str)):
        rest, tails = "", stops
    else:
        # zip of one sequence yields each stop sign as a 1-tuple
        rest, tails = (), zip(stops)
    pages = []
    for word, tail in zip(words, tails):
        page, rest = encode_step(rest, word, tail, kappa)
        pages.append(page)
    return tuple(pages), rest


def encode_with_rest(sentence: Sequence, kappa: int) -> tuple[Diary, tuple]:
    """Return (diary, rest).  The rest is everything never written to a
    page, always retaining the final stop sign."""
    if kappa < 1:
        raise ValueError("page capacity must be at least 1")
    if len(sentence) == 0:
        return (), ()
    return encode_segments(*words_and_stops(sentence), kappa)


def encode(sentence: Sequence, kappa: int) -> Diary:
    return encode_with_rest(sentence, kappa)[0]


# ---------------------------------------------------------------------------
# Reconstruction


def decode(diary: Sequence, kappa: int) -> tuple[Slotted, tuple]:
    """Invert the page codec; returns the slotted sentence together with the
    pending-stop structure: the fold of ``decode_step`` over the pages."""
    state = ((), ())
    for page in diary:
        state = decode_step(state, page, kappa)
    return state


def decode_step(state: tuple[Slotted, tuple], page: Sequence, kappa: int
                ) -> tuple[Slotted, tuple]:
    """The decoded (slotted, pending) of a diary extended by one page, from
    the diary's own; the state of no pages is ``((), ())``.

    The decoder mirrors the encoder's leftover text as a tuple of pending
    stop signs; each pending stop may "own" a slotted unit whose hidden
    prefix sits right before it.  A page either starts a new slotted word
    (no stop sign visible), or shows the new word completely together with
    the text around the most recent pending stops: complete segments close
    their owners' slots, the oldest (window-cut) segment only extends its
    owner, and a terminal marker proves the whole leftover was shown,
    closing everything.  A page has exactly kappa tokens, or fewer
    followed by the terminal marker (which may stand alone); any other
    page is malformed.
    """
    if kappa < 1:
        raise ValueError("page capacity must be at least 1")
    units, pending = state
    # pending holds (word index, owner): the index of the slotted unit
    # whose unrecorded prefix precedes the stop sign, or None
    idx = len(units)
    size = len(page)
    has_star = size > 0 and page[-1] == STAR
    # kappa tokens, or fewer and the marker; no marker elsewhere
    if size > kappa or (size < kappa and not has_star) \
            or page.count(STAR) > has_star:
        raise InconsistentDiary(idx, "malformed page")
    body = page[:-1] if has_star else page
    # segments before each visible pending stop, then the new word, in
    # natural reading order
    shown, _ = segments_and_stops(body[::-1])
    new_word = shown.pop()
    p = len(shown)

    if p == 0:
        if not has_star:
            return units + ((True, new_word),), pending + ((idx, idx),)
        if idx > 0:
            raise InconsistentDiary(
                idx, "terminal page must reach back to a stop sign")
        return units + ((False, new_word),), pending + ((0, None),)

    if p > len(pending):
        raise InconsistentDiary(idx, "page shows stop signs that are "
                                     "not pending")
    if has_star and p != len(pending):
        raise InconsistentDiary(
            idx, "terminal page must show every pending stop sign")

    kept = len(pending) - p
    units = list(units)
    # complete segments (all but the oldest) close their owners; segment j
    # ends at the visible pending stop pending[kept + j]
    for j in range(1, p):
        seg = shown[j]
        owner = pending[kept + j][1]
        if owner is None:
            if seg:
                raise InconsistentDiary(
                    idx, "text shown before a fully recorded word")
        else:
            units[owner] = (False, seg + units[owner][1])
    # the oldest visible segment is cut by the window: it extends its
    # owner, whose slot stays open unless the page was terminal
    first_owner = pending[kept][1]
    if first_owner is None:
        if shown[0]:
            raise InconsistentDiary(
                idx, "text shown before a fully recorded word")
        carried = None
    else:
        units[first_owner] = (not has_star, shown[0] + units[first_owner][1])
        carried = None if has_star else first_owner
    units.append((False, new_word))
    return tuple(units), pending[:kept] + ((idx, carried),)


def reconstruct(diary: Sequence, kappa: int) -> Slotted:
    return decode(diary, kappa)[0]


# ---------------------------------------------------------------------------
# Slotted sentences


def is_honest(slotted: Slotted) -> bool:
    return all(not has_slot for has_slot, _ in slotted)


def slot_count(slotted: Slotted) -> int:
    return sum(1 for has_slot, _ in slotted if has_slot)


def fill_slots(slotted: Slotted, fillers: Sequence[Sequence]) -> Sentence:
    """Concrete sentence obtained by writing the given words into the slots
    in order."""
    fillers = list(fillers)
    if len(fillers) != slot_count(slotted):
        raise ValueError(
            f"need {slot_count(slotted)} filler words, got {len(fillers)}")
    out: list = []
    fi = 0
    for has_slot, word in slotted:
        if has_slot:
            out.extend(fillers[fi])
            fi += 1
        out.extend(word)
        out.append(STOP)
    return tuple(out)


def member_rest_segments(slotted: Slotted, pending: Sequence,
                         words: Sequence, stops: Sequence
                         ) -> Optional[tuple]:
    """Core membership rule on pre-split words, one stop token per word.

    Returns the member's token-exact leftover -- for each pending stop
    sign, the member's unrecorded prefix of the owning word followed by the
    member's actual stop token -- or None when the words are not a member
    of the slotted class.  With no pending stop signs the leftover of a
    member is empty, which makes this the membership test as well."""
    if len(words) != len(slotted):
        return None
    # the member's filler of each unit, empty where the unit has no slot
    fillers: list = []
    for word, (has_slot, shown) in zip(words, slotted):
        if has_slot:
            cut = len(word) - len(shown)
            if cut < 0 or word[cut:] != shown:
                return None
            fillers.append(word[:cut])
        elif word != shown:
            return None
        else:
            fillers.append(())
    out: list = []
    for word_idx, owner in pending:
        if owner is not None:
            out.extend(fillers[owner])
        out.append(stops[word_idx])
    return tuple(out)


def _match(slotted: Slotted, pending: Sequence, sentence: Sequence
           ) -> Optional[tuple]:
    """Split the sentence once and match it against the slotted pattern:
    the member's leftover, or None when the sentence is not a member."""
    try:
        words, stops = words_and_stops(sentence)
    except ValueError:
        return None
    return member_rest_segments(slotted, pending, words, stops)


def membership(slotted: Slotted, sentence: Sequence) -> bool:
    return _match(slotted, (), sentence) is not None


def member_rest(slotted: Slotted, pending: Sequence, sentence: Sequence
                ) -> tuple:
    """Token-exact leftover of a member (see ``member_rest_segments``).
    Matches the encoder's rest on every member."""
    rest = _match(slotted, pending, sentence)
    if rest is None:
        raise ValueError("sentence is not a member of the slotted class")
    return rest


# ---------------------------------------------------------------------------
# Text form of a diary: each page in parentheses, `s` stop sign, `*`
# terminal marker, a decorated token as `token/bit`.


def format_diary(diary: Sequence) -> str:
    return "".join("(" + "".join(_token_str(t) for t in page) + ")"
                   for page in diary)


def _token_str(tok) -> str:
    if isinstance(tok, tuple) and len(tok) == 2:
        base, bit = tok
        if isinstance(base, frozenset):
            base = "{" + ",".join(str(x) for x in sorted(base)) + "}"
        return f"{base}/{bit}"
    return str(tok)
