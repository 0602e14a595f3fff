"""Closure bookkeeping for braid words and ASCII braid diagrams.

Joining each top endpoint of a braid to its bottom endpoint closes the word
into a link whose component count equals the cycle count of the word's
symmetric-group image.  Three words get names here; recognition is literal
comparison of the freely reduced letter sequence against the registry, never
a topological equivalence test, so a match means "word matches", not "link
proven equal".  Free reduction keeps each generator's signed letter count
(the word's image in the free group's abelianization), so only a word whose
counts equal a registered word's is reduced and compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import (
    BraidWord,
    cycle_count,
    free_reduce,
    parse_braid_word,
    render_braid_word,
    word_images,
)

MAX_RENDER_LETTERS = 64
MAX_RENDER_STRANDS = 8

_REGISTERED_WORDS = {
    "hopf": parse_braid_word("s1 s1", 2),
    "borromean_word": parse_braid_word("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3),
    "nus_word": parse_braid_word("s1 s2 s1 s2 s1 s2", 3),
}
_REGISTERED_SUMS = {name: word_images(word)[1] for name, word in _REGISTERED_WORDS.items()}


@dataclass(frozen=True)
class ClosureSummary:
    components: int
    exponent_sum: int
    named_match: str | None


def summarize_closure(word: BraidWord) -> ClosureSummary:
    """Component count, exponent sum, and literal named-word recognition."""
    image, sums = word_images(word)
    named = None
    for name, registered in _REGISTERED_WORDS.items():
        if (
            registered.strands == word.strands
            and _REGISTERED_SUMS[name] == sums
            and free_reduce(word) == registered
        ):
            named = name
            break
    return ClosureSummary(
        components=cycle_count(image), exponent_sum=sum(sums), named_match=named
    )


def render_braid_ascii(word: BraidWord, ascii_only: bool = False) -> str:
    """Fixed-width diagram: strands run top to bottom, one band per letter.

    A positive letter s_i takes strand i over strand i+1; the continuous
    diagonal in the band's middle row is the over-strand, the broken one the
    under-strand.  The header restates that convention.  With ascii_only the
    verticals are drawn as '|' instead of a box-drawing bar.
    """
    n = word.strands
    if n > MAX_RENDER_STRANDS:
        raise ValueError(f"diagram supports at most {MAX_RENDER_STRANDS} strands, got {n}")
    if len(word.letters) > MAX_RENDER_LETTERS:
        raise ValueError(
            f"diagram supports at most {MAX_RENDER_LETTERS} letters, got {len(word.letters)}"
        )
    bar = "|" if ascii_only else "│"
    bars = "   ".join([bar] * n)  # strand i's vertical is at column 4(i-1)
    lines = [
        f"braid on {n} strands: {render_braid_word(word) or '(empty word)'}",
        "convention: positive s_i crosses strand i over strand i+1;"
        " the unbroken diagonal is the over-strand",
        "   ".join(str(i) for i in range(1, n + 1)),
        bars,
    ]
    for letter in word.letters:
        c = 4 * (letter.index - 1)  # a band spans the five columns from strand i to i+1
        for band in ("\\   /", "  \\  " if letter.sign > 0 else "  /  ", "/   \\"):
            lines.append((bars[:c] + band + bars[c + 5 :]).rstrip())
        lines.append(bars)
    return "\n".join(lines)
