"""Braid words from signed generator codes and back: +i is s_i, -i is s_i^-1.

Tests build and read words through these two helpers, so a change of how a
word stores its codes changes only them.
"""

from braident.braids import BraidWord


def word_of(strands: int, codes) -> BraidWord:
    """The word on ``strands`` strands with the given signed codes."""
    return BraidWord(strands, codes)


def codes_of(word: BraidWord) -> list[int]:
    """The signed code of each letter of the word, in written order."""
    return word.codes.tolist()
