"""Braid words from signed generator codes and back: +i is s_i, -i is s_i^-1.

Tests build and read words through these two helpers instead of touching the
letter type, so a change of how a word stores its letters changes only them.
"""

from braident.braids import BraidWord, shared_letter


def word_of(strands: int, codes) -> BraidWord:
    """The word on ``strands`` strands whose letters have the given signed codes."""
    return BraidWord(strands, tuple(shared_letter(abs(c), 1 if c > 0 else -1) for c in codes))


def codes_of(word: BraidWord) -> list[int]:
    """The signed code of each letter of the word, in written order."""
    return [letter.sign * letter.index for letter in word.letters]
