"""Reading words in finite groups: block tables, pairwise products and powers.

``braids.group_element`` reads a stretch of letters L at a time through a
group's block table and raises a power run's element by square-and-multiply.
The oracles here are the exact groups of ``exactgroups`` (b2, ge, jones), the
swap loop ``braids._swaps`` (the symmetric groups) and the gather-only walk
that read each letter's element and multiplied the elements in pairs.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import braident
from braident import braids
from braident.braids import parse_braid_word
from braident.reps import b2_rep, evaluate, ge_rep, jones_rep
from exactgroups import exact_group
from wordcodes import codes_of, word_of

NAMED = {"b2": lambda: b2_rep(1.0), "ge": lambda: ge_rep(0.3), "jones": jones_rep}
BLOCK_LETTERS = {"b2": 16, "ge": 8, "jones": 8, 2: 16, 3: 8, 4: 6, 5: 5}


def group_of(key):
    """A named representation's image group, or S_n for an integer n."""
    return NAMED[key]().group if isinstance(key, str) else braids._symmetric_group(key)


def strands_of(key) -> int:
    return NAMED[key]().strands if isinstance(key, str) else key


def gather_element(group, codes) -> int:
    """The gather-only walk: each letter's element by one gather, then the
    elements multiplied in pairs through the 2-D Cayley table."""
    _, table, letters = group
    ids = letters[np.asarray(codes, dtype=np.intp)]
    while len(ids) > 1:
        ids = np.concatenate((table[ids[:-1:2], ids[1::2]], ids[len(ids) & ~1 :]))
    return int(ids[0]) if len(ids) else 0


@functools.cache
def to_exact(name: str) -> np.ndarray:
    """The exact group's id of each element of the named float group."""
    exact = exact_group(name)
    floats = NAMED[name]().group[0]
    matrices = np.stack([exact.matrix(g) for g in range(len(exact.elements))])
    return np.abs(floats[:, None] - matrices[None]).max(axis=(2, 3)).argmin(axis=1)


def lengths(size: int) -> list[int]:
    return [0, 1, size - 1, size, size + 1, 4 * size - 1, 10 * size + 3, 1000]


def random_codes(rng, strands: int, length: int) -> list[int]:
    return (rng.integers(1, strands, length) * rng.choice([1, -1], length)).tolist()


def nested_texts(rng, strands: int, length: int) -> list[str]:
    """A stretch of ``length`` letters as plain text, ahead of a run, inside a
    run, and in the first period of a negative run inside another run."""

    def text(n):
        return " ".join(f"s{c}" if c > 0 else f"s{-c}^-1" for c in random_codes(rng, strands, n))

    return [
        text(length),
        f"{text(length)} (s1 s{strands - 1}^-1)^5",
        f"({text(length)})^3 {text(2)}",
        f"(s1 ({text(length)})^-2 {text(length)})^4",
    ]


@pytest.mark.parametrize("key", sorted(BLOCK_LETTERS, key=str))
def test_block_size_is_the_largest_that_fits(key):
    group = group_of(key)
    base = 2 * (strands_of(key) - 1)
    size = BLOCK_LETTERS[key]
    assert group.block_letters == size
    assert base**size <= braids.BLOCK_WORDS < base ** (size + 1)


@pytest.mark.parametrize("key", sorted(BLOCK_LETTERS, key=str))
def test_block_table_holds_the_element_of_every_block(key):
    group = group_of(key)
    digits, weights, words = group.blocks
    n, size = strands_of(key), group.block_letters
    assert len(words) == (2 * n - 2) ** size and not words.flags.writeable
    signed = [*range(1, n), *range(1 - n, 0)]  # the code of each digit
    assert [digits[c] for c in signed] == list(range(2 * n - 2))
    rng = np.random.default_rng(n)
    for index in [0, len(words) - 1, *rng.integers(0, len(words), 200)]:
        block = [signed[index // w % (2 * n - 2)] for w in weights.tolist()]
        assert words[index] == gather_element(group, block)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_words_are_the_exact_elements(name):
    group, exact = group_of(name), exact_group(name)
    n = strands_of(name)
    rng = np.random.default_rng(len(name))
    for length in lengths(group.block_letters):
        for text in nested_texts(rng, n, length):
            word = parse_braid_word(text, n)
            g, e = braids.group_element(word.codes, word.powers, 0, len(word), group, np.sum)
            assert to_exact(name)[g] == exact.element(codes_of(word)), text
            assert g == gather_element(group, word.codes)
            assert e == sum(codes_of(word))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_images_are_the_swap_loop(n):
    group = braids._symmetric_group(n)
    rng = np.random.default_rng(10 + n)
    for length in lengths(group.block_letters):
        for text in nested_texts(rng, n, length):
            word = parse_braid_word(text, n)
            moved, sums = braids._swaps(word.codes, (), 0, len(word), n)  # letter by letter
            image = [0] * n
            for position, start in enumerate(moved, start=1):
                image[start] = position
            assert braids.word_images(word) == (tuple(image), tuple(sums[1:])), text


@pytest.mark.parametrize("key", sorted(BLOCK_LETTERS, key=str))
def test_powers_are_the_repeated_product(key):
    group = group_of(key)
    table, order = group[1], len(group[1])
    rng = np.random.default_rng(order)
    for g in {*group[2][1:].tolist(), *rng.integers(0, order, 3).tolist()}:
        product = 0
        for k in range(3 * order + 1):
            assert braids._power(group, g, k) == product, (g, k)
            product = int(table[product, g])


@pytest.mark.parametrize("key", sorted(BLOCK_LETTERS, key=str))
def test_runs_raise_their_period(key):
    group = group_of(key)
    n, order = strands_of(key), len(group[1])
    period = random_codes(np.random.default_rng(n), n, 3)
    for count in (2, 3, order - 1, order, order + 1, 3 * order):
        word = braids._word_with_runs(n, period * count, ((0, 3, count, ()),))
        g, _ = braids.group_element(word.codes, word.powers, 0, len(word), group, len)
        assert g == gather_element(group, word.codes), count


@pytest.mark.parametrize("key", sorted(BLOCK_LETTERS, key=str))
def test_products_match_the_pairwise_gathers(key, monkeypatch):
    # both sides of LOOP_IDS, and the numpy rounds all the way down
    group = group_of(key)
    rng = np.random.default_rng(20)
    for size in (0, 1, 2, 255, 256, 257, 1001):
        ids = rng.integers(0, len(group[1]), size).astype(group[1].dtype)
        expected = gather_element((None, group[1], np.arange(len(group[1]))), ids)
        assert braids.table_product(group, ids) == expected
        monkeypatch.setattr(braids, "LOOP_IDS", 1)
        assert braids.table_product(group, ids) == expected
        monkeypatch.undo()


def test_long_words_evaluate_through_their_blocks():
    rng = np.random.default_rng(30)
    for name in sorted(NAMED):
        rep, exact = NAMED[name](), exact_group(name)
        codes = random_codes(rng, rep.strands, 10**4 + 7)
        word = word_of(rep.strands, codes)
        phase = np.exp(1j * rep.parameters.get("theta", 0.0) * int(np.sign(codes).sum()))
        expected = phase * exact.matrix(exact.element(codes))
        assert np.max(np.abs(evaluate(rep, word) - expected)) <= 1e-14


SPY = """
import functools, sys
from braident import braids
built = []
blocks = braids._FiniteGroup.blocks
spy = functools.cached_property(lambda group: built.append(len(group[1])) or blocks.func(group))
spy.__set_name__(braids._FiniteGroup, "blocks")
braids._FiniteGroup.blocks = spy
import braident
ge, jones = braident.ge_rep(), braident.jones_rep()
print(len(built))
braident.evaluate(jones, braident.parse_braid_word("s1 s2 " * 8, 3))
print(built)
"""


def test_block_tables_stay_lazy():
    # the import, the named builders and short words build no block table
    src = str(Path(braident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SPY],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["0", "[192]"]
