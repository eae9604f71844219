"""Truth tables for the protocols' secret functions, and their sampling.

Two table kinds appear throughout the package: bijections on n-bit
values (the scrambling permutations applied through XOR oracles) and
general n-to-l-bit functions (the authentication tag functions), both
value types over plain integer tables. A one-time pad is a plain l-bit
int.

Randomness policy: every sampler takes an explicit numpy Generator
(PCG64 under the default helpers). Substreams for the different
parties come from Generator.spawn, so adding draws on one party's
stream never shifts another's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

DEFAULT_ENUM_LIMIT = 1 << 16
DEFAULT_TABLE_WIDTH_CAP = 16


class EnumerationLimitError(ValueError):
    """Raised when an exhaustive family is too large to enumerate."""

    def __init__(self, count: int, limit: int, what: str):
        self.count = count
        self.limit = limit
        # Families are powers of two; past 2**64 print the exponent, not
        # thousands of digits (which int-to-str conversion also refuses).
        shown = count if count < 1 << 64 or count & (count - 1) else f"2**{count.bit_length() - 1}"
        super().__init__(f"enumerating {what} needs {shown} items, limit is {limit}")


def make_rng(seed) -> np.random.Generator:
    """PCG64 stream from a seed (None means 0), passing Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(0 if seed is None else seed)))


def party_streams(rng, count: int) -> list[np.random.Generator]:
    """Split one stream into independent per-party substreams."""
    return make_rng(rng).spawn(count)


@dataclass(frozen=True)
class BooleanPermutation:
    """Bijective table on n-bit values, applied via XOR oracles."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= DEFAULT_TABLE_WIDTH_CAP:
            raise ValueError(f"permutation width {self.n} outside 1..{DEFAULT_TABLE_WIDTH_CAP}")
        size = 1 << self.n
        if len(self.table) != size:
            raise ValueError(f"permutation on {self.n} bits needs {size} entries, "
                             f"got {len(self.table)}")
        if sorted(self.table) != list(range(size)):
            raise ValueError("table is not a bijection")

    @property
    def out_width(self) -> int:
        return self.n


@dataclass(frozen=True)
class BooleanFunction:
    """Arbitrary function from n-bit to l-bit values."""

    n: int
    l: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= DEFAULT_TABLE_WIDTH_CAP:
            raise ValueError(f"function input width {self.n} outside 1..{DEFAULT_TABLE_WIDTH_CAP}")
        if self.l < 1:
            raise ValueError(f"function output width must be >= 1, got {self.l}")
        size = 1 << self.n
        if len(self.table) != size:
            raise ValueError(f"function on {self.n} bits needs {size} entries, "
                             f"got {len(self.table)}")
        top = 1 << self.l
        if any(not 0 <= v < top for v in self.table):
            raise ValueError(f"table entries must fit in {self.l} bits")

    @property
    def out_width(self) -> int:
        return self.l


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_permutation(n: int, rng: np.random.Generator) -> BooleanPermutation:
    """Uniform bijection on n-bit values by a Fisher-Yates shuffle."""
    if not 1 <= n <= DEFAULT_TABLE_WIDTH_CAP:
        raise ValueError(f"permutation width {n} outside 1..{DEFAULT_TABLE_WIDTH_CAP}")
    size = 1 << n
    table = list(range(size))
    for i in range(size - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        table[i], table[j] = table[j], table[i]
    return BooleanPermutation(n, tuple(table))


def sample_function(n: int, l: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniform function table: each entry an independent l-bit draw."""
    if not 1 <= n <= DEFAULT_TABLE_WIDTH_CAP:
        raise ValueError(f"function input width {n} outside 1..{DEFAULT_TABLE_WIDTH_CAP}")
    if l < 1:
        raise ValueError(f"function output width must be >= 1, got {l}")
    entries = rng.integers(0, 1 << l, size=1 << n)
    return BooleanFunction(n, l, tuple(int(v) for v in entries))


def sample_pad(l: int, rng: np.random.Generator) -> int:
    """Uniform l-bit one-time pad."""
    if l < 1:
        raise ValueError(f"pad width must be >= 1, got {l}")
    return int(rng.integers(0, 1 << l))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_pads(l: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[int]:
    """All l-bit pads in increasing order."""
    if l < 1:
        raise ValueError(f"pad width must be >= 1, got {l}")
    count = 1 << l
    if count > limit:
        raise EnumerationLimitError(count, limit, f"{l}-bit pads")
    yield from range(count)


def enumerate_functions(n: int, l: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[BooleanFunction]:
    """All n-to-l-bit functions, tables in lexicographic order.

    The family has 2**(l * 2**n) members; the limit check is inclusive,
    so a family of exactly `limit` tables still enumerates.
    """
    if l < 1:
        raise ValueError(f"function output width must be >= 1, got {l}")
    size = 1 << n
    bits = l * size
    count = 1 << bits
    if count > limit:
        raise EnumerationLimitError(count, limit, f"{n}-to-{l}-bit functions")
    mask = (1 << l) - 1
    for code in range(count):
        table = tuple((code >> (l * (size - 1 - j))) & mask for j in range(size))
        yield BooleanFunction(n, l, table)


def count_functions(n: int, l: int) -> int:
    return 1 << (l * (1 << n))


# ---------------------------------------------------------------------------
# Serialization: one table per file, hex entries
# ---------------------------------------------------------------------------
#
# Format: a header line "n=<n> l=<l>" (plus " perm=true" for
# permutations, where l equals n), then one lowercase-hex entry per
# line, table order. Blank lines and lines starting with '#' are
# ignored on load.


def dump_table(obj: BooleanPermutation | BooleanFunction, stream: TextIO) -> None:
    if isinstance(obj, BooleanPermutation):
        stream.write(f"n={obj.n} l={obj.n} perm=true\n")
    elif isinstance(obj, BooleanFunction):
        stream.write(f"n={obj.n} l={obj.l}\n")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    for value in obj.table:
        stream.write(f"{value:x}\n")


def load_table(stream: TextIO) -> BooleanPermutation | BooleanFunction:
    lines = [ln.strip() for ln in stream]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty table file")
    fields = {}
    for token in lines[0].split():
        if "=" not in token:
            raise ValueError(f"malformed header token {token!r}")
        key, _, val = token.partition("=")
        fields[key] = val
    try:
        n = int(fields["n"])
        l = int(fields["l"])
    except KeyError as exc:
        raise ValueError(f"header is missing {exc}") from exc
    is_perm = fields.get("perm", "false").lower() == "true"
    entries = tuple(int(ln, 16) for ln in lines[1:])
    if is_perm:
        if l != n:
            raise ValueError(f"permutation header has l={l} != n={n}")
        return BooleanPermutation(n, entries)
    return BooleanFunction(n, l, entries)


def save_table(obj: BooleanPermutation | BooleanFunction, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        dump_table(obj, fh)


def read_table(path) -> BooleanPermutation | BooleanFunction:
    with open(path, "r", encoding="ascii") as fh:
        return load_table(fh)
