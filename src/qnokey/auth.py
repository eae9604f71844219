"""One-time message authentication over GF(2**t).

The tag construction is the classic polynomial-evaluation hash with a
one-time additive mask: chunk the message into t-bit blocks, evaluate
the polynomial whose coefficients are those blocks at the first key
half, and add the second key half. A fresh key per message makes the
substitution-forgery probability at most 2**(1-t).

Message encoding
----------------
A message is an integer plus an explicit bit width. The bit string,
most significant bit first, is cut into t-bit blocks left to right; the
last block is zero-padded on the right. The number of padding bits is
prepended as an extra leading block, so two messages that differ only
in trailing zero-padding never share an encoding. With the block
sequence y1..yd (padding count first), the tag is

    a**d * y1  +  a**(d-1) * y2  +  ...  +  a * yd  +  b

with all arithmetic in GF(2**t) and key k = (a, b).

Field arithmetic
----------------
Multiplication is bitwise shift-and-reduce against a fixed irreducible
polynomial per width; the full table is REDUCTION_POLYS (and is
reproduced in the README). Coefficients are bits of Python ints, so
addition is XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_TAG_WIDTH = 1
MAX_TAG_WIDTH = 16

# Irreducible reduction polynomial for each field width, written with
# the leading term included: bit i set means the x**i term is present.
REDUCTION_POLYS: dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def _check_width(t: int) -> None:
    if not MIN_TAG_WIDTH <= t <= MAX_TAG_WIDTH:
        raise ValueError(f"tag width {t} outside {MIN_TAG_WIDTH}..{MAX_TAG_WIDTH}")


def gf_add(x: int, y: int) -> int:
    """Addition in GF(2**t) is carryless: plain XOR."""
    return x ^ y


def gf_mul(t: int, x: int, y: int) -> int:
    """Product in GF(2**t), reducing after every doubling step."""
    _check_width(t)
    top = 1 << t
    if not (0 <= x < top and 0 <= y < top):
        raise ValueError(f"operands must be {t}-bit field elements")
    poly = REDUCTION_POLYS[t]  # includes the x**t term, so XOR clears it
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x & top:
            x ^= poly
    return acc


def gf_pow(t: int, x: int, e: int) -> int:
    """x**e by square-and-multiply."""
    _check_width(t)
    result = 1
    base = x
    while e:
        if e & 1:
            result = gf_mul(t, result, base)
        base = gf_mul(t, base, base)
        e >>= 1
    return result


@dataclass(frozen=True)
class MacKey:
    """One-time key (a, b): polynomial point and additive mask."""

    t: int
    a: int
    b: int

    def __post_init__(self):
        _check_width(self.t)
        top = 1 << self.t
        if not (0 <= self.a < top and 0 <= self.b < top):
            raise ValueError(f"key halves must be {self.t}-bit field elements")


def mac_keygen(t: int, rng: np.random.Generator) -> MacKey:
    """Uniform key over the full (a, b) square, weak keys included."""
    _check_width(t)
    a = int(rng.integers(0, 1 << t))
    b = int(rng.integers(0, 1 << t))
    return MacKey(t, a, b)


def message_blocks(t: int, message: int, width: int) -> list[int]:
    """Encode (message, width) as the tagged block sequence.

    Block 0 is the zero-pad count of the final data block; the data
    blocks follow, most significant first.
    """
    _check_width(t)
    if width < 1:
        raise ValueError("empty message cannot be authenticated")
    if not 0 <= message < (1 << width):
        raise ValueError(f"message {message} does not fit in {width} bits")
    nblocks = -(-width // t)
    padbits = nblocks * t - width
    padded = message << padbits
    mask = (1 << t) - 1
    blocks = [(padded >> (t * (nblocks - 1 - i))) & mask for i in range(nblocks)]
    return [padbits] + blocks


def mac_tag(key: MacKey, message: int, width: int) -> int:
    """Authentication tag for a message of an explicit bit width."""
    blocks = message_blocks(key.t, message, width)
    # Horner evaluation of sum a**(d-i) * y_i, then the one-time mask.
    acc = 0
    for block in blocks:
        acc = gf_mul(key.t, acc ^ block, key.a)
    return gf_add(acc, key.b)


def mac_verify(key: MacKey, message: int, width: int, tag: int) -> bool:
    if not 0 <= tag < (1 << key.t):
        raise ValueError(f"tag {tag} does not fit in {key.t} bits")
    return mac_tag(key, message, width) == tag


def forgery_fraction(t: int, message: int, forged: int, delta: int, width: int,
                     width_forged: int | None = None) -> float:
    """Exact fraction of keys mapping one message-tag pair to another.

    The fraction of all 2**(2t) keys for which the tag of `forged` (of
    `width_forged` bits, default the original width) equals the tag of
    `message` shifted by `delta`: the quantity the 2**(1-t) bound speaks
    about. The mask b is added to both tags, so it cancels; every a
    hits for all b or for none, and the count runs over a alone.
    """
    _check_width(t)
    if width_forged is None:
        width_forged = width
    if message == forged and width == width_forged and delta == 0:
        raise ValueError("forgery must change the message or the tag")
    hits = 0
    for a in range(1 << t):
        key = MacKey(t, a, 0)
        if mac_tag(key, forged, width_forged) == gf_add(mac_tag(key, message, width), delta):
            hits += 1
    return hits / (1 << t)
