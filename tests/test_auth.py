"""One-time authentication code over GF(2^t), against brute-force oracles.

The field arithmetic is cross-checked with an independent
carryless-multiply-then-long-divide implementation, the reduction
polynomials are proven irreducible by a Rabin test written here, and
the forgery bound is confirmed by exhaustive key enumeration.
"""

import math
from itertools import product

import numpy as np
import pytest

from qnokey.auth import (
    REDUCTION_POLYS,
    MacKey,
    forgery_fraction,
    gf_add,
    gf_mul,
    gf_pow,
    mac_keygen,
    mac_tag,
    mac_verify,
    message_blocks,
)
from qnokey.oracles import make_rng


# -- independent polynomial arithmetic ----------------------------------------


def clmul(a, b):
    """Carryless product of two GF(2) polynomials."""
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def poly_mod(a, m):
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def poly_gcd(a, b):
    while b:
        a, b = b, poly_mod(a, b)
    return a


def field_mul_oracle(t, x, y):
    return poly_mod(clmul(x, y), REDUCTION_POLYS[t])


def poly_powmod_squarings(base, squarings, m):
    r = base
    for _ in range(squarings):
        r = poly_mod(clmul(r, r), m)
    return r


def prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def is_irreducible(poly, degree):
    """Rabin test: x^(2^d) == x mod p, and gcd checks per prime divisor."""
    x = poly_mod(0b10, poly)
    if poly_powmod_squarings(x, degree, poly) != x:
        return False
    for q in prime_factors(degree):
        h = poly_powmod_squarings(x, degree // q, poly) ^ x
        if poly_gcd(poly, h) != 1:
            return False
    return True


# -- reduction polynomial table -----------------------------------------------


def test_reduction_table_covers_all_widths():
    assert sorted(REDUCTION_POLYS) == list(range(1, 17))


@pytest.mark.parametrize("t", sorted(REDUCTION_POLYS))
def test_reduction_polynomial_has_right_degree_and_is_irreducible(t):
    poly = REDUCTION_POLYS[t]
    assert poly.bit_length() == t + 1
    assert poly & 1, "constant term required"
    assert is_irreducible(poly, t)


# -- field arithmetic -----------------------------------------------------------


def test_gf_add_is_xor():
    assert gf_add(0b1010, 0b0110) == 0b1100
    assert gf_add(7, 7) == 0


def test_gf_mul_matches_long_division_oracle_exhaustively():
    for t in (1, 2, 3, 4):
        for x in range(1 << t):
            for y in range(1 << t):
                assert gf_mul(t, x, y) == field_mul_oracle(t, x, y)


def test_gf_mul_rejects_out_of_range_operands():
    with pytest.raises(ValueError):
        gf_mul(3, 8, 1)
    with pytest.raises(ValueError):
        gf_mul(3, 1, -1)


def test_gf_axioms_exhaustive_small_fields():
    for t in (1, 2, 3):
        size = 1 << t
        for x, y in product(range(size), repeat=2):
            assert gf_mul(t, x, y) == gf_mul(t, y, x)
        for x, y, z in product(range(size), repeat=3):
            assert gf_mul(t, gf_mul(t, x, y), z) == gf_mul(t, x, gf_mul(t, y, z))
            assert gf_mul(t, x, gf_add(y, z)) == gf_add(gf_mul(t, x, y), gf_mul(t, x, z))


def test_gf_multiplicative_group_has_full_order_at_t4():
    # Irreducible reduction: every nonzero element is invertible, and
    # the powers of a generator hit all 15 nonzero values.
    seen = set()
    v = 1
    for _ in range(15):
        v = gf_mul(4, v, 0b0010)
        seen.add(v)
    assert seen == set(range(1, 16))


def test_gf_pow_matches_repeated_multiplication():
    for t in (2, 3, 4):
        for x in range(1 << t):
            acc = 1
            for e in range(6):
                assert gf_pow(t, x, e) == acc
                acc = gf_mul(t, acc, x)


# -- key generation --------------------------------------------------------------


def test_mac_key_widths_validated():
    with pytest.raises(ValueError):
        mac_keygen(0, make_rng(0))
    with pytest.raises(ValueError):
        mac_keygen(17, make_rng(0))
    with pytest.raises(ValueError):
        MacKey(3, 8, 0)


def test_keygen_uniform_over_all_keys():
    rng = make_rng(6)
    trials = 10_000
    counts = np.zeros(64)
    for _ in range(trials):
        key = mac_keygen(3, rng)
        counts[(key.a << 3) | key.b] += 1
    p = 1 / 64
    sigma = math.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(counts / trials - p) <= 3 * sigma)


def test_keygen_is_seed_deterministic():
    assert mac_keygen(5, make_rng(42)) == mac_keygen(5, make_rng(42))


# -- message encoding -------------------------------------------------------------


def test_blocks_prepend_zero_pad_count():
    assert message_blocks(3, 0b101, 3) == [0, 0b101]
    assert message_blocks(3, 0b10, 2) == [1, 0b100]
    assert message_blocks(3, 0b101101, 6) == [0, 0b101, 0b101]
    assert message_blocks(2, 0b1, 1) == [1, 0b10]


def test_blocks_reject_empty_or_oversized_message():
    with pytest.raises(ValueError, match="empty"):
        message_blocks(3, 0, 0)
    with pytest.raises(ValueError, match="fit"):
        message_blocks(3, 8, 3)


def test_block_encoding_is_injective_across_widths():
    # (width, message) must be recoverable from the block sequence,
    # otherwise padding forgeries would collide.
    seen = {}
    for width in range(1, 7):
        for msg in range(1 << width):
            key = tuple(message_blocks(2, msg, width))
            assert key not in seen, f"collision with {seen.get(key)}"
            seen[key] = (width, msg)


# -- tagging -----------------------------------------------------------------------


def test_zero_multiplier_gives_constant_tag():
    key = MacKey(3, 0, 0b101)
    for width in (1, 3, 5):
        for msg in range(1 << width):
            assert mac_tag(key, msg, width) == 0b101


def test_identity_multiplier_single_block():
    # Aligned single block with a=1: the pad-count block is zero, so
    # the tag collapses to x XOR b.
    for b in range(8):
        key = MacKey(3, 1, b)
        for msg in range(8):
            assert mac_tag(key, msg, 3) == msg ^ b


def test_known_tag_against_gf16_oracle():
    key = MacKey(4, 0x3, 0x7)
    # Horner over blocks [0, 5] via the independent field oracle.
    acc = 0
    for block in [0, 0x5]:
        acc = field_mul_oracle(4, acc ^ block, 0x3)
    assert mac_tag(key, 0x5, 4) == acc ^ 0x7
    assert acc ^ 0x7 == 0x8


def test_tag_matches_polynomial_formula():
    # tag = a^d*y_1 + ... + a*y_d + b over the encoded blocks.
    rng = make_rng(13)
    for _ in range(50):
        t = int(rng.integers(1, 5))
        width = int(rng.integers(1, 3 * t + 1))
        msg = int(rng.integers(0, 1 << width))
        key = mac_keygen(t, rng)
        blocks = message_blocks(t, msg, width)
        d = len(blocks)
        expect = key.b
        for i, y in enumerate(blocks):
            expect ^= field_mul_oracle(t, gf_pow(t, key.a, d - i), y)
        assert mac_tag(key, msg, width) == expect


def test_verify_round_trip_exhaustive_small_widths():
    for t in (1, 2, 3, 4):
        widths = sorted({1, t, t + 1, 2 * t})
        for a in range(1 << t):
            for b in range(1 << t):
                key = MacKey(t, a, b)
                for width in widths:
                    for msg in range(1 << width):
                        tag = mac_tag(key, msg, width)
                        assert mac_verify(key, msg, width, tag)


def test_verify_rejects_oversized_tag():
    with pytest.raises(ValueError, match="tag"):
        mac_verify(MacKey(3, 1, 1), 0, 1, 8)


# -- forgery bound ------------------------------------------------------------------


def test_substitution_forgery_bound_exhaustive_t3():
    # Single-block substitutions at t=3: every (x, x', delta) forgery
    # works for at most a 2^(1-t) fraction of the 64 keys.
    bound = 2 ** (1 - 3)
    worst = 0.0
    for x in range(8):
        for x2 in range(8):
            for delta in range(8):
                if x == x2 and delta == 0:
                    continue
                frac = forgery_fraction(3, x, x2, delta, 3)
                worst = max(worst, frac)
    assert worst <= bound
    assert worst > 0.0  # the bound is tight, not vacuous


def test_cross_width_forgery_bound_t3():
    # Padding tricks must not beat the bound either: width 3 vs width 2.
    bound = 2 ** (1 - 3)
    for x in range(8):
        for x2 in range(4):
            for delta in range(8):
                assert forgery_fraction(3, x, x2, delta, 3, width_forged=2) <= bound


def _oracle_tag(t, a, b, message, width):
    """Tag by Horner over the field oracle, with the blocks encoded here."""
    nblocks = -(-width // t)
    padbits = nblocks * t - width
    padded = message << padbits
    blocks = [padbits] + [(padded >> (t * i)) & ((1 << t) - 1) for i in reversed(range(nblocks))]
    acc = 0
    for y in blocks:
        acc = field_mul_oracle(t, acc ^ y, a)
    return acc ^ b


def test_forgery_fraction_equals_full_key_square_oracle():
    # The count over a alone must give the float of the count over every
    # key (a, b), for every forgery at t <= 3, across widths as well.
    for t in (1, 2, 3):
        for width_forged in sorted({t, 2}):
            for x, x2, delta in product(range(1 << t), range(1 << width_forged), range(1 << t)):
                if x == x2 and width_forged == t and delta == 0:
                    continue
                hits = sum(_oracle_tag(t, a, b, x2, width_forged) ==
                           _oracle_tag(t, a, b, x, t) ^ delta
                           for a in range(1 << t) for b in range(1 << t))
                want = hits / 2 ** (2 * t)
                assert forgery_fraction(t, x, x2, delta, t, width_forged=width_forged) == want, \
                    (t, x, x2, delta, width_forged)


def test_null_forgery_rejected():
    with pytest.raises(ValueError, match="forgery"):
        forgery_fraction(3, 5, 5, 0, 3)
