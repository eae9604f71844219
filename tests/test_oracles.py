"""Sampling, enumeration, and serialization of the secret tables."""

import io
import math

import numpy as np
import pytest
from scipy.stats import chi2

from qnokey.oracles import (
    DEFAULT_ENUM_LIMIT,
    BooleanFunction,
    BooleanPermutation,
    EnumerationLimitError,
    count_functions,
    dump_table,
    enumerate_functions,
    enumerate_pads,
    load_table,
    make_rng,
    party_streams,
    read_table,
    sample_function,
    sample_pad,
    sample_permutation,
    save_table,
)


# -- type invariants ----------------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        BooleanPermutation(2, (0, 1, 1, 3))


def test_permutation_rejects_wrong_size():
    with pytest.raises(ValueError, match="entries"):
        BooleanPermutation(2, (0, 1, 2))


def test_function_rejects_oversized_entries():
    with pytest.raises(ValueError, match="fit"):
        BooleanFunction(1, 1, (0, 2))


def test_pad_zero_width_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        sample_pad(0, make_rng(0))
    with pytest.raises(ValueError, match=">= 1"):
        list(enumerate_pads(0))


# -- sampling -----------------------------------------------------------------


def test_every_sampled_permutation_is_a_bijection():
    rng = make_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        perm = sample_permutation(n, rng)
        assert sorted(perm.table) == list(range(1 << n))


def test_sampling_is_seed_deterministic():
    a = sample_permutation(4, make_rng(77)).table
    b = sample_permutation(4, make_rng(77)).table
    assert a == b
    fa = sample_function(3, 2, make_rng(78)).table
    fb = sample_function(3, 2, make_rng(78)).table
    assert fa == fb
    assert sample_pad(5, make_rng(79)) == sample_pad(5, make_rng(79))


def _fisher_yates_loop(n, rng):
    """The oracle: one `integers(0, i + 1)` draw per swap, i from 2**n - 1 down to 1."""
    table = list(range(1 << n))
    for i in range((1 << n) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        table[i], table[j] = table[j], table[i]
    return tuple(table)


def test_permutation_reads_the_stream_as_the_one_draw_per_swap_loop():
    # Same table, same generator state and same next draw as the loop, on
    # plain and spawned streams; the wide tables get fewer cases.
    for n in range(1, 17):
        for seed in range(6 if n < 12 else 1):
            for spawned in (False, True):
                mine, oracle = (make_rng(seed).spawn(1)[0] if spawned else make_rng(seed)
                                for _ in range(2))
                where = (n, seed, spawned)
                assert sample_permutation(n, mine).table == _fisher_yates_loop(n, oracle), where
                assert mine.bit_generator.state == oracle.bit_generator.state, where
                assert mine.random() == oracle.random(), where


def test_single_bit_permutations_appear_half_the_time():
    # n=1 has exactly two permutations; identity frequency 1/2 +- 3 sigma.
    rng = make_rng(2)
    trials = 10_000
    identity = sum(sample_permutation(1, rng).table == (0, 1) for _ in range(trials))
    sigma = math.sqrt(0.25 / trials)
    assert abs(identity / trials - 0.5) <= 3 * sigma


def test_function_entries_are_bernoulli_half():
    rng = make_rng(3)
    trials = 10_000
    counts = np.zeros(4)
    for _ in range(trials):
        fn = sample_function(2, 1, rng)
        counts += np.array(fn.table)
    sigma = math.sqrt(0.25 / trials)
    assert np.all(np.abs(counts / trials - 0.5) <= 3 * sigma)


def test_permutation_first_entry_chi_square_uniform():
    # 40,000 draws at n=2: first table entry should be uniform on 4 values.
    rng = make_rng(4)
    draws = 40_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_permutation(2, rng).table[0]] += 1
    expected = draws / 4
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert statistic <= chi2.ppf(1 - 0.001, df=3)


def test_party_streams_are_independent_of_later_draws():
    # Spawned substreams must not shift when the parent draws more.
    root1 = make_rng(50)
    a1, b1 = party_streams(root1, 2)
    seq_b1 = [int(b1.integers(0, 1 << 16)) for _ in range(5)]

    root2 = make_rng(50)
    a2, b2 = party_streams(root2, 2)
    [a2.integers(0, 1 << 16) for _ in range(100)]  # extra draws on a only
    seq_b2 = [int(b2.integers(0, 1 << 16)) for _ in range(5)]
    assert seq_b1 == seq_b2


# -- enumeration --------------------------------------------------------------


def test_enumerate_pads_small_case():
    assert list(enumerate_pads(2)) == [0, 1, 2, 3]


def test_enumerate_functions_counts_and_order():
    fns = list(enumerate_functions(2, 1))
    assert len(fns) == 16 == count_functions(2, 1)
    tables = [f.table for f in fns]
    assert len(set(tables)) == 16
    assert tables[0] == (0, 0, 0, 0)
    assert tables[1] == (0, 0, 0, 1)
    assert tables[-1] == (1, 1, 1, 1)


def test_enumeration_limit_is_inclusive():
    # 2^(2*8) = 2^16 items: exactly at the default limit, allowed.
    gen = enumerate_functions(3, 2, DEFAULT_ENUM_LIMIT)
    assert next(gen).table == (0,) * 8
    # 2^(3*8) = 2^24 items: over the limit, rejected with the count.
    with pytest.raises(EnumerationLimitError) as err:
        list(enumerate_functions(3, 3, DEFAULT_ENUM_LIMIT))
    assert err.value.count == 1 << 24
    assert err.value.limit == DEFAULT_ENUM_LIMIT
    assert "16777216" in str(err.value)
    # 2^(1*2^14) items: past 2^64 the message gives the exponent.
    with pytest.raises(EnumerationLimitError, match=r"needs 2\*\*16384 items"):
        list(enumerate_functions(14, 1, DEFAULT_ENUM_LIMIT))


def test_pad_enumeration_respects_limit():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_pads(17, limit=1 << 16))


# -- serialization ------------------------------------------------------------


def test_permutation_round_trip_and_header():
    perm = sample_permutation(3, make_rng(8))
    buf = io.StringIO()
    dump_table(perm, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "n=3 l=3 perm=true"
    assert len(text.splitlines()) == 9
    back = load_table(io.StringIO(text))
    assert isinstance(back, BooleanPermutation)
    assert back == perm


def test_function_round_trip_and_header():
    fn = sample_function(2, 4, make_rng(9))
    buf = io.StringIO()
    dump_table(fn, buf)
    assert buf.getvalue().splitlines()[0] == "n=2 l=4"
    back = load_table(io.StringIO(buf.getvalue()))
    assert isinstance(back, BooleanFunction)
    assert back == fn


def test_load_skips_comments_and_blank_lines():
    text = "# scrambler for the demo run\n\nn=1 l=1 perm=true\n1\n\n0\n"
    back = load_table(io.StringIO(text))
    assert back == BooleanPermutation(1, (1, 0))


def test_load_rejects_malformed_input():
    with pytest.raises(ValueError, match="empty"):
        load_table(io.StringIO("# nothing\n"))
    with pytest.raises(ValueError, match="header"):
        load_table(io.StringIO("n=1\n0\n1\n"))
    with pytest.raises(ValueError, match="malformed"):
        load_table(io.StringIO("bogus\n0\n1\n"))
    with pytest.raises(ValueError, match="bijection"):
        load_table(io.StringIO("n=1 l=1 perm=true\n0\n0\n"))
    with pytest.raises(ValueError, match="l=2 != n=1"):
        load_table(io.StringIO("n=1 l=2 perm=true\n0\n1\n"))


def test_file_round_trip(tmp_path):
    path = tmp_path / "fa.tbl"
    perm = sample_permutation(2, make_rng(10))
    save_table(perm, path)
    assert read_table(path) == perm
    entries = path.read_text().splitlines()[1:]
    assert all(e == e.lower() for e in entries)
