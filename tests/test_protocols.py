"""Protocol runners: honest correctness, channel views, lifecycles.

Channel snapshots are compared against closed-form states derived by
hand from each protocol's round structure: the three-pass runs are
exactly maximally mixed, the tagged rounds are diagonal graph states of
the relevant tag function, and only the pad-averaged views flatten to
the identity.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnokey import protocols
from qnokey.adversary import Attack, PhaseAttack, parse_attack
from qnokey.oracles import (
    EnumerationLimitError,
    enumerate_functions,
    make_rng,
    party_streams,
    sample_function,
    sample_pad,
    sample_permutation,
)
from qnokey.protocols import (
    ALICE,
    BOB,
    BROADCAST,
    EVE,
    INVERTED_TWO_PASS,
    PROTOCOL_IDS,
    ROUND_COUNTS,
    STAGES,
    Channel,
    TAGGED_THREE_PASS,
    UNTAGGED_THREE_PASS,
    Draws,
    Party,
    ProtocolError,
    Transcript,
    _round_secrets,
    check_session,
    eve_average_view,
    noninteractive_view,
    peak_live_width,
    run_protocol1,
    run_protocol2,
    run_protocol6,
    run_session,
    run_two_round,
    sample_draws,
    sample_shared_keys,
)
from qnokey.qstate import (
    DEFAULT_QUBIT_CAP,
    CompositeState,
    Register,
    as_matrix,
    init_basis_state,
    is_maximally_mixed,
    trace_distance,
)

def seeded_session(protocol, x, n, l=0, t=0, seed=0, **kw):
    rng = make_rng(seed)
    keys = None
    if protocol != "p1":
        keys = sample_shared_keys(protocol, n, l, t, rng.spawn(1)[0])
    return run_session(protocol, x, n, l, t, keys, rng=rng, **kw), keys


# -- honest correctness and round counts ---------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_honest_run_recovers_message_and_counts_rounds(protocol):
    n, l, t = 2, 1, 2
    for seed in range(3):
        for x in range(1 << n):
            tr, _ = seeded_session(protocol, x, n, l, t, seed=seed)
            assert tr.recovered == x
            assert tr.rounds == ROUND_COUNTS[protocol]
            assert [tx.round_index for tx in tr.transmissions] == \
                list(range(1, tr.rounds + 1))


def test_round_count_table_matches_contract():
    assert ROUND_COUNTS == {"p1": 3, "p2": 3, "p3": 9, "p4": 2, "p5": 6,
                            "p6": 4, "nonint": 1, "two-round": 2}


def test_three_stage_protocols_set_verdicts():
    for protocol in ("p3", "p5"):
        tr, _ = seeded_session(protocol, 1, 2, 2, seed=5)
        assert tr.alice_accepts is True
        assert tr.bob_accepts is True


def test_p1_smallest_case():
    tr = run_protocol1(0, 1, rng=make_rng(0))
    assert tr.recovered == 0


def test_p1_known_seed_case():
    tr = run_protocol1(5, 3, rng=make_rng(42))
    assert tr.recovered == 5
    for r in (1, 2, 3):
        ok, dev = is_maximally_mixed(tr.snapshot(r))
        assert ok and dev < 1e-10


def test_p2_and_p4_smallest_cases():
    tr, _ = seeded_session("p2", 0, 1, 1, seed=9)
    assert tr.recovered == 0
    tr, _ = seeded_session("p4", 1, 1, 1, seed=9)
    assert tr.recovered == 1


def test_p2_measurement_log_owners():
    # Pads come off in a fixed ownership order: the receiver reads the
    # sender's first pad, the sender reads the reply pad, the receiver
    # reads the final pad and then decodes.
    tr, _ = seeded_session("p2", 3, 2, 2, seed=1)
    owners = [(m.owner, m.register) for m in tr.measurements]
    assert owners == [("bob", "R3"), ("alice", "R5"), ("bob", "R6"), ("bob", "R1")]


def test_invalid_message_rejected():
    with pytest.raises(ProtocolError, match="fit"):
        run_protocol1(8, 3, rng=make_rng(0))
    with pytest.raises(ProtocolError, match=">= 1"):
        run_protocol1(0, 0, rng=make_rng(0))


# -- parameter validation and live widths ----------------------------------------


def test_params_reject_unknown_protocol():
    with pytest.raises(ProtocolError, match="unknown"):
        check_session("p7", 2)


def test_params_require_tag_width_for_keyed_protocols():
    with pytest.raises(ProtocolError, match="l >= 1"):
        check_session("p2", 2, 0)
    with pytest.raises(ProtocolError, match="t >= 1"):
        check_session("p6", 2, 1, 0)


def test_peak_live_width_formulas():
    assert peak_live_width("p1", 3) == (9, "3*3=9")
    assert peak_live_width("p2", 3, 2) == (11, "3*3+2=11")
    assert peak_live_width("p3", 2, 1) == (7, "3*2+1=7")
    assert peak_live_width("p4", 3, 2) == (8, "2*3+2=8")
    assert peak_live_width("two-round", 2, 2) == (6, "2*2+2=6")
    assert peak_live_width("p6", 2, 1, 3) == (11, "2*(2+3)+1=11")
    assert peak_live_width("nonint", 2, 1) == (3, "2+1=3")


def test_cap_rejection_reports_arithmetic():
    with pytest.raises(ProtocolError, match=r"3\*3\+3=12 qubits, cap is 11"):
        check_session("p2", 3, 3, qubit_cap=11)
    keys = sample_shared_keys("p2", 3, 3, 0, make_rng(0))
    with pytest.raises(ProtocolError, match=r"3\*3\+3=12"):
        run_protocol2(0, 3, 3, keys, rng=make_rng(0), qubit_cap=11)


def test_runs_at_exactly_the_cap():
    keys = sample_shared_keys("p2", 3, 3, 0, make_rng(1))
    tr = run_protocol2(6, 3, 3, keys, rng=make_rng(1), qubit_cap=12)
    assert tr.recovered == 6


def test_states_past_the_host_memory_are_refused_with_the_arithmetic(monkeypatch):
    # At 16 bytes per amplitude, a 10-qubit state fills 16 KiB exactly.
    monkeypatch.setattr(protocols, "HOST_MEMORY_BYTES", 16 << 10)
    assert check_session("p2", 3, 1, qubit_cap=64) == 3
    with pytest.raises(ProtocolError, match=r"p2 needs peak live width 3\*3\+2=11 qubits: "
                                            r"16\*2\*\*11=32768 bytes, above this host's "
                                            r"16384 bytes of memory"):
        check_session("p2", 3, 2, qubit_cap=64)
    # A k-qubit snapshot weighs as much as a 2k-qubit state.
    assert check_session("nonint", 2, 3, qubit_cap=64, snapshots=True) == 2
    assert check_session("nonint", 3, 3, qubit_cap=64) == 3
    with pytest.raises(ProtocolError, match=r"nonint needs 6-qubit snapshots, as large as a "
                                            r"2\*6=12-qubit state: 16\*2\*\*12=65536 bytes"):
        check_session("nonint", 3, 3, qubit_cap=64, snapshots=True)
    keys = sample_shared_keys("p2", 3, 2, 0, make_rng(0))
    with pytest.raises(ProtocolError, match="above this host's"):
        run_protocol2(0, 3, 2, keys, rng=make_rng(0), snapshots=False, qubit_cap=64)


# -- per-run channel snapshots -----------------------------------------------------


def test_p1_per_run_snapshots_are_exactly_mixed():
    for n in (1, 2, 3):
        for seed in range(5):
            tr = run_protocol1(seed % (1 << n), n, rng=make_rng(seed))
            for r in (1, 2, 3):
                ok, dev = is_maximally_mixed(tr.snapshot(r))
                assert ok and dev < 1e-10


@pytest.mark.parametrize("protocol", ["p2", "p3", "p4", "p5", "p6", "two-round"])
def test_per_run_snapshots_are_tag_graphs(protocol):
    # Round k in transit: R1 entangled with a kept bijection of itself,
    # so the channel state is diagonal, uniform over the graph of the
    # padded tag map active that round. The tag is the sender's own, read
    # here from the transcript, under that pass's pad.
    n, l, t = 2, 2, 1 if protocol == "p6" else 0
    rounds = [(stage, i) for stage, s in enumerate(STAGES[protocol])
              for i in range(s.exchange.passes)]
    for seed in range(4):
        tr, keys = seeded_session(protocol, 1, n, l, t, seed=seed)
        assert len(tr.transmissions) == len(rounds)
        for tx, (stage, i) in zip(tr.transmissions, rounds):
            s = STAGES[protocol][stage]
            fn = getattr(keys, f"{tx.sender}_tag{s.keys}")
            pad, width = tr.draws[stage].pads[i], s.bits(n, t)
            expect = np.zeros((1 << (width + l), 1 << (width + l)), dtype=np.complex128)
            for m in range(1 << width):
                idx = (m << l) | (fn.table[m] ^ pad)
                expect[idx, idx] = 1 / (1 << width)
            assert np.allclose(tr.snapshot(tx.round_index), expect, atol=1e-12), \
                (seed, tx.round_index)
            assert tx.snapshot.shape == (1 << (width + l),)  # stored as its diagonal


def test_p2_per_run_snapshot_is_not_maximally_mixed():
    tr, _ = seeded_session("p2", 1, 2, 1, seed=3)
    ok, dev = is_maximally_mixed(tr.snapshot(1))
    assert not ok
    assert dev >= 1 / 8  # a diagonal graph state sits far from I/2^(n+l)


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_channel_states_and_snapshots_are_exactly_real(protocol, monkeypatch):
    # Real amplitudes are what let the partial trace write most snapshots
    # as one float's square per entry; an amplitude with two nonzero parts
    # sends it back to the dense product. A gate that made complex
    # amplitudes would change both what Eve sees and which path runs, so it
    # must fail here first, on the state she sees or on her snapshot.
    trace = CompositeState.reduced_density_matrix
    real = []

    def checked(state, keep):
        real.append(not np.any(state.amplitudes.imag))
        return trace(state, keep)

    monkeypatch.setattr(CompositeState, "reduced_density_matrix", checked)
    for spec in ("none", "passive", "measure", "phase:x=1"):
        for seed in range(3):
            tr, _ = seeded_session(protocol, 1, 3, 2, 1, seed=seed, attack=parse_attack(spec))
            for tx in tr.transmissions:
                assert not np.any(tx.snapshot.imag), (spec, seed, tx.round_index)
    assert len(real) == 12 * ROUND_COUNTS[protocol] and all(real)


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_uncomputed_registers_are_dropped_without_the_xor_oracle(protocol, monkeypatch):
    # A party uncomputes a register only once it factors out, so each
    # uncompute-and-discard gathers the row it leaves and never falls back
    # to the XOR oracle plus the general discard: the only XOR calls left
    # are the tag strips, one for each tagged pass, under every attack.
    xor = CompositeState.apply_xor_oracle
    calls = []

    def counted(state, *args, **kwargs):
        calls.append(args[:2])
        return xor(state, *args, **kwargs)

    monkeypatch.setattr(CompositeState, "apply_xor_oracle", counted)
    strips = sum(stage.exchange.passes for stage in STAGES[protocol] if stage.exchange.tagged)
    for spec in ("none", "passive", "measure", "phase:x=1"):
        for seed in range(3):
            calls.clear()
            tr, _ = seeded_session(protocol, 1, 3, 2, 1, seed=seed, attack=parse_attack(spec))
            assert len(calls) == strips, (spec, seed, calls)
            assert len(tr.measurements) == strips + len(STAGES[protocol])


def dense_gram(state, keep):
    """The partial trace by the dense formula: the kept x traced matrix
    times its adjoint, kept registers first, each group in layout order."""
    order = sorted(range(len(state.registers)), key=lambda i: state.registers[i].name not in keep)
    mat = state.amplitudes.reshape([1 << r.width for r in state.registers]).transpose(order)
    mat = mat.reshape(1 << sum(r.width for r in state.registers if r.name in keep), -1)
    return mat @ mat.conj().T


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_snapshot_bytes_equal_the_dense_gram_product(protocol, monkeypatch):
    # A snapshot stored as its diagonal comes back as the matrix the dense
    # product of the state in transit gives, byte for byte, +0.0 zeros
    # included; one stored as a matrix is that product already.
    trace = CompositeState.reduced_density_matrix
    grams = []

    def recorded(state, keep):
        grams.append(dense_gram(state, set(keep)))
        return trace(state, keep)

    monkeypatch.setattr(CompositeState, "reduced_density_matrix", recorded)
    stored = set()
    for spec in ("none", "measure", "phase:x=1"):
        for seed in range(3):
            grams.clear()
            tr, _ = seeded_session(protocol, 1, 3, 2, 1, seed=seed, attack=parse_attack(spec))
            assert len(grams) == tr.rounds
            for tx, gram in zip(tr.transmissions, grams):
                rho = tr.snapshot(tx.round_index)
                assert rho.dtype == gram.dtype and rho.shape == gram.shape
                assert rho.tobytes() == gram.tobytes(), (spec, seed, tx.round_index)
                stored.add(tx.snapshot.ndim)
    assert 1 in stored


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(PROTOCOL_IDS), st.sampled_from(["none", "measure", "phase:x=1"]),
       st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1), st.data())
def test_mixedness_of_a_stored_snapshot_is_its_matrix(protocol, spec, n, l, seed, data):
    # The harness reads each snapshot as stored; its verdict and deviation
    # must be the matrix's, bit for bit, under every kind of pass.
    x = data.draw(st.integers(0, (1 << n) - 1), label="message")
    tr, _ = seeded_session(protocol, x, n, l, 1, seed=seed, attack=parse_attack(spec))
    for tx in tr.transmissions:
        ok, dev = is_maximally_mixed(tx.snapshot)
        matrix_ok, matrix_dev = is_maximally_mixed(tr.snapshot(tx.round_index))
        assert ok == matrix_ok and np.float64(dev).tobytes() == np.float64(matrix_dev).tobytes()


def test_snapshot_accessor_errors():
    tr, _ = seeded_session("p2", 1, 2, 1, seed=0, snapshots=False)
    assert tr.recovered == 1
    with pytest.raises(ValueError, match="without snapshots"):
        tr.snapshot(1)
    with pytest.raises(ValueError, match="round index"):
        Transcript("p2", 2, 1, 0, 1).snapshot(4)


# -- averaged channel views ---------------------------------------------------------


def test_p2_pad_average_is_maximally_mixed():
    for n, l in ((2, 1), (2, 2)):
        tr, keys = seeded_session("p2", 3, n, l, seed=13)
        views = eve_average_view(tr, keys=keys, average_over=("pads",))
        assert [view.round_index for view in views] == [1, 2, 3]
        for view in views:
            ok, dev = is_maximally_mixed(view.rho, tol=1e-9)
            assert ok and dev <= 1e-12
            assert view.runs == 1 << l


def test_p4_pad_average_is_maximally_mixed():
    tr, keys = seeded_session("p4", 2, 2, 2, seed=14)
    views = eve_average_view(tr, keys=keys, average_over=("pads",))
    assert [view.round_index for view in views] == [1, 2]
    for view in views:
        ok, dev = is_maximally_mixed(view.rho, tol=1e-9)
        assert ok and dev <= 1e-12


def test_pad_and_key_average_matches_pad_only_result():
    tr, keys = seeded_session("p2", 1, 2, 1, seed=15)
    pads_only = eve_average_view(tr, (1,), keys=keys, average_over=("pads",))[0]
    both = eve_average_view(tr, (1,), keys=keys, average_over=("pads", "keys"))[0]
    assert both.runs == 2 * 16
    assert np.allclose(as_matrix(pads_only.rho), as_matrix(both.rho), atol=1e-12)


def test_density_matrices_are_complex128_arrays():
    tr, keys = seeded_session("p2", 1, 2, 1, seed=16)
    (view,) = eve_average_view(tr, (1,), keys=keys)
    for rho in (tr.snapshot(1), tr.transmissions[1].snapshot, view.rho,
                noninteractive_view(1, 2, 1)):
        assert type(rho) is np.ndarray and rho.dtype == np.complex128


def test_empty_average_returns_per_run_snapshot():
    tr, keys = seeded_session("p2", 1, 2, 1, seed=16)
    view = eve_average_view(tr, (1,), keys=keys, average_over=())[0]
    assert (view.round_index, view.runs) == (1, 1)
    # The stored form, a diagonal as its diagonal, which expands to the matrix.
    assert view.rho.tobytes() == tr.stored_snapshot(1).tobytes()
    assert view.rho.ndim == 1
    assert as_matrix(view.rho).tobytes() == tr.snapshot(1).tobytes()


def test_average_rejects_unknown_kind_and_limits():
    tr, keys = seeded_session("p2", 1, 2, 1, seed=17)
    with pytest.raises(ValueError, match="unknown averaging"):
        eve_average_view(tr, (1,), keys=keys, average_over=("noise",))
    with pytest.raises(EnumerationLimitError):
        eve_average_view(tr, (1,), keys=keys, average_over=("pads",), enum_limit=1)
    with pytest.raises(EnumerationLimitError):
        eve_average_view(tr, (1,), keys=keys, average_over=("pads", "keys"),
                         enum_limit=8)
    # 16 pads and 2^16 functions each fit the default limit; their product does not.
    tr, keys = seeded_session("p2", 1, 2, 4, seed=17)
    with pytest.raises(EnumerationLimitError) as err:
        eve_average_view(tr, (1,), keys=keys, average_over=("pads", "keys"))
    assert err.value.count == 16 << 16


def rerun_average(tr, round_index, keys, kinds):
    """Reference mixture: re-run the honest session once per enumerated
    secret with that secret substituted, and average the snapshots."""
    stage, i, tag_attr = _round_secrets(tr.protocol, round_index)
    stages = list(tr.draws)
    base_fn = getattr(keys, tag_attr)
    pads = range(1 << tr.l) if "pads" in kinds else [stages[stage].pads[i]]
    fns = list(enumerate_functions(base_fn.n, base_fn.l)) if "keys" in kinds else [base_fn]
    total = None
    for pad, fn in itertools.product(pads, fns):
        stage_pads = list(stages[stage].pads)
        stage_pads[i] = pad
        stages[stage] = replace(stages[stage], pads=tuple(stage_pads))
        redo = run_session(tr.protocol, tr.message, tr.n, tr.l, tr.t,
                           replace(keys, **{tag_attr: fn}), rng=0, draws=tuple(stages))
        snap = redo.snapshot(round_index)
        total = snap if total is None else total + snap
    return total / (len(pads) * len(fns))


@pytest.mark.parametrize("protocol", [p for p in PROTOCOL_IDS if p != "p1"])
def test_average_view_is_bit_exact_against_reruns(protocol):
    # Honest and attacked transcripts all average the honest channel, so
    # an attacked one must not leak its own snapshot in. One all-rounds
    # call must give every round the bytes of that round's own reruns.
    # Every honest snapshot but the broadcast's pure one is diagonal, so
    # those views are kept 1-D, and their expansion carries those bytes.
    t = 1 if protocol == "p6" else 0
    rounds = list(range(1, ROUND_COUNTS[protocol] + 1))
    ndim = 2 if protocol == "nonint" else 1
    attacks = (None, parse_attack("passive"), PhaseAttack(mask=1), parse_attack("measure"))
    for n, l, kinds in ((2, 2, ("pads",)), (1, 1, ("pads", "keys"))):
        keys = sample_shared_keys(protocol, n, l, t, make_rng(40 + n))
        x = (1 << n) - 1
        for attack in attacks:
            tr = run_session(protocol, x, n, l, t, keys, rng=make_rng(n + l), attack=attack)
            views = eve_average_view(tr, keys=keys, average_over=kinds)
            assert [view.round_index for view in views] == rounds
            for view in views:
                r = view.round_index
                assert view.rho.ndim == ndim, (n, l, kinds, attack, r)
                assert as_matrix(view.rho).tobytes() == \
                    rerun_average(tr, r, keys, kinds).tobytes(), (n, l, kinds, attack, r)
        # Views come back in the order asked, with the same bytes.
        backwards = eve_average_view(tr, rounds[::-1], keys=keys, average_over=kinds)
        assert [view.round_index for view in backwards] == rounds[::-1]
        for a, b in zip(views[::-1], backwards):
            assert a.rho.tobytes() == b.rho.tobytes() and a.runs == b.runs


def test_average_view_refuses_every_round_before_running_a_session(monkeypatch):
    import qnokey.protocols as protocols

    sessions = []
    real = protocols.run_session

    def counting(*args, **kw):
        sessions.append(args[0])
        return real(*args, **kw)

    # p6 sends n+t bits in rounds 1-2, then t bits in rounds 3-4: at n=1,
    # t=2 and l=1 round 1 enumerates 2 pads times 2^8 functions, round 4
    # 2 pads times 2^4.
    keys = sample_shared_keys("p6", 1, 1, 2, make_rng(50))
    tr = run_session("p6", 1, 1, 1, 2, keys, rng=make_rng(51))
    monkeypatch.setattr(protocols, "run_session", counting)
    both = ("pads", "keys")
    assert eve_average_view(tr, (4,), keys=keys, average_over=both)[0].runs == 32
    assert sessions == ["p6"]
    sessions.clear()
    with pytest.raises(EnumerationLimitError) as err:
        eve_average_view(tr, (4, 1), keys=keys, average_over=both, enum_limit=100)
    assert err.value.count == 2 << 8
    with pytest.raises(ValueError, match="rounds 1..4, got 5"):
        eve_average_view(tr, (1, 5), keys=keys)
    with pytest.raises(ValueError, match="rounds 1..4, got 0"):
        eve_average_view(tr, (0,), keys=keys)
    assert sessions == []


def test_averaged_views_identical_under_key_reuse():
    # Same tag functions, fresh pads, many runs: the pad-averaged view
    # never moves. Numeric witness that the tag keys are reusable.
    rng = make_rng(19)
    keys = sample_shared_keys("p2", 2, 1, 0, rng.spawn(1)[0])
    reference = None
    for _ in range(1000):
        tr = run_protocol2(2, 2, 1, keys, rng=rng)
        assert tr.recovered == 2
        view = eve_average_view(tr, (1,), keys=keys, average_over=("pads",))[0]
        if reference is None:
            reference = view.rho
        else:
            assert np.max(np.abs(as_matrix(view.rho) - as_matrix(reference))) <= 1e-9


def test_two_round_views_are_message_independent():
    n, l = 2, 1
    rng = make_rng(20)
    keys = sample_shared_keys("two-round", n, l, 0, rng.spawn(1)[0])
    draws = sample_draws("two-round", n, l, 0, rng.spawn(1)[0])
    views = {}
    for x in (0, 3):
        tr = run_two_round(x, n, l, keys, rng=rng, draws=draws)
        views[x] = [view.rho for view in eve_average_view(tr, keys=keys,
                                                          average_over=("pads",))]
    for r in (0, 1):
        assert trace_distance(views[0][r], views[3][r]) <= 1e-9


@pytest.mark.parametrize("protocol", [p for p in PROTOCOL_IDS if p != "p1"])
def test_distances_of_stored_views_are_their_matrices_distances(protocol):
    # Per-run snapshots and pad-averaged views as stored, over every
    # message and two draws of keys and secrets: each pair of one round
    # has the distance of its expanded matrices, bit for bit, either way.
    def bits(d):
        return np.float64(d).tobytes()

    t = 1 if protocol == "p6" else 0
    for n, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        by_round: dict[int, list] = {}
        for seed in (0, 1):
            keys = sample_shared_keys(protocol, n, l, t, make_rng(60 + seed))
            draws = sample_draws(protocol, n, l, t, make_rng(70 + seed))
            for x in range(1 << n):
                tr = run_session(protocol, x, n, l, t, keys, rng=make_rng(seed), draws=draws)
                for view in eve_average_view(tr, keys=keys):
                    by_round.setdefault(view.round_index, []).extend(
                        [tr.stored_snapshot(view.round_index), view.rho])
        apart = 0
        for rhos in by_round.values():
            assert {rho.ndim for rho in rhos} == {2 if protocol == "nonint" else 1}
            for a, b in itertools.combinations(rhos, 2):
                d = trace_distance(a, b)
                assert bits(d) == bits(trace_distance(b, a)) == \
                    bits(trace_distance(as_matrix(a), as_matrix(b))), (n, l)
                apart += d > 0.1
        assert apart, (n, l)  # the per-run snapshots are not all alike


# -- draw records and replay ---------------------------------------------------------


def test_sample_draws_mirrors_runner_streams():
    for protocol in PROTOCOL_IDS:
        n, l, t = 2, 1, 2
        keys = sample_shared_keys(protocol, n, l, t, make_rng(99)) \
            if protocol != "p1" else None
        a = run_session(protocol, 1, n, l, t, keys, rng=make_rng(33))
        pre = sample_draws(protocol, n, l, t, make_rng(33))
        b = run_session(protocol, 1, n, l, t, keys, rng=make_rng(33), draws=pre)
        assert a.draws == b.draws
        assert [m.outcome for m in a.measurements] == \
            [m.outcome for m in b.measurements]


def test_no_seed_means_seed_zero():
    # Every sampler reads rng=None as seed 0, as the runners always have.
    assert sample_shared_keys("p2", 2, 1, 0, None) == sample_shared_keys("p2", 2, 1, 0, 0)
    assert sample_draws("p3", 2, 1, 0, None) == sample_draws("p3", 2, 1, 0, 0)
    assert run_protocol1(3, 2).draws == run_protocol1(3, 2, rng=0).draws


def test_p1_draw_width_validated():
    draws = sample_draws("p1", 3, 0, 0, make_rng(0))
    with pytest.raises(ProtocolError, match="width"):
        run_protocol1(1, 2, rng=make_rng(0), draws=draws)
    draws = sample_draws("p2", 3, 1, 0, make_rng(0))
    keys = sample_shared_keys("p2", 2, 1, 0, make_rng(0))
    with pytest.raises(ProtocolError, match="sender_perm has width 3"):
        run_protocol2(1, 2, 1, keys, rng=make_rng(0), draws=draws)


def test_draws_of_the_wrong_shape_are_refused():
    # Draws are a tuple with one record per stage, each of its stage's
    # exchange record type; any other shape is refused before running.
    n, l = 2, 1
    keys = sample_shared_keys("p3", n, l, 0, make_rng(0))
    (single,) = sample_draws("p2", n, l, 0, make_rng(0))
    staged = sample_draws("p3", n, l, 0, make_rng(0))
    (inverted,) = sample_draws("p4", n, l, 0, make_rng(0))
    for protocol, draws in [("p3", single), ("p3", (single,)), ("p3", staged[:2] + (inverted,)),
                            ("p2", staged), ("p2", single), ("p2", (inverted,)),
                            ("p2", [single]), ("p4", (single,))]:
        with pytest.raises(ProtocolError, match=f"{protocol} draws are a tuple of one record"):
            run_session(protocol, 1, n, l, 0, keys, rng=make_rng(0), draws=draws)
    assert run_session("p3", 1, n, l, 0, keys, rng=make_rng(0), draws=staged).recovered == 1


def _reference_draws(exchange, n, l, sender_rng, receiver_rng):
    """Each exchange's draws written out by hand, in the order its secrets
    are drawn: the permutations, then each pass's pad from its owner."""
    if exchange is UNTAGGED_THREE_PASS:
        return Draws(sample_permutation(n, sender_rng), sample_permutation(n, receiver_rng))
    if exchange is TAGGED_THREE_PASS:
        return Draws(
            sender_perm=sample_permutation(n, sender_rng),
            receiver_perm=sample_permutation(n, receiver_rng),
            pads=(sample_pad(l, sender_rng),
                  sample_pad(l, receiver_rng),
                  sample_pad(l, sender_rng)),
        )
    if exchange is INVERTED_TWO_PASS:
        return Draws(
            sender_perm=None,
            receiver_perm=sample_permutation(n, receiver_rng),
            pads=(sample_pad(l, receiver_rng),
                  sample_pad(l, sender_rng)),
        )
    assert exchange is BROADCAST
    return Draws(None, None, (sample_pad(l, sender_rng),))


def test_exchange_sample_matches_the_reference_samplers():
    exchanges = {stage.exchange for stages in STAGES.values() for stage in stages}
    assert exchanges == {UNTAGGED_THREE_PASS, TAGGED_THREE_PASS, INVERTED_TWO_PASS, BROADCAST}
    for exchange, n, l, seed in itertools.product(exchanges, (1, 2, 3, 5), (1, 2, 3), range(8)):
        derived = party_streams(seed, 2)
        reference = party_streams(seed, 2)
        assert exchange.sample(n, l, *derived) == _reference_draws(exchange, n, l, *reference)
        # Both streams are left at the same position.
        assert [int(g.integers(1 << 30)) for g in derived] == \
            [int(g.integers(1 << 30)) for g in reference]


class CutAt(Attack):
    """Keep the pass of round `cut`; let every other pass through."""

    def __init__(self, cut):
        self.cut = cut

    def on_transmission(self, state, round_index, names, rng, events):
        return None if round_index == self.cut else state


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_a_cut_pass_ends_the_session_with_no_decode_or_verdict(protocol):
    t = 1 if protocol == "p6" else 0
    for cut in range(1, ROUND_COUNTS[protocol] + 1):
        for snapshots in (False, True):
            tr, _ = seeded_session(protocol, 1, 2, 1, t, seed=cut, attack=CutAt(cut),
                                   snapshots=snapshots)
            assert [tx.round_index for tx in tr.transmissions] == list(range(1, cut + 1))
            assert tr.transmissions[-1].snapshot is None
            assert all((tx.snapshot is not None) == snapshots for tx in tr.transmissions[:-1])
            assert (tr.recovered, tr.alice_accepts, tr.bob_accepts, tr.mac_accepts) == \
                (None, None, None, None), (cut, snapshots)


@pytest.mark.parametrize("protocol", [p for p in PROTOCOL_IDS if p != "p1"])
def test_keyed_session_without_keys_is_refused(protocol):
    t = 2 if protocol == "p6" else 0
    with pytest.raises(ProtocolError, match=f"{protocol} needs"):
        run_session(protocol, 1, 2, 1, t, None)


def test_tag_function_shape_checked_against_the_stage():
    keys = sample_shared_keys("nonint", 3, 1, 0, make_rng(0))
    with pytest.raises(ProtocolError, match=r"alice_tag of shape 2->1, got 3->1"):
        run_session("nonint", 1, 2, 1, 0, keys)
    keys = sample_shared_keys("p6", 2, 1, 2, make_rng(0))
    keys = replace(keys, bob_tag_echo=None)
    with pytest.raises(ProtocolError, match="p6 needs the tag function bob_tag_echo of shape "
                                            "2->1, got none"):
        run_protocol6(1, 2, 1, 2, keys, rng=make_rng(0))


# -- the exchange runner against hand-written references ------------------------------
#
# Each exchange's turns written out by hand, the reference for
# Exchange.run, which reads them from the pass table. They share no code
# with it beyond the state kernels and the channel.


def _reference_untagged_three_pass(channel, x, n, l, sender, receiver, draws):
    sh, rh = sender.name, receiver.name
    state = init_basis_state([Register("R1", n, sh)], {"R1": x}, qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, sh, source="R1", table=draws.sender_perm.table)
    state = channel.send(state, ("R1",), sender, receiver)

    state = state.extend("R3", n, rh, source="R1", table=draws.receiver_perm.table)
    state = channel.send(state, ("R1",), receiver, sender)

    state = state.discard("R2", source="R1", table=draws.sender_perm.table)
    state = channel.send(state, ("R1",), sender, receiver)

    state = state.discard("R3", source="R1", table=draws.receiver_perm.table)
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


def _reference_tagged_three_pass(channel, x, n, l, sender, receiver, draws):
    sh, rh = sender.name, receiver.name
    state = init_basis_state([Register("R1", n, sh)], {"R1": x}, qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, sh, source="R1", table=draws.sender_perm.table)
    state = state.extend("R3", l, sh, draws.pads[0], source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R3"), sender, receiver)

    state = state.apply_xor_oracle("R1", "R3", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R3", discard=True)
    state = state.extend("R4", n, rh, source="R1", table=draws.receiver_perm.table)
    state = state.extend("R5", l, rh, draws.pads[1], source="R1", table=receiver.tags_with.table)
    state = channel.send(state, ("R1", "R5"), receiver, sender)

    state = state.discard("R2", source="R1", table=draws.sender_perm.table)
    state = state.apply_xor_oracle("R1", "R5", sender.strips_with.table)
    _, state = channel.measure(state, sender, "R5", discard=True)
    state = state.extend("R6", l, sh, draws.pads[2], source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R6"), sender, receiver)

    state = state.discard("R4", source="R1", table=draws.receiver_perm.table)
    state = state.apply_xor_oracle("R1", "R6", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R6", discard=True)
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


def _reference_inverted_two_pass(channel, x, n, l, sender, receiver, draws):
    sh, rh = sender.name, receiver.name
    state = init_basis_state([Register("R1", n, rh)], None, qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, rh, source="R1", table=draws.receiver_perm.table)
    state = state.extend("R3", l, rh, draws.pads[0], source="R1",
                         table=receiver.tags_with.table)
    state = channel.send(state, ("R1", "R3"), receiver, sender)

    state = state.apply_xor_oracle("R1", "R3", sender.strips_with.table)
    _, state = channel.measure(state, sender, "R3", discard=True)
    state = state.apply_phase_flip("R1", x)
    state = state.extend("R4", l, sh, draws.pads[1], source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R4"), sender, receiver)

    # The one order that differs from Exchange.run: strip, then uncompute.
    state = state.apply_xor_oracle("R1", "R4", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R4", discard=True)
    state = state.discard("R2", source="R1", table=draws.receiver_perm.table)
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


def _reference_broadcast(channel, x, n, l, sender, receiver, draws):
    sh = sender.name
    state = init_basis_state([Register("R1", n, sh)], {"R1": x}, qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", l, sh, draws.pads[0], source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R2"), sender, receiver)

    state = state.apply_xor_oracle("R1", "R2", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R2", discard=True)
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


REFERENCE_RUNS = {
    UNTAGGED_THREE_PASS: _reference_untagged_three_pass,
    TAGGED_THREE_PASS: _reference_tagged_three_pass,
    INVERTED_TWO_PASS: _reference_inverted_two_pass,
    BROADCAST: _reference_broadcast,
}


def _observed_exchange(run, exchange, n, l, spec, seed, eve_sends):
    """Run one exchange with `run` and return all it left observable: the
    decoded value, the measurement records, the attack events, each pass's
    registers and snapshot bytes, and where each party's stream stands."""
    key_rng, sender_rng, receiver_rng, eve_rng = party_streams(seed, 4)
    own, peer = sample_function(n, l, key_rng), sample_function(n, l, key_rng)
    if eve_sends:
        # Eve in the sender's seat of the echo-stage hijack: her tables are
        # substitutes, and the receiver strips with the real shared function.
        sender = Party(EVE, sender_rng, sample_function(n, l, key_rng),
                       sample_function(n, l, key_rng))
        receiver = Party(ALICE, receiver_rng, own, peer)
    else:
        sender = Party(ALICE, sender_rng, own, peer)
        receiver = Party(BOB, receiver_rng, peer, own)
    draws = exchange.sample(n, l, sender_rng, receiver_rng)
    tr = Transcript("exchange", n, l, 0, seed % (1 << n))
    channel = Channel(tr, parse_attack(spec), eve_rng, True, DEFAULT_QUBIT_CAP)
    decoded = run(channel, tr.message, n, l, sender, receiver, draws)
    return (
        decoded,
        [(m.owner, m.register, m.width, m.outcome) for m in tr.measurements],
        tr.attack_events,
        [(tx.round_index, tx.sender, tx.receiver, tx.registers, tx.snapshot.tobytes())
         for tx in tr.transmissions],
        [int(g.integers(1 << 30)) for g in (sender_rng, receiver_rng, eve_rng)],
    )


@pytest.mark.parametrize("exchange", list(REFERENCE_RUNS),
                         ids=lambda e: REFERENCE_RUNS[e].__name__.removeprefix("_reference_"))
def test_exchange_run_matches_the_reference_runners(exchange):
    exchanges = {stage.exchange for stages in STAGES.values() for stage in stages}
    assert exchanges == set(REFERENCE_RUNS)
    cases = itertools.product(("none", "passive", "phase:x=1", "measure"), (1, 2, 3),
                              range(6), (False, True))
    for spec, n, seed, eve_sends in cases:
        l = 1 + seed % 2
        args = (exchange, n, l, spec, seed, eve_sends)
        assert _observed_exchange(exchange.run, *args) == \
            _observed_exchange(REFERENCE_RUNS[exchange], *args), args


# -- authenticated protocol verdicts ---------------------------------------------------


def test_p6_honest_verdicts():
    tr, _ = seeded_session("p6", 2, 2, 2, t=3, seed=21)
    assert tr.recovered == 2
    assert tr.mac_accepts is True
    assert tr.bob_accepts is True
    assert tr.alice_accepts is True
    assert tr.rounds == 4


def test_p6_requires_full_key_bundle():
    keys = sample_shared_keys("p2", 2, 1, 0, make_rng(0))
    with pytest.raises(ProtocolError, match="authentication key"):
        run_protocol6(1, 2, 1, 3, keys, rng=make_rng(0))


def test_p6_rejects_key_width_mismatch():
    keys = sample_shared_keys("p6", 2, 1, 3, make_rng(2))
    with pytest.raises(ProtocolError, match="width"):
        run_protocol6(1, 2, 1, 4, keys, rng=make_rng(2))


# -- one-shot broadcast -----------------------------------------------------------------


def test_noninteractive_decodes_for_key_holder():
    for x in range(4):
        tr, _ = seeded_session("nonint", x, 2, 1, seed=23)
        assert tr.recovered == x
        assert tr.rounds == 1


def test_noninteractive_view_is_valid_state():
    rho = noninteractive_view(2, 2, 1)
    assert abs(rho.trace() - 1.0) <= 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert trace_distance(rho, rho) == 0.0


def test_noninteractive_view_matches_closed_form():
    # For m != m' the tag values decouple from the pad average, leaving
    # weight 1/2^(n+2l) at every (a, a') pair with the phase of the
    # message; the m = m' block is diagonal. Direct from the mixture.
    n, l = 2, 1
    for x in range(4):
        rho = noninteractive_view(x, n, l)
        dim = 1 << (n + l)
        expect = np.zeros((dim, dim), dtype=np.complex128)
        for m in range(1 << n):
            for m2 in range(1 << n):
                for a in range(1 << l):
                    for a2 in range(1 << l):
                        i, j = (m << l) | a, (m2 << l) | a2
                        if m == m2:
                            if a == a2:
                                expect[i, j] = 1 / (1 << (n + l))
                        else:
                            sign = (-1) ** bin(x & (m ^ m2)).count("1")
                            expect[i, j] = sign / (1 << (n + 2 * l))
        assert np.allclose(rho, expect, atol=1e-12)


def test_noninteractive_view_distances_are_half():
    # Exact enumeration at n=2, l=1: every message pair sits at trace
    # distance exactly 1/2.
    views = {x: noninteractive_view(x, 2, 1) for x in range(4)}
    for x in range(4):
        for y in range(x + 1, 4):
            assert abs(trace_distance(views[x], views[y]) - 0.5) <= 1e-9


def test_noninteractive_view_rejects_large_enumerations():
    with pytest.raises(EnumerationLimitError) as err:
        noninteractive_view(0, 3, 3)
    assert err.value.count == (1 << 24) << 3
