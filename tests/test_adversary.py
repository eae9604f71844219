"""Adversary strategies: parsing, attack algebra, detection statistics."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnokey import adversary
from qnokey.adversary import (
    ATTACK_KINDS,
    Attack,
    AttackSpecError,
    MeasureResendAttack,
    MimMarker,
    PassiveAttack,
    PhaseAttack,
    echo_detection_experiment,
    impersonate_echo_stage,
    mim_full_impersonation,
    parse_attack,
    passive_snapshot,
)
from qnokey.auth import mac_tag, mac_verify
from qnokey.oracles import make_rng, party_streams, sample_function
from qnokey.protocols import (
    ALICE,
    EVE,
    ROUND_COUNTS,
    STAGES,
    Channel,
    Party,
    ProtocolError,
    Transcript,
    eve_average_view,
    run_protocol1,
    run_protocol2,
    run_protocol3,
    run_protocol6,
    run_session,
    sample_draws,
    sample_shared_keys,
)
from qnokey.qstate import DEFAULT_QUBIT_CAP, Register, _row_weights, as_matrix, init_basis_state


def keys_for(protocol, n, l, t=0, seed=0):
    return sample_shared_keys(protocol, n, l, t, make_rng(seed))


# -- attack string mini-language ---------------------------------------------------


def test_parse_none_forms():
    assert parse_attack(None) is None
    assert parse_attack("") is None
    assert parse_attack("none") is None


def test_parse_passive():
    attack = parse_attack("passive")
    assert isinstance(attack, PassiveAttack)


def test_parse_phase_all_passes():
    attack = parse_attack("phase:x=0x3")
    assert isinstance(attack, PhaseAttack)
    assert attack.mask == 3
    assert attack.passes is None


def test_parse_phase_with_pass_list():
    attack = parse_attack("phase:x=5,passes=1,3")
    assert attack.mask == 5
    assert attack.passes == frozenset({1, 3})


def test_parse_measure_variants():
    assert isinstance(parse_attack("measure"), MeasureResendAttack)
    attack = parse_attack("measure:passes=2")
    assert attack.passes == frozenset({2})


def test_parse_mim_marker():
    attack = parse_attack("mim")
    assert isinstance(attack, MimMarker)
    with pytest.raises(AttackSpecError, match="whole-session"):
        attack.on_transmission(None, 1, ("R1",), make_rng(0), [])


def test_parse_rejects_malformed_strings():
    with pytest.raises(AttackSpecError, match="needs x="):
        parse_attack("phase")
    with pytest.raises(AttackSpecError, match="bad mask"):
        parse_attack("phase:x=zz")
    with pytest.raises(AttackSpecError, match="unknown options"):
        parse_attack("phase:x=1,foo=2")
    with pytest.raises(AttackSpecError, match="unknown attack kind"):
        parse_attack("warp")
    with pytest.raises(AttackSpecError, match="bad passes"):
        parse_attack("measure:passes=a")
    with pytest.raises(AttackSpecError, match="malformed attack option"):
        parse_attack("measure:3")
    # A repeated option is ambiguous, and an empty pass list would give an
    # attack that touches no pass yet still counts as an attack.
    with pytest.raises(AttackSpecError, match="repeated option 'x'"):
        parse_attack("phase:x=1,x=2")
    with pytest.raises(AttackSpecError, match="repeated option 'passes'"):
        parse_attack("measure:passes=1,passes=2")
    with pytest.raises(AttackSpecError, match="empty passes list"):
        parse_attack("phase:x=1,passes=")
    with pytest.raises(AttackSpecError, match="empty passes list"):
        parse_attack("measure:passes=,")
    # A pass list runs to the next option only, and has no empty entries.
    with pytest.raises(AttackSpecError, match="malformed attack option '3'"):
        parse_attack("phase:passes=1,x=5,3")
    with pytest.raises(AttackSpecError, match="empty passes list entry"):
        parse_attack("measure:passes=1,,3")
    with pytest.raises(AttackSpecError, match="empty passes list entry"):
        parse_attack("phase:x=1,passes=1,")


SPEC_PIECES = ["phase", "measure", "passive", "mim", "none", "warp", ":", ",", "=",
               "x", "passes", "all", "0x", "1", "3", "f", "-", " "]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(SPEC_PIECES)).map("".join)))
def test_parse_any_text_gives_none_an_attack_or_a_refusal(spec):
    try:
        attack = parse_attack(spec)
    except AttackSpecError:
        return
    assert attack is None or isinstance(attack, Attack)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(ATTACK_KINDS)), mask=st.integers(0, 1 << 12),
       order=st.lists(st.integers(1, 12), unique=True, max_size=4),
       spell_all=st.booleans(), hexed=st.booleans(), passes_first=st.booleans())
def test_parse_reads_every_declared_field(kind, mask, order, spell_all, hexed, passes_first):
    number = hex if hexed else str
    cls, takes = ATTACK_KINDS[kind]
    options = {"x": f"x={number(mask)}"}
    if order:
        options["passes"] = "passes=" + ",".join(map(number, order))
    elif spell_all:
        options["passes"] = "passes=all"
    chosen = [options[o] for o in takes if o in options]
    if passes_first:
        chosen.reverse()
    attack = parse_attack(kind + (":" + ",".join(chosen) if chosen else ""))
    assert type(attack) is cls
    if "x" in takes:
        assert attack.mask == mask
    if "passes" in takes:
        assert attack.passes == (frozenset(order) if order else None)


# -- phase flips in transit ----------------------------------------------------------


def test_phase_attack_on_one_pass_shifts_decode():
    n = 2
    for mask in range(1 << n):
        for target_pass in (1, 2, 3):
            for x in range(1 << n):
                tr = run_protocol1(
                    x, n, rng=make_rng(7),
                    attack=PhaseAttack(mask, frozenset({target_pass})),
                )
                assert tr.recovered == x ^ mask


def test_phase_attack_on_two_passes_cancels():
    for x in range(8):
        tr = run_protocol1(x, 3, rng=make_rng(8),
                           attack=PhaseAttack(0b101, frozenset({1, 3})))
        assert tr.recovered == x
        assert len(tr.attack_events) == 2


def test_phase_attack_on_all_passes_shifts_decode():
    tr = run_protocol1(1, 2, rng=make_rng(9), attack=PhaseAttack(2))
    assert tr.recovered == 1 ^ 2
    assert len(tr.attack_events) == 3


def test_phase_attack_leaves_snapshots_unchanged():
    # The flip is diagonal in the scrambled basis, so every channel
    # state it touches is exactly the honest one.
    keys = keys_for("p2", 2, 2)
    honest = run_protocol2(1, 2, 2, keys, rng=make_rng(11))
    attacked = run_protocol2(1, 2, 2, keys, rng=make_rng(11),
                             attack=PhaseAttack(3))
    for r in (1, 2, 3):
        assert np.allclose(honest.snapshot(r), attacked.snapshot(r), atol=1e-12)


def test_zero_mask_phase_attack_is_invisible():
    tr_honest = run_protocol1(2, 2, rng=make_rng(12))
    tr_zero = run_protocol1(2, 2, rng=make_rng(12), attack=PhaseAttack(0))
    assert tr_zero.recovered == tr_honest.recovered == 2
    assert [m.outcome for m in tr_zero.measurements] == \
        [m.outcome for m in tr_honest.measurements]
    assert len(tr_zero.attack_events) == 3


def test_phase_attack_flags_echoed_protocol():
    keys = keys_for("p3", 2, 1, seed=3)
    # Stage one corrupted: Bob's two receptions disagree and the echo
    # comes back shifted, so both parties reject.
    tr = run_protocol3(1, 2, 1, keys, rng=make_rng(13),
                       attack=PhaseAttack(2, frozenset({1})))
    assert tr.recovered == 1 ^ 2
    assert tr.bob_accepts is False
    assert tr.alice_accepts is False
    # Echo stage corrupted: the message itself arrives intact twice but
    # the echo comes back wrong, so only Alice rejects.
    tr = run_protocol3(1, 2, 1, keys, rng=make_rng(13),
                       attack=PhaseAttack(2, frozenset({4})))
    assert tr.recovered == 1
    assert tr.bob_accepts is True
    assert tr.alice_accepts is False


def test_phase_attack_on_authenticated_protocol_hits_mac():
    n, l, t = 2, 1, 3
    keys = keys_for("p6", n, l, t, seed=4)
    x = 2
    for xp in range(1 << n):
        tr = run_protocol6(x, n, l, t, keys, rng=make_rng(14),
                           attack=PhaseAttack(xp << t, frozenset({2})))
        assert tr.recovered == x ^ xp
        expected = mac_verify(keys.mac_key, x ^ xp, n,
                              mac_tag(keys.mac_key, x, n))
        assert tr.mac_accepts == expected
        if xp == 0:
            assert tr.mac_accepts is True


# -- collapse by measurement -------------------------------------------------------


def test_measure_attack_logs_every_register():
    keys = keys_for("p2", 2, 1)
    tr = run_protocol2(1, 2, 1, keys, rng=make_rng(15), attack=MeasureResendAttack())
    # three rounds, two registers on the wire each.
    assert len(tr.attack_events) == 6
    assert all(ev["attack"] == "measure" for ev in tr.attack_events)


def test_measure_attack_randomises_untagged_decode():
    # Full collapse of the scrambled register makes Bob's decode
    # uniform; 800 seeded trials, binomial three-sigma window.
    n, trials, x = 2, 800, 1
    hits = 0
    for seed in range(trials):
        tr = run_protocol1(x, n, rng=make_rng(seed), attack=MeasureResendAttack(),
                           snapshots=False)
        hits += tr.recovered == x
    p = 1 / (1 << n)
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) <= 3 * sigma


def test_measure_attack_on_one_pass_only():
    tr = run_protocol1(1, 2, rng=make_rng(16),
                       attack=MeasureResendAttack(frozenset({2})))
    assert len(tr.attack_events) == 1
    assert tr.attack_events[0]["round"] == 2


# -- full impersonation of the unauthenticated protocol ------------------------------


def test_mim_splits_session_deterministically():
    n = 2
    for x in range(1 << n):
        for x_eve in range(1 << n):
            toward_eve, toward_bob = mim_full_impersonation(x, x_eve, n, rng=make_rng(17))
            assert toward_eve.recovered == x
            assert toward_bob.recovered == x_eve
            assert toward_eve.protocol == toward_bob.protocol == "p1"


def test_mim_halves_are_honest_sessions():
    toward_eve, toward_bob = mim_full_impersonation(3, 0, 2, rng=make_rng(18))
    assert (toward_eve.message, toward_eve.recovered) == (3, 3)
    assert (toward_bob.message, toward_bob.recovered) == (0, 0)
    assert toward_eve.attack_events == toward_bob.attack_events == []


# -- echo-stage hijack and its detection ---------------------------------------------


def test_impersonation_rejects_wrong_protocol():
    with pytest.raises(ValueError, match="p3 or p5"):
        impersonate_echo_stage("p2", 0, 2, 1, keys_for("p2", 2, 1))
    # No trials would leave a rejection rate of 0/0.
    with pytest.raises(ValueError, match="trials >= 1, got 0"):
        echo_detection_experiment("p3", 2, 1, 0)


@pytest.mark.parametrize("protocol", ["p3", "p5"])
def test_impersonation_trial_shape(protocol):
    keys = keys_for(protocol, 2, 1, seed=5)
    guess, echo = impersonate_echo_stage(protocol, 2, 2, 1, keys, rng=make_rng(19))
    assert type(guess) is int and 0 <= guess < 4
    assert type(echo) is int and 0 <= echo < 4


def test_impersonation_is_reproducible():
    keys = keys_for("p5", 2, 1, seed=6)
    a = impersonate_echo_stage("p5", 1, 2, 1, keys, rng=make_rng(20))
    b = impersonate_echo_stage("p5", 1, 2, 1, keys, rng=make_rng(20))
    assert a == b


def full_stage_one_hijack(protocol, x, n, l, keys, seed):
    """The hijack with stage one run to its end under a measure-every-pass
    Eve, who guesses the first R1 outcome she saw; then the echo stage."""
    stage1_rng, eve_rng, alice_rng = make_rng(seed).spawn(3)
    first = {"p3": "p2", "p5": "p4"}[protocol]
    stage1 = run_session(first, x, n, l, 0, keys, rng=stage1_rng,
                         attack=MeasureResendAttack(), snapshots=False)
    assert stage1.rounds == ROUND_COUNTS[first] and stage1.recovered is not None
    guess = next(ev["outcome"] for ev in stage1.attack_events if ev["register"] == "R1")
    fake_tag, fake_strip = sample_function(n, l, eve_rng), sample_function(n, l, eve_rng)
    exchange = STAGES[protocol][1].exchange
    eve = Party(EVE, eve_rng, fake_tag, fake_strip)
    alice = Party(ALICE, alice_rng, keys.alice_tag, keys.bob_tag)
    draws = exchange.sample(n, l, eve_rng, alice_rng)
    channel = Channel(Transcript(protocol, n, l, 0, guess), None, None, False, DEFAULT_QUBIT_CAP)
    echo = exchange.run(channel, guess, n, l, eve, alice, draws)
    return guess, echo


@pytest.mark.parametrize("protocol", ["p3", "p5"])
def test_hijack_cut_at_the_first_tap_equals_the_full_stage_one(protocol, monkeypatch):
    # Drawing Eve's guess from the opener's one-register state changes no
    # trial: her guess and the echo stage's streams are the same as when
    # she measures every pass of a finished stage one. 100 seeds at n 1-3,
    # 10 at n 4-6 with 3n+l within the qubit cap.
    sessions = []
    monkeypatch.setattr(adversary.proto, "run_session",
                        lambda *a, **kw: sessions.append(a))
    for n in range(1, 7):
        for l in range(1, min(n, DEFAULT_QUBIT_CAP - 3 * n) + 1):
            for seed in range(100 if n <= 3 else 10):
                rng = make_rng([seed, n, l])
                keys = sample_shared_keys(protocol, n, l, 0, rng)
                x = int(rng.integers(1 << n))
                assert impersonate_echo_stage(protocol, x, n, l, keys, rng=seed) == \
                    full_stage_one_hijack(protocol, x, n, l, keys, seed), (n, l, seed)
    # The hijack itself runs no session (the reference calls this
    # module's run_session, left unpatched).
    assert sessions == []


class TapRecorder(Attack):
    """Keep the state of pass 1 and a copy of the stream it was handed,
    then cut the session there."""

    def on_transmission(self, state, round_index, names, rng, events):
        self.state, self.rng = state, copy.deepcopy(rng)
        return None


@pytest.mark.parametrize("protocol", ["p3", "p5"])
def test_first_tap_weighs_r1_as_the_openers_lone_register(protocol):
    # The invariant the hijack's guess rests on: at pass 1 the opener's
    # permutation and tag registers are functions of R1, so each R1 value
    # holds one amplitude and R1's Born weights, their total and the
    # outcome drawn at the tap's stream position are those of H|v> alone.
    first = {"p3": "p2", "p5": "p4"}[protocol]
    stage = STAGES[protocol][0]
    for n in range(1, 7):
        for k in range(20):
            l = 1 + k % min(n, DEFAULT_QUBIT_CAP - 3 * n)
            rng = make_rng([k, n, l])
            keys = sample_shared_keys(protocol, n, l, 0, rng)
            x = int(rng.integers(1 << n))
            tap = TapRecorder()
            run_session(first, x, n, l, 0, keys, rng=[k, n], attack=tap, snapshots=False)
            opened = init_basis_state([Register("R1", n, stage.tag_owner(0))],
                                      {"R1": 0 if stage.exchange.inverted else x})
            opened = opened.apply_hadamard("R1")
            # R1 is first in the layout: a (1, value of R1, rest) view.
            tapped = _row_weights(tap.state.amplitudes.reshape(1, 1 << n, -1))
            alone = _row_weights(opened.amplitudes.reshape(1, 1 << n, -1))
            assert tapped.tobytes() == alone.tobytes(), (n, l, k)
            assert float(tapped.sum()).hex() == float(alone.sum()).hex()
            assert tap.state.measure("R1", tap.rng)[0] == \
                opened.measure("R1", party_streams([k, n], 3)[2])[0], (n, l, k)


def test_hijack_refuses_bad_input_before_any_draw(monkeypatch):
    streams = []
    monkeypatch.setattr(adversary, "make_rng", lambda rng: streams.append(rng))
    # p3 at n=6, l=6 peaks at 3*6+6=24 qubits, above the cap of 22.
    with pytest.raises(ProtocolError, match=r"p3 needs peak live width 3\*6\+6=24 qubits"):
        impersonate_echo_stage("p3", 1, 6, 6, keys_for("p3", 6, 6))
    # Keys sampled at n=2 do not fit a session at n=3.
    for protocol in ("p3", "p5"):
        with pytest.raises(ProtocolError, match=f"{protocol} needs the tag function "
                                                r"alice_tag of shape 3->1, got 2->1"):
            impersonate_echo_stage(protocol, 1, 3, 1, keys_for(protocol, 2, 1))
    with pytest.raises(ProtocolError, match="bob_tag of shape 2->1, got none"):
        impersonate_echo_stage("p3", 1, 2, 1, replace(keys_for("p3", 2, 1), bob_tag=None))
    with pytest.raises(ProtocolError, match="message 4 does not fit in 2 bits"):
        impersonate_echo_stage("p5", 4, 2, 1, keys_for("p5", 2, 1))
    assert streams == []


@pytest.mark.parametrize("protocol", ["p3", "p5"])
def test_detection_rate_tracks_guessing_floor(protocol):
    # Eve's echo can only match by guessing the n-bit message, so the
    # rejection rate sits near 1 - 2**-n. 200 seeded trials at n=2:
    # expected 0.75, three-sigma window +-0.092.
    rejections = echo_detection_experiment(protocol, 2, 1, 200, rng=make_rng(21))
    sigma = (0.75 * 0.25 / 200) ** 0.5
    assert abs(rejections / 200 - 0.75) <= 3 * sigma


def test_detection_stats_fields():
    # The count is a plain int, one per rejected trial: the harness
    # writes it into the report as is.
    rejections = echo_detection_experiment("p3", 1, 1, 8, rng=make_rng(22))
    assert type(rejections) is int and 0 <= rejections <= 8


# -- passive observation ---------------------------------------------------------------


def test_passive_attack_perturbs_nothing():
    keys = keys_for("p2", 2, 1)
    honest = run_protocol2(2, 2, 1, keys, rng=make_rng(23))
    watched = run_protocol2(2, 2, 1, keys, rng=make_rng(23), attack=PassiveAttack())
    assert watched.recovered == honest.recovered
    assert [m.outcome for m in watched.measurements] == \
        [m.outcome for m in honest.measurements]
    for r in (1, 2, 3):
        assert np.array_equal(honest.snapshot(r), watched.snapshot(r))
    assert len(watched.attack_events) == 3


def test_passive_snapshot_untagged_messages_indistinguishable():
    views, distances = passive_snapshot("p1", [0, 1, 2, 3], 2)
    assert list(views) == [0, 1, 2, 3]
    assert len(distances) == 6 * 3
    assert max(distances.values()) <= 1e-12


def test_passive_snapshot_averaged_views_indistinguishable():
    keys = keys_for("p2", 2, 1, seed=7)
    _, distances = passive_snapshot("p2", [0, 3], 2, 1, keys, averaged=True)
    assert set(distances) == {(0, 3, 1), (0, 3, 2), (0, 3, 3)}
    assert max(distances.values()) <= 1e-9


def test_passive_snapshot_single_message_has_no_distances():
    views, distances = passive_snapshot("p1", [1], 2)
    assert distances == {}
    assert len(views[1]) == 3
    with pytest.raises(ValueError, match="at least one message"):
        passive_snapshot("p1", [], 2)


def test_passive_snapshot_checks_the_session_before_drawing(monkeypatch):
    # A keyed session without its tag width, or a message that does not
    # fit, is refused by the session check before any draw is made.
    def no_draws(*args, **kw):
        raise AssertionError("drew before the session check")

    monkeypatch.setattr(adversary.proto, "sample_draws", no_draws)
    with pytest.raises(ProtocolError, match="p6 needs an authentication tag width t >= 1"):
        passive_snapshot("p6", [0, 1], 2, 1, None)
    with pytest.raises(ProtocolError, match="message 4 does not fit in 2 bits"):
        passive_snapshot("p1", [0, 4], 2)


def test_passive_snapshot_separates_tag_graphs_per_run():
    # Per-run snapshots depend on the tag functions; with identical
    # draws across messages the graphs coincide, so even per-run the
    # message never shows. This pins the draws-held-fixed contract.
    keys = keys_for("p2", 2, 1, seed=8)
    _, distances = passive_snapshot("p2", [0, 1], 2, 1, keys, averaged=False)
    assert max(distances.values()) <= 1e-12


@pytest.mark.parametrize("protocol", ["p1", "p2", "p3", "p6", "nonint"])
def test_passive_snapshot_views_come_from_the_sampled_draws(protocol):
    n, l, t = 2, 1, 2 if protocol == "p6" else 0
    keys = None if protocol == "p1" else keys_for(protocol, n, l, t, seed=3)
    draws = sample_draws(protocol, n, l, t, make_rng(5))
    for averaged in (False, True) if keys is not None else (False,):
        views, _ = passive_snapshot(protocol, [0, 3], n, l, keys, rng=make_rng(5),
                                    averaged=averaged)
        for x in (0, 3):
            tr = run_session(protocol, x, n, l, t, keys, draws=draws, snapshots=True)
            want = [as_matrix(view.rho) for view in eve_average_view(tr, keys=keys)] \
                if averaged else [tr.snapshot(r) for r in range(1, tr.rounds + 1)]
            assert all(v.ndim == 2 for v in views[x])  # one density matrix per round
            assert [v.tobytes() for v in views[x]] == \
                [v.tobytes() for v in want]


def test_eve_average_view_matches_passive_averaged():
    keys = keys_for("p2", 2, 1, seed=9)
    views, _ = passive_snapshot("p2", [1], 2, 1, keys, rng=make_rng(24), averaged=True)
    tr = run_protocol2(1, 2, 1, keys, rng=make_rng(24), attack=PassiveAttack())
    view = eve_average_view(tr, (1,), keys=keys)[0]
    assert views[1][0].shape == as_matrix(view.rho).shape == (8, 8)
    assert np.allclose(views[1][0], as_matrix(view.rho), atol=1e-12)
