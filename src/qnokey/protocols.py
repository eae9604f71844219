"""Runners for the no-key protocol family on the exact simulator.

Every runner executes one full session between Alice and Bob as a
single composite pure state, taking a channel snapshot (reduced density
matrix of the in-transit registers) at each transmission and logging
every measurement into a transcript.

The family:

* three-pass scrambling (run_protocol1): no pre-shared secret, the
  message register crosses the channel three times between two
  self-inverting permutation oracles.
* tagged three-pass (run_protocol2): adds pre-shared tag functions and
  one-time pads so each party can recognise the other's touch.
* echoed tagged three-pass (run_protocol3): three tagged exchanges,
  message out, echo back, message again, with accept verdicts.
* inverted two-pass (run_protocol4): the receiver initiates with a
  blank superposition; the sender imprints the message as phases.
* echoed two-pass (run_protocol5): three inverted exchanges with the
  same verdict structure as run_protocol3.
* authenticated two-pass (run_protocol6): one inverted exchange carries
  message plus one-time tag, a second returns the tag for cross-check.
* one-shot broadcast (run_noninteractive): a single transmission of the
  phase-encoded message with a tag register; exploratory only.

The keyed protocols are built from two exchanges, the tagged
three-pass and the receiver-initiated two-pass. STAGES lists each
protocol's stages once: the exchange, the sending party, the message
width (n+t and t in p6) and the tag functions used. The runners,
sample_draws and the averaging lookup all read it. An exchange takes
its parties as Party(name, rng, tags_with, strips_with) values, so an
adversary can play a side with substitute tables. run_session runs
any protocol by id, looking its public run_* name up at each call.

Channel views: per-run snapshots are what an eavesdropper sees in one
session; eve_average_view computes, for each requested round, the exact
mixture over enumerated one-time values (and optionally over the
tag-function family), which is the object the indistinguishability
claims are about. The two are kept strictly separate because per-run
snapshots of the tagged protocols are not maximally mixed. One call
re-runs the honest session once for all its rounds, and gets every
enumerated secret's snapshot of a round by permuting the tag index of
that rerun's snapshot of the round; noninteractive_view is the same
average over the broadcast's single round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .auth import MacKey, mac_keygen, mac_tag, mac_verify
from .oracles import (
    DEFAULT_ENUM_LIMIT,
    BooleanFunction,
    BooleanPermutation,
    EnumerationLimitError,
    count_functions,
    enumerate_functions,
    make_rng,
    party_streams,
    sample_function,
    sample_pad,
    sample_permutation,
)
from .qstate import (
    DEFAULT_QUBIT_CAP,
    CompositeState,
    DensityMatrix,
    Holder,
    Register,
    init_basis_state,
)

PROTOCOL_IDS = ("p1", "p2", "p3", "p4", "p5", "p6", "nonint", "two-round")

ALICE = Holder.ALICE.value
BOB = Holder.BOB.value
EVE = Holder.EVE.value
_PEER = {ALICE: BOB, BOB: ALICE}
_HOLDERS = {holder.value: holder for holder in Holder}  # cheaper than Holder(name)


class ProtocolError(ValueError):
    """Bad protocol parameters: widths, caps, key shapes."""


def peak_live_width(protocol: str, n: int, l: int = 0, t: int = 0) -> tuple[int, str]:
    """Worst-case simultaneous qubit count of a session, with the formula.

    Derived from the register lifecycles: registers are discarded the
    moment they provably factor out, so the peak is reached just before
    the first uncompute of each session.
    """
    if protocol == "p1":
        return 3 * n, f"3*{n}={3 * n}"
    if protocol in ("p2", "p3"):
        return 3 * n + l, f"3*{n}+{l}={3 * n + l}"
    if protocol in ("p4", "p5", "two-round"):
        return 2 * n + l, f"2*{n}+{l}={2 * n + l}"
    if protocol == "p6":
        return 2 * (n + t) + l, f"2*({n}+{t})+{l}={2 * (n + t) + l}"
    if protocol == "nonint":
        return n + l, f"{n}+{l}={n + l}"
    raise ProtocolError(f"unknown protocol {protocol!r}")


def _check_cap(protocol: str, n: int, l: int, t: int, qubit_cap: int) -> None:
    peak, formula = peak_live_width(protocol, n, l, t)
    if peak > qubit_cap:
        raise ProtocolError(
            f"{protocol} needs peak live width {formula} qubits, cap is {qubit_cap}"
        )


def widest_message(protocol: str, n: int, t: int) -> int:
    """Message width of the protocol's widest stage: n+t for p6's MAC stage, else n."""
    return max((stage.width(n, t) for stage in STAGES.get(protocol, ())), default=n)


def check_snapshot_cap(protocol: str, n: int, l: int, t: int, qubit_cap: int) -> None:
    """Refuse channel snapshots that would not fit under the qubit cap.

    A k-qubit snapshot is a 2**k x 2**k matrix, as many entries as a
    2k-qubit state, and the widest one carries the widest stage plus
    its tag register.
    """
    k = widest_message(protocol, n, t) + l
    if 2 * k > qubit_cap:
        raise ProtocolError(
            f"{protocol} snapshots are {k}-qubit density matrices, as large as a "
            f"2*{k}={2 * k}-qubit state, cap is {qubit_cap}; "
            f"run with --no-snapshots and --average none"
        )


def _check_message(x: int, width: int) -> None:
    if width < 1:
        raise ProtocolError(f"message width must be >= 1, got {width}")
    if not 0 <= x < (1 << width):
        raise ProtocolError(f"message {x} does not fit in {width} bits")


# ---------------------------------------------------------------------------
# Parameters, keys, transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolParams:
    """Validated run parameters for one protocol session."""

    protocol: str
    n: int
    l: int = 0
    t: int = 0
    qubit_cap: int = DEFAULT_QUBIT_CAP
    enum_limit: int = DEFAULT_ENUM_LIMIT

    def __post_init__(self):
        if self.protocol not in PROTOCOL_IDS:
            raise ProtocolError(f"unknown protocol {self.protocol!r}, "
                                f"expected one of {PROTOCOL_IDS}")
        if self.n < 1:
            raise ProtocolError(f"message width must be >= 1, got {self.n}")
        if self.protocol != "p1" and self.l < 1:
            raise ProtocolError(f"{self.protocol} needs a tag register width l >= 1")
        if self.protocol == "p6" and self.t < 1:
            raise ProtocolError("p6 needs an authentication tag width t >= 1")
        _check_cap(self.protocol, self.n, self.l, self.t, self.qubit_cap)

    @property
    def rounds(self) -> int:
        return ROUND_COUNTS[self.protocol]


@dataclass(frozen=True)
class SharedKeys:
    """Everything the parties agreed on before the session.

    alice_tag / bob_tag are the tag functions on the session's message
    width. The echo pair covers the second stage of the authenticated
    protocol, whose message register is the tag width instead. The MAC
    key is one-time and independent of the tag functions.
    """

    alice_tag: BooleanFunction
    bob_tag: BooleanFunction
    mac_key: MacKey | None = None
    alice_tag_echo: BooleanFunction | None = None
    bob_tag_echo: BooleanFunction | None = None


def sample_shared_keys(protocol: str, n: int, l: int, t: int,
                       rng) -> SharedKeys:
    """Draw a full key bundle of the right shape for one protocol."""
    gen = make_rng(rng)
    if protocol == "p6":
        return SharedKeys(
            alice_tag=sample_function(n + t, l, gen),
            bob_tag=sample_function(n + t, l, gen),
            mac_key=mac_keygen(t, gen),
            alice_tag_echo=sample_function(t, l, gen),
            bob_tag_echo=sample_function(t, l, gen),
        )
    return SharedKeys(
        alice_tag=sample_function(n, l, gen),
        bob_tag=sample_function(n, l, gen),
    )


@dataclass
class Transmission:
    round_index: int
    sender: str
    receiver: str
    registers: tuple[tuple[str, int], ...]
    snapshot: DensityMatrix | None = None


@dataclass
class MeasurementRecord:
    owner: str
    register: str
    width: int
    outcome: int


@dataclass
class Transcript:
    """Everything observable about one protocol session."""

    protocol: str
    n: int
    l: int
    t: int
    message: int
    transmissions: list[Transmission] = field(default_factory=list)
    measurements: list[MeasurementRecord] = field(default_factory=list)
    attack_events: list[dict] = field(default_factory=list)
    recovered: int | None = None
    alice_accepts: bool | None = None
    bob_accepts: bool | None = None
    mac_accepts: bool | None = None
    draws: object = None

    @property
    def rounds(self) -> int:
        return len(self.transmissions)

    def snapshot(self, round_index: int) -> DensityMatrix:
        for tx in self.transmissions:
            if tx.round_index == round_index:
                if tx.snapshot is None:
                    raise ValueError(f"round {round_index} was run without snapshots")
                return tx.snapshot
        raise ValueError(f"no transmission with round index {round_index}")


# Draw records hold every random choice a session consumes, so a run
# can be replayed exactly with any subset overridden.


@dataclass(frozen=True)
class P1Draws:
    alice_perm: BooleanPermutation
    bob_perm: BooleanPermutation


@dataclass(frozen=True)
class P2Draws:
    sender_perm: BooleanPermutation
    receiver_perm: BooleanPermutation
    first_pad: int    # sender's pad on the outbound tag
    reply_pad: int    # receiver's pad on the return tag
    final_pad: int    # sender's pad on the last tag


@dataclass(frozen=True)
class P4Draws:
    receiver_perm: BooleanPermutation
    receiver_pad: int  # pad on the initiating tag
    sender_pad: int    # pad on the replying tag


@dataclass(frozen=True)
class StagedDraws:
    stages: tuple


@dataclass(frozen=True)
class NonintDraws:
    pad: int


def sample_draws(protocol: str, n: int, l: int, t: int, rng):
    """Materialise a session's random choices without running it.

    Splits the same party substreams as the runners and hands them to
    the same sampler, so passing the result back in via `draws=`
    reproduces the session the same seed would have produced.
    """
    alice_rng, bob_rng, _ = party_streams(rng if rng is not None else 0, 3)
    return _sample_draws(protocol, n, l, t, {ALICE: alice_rng, BOB: bob_rng})


# ---------------------------------------------------------------------------
# Parties and the channel
# ---------------------------------------------------------------------------


class Party(NamedTuple):
    """One side of an exchange: it tags what it sends with `tags_with`
    and strips what it receives with `strips_with`. An honest party tags
    with its own shared function and strips with its counterparty's."""

    name: str
    rng: np.random.Generator
    tags_with: BooleanFunction | None = None
    strips_with: BooleanFunction | None = None


class Channel(NamedTuple):
    """One session's line: passes and measurements are logged in the
    transcript, `attack` (if any) touches each pass with `eve_rng`, and
    the exchanges start their states under `qubit_cap`."""

    transcript: Transcript
    attack: object
    eve_rng: np.random.Generator | None
    snapshots: bool
    qubit_cap: int

    def send(self, state: CompositeState, names: tuple[str, ...],
             sender: Party, receiver: Party) -> CompositeState:
        """Move registers across the channel, applying any interposition.

        Rounds are numbered in the order they are sent. The snapshot
        records the state actually travelling toward the receiver, i.e.
        after the adversary touched it.
        """
        tr = self.transcript
        round_index = len(tr.transmissions) + 1
        if self.attack is not None:
            state = self.attack.on_transmission(state, round_index, names, self.eve_rng,
                                                tr.attack_events)
        snap = None
        if self.snapshots:
            snap = state.reduced_density_matrix(names)
        regs = tuple((name, state.register(name).width) for name in names)
        tr.transmissions.append(
            Transmission(round_index, sender.name, receiver.name, regs, snap)
        )
        return state.with_holder(names, _HOLDERS[receiver.name])

    def measure(self, state: CompositeState, party: Party, name: str):
        outcome, state = state.measure(name, party.rng)
        self.transcript.measurements.append(
            MeasurementRecord(party.name, name, state.register(name).width, outcome)
        )
        return outcome, state


# ---------------------------------------------------------------------------
# Three-pass scrambling, no pre-shared secret
# ---------------------------------------------------------------------------


def run_protocol1(
    x: int,
    n: int,
    *,
    rng=None,
    draws: P1Draws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Message out, scramble, scramble back, unscramble: three passes.

    Alice phase-encodes x into a full superposition, binds it to her
    secret permutation, and the register crosses the channel three
    times while first her and then Bob's permutation are attached and
    later uncomputed. Bob's final Hadamard-and-measure recovers x with
    certainty in an honest run.
    """
    channel, rngs, _ = _open_session("p1", x, n, 0, 0, None, rng, draws, attack,
                                     snapshots, qubit_cap)
    tr = channel.transcript
    draws = tr.draws
    if draws.alice_perm.n != n or draws.bob_perm.n != n:
        raise ProtocolError("permutation width does not match the message width")
    alice, bob = Party(ALICE, rngs[ALICE]), Party(BOB, rngs[BOB])

    state = init_basis_state([Register("R1", n, Holder.ALICE)], {"R1": x},
                             qubit_cap=qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, Holder.ALICE, source="R1", table=draws.alice_perm.table)
    state = channel.send(state, ("R1",), alice, bob)

    state = state.extend("R3", n, Holder.BOB, source="R1", table=draws.bob_perm.table)
    state = channel.send(state, ("R1",), bob, alice)

    state = state.apply_xor_oracle("R1", "R2", draws.alice_perm.table)  # uncompute
    state = state.discard("R2")
    state = channel.send(state, ("R1",), alice, bob)

    state = state.apply_xor_oracle("R1", "R3", draws.bob_perm.table)  # uncompute
    state = state.discard("R3")
    state = state.apply_hadamard("R1")
    tr.recovered, state = channel.measure(state, bob, "R1")
    return tr


# ---------------------------------------------------------------------------
# Tagged three-pass exchange (shared by the keyed three-pass protocols)
# ---------------------------------------------------------------------------


def _p2_draws(n: int, l: int, sender_rng, receiver_rng) -> P2Draws:
    return P2Draws(
        sender_perm=sample_permutation(n, sender_rng),
        receiver_perm=sample_permutation(n, receiver_rng),
        first_pad=sample_pad(l, sender_rng).value,
        reply_pad=sample_pad(l, receiver_rng).value,
        final_pad=sample_pad(l, sender_rng).value,
    )


def _check_tag_fn(fn: BooleanFunction, n: int, l: int, who: str) -> None:
    if fn.n != n or fn.l != l:
        raise ProtocolError(
            f"{who} tag function has shape {fn.n}->{fn.l}, session needs {n}->{l}"
        )


def _run_tagged_three_pass(
    channel: Channel,
    x: int,
    n: int,
    l: int,
    sender: Party,
    receiver: Party,
    draws: P2Draws,
) -> int:
    """One tagged three-pass exchange; returns the receiver's value.

    Pass 1 carries the scrambled message plus the sender's padded tag;
    pass 2 returns it with the receiver's tag; pass 3 goes out again
    with a freshly padded sender tag. Tags are stripped by the party
    that knows them, leaving the bare pad, which is measured and logged.
    """
    _check_tag_fn(sender.tags_with, n, l, sender.name)
    _check_tag_fn(receiver.tags_with, n, l, receiver.name)
    sh, rh = _HOLDERS[sender.name], _HOLDERS[receiver.name]

    state = init_basis_state([Register("R1", n, sh)], {"R1": x},
                             qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, sh, source="R1", table=draws.sender_perm.table)
    state = state.extend("R3", l, sh, draws.first_pad, source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R3"), sender, receiver)

    # Receiver: expose and log the sender's pad, then bind own secrets.
    state = state.apply_xor_oracle("R1", "R3", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R3")
    state = state.discard("R3")
    state = state.extend("R4", n, rh, source="R1", table=draws.receiver_perm.table)
    state = state.extend("R5", l, rh, draws.reply_pad, source="R1", table=receiver.tags_with.table)
    state = channel.send(state, ("R1", "R5"), receiver, sender)

    # Sender: detach own permutation, expose the receiver's pad, re-tag.
    state = state.apply_xor_oracle("R1", "R2", draws.sender_perm.table)
    state = state.discard("R2")
    state = state.apply_xor_oracle("R1", "R5", sender.strips_with.table)
    _, state = channel.measure(state, sender, "R5")
    state = state.discard("R5")
    state = state.extend("R6", l, sh, draws.final_pad, source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R6"), sender, receiver)

    # Receiver: detach own permutation, expose the final pad, decode.
    state = state.apply_xor_oracle("R1", "R4", draws.receiver_perm.table)
    state = state.discard("R4")
    state = state.apply_xor_oracle("R1", "R6", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R6")
    state = state.discard("R6")
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


# ---------------------------------------------------------------------------
# Inverted two-pass exchange (shared by the receiver-initiated protocols)
# ---------------------------------------------------------------------------


def _p4_draws(n: int, l: int, sender_rng, receiver_rng) -> P4Draws:
    return P4Draws(
        receiver_perm=sample_permutation(n, receiver_rng),
        receiver_pad=sample_pad(l, receiver_rng).value,
        sender_pad=sample_pad(l, sender_rng).value,
    )


def _run_inverted_two_pass(
    channel: Channel,
    x: int,
    n: int,
    l: int,
    sender: Party,
    receiver: Party,
    draws: P4Draws,
) -> int:
    """One receiver-initiated exchange; returns the receiver's value.

    The receiver sends a blank scrambled superposition with its tag;
    the sender imprints the message purely as phase flips and re-tags.
    Only two passes total, and the message never appears in any
    computational-basis population.
    """
    _check_tag_fn(sender.tags_with, n, l, sender.name)
    _check_tag_fn(receiver.tags_with, n, l, receiver.name)
    sh, rh = _HOLDERS[sender.name], _HOLDERS[receiver.name]

    state = init_basis_state([Register("R1", n, rh)], None, qubit_cap=channel.qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", n, rh, source="R1", table=draws.receiver_perm.table)
    state = state.extend("R3", l, rh, draws.receiver_pad, source="R1",
                         table=receiver.tags_with.table)
    state = channel.send(state, ("R1", "R3"), receiver, sender)

    # Sender: expose the receiver's pad, write the message into phases.
    state = state.apply_xor_oracle("R1", "R3", sender.strips_with.table)
    _, state = channel.measure(state, sender, "R3")
    state = state.discard("R3")
    state = state.apply_phase_flip("R1", x)
    state = state.extend("R4", l, sh, draws.sender_pad, source="R1", table=sender.tags_with.table)
    state = channel.send(state, ("R1", "R4"), sender, receiver)

    # Receiver: expose the sender's pad, unscramble, decode the phases.
    state = state.apply_xor_oracle("R1", "R4", receiver.strips_with.table)
    _, state = channel.measure(state, receiver, "R4")
    state = state.discard("R4")
    state = state.apply_xor_oracle("R1", "R2", draws.receiver_perm.table)
    state = state.discard("R2")
    state = state.apply_hadamard("R1")
    outcome, state = channel.measure(state, receiver, "R1")
    return outcome


# ---------------------------------------------------------------------------
# The stage table of the keyed protocols
# ---------------------------------------------------------------------------


class Exchange(NamedTuple):
    """A two-party exchange: `run` returns the receiver's value, `sample`
    draws its permutations and pads, and `pads` names each pass's pad
    field and whether the tag under it is the sender's."""

    run: Callable
    sample: Callable
    pads: tuple[tuple[str, bool], ...]


TAGGED_THREE_PASS = Exchange(_run_tagged_three_pass, _p2_draws,
                             (("first_pad", True), ("reply_pad", False), ("final_pad", True)))
INVERTED_TWO_PASS = Exchange(_run_inverted_two_pass, _p4_draws,
                             (("receiver_pad", False), ("sender_pad", True)))


class Stage(NamedTuple):
    """One exchange of a keyed protocol: `width(n, t)` is its message
    width, and `keys` the suffix of the SharedKeys tag attributes it
    uses ("_echo" for the echo stage of the authenticated protocol)."""

    exchange: Exchange
    sender: str
    width: Callable[[int, int], int] = lambda n, t: n
    keys: str = ""


# p3 and p5 send the message, echo it back with the roles swapped, and
# send it again; p6 sends message and MAC tag together, then echoes the
# tag it received under the second pair of tag functions.
STAGES: dict[str, tuple[Stage, ...]] = {
    "p2": (Stage(TAGGED_THREE_PASS, ALICE),),
    "p3": (Stage(TAGGED_THREE_PASS, ALICE),
           Stage(TAGGED_THREE_PASS, BOB),
           Stage(TAGGED_THREE_PASS, ALICE)),
    "p4": (Stage(INVERTED_TWO_PASS, ALICE),),
    "p5": (Stage(INVERTED_TWO_PASS, ALICE),
           Stage(INVERTED_TWO_PASS, BOB),
           Stage(INVERTED_TWO_PASS, ALICE)),
    "p6": (Stage(INVERTED_TWO_PASS, ALICE, lambda n, t: n + t),
           Stage(INVERTED_TWO_PASS, BOB, lambda n, t: t, "_echo")),
    "two-round": (Stage(INVERTED_TWO_PASS, ALICE),),
}

ROUND_COUNTS = {
    "p1": 3,
    "nonint": 1,
    **{protocol: sum(len(stage.exchange.pads) for stage in stages)
       for protocol, stages in STAGES.items()},
}


def _staged(protocol: str) -> bool:
    """Whether a protocol's draws are a StagedDraws, one record a stage."""
    return len(STAGES.get(protocol, ())) > 1


def _sample_draws(protocol: str, n: int, l: int, t: int, rngs: dict):
    """Every random choice of a session, drawn from the parties' streams."""
    if protocol == "p1":
        return P1Draws(sample_permutation(n, rngs[ALICE]), sample_permutation(n, rngs[BOB]))
    if protocol == "nonint":
        return NonintDraws(sample_pad(l, rngs[ALICE]).value)
    if protocol not in STAGES:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    stages = tuple(
        stage.exchange.sample(stage.width(n, t), l, rngs[stage.sender],
                              rngs[_PEER[stage.sender]])
        for stage in STAGES[protocol]
    )
    return StagedDraws(stages) if _staged(protocol) else stages[0]


def _open_session(protocol, x, n, l, t, keys, rng, draws, attack, snapshots, qubit_cap):
    """Check a session's parameters and open it.

    Returns the channel, the parties' streams and `stage(i, message)`,
    which runs stage i of STAGES[protocol] between the honest parties
    and returns the value its receiver decoded. Draws left as None come
    from `_sample_draws`, on the streams the session measures with.
    """
    _check_message(x, n)
    _check_cap(protocol, n, l, t, qubit_cap)
    if snapshots:
        check_snapshot_cap(protocol, n, l, t, qubit_cap)
    alice_rng, bob_rng, eve_rng = party_streams(rng if rng is not None else 0, 3)
    rngs = {ALICE: alice_rng, BOB: bob_rng}
    if draws is None:
        draws = _sample_draws(protocol, n, l, t, rngs)
    tr = Transcript(protocol, n, l, t, x, draws=draws)
    channel = Channel(tr, attack, eve_rng, snapshots, qubit_cap)
    stages = STAGES.get(protocol, ())
    stage_draws = draws.stages if _staged(protocol) else (draws,)

    def stage(i: int, message: int) -> int:
        s, r = stages[i].sender, _PEER[stages[i].sender]
        tag = {p: getattr(keys, f"{p}_tag{stages[i].keys}") for p in (s, r)}
        sender = Party(s, rngs[s], tag[s], tag[r])
        receiver = Party(r, rngs[r], tag[r], tag[s])
        return stages[i].exchange.run(channel, message, stages[i].width(n, t), l,
                                      sender, receiver, stage_draws[i])

    return channel, rngs, stage


def _run_stages(protocol, x, n, l, keys, rng, draws, attack, snapshots, qubit_cap):
    """Send x in the one stage, or send it, echo it back, send it again.

    With the echo, Alice accepts when it matches what she sent and Bob
    accepts when both of his receptions agree.
    """
    channel, _, stage = _open_session(protocol, x, n, l, 0, keys, rng, draws, attack,
                                      snapshots, qubit_cap)
    tr = channel.transcript
    tr.recovered = stage(0, x)
    if len(STAGES[protocol]) == 3:
        tr.alice_accepts = stage(1, tr.recovered) == x
        tr.bob_accepts = stage(2, x) == tr.recovered
    return tr


def run_protocol2(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: P2Draws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Single tagged three-pass exchange from Alice to Bob."""
    return _run_stages("p2", x, n, l, keys, rng, draws, attack, snapshots, qubit_cap)


def run_protocol3(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: StagedDraws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Message, echo, message: three tagged exchanges with verdicts.

    Stage 2 swaps the roles; each party keeps using its own tag
    function in whichever role it plays. Permutations and pads are
    fresh every stage; the tag functions persist. Alice accepts when
    the echo matches what she sent; Bob accepts when both of his
    receptions agree.
    """
    return _run_stages("p3", x, n, l, keys, rng, draws, attack, snapshots, qubit_cap)


def run_protocol4(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: P4Draws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Single receiver-initiated exchange from Alice to Bob."""
    return _run_stages("p4", x, n, l, keys, rng, draws, attack, snapshots, qubit_cap)


def run_two_round(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: P4Draws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """The two-pass exchange standing alone as a complete protocol.

    Identical machinery to run_protocol4; kept as its own protocol id
    because on its own it permits permanent key reuse, which the
    experiments certify separately.
    """
    return _run_stages("two-round", x, n, l, keys, rng, draws, attack, snapshots,
                       qubit_cap)


def run_protocol5(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: StagedDraws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Message, echo, message over the receiver-initiated exchange."""
    return _run_stages("p5", x, n, l, keys, rng, draws, attack, snapshots, qubit_cap)


def run_protocol6(
    x: int,
    n: int,
    l: int,
    t: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: StagedDraws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Authenticated two-stage run: message plus tag out, tag echoed back.

    Stage one sends the concatenation of the message (high bits) and
    its one-time authentication tag (low bits) through a single
    receiver-initiated exchange. Bob checks the tag against his copy of
    the one-time key. Stage two returns the tag he received through a
    second exchange; Alice accepts when it equals the tag she computed.
    """
    if keys.mac_key is None:
        raise ProtocolError("p6 needs a one-time authentication key")
    if keys.mac_key.t != t:
        raise ProtocolError(f"authentication key width {keys.mac_key.t} != t={t}")
    if keys.alice_tag_echo is None or keys.bob_tag_echo is None:
        raise ProtocolError("p6 needs tag functions for the echo stage")
    channel, _, stage = _open_session("p6", x, n, l, t, keys, rng, draws, attack,
                                      snapshots, qubit_cap)
    tr = channel.transcript

    auth_tag = mac_tag(keys.mac_key, x, n)
    received = stage(0, (x << t) | auth_tag)
    got_message = received >> t
    got_tag = received & ((1 << t) - 1)
    tr.mac_accepts = mac_verify(keys.mac_key, got_message, n, got_tag)

    echoed = stage(1, got_tag)
    tr.recovered = got_message
    tr.alice_accepts = echoed == auth_tag
    tr.bob_accepts = tr.mac_accepts
    return tr


# ---------------------------------------------------------------------------
# One-shot broadcast (exploratory)
# ---------------------------------------------------------------------------


def run_noninteractive(
    x: int,
    n: int,
    l: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: NonintDraws | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Single transmission of the phase-encoded message plus a tag.

    Exploratory: decoding works for the key holder, but nothing here
    certifies security of this variant, and the experiments treat its
    channel views purely as regression data.
    """
    channel, rngs, _ = _open_session("nonint", x, n, l, 0, keys, rng, draws, attack,
                                     snapshots, qubit_cap)
    tr = channel.transcript
    alice, bob = Party(ALICE, rngs[ALICE]), Party(BOB, rngs[BOB])

    state = init_basis_state([Register("R1", n, Holder.ALICE)], {"R1": x},
                             qubit_cap=qubit_cap)
    state = state.apply_hadamard("R1")
    state = state.extend("R2", l, Holder.ALICE, tr.draws.pad, source="R1",
                         table=keys.alice_tag.table)
    state = channel.send(state, ("R1", "R2"), alice, bob)

    state = state.apply_xor_oracle("R1", "R2", keys.alice_tag.table)
    _, state = channel.measure(state, bob, "R2")
    state = state.discard("R2")
    state = state.apply_hadamard("R1")
    tr.recovered, state = channel.measure(state, bob, "R1")
    return tr


def run_session(protocol: str, x: int, n: int, l: int, t: int, keys, **kw) -> Transcript:
    """Run one session of any protocol, passing each runner the widths it takes.

    The runner is looked up by its public name on every call, so a
    rebound `run_*` name (a tracing wrapper, say) is the one that runs.
    """
    if protocol not in PROTOCOL_IDS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    special = {"nonint": "run_noninteractive", "two-round": "run_two_round"}
    run = globals()[special.get(protocol, f"run_protocol{protocol[1:]}")]
    if protocol == "p1":
        return run(x, n, **kw)
    if protocol == "p6":
        return run(x, n, l, t, keys, **kw)
    return run(x, n, l, keys, **kw)


def noninteractive_view(
    x: int,
    n: int,
    l: int,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> DensityMatrix:
    """Exact channel state of the one-shot broadcast, all keys averaged.

    Averages the broadcast over every tag function and pad, so the
    result is the true mixture an eavesdropper faces when the key is
    unknown. The family has 2**(l * 2**n) * 2**l members; anything past
    the enumeration limit is rejected with the offending count.
    """
    _check_message(x, n)
    _check_cap("nonint", n, l, 0, qubit_cap)
    blank = BooleanFunction(n, l, (0,) * (1 << n))
    (view,) = eve_average_view(Transcript("nonint", n, l, 0, x, draws=NonintDraws(0)), (1,),
                               keys=SharedKeys(blank, blank), average_over=("pads", "keys"),
                               enum_limit=enum_limit, qubit_cap=qubit_cap)
    return view.rho


# ---------------------------------------------------------------------------
# Averaged channel views
# ---------------------------------------------------------------------------


@dataclass
class EveView:
    """Channel state at one round, averaged over enumerated secrets."""

    rho: DensityMatrix
    round_index: int
    averaged_over: tuple[str, ...]
    runs: int


def _round_secrets(protocol: str, round_index: int):
    """Which pad field and which party's tag function a round carries.

    Returns (stage_index, pad_field_name, tag_owner, tag_attr) where
    tag_attr is the SharedKeys attribute name for the carried tag.
    """
    rounds = ROUND_COUNTS[protocol]
    if not 1 <= round_index <= rounds:
        raise ValueError(f"{protocol} has rounds 1..{rounds}, got {round_index}")
    if protocol == "p1":
        raise ValueError("the untagged protocol has no secrets to average over")
    if protocol == "nonint":
        return 0, "pad", ALICE, "alice_tag"
    passes = [(index, stage, pad) for index, stage in enumerate(STAGES[protocol])
              for pad in stage.exchange.pads]
    index, stage, (field_name, senders_tag) = passes[round_index - 1]
    owner = stage.sender if senders_tag else _PEER[stage.sender]
    return index, field_name, owner, f"{owner}_tag{stage.keys}"


def eve_average_view(
    transcript: Transcript,
    rounds: Iterable[int] | None = None,
    *,
    keys: SharedKeys | None = None,
    average_over: Iterable[str] = ("pads",),
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[EveView, ...]:
    """Exact mixtures of the given rounds' channel states over one-time secrets.

    Returns one view per requested round, in the order asked; `rounds`
    None means every round of the protocol. Each view averages its
    round's snapshot over every value of that round's pad ("pads") and,
    when requested, of its tag function ("keys"), holding every other
    draw of `transcript` fixed. This is the channel state relative to an
    adversary who knows everything except the enumerated secrets, a
    different object from the single-run snapshot in the transcript.

    The session is re-run once, honestly, with the given keys, and that
    one rerun serves every round. A round's secret enters only through
    its tag oracle, which moves the amplitude at (message m, tag y) to
    (m, y ^ f(m) ^ p), and every earlier tag is stripped by the same
    function that put it on. So the round's snapshot under another
    (p, f) is the rerun's snapshot with rows and columns permuted by
    y -> y ^ f(m) ^ p ^ f0(m) ^ p0, where f0 and p0 are the rerun's own;
    the sum is taken in enumeration order. Every requested round is
    resolved before the rerun: an unknown round, or pads times functions
    beyond `enum_limit` (refused with the count), runs nothing.
    """
    kinds = set(average_over)
    unknown = kinds - {"pads", "keys"}
    if unknown:
        raise ValueError(f"unknown averaging kinds {sorted(unknown)}")
    protocol = transcript.protocol
    wanted = range(1, ROUND_COUNTS[protocol] + 1) if rounds is None else tuple(rounds)
    if not kinds:
        # Identity average: nothing enumerated, the per-run snapshot is it.
        return tuple(EveView(transcript.snapshot(r), r, (), 1) for r in wanted)
    if protocol != "p1" and keys is None:
        raise ValueError("keyed protocols need the session keys to average")
    l = transcript.l
    plans = []
    for r in wanted:
        stage, pad_field, _, tag_attr = _round_secrets(protocol, r)
        base_fn: BooleanFunction = getattr(keys, tag_attr)
        what = []
        count = 1
        averaged = []
        if "pads" in kinds:
            count <<= l
            what.append(f"{l}-bit pads")
            averaged.append(f"{pad_field}[stage {stage}]")
        if "keys" in kinds:
            count *= count_functions(base_fn.n, base_fn.l)
            what.append(f"{base_fn.n}-to-{base_fn.l}-bit tag functions")
            averaged.append(tag_attr)
        if count > enum_limit:
            raise EnumerationLimitError(count, enum_limit, " times ".join(what))
        base_pad = _get_pad(transcript.draws, protocol, stage, pad_field)
        plans.append((r, base_pad, base_fn, tuple(averaged)))

    redo = run_session(
        protocol, transcript.message, transcript.n, l, transcript.t, keys,
        rng=0, draws=transcript.draws, attack=None, snapshots=True, qubit_cap=qubit_cap,
    )
    views = []
    for r, base_pad, base_fn, averaged in plans:
        pad_values = range(1 << l) if "pads" in kinds else [base_pad]
        fn_values = list(enumerate_functions(base_fn.n, base_fn.l, enum_limit)) \
            if "keys" in kinds else [base_fn]
        rho = redo.snapshot(r).matrix
        # The snapshot holds the message register R1 first and the tag last.
        (_, width), (_, tag_width) = redo.transmissions[r - 1].registers
        rows = (np.arange(1 << width) << tag_width)[:, None]
        tags = np.arange(1 << tag_width)[None, :]
        base = np.asarray(base_fn.table) ^ base_pad
        tables = [np.asarray(fn.table) ^ base for fn in fn_values]
        rho_sum = None
        for pad_value, table in itertools.product(pad_values, tables):
            sigma = (rows | (tags ^ (table ^ pad_value)[:, None])).ravel()
            snap = rho[np.ix_(sigma, sigma)]
            rho_sum = snap if rho_sum is None else rho_sum + snap
        runs = len(pad_values) * len(fn_values)
        views.append(EveView(DensityMatrix(rho_sum / runs), r, averaged, runs))
    return tuple(views)


def _get_pad(draws, protocol: str, stage: int, field_name: str) -> int:
    return getattr(draws.stages[stage] if _staged(protocol) else draws, field_name)
