"""Runners for the no-key protocol family on the exact simulator.

Every session runs between Alice and Bob as a single composite pure
state, taking a channel snapshot (reduced density matrix of the
in-transit registers) at each transmission and logging every
measurement into a transcript.

The family is built from one move, repeated hop by hop: a party binds a
random Boolean permutation to the travelling message register R1
through an XOR oracle, tags it, and later uncomputes it. Exchange.run is
the one runner of it. The opener (the sender, or the receiver of an
inverted exchange, which starts from a blank register) applies a
Hadamard to R1. Then, turn by turn, the party holding R1 uncomputes the
permutation it bound, strips the tag of the pass it received and
measures the bare pad, binds its own permutation on its first turn,
imprints the message as phases if it is an inverted exchange's sender,
and tags and sends the next pass. The last receiver uncomputes, strips,
applies a Hadamard and measures R1.

Four exchanges declare the rest in their pass tables: the untagged
three-pass (p1), the tagged three-pass (p2), the inverted two-pass (p4,
two-round) and the one-shot broadcast (nonint, exploratory only); each
names its draw record, its permutations, and the pad and tag owner of
every pass, and Exchange.sample draws from that. STAGES lists all eight
ids once, as their stages: the exchange, the sending party, the message
width (n+t and t in p6) and the tag functions used. p3 and p5 send,
echo back and send again, with accept verdicts; p6 sends message plus
one-time MAC tag, then echoes the tag. PROTOCOL_IDS, ROUND_COUNTS,
peak_live_width, sample_draws (one record per stage) and the averaging
lookup all derive from STAGES, and so does ProtocolParams, the one
session validator; each session's key bundle and draws are checked
against it.
An exchange takes its parties as Party(name, rng, tags_with,
strips_with) values, so an adversary can play a side with substitute
tables. run_session runs any protocol by id, looking its public run_*
name up at each call.

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
from typing import Iterable, NamedTuple

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

ALICE = Holder.ALICE.value
BOB = Holder.BOB.value
EVE = Holder.EVE.value
_PEER = {ALICE: BOB, BOB: ALICE}
_HOLDERS = {holder.value: holder for holder in Holder}  # cheaper than Holder(name)


class ConfigError(ValueError):
    """Inconsistent experiment configuration."""


class ProtocolError(ConfigError):
    """Bad protocol parameters: widths, caps, key shapes."""


def peak_live_width(protocol: str, n: int, l: int = 0, t: int = 0) -> tuple[int, str]:
    """Worst-case simultaneous qubit count of a session, with the formula.

    Derived from the register lifecycles: registers are discarded the
    moment they provably factor out, so the peak is reached just before
    the first uncompute of the widest stage's exchange.
    """
    if protocol not in STAGES:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    stage = max(STAGES[protocol], key=lambda s: s.peak(n, l, t))
    peak = stage.peak(n, l, t)
    formula = stage.width.replace("n", str(n)).replace("t", str(t))
    if stage.exchange.copies > 1:
        formula = f"({formula})" if "+" in formula else formula
        formula = f"{stage.exchange.copies}*{formula}"
    if stage.exchange.tagged:
        formula += f"+{l}"
    return peak, f"{formula}={peak}"


def check_enumeration(kinds, width: int, l: int, enum_limit: int) -> None:
    """Refuse a view that enumerates more than `enum_limit` secrets.

    A view averaged over "pads" enumerates the 2**l pads of its round,
    and over "keys" every l-bit tag function of the round's width-bit
    message; the count is their product.
    """
    count, what = 1, []
    if "pads" in kinds:
        count <<= l
        what.append(f"{l}-bit pads")
    if "keys" in kinds:
        count *= count_functions(width, l)
        what.append(f"{width}-to-{l}-bit tag functions")
    if count > enum_limit:
        raise EnumerationLimitError(count, enum_limit, " times ".join(what))


# ---------------------------------------------------------------------------
# Parameters, keys, transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolParams:
    """The session validator: protocol id, widths, the peak-width cap,
    the snapshot cap when `snapshots` is on, and the message range.

    Every session, `noninteractive_view` and `ExperimentConfig` build one,
    so each refusal is made in one place and before anything runs.
    """

    protocol: str
    n: int
    l: int = 0
    t: int = 0
    qubit_cap: int = DEFAULT_QUBIT_CAP
    snapshots: bool = False
    messages: tuple[int, ...] = ()

    def __post_init__(self):
        if self.protocol not in STAGES:
            raise ProtocolError(f"unknown protocol {self.protocol!r}, "
                                f"expected one of {PROTOCOL_IDS}")
        if self.n < 1:
            raise ProtocolError(f"message width must be >= 1, got {self.n}")
        if self.protocol not in UNTAGGED and self.l < 1:
            raise ProtocolError(f"{self.protocol} needs a tag register width l >= 1")
        if self.protocol in AUTHENTICATED and self.t < 1:
            raise ProtocolError(f"{self.protocol} needs an authentication tag width t >= 1")
        if max(s.peak(self.n, self.l, self.t) for s in STAGES[self.protocol]) > self.qubit_cap:
            _, formula = peak_live_width(self.protocol, self.n, self.l, self.t)
            raise ProtocolError(f"{self.protocol} needs peak live width {formula} qubits, "
                                f"cap is {self.qubit_cap}")
        # A k-qubit snapshot is a 2**k x 2**k matrix, as many entries as a
        # 2k-qubit state, and the widest one carries the widest stage plus
        # its tag register.
        k = self.widest + self.l
        if self.snapshots and 2 * k > self.qubit_cap:
            raise ProtocolError(
                f"{self.protocol} snapshots are {k}-qubit density matrices, as large as a "
                f"2*{k}={2 * k}-qubit state, cap is {self.qubit_cap}; "
                f"run with --no-snapshots and --average none"
            )
        for x in self.messages:
            if not 0 <= x < (1 << self.n):
                raise ProtocolError(f"message {x} does not fit in {self.n} bits")

    @property
    def widest(self) -> int:
        """Message width of the widest stage: n+t in p6, else n."""
        return max(stage.bits(self.n, self.t) for stage in STAGES[self.protocol])


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
    if protocol in AUTHENTICATED:
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
    draws: tuple | None = None  # one draw record per stage

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
    sender_perm: BooleanPermutation
    receiver_perm: BooleanPermutation


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

    def measure(self, state: CompositeState, party: Party, name: str, *,
                discard: bool = False):
        width = state.register(name).width
        outcome, state = state.measure(name, party.rng, discard=discard)
        self.transcript.measurements.append(MeasurementRecord(party.name, name, width, outcome))
        return outcome, state


# ---------------------------------------------------------------------------
# The stage table of the whole family
# ---------------------------------------------------------------------------


class Exchange(NamedTuple):
    """A two-party exchange of the message register R1, run from a
    `record` of its draws. `perms` names the record's permutation fields,
    and `passes` names, pass by pass, the pad field the pass carries and
    whether the tag under it is the exchange sender's (None: the pass is
    untagged); the party that sends a pass tags it. An `inverted`
    exchange is opened by the receiver, and its sender imprints the
    message as phases instead of opening with it."""

    record: type
    perms: tuple[str, ...]
    passes: tuple[tuple[str, bool] | None, ...]
    inverted: bool = False

    @property
    def copies(self) -> int:
        """Message-width registers live at the peak: R1 and each permutation's."""
        return 1 + len(self.perms)

    @property
    def tagged(self) -> bool:
        return self.passes[0] is not None

    def sample(self, n: int, l: int, sender_rng, receiver_rng):
        """Draw the record: each permutation in `perms` order from its
        owner's stream, then each tagged pass's pad from its tag owner's."""
        values = {name: sample_permutation(n, sender_rng if name == "sender_perm"
                                           else receiver_rng) for name in self.perms}
        for pad, senders_tag in filter(None, self.passes):
            values[pad] = sample_pad(l, sender_rng if senders_tag else receiver_rng).value
        return self.record(**values)

    def run(self, channel: Channel, x: int, n: int, l: int, sender: Party,
            receiver: Party, draws) -> int:
        """Run the exchange on `draws`, an instance of `record`, and return
        the value its receiver decodes.

        The opener (the sender, or the receiver when inverted) makes R1 as
        |x> (|0> when inverted) and applies a Hadamard. Then the party
        holding R1, turn by turn: uncomputes the permutation it bound;
        strips the tag of the pass it received and measures the bare pad;
        on its first turn binds its own permutation, if `perms` names one;
        imprints x as phases if it is an inverted exchange's sender; and
        tags and sends the next pass. The last receiver uncomputes and
        strips, then applies a Hadamard and measures R1. Registers are
        named R1, R2, ... in the order they are made.
        """
        inverted, passes, last = self.inverted, self.passes, len(self.passes)
        # Side 0 opens; side i & 1 holds R1 on turn i.
        sides = (receiver, sender) if inverted else (sender, receiver)
        holders = (_HOLDERS[sides[0].name], _HOLDERS[sides[1].name])
        perms = [None, None]  # the table each side binds; the sender is side 1 when inverted
        for name in self.perms:
            perms[(name == "sender_perm") == inverted] = getattr(draws, name).table
        state = init_basis_state([Register("R1", n, holders[0])],
                                 None if inverted else {"R1": x}, qubit_cap=channel.qubit_cap)
        state = state.apply_hadamard("R1")
        made, bound, tag = 1, [None, None], None
        for i in range(last + 1):
            side = i & 1
            party = sides[side]
            if bound[side] is not None:
                state = state.discard(bound[side], source="R1", table=perms[side])
            if tag is not None:
                state = state.apply_xor_oracle("R1", tag, party.strips_with.table)
                _, state = channel.measure(state, party, tag, discard=True)
            if i == last:
                break
            if i < 2 and perms[side] is not None:
                made += 1
                bound[side] = f"R{made}"
                state = state.extend(bound[side], n, holders[side], source="R1",
                                     table=perms[side])
            if inverted and side:
                state = state.apply_phase_flip("R1", x)
            if passes[i] is None:
                tag, names = None, ("R1",)
            else:
                made += 1
                tag = f"R{made}"
                names = ("R1", tag)
                state = state.extend(tag, l, holders[side], getattr(draws, passes[i][0]),
                                     source="R1", table=party.tags_with.table)
            state = channel.send(state, names, party, sides[1 - side])
        state = state.apply_hadamard("R1")
        outcome, _ = channel.measure(state, party, "R1")
        return outcome


UNTAGGED_THREE_PASS = Exchange(P1Draws, ("sender_perm", "receiver_perm"), (None, None, None))
TAGGED_THREE_PASS = Exchange(P2Draws, ("sender_perm", "receiver_perm"),
                             (("first_pad", True), ("reply_pad", False), ("final_pad", True)))
INVERTED_TWO_PASS = Exchange(P4Draws, ("receiver_perm",),
                             (("receiver_pad", False), ("sender_pad", True)), inverted=True)
BROADCAST = Exchange(NonintDraws, (), (("pad", True),))


class Stage(NamedTuple):
    """One exchange of a protocol: `width` is its message width ("n",
    "n+t" or "t"), and `keys` the suffix of the SharedKeys tag attributes
    it uses ("_echo" for the echo stage of the authenticated protocol)."""

    exchange: Exchange
    sender: str
    width: str = "n"
    keys: str = ""

    def bits(self, n: int, t: int) -> int:
        """The stage's message width: the sum of the terms `width` names."""
        return n * ("n" in self.width) + t * ("t" in self.width)

    def peak(self, n: int, l: int, t: int) -> int:
        """Live qubits at the exchange's peak: its message-width copies and tag."""
        exchange = self.exchange
        return exchange.copies * self.bits(n, t) + (l if exchange.tagged else 0)

    def tag_owner(self, senders_tag: bool) -> str:
        """The party whose tag function lies under a pass."""
        return self.sender if senders_tag else _PEER[self.sender]


# p3 and p5 send the message, echo it back with the roles swapped, and
# send it again; p6 sends message and MAC tag together, then echoes the
# tag it received under the second pair of tag functions.
STAGES: dict[str, tuple[Stage, ...]] = {
    "p1": (Stage(UNTAGGED_THREE_PASS, ALICE),),
    "p2": (Stage(TAGGED_THREE_PASS, ALICE),),
    "p3": (Stage(TAGGED_THREE_PASS, ALICE),
           Stage(TAGGED_THREE_PASS, BOB),
           Stage(TAGGED_THREE_PASS, ALICE)),
    "p4": (Stage(INVERTED_TWO_PASS, ALICE),),
    "p5": (Stage(INVERTED_TWO_PASS, ALICE),
           Stage(INVERTED_TWO_PASS, BOB),
           Stage(INVERTED_TWO_PASS, ALICE)),
    "p6": (Stage(INVERTED_TWO_PASS, ALICE, "n+t"),
           Stage(INVERTED_TWO_PASS, BOB, "t", "_echo")),
    "nonint": (Stage(BROADCAST, ALICE),),
    "two-round": (Stage(INVERTED_TWO_PASS, ALICE),),
}

PROTOCOL_IDS = tuple(STAGES)
ROUND_COUNTS = {protocol: sum(len(stage.exchange.passes) for stage in stages)
                for protocol, stages in STAGES.items()}
# The ids whose passes carry no tag (p1), whose stages carry the t-bit
# MAC tag (p6), and which send, echo and send again (p3, p5).
UNTAGGED = frozenset(p for p, stages in STAGES.items() if not stages[0].exchange.tagged)
AUTHENTICATED = frozenset(p for p, stages in STAGES.items()
                          if any("t" in stage.width for stage in stages))
ECHOED = frozenset(p for p, stages in STAGES.items() if len(stages) == 3)


def round_widths(protocol: str, n: int, t: int = 0) -> tuple[int, ...]:
    """The width of the message register R1 in each round, in order."""
    return tuple(stage.bits(n, t) for stage in STAGES[protocol]
                 for _ in stage.exchange.passes)


def _sample_draws(protocol: str, n: int, l: int, t: int, rngs: dict) -> tuple:
    """Every random choice of a session, one record per stage, from the parties' streams."""
    if protocol not in STAGES:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    return tuple(stage.exchange.sample(stage.bits(n, t), l, rngs[stage.sender],
                                       rngs[_PEER[stage.sender]])
                 for stage in STAGES[protocol])


def _open_session(protocol, x, n, l, t, keys, rng, draws, attack, snapshots, qubit_cap):
    """Check a session's parameters, keys and draws, and open it.

    Returns the channel and `stage(i, message)`, which runs stage i of
    STAGES[protocol] between the honest parties and returns the value
    its receiver decoded. Draws left as None come from `_sample_draws`,
    on the streams the session measures with. Each stage's draw record,
    tag functions and permutations, and p6's MAC key, must fit the stage.
    With no keys (p1) the parties carry no tag functions.
    """
    ProtocolParams(protocol, n, l, t, qubit_cap, snapshots=snapshots, messages=(x,))
    mac_key = getattr(keys, "mac_key", None)
    if protocol in AUTHENTICATED and getattr(mac_key, "t", None) != t:
        raise ProtocolError(f"{protocol} needs a one-time authentication key of width t={t}, "
                            f"got {'none' if mac_key is None else mac_key.t}")
    alice_rng, bob_rng, eve_rng = party_streams(rng if rng is not None else 0, 3)
    rngs = {ALICE: alice_rng, BOB: bob_rng}
    if draws is None:
        draws = _sample_draws(protocol, n, l, t, rngs)
    stages = STAGES[protocol]
    want = tuple(s.exchange.record for s in stages)
    got = tuple(map(type, draws)) if isinstance(draws, tuple) else type(draws)
    if got != want:
        shown = [c.__name__ for c in got] if isinstance(got, tuple) else got.__name__
        raise ProtocolError(f"{protocol} draws are a tuple of one record per stage, "
                            f"{[c.__name__ for c in want]}, got {shown}")
    for s, d in zip(stages, draws):
        bits = s.bits(n, t)
        for name in s.exchange.perms:
            if getattr(d, name).n != bits:
                raise ProtocolError(f"{name} has width {getattr(d, name).n}, but the "
                                    f"stage's message register has {bits}")
        for _, senders_tag in filter(None, s.exchange.passes):
            attr = f"{s.tag_owner(senders_tag)}_tag{s.keys}"
            fn = getattr(keys, attr, None)
            if fn is None or (fn.n, fn.l) != (bits, l):
                got = "none" if fn is None else f"{fn.n}->{fn.l}"
                raise ProtocolError(f"{protocol} needs the tag function {attr} of shape "
                                    f"{bits}->{l}, got {got}")
    tr = Transcript(protocol, n, l, t, x, draws=draws)
    channel = Channel(tr, attack, eve_rng, snapshots, qubit_cap)

    def stage(i: int, message: int) -> int:
        s, r = stages[i].sender, _PEER[stages[i].sender]
        tag = {p: getattr(keys, f"{p}_tag{stages[i].keys}", None) for p in (s, r)}
        sender = Party(s, rngs[s], tag[s], tag[r])
        receiver = Party(r, rngs[r], tag[r], tag[s])
        return stages[i].exchange.run(channel, message, stages[i].bits(n, t), l,
                                      sender, receiver, draws[i])

    return channel, stage


def _run_stages(protocol, x, n, l, keys, rng, draws, attack, snapshots, qubit_cap):
    """Send x in the one stage, or send it, echo it back, send it again.

    The echo stage swaps the roles; each party keeps using its own tag
    function in whichever role it plays. Permutations and pads are fresh
    every stage; the tag functions persist. Alice accepts when the echo
    matches what she sent, and Bob when both of his receptions agree.
    """
    channel, stage = _open_session(protocol, x, n, l, 0, keys, rng, draws, attack,
                                   snapshots, qubit_cap)
    tr = channel.transcript
    tr.recovered = stage(0, x)
    if protocol in ECHOED:
        tr.alice_accepts = stage(1, tr.recovered) == x
        tr.bob_accepts = stage(2, x) == tr.recovered
    return tr


def run_protocol1(
    x: int,
    n: int,
    *,
    rng=None,
    draws: tuple | None = None,
    attack=None,
    snapshots: bool = True,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Transcript:
    """Three untagged passes from Alice to Bob, with no pre-shared secret."""
    return _run_stages("p1", x, n, 0, None, rng, draws, attack, snapshots, qubit_cap)


def _stage_runner(protocol: str, name: str, doc: str):
    """The public runner `name` of a protocol that takes x, n, l and keys."""

    def runner(x: int, n: int, l: int, keys: SharedKeys, *, rng=None, draws=None, attack=None,
               snapshots: bool = True, qubit_cap: int = DEFAULT_QUBIT_CAP) -> Transcript:
        return _run_stages(protocol, x, n, l, keys, rng, draws, attack, snapshots, qubit_cap)

    runner.__name__ = runner.__qualname__ = name
    runner.__doc__ = doc
    return runner


run_protocol2 = _stage_runner("p2", "run_protocol2",
                              "Single tagged three-pass exchange from Alice to Bob.")
run_protocol3 = _stage_runner("p3", "run_protocol3",
                              "Message, echo, message: three tagged exchanges with verdicts.")
run_protocol4 = _stage_runner("p4", "run_protocol4",
                              "Single receiver-initiated exchange from Alice to Bob.")
run_protocol5 = _stage_runner("p5", "run_protocol5",
                              "Message, echo, message over the receiver-initiated exchange.")
# Identical machinery to p4, kept as its own id because on its own it
# permits permanent key reuse, which the experiments certify separately.
run_two_round = _stage_runner("two-round", "run_two_round",
                              "The two-pass exchange standing alone as a complete protocol.")
# Exploratory: nothing here certifies the broadcast's security, and the
# experiments treat its channel views purely as regression data.
run_noninteractive = _stage_runner("nonint", "run_noninteractive",
                                   "Single transmission of the phase-encoded message plus a tag.")


def run_protocol6(
    x: int,
    n: int,
    l: int,
    t: int,
    keys: SharedKeys,
    *,
    rng=None,
    draws: tuple | None = None,
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
    channel, stage = _open_session("p6", x, n, l, t, keys, rng, draws, attack,
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


def run_session(protocol: str, x: int, n: int, l: int, t: int, keys, **kw) -> Transcript:
    """Run one session of any protocol, passing each runner the widths it takes.

    The runner is looked up by its public name on every call, so a
    rebound `run_*` name (a tracing wrapper, say) is the one that runs.
    """
    if protocol not in PROTOCOL_IDS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    special = {"nonint": "run_noninteractive", "two-round": "run_two_round"}
    run = globals()[special.get(protocol, f"run_protocol{protocol[1:]}")]
    if protocol in UNTAGGED:
        return run(x, n, **kw)
    if protocol in AUTHENTICATED:
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
    ProtocolParams("nonint", n, l, qubit_cap=qubit_cap, snapshots=True, messages=(x,))
    blank = BooleanFunction(n, l, (0,) * (1 << n))
    (view,) = eve_average_view(Transcript("nonint", n, l, 0, x, draws=(NonintDraws(0),)), (1,),
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
    passes = [(index, stage, pad) for index, stage in enumerate(STAGES[protocol])
              for pad in stage.exchange.passes]
    index, stage, carried = passes[round_index - 1]
    if carried is None:
        raise ValueError("the untagged protocol has no secrets to average over")
    field_name, senders_tag = carried
    owner = stage.tag_owner(senders_tag)
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
    l = transcript.l
    plans = []
    for r in wanted:
        stage, pad_field, _, tag_attr = _round_secrets(protocol, r)
        if keys is None:
            raise ValueError("keyed protocols need the session keys to average")
        base_fn: BooleanFunction = getattr(keys, tag_attr)
        check_enumeration(kinds, base_fn.n, l, enum_limit)
        averaged = tuple(label for kind, label in (("pads", f"{pad_field}[stage {stage}]"),
                                                   ("keys", tag_attr)) if kind in kinds)
        plans.append((r, getattr(transcript.draws[stage], pad_field), base_fn, averaged))

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
