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

Four exchanges, each declared by four facts (which sides bind a
permutation, the pass count, whether passes are tagged, whether the
receiver opens), build the family: the untagged three-pass (p1), the
tagged three-pass (p2), the inverted two-pass (p4, two-round) and the
one-shot broadcast (nonint, exploratory only). Exchange.sender_sends
says who sends, and so tags, each pass; a Draws record holds each side's
permutation and one pad per pass. STAGES lists all eight ids once, as
their stages: the exchange, the sending party, the message width (n+t
and t in p6) and the tag functions used. One driver, _run_stages, runs
every id: p3 and p5 send, echo back and send again, with accept
verdicts; p6 sends message plus one-time MAC tag, then echoes the tag.
Its signature alone states the session keywords (rng, draws, attack,
snapshots, qubit_cap): each public run_* takes its id's widths and keys
and forwards to it, and run_session looks that name up at each call.
PROTOCOL_IDS, ROUND_COUNTS, peak_live_width, sample_draws, TAG_KEYS, the
averaging lookup, check_session, check_keys and check_draws (the one
session, key and draw validators) all derive from STAGES, and every
session runs all its passes. A party is its name string, which also
names the holder of each register it makes or receives; an exchange
takes its parties as Party(name, rng, tags_with, strips_with) values, so
an adversary can play a side with substitute tables.

Channel views: per-run snapshots are what an eavesdropper sees in one
session; eve_average_view computes, for each requested round, the exact
mixture over enumerated one-time values (and optionally over the
tag-function family), which is the object the indistinguishability
claims are about. The two are kept strictly separate because per-run
snapshots of the tagged protocols are not maximally mixed. One call
re-runs the honest session once for all its rounds, and gets every
enumerated secret's snapshot of a round by permuting the tag index of
that rerun's snapshot of the round; noninteractive_view is the same
average over the broadcast's single round. Each view carries the honest
session it was read from, whose record is the one any honest run on the
same keys and draws makes, so a caller that wants both runs it once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .auth import MacKey, mac_keygen, mac_tag, mac_verify
from .oracles import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_TABLE_WIDTH_CAP,
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
from .qstate import DEFAULT_QUBIT_CAP, CompositeState, Register, as_matrix, init_basis_state

# This host's physical memory, read once: `check_session` refuses a
# session whose largest array would not fit in it.
HOST_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

# The parties' names, which also name who holds each register.
ALICE, BOB, EVE = "alice", "bob", "eve"
_PEER = {ALICE: BOB, BOB: ALICE}


class ConfigError(ValueError):
    """Inconsistent experiment configuration."""


class ProtocolError(ConfigError):
    """Bad protocol parameters: widths, caps, key shapes."""


def _check_protocol(protocol: str) -> None:
    """The one refusal of an id that `STAGES` does not list."""
    if protocol not in STAGES:
        raise ProtocolError(f"unknown protocol {protocol!r}, expected one of {PROTOCOL_IDS}")


def peak_live_width(protocol: str, n: int, l: int = 0, t: int = 0) -> tuple[int, str]:
    """Worst-case simultaneous qubit count of a session, with the formula.

    Derived from the register lifecycles: registers are discarded the
    moment they provably factor out, so the peak is reached just before
    the first uncompute of the widest stage's exchange.
    """
    _check_protocol(protocol)
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


def check_session(protocol: str, n: int, l: int = 0, t: int = 0,
                  qubit_cap: int = DEFAULT_QUBIT_CAP, snapshots: bool = False,
                  messages: Iterable[int] = ()) -> int:
    """The session validator: protocol id, widths, the peak-width cap,
    the truth-table width cap, the snapshot cap when `snapshots` is on,
    this host's memory, and the message range. Returns the message width
    of the widest stage: n+t in p6, else n.

    Every session, `noninteractive_view` and `ExperimentConfig` call it,
    so each refusal is made in one place and before anything runs.
    """
    _check_protocol(protocol)
    if n < 1:
        raise ProtocolError(f"message width must be >= 1, got {n}")
    if protocol not in UNTAGGED and l < 1:
        raise ProtocolError(f"{protocol} needs a tag register width l >= 1")
    if protocol in AUTHENTICATED and t < 1:
        raise ProtocolError(f"{protocol} needs an authentication tag width t >= 1")
    peak = max(s.peak(n, l, t) for s in STAGES[protocol])
    if peak > qubit_cap:
        _, formula = peak_live_width(protocol, n, l, t)
        raise ProtocolError(f"{protocol} needs peak live width {formula} qubits, "
                            f"cap is {qubit_cap}")
    widest = max(stage.bits(n, t) for stage in STAGES[protocol])
    if widest > DEFAULT_TABLE_WIDTH_CAP:
        terms = f"n+t={n}+{t}" if protocol in AUTHENTICATED else f"n={n}"
        raise ProtocolError(f"{protocol} message register {terms} is {widest} bits, "
                            f"above the {DEFAULT_TABLE_WIDTH_CAP}-bit truth-table cap")
    # A k-qubit snapshot is a 2**k x 2**k matrix, as many entries as a
    # 2k-qubit state; the widest carries the widest stage and its tag. A
    # diagonal one and its averaged views are kept as 2**k entries, but a
    # Gram product that is not diagonal (an attacked state's, or the
    # broadcast's) and --include-matrices build the matrix, so both
    # refusals budget it.
    k = widest + l
    if snapshots and 2 * k > qubit_cap:
        raise ProtocolError(
            f"{protocol} snapshots are {k}-qubit density matrices, as large as a "
            f"2*{k}={2 * k}-qubit state, cap is {qubit_cap}; "
            f"run with --no-snapshots and --average none"
        )
    # A state stores its nonzero amplitudes only, and no kernel builds the
    # 2**w dense vector; this refusal still counts that dense worst case,
    # 16 bytes for each of 2**w amplitudes, not what a run allocates.
    width = max(peak, 2 * k) if snapshots else peak
    if 16 << width > HOST_MEMORY_BYTES:
        what = (f"{k}-qubit snapshots, as large as a 2*{k}={width}-qubit state" if width > peak
                else f"peak live width {peak_live_width(protocol, n, l, t)[1]} qubits")
        raise ProtocolError(f"{protocol} needs {what}: 16*2**{width}={16 << width} bytes, "
                            f"above this host's {HOST_MEMORY_BYTES} bytes of memory")
    for x in messages:
        if not 0 <= x < (1 << n):
            raise ProtocolError(f"message {x} does not fit in {n} bits")
    return widest


def check_keys(protocol: str, n: int, l: int, t: int, keys) -> None:
    """The key validator, which every session, the echo-stage hijack and
    `eve_average_view` call after `check_session` and before any draw:
    p6's one-time MAC key of width t, then each tag function in
    `TAG_KEYS`, of its stage's message width by l."""
    mac_key = getattr(keys, "mac_key", None)
    if protocol in AUTHENTICATED and getattr(mac_key, "t", None) != t:
        raise ProtocolError(f"{protocol} needs a one-time authentication key of width t={t}, "
                            f"got {'none' if mac_key is None else mac_key.t}")
    for attr, s in TAG_KEYS[protocol]:
        fn, bits = getattr(keys, attr, None), s.bits(n, t)
        if fn is None or (fn.n, fn.l) != (bits, l):
            got = "none" if fn is None else f"{fn.n}->{fn.l}"
            raise ProtocolError(f"{protocol} needs the tag function {attr} of shape "
                                f"{bits}->{l}, got {got}")


def check_draws(protocol: str, n: int, t: int, draws) -> None:
    """The draw validator, which every session and `eve_average_view` call
    before a draw is read: one Draws record per stage, each binding a
    permutation on the sides its exchange binds and carrying one pad per
    tagged pass, and each permutation as wide as its stage's message."""
    stages = STAGES[protocol]
    # A record's shape: whether each side binds a permutation, and its pad count.
    want = [(*s.exchange.binds, s.exchange.passes if s.exchange.tagged else 0) for s in stages]
    got = [(d.sender_perm is not None, d.receiver_perm is not None, len(d.pads))
           if isinstance(d, Draws) else type(d).__name__ for d in draws] \
        if isinstance(draws, tuple) else type(draws).__name__
    if got != want:
        raise ProtocolError(f"{protocol} draws are a tuple of one record per stage, Draws "
                            f"shaped (sender binds, receiver binds, pads) {want}, got {got}")
    for s, d in zip(stages, draws):
        for name in ("sender_perm", "receiver_perm"):
            perm = getattr(d, name)
            if perm is not None and perm.n != s.bits(n, t):
                raise ProtocolError(f"{name} has width {perm.n}, but the "
                                    f"stage's message register has {s.bits(n, t)}")


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
    _check_protocol(protocol)
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
    # As the partial trace returns it: a diagonal one as its diagonal.
    snapshot: np.ndarray | None = None


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

    def stored_snapshot(self, round_index: int) -> np.ndarray:
        """Round r's channel state as stored, a diagonal one as its diagonal: transmission r's."""
        if not 1 <= round_index <= len(self.transmissions):
            raise ValueError(f"no transmission with round index {round_index}")
        snapshot = self.transmissions[round_index - 1].snapshot
        if snapshot is None:
            raise ValueError(f"round {round_index} was run without snapshots")
        return snapshot

    def snapshot(self, round_index: int) -> np.ndarray:
        """A round's channel density matrix, a stored diagonal expanded by `as_matrix`."""
        return as_matrix(self.stored_snapshot(round_index))


@dataclass(frozen=True)
class Draws:
    """Every random choice of one exchange, so a run can be replayed
    exactly with any subset overridden: each side's permutation (None on
    a side that binds none) and one pad per pass, in pass order (none
    when the exchange is untagged)."""

    sender_perm: BooleanPermutation | None = None
    receiver_perm: BooleanPermutation | None = None
    pads: tuple[int, ...] = ()


def sample_draws(protocol: str, n: int, l: int, t: int, rng):
    """Materialise a session's random choices without running it.

    Splits the same party substreams as the runners and hands them to
    the same sampler, so passing the result back in via `draws=`
    reproduces the session the same seed would have produced.
    """
    alice_rng, bob_rng, _ = party_streams(rng, 3)
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
        """Move registers across the channel, applying any interposition,
        and return the state the receiver is handed.

        Rounds are numbered 1, 2, ... in the order sent; the snapshot is
        of the state after the adversary touched it.
        """
        tr = self.transcript
        round_index = len(tr.transmissions) + 1
        regs = tuple((name, state.register(name).width) for name in names)
        if self.attack is not None:
            state = self.attack.on_transmission(state, round_index, names, self.eve_rng,
                                                tr.attack_events)
        snap = state.reduced_density_matrix(names) if self.snapshots else None
        tr.transmissions.append(
            Transmission(round_index, sender.name, receiver.name, regs, snap)
        )
        return state.with_holder(names, receiver.name)

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
    """A two-party exchange of the message register R1 in `passes`
    passes. `binds` says whether the sender and the receiver each bind a
    permutation, and a `tagged` exchange tags every pass. An `inverted`
    exchange is opened by the receiver, and its sender imprints the
    message as phases instead of opening with it. The party that sends a
    pass tags it, and the two parties take turns, so `sender_sends`
    fixes who sends and tags each pass."""

    binds: tuple[bool, bool]
    passes: int
    tagged: bool = False
    inverted: bool = False

    @property
    def copies(self) -> int:
        """Message-width registers live at the peak: R1 and each permutation's."""
        return 1 + sum(self.binds)

    def sender_sends(self, i: int) -> bool:
        """Whether the sender sends, and tags, pass i: the opener sends the even passes."""
        return i % 2 == self.inverted

    def sample(self, n: int, l: int, sender_rng, receiver_rng) -> Draws:
        """Draw each side's permutation from its own stream, then each
        pass's pad from the stream of the party that sends the pass."""
        rngs = (sender_rng, receiver_rng)
        perms = [sample_permutation(n, rng) if bound else None
                 for rng, bound in zip(rngs, self.binds)]
        pads = tuple(sample_pad(l, rngs[not self.sender_sends(i)])
                     for i in range(self.passes if self.tagged else 0))
        return Draws(*perms, pads)

    def run(self, channel: Channel, x: int, n: int, l: int, sender: Party,
            receiver: Party, draws: Draws) -> int:
        """Run the exchange on `draws` and return the value its receiver
        decodes.

        The opener (the sender, or the receiver when inverted) makes R1 as
        |x> (|0> when inverted) and applies a Hadamard. Then the party
        holding R1, turn by turn: uncomputes the permutation it bound;
        strips the tag of the pass it received and measures the bare pad;
        on its first turn binds its own permutation, if it has one;
        imprints x as phases if it is an inverted exchange's sender; and
        tags pass i with `draws.pads[i]` and sends it. The last receiver
        uncomputes and strips, then applies a Hadamard and measures R1.
        Registers are named R1, R2, ... in the order they are made.
        """
        inverted, tagged, pads, last = self.inverted, self.tagged, draws.pads, self.passes
        sides, perms = (sender, receiver), (draws.sender_perm, draws.receiver_perm)
        if not self.sender_sends(0):
            sides, perms = sides[::-1], perms[::-1]
        # Side 0 opens; side i & 1 holds R1 on turn i.
        state = init_basis_state([Register("R1", n, sides[0].name)],
                                 None if inverted else {"R1": x}, qubit_cap=channel.qubit_cap)
        state = state.apply_hadamard("R1")
        made, bound, tag = 1, [None, None], None
        for i in range(last + 1):
            side = i & 1
            party = sides[side]
            if bound[side] is not None:
                state = state.discard(bound[side], source="R1", table=perms[side].table)
            if tag is not None:
                state = state.apply_xor_oracle("R1", tag, party.strips_with.table)
                _, state = channel.measure(state, party, tag, discard=True)
            if i == last:
                break
            if i < 2 and perms[side] is not None:
                made += 1
                bound[side] = f"R{made}"
                state = state.extend(bound[side], n, party.name, source="R1",
                                     table=perms[side].table)
            if inverted and side:
                state = state.apply_phase_flip("R1", x)
            if not tagged:
                names = ("R1",)
            else:
                made += 1
                tag = f"R{made}"
                names = ("R1", tag)
                state = state.extend(tag, l, party.name, pads[i],
                                     source="R1", table=party.tags_with.table)
            state = channel.send(state, names, party, sides[1 - side])
        state = state.apply_hadamard("R1")
        outcome, _ = channel.measure(state, party, "R1")
        return outcome


UNTAGGED_THREE_PASS = Exchange((True, True), 3)
TAGGED_THREE_PASS = Exchange((True, True), 3, tagged=True)
INVERTED_TWO_PASS = Exchange((False, True), 2, tagged=True, inverted=True)
BROADCAST = Exchange((False, False), 1, tagged=True)


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

    def tag_owner(self, i: int) -> str:
        """The party that sends pass i, whose tag function lies under it."""
        return self.sender if self.exchange.sender_sends(i) else _PEER[self.sender]


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
ROUND_COUNTS = {protocol: sum(stage.exchange.passes for stage in stages)
                for protocol, stages in STAGES.items()}
# The ids whose passes carry no tag (p1), whose stages carry the t-bit
# MAC tag (p6), and which send, echo and send again (p3, p5).
UNTAGGED = frozenset(p for p, stages in STAGES.items() if not stages[0].exchange.tagged)
AUTHENTICATED = frozenset(p for p, stages in STAGES.items()
                          if any("t" in stage.width for stage in stages))
ECHOED = frozenset(p for p, stages in STAGES.items() if len(stages) == 3)
# Each id's tag functions once, stage by stage and Alice's first, each with
# a stage that fixes its shape (stages sharing a key suffix share a width).
TAG_KEYS = {protocol: tuple({f"{p}_tag{s.keys}": s for s in stages if s.exchange.tagged
                             for p in (ALICE, BOB)
                             if p in map(s.tag_owner, range(s.exchange.passes))}.items())
            for protocol, stages in STAGES.items()}


def round_widths(protocol: str, n: int, t: int = 0) -> tuple[int, ...]:
    """The width of the message register R1 in each round, in order."""
    return tuple(stage.bits(n, t) for stage in STAGES[protocol]
                 for _ in range(stage.exchange.passes))


def _sample_draws(protocol: str, n: int, l: int, t: int, rngs: dict) -> tuple:
    """Every random choice of a session, one record per stage, from the parties' streams."""
    _check_protocol(protocol)
    return tuple(stage.exchange.sample(stage.bits(n, t), l, rngs[stage.sender],
                                       rngs[_PEER[stage.sender]])
                 for stage in STAGES[protocol])


def _run_stages(protocol, x, n, l, t, keys, *, rng=None, draws=None, attack=None,
                snapshots=True, qubit_cap=DEFAULT_QUBIT_CAP) -> Transcript:
    """The driver every public runner forwards to, whose keywords are the
    one statement of the session keywords: `rng` seeds the parties'
    streams, `draws` replays a session, `attack` touches each pass,
    `snapshots` stores each round's channel state, and `qubit_cap` bounds
    the peak live width. Check a session's parameters and keys before any
    draw, then its draws; run every stage to its end and set its verdicts.

    Draws left as None come from `_sample_draws`, on the streams the
    session measures with, and each stage's record and permutations must
    fit the stage. With no keys (p1) the parties carry no tag functions.
    Each party tags with its own function in whichever role it plays;
    permutations and pads are fresh every stage. A single-stage id sends
    x once. An ECHOED id sends x, echoes back what Bob decoded with the
    roles swapped, and sends x again: Alice accepts when the echo matches
    what she sent, and Bob when both of his receptions agree. An
    AUTHENTICATED id sends x with its one-time MAC tag in the low t bits,
    and Bob checks the tag; then he echoes the tag he received, and Alice
    accepts when it is hers.
    """
    check_session(protocol, n, l, t, qubit_cap, snapshots, (x,))
    check_keys(protocol, n, l, t, keys)
    alice_rng, bob_rng, eve_rng = party_streams(rng, 3)
    rngs = {ALICE: alice_rng, BOB: bob_rng}
    if draws is None:
        draws = _sample_draws(protocol, n, l, t, rngs)
    check_draws(protocol, n, t, draws)
    stages = STAGES[protocol]
    tr = Transcript(protocol, n, l, t, x, draws=draws)
    channel = Channel(tr, attack, eve_rng, snapshots, qubit_cap)

    def stage(i: int, message: int) -> int:
        s, r = stages[i].sender, _PEER[stages[i].sender]
        tag = {p: getattr(keys, f"{p}_tag{stages[i].keys}", None) for p in (s, r)}
        sender = Party(s, rngs[s], tag[s], tag[r])
        receiver = Party(r, rngs[r], tag[r], tag[s])
        return stages[i].exchange.run(channel, message, stages[i].bits(n, t), l,
                                      sender, receiver, draws[i])

    if protocol in AUTHENTICATED:
        auth_tag = mac_tag(keys.mac_key, x, n)
        received = stage(0, (x << t) | auth_tag)
        tr.recovered, got_tag = received >> t, received & ((1 << t) - 1)
        echoed = stage(1, got_tag)
        tr.mac_accepts = tr.bob_accepts = mac_verify(keys.mac_key, tr.recovered, n, got_tag)
        tr.alice_accepts = echoed == auth_tag
        return tr
    tr.recovered = stage(0, x)
    if protocol in ECHOED:
        echoed, again = stage(1, tr.recovered), stage(2, x)
        tr.alice_accepts, tr.bob_accepts = echoed == x, again == tr.recovered
    return tr


def run_protocol1(x: int, n: int, **kw) -> Transcript:
    """Three untagged passes from Alice to Bob, with no pre-shared secret."""
    return _run_stages("p1", x, n, 0, 0, None, **kw)


def run_protocol2(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """Single tagged three-pass exchange from Alice to Bob."""
    return _run_stages("p2", x, n, l, 0, keys, **kw)


def run_protocol3(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """Message, echo, message: three tagged exchanges with verdicts."""
    return _run_stages("p3", x, n, l, 0, keys, **kw)


def run_protocol4(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """Single receiver-initiated exchange from Alice to Bob."""
    return _run_stages("p4", x, n, l, 0, keys, **kw)


def run_protocol5(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """Message, echo, message over the receiver-initiated exchange."""
    return _run_stages("p5", x, n, l, 0, keys, **kw)


# Identical machinery to p4, kept as its own id because on its own it
# permits permanent key reuse, which the experiments certify separately.
def run_two_round(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """The two-pass exchange standing alone as a complete protocol."""
    return _run_stages("two-round", x, n, l, 0, keys, **kw)


# Exploratory: nothing here certifies the broadcast's security, and the
# experiments treat its channel views purely as regression data.
def run_noninteractive(x: int, n: int, l: int, keys: SharedKeys, **kw) -> Transcript:
    """Single transmission of the phase-encoded message plus a tag."""
    return _run_stages("nonint", x, n, l, 0, keys, **kw)


def run_protocol6(x: int, n: int, l: int, t: int, keys: SharedKeys, **kw) -> Transcript:
    """Authenticated two-stage run: message plus tag out, tag echoed back.

    Stage one sends the concatenation of the message (high bits) and
    its one-time authentication tag (low bits) through a single
    receiver-initiated exchange. Bob checks the tag against his copy of
    the one-time key. Stage two returns the tag he received through a
    second exchange; Alice accepts when it equals the tag she computed.
    """
    return _run_stages("p6", x, n, l, t, keys, **kw)


def run_session(protocol: str, x: int, n: int, l: int, t: int, keys, **kw) -> Transcript:
    """Run one session of any protocol, passing each runner the widths it takes.

    The runner is looked up by its public name on every call, so a
    rebound `run_*` name (a tracing wrapper, say) is the one that runs.
    """
    _check_protocol(protocol)
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
) -> np.ndarray:
    """Exact channel state of the one-shot broadcast, all keys averaged.

    Averages the broadcast over every tag function and pad, so the
    result is the true mixture an eavesdropper faces when the key is
    unknown. The family has 2**(l * 2**n) * 2**l members; anything past
    the enumeration limit is rejected with the offending count.
    """
    check_session("nonint", n, l, qubit_cap=qubit_cap, snapshots=True, messages=(x,))
    blank = BooleanFunction(n, l, (0,) * (1 << n))
    (view,) = eve_average_view(Transcript("nonint", n, l, 0, x, draws=(Draws(pads=(0,)),)), (1,),
                               keys=SharedKeys(blank, blank), average_over=("pads", "keys"),
                               enum_limit=enum_limit, qubit_cap=qubit_cap)
    return as_matrix(view.rho)


# ---------------------------------------------------------------------------
# Averaged channel views
# ---------------------------------------------------------------------------


@dataclass
class EveView:
    """Channel state at one round, averaged over enumerated secrets; 1-D if
    diagonal. `session` is the honest run it was read from."""

    rho: np.ndarray
    round_index: int
    runs: int
    session: Transcript


def _round_secrets(protocol: str, round_index: int):
    """Which pad and which party's tag function a round carries.

    Returns (stage_index, pass_index, tag_attr): the round's pad is
    `draws[stage_index].pads[pass_index]`, and tag_attr is the
    SharedKeys attribute name for the carried tag.
    """
    rounds = ROUND_COUNTS[protocol]
    if not 1 <= round_index <= rounds:
        raise ValueError(f"{protocol} has rounds 1..{rounds}, got {round_index}")
    passes = [(index, stage, i) for index, stage in enumerate(STAGES[protocol])
              for i in range(stage.exchange.passes)]
    index, stage, i = passes[round_index - 1]
    if not stage.exchange.tagged:
        raise ValueError("the untagged protocol has no secrets to average over")
    return index, i, f"{stage.tag_owner(i)}_tag{stage.keys}"


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
    the sum is taken in enumeration order. The keys, the transcript's
    draws and every requested round are checked before the rerun: a
    bundle `check_keys` refuses, draws `check_draws` refuses, an unknown
    round, or pads times functions beyond `enum_limit` (refused with the
    count), runs nothing, and so does asking for no round at all.

    Each view's `session` is the rerun (the given transcript for the
    identity average). With the keys and draws fixed, every measurement
    of an honest session has one outcome, so the rerun's record is the
    one an honest session on them makes under any `rng`; the transcript
    itself needs only its id, widths, message and draws.
    """
    kinds = set(average_over)
    unknown = kinds - {"pads", "keys"}
    if unknown:
        raise ValueError(f"unknown averaging kinds {sorted(unknown)}")
    protocol = transcript.protocol
    _check_protocol(protocol)
    wanted = range(1, ROUND_COUNTS[protocol] + 1) if rounds is None else tuple(rounds)
    if not kinds or not wanted:
        # Identity average (the per-run snapshot is it), or no round: no rerun.
        return tuple(EveView(transcript.stored_snapshot(r), r, 1, transcript) for r in wanted)
    l = transcript.l
    if keys is None and protocol not in UNTAGGED:
        raise ValueError("keyed protocols need the session keys to average")
    check_keys(protocol, transcript.n, l, transcript.t, keys)
    check_draws(protocol, transcript.n, transcript.t, transcript.draws)
    plans = []
    for r in wanted:
        stage, pad, tag_attr = _round_secrets(protocol, r)
        base_fn: BooleanFunction = getattr(keys, tag_attr)
        check_enumeration(kinds, base_fn.n, l, enum_limit)
        plans.append((r, transcript.draws[stage].pads[pad], base_fn))

    redo = run_session(
        protocol, transcript.message, transcript.n, l, transcript.t, keys,
        rng=0, draws=transcript.draws, attack=None, snapshots=True, qubit_cap=qubit_cap,
    )
    views = []
    for r, base_pad, base_fn in plans:
        pad_values = range(1 << l) if "pads" in kinds else [base_pad]
        fn_values = list(enumerate_functions(base_fn.n, base_fn.l, enum_limit)) \
            if "keys" in kinds else [base_fn]
        rho = redo.stored_snapshot(r)  # a diagonal gathers only its 2**k entries
        # The snapshot holds the message register R1 first and the tag last.
        (_, width), (_, tag_width) = redo.transmissions[r - 1].registers
        rows = (np.arange(1 << width) << tag_width)[:, None]
        tags = np.arange(1 << tag_width)[None, :]
        base = np.asarray(base_fn.table) ^ base_pad
        tables = [np.asarray(fn.table) ^ base for fn in fn_values]
        rho_sum = None
        for pad_value, table in itertools.product(pad_values, tables):
            sigma = (rows | (tags ^ (table ^ pad_value)[:, None])).ravel()
            snap = rho[sigma] if rho.ndim == 1 else rho[np.ix_(sigma, sigma)]
            rho_sum = snap if rho_sum is None else rho_sum + snap
        runs = len(pad_values) * len(fn_values)
        views.append(EveView(rho_sum / runs, r, runs, redo))
    return tuple(views)
