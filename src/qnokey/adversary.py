"""Adversary strategies and detection experiments.

Attacks come in two shapes. In-transit strategies implement a single
hook, `on_transmission`, that the runners invoke while the registers
sit on the channel; they receive an explicit random stream and an event
log and return the (possibly modified) state. Whole-session strategies,
like the full impersonation procedures, drive their own protocol runs.
`ATTACK_KINDS` declares each kind once, as its class and the options
`parse_attack` reads for it.

Every result produced here certifies exactly the strategies implemented
in this module, nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocols as proto
from .oracles import make_rng, party_streams, sample_function
from .qstate import DEFAULT_QUBIT_CAP, CompositeState, Register, init_basis_state


class AttackSpecError(ValueError):
    """Malformed attack description string."""


class Attack:
    """Base in-transit strategy: touch nothing, log nothing."""

    def on_transmission(
        self,
        state: CompositeState,
        round_index: int,
        names: tuple[str, ...],
        rng: np.random.Generator,
        events: list[dict],
    ) -> CompositeState:
        return state


@dataclass
class PhaseAttack(Attack):
    """Flip message phases in transit: Z**mask on the message register.

    Applied on every pass in `passes` (all passes when None). An odd
    number of touched passes shifts the decoded message by `mask`; an
    even number cancels out exactly. The channel snapshot is unchanged
    because the flip commutes with the scrambled mixture.
    """

    mask: int
    passes: frozenset[int] | None = None

    def on_transmission(self, state, round_index, names, rng, events):
        if self.passes is not None and round_index not in self.passes:
            return state
        events.append({"attack": "phase", "round": round_index,
                       "register": "R1", "mask": self.mask})
        return state.apply_phase_flip("R1", self.mask)


@dataclass
class MeasureResendAttack(Attack):
    """Measure every in-transit register, then pass the collapse on."""

    passes: frozenset[int] | None = None

    def on_transmission(self, state, round_index, names, rng, events):
        if self.passes is not None and round_index not in self.passes:
            return state
        for name in names:
            outcome, state = state.measure(name, rng)
            events.append({"attack": "measure", "round": round_index,
                           "register": name, "outcome": outcome})
        return state


@dataclass
class PassiveAttack(Attack):
    """Record what crosses the channel; never perturb it.

    The runner's own snapshots already capture the channel states, so
    the hook only notes that the round was observed.
    """

    def on_transmission(self, state, round_index, names, rng, events):
        events.append({"attack": "passive", "round": round_index,
                       "registers": list(names)})
        return state


@dataclass
class MimMarker(Attack):
    """Placeholder for the whole-session impersonation strategies."""

    def on_transmission(self, state, round_index, names, rng, events):
        raise AttackSpecError("mim is a whole-session strategy; use the impersonation experiments")


# Each attack kind's class and the options it takes. An option may be
# left out when its field has a default, which makes it a class attribute.
ATTACK_KINDS = {
    "passive": (PassiveAttack, ()),
    "mim": (MimMarker, ()),
    "phase": (PhaseAttack, ("x", "passes")),
    "measure": (MeasureResendAttack, ("passes",)),
}
# Each option's field and the reader of its entries. Only a list option
# has more than one entry.
OPTIONS = {"x": ("mask", lambda v: int(v[0], 0)),
           "passes": ("passes", lambda v: None if v == ["all"] else frozenset(int(p, 0) for p in v))}
LIST_OPTIONS = {"passes"}


def parse_attack(spec: str | None) -> Attack | None:
    """Parse the CLI mini-language for attack strategies.

    Grammar: "none", or a kind of `ATTACK_KINDS` with its options:
    "passive", "mim", "phase:x=<int>[,passes=a,b,..]",
    "measure[:passes=a,b,...]". Integers accept 0x prefixes, and
    "passes=all" means every pass. A list option runs to the next
    option: each bare value after it is one more entry, and an empty
    entry is refused. "mim" is handled by the experiment runners, not as
    an in-transit hook, and parses to the marker returned here.
    """
    if spec is None or spec == "" or spec == "none":
        return None
    head, _, rest = spec.partition(":")
    if head not in ATTACK_KINDS:
        raise AttackSpecError(f"unknown attack kind {head!r} in {spec!r}")
    cls, takes = ATTACK_KINDS[head]
    key, given = None, {}  # the option a bare value would continue; each option's entries
    for token in rest.split(",") if rest else ():
        name, eq, value = token.partition("=")
        if eq:
            if name in given:
                raise AttackSpecError(f"repeated option {name!r} in {spec!r}")
            key, given[name] = name, []
        elif key in LIST_OPTIONS:
            value = token
        else:
            raise AttackSpecError(f"malformed attack option {token!r} in {spec!r}: "
                                  f"a bare value continues only a list option")
        if key in LIST_OPTIONS and not value:
            raise AttackSpecError(f"empty {key} list entry in {spec!r}")
        given[key].append(value)
    unknown = sorted(set(given) - set(takes))
    if unknown:
        raise AttackSpecError(f"unknown options {unknown} in {spec!r}")
    kwargs = {}
    for name in takes:
        field, read = OPTIONS[name]
        if name in given:
            try:
                kwargs[field] = read(given[name])
            except ValueError as exc:
                raise AttackSpecError(f"bad {field} {','.join(given[name])!r} in {spec!r}") from exc
        elif not hasattr(cls, field):
            raise AttackSpecError(f"{head} attack needs {name}=<{field}> in {spec!r}")
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Whole-session strategies
# ---------------------------------------------------------------------------


def mim_full_impersonation(
    x: int,
    x_eve: int,
    n: int,
    *,
    rng=None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[proto.Transcript, proto.Transcript]:
    """Cut the untagged three-pass protocol into two full sessions.

    Nothing in that protocol authenticates the counterparty, so Eve
    simply runs the receiver role against Alice (learning x every
    time) and separately the sender role against Bob with a message of
    her choice. Both halves are deterministic honest runs; only the
    pairing is dishonest. Returns the transcripts toward Eve (Alice's
    session) and toward Bob; their `recovered` are what each decodes.
    Both messages are checked before either session runs.
    """
    proto.check_session("p1", n, qubit_cap=qubit_cap, messages=(x, x_eve))
    eve_rng, session_rng = party_streams(rng, 2)
    toward_eve = proto.run_protocol1(x, n, rng=session_rng, snapshots=False,
                                     qubit_cap=qubit_cap)
    toward_bob = proto.run_protocol1(x_eve, n, rng=eve_rng, snapshots=False,
                                     qubit_cap=qubit_cap)
    return toward_eve, toward_bob


def impersonate_echo_stage(
    protocol: str,
    x: int,
    n: int,
    l: int,
    keys: proto.SharedKeys,
    *,
    rng=None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[int, int]:
    """Eve hijacks the echo stage without the shared tag functions.

    Eve taps stage one's first pass and measures R1, gaining only
    scrambled values. The opener's permutation and tag registers are
    computed from R1, so each R1 value holds one amplitude of magnitude
    2**(-n/2), and her tap's Born weights are bit for bit those of the
    opener's lone H|v> (v is x, or 0 when the receiver opens). Her guess
    is drawn from that state, on the stream a stage-one session hands its
    attack, so no stage-one session runs. She then plays the echo stage's
    sending role toward Alice, echoing her guess with self-made substitute
    tag functions; Alice runs her honest side and applies her usual echo
    verdict. Returns Eve's guess, uniform as the tapped pass is
    independent of x, and the echo Alice measures; she accepts when the
    echo equals x. Bad input is refused before any draw, by the checks
    every session makes: `check_session`, then `check_keys`.
    """
    if protocol not in proto.ECHOED:
        raise ValueError(f"echo impersonation targets {' or '.join(sorted(proto.ECHOED))}, "
                         f"not {protocol!r}")
    proto.check_session(protocol, n, l, 0, qubit_cap, messages=(x,))
    proto.check_keys(protocol, n, l, 0, keys)
    root = make_rng(rng)
    stage1_rng, eve_rng, alice_rng = root.spawn(3)

    # Eve's guess: her tap of stage one's first pass, drawn from the
    # opener's R1. It is uniform, so her success floor is 2**-n.
    first = proto.STAGES[protocol][0]
    opened = init_basis_state([Register("R1", n, first.tag_owner(0))],
                              {"R1": 0 if first.exchange.inverted else x}, qubit_cap)
    guess, _ = opened.apply_hadamard("R1").measure("R1", party_streams(stage1_rng, 3)[2])

    # The echo stage with Eve in Bob's seat. Alice runs her genuine side,
    # stripping with the real shared functions; on Eve's fake tags that
    # leaves a residue entangled with the message register, and her
    # measurement collapses part of the superposition. Eve tags and
    # strips with plausible-looking substitutes for the functions she
    # lacks, wherever Bob would use a shared secret.
    fake_tag, fake_strip = sample_function(n, l, eve_rng), sample_function(n, l, eve_rng)
    echo_stage = proto.STAGES[protocol][1]
    eve = proto.Party(proto.EVE, eve_rng, fake_tag, fake_strip)
    alice = proto.Party(proto.ALICE, alice_rng, keys.alice_tag, keys.bob_tag)
    draws = echo_stage.exchange.sample(n, l, eve_rng, alice_rng)
    channel = proto.Channel(proto.Transcript(protocol, n, l, 0, guess), None, None, False,
                            qubit_cap)
    echo = echo_stage.exchange.run(channel, guess, n, l, eve, alice, draws)
    return guess, echo


def echo_detection_experiment(
    protocol: str,
    n: int,
    l: int,
    trials: int,
    *,
    rng=None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> int:
    """Repeat the stage-two hijack and return how often Alice rejects.

    Messages and keys are redrawn every trial so the statistic covers
    the whole ensemble, not one lucky key.
    """
    if trials < 1:
        raise ValueError(f"echo detection needs trials >= 1, got {trials}")
    root = make_rng(rng)
    rejections = 0
    for _ in range(trials):
        key_rng, msg_rng, trial_rng = root.spawn(3)
        keys = proto.sample_shared_keys(protocol, n, l, 0, key_rng)
        x = int(msg_rng.integers(0, 1 << n))
        _, echo = impersonate_echo_stage(protocol, x, n, l, keys, rng=trial_rng,
                                         qubit_cap=qubit_cap)
        rejections += echo != x
    return rejections
