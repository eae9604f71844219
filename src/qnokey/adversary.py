"""Adversary strategies and detection experiments.

Attacks come in two shapes. In-transit strategies implement a single
hook, `on_transmission`, that the runners invoke while the registers
sit on the channel; they receive an explicit random stream and an event
log and return the (possibly modified) state. Whole-session strategies,
like the full impersonation procedures, drive their own protocol runs.

Every result produced here certifies exactly the strategies implemented
in this module, nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import protocols as proto
from .oracles import make_rng, party_streams, sample_function
from .qstate import DEFAULT_QUBIT_CAP, CompositeState, DensityMatrix, trace_distance


class AttackSpecError(ValueError):
    """Malformed attack description string."""


class Attack:
    """Base in-transit strategy: touch nothing, log nothing."""

    kind = "none"

    def on_transmission(
        self,
        state: CompositeState,
        round_index: int,
        names: tuple[str, ...],
        rng: np.random.Generator,
        events: list[dict],
    ) -> CompositeState:
        return state

    def describe(self) -> str:
        return self.kind


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

    kind = "phase"

    def on_transmission(self, state, round_index, names, rng, events):
        if self.passes is not None and round_index not in self.passes:
            return state
        events.append({"attack": "phase", "round": round_index,
                       "register": "R1", "mask": self.mask})
        return state.apply_phase_flip("R1", self.mask)

    def describe(self) -> str:
        passes = "all" if self.passes is None else ",".join(map(str, sorted(self.passes)))
        return f"phase:x={self.mask:#x},passes={passes}"


@dataclass
class MeasureResendAttack(Attack):
    """Measure every in-transit register, then pass the collapse on."""

    passes: frozenset[int] | None = None

    kind = "measure"

    def on_transmission(self, state, round_index, names, rng, events):
        if self.passes is not None and round_index not in self.passes:
            return state
        for name in names:
            outcome, state = state.measure(name, rng)
            events.append({"attack": "measure", "round": round_index,
                           "register": name, "outcome": outcome})
        return state

    def describe(self) -> str:
        passes = "all" if self.passes is None else ",".join(map(str, sorted(self.passes)))
        return f"measure:passes={passes}"


@dataclass
class PassiveAttack(Attack):
    """Record what crosses the channel; never perturb it.

    The runner's own snapshots already capture the channel states, so
    the hook only notes that the round was observed.
    """

    kind = "passive"

    def on_transmission(self, state, round_index, names, rng, events):
        events.append({"attack": "passive", "round": round_index,
                       "registers": list(names)})
        return state

    def describe(self) -> str:
        return "passive"


def parse_attack(spec: str | None) -> Attack | None:
    """Parse the CLI mini-language for attack strategies.

    Grammar: "none", "passive", "mim", "phase:x=<int>[,passes=a,b,..]",
    "measure[:passes=a,b,...]".  Integers accept 0x prefixes.  "mim" is
    handled by the experiment drivers, not as an in-transit hook, and
    parses to the marker returned here.
    """
    if spec is None or spec == "" or spec == "none":
        return None
    head, _, rest = spec.partition(":")
    options: dict[str, str] = {}
    if rest:
        for token in rest.split(","):
            key, eq, value = token.partition("=")
            if not eq:
                # bare continuation of a passes list: "passes=1,2,3"
                if "passes" in options:
                    options["passes"] += "," + key
                    continue
                raise AttackSpecError(f"malformed attack option {token!r} in {spec!r}")
            if key in options:
                raise AttackSpecError(f"repeated option {key!r} in {spec!r}")
            options[key] = value
    def parse_passes() -> frozenset[int] | None:
        raw = options.pop("passes", None)
        if raw is None or raw == "all":
            return None
        try:
            passes = frozenset(int(v, 0) for v in raw.split(",") if v)
        except ValueError as exc:
            raise AttackSpecError(f"bad passes list {raw!r} in {spec!r}") from exc
        if not passes:
            raise AttackSpecError(f"empty passes list in {spec!r}")
        return passes

    if head == "passive":
        attack = PassiveAttack()
    elif head == "phase":
        raw_mask = options.pop("x", None)
        if raw_mask is None:
            raise AttackSpecError(f"phase attack needs x=<mask> in {spec!r}")
        try:
            mask = int(raw_mask, 0)
        except ValueError as exc:
            raise AttackSpecError(f"bad mask {raw_mask!r} in {spec!r}") from exc
        attack = PhaseAttack(mask, parse_passes())
    elif head == "measure":
        attack = MeasureResendAttack(parse_passes())
    elif head == "mim":
        attack = MimMarker()
    else:
        raise AttackSpecError(f"unknown attack kind {head!r} in {spec!r}")
    if options:
        raise AttackSpecError(f"unknown options {sorted(options)} in {spec!r}")
    return attack


@dataclass
class MimMarker(Attack):
    """Placeholder for the whole-session impersonation strategies."""

    kind = "mim"

    def on_transmission(self, state, round_index, names, rng, events):
        raise AttackSpecError(
            "mim is a whole-session strategy; use the impersonation drivers"
        )

    def describe(self) -> str:
        return "mim"


# ---------------------------------------------------------------------------
# Whole-session strategies
# ---------------------------------------------------------------------------


@dataclass
class MimOutcome:
    """Result of splitting the untagged protocol into two sessions."""

    eve_recovered: int
    bob_recovered: int
    alice_session: proto.Transcript
    bob_session: proto.Transcript


def mim_full_impersonation(
    x: int,
    x_eve: int,
    n: int,
    *,
    rng=None,
    snapshots: bool = False,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> MimOutcome:
    """Cut the untagged three-pass protocol into two full sessions.

    Nothing in that protocol authenticates the counterparty, so Eve
    simply runs the receiver role against Alice (learning x every
    time) and separately the sender role against Bob with a message of
    her choice. Both halves are deterministic honest runs; only the
    pairing is dishonest.
    """
    eve_rng, session_rng = party_streams(rng if rng is not None else 0, 2)
    toward_eve = proto.run_protocol1(x, n, rng=session_rng, snapshots=snapshots,
                                     qubit_cap=qubit_cap)
    toward_bob = proto.run_protocol1(x_eve, n, rng=eve_rng, snapshots=snapshots,
                                     qubit_cap=qubit_cap)
    return MimOutcome(
        eve_recovered=toward_eve.recovered,
        bob_recovered=toward_bob.recovered,
        alice_session=toward_eve,
        bob_session=toward_bob,
    )


@dataclass
class ImpersonationTrial:
    """One stage-two hijack attempt against an echoed protocol."""

    protocol: str
    message: int
    eve_guess: int
    echo_measured: int
    alice_accepts: bool


def impersonate_echo_stage(
    protocol: str,
    x: int,
    n: int,
    l: int,
    keys: proto.SharedKeys,
    *,
    rng=None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> ImpersonationTrial:
    """Eve hijacks the echo stage without the shared tag functions.

    Stage one runs honestly except that Eve measures everything in
    transit (gaining only scrambled values). She then plays the echo
    stage's sending role toward Alice, echoing her best guess with
    self-made substitute tag functions. Alice runs her honest side and
    applies her usual echo verdict. The guess can only be uniform: every
    stage-one snapshot Eve measured is independent of x.
    """
    if protocol not in proto.ECHOED:
        raise ValueError(f"echo impersonation targets {' or '.join(sorted(proto.ECHOED))}, "
                         f"not {protocol!r}")
    root = make_rng(rng if rng is not None else 0)
    stage1_rng, eve_rng, alice_rng = root.spawn(3)

    # Stage one, honest parties, Eve measuring on the line: the first
    # single-stage protocol that is the echoed protocol's first stage.
    first = next(p for p, stages in proto.STAGES.items() if stages == proto.STAGES[protocol][:1])
    stage1 = proto.run_session(first, x, n, l, 0, keys, rng=stage1_rng,
                               attack=MeasureResendAttack(), snapshots=False,
                               qubit_cap=qubit_cap)

    # Eve's guess: the message-register value she measured first. It is
    # uniform, so her success floor is 2**-n regardless of the tap.
    guess = next(ev["outcome"] for ev in stage1.attack_events
                 if ev.get("register") == "R1")

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
    return ImpersonationTrial(protocol, x, guess, echo, alice_accepts=(echo == x))


@dataclass
class DetectionStats:
    """Rejection statistics for repeated impersonation trials."""

    protocol: str
    n: int
    l: int
    trials: int
    rejections: int

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.trials


def echo_detection_experiment(
    protocol: str,
    n: int,
    l: int,
    trials: int,
    *,
    rng=None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> DetectionStats:
    """Repeat the stage-two hijack and count Alice's rejections.

    Messages and keys are redrawn every trial so the statistic covers
    the whole ensemble, not one lucky key.
    """
    if trials < 1:
        raise ValueError(f"echo detection needs trials >= 1, got {trials}")
    root = make_rng(rng if rng is not None else 0)
    rejections = 0
    for _ in range(trials):
        key_rng, msg_rng, trial_rng = root.spawn(3)
        keys = proto.sample_shared_keys(protocol, n, l, 0, key_rng)
        x = int(msg_rng.integers(0, 1 << n))
        trial = impersonate_echo_stage(protocol, x, n, l, keys, rng=trial_rng,
                                       qubit_cap=qubit_cap)
        if not trial.alice_accepts:
            rejections += 1
    return DetectionStats(protocol, n, l, trials, rejections)


# ---------------------------------------------------------------------------
# Passive observation
# ---------------------------------------------------------------------------


@dataclass
class PassiveComparison:
    """Per-round channel snapshots across a message set, with distances."""

    protocol: str
    messages: tuple[int, ...]
    views: dict  # message -> list[DensityMatrix], one per round
    distances: dict  # (x, y, round_index) -> float


def passive_snapshot(
    protocol: str,
    messages: Sequence[int],
    n: int,
    l: int = 0,
    keys: proto.SharedKeys | None = None,
    *,
    rng=None,
    averaged: bool = False,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> PassiveComparison:
    """Observe sessions for several messages and compare the rounds.

    With `averaged` the comparison uses the exact pad-averaged views
    (the indistinguishability object); otherwise the per-run snapshots.
    Draws are held identical across messages so the comparison isolates
    the message dependence.
    """
    if not messages:
        raise ValueError("passive_snapshot needs at least one message")
    t = keys.mac_key.t if (keys is not None and keys.mac_key is not None) else 0
    base = proto.run_session(protocol, messages[0], n, l, t, keys,
                             rng=rng if rng is not None else 0,
                             attack=PassiveAttack(), snapshots=True, qubit_cap=qubit_cap)
    rounds = proto.ROUND_COUNTS[protocol]
    views: dict[int, list[DensityMatrix]] = {}
    for x in messages:
        redo = proto.run_session(protocol, x, n, l, t, keys, rng=0, draws=base.draws,
                                 attack=PassiveAttack(), snapshots=True,
                                 qubit_cap=qubit_cap)
        if averaged:
            views[x] = [view.rho for view in proto.eve_average_view(redo, keys=keys)]
        else:
            views[x] = [redo.snapshot(r) for r in range(1, rounds + 1)]
    distances = {(x, y, r): d for x, y, r, d in pairwise_distances(messages, views)}
    return PassiveComparison(protocol, tuple(messages), views, distances)


def pairwise_distances(messages: Sequence[int], views: dict[int, Sequence[DensityMatrix]]):
    """Yield (x, y, round, trace distance) between the views of each pair
    of messages, x before y in `messages`' order, then round by round."""
    for i, x in enumerate(messages):
        for y in messages[i + 1:]:
            for r, (a, b) in enumerate(zip(views[x], views[y]), 1):
                yield x, y, r, trace_distance(a, b)
