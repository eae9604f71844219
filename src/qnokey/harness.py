"""Experiment driver: configs in, versioned JSON reports out.

A report is split into a deterministic body and a `meta` block. The
body is a pure function of the config (including its seed): rerunning
the same config must reproduce the body byte for byte, which is what
`verify_report` checks. Wall-clock facts live only in `meta`.

EXPERIMENTS declares the four experiments once: the session grid, the p1
mim split, echo detection and the p6 key sweep. An ExperimentConfig is
checked when it is built, and keeps what a run needs beside its fields:
the parsed attack, its EXPERIMENTS entry and the pinned tables, each file
read once. run_experiment only calls the entry's runner.

Density matrices embedded in reports are base64 blobs of row-major
entries, each entry a little-endian float64 pair (real then imaginary).
"""

from __future__ import annotations

import base64
import datetime
import itertools
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import adversary, protocols as proto
from .auth import MacKey
from .oracles import DEFAULT_ENUM_LIMIT, BooleanPermutation, make_rng, read_table
from .protocols import ConfigError
from .qstate import (ATOL_DENSITY, ATOL_SCALAR, DEFAULT_QUBIT_CAP, as_matrix,
                     hermitian_eigenvalues, is_maximally_mixed, trace_distance)

REPORT_FORMAT_VERSION = 2

# Standing assumptions restated in every report, so no result is read
# as stronger than what the simulation actually certifies.
STANDING_NOTES = (
    "tag functions are sampled uniformly from the full function family",
    "the one-time authentication key is pre-shared independently of the tag functions and consumed once per message",
    "attack-resistance results certify only the adversary strategies implemented in this package",
)


# The secrets each averaging mode enumerates.
AVERAGE_KINDS = {"none": (), "pads": ("pads",), "pads+keys": ("pads", "keys")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a protocol, a message set, and what to record.
    Once built it also holds `parsed_attack`, `experiment` (its EXPERIMENTS
    entry) and `pins` (each pinned table, by the field it replaces)."""

    protocol: str
    n: int
    l: int = 0
    t: int = 0
    messages: tuple[int, ...] | None = None  # None means every n-bit value
    seed: int = 0
    trials: int = 1
    attack: str | None = None
    snapshots: bool = True
    average: str = "none"  # a key of AVERAGE_KINDS
    exhaustive_keys: bool = False
    include_matrices: bool = False
    qubit_cap: int = DEFAULT_QUBIT_CAP
    enum_limit: int = DEFAULT_ENUM_LIMIT
    # Optional truth-table files pinning secrets across all trials.
    fa_file: str | None = None
    fb_file: str | None = None
    sa_file: str | None = None
    sb_file: str | None = None

    def __post_init__(self):
        """The one experiment validator: every refusal happens here, before
        any session runs."""
        for f in fields(self):
            if not _TYPE_CHECKS[f.type](getattr(self, f.name)):
                raise ConfigError(f"config field {f.name!r} has the wrong type: "
                                  f"{getattr(self, f.name)!r}")
        if self.messages is not None:
            object.__setattr__(self, "messages", tuple(self.messages))
        if self.average not in AVERAGE_KINDS:
            raise ConfigError(f"unknown averaging mode {self.average!r}")
        widest = proto.check_session(self.protocol, self.n, self.l, self.t, self.qubit_cap,
                                     messages=self.messages or ())
        # Refuse fields no session of the protocol would use.
        if self.protocol not in proto.AUTHENTICATED and self.t != 0:
            raise ConfigError(f"only p6 carries an authentication tag; {self.protocol} "
                              f"needs t=0, got {self.t}")
        if self.protocol in proto.UNTAGGED and (self.l != 0 or self.average != "none"):
            raise ConfigError("the untagged protocol has no tag register and no secrets "
                              "to average; it needs l=0 and average none")
        if self.average != "none":
            # Each view enumerates pads, times tag functions on the widest stage.
            proto.check_enumeration(AVERAGE_KINDS[self.average], widest, self.l,
                                    self.enum_limit)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.include_matrices and not self.snapshots:
            raise ConfigError("include_matrices embeds the channel snapshots; "
                              "it needs snapshots on")
        if self.messages is not None:
            if not self.messages:
                raise ConfigError("the message list is empty; give at least one message")
            if len(set(self.messages)) != len(self.messages):
                raise ConfigError(f"the message list {list(self.messages)} repeats a message")
        attack = adversary.parse_attack(self.attack)
        experiment = self._check_attack(attack)
        # snapshots stays accepted everywhere: it is on by default.
        for f in fields(self):
            if f.name in experiment.ignores and getattr(self, f.name) != f.default:
                raise ConfigError(f"{experiment.name} ignores {f.name}; leave it at "
                                  f"{f.default!r}, got {getattr(self, f.name)!r}")
        # Only the session grid takes snapshots, and averaging reruns take
        # them in any experiment: those alone count against the snapshot cap.
        if self.average != "none" or (self.snapshots and experiment is EXPERIMENTS["sessions"]):
            proto.check_session(self.protocol, self.n, self.l, self.t, self.qubit_cap,
                                snapshots=True, messages=self.messages or ())
        object.__setattr__(self, "parsed_attack", attack)
        object.__setattr__(self, "experiment", experiment)
        object.__setattr__(self, "pins", self._load_pins())

    def _load_pins(self) -> dict:
        """Read each pinned table once, refusing a pin the protocol has no
        secret for and a table of the wrong kind or shape."""
        stages, pins = proto.STAGES[self.protocol], {}
        exchange = stages[0].exchange
        for name, (flag, target) in PIN_TARGETS.items():
            path, perm = getattr(self, name), target.endswith("_perm")
            if not path:
                continue
            if len(stages) > 1:
                raise ConfigError("table pinning applies to single-exchange protocols only")
            if not perm and not exchange.tagged:
                raise ConfigError("the untagged protocol has no tag functions to pin")
            if perm and not any(exchange.binds):
                raise ConfigError(f"{self.protocol} has no permutations to pin")
            if perm and not exchange.binds[target == "receiver_perm"]:
                raise ConfigError(f"{self.protocol} has no sender permutation; use --fb-file")
            table = pins[target] = read_table(path)
            if perm != isinstance(table, BooleanPermutation):
                want, got = ("a permutation", "a function") if perm else \
                    ("a tag function", "a permutation")
                raise ConfigError(f"{flag} must hold {want}, {path} has {got}")
            if table.n != self.n or (not perm and table.l != self.l):
                raise ConfigError(f"{flag} table shape {table.n}->{table.out_width} does not "
                                  f"match the session ({self.n}->{self.n if perm else self.l})")
        return pins

    def _check_attack(self, attack) -> Experiment:
        """Refuse attacks the protocol cannot take, and return the
        experiment the attack selects."""
        widths = proto.round_widths(self.protocol, self.n, self.t)
        passes = getattr(attack, "passes", None)
        phase = isinstance(attack, adversary.PhaseAttack)
        for r in sorted(passes) if passes is not None else range(1, len(widths) + 1):
            if not 1 <= r <= len(widths):
                raise ConfigError(f"{self.protocol} has rounds 1..{len(widths)}, "
                                  f"the attack names pass {r}")
            if phase and not 0 <= attack.mask < 1 << widths[r - 1]:
                raise ConfigError(f"mask {attack.mask:#x} does not fit round {r}'s "
                                  f"{widths[r - 1]}-bit message register")
        mim = isinstance(attack, adversary.MimMarker)
        if mim and self.protocol not in proto.UNTAGGED | proto.ECHOED:
            raise ConfigError(f"mim experiments target p1, p3 or p5, not {self.protocol}")
        if self.exhaustive_keys:
            if self.protocol not in proto.AUTHENTICATED:
                raise ConfigError("exhaustive_keys only applies to the authenticated protocol")
            if not phase:
                raise ConfigError("exhaustive key sweeps need a phase attack spec")
            if attack.mask % (1 << self.t) != 0 or attack.mask == 0:
                raise ConfigError(f"mask {attack.mask:#x} must flip message bits only "
                                  f"(a nonzero multiple of 2^{self.t})")
            return EXPERIMENTS["key sweep"]
        if mim:
            return EXPERIMENTS["mim split" if self.protocol in proto.UNTAGGED else "echo"]
        return EXPERIMENTS["sessions"]

    def message_set(self) -> tuple[int, ...]:
        if self.messages is not None:
            return self.messages
        return tuple(range(1 << self.n))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["messages"] = list(self.messages) if self.messages is not None else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"config is missing the fields {sorted(missing)}")
        return cls(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Whether a value has its field's type, by the field's annotation, as
# JSON stores it. A bool is not an int here, though Python says it is.
_TYPE_CHECKS = {
    "str": lambda value: isinstance(value, str),
    "int": _is_int,
    "bool": lambda value: isinstance(value, bool),
    "str | None": lambda value: value is None or isinstance(value, str),
    "tuple[int, ...] | None": lambda value: value is None or (
        isinstance(value, (list, tuple)) and all(map(_is_int, value))),
}

# Each pin file field: its flag, and the field of the keys or draws its
# table replaces.
PIN_TARGETS = {"fa_file": ("--fa-file", "sender_perm"), "fb_file": ("--fb-file", "receiver_perm"),
               "sa_file": ("--sa-file", "alice_tag"), "sb_file": ("--sb-file", "bob_tag")}


def _pinned(record, pins: dict):
    """`record` (keys or a draw record) with the fields it has replaced by their pins."""
    own = {name: table for name, table in pins.items() if hasattr(record, name)}
    return replace(record, **own) if own else record


def encode_matrix(rho: np.ndarray) -> dict:
    """Base64 payload of `as_matrix(rho)`: row-major little-endian (re, im) doubles."""
    m = np.ascontiguousarray(as_matrix(rho), dtype="<c16")
    return {"dim": int(m.shape[0]), "data": base64.b64encode(m.tobytes()).decode("ascii")}


def decode_matrix(payload: dict) -> np.ndarray:
    """The exact inverse of `encode_matrix`, every bit kept, as a writeable array."""
    dim = int(payload["dim"])
    raw = base64.b64decode(payload["data"])
    if dim < 0:
        raise ValueError(f"payload holds a matrix of dimension {dim}, expected one >= 0")
    if len(raw) != 16 * dim * dim:
        raise ValueError(f"payload holds {len(raw)} bytes, expected {dim * dim * 2} doubles "
                         f"of 8 bytes")
    return np.frombuffer(bytearray(raw), dtype="<c16").reshape(dim, dim)


def _tail_root(k: int, n: int, tail: float) -> float:
    """The x with P(Binomial(n, x) >= k) = `tail`, for 1 <= k <= n and a
    tail below 1/2. That probability is I_x(k, n-k+1), so x is also the
    Beta(k, n-k+1) quantile `tail`.

    Newton steps run in log x on the log of the tail, which is concave
    there: after the first step the iterates rise to the root, and they
    stop when rounding noise stops the steps from shrinking.
    """
    log_scale = math.log(math.comb(n, k)) - math.log(tail)
    x, last = k / (n + 1), math.inf
    for _ in range(100):
        # The tail is its first term C(n, k) x^k (1-x)^(n-k) times `s`. Its
        # terms fall from there on, because every iterate stays below k/n.
        ratio, term, terms = x / (1 - x), 1.0, [1.0]
        for j in range(k, n):
            term *= (n - j) / (j + 1) * ratio
            if term < 1e-17:
                break
            terms.append(term)
        s = math.fsum(terms)
        # The slope of the log tail in log x is x times the beta density
        # over the tail, which is k / s.
        step = (log_scale + k * math.log(x) + (n - k) * math.log1p(-x) + math.log(s)) * s / k
        if not abs(step) < last:
            break
        x, last = x * math.exp(-step), abs(step)
    return x


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided 99.9% binomial confidence interval.

    Each bound is solved on a small binomial tail: the upper one by the
    symmetry hi(k, n) = 1 - lo(n - k, n), never on a tail close to 1.
    """
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    tail = (1.0 - 0.999) / 2
    lo = 0.0 if successes == 0 else _tail_root(successes, trials, tail)
    hi = 1.0 if successes == trials else 1.0 - _tail_root(trials - successes, trials, tail)
    return lo, hi


@dataclass
class ExperimentReport:
    """Deterministic body plus wall-clock meta."""

    body: dict
    meta: dict

    @property
    def passed(self) -> bool:
        return bool(self.body["passed"])

    def body_bytes(self) -> bytes:
        return canonical_json(self.body)

    def to_json(self) -> str:
        full = dict(self.body)
        full["meta"] = self.meta
        return json.dumps(full, indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def read(cls, path) -> "ExperimentReport":
        with open(path, "r", encoding="ascii") as fh:
            full = json.load(fh)
        if not isinstance(full, dict):
            raise ConfigError(f"{path} holds no report: its JSON is not an object")
        meta = full.pop("meta", {})
        return cls(body=full, meta=meta)


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    started = time.time()
    results = config.experiment.run(config)
    assertions = results.pop("assertions")
    body = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": config.to_dict(),
        "notes": list(STANDING_NOTES),
        "results": results,
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
    }
    meta = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - started,
    }
    return ExperimentReport(body=body, meta=meta)


def _at_most(name: str, what: str, worst: float, tol: float) -> dict:
    """The assertion that the largest `what` is within `tol`."""
    return dict(name=name, passed=worst <= tol, detail=f"max {what} {worst:.3e} vs {tol}")


def _session_results(config: ExperimentConfig) -> dict:
    """Honest or in-transit-attacked sessions over a message grid."""
    attack = config.parsed_attack
    messages = config.message_set()
    keyed = config.protocol not in proto.UNTAGGED
    honest = attack is None or isinstance(attack, adversary.PassiveAttack)
    # The one-shot broadcast makes no indistinguishability claim, so its
    # averaged views are recorded as-is instead of being compared to the
    # maximally mixed state.
    exploratory = config.protocol == "nonint"
    avg_kinds = AVERAGE_KINDS[config.average]
    rounds = range(1, proto.ROUND_COUNTS[config.protocol] + 1)
    root = make_rng(config.seed)

    runs, distance_rows = [], []
    mixedness: dict[int, float] = {}
    averaged: dict[int, dict] = {}  # round -> its "averaged_views" record
    view_defect = 0.0
    recovered = True  # every receiver decoded the message and no verdict rejected

    for trial in range(config.trials):
        key_rng, draw_rng, run_rng = root.spawn(3)
        keys = proto.sample_shared_keys(config.protocol, config.n, config.l,
                                        config.t, key_rng) if keyed else None
        keys = _pinned(keys, config.pins)
        # One set of draws per trial: comparisons across messages then
        # isolate the message dependence alone.
        draws = tuple(_pinned(record, config.pins) for record in
                      proto.sample_draws(config.protocol, config.n, config.l, config.t, draw_rng))
        trial_views: dict[int, list[np.ndarray]] = {}
        for x in messages:
            views = proto.eve_average_view(
                proto.Transcript(config.protocol, config.n, config.l, config.t, x, draws=draws),
                keys=keys, average_over=avg_kinds,
                enum_limit=config.enum_limit, qubit_cap=config.qubit_cap,
            ) if avg_kinds else ()
            if views and attack is None:
                tr = views[0].session  # an honest record does not depend on the stream
            else:
                tr = proto.run_session(config.protocol, x, config.n, config.l, config.t, keys,
                                       rng=run_rng, draws=draws, attack=attack,
                                       snapshots=config.snapshots, qubit_cap=config.qubit_cap)
            entry = {
                "trial": trial, "message": x, "recovered": tr.recovered,
                "alice_accepts": tr.alice_accepts, "bob_accepts": tr.bob_accepts,
                "mac_accepts": tr.mac_accepts,
                "measurements": [
                    {"owner": m.owner, "register": m.register, "outcome": m.outcome}
                    for m in tr.measurements
                ],
            }
            if tr.attack_events:
                entry["attack_events"] = tr.attack_events
            if config.snapshots:
                for r in rounds:  # a diagonal snapshot is read as its diagonal
                    _, dev = is_maximally_mixed(tr.transmissions[r - 1].snapshot)
                    mixedness[r] = max(mixedness.get(r, 0.0), dev)
                if config.include_matrices:
                    entry["snapshots"] = [encode_matrix(tr.snapshot(r)) for r in rounds]
            if avg_kinds:
                for view in views:
                    record = averaged.setdefault(view.round_index, {
                        "deviation_from_mixed": 0.0, "runs": view.runs})
                    _, dev = is_maximally_mixed(view.rho)
                    record["deviation_from_mixed"] = max(record["deviation_from_mixed"], dev)
                    if exploratory:
                        rho = as_matrix(view.rho)
                        view_defect = max(view_defect, float(np.max(np.abs(rho - rho.conj().T))),
                                          abs(float(np.trace(rho).real) - 1.0),
                                          -float(hermitian_eigenvalues(rho)[0]))
                trial_views[x] = [view.rho for view in views]
            recovered = recovered and tr.recovered == x and \
                False not in (tr.alice_accepts, tr.bob_accepts, tr.mac_accepts)
            runs.append(entry)
        if avg_kinds:
            distance_rows += ({"trial": trial, "x": x, "y": y, "round": r,
                               "distance": trace_distance(a, b)}
                              for x, y in itertools.combinations(messages, 2)
                              for r, (a, b) in enumerate(zip(trial_views[x], trial_views[y]), 1))

    results: dict = {"runs": runs}
    assertions = []
    if honest:
        assertions.append(dict(name="honest_recovery", passed=recovered, detail="every receiver "
                               "decoded the sent message and no verdict rejected"))
    if config.snapshots:
        results["per_run_mixedness"] = {str(r): mixedness[r] for r in sorted(mixedness)}
        if not keyed:
            assertions.append(_at_most("per_run_snapshots_maximally_mixed", "deviation",
                                       max(mixedness.values()), ATOL_DENSITY))
    if averaged:
        results["averaged_views"] = {str(r): averaged[r] for r in sorted(averaged)}
        if exploratory:
            assertions.append(_at_most("averaged_views_valid_states", "density-matrix defect",
                                       view_defect, ATOL_DENSITY))
        else:
            assertions.append(_at_most(
                "averaged_views_maximally_mixed", "deviation",
                max(record["deviation_from_mixed"] for record in averaged.values()),
                ATOL_SCALAR))
    if distance_rows:
        results["distance_tables"] = {"across_messages": distance_rows}
        if not exploratory:
            assertions.append(_at_most("message_independence", "pairwise distance",
                                       max(row["distance"] for row in distance_rows),
                                       ATOL_SCALAR))
    results["assertions"] = assertions
    return results


def _mim_split_results(config: ExperimentConfig) -> dict:
    """Split-session impersonation of the untagged protocol."""
    root = make_rng(config.seed)
    messages = config.message_set()
    rows = []
    ok = True
    for trial in range(config.trials):
        trial_rng = root.spawn(1)[0]
        for x in messages:
            x_eve = (x + 1) % (1 << config.n)
            toward_eve, toward_bob = adversary.mim_full_impersonation(
                x, x_eve, config.n, rng=trial_rng, qubit_cap=config.qubit_cap)
            rows.append({"trial": trial, "x": x, "x_eve": x_eve,
                         "eve_recovered": toward_eve.recovered,
                         "bob_recovered": toward_bob.recovered})
            ok = ok and toward_eve.recovered == x and toward_bob.recovered == x_eve
    assertions = [dict(name="mim_split_deterministic", passed=ok,
                       detail="Eve learns the message and Bob receives Eve's choice, every run")]
    return {"mim_runs": rows, "assertions": assertions}


def _echo_detection_results(config: ExperimentConfig) -> dict:
    """Stage-two hijack rejection statistics for the echoed protocols."""
    rejections = adversary.echo_detection_experiment(
        config.protocol, config.n, config.l, config.trials,
        rng=config.seed, qubit_cap=config.qubit_cap,
    )
    rate = rejections / config.trials
    threshold = 1.0 - 2.0 ** (-config.n)
    sigma = (threshold * (1 - threshold) / config.trials) ** 0.5
    lo, hi = binomial_ci(rejections, config.trials)
    assertions = [dict(name="echo_detection_rate",
                       passed=rate >= threshold - 3 * sigma,
                       detail=f"rate {rate:.4f} vs floor {threshold:.4f} - 3*{sigma:.4f}")]
    return {
        "detection": {
            "trials": config.trials,
            "rejections": rejections,
            "rate": rate,
            "ci999": [lo, hi],
            "uniform_guess_floor": threshold,
            "sigma": sigma,
        },
        "assertions": assertions,
    }


def _mac_attack_results(config: ExperimentConfig) -> dict:
    """Authenticated protocol under an in-transit flip, all keys tried."""
    root = make_rng(config.seed)
    key_rng, run_rng = root.spawn(2)
    base_keys = proto.sample_shared_keys(config.protocol, config.n, config.l,
                                         config.t, key_rng)
    messages = config.message_set()
    halves = range(1 << config.t)
    rejections = sum(
        not proto.run_protocol6(x, config.n, config.l, config.t,
                                replace(base_keys, mac_key=MacKey(config.t, a, b)), rng=run_rng,
                                attack=config.parsed_attack, snapshots=False,
                                qubit_cap=config.qubit_cap).mac_accepts
        for x, a, b in itertools.product(messages, halves, halves))
    total = len(messages) * len(halves) ** 2
    bound = 1.0 - 2.0 ** (1 - config.t)
    fraction = rejections / total
    assertions = [dict(name="mac_rejection_fraction", passed=fraction >= bound,
                       detail=f"rejected {rejections}/{total} = {fraction:.4f}, bound {bound:.4f}")]
    return {
        "mac_attack": {
            "keys_per_message": len(halves) ** 2,
            "messages": list(messages),
            "total_runs": total,
            "rejections": rejections,
            "fraction": fraction,
            "bound": bound,
        },
        "assertions": assertions,
    }


class Experiment(NamedTuple):
    """One kind of experiment: its runner, its name in refusals, and the
    config fields it ignores (and so refuses when they are set)."""

    run: Callable[[ExperimentConfig], dict]
    name: str
    ignores: tuple[str, ...]


EXPERIMENTS = {
    "sessions": Experiment(_session_results, "the session grid", ()),
    "mim split": Experiment(_mim_split_results, "the mim split",
                            ("include_matrices", "fa_file", "fb_file")),
    "echo": Experiment(_echo_detection_results, "echo detection",
                       ("messages", "average", "include_matrices")),
    "key sweep": Experiment(_mac_attack_results, "the exhaustive key sweep",
                            ("trials", "average", "include_matrices")),
}


def _first_difference(stored, fresh, path: str = "body"):
    """(JSON path, stored value, fresh value) where two documents first differ.

    Dict keys are walked in sorted order, as canonical_json writes them,
    so the path is the first difference in the canonical bytes' order.
    """
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                return f"{path}.{key}", stored.get(key, "<absent>"), fresh.get(key, "<absent>")
            found = _first_difference(stored[key], fresh[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(stored, list) and isinstance(fresh, list):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(stored) != len(fresh):
            return f"{path} length", len(stored), len(fresh)
        return None
    if canonical_json(stored) != canonical_json(fresh):
        return path, stored, fresh
    return None


def verify_report(path) -> tuple[bool, str]:
    """Re-run a report's embedded config and compare bodies bytewise.

    On a mismatch the detail names the first differing JSON path with
    the stored and the fresh value. A report of another format version
    is refused before anything re-runs.
    """
    stored = ExperimentReport.read(path)
    version = stored.body.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        return False, f"report format {version}, this build writes {REPORT_FORMAT_VERSION}"
    if not isinstance(stored.body.get("config"), dict):
        raise ConfigError("the report carries no config object")
    config = ExperimentConfig.from_dict(stored.body["config"])
    fresh = run_experiment(config)
    a, b = canonical_json(stored.body), fresh.body_bytes()
    if a == b:
        return True, "report reproduced byte-identically"
    where, was, now = _first_difference(stored.body, json.loads(b))

    def shown(value) -> str:
        text = json.dumps(value)
        return text if len(text) <= 80 else text[:77] + "..."

    return False, (f"bodies differ at {where}: stored {shown(was)}, fresh {shown(now)} "
                   f"(stored {len(a)} bytes, fresh {len(b)} bytes)")


def shipped_experiments() -> list[ExperimentConfig]:
    """The experiment set exercised by the acceptance suite."""
    return [
        ExperimentConfig("p1", n=3, seed=11, trials=5),
        ExperimentConfig("p2", n=2, l=2, seed=12, trials=2, average="pads"),
        ExperimentConfig("p4", n=2, l=2, seed=13, trials=2, average="pads"),
        ExperimentConfig("two-round", n=2, l=1, seed=14, trials=2, average="pads+keys",
                         include_matrices=True),
        # Trial count sized so the 99.9% interval half-width is <= 0.02.
        ExperimentConfig("p3", n=2, l=1, seed=15, trials=5500, attack="mim",
                         snapshots=False),
        ExperimentConfig("p6", n=2, l=2, t=3, seed=16, trials=1,
                         attack="phase:x=0x8,passes=2", exhaustive_keys=True,
                         snapshots=False, messages=(1,)),
        ExperimentConfig("nonint", n=2, l=1, seed=17, trials=1, average="pads+keys"),
    ]
