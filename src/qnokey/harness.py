"""Experiment driver: configs in, versioned JSON reports out.

A report is split into a deterministic body and a `meta` block. The
body is a pure function of the config (including its seed): rerunning
the same config must reproduce the body byte for byte, which is what
`verify_report` checks. Wall-clock facts live only in `meta`.

Density matrices embedded in reports are base64 blobs of row-major
entries, each entry a little-endian float64 pair (real then imaginary).
"""

from __future__ import annotations

import base64
import datetime
import json
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np
from scipy.special import betaincinv

from . import adversary, protocols as proto
from .oracles import DEFAULT_ENUM_LIMIT, EnumerationLimitError, count_functions, make_rng
from .qstate import ATOL_DENSITY, ATOL_SCALAR, DEFAULT_QUBIT_CAP, DensityMatrix, is_maximally_mixed, trace_distance

REPORT_FORMAT_VERSION = 1

# Standing assumptions restated in every report, so no result is read
# as stronger than what the simulation actually certifies.
STANDING_NOTES = (
    "tag functions are sampled uniformly from the full function family",
    "the one-time authentication key is pre-shared independently of the tag functions and consumed once per message",
    "attack-resistance results certify only the adversary strategies implemented in this package",
)


class ConfigError(ValueError):
    """Inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a protocol, a message set, and what to record."""

    protocol: str
    n: int
    l: int = 0
    t: int = 0
    messages: tuple[int, ...] | None = None  # None means every n-bit value
    seed: int = 0
    trials: int = 1
    attack: str | None = None
    snapshots: bool = True
    average: str = "none"  # none | pads | pads+keys
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
        # Reuse the protocol-level validation for widths and caps.
        proto.ProtocolParams(self.protocol, self.n, self.l, self.t,
                             self.qubit_cap, self.enum_limit)
        if self.average not in ("none", "pads", "pads+keys"):
            raise ConfigError(f"unknown averaging mode {self.average!r}")
        # Refuse fields no session of the protocol would use.
        if self.protocol != "p6" and self.t != 0:
            raise ConfigError(f"only p6 carries an authentication tag; {self.protocol} "
                              f"needs t=0, got {self.t}")
        if self.protocol == "p1" and (self.l != 0 or self.average != "none"):
            raise ConfigError("the untagged protocol has no tag register and no secrets "
                              "to average; it needs l=0 and average none")
        if self.average != "none":
            # Each view enumerates pads, times tag functions on the widest stage.
            width = proto.widest_message(self.protocol, self.n, self.t)
            count = 1 << self.l
            what = f"{self.l}-bit pads"
            if self.average == "pads+keys":
                count *= count_functions(width, self.l)
                what += f" times {width}-to-{self.l}-bit tag functions"
            if count > self.enum_limit:
                raise EnumerationLimitError(count, self.enum_limit, what)
        if self.snapshots or self.average != "none":  # averaging reruns take snapshots
            proto.check_snapshot_cap(self.protocol, self.n, self.l, self.t, self.qubit_cap)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.messages is not None:
            object.__setattr__(self, "messages", tuple(self.messages))
            if not self.messages:
                raise ConfigError("the message list is empty; give at least one message")
            if len(set(self.messages)) != len(self.messages):
                raise ConfigError(f"the message list {list(self.messages)} repeats a message")
            for x in self.messages:
                if not 0 <= x < (1 << self.n):
                    raise ConfigError(f"message {x} does not fit in {self.n} bits")
        if self.exhaustive_keys and self.protocol != "p6":
            raise ConfigError("exhaustive_keys only applies to the authenticated protocol")
        if any((self.fa_file, self.fb_file, self.sa_file, self.sb_file)) and \
                self.protocol in ("p3", "p5", "p6"):
            raise ConfigError("table pinning applies to single-exchange protocols only")
        # Refuse pins the protocol has no secret for before anything runs.
        if self.protocol == "p1" and (self.sa_file or self.sb_file):
            raise ConfigError("the untagged protocol has no tag functions to pin")
        if self.protocol == "nonint" and (self.fa_file or self.fb_file):
            raise ConfigError("the one-shot protocol has no permutations to pin")
        if self.protocol in ("p4", "two-round") and self.fa_file:
            raise ConfigError(f"{self.protocol} has no sender permutation; use --fb-file")

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
        for name, value in d.items():
            if name == "messages":
                ok = value is None or (isinstance(value, (list, tuple))
                                       and all(map(_is_int, value)))
            elif _STORED_TYPES[name] is int:
                ok = _is_int(value)
            else:
                ok = isinstance(value, _STORED_TYPES[name])
            if not ok:
                raise ConfigError(f"config field {name!r} has the wrong type: {value!r}")
        d = dict(d)
        if d.get("messages") is not None:
            d["messages"] = tuple(d["messages"])
        return cls(**d)


# The JSON type of each stored config field but messages, which is null
# or a list of ints. A bool is not an int here, though Python says it is.
_STORED_TYPES = {
    "protocol": str, "n": int, "l": int, "t": int, "seed": int, "trials": int,
    "attack": (str, type(None)), "snapshots": bool, "average": str,
    "exhaustive_keys": bool, "include_matrices": bool, "qubit_cap": int, "enum_limit": int,
    "fa_file": (str, type(None)), "fb_file": (str, type(None)),
    "sa_file": (str, type(None)), "sb_file": (str, type(None)),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def encode_matrix(rho: DensityMatrix | np.ndarray) -> dict:
    """Base64 payload: row-major entries, little-endian (re, im) doubles."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    m = np.ascontiguousarray(m, dtype=np.complex128)
    flat = np.empty(m.size * 2, dtype="<f8")
    flat[0::2] = m.real.ravel()
    flat[1::2] = m.imag.ravel()
    return {"dim": int(m.shape[0]), "data": base64.b64encode(flat.tobytes()).decode("ascii")}


def decode_matrix(payload: dict) -> DensityMatrix:
    dim = int(payload["dim"])
    raw = base64.b64decode(payload["data"])
    flat = np.frombuffer(raw, dtype="<f8")
    if flat.size != dim * dim * 2:
        raise ValueError(f"payload holds {flat.size} doubles, expected {dim * dim * 2}")
    m = flat[0::2] + 1j * flat[1::2]
    return DensityMatrix(m.reshape(dim, dim))


def binomial_ci(successes: int, trials: int, confidence: float = 0.999) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial confidence interval."""
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
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
        meta = full.pop("meta", {})
        return cls(body=full, meta=meta)


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    started = time.time()
    if config.attack == "mim":
        if config.protocol == "p1":
            results = _mim_split_results(config)
        elif config.protocol in ("p3", "p5"):
            results = _echo_detection_results(config)
        else:
            raise ConfigError(f"mim experiments target p1, p3 or p5, not {config.protocol}")
    elif config.exhaustive_keys:
        results = _mac_attack_results(config)
    else:
        results = _session_results(config)

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


def _session_results(config: ExperimentConfig) -> dict:
    """Honest or in-transit-attacked sessions over a message grid."""
    attack = adversary.parse_attack(config.attack)
    messages = config.message_set()
    keyed = config.protocol != "p1"
    root = make_rng(config.seed)
    honest = attack is None or attack.kind == "passive"
    # The one-shot broadcast makes no indistinguishability claim, so its
    # averaged views are recorded as-is instead of being compared to the
    # maximally mixed state.
    exploratory = config.protocol == "nonint"

    runs = []
    mixedness: dict[int, float] = {}
    averaged_dev: dict[int, float] = {}
    averaged_runs: dict[int, int] = {}
    view_defect = 0.0
    distance_rows = []
    all_correct = True
    verdicts_ok = True
    avg_kinds = ("pads", "keys") if config.average == "pads+keys" else ("pads",)
    rounds = proto.ROUND_COUNTS[config.protocol]

    for trial in range(config.trials):
        key_rng, draw_rng, run_rng = root.spawn(3)
        keys = proto.sample_shared_keys(config.protocol, config.n, config.l,
                                        config.t, key_rng) if keyed else None
        keys = _pin_keys(config, keys)
        # One set of draws per trial: comparisons across messages then
        # isolate the message dependence alone.
        shared_draws = _pin_draws(
            config,
            proto.sample_draws(config.protocol, config.n, config.l, config.t, draw_rng),
        )
        trial_views: dict[int, list[DensityMatrix]] = {}
        for x in messages:
            tr = proto.run_session(config.protocol, x, config.n, config.l, config.t, keys,
                                   rng=run_rng, draws=shared_draws, attack=attack,
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
                for r in range(1, rounds + 1):
                    _, dev = is_maximally_mixed(tr.snapshot(r))
                    mixedness[r] = max(mixedness.get(r, 0.0), dev)
                if config.include_matrices:
                    entry["snapshots"] = [encode_matrix(tr.snapshot(r))
                                          for r in range(1, rounds + 1)]
            if config.average != "none" and config.protocol != "p1":
                views = proto.eve_average_view(
                    tr, keys=keys, average_over=avg_kinds,
                    enum_limit=config.enum_limit, qubit_cap=config.qubit_cap,
                )
                for view in views:
                    r = view.round_index
                    _, dev = is_maximally_mixed(view.rho)
                    averaged_dev[r] = max(averaged_dev.get(r, 0.0), dev)
                    averaged_runs[r] = view.runs
                    if exploratory:
                        defect = max(view.rho.hermiticity_defect(),
                                     abs(view.rho.trace() - 1.0),
                                     max(0.0, -view.rho.min_eigenvalue()))
                        view_defect = max(view_defect, defect)
                trial_views[x] = [view.rho for view in views]
            if honest:
                all_correct = all_correct and tr.recovered == x
                for v in (tr.alice_accepts, tr.bob_accepts, tr.mac_accepts):
                    if v is False:
                        verdicts_ok = False
            runs.append(entry)
        for i, x in enumerate(messages):
            for y in messages[i + 1:]:
                if x in trial_views and y in trial_views:
                    for r in range(1, rounds + 1):
                        d = trace_distance(trial_views[x][r - 1], trial_views[y][r - 1])
                        distance_rows.append({"trial": trial, "x": x, "y": y,
                                              "round": r, "distance": d})

    results: dict = {"runs": runs}
    assertions = []
    if honest:
        assertions.append({
            "name": "honest_recovery",
            "passed": all_correct and verdicts_ok,
            "detail": "every receiver decoded the sent message and no verdict rejected",
        })
    if config.snapshots:
        results["per_run_mixedness"] = {str(r): mixedness[r] for r in sorted(mixedness)}
        if config.protocol == "p1":
            worst = max(mixedness.values())
            assertions.append({
                "name": "per_run_snapshots_maximally_mixed",
                "passed": worst <= ATOL_DENSITY,
                "detail": f"max deviation {worst:.3e} vs {ATOL_DENSITY}",
            })
    if averaged_dev:
        results["averaged_views"] = {
            str(r): {"deviation_from_mixed": averaged_dev[r], "runs": averaged_runs[r]}
            for r in sorted(averaged_dev)
        }
        if exploratory:
            assertions.append({
                "name": "averaged_views_valid_states",
                "passed": view_defect <= ATOL_DENSITY,
                "detail": f"max density-matrix defect {view_defect:.3e} vs {ATOL_DENSITY}",
            })
        else:
            worst = max(averaged_dev.values())
            assertions.append({
                "name": "averaged_views_maximally_mixed",
                "passed": worst <= ATOL_SCALAR,
                "detail": f"max deviation {worst:.3e} vs {ATOL_SCALAR}",
            })
    if distance_rows:
        results["distance_tables"] = {"across_messages": distance_rows}
        if not exploratory:
            worst = max(row["distance"] for row in distance_rows)
            assertions.append({
                "name": "message_independence",
                "passed": worst <= ATOL_SCALAR,
                "detail": f"max pairwise distance {worst:.3e} vs {ATOL_SCALAR}",
            })
    results["assertions"] = assertions
    return results


def _load_pin(path: str, want_perm: bool, n: int, l: int, flag: str):
    from .oracles import BooleanFunction, BooleanPermutation, read_table

    table = read_table(path)
    if want_perm and not isinstance(table, BooleanPermutation):
        raise ConfigError(f"{flag} must hold a permutation, {path} has a function")
    if not want_perm and isinstance(table, BooleanPermutation):
        raise ConfigError(f"{flag} must hold a tag function, {path} has a permutation")
    if table.n != n or (not want_perm and table.l != l):
        raise ConfigError(
            f"{flag} table shape {table.n}->{table.out_width} does not match "
            f"the session ({n}->{n if want_perm else l})"
        )
    return table


def _pin_keys(config: ExperimentConfig, keys):
    if keys is None or not (config.sa_file or config.sb_file):
        return keys
    updates = {}
    if config.sa_file:
        updates["alice_tag"] = _load_pin(config.sa_file, False, config.n, config.l,
                                         "--sa-file")
    if config.sb_file:
        updates["bob_tag"] = _load_pin(config.sb_file, False, config.n, config.l,
                                       "--sb-file")
    return replace(keys, **updates)


def _pin_draws(config: ExperimentConfig, draws):
    if not (config.fa_file or config.fb_file):
        return draws
    protocol = config.protocol
    if protocol == "p1":
        updates = {}
        if config.fa_file:
            updates["alice_perm"] = _load_pin(config.fa_file, True, config.n, 0,
                                              "--fa-file")
        if config.fb_file:
            updates["bob_perm"] = _load_pin(config.fb_file, True, config.n, 0,
                                            "--fb-file")
        return replace(draws, **updates)
    if protocol == "p2":
        updates = {}
        if config.fa_file:
            updates["sender_perm"] = _load_pin(config.fa_file, True, config.n, 0,
                                               "--fa-file")
        if config.fb_file:
            updates["receiver_perm"] = _load_pin(config.fb_file, True, config.n, 0,
                                                 "--fb-file")
        return replace(draws, **updates)
    # Receiver-initiated exchanges only scramble on the receiver side, so
    # the config has already refused --fa-file.
    return replace(draws, receiver_perm=_load_pin(config.fb_file, True, config.n, 0,
                                                  "--fb-file"))


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
            out = adversary.mim_full_impersonation(x, x_eve, config.n, rng=trial_rng,
                                                   qubit_cap=config.qubit_cap)
            rows.append({"trial": trial, "x": x, "x_eve": x_eve,
                         "eve_recovered": out.eve_recovered,
                         "bob_recovered": out.bob_recovered})
            ok = ok and out.eve_recovered == x and out.bob_recovered == x_eve
    assertions = [{
        "name": "mim_split_deterministic",
        "passed": ok,
        "detail": "Eve learns the message and Bob receives Eve's choice, every run",
    }]
    return {"mim_runs": rows, "assertions": assertions}


def _echo_detection_results(config: ExperimentConfig) -> dict:
    """Stage-two hijack rejection statistics for the echoed protocols."""
    stats = adversary.echo_detection_experiment(
        config.protocol, config.n, config.l, config.trials,
        rng=config.seed, qubit_cap=config.qubit_cap,
    )
    threshold = 1.0 - 2.0 ** (-config.n)
    sigma = (threshold * (1 - threshold) / config.trials) ** 0.5
    lo, hi = binomial_ci(stats.rejections, stats.trials)
    passed = stats.rejection_rate >= threshold - 3 * sigma
    assertions = [{
        "name": "echo_detection_rate",
        "passed": passed,
        "detail": (f"rate {stats.rejection_rate:.4f} vs floor "
                   f"{threshold:.4f} - 3*{sigma:.4f}"),
    }]
    return {
        "detection": {
            "trials": stats.trials,
            "rejections": stats.rejections,
            "rate": stats.rejection_rate,
            "ci999": [lo, hi],
            "uniform_guess_floor": threshold,
            "sigma": sigma,
        },
        "assertions": assertions,
    }


def _mac_attack_results(config: ExperimentConfig) -> dict:
    """Authenticated protocol under an in-transit flip, all keys tried."""
    attack = adversary.parse_attack(config.attack)
    if attack is None or attack.kind != "phase":
        raise ConfigError("exhaustive key sweeps need a phase attack spec")
    if attack.mask % (1 << config.t) != 0 or attack.mask == 0:
        raise ConfigError(
            f"mask {attack.mask:#x} must flip message bits only "
            f"(a nonzero multiple of 2^{config.t})"
        )
    from .auth import MacKey

    root = make_rng(config.seed)
    key_rng, run_rng = root.spawn(2)
    base_keys = proto.sample_shared_keys(config.protocol, config.n, config.l,
                                         config.t, key_rng)
    messages = config.message_set()
    total = 0
    rejections = 0
    for x in messages:
        for a in range(1 << config.t):
            for b in range(1 << config.t):
                keys = replace(base_keys, mac_key=MacKey(config.t, a, b))
                tr = proto.run_protocol6(
                    x, config.n, config.l, config.t, keys, rng=run_rng,
                    attack=attack, snapshots=False, qubit_cap=config.qubit_cap,
                )
                total += 1
                if not tr.mac_accepts:
                    rejections += 1
    bound = 1.0 - 2.0 ** (1 - config.t)
    fraction = rejections / total
    assertions = [{
        "name": "mac_rejection_fraction",
        "passed": fraction >= bound,
        "detail": f"rejected {rejections}/{total} = {fraction:.4f}, bound {bound:.4f}",
    }]
    return {
        "mac_attack": {
            "keys_per_message": 1 << (2 * config.t),
            "messages": list(messages),
            "total_runs": total,
            "rejections": rejections,
            "fraction": fraction,
            "bound": bound,
        },
        "assertions": assertions,
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
    the stored and the fresh value.
    """
    stored = ExperimentReport.read(path)
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
