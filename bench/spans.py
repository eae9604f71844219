"""Span recorder for the benchmark's traced run.

The traced run wraps the public functions and methods of each qnokey
module in every namespace that binds them (`harness` and `adversary`
import `trace_distance` by name, for instance), records one span per
call, and restores the originals afterwards. Untraced runs never call
`install`, so they pay nothing.

A span is (name, start, end, parent span, item id). Spans are kept in
flat arrays while the run lasts and written out when it ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from importlib import import_module

import numpy as np

# (module, attribute, span name, kind). A dotted attribute is a method,
# wrapped on the class that defines it. Kinds add facts to a span:
#   op       qubit width of the state before or after the call
#   session  (protocol, n, l, t) of the returned transcript
#   eigen    matrix dimension, and whether any off-diagonal entry is set
#   encode   length of the base64 payload
#   json     length of the serialised report
#   enum     no span; counts the items the generator yields
HOOKS = [
    ("qnokey.qstate", "CompositeState.apply_hadamard", "qstate.hadamard", "op"),
    ("qnokey.qstate", "CompositeState.apply_xor_oracle", "qstate.xor", "op"),
    ("qnokey.qstate", "CompositeState.apply_phase_flip", "qstate.phase", "op"),
    ("qnokey.qstate", "CompositeState.measure", "qstate.measure", "op"),
    ("qnokey.qstate", "CompositeState.extend", "qstate.extend", "op"),
    ("qnokey.qstate", "CompositeState.discard", "qstate.discard", "op"),
    ("qnokey.qstate", "CompositeState.reduced_density_matrix", "qstate.ptrace", "op"),
    ("qnokey.qstate", "CompositeState.with_holder", "qstate.layout", "plain"),
    ("qnokey.qstate", "init_basis_state", "qstate.layout", "plain"),
    ("qnokey.qstate", "is_maximally_mixed", "qstate.mixed", "plain"),
    ("qnokey.qstate", "hermitian_eigenvalues", "qstate.eigen", "eigen"),
    ("qnokey.qstate", "trace_distance", "qstate.distance", "plain"),
    ("qnokey.oracles", "sample_permutation", "oracles.sample", "plain"),
    ("qnokey.oracles", "sample_function", "oracles.sample", "plain"),
    ("qnokey.oracles", "sample_pad", "oracles.sample", "plain"),
    ("qnokey.oracles", "make_rng", "oracles.streams", "plain"),
    ("qnokey.oracles", "party_streams", "oracles.streams", "plain"),
    ("qnokey.oracles", "enumerate_functions", "oracles.enum", "enum"),
    ("qnokey.oracles", "enumerate_pads", "oracles.enum", "enum"),
    ("qnokey.auth", "mac_keygen", "auth.mac", "plain"),
    ("qnokey.auth", "mac_tag", "auth.mac", "plain"),
    ("qnokey.auth", "mac_verify", "auth.mac", "plain"),
    ("qnokey.protocols", "run_protocol1", "protocols.session", "session"),
    ("qnokey.protocols", "run_protocol2", "protocols.session", "session"),
    ("qnokey.protocols", "run_protocol3", "protocols.session", "session"),
    ("qnokey.protocols", "run_protocol4", "protocols.session", "session"),
    ("qnokey.protocols", "run_protocol5", "protocols.session", "session"),
    ("qnokey.protocols", "run_protocol6", "protocols.session", "session"),
    ("qnokey.protocols", "run_two_round", "protocols.session", "session"),
    ("qnokey.protocols", "run_noninteractive", "protocols.session", "session"),
    ("qnokey.protocols", "eve_average_view", "protocols.average", "plain"),
    ("qnokey.protocols", "noninteractive_view", "protocols.average", "plain"),
    ("qnokey.protocols", "sample_draws", "protocols.draws", "plain"),
    ("qnokey.protocols", "sample_shared_keys", "protocols.draws", "plain"),
    ("qnokey.adversary", "echo_detection_experiment", "adversary.experiment", "plain"),
    ("qnokey.adversary", "impersonate_echo_stage", "adversary.trial", "plain"),
    ("qnokey.adversary", "mim_full_impersonation", "adversary.trial", "plain"),
    ("qnokey.adversary", "PhaseAttack.on_transmission", "adversary.tap", "plain"),
    ("qnokey.adversary", "MeasureResendAttack.on_transmission", "adversary.tap", "plain"),
    ("qnokey.adversary", "PassiveAttack.on_transmission", "adversary.tap", "plain"),
    ("qnokey.harness", "run_experiment", "harness.report", "plain"),
    ("qnokey.harness", "encode_matrix", "harness.encode", "encode"),
    ("qnokey.harness", "ExperimentReport.to_json", "harness.json", "json"),
    ("qnokey.harness", "binomial_ci", "harness.ci", "plain"),
]

# Spans whose state width counts toward `qstate.amp_bytes`.
STATE_OPS = ("hadamard", "xor", "phase", "measure", "extend", "discard", "ptrace")


class SpanRecorder:
    """Flat in-memory span store. `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.current_item = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def _wrap(rec: SpanRecorder, fn, span: str, kind: str):
    nid = rec.name_id(span)

    if kind == "enum":
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for value in fn(*args, **kwargs):
                rec.counts["oracles.enum.items"] += 1
                yield value
        return counted

    from qnokey.qstate import ATOL_DENSITY

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if kind == "eigen":
            m = np.asarray(getattr(args[0], "matrix", args[0]))
            off = np.abs(m - np.diag(np.diag(m)))
            fact = (m.shape[0], bool(off.size and off.max() > ATOL_DENSITY))
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if kind == "op":
            out = result[1] if isinstance(result, tuple) else result
            width = args[0].total_width
            if hasattr(out, "total_width"):
                width = max(width, out.total_width)
            rec.info[idx] = width
        elif kind == "session":
            rec.info[idx] = (result.protocol, result.n, result.l, result.t)
        elif kind == "eigen":
            rec.info[idx] = fact
        elif kind == "encode":
            rec.info[idx] = len(result["data"])
        elif kind == "json":
            rec.info[idx] = len(result)
        return result

    return traced


class Installed:
    """The bindings replaced by `install`, so they can be put back."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped binding is its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.replaced)


def install(rec: SpanRecorder) -> Installed:
    """Wrap every hooked callable in every qnokey namespace binding it."""
    done = Installed()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qnokey" or name.startswith("qnokey.")]
    try:
        for module_name, attr, span, kind in HOOKS:
            module = import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                done.replaced.append((cls, meth, original))
                setattr(cls, meth, _wrap(rec, original, span, kind))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(rec, original, span, kind)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        done.replaced.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
    except BaseException:
        done.restore()
        raise
    return done


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: SpanRecorder, traced_wall: float, untraced_wall: float):
    """Per-layer metrics as {name: (value, unit)}, plus census lines.

    `<span>.calls` counts every span of that name; `<span>.s` is the
    inclusive time of the spans not nested in a span of the same name;
    `*.self_s` excludes the time of child spans.
    """
    from qnokey.protocols import peak_live_width

    a = rec.arrays()
    names = rec.names
    name = a["name"].tolist()
    parent = a["parent"].tolist()
    dur = (a["end"] - a["start"]).tolist()
    selft = self_times(a["parent"], a["start"], a["end"]).tolist()
    ids = {n: i for i, n in enumerate(names)}
    session_id = ids.get("protocols.session", -1)
    average_id = ids.get("protocols.average", -1)

    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    anc = [0] * len(name)          # bit set of span names on the ancestor path
    root_session = [-1] * len(name)
    requested = reruns = 0
    for i, nid in enumerate(name):
        p = parent[i]
        if p >= 0:
            anc[i] = anc[p] | (1 << name[p])
            root_session[i] = root_session[p]
        n = names[nid]
        calls[n] += 1
        self_s[n] += selft[i]
        if not anc[i] >> nid & 1:
            incl[n] += dur[i]
        if nid == session_id and root_session[i] < 0:
            root_session[i] = i
            if average_id >= 0 and anc[i] >> average_id & 1:
                reruns += 1
            else:
                requested += 1

    # Width census: observed peak per outermost session against the
    # analytic peak_live_width() of its protocol.
    observed: dict[int, int] = {}
    amp_bytes = 0
    width_max = 0
    eigen_dims: Counter = Counter()
    eigen_nondiag: Counter = Counter()
    eigen_s: defaultdict = defaultdict(float)
    encode_bytes = json_bytes = 0
    for i, fact in rec.info.items():
        n = names[name[i]]
        if n.startswith("qstate.") and n != "qstate.eigen":
            width_max = max(width_max, fact)
            if n[len("qstate."):] in STATE_OPS:
                amp_bytes += 16 << fact
            s = root_session[i]
            if s >= 0:
                observed[s] = max(observed.get(s, 0), fact)
        elif n == "qstate.eigen":
            eigen_dims[fact[0]] += 1
            eigen_nondiag[fact[0]] += fact[1]
            eigen_s[fact[0]] += dur[i]
        elif n == "harness.encode":
            encode_bytes += fact
        elif n == "harness.json":
            json_bytes += fact
    per_protocol: dict[str, list] = {}
    worst_ratio = 0.0
    for s, width in observed.items():
        protocol, n, l, t = rec.info[s]
        predicted = peak_live_width(protocol, n, l, t)[0]
        row = per_protocol.setdefault(protocol, [0, 0, 0, 0])  # sessions, at peak, max obs, max pred
        row[0] += 1
        row[1] += width == predicted
        row[2] = max(row[2], width)
        row[3] = max(row[3], predicted)
        worst_ratio = max(worst_ratio, width / predicted)

    qstate_names = [n for n in names if n.startswith("qstate.")]
    q_calls = sum(calls[n] for n in qstate_names)
    q_self = sum(self_s[n] for n in qstate_names)
    eigen_calls = calls["qstate.eigen"]
    views = calls["protocols.average"]
    m = {
        "qstate.ops": (q_calls, "count"),
        "qstate.self_s": (q_self, "s"),
        "qstate.us_per_op": (q_self / q_calls * 1e6 if q_calls else 0.0, "us"),
    }
    for op in STATE_OPS + ("layout",):
        m[f"qstate.{op}.calls"] = (calls[f"qstate.{op}"], "count")
        m[f"qstate.{op}.s"] = (incl[f"qstate.{op}"], "s")
    m.update({
        "qstate.amp_bytes": (amp_bytes, "B"),
        "qstate.mixed.calls": (calls["qstate.mixed"], "count"),
        "qstate.mixed.s": (incl["qstate.mixed"], "s"),
        "qstate.eigen.calls": (eigen_calls, "count"),
        "qstate.eigen.s": (incl["qstate.eigen"], "s"),
        "qstate.eigen.dim_max": (max(eigen_dims, default=0), "count"),
        "qstate.eigen.nondiag_frac": (sum(eigen_nondiag.values()) / eigen_calls
                                      if eigen_calls else 0.0, "ratio"),
        "qstate.distance.calls": (calls["qstate.distance"], "count"),
        "qstate.distance.s": (incl["qstate.distance"], "s"),
        "qstate.width_max": (width_max, "qubits"),
        "qstate.width_pred_ratio": (worst_ratio, "ratio"),
        "oracles.sample.calls": (calls["oracles.sample"], "count"),
        "oracles.sample.s": (incl["oracles.sample"], "s"),
        "oracles.streams.calls": (calls["oracles.streams"], "count"),
        "oracles.streams.s": (incl["oracles.streams"], "s"),
        "oracles.enum.items": (rec.counts["oracles.enum.items"], "count"),
        "auth.mac.calls": (calls["auth.mac"], "count"),
        "auth.mac.s": (incl["auth.mac"], "s"),
        "protocols.sessions": (requested, "count"),
        "protocols.session.self_s": (self_s["protocols.session"], "s"),
        "protocols.draws.calls": (calls["protocols.draws"], "count"),
        "protocols.draws.s": (incl["protocols.draws"], "s"),
        "protocols.average.calls": (views, "count"),
        "protocols.average.s": (incl["protocols.average"], "s"),
        "protocols.average.reruns": (reruns, "count"),
        "protocols.reruns_per_view": (reruns / views if views else 0.0, "ratio"),
        "adversary.trials": (calls["adversary.trial"], "count"),
        "adversary.trial.self_s": (self_s["adversary.trial"], "s"),
        "adversary.tap.calls": (calls["adversary.tap"], "count"),
        "adversary.tap.s": (incl["adversary.tap"], "s"),
        "harness.reports": (calls["harness.report"], "count"),
        "harness.report.self_s": (self_s["harness.report"], "s"),
        "harness.encode.calls": (calls["harness.encode"], "count"),
        "harness.encode.bytes": (encode_bytes, "B"),
        "harness.encode.s": (incl["harness.encode"], "s"),
        "harness.json.bytes": (json_bytes, "B"),
        "harness.json.s": (incl["harness.json"], "s"),
        "harness.ci.calls": (calls["harness.ci"], "count"),
        "harness.ci.s": (incl["harness.ci"], "s"),
        "trace.spans": (len(name), "count"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        # run_experiment's own self time is what no named layer function
        # covers (it is `harness.report.self_s`), so it is left out here.
        "trace.coverage": ((sum(selft) - self_s["harness.report"]) / traced_wall, "ratio"),
    })

    census = [f"census eigen calls by dimension (calls with an off-diagonal entry above "
              f"ATOL_DENSITY, seconds): "
              + (", ".join(f"dim {d}: {eigen_dims[d]} ({eigen_nondiag[d]}, {eigen_s[d]:.3f} s)"
                           for d in sorted(eigen_dims)) or "none")]
    census.append(f"census sessions requested {requested}, re-run for averaging {reruns} "
                  f"over {views} averaged views")
    for protocol in sorted(per_protocol):
        sessions, at_peak, obs, pred = per_protocol[protocol]
        census.append(f"census width {protocol}: observed max {obs} vs peak_live_width {pred}, "
                      f"{at_peak}/{sessions} sessions reach it")
    return m, census
