"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qnokey import harness  # noqa: E402
from qnokey.harness import ExperimentConfig  # noqa: E402


def test_seed_fixes_the_item_list():
    for name in workloads.WORKLOADS:
        first = workloads.items(name, 7)
        assert first == workloads.items(name, 7)
        assert first != workloads.items(name, 8)
        assert len(first) >= 100
        # Same mix for every seed: only seeds, messages and order change.
        mix = sorted((c.protocol, c.n, c.l, c.t, c.average) for c in first)
        assert mix == sorted((c.protocol, c.n, c.l, c.t, c.average)
                             for c in workloads.items(name, 8))


def test_host_speed_scale_is_reference_over_median_sample():
    compute, memory = hostspeed.HostSpeed().sample()
    assert compute > 0 and memory > 0
    # Medians 0.002 s and 0.008 s: geometric mean 0.004 s, a quarter of
    # the reference speed.
    samples = [(0.003, 0.016), (0.002, 0.008), (0.001, 0.004)]
    assert math.isclose(hostspeed.scale(samples), hostspeed.REF_S / 0.004)


def test_self_time_of_a_nested_call():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = spans._wrap(rec, lambda: None, "inner", "plain")

    def body():
        inner()
        inner()

    spans._wrap(rec, body, "outer", "plain")()
    # Clock reads: outer opens 0, inner 1-2, inner 3-4, outer closes 5.
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert spans.self_times(a["parent"], a["start"], a["end"]).tolist() == [3.0, 1.0, 1.0]


def _bindings():
    """Every callable bound in a qnokey module or class namespace."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qnokey" or name.startswith("qnokey."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        found[(name, attr, meth)] = fn
    return found


def test_traced_run_restores_every_binding_and_changes_no_output():
    configs = [
        ExperimentConfig("p3", n=2, l=1, trials=2, seed=1, attack="mim", snapshots=False),
        ExperimentConfig("p2", n=1, l=1, seed=2, average="pads+keys", include_matrices=True),
        ExperimentConfig("p6", n=1, l=1, t=1, seed=3, messages=(1,)),
    ]
    untraced = [harness.run_experiment(c).body_bytes() for c in configs]
    before = _bindings()
    original_run = harness.run_experiment
    rec = spans.SpanRecorder()
    installed = spans.install(rec)
    try:
        assert harness.run_experiment is not original_run
        traced = []
        for c in configs:
            report = harness.run_experiment(c)
            report.to_json()
            traced.append(report.body_bytes())
    finally:
        installed.restore()
    assert installed.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == untraced

    metrics, _ = spans.layer_metrics(rec, traced_wall=1.0, untraced_wall=1.0)
    assert metrics["harness.reports"][0] == 3
    assert metrics["adversary.trials"][0] == 2
    assert metrics["protocols.average.reruns"][0] > 0
    assert metrics["qstate.width_pred_ratio"][0] == 1.0


def test_echo_check_recomputes_the_interval_and_refuses_an_impossible_count():
    config = ExperimentConfig("p3", n=2, l=1, trials=40, seed=1, attack="mim",
                              snapshots=False)
    for k in (0, 1, 17, 30, 39, 40):
        assert all(abs(a - b) < 1e-9 for a, b in zip(workloads.clopper_pearson(k, 40),
                                                     harness.binomial_ci(k, 40)))
    det = harness.run_experiment(config).body["results"]["detection"]
    assert workloads._check_echo(config, det) == []
    lo, hi = harness.binomial_ci(det["rejections"] - 1, 40)
    assert workloads._check_echo(config, dict(det, ci999=[lo, hi])) != []
    # Pooled over a pass: a plausible count passes; a program that stopped
    # catching the hijack, or one that always claims to, is refused.
    assert workloads.check_echo_pool({2: (570, 760), 3: (245, 280)}) == []
    assert any("P[K <= 0]" in p for p in workloads.check_echo_pool({2: (0, 760)}))
    assert workloads.check_echo_pool({3: (280, 280)}) != []
