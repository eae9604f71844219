"""Experiment driver: configs, reports, reproduction, attack paths."""

import base64
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta

import qnokey
from qnokey.adversary import AttackSpecError
from qnokey.harness import (
    STANDING_NOTES,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    binomial_ci,
    canonical_json,
    decode_matrix,
    encode_matrix,
    run_experiment,
    shipped_experiments,
    verify_report,
)
from qnokey.oracles import (
    EnumerationLimitError,
    make_rng,
    sample_function,
    sample_permutation,
    save_table,
)
from qnokey.protocols import ProtocolError


# -- configuration validation ------------------------------------------------------


def test_config_defaults_and_message_set():
    config = ExperimentConfig("p1", n=2)
    assert config.message_set() == (0, 1, 2, 3)
    assert config.trials == 1
    config = ExperimentConfig("p1", n=2, messages=[3, 1])
    assert config.message_set() == (3, 1)


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        ExperimentConfig("p1", n=2, trials=0)
    with pytest.raises(ConfigError, match="unknown averaging mode"):
        ExperimentConfig("p2", n=2, l=1, average="sometimes")
    with pytest.raises(ConfigError, match="does not fit"):
        ExperimentConfig("p1", n=2, messages=(4,))
    with pytest.raises(ConfigError, match="message list is empty"):
        ExperimentConfig("p1", n=2, messages=())
    with pytest.raises(ConfigError, match="message list is empty"):
        ExperimentConfig("p2", n=2, l=1, messages=())
    with pytest.raises(ConfigError, match=r"message list \[1, 1\] repeats a message"):
        ExperimentConfig("p2", n=2, l=1, messages=(1, 1), average="pads")
    with pytest.raises(ConfigError, match=r"missing the fields \['n'\]"):
        ExperimentConfig.from_dict({"protocol": "p1"})
    with pytest.raises(ConfigError, match="exhaustive_keys"):
        ExperimentConfig("p2", n=2, l=1, exhaustive_keys=True)
    with pytest.raises(ConfigError, match="table pinning"):
        ExperimentConfig("p3", n=2, l=1, fa_file="whatever")
    with pytest.raises(ConfigError, match="no tag functions"):
        ExperimentConfig("p1", n=2, sb_file="whatever")
    with pytest.raises(ConfigError, match="no permutations"):
        ExperimentConfig("nonint", n=2, l=1, fb_file="whatever")
    with pytest.raises(ConfigError, match="no sender permutation"):
        ExperimentConfig("two-round", n=2, l=1, fa_file="whatever")
    with pytest.raises(ConfigError, match="needs t=0"):
        ExperimentConfig("p2", n=2, l=1, t=7)
    with pytest.raises(ConfigError, match="no tag register"):
        ExperimentConfig("p1", n=2, l=3)
    with pytest.raises(ConfigError, match="no tag register"):
        ExperimentConfig("p1", n=2, average="pads")
    with pytest.raises(EnumerationLimitError) as err:
        ExperimentConfig("p2", n=2, l=4, average="pads+keys")
    assert err.value.count == 16 << 16
    # p6's widest stage carries message and MAC tag: 2 pads times 2^(2^4) functions.
    with pytest.raises(EnumerationLimitError) as err:
        ExperimentConfig("p6", n=2, l=1, t=2, average="pads+keys")
    assert err.value.count == 2 << 16
    # A 13-qubit snapshot has the entries of a 26-qubit state; the session alone fits.
    with pytest.raises(ProtocolError, match=r"2\*13=26-qubit state, cap is 22"):
        ExperimentConfig("p4", n=9, l=4)
    with pytest.raises(ProtocolError, match="--no-snapshots"):
        ExperimentConfig("p4", n=9, l=4, snapshots=False, average="pads")
    ExperimentConfig("p4", n=9, l=4, snapshots=False)
    # Echo detection and the key sweep take no snapshots, so the snapshot cap spares them.
    ExperimentConfig("p3", n=1, l=19, attack="mim", trials=2)
    ExperimentConfig("p6", n=2, l=7, t=3, attack="phase:x=0x8,passes=2", exhaustive_keys=True,
                     messages=(1,))
    # Tag functions are truth tables of at most 16 input bits.
    with pytest.raises(ProtocolError, match="n=18 is 18 bits, above the 16-bit truth-table cap"):
        ExperimentConfig("nonint", n=18, l=1, snapshots=False)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        ExperimentConfig("p1", n=2, seed=-1)
    with pytest.raises(ConfigError, match="include_matrices .* needs snapshots on"):
        ExperimentConfig("p2", n=1, l=1, snapshots=False, include_matrices=True)
    # Fields the chosen experiment would ignore; snapshots stays accepted.
    sweep = dict(messages=(1,), attack="phase:x=0x4,passes=2", exhaustive_keys=True)
    for field, value in (("trials", 7), ("average", "pads"), ("include_matrices", True)):
        with pytest.raises(ConfigError, match=f"exhaustive key sweep ignores {field}"):
            ExperimentConfig("p6", n=2, l=1, t=2, **sweep, **{field: value})
    ExperimentConfig("p6", n=2, l=1, t=2, **sweep)
    for field, value in (("messages", (1,)), ("average", "pads"), ("include_matrices", True)):
        with pytest.raises(ConfigError, match=f"echo detection ignores {field}"):
            ExperimentConfig("p5", n=2, l=1, attack="mim", **{field: value})
    with pytest.raises(ConfigError, match="mim split ignores include_matrices"):
        ExperimentConfig("p1", n=2, attack="mim", include_matrices=True)
    with pytest.raises(ConfigError, match="mim split ignores fb_file"):
        ExperimentConfig("p1", n=2, attack="mim", fb_file="whatever")
    # Field types are checked at construction too, not only in from_dict.
    for field, value in (("snapshots", "no"), ("n", 2.0), ("trials", 2.5), ("n", "2")):
        with pytest.raises(ConfigError, match=f"config field '{field}' has the wrong type"):
            ExperimentConfig("p1", **{"n": 2, field: value})


def test_config_inherits_protocol_validation():
    with pytest.raises(ProtocolError, match="l >= 1"):
        ExperimentConfig("p2", n=2)
    with pytest.raises(ProtocolError, match="cap"):
        ExperimentConfig("p1", n=8, qubit_cap=22)
    # A raised cap still leaves the 48-qubit peak, 4 PiB of amplitudes, refused.
    with pytest.raises(ProtocolError, match=r"3\*16=48 qubits: 16\*2\*\*48=4503599627370496 "
                                            r"bytes, above this host's \d+ bytes of memory"):
        ExperimentConfig("p1", n=16, qubit_cap=64, snapshots=False, messages=(0,))


def test_config_dict_round_trip():
    config = ExperimentConfig("p2", n=2, l=1, messages=(1, 2), seed=9,
                              attack="passive", average="pads")
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    none_msgs = ExperimentConfig("p1", n=1)
    assert ExperimentConfig.from_dict(none_msgs.to_dict()) == none_msgs


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"protocol": "p1", "n": 1, "speed": 11})


def test_config_from_dict_checks_value_types():
    for name, value in (("n", True), ("n", 2.0), ("seed", "3"), ("messages", 1),
                        ("messages", [0, False]), ("attack", 5), ("snapshots", 1),
                        ("protocol", None), ("fa_file", 0)):
        d = {"protocol": "p1", "n": 1, name: value}
        with pytest.raises(ConfigError, match=f"config field '{name}' has the wrong type"):
            ExperimentConfig.from_dict(d)
    d = {"protocol": "p1", "n": 1, "messages": [0, 1], "attack": None, "snapshots": False}
    assert ExperimentConfig.from_dict(d).messages == (0, 1)


# -- matrix payloads -----------------------------------------------------------------


def test_matrix_payload_round_trip_is_exact():
    # Bytes, not values: an equal value may differ in the sign of a zero.
    rng = make_rng(31)
    signed = np.array([[complex(0.5, -0.0), complex(-0.0, -0.0)],
                       [complex(1.0, np.inf), complex(-np.inf, 0.0)]])
    for m in [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for dim in (1, 2, 4, 8)] + [signed]:
        out = decode_matrix(encode_matrix(m))
        assert type(out) is np.ndarray and out.dtype == np.complex128
        assert out.shape == m.shape and out.flags.writeable
        assert out.tobytes() == m.tobytes()


def test_matrix_payload_of_a_diagonal_is_its_matrix_payload():
    d = np.array([0.125, 0.0, 0.375, 0.5], dtype=np.complex128)
    assert encode_matrix(d) == encode_matrix(np.diag(d))
    assert decode_matrix(encode_matrix(d)).tobytes() == np.diag(d).tobytes()


def test_matrix_payload_size_checked():
    payload = encode_matrix(np.eye(2, dtype=np.complex128))
    payload["dim"] = 3
    with pytest.raises(ValueError, match="doubles"):
        decode_matrix(payload)
    # 64 bytes are 16*dim**2 at dim -2 as well as 2.
    payload["dim"] = -2
    with pytest.raises(ValueError, match="payload holds a matrix of dimension -2"):
        decode_matrix(payload)
    payload = {"dim": 1, "data": base64.b64encode(bytes(15)).decode("ascii")}
    with pytest.raises(ValueError, match="payload holds 15 bytes, expected 2 doubles"):
        decode_matrix(payload)


# One item of each keyed class in the benchmark's `views` workload.
VIEWS_ITEMS = [("two-round", 1, 1, 0, "pads+keys"), ("p2", 2, 2, 0, "pads"),
               ("p3", 1, 1, 0, "pads"), ("p4", 3, 2, 0, "pads"), ("p5", 2, 1, 0, "pads"),
               ("p6", 2, 1, 1, "pads"), ("nonint", 2, 1, 0, "pads+keys")]


@pytest.mark.parametrize("protocol, n, l, t, average", VIEWS_ITEMS)
def test_eigensolver_gets_square_matrices_only(monkeypatch, protocol, n, l, t, average):
    import qnokey.harness as harness
    import qnokey.qstate as qstate

    shapes = []
    real = qstate.hermitian_eigenvalues

    def recording(matrix):
        shapes.append(np.shape(matrix))
        return real(matrix)

    monkeypatch.setattr(qstate, "hermitian_eigenvalues", recording)
    monkeypatch.setattr(harness, "hermitian_eigenvalues", recording)
    report = run_experiment(ExperimentConfig(protocol, n=n, l=l, t=t, seed=3, average=average,
                                             include_matrices=True))
    assert report.passed and report.body["results"]["distance_tables"]
    assert all(len(shape) == 2 and shape[0] == shape[1] for shape in shapes), shapes
    # Only the broadcast's views, averages of a pure state, are not diagonal:
    # every other id's distances are taken in closed form.
    assert bool(shapes) == (protocol == "nonint")


# -- confidence intervals --------------------------------------------------------------


def test_binomial_ci_matches_beta_quantiles():
    # scipy's beta quantiles are the oracle; the package itself does not use
    # scipy. Every k for small n, and a spread of k up to C11's 5,500 trials.
    grid = [(k, n) for n in (1, 2, 10, 40) for k in range(n + 1)] + \
        [(k, n) for n in (760, 2000, 5500)
         for k in sorted({0, 1, 2, n // 4, n // 2, 3 * n // 4, n - 2, n - 1, n} |
                         set(range(0, n + 1, n // 20)))] + [(4155, 5500)]
    alpha = 0.001
    for successes, trials in grid:
        lo, hi = binomial_ci(successes, trials)
        want_lo = 0.0 if successes == 0 else \
            beta.ppf(alpha / 2, successes, trials - successes + 1)
        want_hi = 1.0 if successes == trials else \
            beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
        assert lo == pytest.approx(want_lo, abs=1e-12), (successes, trials)
        assert hi == pytest.approx(want_hi, abs=1e-12), (successes, trials)
        assert lo <= successes / trials <= hi


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
def test_binomial_ci_brackets_the_rate_rises_with_k_and_is_symmetric(case):
    k, n = case
    (lo, hi), (next_lo, next_hi) = binomial_ci(k, n), binomial_ci(k + 1, n)
    assert lo <= k / n <= hi
    assert lo < next_lo and hi < next_hi
    mirror_lo, mirror_hi = binomial_ci(n - k, n)
    assert hi == pytest.approx(1 - mirror_lo, abs=1e-15)
    assert lo == pytest.approx(1 - mirror_hi, abs=1e-15)


def test_binomial_ci_loads_no_scipy():
    # A fresh interpreter: this one has imported scipy for the oracle above.
    package_root = str(Path(qnokey.__file__).resolve().parent.parent)
    probe = ("import sys; from qnokey.harness import binomial_ci; binomial_ci(4155, 5500); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_binomial_ci_validates_inputs():
    with pytest.raises(ValueError, match="outside"):
        binomial_ci(5, 4)


# -- running experiments ----------------------------------------------------------------


def test_honest_experiment_grid():
    config = ExperimentConfig("p1", n=3, seed=7, attack="passive")
    report = run_experiment(config)
    assert report.passed
    runs = report.body["results"]["runs"]
    assert len(runs) == 8
    assert all(r["recovered"] == r["message"] for r in runs)
    names = [a["name"] for a in report.body["assertions"]]
    assert names == ["honest_recovery", "per_run_snapshots_maximally_mixed"]
    assert report.body["notes"] == list(STANDING_NOTES)


def test_experiment_body_is_deterministic():
    config = ExperimentConfig("p2", n=2, l=1, seed=3, trials=2, average="pads")
    a, b = run_experiment(config), run_experiment(config)
    assert a.body_bytes() == b.body_bytes()
    assert a.body["passed"] is True


def test_averaged_assertions_and_distance_tables():
    config = ExperimentConfig("p2", n=2, l=1, seed=5, average="pads",
                              messages=(0, 3))
    report = run_experiment(config)
    names = [a["name"] for a in report.body["assertions"]]
    assert names == ["honest_recovery", "averaged_views_maximally_mixed",
                     "message_independence"]
    rows = report.body["results"]["distance_tables"]["across_messages"]
    assert {(r["x"], r["y"], r["round"]) for r in rows} == \
        {(0, 3, 1), (0, 3, 2), (0, 3, 3)}
    assert max(r["distance"] for r in rows) <= 1e-9


def test_exploratory_broadcast_keeps_distances_without_claims():
    config = ExperimentConfig("nonint", n=2, l=1, seed=17, average="pads+keys")
    report = run_experiment(config)
    assert report.passed
    names = [a["name"] for a in report.body["assertions"]]
    assert "averaged_views_valid_states" in names
    assert "averaged_views_maximally_mixed" not in names
    assert "message_independence" not in names
    rows = report.body["results"]["distance_tables"]["across_messages"]
    # The one-shot broadcast leaks: distances recorded, all well above 0.
    assert min(r["distance"] for r in rows) > 0.4


def test_include_matrices_embeds_decodable_snapshots():
    config = ExperimentConfig("two-round", n=2, l=1, seed=14,
                              include_matrices=True, messages=(1,))
    report = run_experiment(config)
    snaps = report.body["results"]["runs"][0]["snapshots"]
    assert len(snaps) == 2
    rho = decode_matrix(snaps[0])
    assert rho.shape == (8, 8)
    assert abs(rho.trace() - 1.0) <= 1e-12


def test_mim_split_experiment():
    config = ExperimentConfig("p1", n=2, seed=8, trials=2, attack="mim",
                              snapshots=False)
    report = run_experiment(config)
    assert report.passed
    rows = report.body["results"]["mim_runs"]
    assert len(rows) == 2 * 4
    assert all(r["eve_recovered"] == r["x"] for r in rows)
    assert all(r["bob_recovered"] == r["x_eve"] for r in rows)


def test_mim_rejects_unsupported_protocols():
    with pytest.raises(ConfigError, match="mim experiments target"):
        ExperimentConfig("p2", n=2, l=1, attack="mim", snapshots=False)


def test_echo_detection_experiment_report():
    config = ExperimentConfig("p3", n=1, l=1, seed=15, trials=40, attack="mim",
                              snapshots=False)
    report = run_experiment(config)
    det = report.body["results"]["detection"]
    assert det["trials"] == 40
    assert det["uniform_guess_floor"] == 0.5
    assert det["ci999"][0] <= det["rate"] <= det["ci999"][1]
    assert report.body["assertions"][0]["name"] == "echo_detection_rate"


def test_mac_attack_experiment_sweeps_all_keys():
    config = ExperimentConfig("p6", n=2, l=1, t=2, seed=16, messages=(1,),
                              attack="phase:x=0x4,passes=2",
                              exhaustive_keys=True, snapshots=False)
    report = run_experiment(config)
    mac = report.body["results"]["mac_attack"]
    assert mac["keys_per_message"] == 16
    assert mac["total_runs"] == 16
    assert mac["fraction"] >= mac["bound"] == 0.5
    assert report.passed


def test_mac_attack_rejects_bad_masks():
    with pytest.raises(ConfigError, match="message bits only"):
        ExperimentConfig("p6", n=2, l=1, t=2, messages=(1,),
                         attack="phase:x=0x3,passes=2",
                         exhaustive_keys=True, snapshots=False)
    with pytest.raises(ConfigError, match="phase attack"):
        ExperimentConfig("p6", n=2, l=1, t=2, messages=(1,),
                         attack="measure", exhaustive_keys=True,
                         snapshots=False)


def test_config_refuses_attacks_the_protocol_cannot_take():
    # p2 sends three rounds, each carrying the 2-bit message register at n=2.
    with pytest.raises(ConfigError, match=r"p2 has rounds 1..3, the attack names pass 9"):
        ExperimentConfig("p2", n=2, l=1, attack="phase:x=1,passes=9")
    with pytest.raises(ConfigError, match=r"p2 has rounds 1..3, the attack names pass 0"):
        ExperimentConfig("p2", n=2, l=1, attack="measure:passes=0,1")
    with pytest.raises(ConfigError, match=r"mask 0x10 does not fit round 1's 2-bit"):
        ExperimentConfig("p2", n=2, l=1, attack="phase:x=0x10")
    # p6 at n=1, t=2 sends 3 bits in rounds 1-2 and the 2-bit tag echo in 3-4.
    with pytest.raises(ConfigError, match=r"mask 0x4 does not fit round 3's 2-bit"):
        ExperimentConfig("p6", n=1, l=1, t=2, attack="phase:x=0x4")
    with pytest.raises(ConfigError, match=r"mask 0x4 does not fit round 4's 2-bit"):
        ExperimentConfig("p6", n=1, l=1, t=2, attack="phase:x=0x4,passes=2,4")
    ExperimentConfig("p6", n=1, l=1, t=2, attack="phase:x=0x4,passes=1,2")
    ExperimentConfig("p2", n=2, l=1, attack="phase:x=3,passes=1,3")
    with pytest.raises(AttackSpecError, match="unknown attack kind"):
        ExperimentConfig("p2", n=2, l=1, attack="warp")
    with pytest.raises(AttackSpecError, match="unknown options"):
        ExperimentConfig("p3", n=2, l=1, attack="mim:x=1", snapshots=False)


# -- pinned truth tables -----------------------------------------------------------------


def test_pinned_tables_override_samples(tmp_path):
    n, l = 2, 1
    rng = make_rng(77)
    sa = sample_function(n, l, rng)
    fa = sample_permutation(n, rng)
    sa_path, fa_path = tmp_path / "sa.txt", tmp_path / "fa.txt"
    save_table(sa, sa_path)
    save_table(fa, fa_path)
    config = ExperimentConfig("p2", n=n, l=l, sa_file=str(sa_path),
                              fa_file=str(fa_path))
    assert config.pins["alice_tag"].table == sa.table
    assert config.pins["sender_perm"].table == fa.table
    assert set(config.pins) == {"alice_tag", "sender_perm"}
    # And the pinned run still decodes and certifies as usual.
    report = run_experiment(config)
    assert report.passed


def test_pinned_run_snapshot_follows_the_pinned_tag(tmp_path):
    n, l = 2, 1
    sa = sample_function(n, l, make_rng(78))
    sa_path = tmp_path / "sa.txt"
    save_table(sa, sa_path)
    config = ExperimentConfig("p2", n=n, l=l, seed=4, messages=(2,),
                              sa_file=str(sa_path), include_matrices=True)
    report = run_experiment(config)
    diag = decode_matrix(report.body["results"]["runs"][0]["snapshots"][0]) \
        .diagonal().real
    support = {}
    for m in range(1 << n):
        cols = [a for a in range(1 << l) if diag[(m << l) | a] > 1e-12]
        assert len(cols) == 1
        support[m] = cols[0]
    pad = support[0] ^ sa.table[0]
    assert all(support[m] == sa.table[m] ^ pad for m in range(1 << n))


def test_pin_validation_errors(tmp_path):
    # The constructor itself refuses a pin of the wrong kind or shape.
    n, l = 2, 1
    perm_path, func_path = tmp_path / "perm.txt", tmp_path / "func.txt"
    save_table(sample_permutation(n, make_rng(1)), perm_path)
    save_table(sample_function(n, l, make_rng(1)), func_path)
    with pytest.raises(ConfigError, match="must hold a tag function"):
        ExperimentConfig("p2", n=n, l=l, sa_file=str(perm_path))
    with pytest.raises(ConfigError, match="must hold a permutation"):
        ExperimentConfig("p2", n=n, l=l, fa_file=str(func_path))
    with pytest.raises(ConfigError, match="no sender permutation"):
        ExperimentConfig("p4", n=n, l=l, fa_file=str(perm_path))
    with pytest.raises(ConfigError, match="no permutations"):
        ExperimentConfig("nonint", n=n, l=l, fa_file=str(perm_path))
    wrong = tmp_path / "wrong.txt"
    save_table(sample_function(3, l, make_rng(2)), wrong)
    with pytest.raises(ConfigError, match="does not match"):
        ExperimentConfig("p2", n=n, l=l, sa_file=str(wrong))
    save_table(sample_permutation(3, make_rng(2)), wrong)
    with pytest.raises(ConfigError, match=r"--fb-file table shape 3->3 does not match"):
        ExperimentConfig("p4", n=n, l=l, fb_file=str(wrong))


def test_pin_files_are_read_once_per_config(tmp_path, monkeypatch):
    import qnokey.harness as harness

    path = tmp_path / "fb.txt"
    save_table(sample_permutation(2, make_rng(5)), path)
    reads = []
    real = harness.read_table
    monkeypatch.setattr(harness, "read_table", lambda p: reads.append(p) or real(p))
    config = ExperimentConfig("p4", n=2, l=1, trials=5, fb_file=str(path))
    report = run_experiment(config)
    assert report.passed
    assert len(report.body["results"]["runs"]) == 5 * 4
    assert reads == [str(path)]


# -- report files and reproduction ----------------------------------------------------------


def test_report_write_read_and_verify(tmp_path):
    config = ExperimentConfig("p1", n=2, seed=6)
    report = run_experiment(config)
    path = tmp_path / "report.json"
    report.write(path)
    stored = ExperimentReport.read(path)
    assert canonical_json(stored.body) == report.body_bytes()
    assert "created" in stored.meta
    ok, detail = verify_report(path)
    assert ok and "byte-identically" in detail


def test_verify_detects_tampering(tmp_path):
    report = run_experiment(ExperimentConfig("p1", n=1, seed=2))
    path = tmp_path / "tampered.json"
    report.write(path)
    doc = json.loads(path.read_text())
    doc["results"]["runs"][0]["recovered"] ^= 1
    path.write_text(json.dumps(doc))
    ok, detail = verify_report(path)
    assert not ok
    assert "differ" in detail


GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "docs" / "golden_report.json"


def test_golden_report_reproduces():
    ok, detail = verify_report(GOLDEN_REPORT)
    assert ok, detail


def test_verify_refuses_another_format_before_rerunning(tmp_path, monkeypatch):
    doc = json.loads(GOLDEN_REPORT.read_text())
    doc["format_version"] = 1
    path = tmp_path / "golden_v1.json"
    path.write_text(json.dumps(doc))

    def rerun(config):
        raise AssertionError("verify re-ran a report of another format")

    monkeypatch.setattr("qnokey.harness.run_experiment", rerun)
    assert verify_report(path) == (False, "report format 1, this build writes 2")


def test_verify_names_the_first_differing_field(tmp_path):
    doc = json.loads(GOLDEN_REPORT.read_text())
    record = doc["results"]["runs"][0]["measurements"][1]
    fresh = record["outcome"]
    record["outcome"] = fresh ^ 1
    path = tmp_path / "golden_edited.json"
    path.write_text(json.dumps(doc))
    ok, detail = verify_report(path)
    assert not ok
    assert detail.startswith(f"bodies differ at body.results.runs[0].measurements[1].outcome: "
                             f"stored {fresh ^ 1}, fresh {fresh} ")


def test_meta_excluded_from_body_bytes(tmp_path):
    config = ExperimentConfig("p1", n=1, seed=3)
    a, b = run_experiment(config), run_experiment(config)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write(pa)
    b.write(pb)
    assert ExperimentReport.read(pa).meta["created"] is not None
    assert canonical_json(ExperimentReport.read(pa).body) == \
        canonical_json(ExperimentReport.read(pb).body)


# sha256 of the body bytes of every shipped experiment but the 5,500-trial
# echo detection, which C11 reruns. A change to a runner, the draw order or
# the report layout moves them.
SHIPPED_BODY_SHA256 = {
    "p1": "2f750209c620ef8c97a2c77f18029e960346d11e68a179b6d221cb9e708c517f",
    "p2": "11430b2a018dff249b7bce8e778dc8ea9610a666e53fbc1f2aabd643fc293bd4",
    "p4": "1b722aeb18b215cb915f866edcdb1063c6d186a8d2d490794ccf86f1da5a4978",
    "two-round": "b7062658e32d7e57082745b007c82d3d4aa498f5a34f0f083186422ac692cfc5",
    "p6": "7258d09af00efb8920fc9f0dd936e95f773aeab7fade157c3e2fd00066184468",
    "nonint": "23b9ff73a686734f40198644d4bf2d9894a02d9cfb9fb3645b2a279c58c92b4c",
}


def test_fast_shipped_experiment_bodies_are_pinned():
    digests = {c.protocol: hashlib.sha256(run_experiment(c).body_bytes()).hexdigest()
               for c in shipped_experiments() if c.attack != "mim"}
    assert digests == SHIPPED_BODY_SHA256


# sha256 of the body bytes of averaged session grids that no shipped
# experiment runs, all at seed=21 and trials=2: attacked grids, which run
# their own sessions beside the averaging reruns; honest ones of the ids
# no shipped experiment averages, with their snapshot matrices; and a grid
# with snapshots off. Keys: (protocol, n, l, t, attack, average, include
# matrices, snapshots).
GRID_BODY_SHA256 = {
    ("p2", 2, 1, 0, "passive", "pads", False, True):
        "7115cd9d7b84ee82549a97a092b692c0771e9d04ce29c446f359e86c9267d096",
    ("p2", 2, 1, 0, "phase:x=1,passes=1", "pads", False, True):
        "10cd9a098c161fc553f435947fd83c9b9c14b32ff13ac63337ef6dde2d1b906e",
    ("p2", 2, 1, 0, "measure:passes=2", "pads", False, True):
        "7590e8ac7a0f27548d9247c0eb9a9f037ec1e723e808edd72f1b8be0b45e934a",
    ("p5", 1, 1, 0, "measure:passes=all", "pads+keys", False, True):
        "f8000f720d0f248926f8c7f84193566aaa7c8f08c3c3c9ef4c7bae318ce3a09f",
    ("p6", 1, 1, 1, "measure:passes=1", "pads", False, True):
        "10c71d26d289f111e4d31edfe1107ccff2bfbdbb36fda7b9f8cfca3c588ca4de",
    ("p3", 2, 1, 0, None, "pads", True, True):
        "76caa2e28b8ff37019457569bb02f698217d871008c74e7c423dfa4b29e4f6e7",
    ("p5", 2, 1, 0, None, "pads", True, True):
        "68ede5aba2a486dc19e66e02a310da3335a2cd1c0c3e64130e8cdaa1799b7386",
    ("p6", 1, 1, 1, None, "pads+keys", True, True):
        "2bbceedca12169e2c18e6a8314728c966ebcbd052d19d580c35c22b01a7f78ab",
    ("p2", 2, 1, 0, None, "pads", False, False):
        "446798ea401351879a6819cb26815bb17542e0b32af56c3f9c21e7c661c3db49",
}


def test_averaged_grid_bodies_are_pinned():
    digests = {}
    for key in GRID_BODY_SHA256:
        protocol, n, l, t, attack, average, include_matrices, snapshots = key
        config = ExperimentConfig(protocol, n=n, l=l, t=t, seed=21, trials=2, attack=attack,
                                  average=average, include_matrices=include_matrices,
                                  snapshots=snapshots)
        digests[key] = hashlib.sha256(run_experiment(config).body_bytes()).hexdigest()
    assert digests == GRID_BODY_SHA256


@pytest.mark.parametrize("attack", [None, "passive", "measure:passes=2"])
def test_an_averaged_grid_runs_each_honest_message_once(monkeypatch, attack):
    # An unattacked message's record is its averaging rerun's; an attacked
    # one, `passive` included, runs its own session beside that rerun.
    import qnokey.protocols as protocols

    sessions = []
    real = protocols.run_session
    monkeypatch.setattr(protocols, "run_session",
                        lambda *a, **kw: sessions.append(kw["attack"]) or real(*a, **kw))
    run_experiment(ExperimentConfig("p2", n=2, l=1, trials=2, attack=attack, average="pads"))
    honest = sum(a is None for a in sessions)
    assert (honest, len(sessions) - honest) == (8, 0 if attack is None else 8)


# sha256 of the body bytes of one-message sessions at peak widths 17 to
# 21, with snapshots, pinned from the dense state-vector kernels: the
# stored-amplitude kernels must give the same mixedness floats and
# outcomes. The two attacked sessions measure R1 while it spans several
# rows, at widths 13 and 17. Keys: (protocol, n, l, t, seed, message, attack).
WIDE_BODY_SHA256 = {
    ("p1", 7, 0, 0, 11, 93, None):
        "d1063036b5d18af842cc0d99f69b879fe8297e207279720570107e7a6e95aa46",
    ("p4", 9, 1, 0, 12, 300, None):
        "d9d5cdce97ff1f20728b173b8dbb4a225e1e630d13a8937d6b29d8cff74723a0",
    ("p2", 6, 2, 0, 13, 41, None):
        "b9fbfad787b08a3c03d5ae72a6d0d05025b95e1722ef557b3ba08de3cda8b6f3",
    ("p6", 6, 1, 2, 14, 22, None):
        "0fdf4252efac2cf52cef36d4039cdcb5c9976872c34990dc8929974e4b077488",
    ("p3", 5, 3, 0, 15, 19, "measure:passes=1"):
        "831c24b2eee8bcdadfc2f7e57e634046f0f4446612d75e293a43e659f3e077d7",
    ("p5", 8, 1, 0, 16, 201, "measure:passes=all"):
        "34a203745ea7acd58e42c4cdce9f14676e2c8a4351e845324fcae1ab48395da3",
}


def test_wide_session_bodies_are_pinned():
    digests = {}
    for key in WIDE_BODY_SHA256:
        protocol, n, l, t, seed, x, attack = key
        config = ExperimentConfig(protocol, n=n, l=l, t=t, seed=seed, messages=(x,),
                                  attack=attack)
        digests[key] = hashlib.sha256(run_experiment(config).body_bytes()).hexdigest()
    assert digests == WIDE_BODY_SHA256


def test_wide_snapshot_mixedness_builds_no_channel_matrix():
    # Honest p4 at n=9, l=1 sends a 10-qubit channel state, a 1024 x 1024
    # complex128 matrix (16 MiB) if built. Its snapshots are diagonal, so
    # the session and its per-run mixedness check must stay below 1/8 of
    # that matrix: a dense snapshot anywhere on the path fails here.
    config = ExperimentConfig("p4", n=9, l=1, seed=12, messages=(300,))
    matrix_bytes = 16 * 1024 * 1024
    run_experiment(ExperimentConfig("p4", n=2, l=1, seed=12, messages=(1,)))  # imports, caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert set(report.body["results"]["per_run_mixedness"]) == {"1", "2"}
    assert hashlib.sha256(report.body_bytes()).hexdigest() == \
        WIDE_BODY_SHA256[("p4", 9, 1, 0, 12, 300, None)]
    assert peak < matrix_bytes // 8, f"peak {peak} B"


def test_shipped_experiment_roster():
    roster = shipped_experiments()
    assert [c.protocol for c in roster] == \
        ["p1", "p2", "p4", "two-round", "p3", "p6", "nonint"]
    assert all(isinstance(c, ExperimentConfig) for c in roster)
    # The statistical entry is sized for a 99.9% interval half-width
    # of at most 0.02 at its observed rate.
    detection = next(c for c in roster if c.attack == "mim")
    assert detection.trials == 5500
