"""Experiment driver: configs, reports, reproduction, attack paths."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta

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
    rng = make_rng(31)
    for dim in (1, 2, 4, 8):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out = decode_matrix(encode_matrix(m))
        assert type(out) is np.ndarray and out.dtype == np.complex128
        assert out.shape == (dim, dim)
        assert np.array_equal(out, m)


def test_matrix_payload_size_checked():
    payload = encode_matrix(np.eye(2, dtype=np.complex128))
    payload["dim"] = 3
    with pytest.raises(ValueError, match="doubles"):
        decode_matrix(payload)


# -- confidence intervals --------------------------------------------------------------


def test_binomial_ci_matches_beta_quantiles():
    for successes, trials in ((0, 10), (10, 10), (3, 10), (150, 200), (1, 1000)):
        lo, hi = binomial_ci(successes, trials)
        alpha = 0.001
        want_lo = 0.0 if successes == 0 else \
            beta.ppf(alpha / 2, successes, trials - successes + 1)
        want_hi = 1.0 if successes == trials else \
            beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
        assert lo == pytest.approx(want_lo, abs=1e-12)
        assert hi == pytest.approx(want_hi, abs=1e-12)
        assert lo <= successes / trials <= hi


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
    "p1": "7d4a2e20676dc40fab02ca1075e473a79049e0c0358b7067fb25889206105468",
    "p2": "4670e808090fc7b8a990dd79d4155ae5dc135b106a145c259d0457ba2e52a897",
    "p4": "2e009f2be2e9d868e7c4cab17c2668065fe7f9293d1cb9723a8fff2eecbffc1e",
    "two-round": "cfa7cbd3a580c9ed89f166c25c2191d0bba294967324b6d5d3a246baaeeea95a",
    "p6": "5646e5b68ce29bbb090209eacba8c54a4d32526d84d281444f5e1e8b8fec4b1c",
    "nonint": "482ea53e7a3269d6996fdc3e84466dfab3dcc826268e9ee5127aa28840533224",
}


def test_fast_shipped_experiment_bodies_are_pinned():
    digests = {c.protocol: hashlib.sha256(run_experiment(c).body_bytes()).hexdigest()
               for c in shipped_experiments() if c.attack != "mim"}
    assert digests == SHIPPED_BODY_SHA256


def test_shipped_experiment_roster():
    roster = shipped_experiments()
    assert [c.protocol for c in roster] == \
        ["p1", "p2", "p4", "two-round", "p3", "p6", "nonint"]
    assert all(isinstance(c, ExperimentConfig) for c in roster)
    # The statistical entry is sized for a 99.9% interval half-width
    # of at most 0.02 at its observed rate.
    detection = next(c for c in roster if c.attack == "mim")
    assert detection.trials == 5500
