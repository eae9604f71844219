"""Command-line front end: subcommands, exit codes, file placement."""

import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import qnokey
from qnokey.cli import OUTPUT_DIR_ENV, _build_parser, main
from qnokey.harness import ExperimentConfig, ExperimentReport, binomial_ci


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_report_and_prints_assertions(tmp_path, capsys):
    out = tmp_path / "p1.json"
    rc = run_cli("run", "--protocol", "p1", "--n", "3", "--seed", "7",
                 "--x", "all", "--attack", "passive", "--out", str(out))
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS honest_recovery:") for line in lines)
    assert lines[-1] == f"report: {out}"
    report = ExperimentReport.read(out)
    assert report.passed
    assert len(report.body["results"]["runs"]) == 8


def test_run_with_averaging_and_message_list(tmp_path, capsys):
    out = tmp_path / "p2.json"
    rc = run_cli("run", "--protocol", "p2", "--n", "2", "--l", "2",
                 "--x", "3", "--seed", "5", "--average", "pads",
                 "--out", str(out))
    assert rc == 0
    report = ExperimentReport.read(out)
    assert report.body["config"]["messages"] == [3]
    assert report.body["config"]["average"] == "pads"


def test_default_report_name_honours_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    rc = run_cli("run", "--protocol", "p1", "--n", "1", "--seed", "4")
    assert rc == 0
    assert (tmp_path / "p1_n1_l0_seed4.json").exists()


def test_default_report_names_keep_configs_apart(tmp_path, monkeypatch, capsys):
    # p6 runs differing only in t, and p3 runs with and without an
    # attack, each get their own default report.
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    for t in ("1", "2"):
        assert run_cli("run", "--protocol", "p6", "--n", "2", "--l", "1", "--t", t) == 0
    assert run_cli("run", "--protocol", "p3", "--n", "1", "--l", "1") == 0
    assert run_cli("run", "--protocol", "p3", "--n", "1", "--l", "1", "--attack", "mim") == 0
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(written) == 4
    assert "p3_n1_l1_seed0.json" in written
    p6 = [name for name in written if name.startswith("p6_n2_l1_seed0_")]
    assert len(p6) == 2
    configs = {ExperimentReport.read(tmp_path / name).body["config"]["t"] for name in p6}
    assert configs == {1, 2}


def test_run_reports_failure_exit_code(monkeypatch, tmp_path, capsys):
    import qnokey.cli as cli_mod

    body = {"assertions": [{"name": "synthetic", "passed": False, "detail": "forced"}],
            "passed": False, "config": {}, "results": {}, "notes": [],
            "format_version": 1}
    monkeypatch.setattr(cli_mod, "run_experiment",
                        lambda config: ExperimentReport(body=body, meta={}))
    rc = run_cli("run", "--protocol", "p1", "--n", "1",
                 "--out", str(tmp_path / "f.json"))
    assert rc == 1
    assert "FAIL synthetic: forced" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    rc = run_cli("run", "--protocol", "p2", "--n", "3", "--l", "3",
                 "--qubit-cap", "11", "--out", str(tmp_path / "x.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cap is 11" in err
    rc = run_cli("run", "--protocol", "p1", "--n", "2", "--x", "1,zz")
    assert rc == 2
    assert "bad --x message list '1,zz'" in capsys.readouterr().err
    rc = run_cli("run", "--protocol", "p1", "--n", "2", "--attack", "warp")
    assert rc == 2


def test_a_raised_qubit_cap_runs_what_fits_in_memory(tmp_path, capsys):
    assert run_cli("run", "--protocol", "p1", "--n", "2", "--qubit-cap", "64",
                   "--out", str(tmp_path / "p1.json")) == 0
    rc = run_cli("run", "--protocol", "p1", "--n", "16", "--x", "0", "--no-snapshots",
                 "--qubit-cap", "64", "--out", str(tmp_path / "wide.json"))
    assert rc == 2
    assert "bytes of memory" in capsys.readouterr().err
    assert not (tmp_path / "wide.json").exists()


def test_no_snapshots_flag(tmp_path):
    out = tmp_path / "nosnap.json"
    rc = run_cli("run", "--protocol", "p1", "--n", "2", "--no-snapshots",
                 "--out", str(out))
    assert rc == 0
    report = ExperimentReport.read(out)
    assert report.body["config"]["snapshots"] is False
    assert "per_run_mixedness" not in report.body["results"]


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli("run", "--protocol", "p1", "--n", "2", "--seed", "9",
                   "--out", str(out)) == 0
    assert run_cli("verify", str(out)) == 0
    assert "byte-identically" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    doc["results"]["runs"][0]["recovered"] ^= 1
    out.write_text(json.dumps(doc))
    assert run_cli("verify", str(out)) == 1
    assert "FAIL" in capsys.readouterr().out


GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "docs" / "golden_report.json"


def test_verify_names_a_missing_key_a_short_list_and_a_missing_config(tmp_path, capsys):
    doc = json.loads(GOLDEN_REPORT.read_text())
    assert len(doc["results"]["runs"]) == 2
    edits = {"keyless": lambda d: d["results"].pop("per_run_mixedness"),
             "short": lambda d: d["results"]["runs"].pop(),
             "configless": lambda d: d.pop("config")}
    paths = []
    for name, edit in edits.items():
        copy = json.loads(GOLDEN_REPORT.read_text())
        edit(copy)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(copy))
    assert run_cli("verify", *map(str, paths)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(f"FAIL {paths[0]}: bodies differ at "
                               f"body.results.per_run_mixedness: stored \"<absent>\", fresh ")
    assert lines[1].startswith(f"FAIL {paths[1]}: bodies differ at "
                               f"body.results.runs length: stored 1, fresh 2 ")
    assert lines[2] == f"FAIL {paths[2]}: the report carries no config object"


def test_verify_reports_each_refused_report_and_goes_on(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert run_cli("run", "--protocol", "p1", "--n", "2", "--seed", "9",
                   "--out", str(good)) == 0
    doc = json.loads(good.read_text())
    refused, bare = tmp_path / "refused.json", tmp_path / "bare.json"
    doc["config"].update(protocol="p2", l=1, t=3)
    refused.write_text(json.dumps(doc))
    del doc["config"]["protocol"], doc["config"]["n"]
    bare.write_text(json.dumps(doc))
    # Hand-edited values of the wrong JSON type.
    typed = []
    for name, value in (("n", "2"), ("messages", [1, "x"]), ("trials", None)):
        doc = json.loads(good.read_text())
        doc["config"][name] = value
        typed.append(tmp_path / f"typed_{name}.json")
        typed[-1].write_text(json.dumps(doc))
    # Files whose JSON is not an object at all.
    listed, text = tmp_path / "list.json", tmp_path / "text.json"
    listed.write_text("[1, 2]")
    text.write_text('"x"')
    capsys.readouterr()
    assert run_cli("verify", str(refused), str(bare), *map(str, typed), str(listed), str(text),
                   str(good)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith(f"FAIL {refused}: only p6 carries an authentication tag")
    assert lines[1] == f"FAIL {bare}: config is missing the fields ['n', 'protocol']"
    assert lines[2] == f"FAIL {typed[0]}: config field 'n' has the wrong type: '2'"
    assert lines[3] == f"FAIL {typed[1]}: config field 'messages' has the wrong type: [1, 'x']"
    assert lines[4] == f"FAIL {typed[2]}: config field 'trials' has the wrong type: None"
    assert lines[5] == f"FAIL {listed}: {listed} holds no report: its JSON is not an object"
    assert lines[6] == f"FAIL {text}: {text} holds no report: its JSON is not an object"
    assert lines[7].startswith(f"PASS {good}:")


def test_tables_sample_and_check(tmp_path, capsys):
    perm = tmp_path / "perm.txt"
    func = tmp_path / "func.txt"
    assert run_cli("tables", "sample", "--kind", "perm", "--n", "3",
                   "--seed", "2", "--out", str(perm)) == 0
    assert run_cli("tables", "sample", "--kind", "func", "--n", "2",
                   "--l", "2", "--seed", "2", "--out", str(func)) == 0
    assert run_cli("tables", "check", str(perm), str(func)) == 0
    out = capsys.readouterr().out
    assert f"PASS {perm}: perm n=3 out=3 entries=8" in out
    assert f"PASS {func}: func n=2 out=2 entries=4" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("not a table\n")
    assert run_cli("tables", "check", str(bad)) == 1


def test_pinned_table_flags_flow_through(tmp_path):
    sa = tmp_path / "sa.txt"
    assert run_cli("tables", "sample", "--kind", "func", "--n", "2", "--l", "1",
                   "--seed", "3", "--out", str(sa)) == 0
    out = tmp_path / "pinned.json"
    rc = run_cli("run", "--protocol", "p2", "--n", "2", "--l", "1",
                 "--sa-file", str(sa), "--out", str(out))
    assert rc == 0
    assert ExperimentReport.read(out).body["config"]["sa_file"] == str(sa)


def test_pins_without_a_matching_secret_exit_two(tmp_path, capsys):
    out = tmp_path / "refused.json"
    rc = run_cli("run", "--protocol", "p1", "--n", "2", "--sa-file", str(tmp_path / "f.tbl"),
                 "--sb-file", str(tmp_path / "nonexistent"), "--out", str(out))
    assert rc == 2
    assert "no tag functions to pin" in capsys.readouterr().err
    perm = tmp_path / "perm.txt"
    assert run_cli("tables", "sample", "--kind", "perm", "--n", "2", "--out", str(perm)) == 0
    rc = run_cli("run", "--protocol", "nonint", "--n", "2", "--l", "1",
                 "--fa-file", str(perm), "--out", str(out))
    assert rc == 2
    assert "no permutations to pin" in capsys.readouterr().err
    assert not out.exists()


def test_unused_fields_and_large_averages_exit_two(tmp_path, capsys):
    out = tmp_path / "refused.json"
    for argv, message in (
        (("--protocol", "p2", "--n", "2", "--l", "1", "--t", "7"), "needs t=0"),
        (("--protocol", "p1", "--n", "2", "--l", "3", "--average", "pads"), "no tag register"),
        (("--protocol", "p2", "--n", "2", "--l", "4", "--average", "pads+keys"),
         "needs 1048576 items, limit is 65536"),
        (("--protocol", "nonint", "--n", "14", "--l", "1", "--x", "0"),
         "2*15=30-qubit state, cap is 22; run with --no-snapshots"),
        # A repeated message would certify independence against itself.
        (("--protocol", "p2", "--n", "2", "--l", "1", "--x", "1,1", "--average", "pads"),
         "repeats a message"),
        (("--protocol", "p1", "--n", "2", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("--protocol", "p2", "--n", "2", "--l", "1", "--attack", "phase:x=1,passes=9"),
         "p2 has rounds 1..3, the attack names pass 9"),
        (("--protocol", "nonint", "--n", "18", "--l", "1", "--no-snapshots"),
         "n=18 is 18 bits, above the 16-bit truth-table cap"),
    ):
        assert run_cli("run", *argv, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
    # A function table wider than the cap is refused before any entry is drawn.
    for n in ("17", "40"):
        assert run_cli("tables", "sample", "--kind", "func", "--n", n, "--l", "1",
                       "--out", str(out)) == 2
        assert f"function input width {n} outside 1..16" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_grid_and_skips_invalid(tmp_path, capsys):
    # Spaces around an id are allowed.
    rc = run_cli("sweep", "--protocols", "p1, p2 ", "--n", "1,2", "--l", "1",
                 "--seed", "3", "--out-dir", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "p1_n1_l0_seed3.json").exists()
    assert (tmp_path / "p2_n2_l1_seed3.json").exists()
    assert out.count("PASS") == 4
    rc = run_cli("sweep", "--protocols", "p2", "--n", "2", "--l", "0",
                 "--out-dir", str(tmp_path))
    assert rc == 0
    assert "SKIP p2" in capsys.readouterr().out


def test_sweep_rejects_unknown_protocol(tmp_path, capsys):
    rc = run_cli("sweep", "--protocols", "p9", "--out-dir", str(tmp_path))
    assert rc == 2


def test_sweep_checks_every_id_and_width_before_running(tmp_path, capsys):
    # A bad id or width anywhere in the lists is refused before any report,
    # with a message naming the option and the list.
    # So is a --trials or --seed that no grid point accepts.
    for i, (protocols, n, l, why, *extra) in enumerate([
            ("p1,p9", "1", "1", "unknown protocol 'p9'"),
            ("p1", "1,x", "1", "bad --n width list '1,x'"),
            ("p1,p2", "1", "1,", "bad --l tag width list '1,'"),
            ("", "1", "1", "bad --protocols id list ''"),
            ("p1,,p2", "1", "1", "bad --protocols id list 'p1,,p2'"),
            ("p1,p2,p4", "1,2", "1", "trials must be >= 1, got 0", "--trials", "0"),
            ("p1", "1", "1", "seed must be >= 0, got -1", "--seed", "-1")]):
        out_dir = tmp_path / str(i)
        rc = run_cli("sweep", "--protocols", protocols, "--n", n, "--l", l,
                     "--out-dir", str(out_dir), *extra)
        assert rc == 2
        assert why in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())


def test_run_has_one_flag_per_config_field():
    # _cmd_run builds its config from the flags of the same names, so each
    # field but messages (given as --x) needs a flag with the field's default.
    args = vars(_build_parser().parse_args(["run", "--protocol", "p1", "--n", "1"]))
    names = {f.name for f in fields(ExperimentConfig)} - {"messages"}
    assert set(args) - {"command", "x", "out"} == names
    assert args["x"] is None
    for f in fields(ExperimentConfig):
        if f.name in names and f.default is not MISSING:
            assert args[f.name] == f.default, f.name


def test_module_entry_point(tmp_path):
    # The child imports the same qnokey as this process, whether it is
    # installed or found on pytest's own path. It logs its imports on stderr
    # (-X importtime): no report loads scipy, not even one that computes an
    # interval.
    package_root = str(Path(qnokey.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(protocol, *argv):
        out = tmp_path / f"{protocol}.json"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qnokey", "run", "--protocol", protocol,
             "--n", "1", *argv, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "report:" in proc.stdout
        return ExperimentReport.read(out), "scipy" in proc.stderr

    _, loads_scipy = run("p1")
    assert not loads_scipy
    report, loads_scipy = run("p3", "--l", "1", "--attack", "mim", "--trials", "2",
                              "--no-snapshots")
    assert not loads_scipy
    detection = report.body["results"]["detection"]
    assert detection["ci999"] == list(binomial_ci(detection["rejections"], 2))
