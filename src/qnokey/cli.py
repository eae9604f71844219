"""Command-line front end.

Subcommands: `run` one experiment, `sweep` a parameter grid, `verify` a
stored report against a fresh rerun, and `tables` for truth-table files.
Exit status: 0 when every embedded assertion passed, 1 when any failed,
2 for unusable arguments. `verify` checks every report it is given: one
it cannot rerun (unreadable, or a config the package refuses) is printed
as FAIL with the reason, and the next report is still checked. Reports
land in --out, or in the directory named by QNOKEY_OUTPUT_DIR, or in the
working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields
from pathlib import Path

from .adversary import AttackSpecError
from .harness import (ConfigError, ExperimentConfig, canonical_json, run_experiment,
                      verify_report)
from .oracles import (DEFAULT_ENUM_LIMIT, BooleanPermutation, make_rng, read_table,
                      sample_function, sample_permutation, save_table)
from .protocols import AUTHENTICATED, PROTOCOL_IDS, UNTAGGED
from .qstate import DEFAULT_QUBIT_CAP

OUTPUT_DIR_ENV = "QNOKEY_OUTPUT_DIR"

# Errors that refuse the arguments or a file rather than report a bug.
# ConfigError covers ProtocolError, its subclass.
REFUSALS = (ConfigError, AttackSpecError, ValueError, OSError)


def _output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v, 0) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what} {raw!r}") from exc


def _report_name(config: ExperimentConfig) -> str:
    """Default report file name: `<protocol>_n<n>_l<l>_seed<seed>.json`.

    When any other config field differs from its default, the first 8 hex
    digits of the sha256 of the canonical config are appended, so runs
    that differ only in, say, `t` or `attack` do not overwrite each other.
    """
    stem = f"{config.protocol}_n{config.n}_l{config.l}_seed{config.seed}"
    named = ("protocol", "n", "l", "seed")
    if any(getattr(config, f.name) != f.default for f in fields(config) if f.name not in named):
        stem += "_" + hashlib.sha256(canonical_json(config.to_dict())).hexdigest()[:8]
    return stem + ".json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnokey",
        description="Exact simulation experiments for the no-key protocol family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its report")
    run.add_argument("--protocol", required=True, choices=PROTOCOL_IDS)
    run.add_argument("--n", type=int, required=True, help="message width in bits")
    run.add_argument("--l", type=int, default=0, help="tag register width")
    run.add_argument("--t", type=int, default=0, help="authentication tag width")
    run.add_argument("--x", default=None,
                     help="comma-separated messages, or 'all' (default)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--attack", default=None,
                     help="none | passive | mim | phase:x=<int>[,passes=..] "
                          "| measure[:passes=..]; a pass list ends at the next option")
    run.add_argument("--snapshots", action=argparse.BooleanOptionalAction,
                     default=True, help="record per-round channel snapshots")
    run.add_argument("--average", choices=("none", "pads", "pads+keys"), default="none")
    run.add_argument("--exhaustive-keys", action="store_true",
                     help="sweep every authentication key (p6 attacks)")
    run.add_argument("--include-matrices", action="store_true",
                     help="embed channel snapshots in the report")
    run.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
    run.add_argument("--enum-limit", type=int, default=DEFAULT_ENUM_LIMIT)
    run.add_argument("--fa-file", default=None, help="pin the sender permutation")
    run.add_argument("--fb-file", default=None, help="pin the receiver permutation")
    run.add_argument("--sa-file", default=None, help="pin Alice's tag function")
    run.add_argument("--sb-file", default=None, help="pin Bob's tag function")
    run.add_argument("--out", default=None, help="report path")

    sweep = sub.add_parser("sweep", help="run a grid of honest experiments")
    sweep.add_argument("--protocols", default="p1,p2,p4",
                       help="comma-separated protocol ids")
    sweep.add_argument("--n", default="1,2", help="comma-separated message widths")
    sweep.add_argument("--l", default="1", help="comma-separated tag widths")
    sweep.add_argument("--t", type=int, default=3, help="authentication width for p6")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
    sweep.add_argument("--enum-limit", type=int, default=DEFAULT_ENUM_LIMIT)
    sweep.add_argument("--out-dir", default=None)

    verify = sub.add_parser("verify", help="re-derive reports and compare bytes")
    verify.add_argument("reports", nargs="+")

    tables = sub.add_parser("tables", help="emit or check truth-table files")
    tsub = tables.add_subparsers(dest="table_command", required=True)
    sample = tsub.add_parser("sample", help="sample a table to a file")
    sample.add_argument("--kind", choices=("perm", "func"), required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--l", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True)
    check = tsub.add_parser("check", help="validate a table file and summarise it")
    check.add_argument("files", nargs="+")
    return parser


def _cmd_run(args) -> int:
    # Every config field but messages has a flag of the same name.
    messages = None if args.x in (None, "all") else _int_list(args.x, "--x message list")
    config = ExperimentConfig(messages=messages,
                              **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                                 if f.name != "messages"})
    report = run_experiment(config)
    if args.out is not None:
        path = Path(args.out)
    else:
        path = _output_dir() / _report_name(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    report.write(path)
    for check in report.body["assertions"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"{mark} {check['name']}: {check['detail']}")
    print(f"report: {path}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    widths = _int_list(args.n, "--n width list")
    tags = _int_list(args.l, "--l tag width list")
    for protocol in protocols:
        if protocol not in PROTOCOL_IDS:
            raise ConfigError(f"unknown protocol {protocol!r}")
    out_dir = Path(args.out_dir) if args.out_dir else _output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for protocol in protocols:
        for n in widths:
            for l in [0] if protocol in UNTAGGED else tags:
                try:
                    config = ExperimentConfig(
                        protocol=protocol, n=n, l=l,
                        t=args.t if protocol in AUTHENTICATED else 0,
                        seed=args.seed, trials=args.trials,
                        qubit_cap=args.qubit_cap, enum_limit=args.enum_limit,
                    )
                except ConfigError as exc:
                    print(f"SKIP {protocol} n={n} l={l}: {exc}")
                    continue
                report = run_experiment(config)
                name = _report_name(config)
                report.write(out_dir / name)
                mark = "PASS" if report.passed else "FAIL"
                if not report.passed:
                    failures += 1
                print(f"{mark} {protocol} n={n} l={l} -> {out_dir / name}")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    bad = 0
    for path in args.reports:
        try:
            ok, detail = verify_report(path)
        except REFUSALS as exc:
            ok, detail = False, str(exc)
        print(f"{'PASS' if ok else 'FAIL'} {path}: {detail}")
        if not ok:
            bad += 1
    return 1 if bad else 0


def _cmd_tables(args) -> int:
    if args.table_command == "sample":
        rng = make_rng(args.seed)
        if args.kind == "perm":
            table = sample_permutation(args.n, rng)
        else:
            table = sample_function(args.n, args.l, rng)
        save_table(table, args.out)
        print(f"wrote {args.kind} n={args.n}"
              + (f" l={args.l}" if args.kind == "func" else "")
              + f" -> {args.out}")
        return 0
    bad = 0
    for path in args.files:
        try:
            table = read_table(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            bad += 1
            continue
        kind = "perm" if isinstance(table, BooleanPermutation) else "func"
        print(f"PASS {path}: {kind} n={table.n} out={table.out_width} "
              f"entries={len(table.table)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tables":
            return _cmd_tables(args)
    except REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
