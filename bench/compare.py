"""Collect benchmark result sets and compare a parent with a change.

Collect, alternating which side runs first for each seed:

    python3 bench/compare.py run --side parent=../parent --side change=. \\
        --workloads echo,views,wide --seeds 1-10 --out results/

Each side's results go to `<out>/<side>.jsonl`, one line per run:
{"workload", "seed", "trace", "digest", "floor_misses", "result"}, where
result is the last line the benchmark printed and the two before it are
read from the lines above it.

Report one set (medians, quartiles, spread against the bound):

    python3 bench/compare.py report results/parent.jsonl

Compare two sets, pairing runs by workload and seed:

    python3 bench/compare.py report results/parent.jsonl results/change.jsonl

A change counts as a gain on a row only when it wins at least 9 in 10
pairs (ties count for neither) and the medians differ by more than the
parent's quartile distance. A row whose parent spread exceeds the bound
is "unresolved", unless every change run beats every parent run. On a
workload where a change run is not correct, or the change fails a larger
share of its items (`fail_frac`, summed over the shared seeds) than the
parent, or misses the sampled echo floor on a larger share
(`floor_miss_frac`), no row can be a gain or a pass: each reads
"REFUSED". Shares, not counts, because a faster side makes more passes
over the same items.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _run_one(root: Path, workload: str, seed: int, seconds: int, trace: int):
    """(result line, body digest, floor misses) of one benchmark run in `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = done.stdout.strip().splitlines()
    digest = next((ln.split()[3] for ln in lines if ln.startswith("body digest sha256 ")), None)
    misses = next((int(ln.split()[2].strip("(").split("/")[0])
                   for ln in lines if ln.startswith("floor_miss_frac ")), 0)
    return json.loads(lines[-1]), digest, misses


def cmd_run(args) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    seconds = args.seconds or spec["run_seconds"]
    sides = [s.split("=", 1) for s in args.side]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {name: open(out / f"{name}.jsonl", "a", encoding="ascii") for name, _ in sides}
    try:
        for k, seed in enumerate(_seeds(args.seeds)):
            order = sides if k % 2 == 0 else sides[::-1]
            for workload in args.workloads.split(","):
                for name, root in order:
                    result, digest, misses = _run_one(Path(root), workload, seed, seconds,
                                                      args.trace)
                    line = {"workload": workload, "seed": seed, "trace": args.trace,
                            "digest": digest, "floor_misses": misses, "result": result}
                    files[name].write(json.dumps(line) + "\n")
                    files[name].flush()
                    print(f"{name} {workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']} "
                          f"floor_misses={misses}")
    finally:
        for fh in files.values():
            fh.close()
    return 0


def _load(path) -> tuple[dict, dict, dict]:
    """({(workload, metric): {seed: value}}, {(workload, seed): digest},
    {(workload, seed): (correct, failed, attempted, floor misses)})."""
    table: dict = {}
    digests: dict = {}
    outcomes: dict = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = json.loads(raw)
            result = line["result"]
            key = (line["workload"], line["seed"])
            digests[key] = line.get("digest")
            outcomes[key] = (result["correct"], result["failed"], result["attempted"],
                             line.get("floor_misses", 0))
            for metric, entry in result["metrics"].items():
                table.setdefault((line["workload"], metric), {})[line["seed"]] = entry["value"]
    return table, digests, outcomes


def _tally(outcomes: dict, workload: str, seeds) -> tuple[int, int, int, float, float]:
    """(runs not correct, items failed, items attempted, summed fail_frac,
    summed floor_miss_frac) over `seeds`."""
    rows = [outcomes[(workload, s)] for s in seeds]
    return (sum(not c for c, _, _, _ in rows), sum(f for _, f, _, _ in rows),
            sum(a for _, _, a, _ in rows), sum(f / a for _, f, a, _ in rows),
            sum(m / a for _, _, a, m in rows))


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _rules() -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return rules


def report_one(path) -> int:
    rules = _rules()
    print(f"{'workload':8s} {'metric':28s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    worst = 0
    table, _, outcomes = _load(path)
    for (workload, metric), by_seed in sorted(table.items()):
        values = list(by_seed.values())
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = rules.get(metric, (None, None))[1]
        verdict = ""
        if bound is not None and metric != "setup_s":
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            worst = max(worst, spread > bound)
        print(f"{workload:8s} {metric:28s} {len(values):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} {'' if bound is None else bound:>6}  {verdict}")
    for workload in sorted({w for w, _ in outcomes}):
        wrong, failed, attempted, _, _ = _tally(outcomes, workload,
                                                [s for w, s in outcomes if w == workload])
        print(f"{workload}: {wrong} runs not correct, {failed}/{attempted} items failed")
        worst = max(worst, wrong > 0)
    return 1 if worst else 0


def _verdict(parent, change, better, bound, wins, pairs) -> str:
    p_q1, p_med, p_q3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * pairs and worse < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    if bound is None:
        return "no bound"
    if spread > bound:
        return "better (every run)" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "within bound"


def report_two(parent_path, change_path) -> int:
    rules = _rules()
    (parent, p_digest, p_out), (change, c_digest, c_out) = (_load(parent_path),
                                                            _load(change_path))
    refused = {}
    for workload in sorted({w for w, _ in set(p_out) & set(c_out)}):
        seeds = sorted(s for w, s in set(p_out) & set(c_out) if w == workload)
        p_wrong, p_failed, p_tried, p_frac, p_miss = _tally(p_out, workload, seeds)
        c_wrong, c_failed, c_tried, c_frac, c_miss = _tally(c_out, workload, seeds)
        print(f"{workload}: parent {p_wrong} runs not correct, {p_failed}/{p_tried} items "
              f"failed; change {c_wrong} runs not correct, {c_failed}/{c_tried} items failed")
        if c_wrong:
            refused[workload] = "REFUSED (change not correct)"
        elif c_frac > p_frac + 1e-12:
            refused[workload] = "REFUSED (change fails more items)"
        elif c_miss > p_miss + 1e-12:
            refused[workload] = "REFUSED (change misses more sampled floors)"
    print(f"{'workload':8s} {'metric':28s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'delta':>8s} {'won':>7s}  verdict")
    bad = 0
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        better, bound = rules.get(metric, ("lower", None))
        p, c = parent[key], change[key]
        seeds = sorted(set(p) & set(c))
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c[s] - p[s]) < 0 for s in seeds)
        pv, cv = list(p.values()), list(c.values())
        pq, cq = _quartiles(pv), _quartiles(cv)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        verdict = refused.get(workload) or _verdict(pv, cv, better, bound, wins, len(seeds))
        bad += verdict == "REGRESSION" or verdict.startswith("REFUSED")
        print(f"{workload:8s} {metric:28s} "
              f"{pq[1]:12.6g} [{pq[0]:10.6g}, {pq[2]:10.6g}] "
              f"{cq[1]:12.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}] "
              f"{delta:+8.3f} {wins:3d}/{len(seeds):<3d}  {verdict}")
    for workload in sorted({w for w, _ in set(p_digest) & set(c_digest)}):
        seeds = sorted(s for w, s in set(p_digest) & set(c_digest) if w == workload)
        same = sum(p_digest[(workload, s)] == c_digest[(workload, s)] is not None
                   for s in seeds)
        print(f"{workload}: body digests identical on {same}/{len(seeds)} seeds")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="collect result sets, alternating sides")
    run.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    run.add_argument("--workloads", default="echo,views,wide")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="summarise one result set or compare two")
    rep.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if len(args.files) == 1:
        return report_one(args.files[0])
    if len(args.files) == 2:
        return report_two(*args.files)
    ap.error("report takes one or two result files")
    return 2


if __name__ == "__main__":
    sys.exit(main())
