"""Benchmark of the qnokey lab: one command per workload and seed.

    python3 bench/run.py --workload echo --seed 1 --seconds 36 --trace 0

A single client runs the workload's item list in a closed loop: each
item is one `run_experiment` report, serialised with `to_json()` as the
CLI would, and the next item starts when it returns. Whole passes over
the list repeat until `--seconds` have passed. The first pass always
runs whole; a later one stops at the first item due after the time is
up, so an item's latency is its median over two or more timings.

The timed metrics are scaled to a reference host speed: between items
the run times a fixed calibration kernel (`hostspeed.py`), and each
pass's timings are multiplied by the reference kernel time over the
kernel's time in that pass. The raw figures are printed too.

With `--trace 0` the end-to-end metrics are printed (timed with tracing
off). With `--trace 1` the run makes one untraced pass, then one pass
with the span recorder installed, and prints the per-layer metrics, the
traffic census and the tracing overhead. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.

The package is imported from `src/` next to this directory; without it
the command exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the lab's kernels are elementwise numpy, and on a
# two-core machine a second BLAS thread mostly adds timing noise. Set
# before numpy is first imported; child set-up probes inherit it.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5  # this process plus four fresh child processes
SETUP_SPEED_SAMPLES = 40  # calibration samples around each set-up
OUT_DIR = BENCH_DIR / "out"


def _import_package():
    src = ROOT / "src"
    if not (src / "qnokey" / "__init__.py").is_file():
        sys.exit(f"bench: no qnokey package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qnokey

    if Path(qnokey.__file__).resolve().parent != (src / "qnokey").resolve():
        sys.exit(f"bench: imported qnokey from {qnokey.__file__}, not from {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("echo", "views", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must be in (0, 600]")
    return args


def set_up(workload: str, seed: int):
    """Import the lab, build the item list and run the warm-up item.

    Returns (items, warm-up body bytes, seconds since this script began).
    """
    _import_package()
    import workloads
    from qnokey import harness

    item_list = workloads.items(workload, seed)
    warm = harness.run_experiment(item_list[0])
    warm.to_json()
    return item_list, warm.body_bytes(), time.perf_counter() - _T0


class Pass:
    """Outcome of one pass over the item list."""

    def __init__(self):
        self.speed: list[tuple[float, float]] = []  # kernel samples between items
        self.latencies: list[float] = []
        self.digest = hashlib.sha256()
        self.first_body: bytes | None = None
        self.failed = 0
        self.floor_misses = 0
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def complete(self, items: int) -> bool:
        return len(self.latencies) == items


def run_pass(workload: str, item_list, recorder=None, speed=None,
             deadline=float("inf")) -> Pass:
    """Run the items in order until `deadline`; time each item, then check
    its output.

    Only `run_experiment` plus `to_json` is timed, so the benchmark's own
    checks never count toward a latency or the pass wall time. With a
    `HostSpeed`, the calibration kernel is sampled before every item.
    """
    import workloads
    from qnokey import harness

    out = Pass()
    echo_pool: dict[int, tuple[int, int]] = {}
    for i, config in enumerate(item_list):
        if time.perf_counter() >= deadline:
            break
        if speed is not None:
            out.speed.append(speed.sample())
        if recorder is not None:
            recorder.current_item = i
        t0 = time.perf_counter()
        try:
            report = harness.run_experiment(config)
            report.to_json()
        except Exception:  # an item that raises is a failed item; keep going
            out.latencies.append(time.perf_counter() - t0)
            out.failed += 1
            out.problems.append(f"item {i} raised:\n{traceback.format_exc()}")
            continue
        out.latencies.append(time.perf_counter() - t0)
        body = report.body_bytes()
        out.digest.update(body)
        if i == 0:
            out.first_body = body
        problems = [f"item {i}: {msg}"
                    for msg in workloads.check_body(workload, config, report.body)]
        exact = workloads.exact_failures(report.body)
        if exact:
            problems.append(f"item {i} failed exact assertions {exact}")
        if workload == "echo":
            det = report.body["results"]["detection"]
            k, trials = echo_pool.get(config.n, (0, 0))
            echo_pool[config.n] = (k + det["rejections"], trials + det["trials"])
        if problems:
            out.failed += 1
            out.problems += problems
        elif not report.passed:
            # Only a sampled statistic missed, by a margin a correct
            # program gives now and then: a right answer, counted apart.
            out.floor_misses += 1
            detail = "; ".join(a["detail"] for a in report.body["assertions"] if not a["passed"])
            print(f"item {i} below its sampled floor ({config.protocol} n={config.n} "
                  f"l={config.l} seed={config.seed}): {detail}")
    out.problems += workloads.check_echo_pool(echo_pool)
    return out


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _scaled_setups(args, first_s: float) -> tuple[list[float], list[float]]:
    """(raw, scaled) set-up times: this process's and fresh children's.

    Each is scaled by kernel samples taken right before and after it; the
    first, which ran before any sample could, by samples right after it.
    """
    import hostspeed

    speed = hostspeed.HostSpeed()
    after = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    raw, scaled = [first_s], [first_s * hostspeed.scale(after)]
    for _ in range(SETUP_SAMPLES - 1):
        before = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES // 2)]
        raw.append(_child_setup_s(args))
        after = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES // 2)]
        scaled.append(raw[-1] * hostspeed.scale(before + after))
    return raw, scaled


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    item_list, warm_body, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes: list[Pass] = []
    metrics: dict = {}
    lines = [f"workload {args.workload} seed {args.seed}: {len(item_list)} items, "
             f"closed loop, 1 client, BLAS threads {BLAS_THREADS}"]
    restored = True
    if args.trace:
        import spans

        passes.append(run_pass(args.workload, item_list))
        rec = spans.SpanRecorder()
        installed = spans.install(rec)
        try:
            passes.append(run_pass(args.workload, item_list, recorder=rec))
        finally:
            installed.restore()
        restored = installed.restored()
        layer, census = spans.layer_metrics(rec, passes[1].wall, passes[0].wall)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
        rec.save(spans_file)
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} {value:.6g} {unit}")
        lines += census
        lines.append(f"spans {len(rec)} written to {spans_file.relative_to(ROOT)}; "
                     f"wrappers restored: {restored}")
    else:
        import hostspeed

        raw_setups, setups = _scaled_setups(args, setup_s)
        speed = hostspeed.HostSpeed()
        deadline = time.perf_counter() + args.seconds
        passes.append(run_pass(args.workload, item_list, speed=speed))
        while time.perf_counter() < deadline:
            passes.append(run_pass(args.workload, item_list, speed=speed, deadline=deadline))
        # An item's latency is its median over the passes, which drops the
        # timings that a burst of machine noise slowed. The list's wall
        # time is the sum of those medians: the time to finish the list
        # with every item at its median.
        scales = [hostspeed.scale(p.speed) for p in passes]
        item_ms = [statistics.median(p.latencies[i] * f for p, f in zip(passes, scales)
                                     if i < len(p.latencies)) * 1e3
                   for i in range(len(item_list))]
        raw_ms = [statistics.median(p.latencies[i] for p in passes if i < len(p.latencies))
                  * 1e3 for i in range(len(item_list))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {
            "setup_s": (statistics.median(setups), "s",
                        f"{len(setups)} set-ups; raw median "
                        f"{statistics.median(raw_setups):.4f} s"),
            "wall_s": (sum(item_ms) / 1e3, "s",
                       f"{len(item_ms)} item medians over {len(passes)} passes, "
                       f"the last of {len(passes[-1].latencies)} items; "
                       f"raw {sum(raw_ms) / 1e3:.4f} s"),
            "item_p50_ms": (statistics.median(item_ms), "ms",
                            f"{len(item_ms)} items; raw {statistics.median(raw_ms):.4f} ms"),
            "item_p90_ms": (statistics.quantiles(item_ms, n=10)[8], "ms",
                            f"{len(item_ms)} items; raw "
                            f"{statistics.quantiles(raw_ms, n=10)[8]:.4f} ms"),
            "peak_rss_mb": (rss_mb, "MB", "1 process"),
        }
        for name, (value, unit, count) in samples.items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} {value:.6g} {unit} (n={count})")
        lines.append("host speed scale per pass (reference kernel time over the "
                     "kernel's time, one sample per item): "
                     + ", ".join(f"{f:.3f}" for f in scales))
        lines.append("raw pass walls s: " + ", ".join(f"{p.wall:.3f}" for p in passes))

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest.hexdigest() for p in passes if p.complete(len(item_list))}
    problems = [msg for p in passes for msg in p.problems]
    if any(p.first_body != warm_body for p in passes):
        problems.append("warm-up item's body differs from the same item in a pass")
    if len(digests) != 1:
        problems.append(f"passes produced different body digests: {sorted(digests)}")
    if not restored:
        problems.append("a traced binding was not restored to its original")
    correct = not problems
    misses = sum(p.floor_misses for p in passes)
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} items "
                 f"raised or gave a wrong output)")
    lines.append(f"floor_miss_frac {misses / attempted:.6g} ({misses}/{attempted} items "
                 f"reported passed=false on a sampled statistic only)")
    lines.append(f"body digest sha256 {sorted(digests)[0]} over {len(item_list)} items")
    lines.append(f"correct {str(correct).lower()}")
    for msg in problems:
        print(msg, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
