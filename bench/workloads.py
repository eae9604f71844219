"""Seeded item lists for the benchmark workloads, and output checks.

Each workload is a fixed mix of experiment classes with a fixed number
of items per class. The seed chooses every item's experiment seed (and,
on `wide`, its message) and the order of the list, so the amount of
work is the same for every seed while the reports differ. The program
under test sees only the generated `ExperimentConfig`s.

Why each workload exists, and which layer it loads, is recorded in
WORKLOADS.md next to this file.
"""

from __future__ import annotations

import base64
import math
import random

import numpy as np

from qnokey.harness import ExperimentConfig

# The classes of each mix are listed cheapest first with an item count
# each. Counts are set so the median item and the 90th-percentile item
# fall inside a block of similar cost, not on the gap between two
# blocks, where small speed changes would make the percentile jump.

# ((protocol, n, l), count) on the stage-two hijack experiment, snapshots
# off. The counts follow the trials the acceptance suite runs on each
# class: C11 runs the shipped p3 n=2 l=1 experiment (5,500 trials) twice,
# and C7 runs p3 and p5 at n=3 l=2 with 2,000 trials each, so the shares
# are 11,000 : 2,000 : 2,000. The two p3 classes cost about the same
# (about 25 ms at 10 trials) and hold both the median and the 90th
# percentile; p5 sits below them. Ten trials an item keep a pass near
# 3 s, so a run makes about ten passes and each item's median latency
# rests on about ten timings.
ECHO_CLASSES = [(("p5", 3, 2), 14), (("p3", 3, 2), 14), (("p3", 2, 1), 76)]
ECHO_TRIALS = 10

# (protocol, n, l, t, average): keyed certification reports with matrices,
# all messages. Item costs stay within 5x of each other (30-140 ms); the
# median falls in the continuous 60-85 ms run of classes and the 90th
# percentile inside the p3/p5 block at the top.
VIEWS_CLASSES = [
    ("two-round", 1, 1, 0, "pads+keys"),
    ("p2", 2, 1, 0, "pads"),
    ("p4", 1, 1, 0, "pads+keys"),
    ("p2", 1, 1, 0, "pads+keys"),
    ("p6", 2, 1, 1, "pads"),
    ("p2", 2, 2, 0, "pads"),
    ("p4", 3, 2, 0, "pads"),
    ("two-round", 3, 2, 0, "pads"),
    ("nonint", 2, 1, 0, "pads+keys"),
    ("nonint", 3, 1, 0, "pads"),
    ("p3", 1, 1, 0, "pads"),
    ("p5", 2, 1, 0, "pads"),
]
VIEWS_PER_CLASS = 9

# ((protocol, n, l, t), count): honest single-message sessions at peak
# widths 17..21 with snapshots on and channel dimensions <= 2**11. p4 at
# n=9, l=4 is left out on purpose: its 2**13-dimensional snapshot is a
# 1 GiB matrix, which is cost-guard traffic, not a repeatable item.
WIDE_CLASSES = [
    (("p1", 6, 0, 0), 18),
    (("p2", 5, 3, 0), 12),
    (("p4", 8, 1, 0), 12),
    (("p2", 6, 1, 0), 12),   # these two (about 70 ms) hold the median
    (("p6", 6, 1, 2), 12),
    (("p3", 5, 3, 0), 12),
    (("p2", 6, 2, 0), 4),
    (("p4", 8, 2, 0), 4),
    (("p5", 8, 1, 0), 4),
    (("p1", 7, 0, 0), 12),   # this one alone (about 230 ms) holds the 90th percentile
    (("p4", 9, 1, 0), 4),
]

WORKLOADS = ("echo", "views", "wide")


def items(workload: str, seed: int) -> list[ExperimentConfig]:
    """The workload's item list for one seed, warm-up item first.

    Item 0 always belongs to the last, costliest class of the mix, so the
    warm-up costs the same for every seed and has already allocated the
    largest state arrays before timing starts. The rest is shuffled.
    """
    rng = random.Random(f"{workload}:{seed}")

    def draw_seed() -> int:
        return rng.randrange(1 << 32)

    if workload == "echo":
        made = [ExperimentConfig(p, n=n, l=l, seed=draw_seed(), trials=ECHO_TRIALS,
                                 attack="mim", snapshots=False)
                for (p, n, l), count in ECHO_CLASSES for _ in range(count)]
    elif workload == "views":
        made = [ExperimentConfig(p, n=n, l=l, t=t, seed=draw_seed(), average=avg,
                                 include_matrices=True)
                for p, n, l, t, avg in VIEWS_CLASSES for _ in range(VIEWS_PER_CLASS)]
    elif workload == "wide":
        made = [ExperimentConfig(p, n=n, l=l, t=t, seed=draw_seed(),
                                 messages=(rng.randrange(1 << n),))
                for (p, n, l, t), count in WIDE_CLASSES for _ in range(count)]
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rest = made[:-1]
    rng.shuffle(rest)
    return [made[-1]] + rest


# ---------------------------------------------------------------------------
# Output checks. They recompute what they can with code the package does
# not share (binomial sums term by term, a separate matrix decoder), so
# a report that is wrong but self-consistent still fails here. None of
# them imports anything the package does not, so the checks add nothing
# to `peak_rss_mb`.
# ---------------------------------------------------------------------------

# Assertions whose verdict is a sampled statistic. A miss is a right
# answer that a correct program gives now and then, so it is counted
# apart from failed items; `check_echo_pool` makes the run wrong when
# the pooled counts are all but impossible for a correct program.
STATISTICAL_ASSERTIONS = {"echo_detection_rate"}

# A correct program catches the hijack with probability 1 - 2**-n per
# trial. A pass whose rejections, pooled over its items of one n, have a
# lower or an upper binomial tail below this at that rate is wrong.
ECHO_TAIL_LIMIT = 1e-9


def exact_failures(body: dict) -> list[str]:
    """Names of failed assertions that certify exact claims."""
    return [a["name"] for a in body["assertions"]
            if not a["passed"] and a["name"] not in STATISTICAL_ASSERTIONS]


def check_body(workload: str, config: ExperimentConfig, body: dict) -> list[str]:
    """Problems with one report body; empty when it is right."""
    problems = []
    if body["config"] != config.to_dict():
        problems.append("report config differs from the submitted config")
    results = body["results"]
    if workload == "echo":
        problems += _check_echo(config, results["detection"])
    elif workload == "views":
        problems += _check_views(config, results)
    else:
        problems += _check_wide(config, results)
    return problems


def binomial_cdf(k: int, trials: int, p: float) -> float:
    """P[K <= k] for K ~ Binomial(trials, p), summed term by term in logs."""
    if k < 0:
        return 0.0
    if k >= trials or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    return min(1.0, sum(math.exp(math.lgamma(trials + 1) - math.lgamma(i + 1)
                                 - math.lgamma(trials - i + 1) + i * lp + (trials - i) * lq)
                        for i in range(k + 1)))


def clopper_pearson(k: int, trials: int, confidence: float = 0.999) -> tuple[float, float]:
    """Exact two-sided binomial interval, by bisection on `binomial_cdf`."""
    tail = (1.0 - confidence) / 2

    def root(f) -> float:  # f falls from positive to negative on [0, 1]
        lo, hi = 0.0, 1.0
        for _ in range(64):  # 2**-64 is below the 1e-9 the check allows
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return (lo + hi) / 2

    lo = 0.0 if k == 0 else root(lambda p: tail - (1.0 - binomial_cdf(k - 1, trials, p)))
    hi = 1.0 if k == trials else root(lambda p: binomial_cdf(k, trials, p) - tail)
    return lo, hi


def _check_echo(config: ExperimentConfig, det: dict) -> list[str]:
    problems = []
    k, trials = det["rejections"], det["trials"]
    if trials != config.trials or not 0 <= k <= trials:
        problems.append(f"detection counts {k}/{trials} for {config.trials} trials")
        return problems
    if det["rate"] != k / trials:
        problems.append(f"rate {det['rate']} is not {k}/{trials}")
    if det["uniform_guess_floor"] != 1.0 - 2.0 ** (-config.n):
        problems.append(f"floor {det['uniform_guess_floor']} for n={config.n}")
    lo, hi = clopper_pearson(k, trials)
    if not (math.isclose(det["ci999"][0], lo, abs_tol=1e-9)
            and math.isclose(det["ci999"][1], hi, abs_tol=1e-9)):
        problems.append(f"interval {det['ci999']} vs recomputed [{lo}, {hi}]")
    return problems


def check_echo_pool(pool: dict[int, tuple[int, int]]) -> list[str]:
    """Problems with a pass's echo counts, pooled as {n: (rejections, trials)}.

    Pooling makes the check strong although each report has few trials:
    a detector that never fires, or one that always fires, is refused.
    """
    problems = []
    for n, (k, trials) in sorted(pool.items()):
        p = 1.0 - 2.0 ** (-n)
        low = binomial_cdf(k, trials, p)
        high = binomial_cdf(trials - k, trials, 1.0 - p)  # P[K >= k]
        if min(low, high) < ECHO_TAIL_LIMIT:
            problems.append(f"n={n}: {k}/{trials} rejections pooled, P[K <= {k}] = "
                            f"{low:.3g}, P[K >= {k}] = {high:.3g} at the detection "
                            f"rate 1 - 2^-{n}")
    return problems


def _decode(payload: dict) -> np.ndarray:
    dim = payload["dim"]
    raw = np.frombuffer(base64.b64decode(payload["data"]), dtype="<f8")
    return raw.view("<c16").reshape(dim, dim)


def _check_views(config: ExperimentConfig, results: dict) -> list[str]:
    problems = []
    rounds = len(results["averaged_views"])
    messages = 1 << config.n
    for run in results["runs"]:
        if len(run["snapshots"]) != rounds:
            problems.append(f"run has {len(run['snapshots'])} snapshots, {rounds} rounds")
        for payload in run["snapshots"]:
            rho = _decode(payload)
            if abs(np.trace(rho) - 1.0) > 1e-9 or np.max(np.abs(rho - rho.conj().T)) > 1e-9:
                problems.append(f"snapshot of dim {payload['dim']} is not a density matrix")
    want_rows = config.trials * rounds * messages * (messages - 1) // 2
    got_rows = len(results["distance_tables"]["across_messages"])
    if got_rows != want_rows:
        problems.append(f"{got_rows} distance rows, expected {want_rows}")
    return problems


def _check_wide(config: ExperimentConfig, results: dict) -> list[str]:
    problems = []
    for run in results["runs"]:
        if run["recovered"] != run["message"]:
            problems.append(f"decoded {run['recovered']} for message {run['message']}")
    if len(results["runs"]) != config.trials * len(config.message_set()):
        problems.append(f"{len(results['runs'])} runs recorded")
    return problems
