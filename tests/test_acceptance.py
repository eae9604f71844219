"""Acceptance suite: eleven numbered criteria, one verdict line each.

Each criterion prints "[acceptance] C<k> <name>: PASS" (run pytest with
-s to see the lines) and fails loudly otherwise. Statistical criteria
use fixed seeds, so every value here is reproducible bit for bit;
sampled rates additionally carry frozen regression constants.
"""

import itertools
import time

import numpy as np
from dataclasses import replace

from qnokey.adversary import (
    PhaseAttack,
    echo_detection_experiment,
    mim_full_impersonation,
)
from qnokey.auth import MacKey, forgery_fraction, mac_tag, mac_verify
from qnokey.harness import (
    ExperimentConfig,
    canonical_json,
    run_experiment,
    shipped_experiments,
)
from qnokey.oracles import make_rng
from qnokey.protocols import (
    ROUND_COUNTS,
    eve_average_view,
    noninteractive_view,
    run_protocol1,
    run_protocol2,
    run_protocol4,
    run_protocol6,
    run_session,
    sample_shared_keys,
)
from qnokey.qstate import (
    CompositeState,
    Register,
    init_basis_state,
    is_maximally_mixed,
    trace_distance,
)


def _verdict(num, name, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] C{num} {name}: {mark}{tail}")
    assert passed, f"C{num} {name}: {detail}"


# -- independent oracles, kept naive on purpose --------------------------------


def _brute_partial_trace(amps, widths, keep):
    total = sum(widths)
    shifts = []
    off = total
    for w in widths:
        off -= w
        shifts.append(off)
    keep_dim = 1 << sum(widths[i] for i in keep)
    trace_pos = [i for i in range(len(widths)) if i not in keep]

    def project(idx, positions):
        out = 0
        for i in positions:
            out = (out << widths[i]) | ((idx >> shifts[i]) & ((1 << widths[i]) - 1))
        return out

    rho = np.zeros((keep_dim, keep_dim), dtype=np.complex128)
    dim = 1 << total
    for i in range(dim):
        for j in range(dim):
            if project(i, trace_pos) == project(j, trace_pos):
                rho[project(i, keep), project(j, keep)] += amps[i] * np.conj(amps[j])
    return rho


def _brute_trace_distance(a, b):
    # Nuclear norm: an SVD path, independent of the eigvalsh that trace_distance uses.
    return 0.5 * float(np.linalg.norm(a - b, "nuc"))


def test_c01_honest_correctness_full_grid():
    # Every protocol, every message, n <= 3, l <= 2, t <= 3, 20 seeds.
    started = time.perf_counter()
    grids = {
        "p1": [(n, 0, 0) for n in (1, 2, 3)],
        "p2": [(n, l, 0) for n in (1, 2, 3) for l in (1, 2)],
        "p3": [(n, l, 0) for n in (1, 2, 3) for l in (1, 2)],
        "p4": [(n, l, 0) for n in (1, 2, 3) for l in (1, 2)],
        "p5": [(n, l, 0) for n in (1, 2, 3) for l in (1, 2)],
        "p6": [(n, l, t) for n in (1, 2, 3) for l in (1, 2) for t in (1, 2, 3)],
    }
    runs = 0
    for protocol, combos in grids.items():
        for (n, l, t) in combos:
            for seed in range(20):
                rng = make_rng((ord(protocol[1]), n, l, t, seed))
                keys = None if protocol == "p1" else \
                    sample_shared_keys(protocol, n, l, t, rng.spawn(1)[0])
                for x in range(1 << n):
                    tr = run_session(protocol, x, n, l, t, keys, rng=rng, snapshots=False)
                    assert tr.recovered == x, (protocol, n, l, t, seed, x)
                    for v in (tr.alice_accepts, tr.bob_accepts, tr.mac_accepts):
                        assert v is not False, (protocol, n, l, t, seed, x)
                    runs += 1
    elapsed = time.perf_counter() - started
    _verdict(1, "honest correctness across the protocol grid",
             elapsed < 30.0, f"{runs} runs, all exact, {elapsed:.1f}s < 30s")


def test_c02_untagged_channel_is_maximally_mixed():
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(50):
            rng = make_rng((2, n, k))
            x = int(rng.integers(0, 1 << n))
            tr = run_protocol1(x, n, rng=rng)
            for r in (1, 2, 3):
                _, dev = is_maximally_mixed(tr.snapshot(r))
                worst = max(worst, dev)
    _verdict(2, "per-run untagged snapshots maximally mixed",
             worst < 1e-10, f"max deviation {worst:.3e} < 1e-10")


def test_c03_keyed_pad_averages_are_maximally_mixed():
    n, l = 2, 2
    worst = 0.0
    for k in range(20):
        rng = make_rng((3, k))
        keys2 = sample_shared_keys("p2", n, l, 0, rng.spawn(1)[0])
        tr2 = run_protocol2(k % 4, n, l, keys2, rng=rng)
        for view in eve_average_view(tr2, keys=keys2):
            _, dev = is_maximally_mixed(view.rho)
            worst = max(worst, dev)
        keys4 = sample_shared_keys("p4", n, l, 0, rng.spawn(1)[0])
        tr4 = run_protocol4(k % 4, n, l, keys4, rng=rng)
        for view in eve_average_view(tr4, keys=keys4):
            _, dev = is_maximally_mixed(view.rho)
            worst = max(worst, dev)
    _verdict(3, "pad-averaged keyed views maximally mixed over 20 key draws",
             worst < 1e-9, f"max deviation {worst:.3e} < 1e-9")


def test_c04_views_independent_of_message_and_key():
    n, l = 2, 2
    worst_msg = 0.0
    for protocol in ("p2", "p4"):
        # The session grid compares each pair of messages' pad-averaged
        # views, round by round, on one key and draw record.
        report = run_experiment(ExperimentConfig(protocol, n=n, l=l, seed=4, attack="passive",
                                                 average="pads"))
        rows = report.body["results"]["distance_tables"]["across_messages"]
        assert len(rows) == 6 * ROUND_COUNTS[protocol]
        worst_msg = max(worst_msg, max(row["distance"] for row in rows))
    # Across key draws: same message, independent tag functions.
    views = []
    for k in range(5):
        keys = sample_shared_keys("p2", n, l, 0, make_rng((4, 2, k)))
        tr = run_protocol2(1, n, l, keys, rng=make_rng((4, 3)))
        views.append([view.rho for view in eve_average_view(tr, keys=keys)])
    worst_key = 0.0
    for a, b in itertools.combinations(views, 2):
        for r in range(3):
            worst_key = max(worst_key, trace_distance(a[r], b[r]))
    ok = worst_msg < 1e-9 and worst_key < 1e-9
    _verdict(4, "pad-averaged views independent of message and key",
             ok, f"max across messages {worst_msg:.3e}, across keys {worst_key:.3e}")


def test_c05_phase_attack_shifts_decode_exactly():
    n = 3
    ok = True
    for x in range(1 << n):
        for mask in range(1 << n):
            tr = run_protocol1(x, n, rng=make_rng((5, x, mask)),
                               attack=PhaseAttack(mask), snapshots=False)
            ok = ok and tr.recovered == x ^ mask
    _verdict(5, "in-transit phase flips shift the decoded message",
             ok, "all 64 (x, mask) pairs at n=3 decode to x^mask")


def test_c06_untagged_session_split_is_deterministic():
    n = 2
    ok = True
    for x in range(1 << n):
        for x_eve in range(1 << n):
            toward_eve, toward_bob = mim_full_impersonation(x, x_eve, n,
                                                            rng=make_rng((6, x, x_eve)))
            ok = ok and toward_eve.recovered == x and toward_bob.recovered == x_eve
    _verdict(6, "session-splitting adversary reads and rewrites at will",
             ok, "all 16 (x, x_eve) pairs at n=2, deterministic")


# Frozen regression constants: rejection counts at seed 777, n=3, l=2,
# 2000 trials. Uniform-guess floor 0.875, sigma 0.0074.
ECHO_REJECTIONS = {"p3": 1761, "p5": 1739}
# Rejection count of the shipped p3 hijack experiment (n=2, l=1, seed 15,
# 5,500 trials), which C11 runs; uniform-guess floor 0.75.
SHIPPED_ECHO_REJECTIONS = 4155


def test_c07_echo_stage_detects_impersonation():
    started = time.perf_counter()
    n, l, trials = 3, 2, 2000
    floor = 1 - 2.0 ** (-n)
    sigma = (floor * (1 - floor) / trials) ** 0.5
    details = []
    ok = True
    for protocol in ("p3", "p5"):
        rejections = echo_detection_experiment(protocol, n, l, trials, rng=777)
        ok = ok and rejections / trials >= floor - 3 * sigma
        ok = ok and rejections == ECHO_REJECTIONS[protocol]
        details.append(f"{protocol} rate {rejections / trials:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    _verdict(7, "echo stages reject the hijack at the guessing floor",
             ok, f"{', '.join(details)} >= {floor - 3 * sigma:.4f}, "
                 f"frozen counts matched, {elapsed:.1f}s < 5min")


def test_c08_authentication_catches_message_flips():
    n, l, t = 2, 2, 3
    base = sample_shared_keys("p6", n, l, t, make_rng((8, 0)))
    bound = 1 - 2.0 ** (1 - t)
    ok = True
    worst_fraction = 1.0
    for x in range(1 << n):
        rejections = 0
        for a in range(1 << t):
            for b in range(1 << t):
                keys = replace(base, mac_key=MacKey(t, a, b))
                tr = run_protocol6(x, n, l, t, keys, rng=make_rng((8, 1)),
                                   attack=PhaseAttack(1 << t, frozenset({2})),
                                   snapshots=False)
                rejections += not tr.mac_accepts
        fraction = rejections / (1 << (2 * t))
        worst_fraction = min(worst_fraction, fraction)
        ok = ok and fraction >= bound

    # Exhaustive authenticator correctness and forgery bounds, t <= 4.
    for width in range(1, 5):
        for a in range(1 << width):
            for b in range(1 << width):
                key = MacKey(width, a, b)
                for m in range(1 << width):
                    assert mac_verify(key, m, width, mac_tag(key, m, width))
    worst_forgery = 0.0
    for width in range(1, 5):
        for m in range(1 << width):
            for f in range(1 << width):
                if m == f:
                    continue
                for d in range(1 << width):
                    worst_forgery = max(
                        worst_forgery,
                        forgery_fraction(width, m, f, d, width) * 2.0 ** (width - 1),
                    )
    ok = ok and worst_forgery <= 1.0
    _verdict(8, "one-time authentication rejects tampering",
             ok, f"worst key fraction {worst_fraction:.4f} >= {bound}, "
                 f"forgery within bound (worst ratio {worst_forgery:.3f})")


# Frozen regression constants: exact pairwise distances of the one-shot
# broadcast views at n=2, l=1, full enumeration (16 tag functions x 2
# pads). No security claim attaches to these numbers.
BROADCAST_DISTANCES = {
    (0, 1): 0.5, (0, 2): 0.5, (0, 3): 0.5,
    (1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5,
}


def test_c09_one_shot_broadcast_regression_values():
    n, l = 2, 1
    views = {x: noninteractive_view(x, n, l) for x in range(1 << n)}
    worst = 0.0
    for (x, y), want in BROADCAST_DISTANCES.items():
        got = trace_distance(views[x], views[y])
        worst = max(worst, abs(got - want))
    diag_dev = max(
        float(np.max(np.abs(views[x].diagonal() - 1 / 8))) for x in views
    )
    ok = worst <= 1e-12 and diag_dev <= 1e-12
    _verdict(9, "one-shot broadcast distances match frozen regression values",
             ok, f"max drift from 0.5 is {worst:.2e}, diagonals exactly 1/8")


def test_c10_reductions_match_brute_force():
    rng = make_rng(10)
    worst_rdm = 0.0
    worst_dist = 0.0
    checked = 0
    while checked < 200:
        total = int(rng.integers(2, 7))
        cut = int(rng.integers(1, total))
        layout = [("R1", cut), ("R2", total - cut)]
        regs = [Register(name, w, "alice") for name, w in layout]
        base = init_basis_state(regs, None, qubit_cap=22)

        def sample_state():
            amps = rng.normal(size=base.dim) + 1j * rng.normal(size=base.dim)
            amps /= np.linalg.norm(amps)
            return CompositeState(base.registers, amps.astype(np.complex128), 22)

        state = sample_state()
        keep = [0] if rng.random() < 0.5 else [1]
        names = [layout[i][0] for i in keep]
        got = state.reduced_density_matrix(names)
        want = _brute_partial_trace(state.amplitudes, [cut, total - cut], keep)
        worst_rdm = max(worst_rdm, float(np.max(np.abs(got - want))))

        other = sample_state()
        rho_a = state.reduced_density_matrix(names)
        rho_b = other.reduced_density_matrix(names)
        got_d = trace_distance(rho_a, rho_b)
        want_d = _brute_trace_distance(rho_a, rho_b)
        worst_dist = max(worst_dist, abs(got_d - want_d))
        checked += 1
    ok = worst_rdm <= 1e-12 and worst_dist <= 1e-12
    _verdict(10, "reductions and distances match brute force on 200 states",
             ok, f"max reduction error {worst_rdm:.2e}, "
                 f"max distance error {worst_dist:.2e}")


def test_c11_shipped_experiments_reproduce_bytewise(tmp_path):
    ok = True
    count = 0
    for config in shipped_experiments():
        first = run_experiment(config)
        path = tmp_path / f"{config.protocol}_{config.seed}.json"
        first.write(path)
        from qnokey.harness import ExperimentReport

        stored = ExperimentReport.read(path)
        again = run_experiment(ExperimentConfig.from_dict(stored.body["config"]))
        ok = ok and first.passed and again.body_bytes() == canonical_json(stored.body)
        detection = stored.body["results"].get("detection")
        if detection is not None:
            lo, hi = detection["ci999"]
            ok = ok and (hi - lo) / 2 <= 0.02
            ok = ok and detection["rejections"] == SHIPPED_ECHO_REJECTIONS
        count += 1
    _verdict(11, "shipped experiments reproduce byte-identically",
             ok, f"{count} experiments re-run from their stored configs, "
                 f"frozen echo count matched")
