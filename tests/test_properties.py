"""Property tests over random sessions of every protocol.

Each example draws a protocol, small widths and a seed, runs one honest
session and checks what must hold for any parameters: the message is
decoded with no rejecting verdict, the rounds are numbered 1..R, no
register is discarded while entangled, the widest state built is
exactly `peak_live_width`, and replaying the session from
`sample_draws` reproduces its draws and every measurement outcome.
The settings are fixed so the examples, and the suite's run time,
repeat from run to run.
"""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from qnokey import protocols as proto
from qnokey.oracles import make_rng
from qnokey.qstate import CompositeState, EntangledRegisterError

SESSIONS = st.tuples(
    st.sampled_from(proto.PROTOCOL_IDS),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)


@contextmanager
def _extend_widths():
    """Record the total width of every state `CompositeState.extend` returns."""
    widths, extend = [], CompositeState.extend

    def spy(self, *args, **kw):
        grown = extend(self, *args, **kw)
        widths.append(grown.total_width)
        return grown

    CompositeState.extend = spy
    try:
        yield widths
    finally:
        CompositeState.extend = extend


def _session(protocol, x, n, l, t, keys, **kw):
    try:
        return proto.run_session(protocol, x, n, l, t, keys, snapshots=False, **kw)
    except EntangledRegisterError as exc:
        raise AssertionError(f"{protocol} n={n} l={l} t={t}: {exc}") from exc


@settings(derandomize=True, max_examples=80, deadline=None)
@given(SESSIONS, st.data())
def test_honest_session_properties(session, data):
    protocol, n, l, t, seed = session
    if protocol == "p1":
        l = t = 0
    elif protocol != "p6":
        t = 0
    x = data.draw(st.integers(0, (1 << n) - 1), label="x")
    keys = None if protocol == "p1" else \
        proto.sample_shared_keys(protocol, n, l, t, make_rng((seed, 0)))

    with _extend_widths() as widths:
        tr = _session(protocol, x, n, l, t, keys, rng=make_rng((seed, 1)))
    # Only extend grows a state, so its widest result is the session's peak.
    assert max(widths) == proto.peak_live_width(protocol, n, l, t)[0], widths
    assert tr.recovered == x
    assert False not in (tr.alice_accepts, tr.bob_accepts, tr.mac_accepts)
    assert [tx.round_index for tx in tr.transmissions] == \
        list(range(1, proto.ROUND_COUNTS[protocol] + 1))

    draws = proto.sample_draws(protocol, n, l, t, make_rng((seed, 1)))
    replay = _session(protocol, x, n, l, t, keys, rng=make_rng((seed, 1)), draws=draws)
    assert tr.draws == draws
    assert [m.outcome for m in replay.measurements] == \
        [m.outcome for m in tr.measurements]
