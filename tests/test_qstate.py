"""State-vector core, checked against brute-force oracles.

Every nontrivial operation is compared with an independent
implementation kept deliberately naive: explicit loops for the partial
trace, numpy's eigvalsh for eigenvalues, dense kron products for the
Hadamard layer.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qnokey.qstate import (
    ATOL_DENSITY,
    ATOL_SCALAR,
    ATOL_STATE,
    CompositeState,
    EntangledRegisterError,
    Register,
    RegisterError,
    _weights,
    as_matrix,
    hermitian_eigenvalues,
    init_basis_state,
    is_maximally_mixed,
    trace_distance,
)

A = "alice"


def basis(layout, assignment=None, cap=22):
    regs = [Register(name, width, A) for name, width in layout]
    return init_basis_state(regs, assignment, qubit_cap=cap)


def random_state(rng, layout, cap=22):
    """Haar-ish random pure state over the given layout."""
    state = basis(layout, cap=cap)
    amps = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    amps = amps / np.linalg.norm(amps)
    return CompositeState(state.registers, amps.astype(np.complex128), cap)


# -- independent oracles ----------------------------------------------------


def brute_partial_trace(amps, widths, keep):
    """Partial trace by explicit index loops; keep = register positions."""
    total = sum(widths)
    shifts = []
    off = total
    for w in widths:
        off -= w
        shifts.append(off)
    keep_widths = [widths[i] for i in keep]
    keep_dim = 1 << sum(keep_widths)
    rho = np.zeros((keep_dim, keep_dim), dtype=np.complex128)
    trace_pos = [i for i in range(len(widths)) if i not in keep]

    def kept_value(idx):
        out = 0
        for i in keep:
            out = (out << widths[i]) | ((idx >> shifts[i]) & ((1 << widths[i]) - 1))
        return out

    def traced_value(idx):
        out = 0
        for i in trace_pos:
            out = (out << widths[i]) | ((idx >> shifts[i]) & ((1 << widths[i]) - 1))
        return out

    dim = 1 << total
    for i in range(dim):
        for j in range(dim):
            if traced_value(i) != traced_value(j):
                continue
            rho[kept_value(i), kept_value(j)] += amps[i] * np.conj(amps[j])
    return rho


def brute_trace_distance(a, b):
    # Nuclear norm: an SVD path, independent of the eigvalsh that trace_distance uses.
    return 0.5 * float(np.linalg.norm(a - b, "nuc"))


def dense_hadamard(width):
    h1 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    out = np.array([[1.0]], dtype=np.complex128)
    for _ in range(width):
        out = np.kron(out, h1)
    return out


# -- layout and construction -------------------------------------------------


def test_basis_state_places_first_register_most_significant():
    state = basis([("R1", 2), ("R2", 3)], {"R1": 0b10, "R2": 0b001})
    idx = (0b10 << 3) | 0b001
    expect = np.zeros(32, dtype=np.complex128)
    expect[idx] = 1.0
    assert np.array_equal(state.amplitudes, expect)


def test_layout_rejects_duplicate_names():
    with pytest.raises(RegisterError, match="duplicate"):
        basis([("R1", 1), ("R1", 2)])


def test_cap_rejection_spells_out_arithmetic():
    with pytest.raises(RegisterError, match=r"3\+4=7"):
        basis([("R1", 3), ("R2", 4)], cap=6)


def test_extend_rejects_past_cap_with_arithmetic():
    state = basis([("R1", 3)], cap=5)
    with pytest.raises(RegisterError, match=r"3\+3=6"):
        state.extend("R2", 3, A)


def test_extend_from_an_oracle_validates_its_arguments():
    state = basis([("R1", 2)])
    with pytest.raises(RegisterError, match="table has 3 entries"):
        state.extend("R2", 2, A, source="R1", table=[0, 1, 2])
    with pytest.raises(RegisterError, match="must fit in 2 bits"):
        state.extend("R2", 2, A, source="R1", table=[0, 1, 2, 4])
    with pytest.raises(RegisterError, match="value 4 does not fit in 2 bits"):
        state.extend("R2", 2, A, 4, source="R1", table=[0, 1, 2, 3])
    with pytest.raises(RegisterError, match="value 4 does not fit in 2 bits"):
        state.extend("R2", 2, A, 4)
    with pytest.raises(RegisterError, match="no register named 'R9'"):
        state.extend("R2", 2, A, source="R9", table=[0, 1, 2, 3])
    for kw in ({"source": "R1"}, {"table": [0, 1, 2, 3]}):
        with pytest.raises(RegisterError, match="a source register and a table, or neither"):
            state.extend("R2", 2, A, **kw)


def test_unknown_register_rejected():
    state = basis([("R1", 2)])
    with pytest.raises(RegisterError, match="R9"):
        state.apply_hadamard("R9")


def test_value_out_of_register_range_rejected():
    with pytest.raises(RegisterError):
        basis([("R1", 2)], {"R1": 4})


# -- Hadamard layer -----------------------------------------------------------


def test_hadamard_single_qubit_plus_state():
    state = basis([("R1", 1)]).apply_hadamard("R1")
    expect = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
    assert np.allclose(state.amplitudes, expect, atol=ATOL_STATE)


def test_hadamard_two_qubit_signs():
    # |11> picks up sign (-1)^(x.m) per basis value m.
    state = basis([("R1", 2)], {"R1": 0b11}).apply_hadamard("R1")
    expect = np.array([1, -1, -1, 1], dtype=np.complex128) / 2
    assert np.allclose(state.amplitudes, expect, atol=ATOL_STATE)


def test_hadamard_is_involution():
    rng = np.random.default_rng(5)
    state = random_state(rng, [("R1", 3), ("R2", 2)])
    back = state.apply_hadamard("R1").apply_hadamard("R1")
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_hadamard_matches_dense_matrix(width):
    rng = np.random.default_rng(width)
    state = random_state(rng, [("L", 2), ("R1", width), ("T", 1)])
    got = state.apply_hadamard("R1")
    mat = np.kron(np.kron(np.eye(4), dense_hadamard(width)), np.eye(2))
    expect = mat @ state.amplitudes
    assert np.allclose(got.amplitudes, expect, atol=1e-12)


# -- phase flip ---------------------------------------------------------------


def test_phase_flip_zero_mask_is_identity():
    rng = np.random.default_rng(7)
    state = random_state(rng, [("R1", 3)])
    assert state.apply_phase_flip("R1", 0) is state


def test_phase_flip_single_qubit_z():
    state = basis([("R1", 1)]).apply_hadamard("R1").apply_phase_flip("R1", 1)
    expect = np.array([1, -1], dtype=np.complex128) / math.sqrt(2)
    assert np.allclose(state.amplitudes, expect, atol=ATOL_STATE)


def test_phase_flip_then_hadamard_concentrates_on_mask():
    # H Z^x |uniform> = |x> for x = 10.
    state = basis([("R1", 2)]).apply_hadamard("R1")
    state = state.apply_phase_flip("R1", 0b10).apply_hadamard("R1")
    expect = np.zeros(4, dtype=np.complex128)
    expect[0b10] = 1.0
    assert np.allclose(state.amplitudes, expect, atol=ATOL_STATE)


def test_phase_flip_mask_too_wide_rejected():
    state = basis([("R1", 2)])
    with pytest.raises(RegisterError, match="mask"):
        state.apply_phase_flip("R1", 4)


def test_hadamard_phase_commutation_law():
    # H Z^x equals (XOR by x) H on every register width up to 4.
    for width in range(1, 5):
        rng = np.random.default_rng(100 + width)
        for x in range(1 << width):
            state = random_state(rng, [("P", 1), ("R1", width)])
            left = state.apply_phase_flip("R1", x).apply_hadamard("R1")
            sh = state.shift("R1")
            perm = np.arange(state.dim) ^ (x << sh)
            right = state.apply_hadamard("R1").amplitudes[perm]
            assert np.allclose(left.amplitudes, right, atol=1e-12)


# -- XOR oracle ---------------------------------------------------------------


def test_xor_oracle_copies_with_identity_table():
    for m in range(4):
        state = basis([("R1", 2), ("R2", 2)], {"R1": m})
        got = state.apply_xor_oracle("R1", "R2", [0, 1, 2, 3])
        expect = basis([("R1", 2), ("R2", 2)], {"R1": m, "R2": m})
        assert np.array_equal(got.amplitudes, expect.amplitudes)


def test_xor_oracle_table_lookup():
    table = [(m + 1) % 4 for m in range(4)]
    state = basis([("R1", 2), ("R2", 2)], {"R1": 2})
    got = state.apply_xor_oracle("R1", "R2", table)
    expect = basis([("R1", 2), ("R2", 2)], {"R1": 2, "R2": 3})
    assert np.array_equal(got.amplitudes, expect.amplitudes)


def test_xor_oracle_involution_is_bitwise_exact():
    rng = np.random.default_rng(11)
    state = random_state(rng, [("R1", 3), ("R2", 2)])
    table = [int(v) for v in rng.integers(0, 4, size=8)]
    twice = state.apply_xor_oracle("R1", "R2", table, pad=0b01)
    twice = twice.apply_xor_oracle("R1", "R2", table, pad=0b01)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_xor_oracle_pad_offsets_every_entry():
    state = basis([("R1", 2), ("R2", 2)], {"R1": 1})
    got = state.apply_xor_oracle("R1", "R2", [0, 1, 2, 3], pad=0b10)
    expect = basis([("R1", 2), ("R2", 2)], {"R1": 1, "R2": 1 ^ 0b10})
    assert np.array_equal(got.amplitudes, expect.amplitudes)


def test_xor_oracle_validates_table_and_pad():
    state = basis([("R1", 2), ("R2", 1)])
    with pytest.raises(RegisterError, match="entries"):
        state.apply_xor_oracle("R1", "R2", [0, 1, 0])
    with pytest.raises(RegisterError, match="fit"):
        state.apply_xor_oracle("R1", "R2", [0, 1, 2, 1])
    with pytest.raises(RegisterError, match="pad"):
        state.apply_xor_oracle("R1", "R2", [0, 1, 0, 1], pad=2)
    with pytest.raises(RegisterError, match="differ"):
        state.apply_xor_oracle("R1", "R1", [0, 1, 2, 3])


# -- measurement --------------------------------------------------------------


def test_measure_basis_register_is_deterministic():
    rng = np.random.default_rng(0)
    state = basis([("R1", 3), ("R2", 2)], {"R1": 5})
    for _ in range(20):
        outcome, collapsed = state.measure("R1", rng)
        assert outcome == 5
        assert np.array_equal(collapsed.amplitudes, state.amplitudes)


def test_measure_bell_half_frequencies():
    # One half of (|00> + |11>)/sqrt(2): 10,000 draws, 3 sigma band.
    rng = np.random.default_rng(202)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = amps[0b11] = 1 / math.sqrt(2)
    regs = (Register("R1", 1, A), Register("R2", 1, A))
    trials = 10_000
    ones = 0
    for _ in range(trials):
        state = CompositeState(regs, amps.copy())
        outcome, collapsed = state.measure("R1", rng)
        ones += outcome
        # collapse keeps the partner register consistent
        partner, _ = collapsed.measure("R2", rng)
        assert partner == outcome
    sigma = math.sqrt(0.25 / trials)
    assert abs(ones / trials - 0.5) <= 3 * sigma


def test_measure_is_reproducible_per_stream_position():
    amps = np.full(4, 0.5, dtype=np.complex128)
    regs = (Register("R1", 2, A),)
    out1, _ = CompositeState(regs, amps.copy()).measure("R1", np.random.default_rng(9))
    out2, _ = CompositeState(regs, amps.copy()).measure("R1", np.random.default_rng(9))
    assert out1 == out2


def test_measure_renormalises_collapsed_state():
    rng = np.random.default_rng(31)
    state = random_state(rng, [("R1", 2), ("R2", 3)])
    _, collapsed = state.measure("R2", rng)
    assert abs(collapsed.norm() - 1.0) <= 1e-12


# -- discard ------------------------------------------------------------------


def test_discard_after_uncompute_leaves_rest_unchanged():
    rng = np.random.default_rng(4)
    state = basis([("R1", 2), ("R2", 2)]).apply_hadamard("R1")
    table = [int(v) for v in rng.permutation(4)]
    worked = state.apply_xor_oracle("R1", "R2", table)
    undone = worked.apply_xor_oracle("R1", "R2", table)
    dropped = undone.discard("R2")
    expect = basis([("R1", 2)]).apply_hadamard("R1")
    assert np.allclose(dropped.amplitudes, expect.amplitudes, atol=1e-12)
    assert dropped.names() == ("R1",)


def test_discard_just_measured_register():
    rng = np.random.default_rng(12)
    state = random_state(rng, [("R1", 2), ("R2", 2)])
    _, collapsed = state.measure("R2", rng)
    assert collapsed.discard("R2").names() == ("R1",)


def test_discard_entangled_register_reports_purity():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = amps[0b11] = 1 / math.sqrt(2)
    state = CompositeState((Register("R1", 1, A), Register("R2", 1, A)), amps)
    with pytest.raises(EntangledRegisterError) as err:
        state.discard("R2")
    assert err.value.register == "R2"
    assert abs(err.value.purity - 0.5) <= 1e-12


def test_discard_last_register_rejected():
    state = basis([("R1", 2)])
    with pytest.raises(RegisterError, match="last"):
        state.discard("R1")


def test_fused_uncompute_refuses_with_the_purity_of_the_two_steps():
    # R2 copies R1, and the table undoes a different map: R2 is left holding
    # a bijection of R1, so it stays maximally entangled with it.
    copied = basis([("R2", 2), ("R1", 2)]).apply_hadamard("R1") \
        .apply_xor_oracle("R1", "R2", [0, 1, 2, 3])
    wrong = [0, 0, 1, 1]
    with pytest.raises(EntangledRegisterError) as fused:
        copied.discard("R2", source="R1", table=wrong)
    with pytest.raises(EntangledRegisterError) as two_step:
        copied.apply_xor_oracle("R1", "R2", wrong).discard("R2")
    assert fused.value.register == two_step.value.register == "R2"
    assert fused.value.purity == two_step.value.purity
    assert abs(fused.value.purity - 0.25) <= 1e-12
    # The right table leaves R1 alone.
    undone = copied.discard("R2", source="R1", table=[0, 1, 2, 3])
    assert undone.names() == ("R1",)
    assert np.array_equal(undone.amplitudes, basis([("R1", 2)]).apply_hadamard("R1").amplitudes)


def test_fused_uncompute_accepts_a_product_superposition():
    # R2 keeps all four values after the uncompute, but in a product with R1.
    state = basis([("R1", 2), ("R2", 2)]).apply_hadamard("R1").apply_hadamard("R2")
    table = [3, 1, 0, 2]
    fused = state.discard("R2", source="R1", table=table)
    two_step = state.apply_xor_oracle("R1", "R2", table).discard("R2")
    assert same_bits(fused.amplitudes, two_step.amplitudes)
    assert np.allclose(fused.amplitudes, np.full(4, 0.5), atol=ATOL_STATE)


def test_fused_forms_refuse_to_drop_the_last_register():
    state = basis([("R1", 2)])
    rng = np.random.default_rng(5)
    with pytest.raises(RegisterError, match="last"):
        state.measure("R1", rng, discard=True)
    assert rng.random() == np.random.default_rng(5).random()  # no draw was taken
    with pytest.raises(RegisterError, match="differ"):
        state.discard("R1", source="R1", table=[0, 1, 2, 3])
    with pytest.raises(RegisterError, match="no register named 'R0'"):
        state.discard("R1", source="R0", table=[0, 1, 2, 3])
    for kw in ({"source": "R1"}, {"table": [0, 1, 2, 3]}):
        with pytest.raises(RegisterError, match="a source register and a table, or neither"):
            state.discard("R1", **kw)


# -- reduced density matrices --------------------------------------------------


def test_keep_all_registers_gives_rank_one_projector():
    rng = np.random.default_rng(21)
    state = random_state(rng, [("R1", 2), ("R2", 1)])
    rho = state.reduced_density_matrix(["R1", "R2"])
    expect = np.outer(state.amplitudes, state.amplitudes.conj())
    assert np.allclose(rho, expect, atol=1e-12)


def test_bell_half_is_maximally_mixed():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = amps[0b11] = 1 / math.sqrt(2)
    state = CompositeState((Register("R1", 1, A), Register("R2", 1, A)), amps)
    rho = state.reduced_density_matrix(["R1"])
    ok, dev = is_maximally_mixed(rho)
    assert ok and dev <= 1e-15


def test_scrambled_copy_reduces_to_identity():
    # Uniform superposition copied through any bijection leaves the
    # kept register maximally mixed: 2-bit case, every permutation.
    import itertools
    for table in itertools.permutations(range(4)):
        state = basis([("R1", 2), ("R2", 2)]).apply_hadamard("R1")
        state = state.apply_xor_oracle("R1", "R2", list(table))
        rho = state.reduced_density_matrix(["R1"])
        ok, dev = is_maximally_mixed(rho)
        assert ok and dev <= 1e-12


def test_reduced_density_matrix_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(30):
        widths = [int(w) for w in rng.integers(1, 3, size=3)]
        layout = [(f"R{i+1}", w) for i, w in enumerate(widths)]
        state = random_state(rng, layout)
        keep_count = int(rng.integers(1, 4))
        keep = sorted(rng.choice(3, size=keep_count, replace=False).tolist())
        names = [layout[i][0] for i in keep]
        got = state.reduced_density_matrix(names)
        expect = brute_partial_trace(state.amplitudes, widths, keep)
        assert np.allclose(got, expect, atol=1e-12)


def test_partial_trace_iterated_in_any_order_agrees():
    rng = np.random.default_rng(88)
    state = random_state(rng, [("R1", 2), ("R2", 1), ("R3", 2)])
    direct = state.reduced_density_matrix(["R2"])
    # same reduction through the brute-force oracle, one register at a time
    step1 = brute_partial_trace(state.amplitudes, [2, 1, 2], [0, 1])
    # step1 is a matrix, not a vector: re-trace via eigen-decomposition mixture
    vals, vecs = np.linalg.eigh(step1)
    mixed = np.zeros((2, 2), dtype=np.complex128)
    for p, v in zip(vals, vecs.T):
        if p > 1e-15:
            mixed += p * brute_partial_trace(v, [2, 1], [1])
    assert np.allclose(direct, mixed, atol=1e-12)


def test_partial_trace_reads_float_and_strided_amplitudes():
    # The diagonal case scans the amplitudes as complex128 floats, so other
    # dtypes and strides must be read as their complex values.
    regs = (Register("R1", 1, A), Register("R2", 1, A))
    for amps in (np.array([0.0, 1.0, 0.0, 0.0]),
                 np.array([0, 9, 1, 9, 0, 9, 0, 9], dtype=np.complex128)[::2]):
        state = CompositeState(regs, amps)
        got = state.reduced_density_matrix(["R2"])
        assert got.ndim == 1 and np.array_equal(got, [0, 1])
        assert same_trace(got, compact_gram(state, ["R2"]))


def test_empty_keep_set_rejected():
    state = basis([("R1", 2)])
    with pytest.raises(RegisterError, match="empty"):
        state.reduced_density_matrix([])


# -- eigen solver --------------------------------------------------------------


def test_eigenvalues_match_singular_values_and_trace():
    # Oracle on the SVD path: a Hermitian matrix's singular values are its
    # eigenvalues' magnitudes, and its eigenvalues sum to its trace.
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4, 8, 16, 32):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        got = hermitian_eigenvalues(m)
        tol = 1e-10 * max(1.0, np.abs(m).max())
        assert np.all(np.diff(got) >= 0)
        assert np.allclose(np.sort(np.abs(got)),
                           np.sort(np.linalg.svd(m, compute_uv=False)), atol=tol)
        assert abs(got.sum() - np.trace(m).real) <= tol


def test_eigenvalues_of_diagonal_and_zero_and_refusals():
    assert np.allclose(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))
    d = np.diag([3.0, -1.0, 2.0]).astype(np.complex128)
    assert np.allclose(hermitian_eigenvalues(d), [-1.0, 2.0, 3.0], atol=1e-14)
    # Any array-like is read as a complex matrix: a nested list, a float array.
    assert np.array_equal(hermitian_eigenvalues([[3.0, 0.0], [0.0, -1.0]]), [-1.0, 3.0])
    assert np.allclose(hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0],
                       atol=1e-14)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


# -- trace distance -------------------------------------------------------------


def _pure(vec):
    v = np.asarray(vec, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_trace_distance_identical_states_is_zero():
    rho = _pure([1, 1j, 0.5])
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states_is_one():
    assert abs(trace_distance(_pure([1, 0]), _pure([0, 1])) - 1.0) <= 1e-12


def test_trace_distance_mixed_vs_pure_half():
    rho = np.eye(2, dtype=np.complex128) / 2
    assert abs(trace_distance(rho, _pure([1, 0])) - 0.5) <= 1e-12
    # A nested list and a float array give the bits of their complex form.
    want = trace_distance(rho, np.diag([1, 0]).astype(np.complex128))
    assert trace_distance([[0.5, 0.0], [0.0, 0.5]], np.diag([1.0, 0.0])) == want


def test_trace_distance_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(_pure([1, 0]), _pure([1, 0, 0]))
    # A diagonal is compared in its own dimension, against either form.
    for a, b in ((np.ones(2) / 2, np.ones(3) / 3), (np.ones(2) / 2, np.eye(3) / 3),
                 (np.eye(3) / 3, np.ones(2) / 2)):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(a, b)


# LAPACK's Hermitian eigensolver rescales a matrix whose largest entry
# is below sqrt(tiny / eps), about 1e-146, and its eigenvalues then take
# other rounding. No density matrix of the lab differs from another by so
# little in every entry, but a random pair may.
LAPACK_RESCALES_BELOW = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


@st.composite
def diagonal_pairs(draw):
    """Two real diagonals of one dimension, crossing numpy's 8-lane and
    128-entry summation blocks, with ties and zeros; the second equals
    the first, or steps one ulp or 1e-17 away from it in some entries, or
    is drawn apart."""
    dim = draw(st.integers(1, 10) | st.sampled_from([15, 16, 17, 31, 32, 33, 127, 128, 129]))
    entry = st.sampled_from([0.0, 1 / 16, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    d1 = draw(hnp.arrays(np.float64, dim, elements=entry))
    mode = draw(st.sampled_from(["equal", "ulp", "tiny", "apart"]))
    if mode == "apart":
        return d1, draw(hnp.arrays(np.float64, dim, elements=entry))
    moved = draw(hnp.arrays(np.bool_, dim)) & (mode != "equal")
    moved[draw(st.integers(0, dim - 1))] = mode != "equal"
    step = np.nextafter(d1, 2.0) if mode == "ulp" else d1 + 1e-17
    return d1, np.where(moved, step, d1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(diagonal_pairs())
def test_trace_distance_of_diagonals_is_the_matrix_result(pair):
    d1, d2 = (d.astype(np.complex128) for d in pair)
    got = trace_distance(d1, d2)
    assert np.float64(got).tobytes() == np.float64(trace_distance(d2, d1)).tobytes()
    want = trace_distance(np.diag(d1), np.diag(d2))
    if 0 < np.max(np.abs(pair[0] - pair[1])) < LAPACK_RESCALES_BELOW:
        assert math.isclose(got, want, rel_tol=1e-13)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # Independent of eigvalsh: half the exactly rounded sum of |d1 - d2|.
    assert math.isclose(got, 0.5 * math.fsum(np.abs(pair[0] - pair[1])), rel_tol=1e-13)


def test_trace_distance_pairs_a_diagonal_with_a_matrix_as_two_matrices():
    rng = np.random.default_rng(26)
    for dim in (1, 2, 8, 16):
        d = rng.random(dim)
        d /= d.sum()
        diag = d.astype(np.complex128)
        for m in (_pure(rng.normal(size=dim) + 1j * rng.normal(size=dim)),
                  np.diag(rng.permutation(diag))):
            want = trace_distance(np.diag(diag), m)
            assert trace_distance(diag, m) == trace_distance(m, diag) == want
    # A diagonal with an imaginary part is no diagonal state: it takes the
    # matrix path, which reads the real diagonal within the Hermitian
    # tolerance and refuses it beyond.
    a, b = np.array([0.5, 0.5 + 1e-20j]), np.array([1.0, 0.0])
    assert trace_distance(a, b) == trace_distance(np.diag(a), np.diag(b)) == 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_distance(np.array([0.5, 0.5 + 1e-3j]), b)


def test_as_matrix_expands_only_a_diagonal():
    d = np.array([0.25, 0.75], dtype=np.complex128)
    m = as_matrix(d)
    assert m.shape == (2, 2) and m.dtype == np.complex128
    assert m.tobytes() == np.diag(d).tobytes()
    assert np.signbit(m.real).sum() == np.signbit(m.imag).sum() == 0  # +0.0 elsewhere
    rho = _pure([1, 1j])
    assert as_matrix(rho) is rho


def test_trace_distance_matches_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(25):
        dim = int(rng.choice([2, 4, 8]))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a @ a.conj().T
        b = b @ b.conj().T
        a /= np.trace(a).real
        b /= np.trace(b).real
        got = trace_distance(a, b)
        assert abs(got - brute_trace_distance(a, b)) <= 1e-12


def test_trace_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(23)

    def rand_dm(dim):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m @ m.conj().T
        return m / np.trace(m).real

    for _ in range(100):
        dim = int(rng.choice([2, 4]))
        x, y, z = rand_dm(dim), rand_dm(dim), rand_dm(dim)
        dxy = trace_distance(x, y)
        dyx = trace_distance(y, x)
        assert dxy == dyx  # canonical operand ordering makes this exact
        assert -1e-15 <= dxy <= 1.0 + 1e-9
        assert trace_distance(x, z) <= dxy + trace_distance(y, z) + 1e-9


# -- maximally mixed check -------------------------------------------------------


def test_is_maximally_mixed_on_identity_quarter():
    ok, dev = is_maximally_mixed(np.eye(4, dtype=np.complex128) / 4)
    assert ok and dev == 0.0
    assert is_maximally_mixed(np.eye(4) / 4) == (True, 0.0)
    assert is_maximally_mixed([[0.5, 0.0], [0.0, 0.5]]) == (True, 0.0)
    assert is_maximally_mixed([[1.0, 0.0], [0.0, 0.0]]) == (False, 0.5)


def test_is_maximally_mixed_rejects_pure_state():
    ok, dev = is_maximally_mixed(_pure([1, 0]))
    assert not ok
    assert abs(dev - 0.5) <= 1e-15


def test_is_maximally_mixed_deviation_equals_identity_difference():
    # The deviation is compared bit for bit with the elementwise
    # difference from an explicit I/dim.
    rng = np.random.default_rng(83)
    for dim in (1, 2, 3, 8, 64, 256):
        for scale in (0.0, 1e-13, 1e-3, 1.0):
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = np.eye(dim) / dim + scale * (noise + noise.conj().T)
            expect = float(np.max(np.abs(m - np.eye(dim) / dim)))
            ok, dev = is_maximally_mixed(m)
            assert dev == expect
            assert ok == (expect <= ATOL_DENSITY)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda dim: st.lists(st.one_of(
    st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False),
    st.floats(-2e-10, 2e-10).map(lambda e: 1 / dim + e),
    st.just(1 / dim)), min_size=dim, max_size=dim)))
def test_is_maximally_mixed_reads_a_diagonal_as_its_matrix(entries):
    # Every off-diagonal gap of the matrix is 0.0, so the verdict and the
    # deviation are the diagonal's, bit for bit.
    diag = np.array(entries, dtype=np.complex128)
    (ok, dev), (matrix_ok, matrix_dev) = is_maximally_mixed(diag), is_maximally_mixed(np.diag(diag))
    assert ok == matrix_ok and np.float64(dev).tobytes() == np.float64(matrix_dev).tobytes()


# -- norm preservation property ---------------------------------------------------


def test_unitary_operations_preserve_norm():
    rng = np.random.default_rng(59)
    for trial in range(20):
        state = random_state(rng, [("R1", 2), ("R2", 2), ("R3", 1)])
        for _ in range(6):
            op = rng.integers(0, 3)
            if op == 0:
                state = state.apply_hadamard(str(rng.choice(["R1", "R2", "R3"])))
            elif op == 1:
                name = str(rng.choice(["R1", "R2", "R3"]))
                width = state.register(name).width
                state = state.apply_phase_flip(name, int(rng.integers(0, 1 << width)))
            else:
                table = [int(v) for v in rng.integers(0, 2, size=4)]
                state = state.apply_xor_oracle("R2", "R3", table,
                                                pad=int(rng.integers(0, 2)))
            assert abs(state.norm() - 1.0) <= 1e-12


# -- view kernels against the index-vector formulas -------------------------------
#
# The formulas below are the earlier implementations, which built an int64
# register value for every basis index. They are kept here as oracles:
# every kernel must reproduce their bytes exactly. A Born weight is the
# exactly rounded sum (math.fsum) of a row's squares, a rule with one answer.


def index_values(widths, pos):
    shift = sum(widths[pos + 1:])
    idx = np.arange(1 << sum(widths), dtype=np.int64)
    return (idx >> shift) & ((1 << widths[pos]) - 1)


def index_xor(amps, widths, src, dst, table, pad):
    delta = np.asarray(table, dtype=np.int64)[index_values(widths, src)] ^ pad
    perm = np.arange(amps.size, dtype=np.int64) ^ (delta << sum(widths[dst + 1:]))
    return amps[perm]


def index_phase_flip(amps, widths, pos, mask):
    vals = index_values(widths, pos)
    parity = np.zeros(amps.size, dtype=np.int64)
    for bit in range(widths[pos]):
        if (mask >> bit) & 1:
            parity ^= (vals >> bit) & 1
    return amps * (1.0 - 2.0 * parity)


def index_partition(amps, widths, pos):
    arr = np.moveaxis(amps.reshape([1 << w for w in widths]), pos, 0)
    return arr.reshape(1 << widths[pos], -1)


def index_weights(amps, widths, pos):
    """Each value's weight: the exactly rounded sum of its dense row's
    squared magnitudes, zeros included, so the order of the sum is moot."""
    squares = np.abs(index_partition(amps, widths, pos)) ** 2
    return np.array([math.fsum(row) for row in squares.tolist()])


def index_measure(amps, widths, pos, rng):
    probs = index_weights(amps, widths, pos)
    u = rng.random() * float(probs.sum())
    acc = 0.0
    outcome = int(np.argwhere(probs > 0.0).max())
    for k, p in enumerate(probs):
        acc += float(p)
        if u < acc:
            outcome = k
            break
    kept = np.where(index_values(widths, pos) == outcome, amps, 0.0)
    return outcome, kept / math.sqrt(float(probs[outcome]))


def index_discard(amps, widths, pos):
    mat = index_partition(amps, widths, pos)
    weights = index_weights(amps, widths, pos)
    pick = int(np.argmax(weights))
    return np.ascontiguousarray(mat[pick, :] / math.sqrt(weights[pick]))


def outer_extend(amps, width, value):
    tail = np.zeros(1 << width, dtype=np.complex128)
    tail[value] = 1.0
    return np.multiply.outer(amps, tail).ravel()


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_nonzero_bits(a, b):
    """Same dtype and shape, and every float part equal: a nonzero part
    has the same bits, and a zero matches a zero of either sign."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_outcome(one, other):
    """Both calls give a state with the same layout and bytes, or both are
    refused for the same register with the same purity."""
    results = []
    for call in (one, other):
        try:
            out = call()
        except EntangledRegisterError as err:
            results.append(("refused", err.register, err.purity))
        else:
            results.append((out.names(), out.amplitudes.dtype, out.amplitudes.tobytes()))
    return results[0] == results[1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.data())
def test_kernels_match_index_vector_formulas_bit_for_bit(widths, data):
    names = [f"Q{i}" for i in range(len(widths))]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    state = random_state(rng, list(zip(names, widths)))
    amps = state.amplitudes
    before = amps.tobytes()

    # XOR oracle, source and destination in either order, adjacent or not.
    src, dst = data.draw(st.permutations(range(len(widths))), label="order")[:2]
    table = rng.integers(0, 1 << widths[dst], size=1 << widths[src])
    pad = data.draw(st.integers(0, (1 << widths[dst]) - 1), label="pad")
    moved = state.apply_xor_oracle(names[src], names[dst], table, pad)
    assert same_bits(moved.amplitudes, index_xor(amps, widths, src, dst, table, pad))

    pos = data.draw(st.integers(0, len(widths) - 1), label="register")
    mask = data.draw(st.integers(0, (1 << widths[pos]) - 1), label="mask")
    flipped = state.apply_phase_flip(names[pos], mask)
    assert same_bits(flipped.amplitudes, index_phase_flip(amps, widths, pos, mask))

    # Measurement from the same stream position, then dropping the
    # measured register wherever it sits in the layout, in two steps and
    # in one.
    streams = [np.random.default_rng(seed) for _ in range(3)]
    outcome, collapsed = state.measure(names[pos], streams[0])
    expect_outcome, expect = index_measure(amps, widths, pos, streams[1])
    assert outcome == expect_outcome
    assert same_bits(collapsed.amplitudes, expect)
    dropped = collapsed.discard(names[pos])
    assert same_bits(dropped.amplitudes, index_discard(expect, widths, pos))
    fused_outcome, fused = state.measure(names[pos], streams[2], discard=True)
    assert fused_outcome == outcome
    assert same_bits(fused.amplitudes, dropped.amplitudes)
    assert fused.names() == dropped.names()
    assert len({rng.random() for rng in streams}) == 1

    # Uncompute and discard in one call against the two steps, the source
    # before or after the dropped register, adjacent or not: on the
    # entangled random state (refused with the same purity) and once the
    # destination holds a basis value, XOR-ed with the table.
    _, product = state.measure(names[dst], rng)
    for base in (state, product.apply_xor_oracle(names[src], names[dst], table)):
        assert same_outcome(
            lambda: base.discard(names[dst], source=names[src], table=table),
            lambda: base.apply_xor_oracle(names[src], names[dst], table).discard(names[dst]))

    # Extend with and without a source, against the outer product with a
    # basis vector followed by the index-vector XOR. A second state has
    # real and imaginary parts that are each a normal float or a signed
    # zero. An amplitude whose parts are both zero is not stored, so the
    # comparisons read a zero as equal whichever sign it carries.
    width = data.draw(st.integers(1, 3), label="width")
    value = data.draw(st.integers(0, (1 << width) - 1), label="value")
    parts = amps.view(np.float64).copy()
    zeroed = rng.random(parts.size) < 0.5
    parts[zeroed] = np.copysign(0.0, rng.normal(size=int(zeroed.sum())))
    signed_zeros = CompositeState(state.registers, parts.view(np.complex128))
    copy_table = rng.integers(0, 1 << width, size=1 << widths[src])
    for base in (state, signed_zeros):
        grown = base.extend("Z", width, A, value)
        assert same_nonzero_bits(grown.amplitudes, outer_extend(base.amplitudes, width, value))
        fused = base.extend("Z", width, A, value, source=names[src], table=copy_table)
        expect = index_xor(outer_extend(base.amplitudes, width, 0), widths + [width],
                           src, len(widths), copy_table, value)
        assert same_nonzero_bits(fused.amplitudes, expect)
        assert fused.names() == grown.names() == tuple(names) + ("Z",)
    # Uncompute the copy, then discard the register, in two steps and in
    # one. The state with signed zeros is not normalised, so both refuse it.
    copied = state.extend("Z", width, A, value, source=names[src], table=copy_table)
    undone = copied.apply_xor_oracle(names[src], "Z", copy_table)
    grown = state.extend("Z", width, A, value)
    assert same_nonzero_bits(undone.amplitudes, grown.amplitudes)
    expect = index_discard(grown.amplitudes, widths + [width], len(widths))
    assert same_nonzero_bits(undone.discard("Z").amplitudes, expect)
    fused = copied.discard("Z", source=names[src], table=copy_table)
    assert same_nonzero_bits(fused.amplitudes, expect)
    assert fused.names() == tuple(names)
    copied = signed_zeros.extend("Z", width, A, value, source=names[src], table=copy_table)
    assert same_outcome(
        lambda: copied.discard("Z", source=names[src], table=copy_table),
        lambda: copied.apply_xor_oracle(names[src], "Z", copy_table).discard("Z"))

    # A register spread over several rows: a superposition, with some of
    # its amplitudes zero, in a product with the state at any layout
    # position, is dropped as the index formula drops it. A register of
    # the random state is entangled, and is refused with the purity of
    # the dense Gram product.
    at = data.draw(st.integers(0, len(widths)), label="spread position")
    spread = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    zeros = rng.permutation(spread.size)[2:]  # two rows always hold weight
    spread[zeros[rng.random(zeros.size) < 0.5]] = 0.0
    spread /= np.linalg.norm(spread)
    regs = list(state.registers)
    regs.insert(at, Register("S", width, A))
    rows = np.multiply.outer(amps.reshape(-1, 1 << sum(widths[at:])), spread)
    product = CompositeState(regs, rows.transpose(0, 2, 1))
    dropped = product.discard("S")
    assert same_bits(dropped.amplitudes,
                     index_discard(product.amplitudes, widths[:at] + [width] + widths[at:], at))
    assert dropped.names() == tuple(names)
    with pytest.raises(EntangledRegisterError) as refused:
        state.discard(names[pos])
    mat = index_partition(amps, widths, pos)
    gram_purity = float(np.sum(np.abs(mat @ mat.conj().T) ** 2))
    assert abs(refused.value.purity - gram_purity) <= 1e-12

    assert state.amplitudes.tobytes() == before


def relaid(amps, widths, order, registers):
    """The same entries with the registers laid out in `order`."""
    moved = amps.reshape([1 << w for w in widths]).transpose(order)
    return CompositeState([registers[i] for i in order], moved.ravel())


def layout_free_bytes(state, names):
    """A state's dense bytes with its registers put in the order `names`."""
    order = [state.names().index(name) for name in names]
    shape = [1 << r.width for r in state.registers]
    return state.amplitudes.reshape(shape).transpose(order).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda w: sum(w) <= 9),
       st.data())
def test_weights_do_not_depend_on_the_layout(widths, data):
    # The same entries laid out with the registers in another order give
    # each register the same Born weights, bit for bit, and so the same
    # measurement from the same stream position; a register holding one
    # value is dropped with the same weight (the refusal of a half-norm
    # copy reports its square). A sum taken in the order of a dense row
    # changes in its last bits when the layout moves the row's entries.
    names = [f"Q{i}" for i in range(len(widths))] + ["Z"]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << sum(widths)) + 1j * rng.normal(size=1 << sum(widths))
    zeros = rng.random(amps.size) < 0.3
    zeros[rng.integers(amps.size)] = False
    amps[zeros] = 0.0
    amps /= np.linalg.norm(amps)
    value = data.draw(st.integers(0, 1), label="value")
    # Z holds `value` in every entry: a product with |value>.
    amps = np.multiply.outer(amps, np.eye(2)[value]).ravel()
    widths = widths + [1]
    registers = [Register(name, width, A) for name, width in zip(names, widths)]
    order = data.draw(st.permutations(range(len(names))), label="layout")
    states = (relaid(amps, widths, range(len(names)), registers),
              relaid(amps, widths, order, registers))

    name = data.draw(st.sampled_from(names[:-1]), label="register")
    weights, measured = [], []
    for state in states:
        shift, width = state.shift(name), state.register(name).width
        rows = (state.index >> shift) & ((1 << width) - 1)
        weights.append(_weights(state.values, rows, 1 << width).tobytes())
        outcome, collapsed = state.measure(name, np.random.default_rng(seed))
        measured.append((outcome, layout_free_bytes(collapsed, names)))
    assert weights[0] == weights[1]
    assert measured[0] == measured[1]

    kept = [n for n in names if n != "Z"]
    dropped = [layout_free_bytes(state.discard("Z"), kept) for state in states]
    assert dropped[0] == dropped[1]
    purities = []
    for state in states:
        with pytest.raises(EntangledRegisterError) as refused:
            CompositeState(state.registers, 0.5 * state.amplitudes).discard("Z")
        purities.append(refused.value.purity)
    assert purities[0] == purities[1]


def test_kernels_allocate_at_most_one_and_a_half_states():
    # A state stores each nonzero amplitude as an int64 index and a
    # complex128 value, 24 bytes. On a random 20-qubit state, where every
    # amplitude is stored, the XOR oracle (which sorts its entries again)
    # and the phase flip may allocate 1.5 stored states (they take 1.33
    # and 1.05). A measurement reads each entry's row and weight, 16 of
    # its 24 bytes, and sums each row that holds several entries again
    # with math.fsum, its entries marked by a byte each: 0.75 stored
    # states. Dropping the register in the same call adds only the kept
    # row, at most 1/64 of the state.
    rng = np.random.default_rng(89)
    state = random_state(rng, [("R1", 7), ("R2", 7), ("R3", 6)])
    stored = 24 * state.index.size
    ops = {
        "xor R1->R3": lambda: state.apply_xor_oracle("R1", "R3", rng.integers(0, 64, size=128)),
        "xor R3->R2": lambda: state.apply_xor_oracle("R3", "R2", rng.integers(0, 128, size=64)),
        "phase R2": lambda: state.apply_phase_flip("R2", 0b1010011),
        "phase R3": lambda: state.apply_phase_flip("R3", 0b110001),
    }
    limits = dict.fromkeys(ops, 1.5 * stored)
    for name in ("R1", "R2", "R3"):
        for discard in (False, True):
            label = f"measure {name}{' and discard' * discard}"
            ops[label] = lambda name=name, discard=discard: \
                state.measure(name, rng, discard=discard)
            limits[label] = 0.8 * stored
    # A fresh register computed from its oracle gives each entry of the
    # input one entry of the output, and may take 1.5 times that output
    # (it takes 1.34).
    for layout, src, width in ([("R1", 7), ("R2", 7)], "R1", 6), \
            ([("R1", 7), ("R2", 7), ("R3", 5)], "R2", 1), ([("R1", 7), ("R2", 6)], "R2", 7):
        base = random_state(rng, layout)
        label = f"extend {'+'.join(str(w) for _, w in layout)} -> +{width} from {src}"
        table = rng.integers(0, 1 << width, size=1 << base.register(src).width)
        ops[label] = lambda base=base, src=src, width=width, table=table: \
            base.extend("Z", width, A, 1, source=src, table=table)
        limits[label] = 1.5 * 24 * base.index.size
    # A functional state at the 22-qubit cap: R1 in superposition, two
    # 7-bit permutation copies of it and a 1-bit tag, so 128 of its 2**22
    # amplitudes are nonzero. A dense vector alone would take 64 MiB; every
    # kernel here stays under 2 MB, the diagonal a trace returns aside.
    perm, other, tags = rng.permutation(128), rng.permutation(128), rng.integers(0, 2, size=128)
    copies = (basis([("R1", 7), ("R2", 7), ("R3", 7)]).apply_hadamard("R1")
              .apply_xor_oracle("R1", "R2", perm).apply_xor_oracle("R1", "R3", other))
    functional = copies.extend("T", 1, A, source="R1", table=tags)
    wide = {
        "extend 21 -> 22": lambda: copies.extend("T", 1, A, source="R1", table=tags),
        "hadamard R1": lambda: functional.apply_hadamard("R1"),
        "hadamard R3": lambda: functional.apply_hadamard("R3"),
        "xor R1->T": lambda: functional.apply_xor_oracle("R1", "T", tags),
        "xor R2->R3": lambda: functional.apply_xor_oracle("R2", "R3", perm),
        "phase R1": lambda: functional.apply_phase_flip("R1", 0b1001101),
        "uncompute and discard R2": lambda: functional.discard("R2", source="R1", table=perm),
        "uncompute and discard T": lambda: functional.discard("T", source="R1", table=tags),
        "hand over R1": lambda: functional.with_holder(["R1"], "bob"),
        "trace to R2": lambda: functional.reduced_density_matrix(["R2"]),
        "trace to R1, T": lambda: functional.reduced_density_matrix(["R1", "T"]),
    }
    for name in ("R1", "R2", "R3", "T"):
        for discard in (False, True):
            wide[f"22 qubits: measure {name}{' and discard' * discard}"] = \
                lambda name=name, discard=discard: functional.measure(name, rng, discard=discard)
    output = {"trace to R2": 128 * 16, "trace to R1, T": 256 * 16}
    for label, op in wide.items():
        ops[label] = op
        limits[label] = 2_000_000 + output.get(label, 0)
    tracemalloc.start()
    try:
        for label, op in ops.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = op()
            peak = tracemalloc.get_traced_memory()[1] - start
            del result
            assert peak <= limits[label], f"{label}: peak {peak} B, budget {limits[label]:.0f} B"
    finally:
        tracemalloc.stop()
    assert functional.total_width == 22 and functional.index.size == 128


# -- the partial trace against the Gram product of the occupied columns ----------


def kept_by_traced(state, keep):
    names = state.names()
    shape = [1 << r.width for r in state.registers]
    kept = [i for i, name in enumerate(names) if name in keep]
    traced = [i for i, name in enumerate(names) if name not in keep]
    mat = state.amplitudes.reshape(shape).transpose(kept + traced)
    return mat.reshape(math.prod(shape[i] for i in kept), -1)


def compact_gram(state, keep):
    """The kept x traced matrix, less its all-zero columns, times its
    adjoint: the Gram product of the columns that hold an amplitude."""
    mat = kept_by_traced(state, keep)
    mat = mat[:, (mat != 0).any(axis=0)]
    return mat @ mat.conj().T


def same_trace(got, gram):
    """A 2-D partial trace is the compact Gram product, bit for bit. A 1-D
    one is the product's diagonal, bit for bit, and every other entry of
    the product is exactly +0.0, the zeros `Transcript.snapshot` writes."""
    if got.ndim == 2:
        return same_bits(got, gram)
    off_diagonal = gram[~np.eye(gram.shape[0], dtype=bool)]
    return same_bits(got, np.diagonal(gram).copy()) and \
        off_diagonal.tobytes() == bytes(off_diagonal.nbytes)


def is_partial_permutation(state, keep):
    """At most one nonzero in each row and column of the kept x traced matrix."""
    nonzero = kept_by_traced(state, keep) != 0
    return nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda w: sum(w) <= 6),
       st.data())
def test_reduced_density_matrix_matches_dense_gram_bit_for_bit(widths, data):
    # The real states are made by the package's own kernels, so their
    # signed zeros are the ones real sessions carry. Two complex ones check
    # the guard: imaginary amplitudes take the closed form, and amplitudes
    # with both parts nonzero must take the matrix product.
    names = [f"Q{i}" for i in range(len(widths))]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    layout = list(zip(names, widths))
    real = rng.normal(size=1 << sum(widths))
    dense = CompositeState(basis(layout).registers, (real / np.linalg.norm(real)).astype(complex))

    # H on the first register, then a table into each later register from
    # an earlier one: a permutation (injective where it fits) or any map.
    state = basis(layout).apply_hadamard(names[0])
    for pos in range(1, len(names)):
        src = data.draw(st.integers(0, pos - 1), label="source")
        size, span = 1 << widths[src], 1 << widths[pos]
        if data.draw(st.booleans(), label="injective") and span >= size:
            table = rng.permutation(span)[:size]
        else:
            table = rng.integers(0, span, size=size)
        pad = data.draw(st.integers(0, span - 1), label="pad")
        state = state.apply_xor_oracle(names[src], names[pos], table, pad)
    pos = data.draw(st.integers(0, len(names) - 1), label="register")
    mask = data.draw(st.integers(0, (1 << widths[pos]) - 1), label="mask")
    flipped = state.apply_phase_flip(names[pos], mask)
    _, measured = flipped.measure(names[pos], rng)
    _, collapsed = measured.measure(names[0], rng)
    width = data.draw(st.integers(1, 2), label="width")
    grown = measured.extend("Z", width, A, data.draw(st.integers(0, (1 << width) - 1)))
    mixed = flipped.apply_hadamard(names[-1])
    imaginary = CompositeState(state.registers, 1j * state.amplitudes)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=state.dim))
    phased = CompositeState(state.registers, phases * state.amplitudes)

    branches = set()
    for candidate in (dense, state, flipped, measured, collapsed, grown, mixed,
                      imaginary, phased):
        regs = candidate.names()
        for count in range(1, len(regs) + 1):
            for keep in itertools.combinations(regs, count):
                got = candidate.reduced_density_matrix(keep)
                assert same_trace(got, compact_gram(candidate, keep)), (regs, keep)
                branches.add((is_partial_permutation(candidate, keep), got.ndim))
    # The dense vector is never a partial permutation, and its trace is a
    # matrix; the collapsed basis state always is one, traced to a diagonal.
    assert {(True, 1), (False, 2)} <= branches
