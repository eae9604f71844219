"""Exact state-vector simulation over named qubit registers.

The state of a protocol session is a complex amplitude vector over a
dynamic, ordered layout of named registers. The first register occupies
the most significant bits of a basis index; within a register, bit i of
the stored value is qubit i. All operations are pure: they return a new
state and never mutate their input.

A state stores only its nonzero amplitudes: their basis indices, sorted,
and their values. Every register of a session but R1 is a Boolean
function of R1 (a permutation copy or a tag), so a state holds at most
2**n of its 2**width amplitudes, and a kernel's cost follows the stored
amplitudes. Each nonzero float part has the bits the dense kernels give;
a zero is not stored, so its sign is not kept. Extending, the XOR oracle
and the phase flip move entries by index arithmetic; the Hadamard runs
the dense butterfly on one row per fiber of the other registers. A sum
whose rounding depends on order (a Born weight, or the weight that
renormalises a dropped register) is taken as numpy takes it over the
dense row (see `_row_weight`). Only a partial trace that is not diagonal
(most channel states the protocols send give a diagonal one) builds the
full vector; the purity of a register spread over several rows is read
from its partial trace.

Density matrices are plain complex128 arrays; a diagonal one is kept as
its 1-D diagonal (`as_matrix` expands it). Two diagonals' trace distance
is taken in closed form; every other spectrum, for trace distances and
for the harness's validity checks, comes from numpy's `eigvalsh`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Numeric contract shared by the whole package: amplitude-level checks,
# density-matrix invariants, and derived scalars each get their own
# tolerance tier.
ATOL_STATE = 1e-12
ATOL_DENSITY = 1e-10
ATOL_SCALAR = 1e-9

DEFAULT_QUBIT_CAP = 22


class RegisterError(ValueError):
    """Raised for layout violations: unknown names, clashes, bad widths."""


class EntangledRegisterError(RuntimeError):
    """Raised when a register is discarded while still entangled.

    Discarding is only legal once the register holds a pure reduced
    state, i.e. it factors out of the rest of the session.  Hitting this
    error means the calling protocol logic forgot an uncompute step.
    The offending purity is kept on the exception for the error message
    and for tests.
    """

    def __init__(self, name: str, purity: float):
        self.register = name
        self.purity = purity
        super().__init__(
            f"register {name!r} is not in a product state: "
            f"reduced purity {purity:.12f} < {1 - ATOL_DENSITY:.12f}"
        )


@dataclass(frozen=True)
class Register:
    """A named block of qubits inside the composite layout, and the name
    of the party that holds it."""

    name: str
    width: int
    holder: str

    def __post_init__(self):
        if self.width < 1:
            raise RegisterError(f"register {self.name!r} needs width >= 1, got {self.width}")


class CompositeState:
    """Pure state of all live registers.

    `CompositeState(registers, amplitudes, qubit_cap)` takes a dense
    vector of length 2**total_width, and `amplitudes` gives one back.

    Attributes
    ----------
    registers:
        Ordered layout. The first entry owns the most significant bits
        of every basis index.
    index, values:
        int64 basis indices of the nonzero amplitudes, ascending, and the
        complex128 amplitude at each. The state has unit norm.
    qubit_cap:
        Hard limit on total width; operations that would grow the
        layout past it are rejected with the offending arithmetic.
    """

    __slots__ = ("registers", "index", "values", "qubit_cap")

    def __init__(self, registers: Sequence[Register], amplitudes, qubit_cap: int = DEFAULT_QUBIT_CAP):
        amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
        self.registers, self.qubit_cap = tuple(registers), qubit_cap
        self.index = np.flatnonzero(amps)
        self.values = amps[self.index]

    def _with(self, index: np.ndarray, values: np.ndarray, registers=None) -> "CompositeState":
        """A state with these entries, this state's cap, and its layout unless one is given."""
        out = object.__new__(CompositeState)
        out.registers = self.registers if registers is None else registers
        out.index, out.values, out.qubit_cap = index, values, self.qubit_cap
        return out

    # -- layout helpers -------------------------------------------------

    @property
    def total_width(self) -> int:
        return sum(r.width for r in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_width

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense complex128 vector of length 2**total_width."""
        amps = np.zeros(self.dim, dtype=np.complex128)
        amps[self.index] = self.values
        return amps

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise RegisterError(f"no register named {name!r} in layout {self.names()}")

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def shift(self, name: str) -> int:
        """Bit offset of a register inside a basis index."""
        return self._place(name)[0]

    def _place(self, name: str) -> tuple[int, int]:
        """Bit offset and width of a register."""
        offset = 0
        for reg in reversed(self.registers):
            if reg.name == name:
                return offset, reg.width
            offset += reg.width
        raise RegisterError(f"no register named {name!r} in layout {self.names()}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    # -- layout-changing operations -------------------------------------

    def extend(
        self,
        name: str,
        width: int,
        holder: str,
        value: int = 0,
        *,
        source: str | None = None,
        table: Sequence[int] | np.ndarray | None = None,
    ) -> "CompositeState":
        """Append a fresh register: |m>_source |value XOR table[m]>_name.

        With no source the register holds |value>. Each entry's index
        gains the new register's bits below its own, so the indices stay
        sorted, and each value is multiplied by 1+0j, as the outer product
        with |value> followed by the XOR oracle multiplies it.
        """
        if any(r.name == name for r in self.registers):
            raise RegisterError(f"register name {name!r} already in use")
        reg = Register(name, width, holder)
        new_width = self.total_width + width
        if new_width > self.qubit_cap:
            raise RegisterError(
                f"adding {name!r} needs {self.total_width}+{width}={new_width} qubits, "
                f"cap is {self.qubit_cap}"
            )
        if (source is None) != (table is None):
            raise RegisterError("give both a source register and a table, or neither")
        if source is None:
            fresh = _oracle_offsets(None, 1, width, (0,), "value", value)[0]
        else:
            shift, src_width = self._place(source)
            offsets = _oracle_offsets(source, 1 << src_width, width, table, "value", value)
            fresh = offsets[_field(self.index, shift, src_width)]
        return self._with((self.index << width) | fresh, self.values * (1 + 0j),
                          self.registers + (reg,))

    def with_holder(self, names: Iterable[str], holder: str) -> "CompositeState":
        wanted = set(names)
        missing = wanted - set(self.names())
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {self.names()}")
        return self._with(self.index, self.values, tuple(
            Register(r.name, r.width, holder) if r.name in wanted else r for r in self.registers))

    def discard(
        self,
        name: str,
        *,
        source: str | None = None,
        table: Sequence[int] | np.ndarray | None = None,
    ) -> "CompositeState":
        """Drop an unentangled register from the layout.

        The register must factor out of the session (reduced purity
        within ATOL_DENSITY of 1), otherwise EntangledRegisterError.
        After an uncompute or a measurement it holds one value, and the
        purity is that row's weight squared; otherwise it is Tr rho**2 of
        the register's partial trace.

        With a source and a table the register is uncomputed first, with
        the bits of apply_xor_oracle(source, name, table) then discard(name).
        """
        if (source is None) != (table is None):
            raise RegisterError("give both a source register and a table, or neither")
        state = self if source is None else self._xor(source, name, table, 0)
        return state._drop(name)

    def _drop(self, name: str) -> "CompositeState":
        shift, width = self._place(name)
        if len(self.registers) == 1:
            raise RegisterError("cannot discard the last register")
        rows = _field(self.index, shift, width)
        if rows.size and (rows == rows[0]).all():
            return self._drop_row(name, shift, width)
        # Several rows: the purity of the register's reduced state. A
        # product state keeps its heaviest row, renormalised.
        purity = float(np.sum(np.abs(self.reduced_density_matrix([name])) ** 2))
        if purity < 1.0 - ATOL_DENSITY:
            raise EntangledRegisterError(name, purity)
        weights = self._born_weights(rows, shift, width)
        pick = int(np.argmax(weights))
        kept = rows == pick
        return self._with(_drop_field(self.index[kept], shift, width),
                          self.values[kept] / math.sqrt(weights[pick]), self._without(name))

    def _drop_row(self, name: str, shift: int, width: int) -> "CompositeState":
        """Drop a register that holds one value in every entry."""
        rest = _drop_field(self.index, shift, width)
        weight = _row_weight(self.values, rest, 1 << shift, self.dim >> width)
        purity = float(weight) ** 2
        if purity < 1.0 - ATOL_DENSITY:
            raise EntangledRegisterError(name, purity)
        return self._with(rest, self.values / math.sqrt(weight), self._without(name))

    def _without(self, name: str) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.name != name)

    # -- unitary operations ---------------------------------------------

    def apply_hadamard(self, name: str) -> "CompositeState":
        """Hadamard on every qubit of a register.

        The entries fill a dense block, a row for each fiber (a value of
        the other registers that holds weight) and a column for each value
        of the register. An in-place butterfly runs along the rows, one
        doubling stage per qubit, then a single 2**(-w/2) rescale.
        """
        shift, width = self._place(name)
        size = 1 << width
        rows = _field(self.index, shift, width)
        single = len(self.registers) == 1
        fibers, at = (np.zeros(1, dtype=np.int64), 0) if single else \
            np.unique(self.index ^ (rows << shift), return_inverse=True)
        a = np.zeros((fibers.size, size), dtype=np.complex128)
        a[at, rows] = self.values
        h = 1
        while h < size:
            a = a.reshape(-1, size // (2 * h), 2, h)
            top = a[:, :, 0].copy()
            a[:, :, 0] = top + a[:, :, 1]
            a[:, :, 1] = top - a[:, :, 1]
            h *= 2
        a = a.reshape(-1, size)
        a /= math.sqrt(size)
        fiber, value = np.nonzero(a)
        index, values = value if single else fibers[fiber] | (value << shift), a[fiber, value]
        if shift:
            order = np.argsort(index)
            index, values = index[order], values[order]
        return self._with(index, values)

    def apply_phase_flip(self, name: str, mask: int) -> "CompositeState":
        """Multiply each |m> of a register by (-1)**(mask . m): a Z gate on
        each qubit of the register whose bit is set in `mask`."""
        shift, width = self._place(name)
        if not 0 <= mask < (1 << width):
            raise RegisterError(f"mask {mask} does not fit in {width} bits")
        if mask == 0:
            return self
        parity = np.bitwise_count(_field(self.index, shift, width) & mask) & 1
        return self._with(self.index, self.values * (1.0 - 2.0 * parity))

    def apply_xor_oracle(
        self,
        src: str,
        dst: str,
        table: Sequence[int] | np.ndarray,
        pad: int = 0,
    ) -> "CompositeState":
        """|m>_src |y>_dst  ->  |m>_src |y XOR table[m] XOR pad>_dst.

        A pure basis permutation: amplitudes are only moved, never
        combined, so applying the same oracle twice restores the state
        bit for bit. Each entry's index is XOR-ed with its offset, and
        the entries are sorted again by a stable sort.
        """
        if src == dst:
            raise RegisterError("oracle source and destination must differ")
        src_shift, src_width = self._place(src)
        shift, width = self._place(dst)
        offsets = _oracle_offsets(src, 1 << src_width, width, table, "pad", pad)
        index = self.index ^ (offsets[_field(self.index, src_shift, src_width)] << shift)
        order = np.argsort(index, kind="stable")
        index = index[order]
        return self._with(index, self.values[order])

    # The same kernel under a private name, which `discard` calls: a wrapper
    # put on the public method, as the benchmark's tracer does, then counts
    # only the oracles a caller applies.
    _xor = apply_xor_oracle

    # -- measurement ----------------------------------------------------

    def measure(
        self, name: str, rng: np.random.Generator, *, discard: bool = False
    ) -> tuple[int, "CompositeState"]:
        """Projective measurement of a register in the computational basis.

        Returns (outcome, collapsed state). The register stays in the
        layout, holding the observed basis value; with `discard` it is
        dropped, with the bits of measure then discard. Sampling draws one
        uniform variate from `rng` and walks the cumulative Born weights,
        so a given stream position always yields the same outcome.
        """
        shift, width = self._place(name)
        if discard and len(self.registers) == 1:
            raise RegisterError("cannot discard the last register")
        rows = _field(self.index, shift, width)
        probs = self._born_weights(rows, shift, width)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise RegisterError(f"probabilities sum to {total!r}; state is not normalised")
        u = rng.random() * total
        acc = 0.0
        for outcome, p in enumerate(probs.tolist()):
            acc += p
            if u < acc:
                break
        else:
            # u landed on the rounding slack past the last cumulative
            # step: take the largest value with any weight at all.
            outcome = int(np.flatnonzero(probs > 0.0)[-1])
        kept = rows == outcome
        state = self._with(self.index[kept], self.values[kept] / math.sqrt(float(probs[outcome])))
        # A register holding one basis value always factors out: its
        # purity is its renormalised weight squared, 1 to rounding.
        return outcome, state._drop_row(name, shift, width) if discard else state

    def _born_weights(self, rows: np.ndarray, shift: int, width: int) -> np.ndarray:
        """The weight of each value of a register whose value in each entry
        is `rows`, with the bits of numpy's sum over the dense row.

        `np.add.at` adds each entry's weight to its row in index order.
        Weights are never negative, so adding a zero leaves a sum as it
        was: that running sum is the weight of a row with one entry, and
        of every row of a last register (shift 0), which numpy's sum over
        the dense row adds up in order. Numpy sums any other row pairwise,
        so a row with several entries is weighed again by `_row_weight`.
        """
        w = np.abs(self.values)
        np.square(w, out=w)
        probs = np.zeros(1 << width)
        np.add.at(probs, rows, w)
        if shift:
            for row in np.flatnonzero(np.bincount(rows) > 1).tolist():
                at = rows == row
                probs[row] = _row_weight(self.values[at], _drop_field(self.index[at], shift, width),
                                         1 << shift, self.dim >> width)
        return probs

    # -- density matrices -----------------------------------------------

    def reduced_density_matrix(self, keep: Iterable[str]) -> np.ndarray:
        """Partial trace down to the registers in `keep`.

        Kept registers appear in layout order, most significant first,
        regardless of the order given. Tracing the full layout returns
        the rank-one projector of the state.

        The state is read as a kept x traced matrix M and the result is
        M M^dagger. When M has at most one nonzero in each row and each
        column, and the amplitudes are all real or all imaginary, that
        product is diagonal and each entry is the square of one float: it
        is returned as its 1-D diagonal, written from the stored entries
        with the bits the product gives (it gives +0.0 elsewhere). Any
        other state takes the dense product, a 2-D matrix.
        """
        wanted = set(keep)
        names = self.names()
        missing = wanted.difference(names)
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {names}")
        if not wanted:
            raise RegisterError("keep set must not be empty")
        # Each entry's row (the bits of the kept registers) and column (the
        # rest), read one run of adjacent kept or traced registers at a time.
        bits = {True: np.zeros_like(self.index), False: np.zeros_like(self.index)}
        shift = self.total_width
        for kept, run in itertools.groupby(self.registers, lambda r: r.name in wanted):
            width = sum(r.width for r in run)
            shift -= width
            bits[kept] = (bits[kept] << width) | _field(self.index, shift, width)
        rows, cols = bits[True], bits[False]
        keep_dim = 1 << sum(r.width for r in self.registers if r.name in wanted)
        re, im = self.values.real, self.values.imag
        v = re if not im.any() else im if not re.any() else None
        # A partial permutation has at most one nonzero in each row and in
        # each column of the kept x traced matrix.
        if v is not None and _distinct(rows) and _distinct(cols):
            diag = np.zeros(keep_dim, dtype=np.complex128)
            diag[rows] = v * v
            return diag
        order = sorted(range(len(names)), key=lambda i: names[i] not in wanted)
        mat = self.amplitudes.reshape([1 << r.width for r in self.registers])
        mat = mat.transpose(order).reshape(keep_dim, -1)
        return mat @ mat.conj().T


def _oracle_offsets(
    src: str | None, size: int, width: int, table, what: str, pad: int
) -> np.ndarray:
    """table[m] XOR pad for each of the `size` source values, checked to fit `width` bits."""
    flat = table.ravel().tolist() if isinstance(table, np.ndarray) else list(table)
    if len(flat) != size or getattr(table, "ndim", 1) != 1:
        raise RegisterError(f"table has {len(flat)} entries, register {src!r} needs {size}")
    if min(flat) < 0 or max(flat) >= (1 << width):
        raise RegisterError(f"table entries must fit in {width} bits")
    if not 0 <= pad < (1 << width):
        raise RegisterError(f"{what} {pad} does not fit in {width} bits")
    return np.array(flat, dtype=np.int64) ^ pad


def _field(index: np.ndarray, shift: int, width: int) -> np.ndarray:
    """The value a register at bit offset `shift` holds in each index."""
    return (index >> shift) & ((1 << width) - 1) if shift else index & ((1 << width) - 1)


def _drop_field(index: np.ndarray, shift: int, width: int) -> np.ndarray:
    """Each index with the register at bit offset `shift` taken out."""
    if not shift:
        return index >> width
    return ((index >> (shift + width)) << shift) | (index & ((1 << shift) - 1))


def _distinct(values: np.ndarray) -> bool:
    return len(set(values.tolist())) == values.size


def _row_weight(values: np.ndarray, rest: np.ndarray, right: int, size: int) -> np.float64:
    """The weight numpy's sum over the dense row gives one row of a
    (left, 2**w, right) view, with the same bits, from the entries at
    places `rest` (ascending) among the row's left * right = `size`
    amplitudes.

    Weights are never negative, so adding a zero leaves a sum as it was:
    a row with one entry, or a last register's row (right == 1), which
    numpy's sum over the dense row adds up in order, is a running sum
    over the entries.
    Numpy sums any other row pairwise, grouped by where each entry sits,
    so its weights are put back in their dense row.
    """
    w = np.abs(values)
    np.square(w, out=w)
    if w.size == 1 or right == 1:
        return np.add.accumulate(w)[-1]
    return np.bincount(rest, w, size).sum()


def init_basis_state(
    layout: Sequence[Register],
    assignment: dict[str, int] | None = None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> CompositeState:
    """Create |v1>|v2>... for an ordered layout and value assignment.

    Unassigned registers start at 0. Total width beyond `qubit_cap` is
    rejected with the arithmetic spelled out.
    """
    regs = tuple(layout)
    if not regs:
        raise RegisterError("layout must contain at least one register")
    names = [r.name for r in regs]
    if len(set(names)) != len(names):
        raise RegisterError(f"duplicate register names in layout {names}")
    total = sum(r.width for r in regs)
    if total > qubit_cap:
        detail = "+".join(str(r.width) for r in regs)
        raise RegisterError(f"layout needs {detail}={total} qubits, cap is {qubit_cap}")
    assignment = dict(assignment or {})
    unknown = set(assignment) - set(names)
    if unknown:
        raise RegisterError(f"assignment names {sorted(unknown)} not in layout {names}")
    index = 0
    for reg in regs:
        value = assignment.get(reg.name, 0)
        if not 0 <= value < (1 << reg.width):
            raise RegisterError(f"value {value} does not fit register {reg.name!r} "
                                f"of width {reg.width}")
        index = (index << reg.width) | value
    state = object.__new__(CompositeState)
    state.registers, state.index, state.values, state.qubit_cap = \
        regs, np.array([index], dtype=np.int64), np.ones(1, dtype=np.complex128), qubit_cap
    return state


# ---------------------------------------------------------------------------
# Density matrices and spectral helpers
# ---------------------------------------------------------------------------


def as_matrix(rho) -> np.ndarray:
    """A density matrix as a 2-D array: a 1-D `rho` is a diagonal, expanded
    with +0.0 elsewhere as the dense product writes it."""
    return np.diag(rho) if np.ndim(rho) == 1 else rho


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by LAPACK's `eigvalsh`.

    `eigvalsh` reads only the lower triangle, so a non-square or
    non-Hermitian input is refused here instead of silently answered.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError(f"matrix is not Hermitian: defect {defect}")
    return np.linalg.eigvalsh(a)


def trace_distance(a, b) -> float:
    """Half the absolute eigenvalue sum of the difference of two states.

    Two real diagonals (1-D) commute: their difference's entries are its
    eigenvalues, summed ascending with `eigvalsh`'s bits unless LAPACK would
    rescale it (all entries below about 1e-146); other pairs take the matrix
    path. Operands are ordered by their raw bytes (diagonals first differ
    where their matrices do), so swapping them runs the identical computation.
    """
    ma, mb = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if ma.ndim != mb.ndim or (ma.ndim == 1 and (ma.imag.any() or mb.imag.any())):
        ma, mb = as_matrix(ma), as_matrix(mb)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    if ma.tobytes() > mb.tobytes():
        ma, mb = mb, ma
    d = ma - mb
    eigs = np.sort(d.real) if d.ndim == 1 else hermitian_eigenvalues(d)
    return 0.5 * float(np.sum(np.abs(eigs)))


def is_maximally_mixed(rho, tol: float = ATOL_DENSITY) -> tuple[bool, float]:
    """Compare against I/dim elementwise; always reports the deviation.
    A 1-D `rho` is a diagonal matrix given as its diagonal: the matrix's
    other gaps are all 0.0, so both forms give the same deviation."""
    m = np.asarray(rho, dtype=np.complex128)
    dim = m.shape[0]
    if m.ndim == 1:
        gap = np.abs(m - 1 / dim)
    else:
        gap = np.abs(m)
        np.fill_diagonal(gap, np.abs(np.diagonal(m) - 1 / dim))
    deviation = float(np.max(gap))
    return deviation <= tol, deviation
