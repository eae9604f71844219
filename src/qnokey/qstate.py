"""Exact state-vector simulation over named qubit registers.

The composite state of a protocol session is a dense complex amplitude
vector over a dynamic, ordered layout of named registers.  The first
register in the layout occupies the most significant bits of a basis
index; within a register, bit i of the stored value is qubit i of that
register.  All operations are pure: they return a new state and never
mutate their input.  Each one works on reshaped views of the register
axes (a `(left, size, right)` view around one register, or a row per
source value for an oracle), so no operation builds a full-length index
array. A fresh register computed from an oracle, |m>|f(m) XOR p>, is
written in the same pass that appends it, with the bits that appending
|p> and then applying the XOR oracle would give. A register is dropped
without building the state that is discarded: uncomputing it gathers
the one row the uncompute leaves, and measuring it keeps only the
observed row, each with the bits of the two steps it replaces.

The partial trace writes its result directly when it is diagonal with
one float's square per entry, as for most channel states the protocols
send (every gate here keeps the amplitudes real); any other state takes
the dense Gram product. Both give the same bits.

Density matrices are plain complex128 arrays. Every spectrum, for trace
distances and for the harness's validity checks, comes from numpy's
`eigvalsh`.
"""

from __future__ import annotations

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

# Floats (real and imaginary parts) the partial trace compares with zero
# at a time while it looks for a diagonal result.
_SCAN_BLOCK = 1 << 16


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


@dataclass(frozen=True)
class CompositeState:
    """Pure state of all live registers.

    Attributes
    ----------
    registers:
        Ordered layout. The first entry owns the most significant bits
        of every basis index.
    amplitudes:
        complex128 vector of length 2**total_width, unit norm.
    qubit_cap:
        Hard limit on total width; operations that would grow the
        layout past it are rejected with the offending arithmetic.
    """

    registers: tuple[Register, ...]
    amplitudes: np.ndarray
    qubit_cap: int = DEFAULT_QUBIT_CAP

    # -- layout helpers -------------------------------------------------

    @property
    def total_width(self) -> int:
        return sum(r.width for r in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_width

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise RegisterError(f"no register named {name!r} in layout {self.names()}")

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def shift(self, name: str) -> int:
        """Bit offset of a register inside a basis index."""
        offset = self.total_width
        for reg in self.registers:
            offset -= reg.width
            if reg.name == name:
                return offset
        raise RegisterError(f"no register named {name!r} in layout {self.names()}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _axis_view(self, name: str) -> np.ndarray:
        """Amplitudes as a (left, value of `name`, right) view."""
        right = 0
        for reg in reversed(self.registers):
            if reg.name == name:
                return self.amplitudes.reshape(-1, 1 << reg.width, 1 << right)
            right += reg.width
        raise RegisterError(f"no register named {name!r} in layout {self.names()}")

    def _oracle_view(
        self, src: str, dst: str, table: Sequence[int] | np.ndarray, pad: int
    ) -> tuple[list[int], np.ndarray, bool]:
        """Checked offsets of an oracle src -> dst, the amplitudes as a
        (before, first, between, second, after) view, and whether the
        source comes first."""
        if src == dst:
            raise RegisterError("oracle source and destination must differ")
        names = self.names()
        for name in (src, dst):
            if name not in names:
                raise RegisterError(f"no register named {name!r} in layout {names}")
        i, j = names.index(src), names.index(dst)
        widths = [r.width for r in self.registers]
        offsets = _oracle_offsets(src, 1 << widths[i], widths[j], table, "pad", pad)
        lo, hi = min(i, j), max(i, j)
        shape = (1 << sum(widths[:lo]), 1 << widths[lo], 1 << sum(widths[lo + 1:hi]),
                 1 << widths[hi], 1 << sum(widths[hi + 1:]))
        return offsets, self.amplitudes.reshape(shape), i < j

    def _without(self, name: str, rest: np.ndarray) -> "CompositeState":
        regs = tuple(r for r in self.registers if r.name != name)
        return CompositeState(regs, rest, self.qubit_cap)

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

        With no source the register holds |value>: the one-row case of
        the same kernel. Each source value m gets a one-hot row over the
        new register's values, set at value XOR table[m], and one multiply
        broadcasts every amplitude against its row. So every slot holds
        the amplitude times 1+0j or times 0j, the bits that appending
        |value> by an outer product and then applying the XOR oracle would
        give, signed zeros included, and the state is read and written
        once.
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
            rows, table = self.amplitudes.reshape(-1, 1, 1), (0,)
        else:
            rows = self._axis_view(source)
        size = rows.shape[1]
        hit = np.zeros((size, 1 << width), dtype=bool)
        hit[np.arange(size), _oracle_offsets(source, size, width, table, "value", value)] = True
        out = np.empty(rows.shape + (1 << width,), dtype=np.complex128)
        np.multiply(rows[..., None], hit[:, None, :], out=out, dtype=np.complex128)
        return CompositeState(self.registers + (reg,), out.reshape(-1), self.qubit_cap)

    def with_holder(self, names: Iterable[str], holder: str) -> "CompositeState":
        wanted = set(names)
        missing = wanted - set(self.names())
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {self.names()}")
        regs = tuple(
            Register(r.name, r.width, holder) if r.name in wanted else r for r in self.registers
        )
        return CompositeState(regs, self.amplitudes, self.qubit_cap)

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
        The purity is taken over the rows of nonzero weight only: a zero
        row adds exact zeros, and after an uncompute or a measurement
        there is one such row, whose purity is its weight squared.

        With a source and a table the register is uncomputed first, with
        the bits of apply_xor_oracle(source, name, table) then discard(name).
        The row the uncompute leaves is gathered straight into the smaller
        state; only when another row would keep weight does it take the
        two steps, so the same states are refused with the same purity.
        """
        if (source is None) != (table is None):
            raise RegisterError("give both a source register and a table, or neither")
        if source is not None:
            return self._uncompute_and_discard(name, source, table)
        view = self._axis_view(name)
        if len(self.registers) == 1:
            raise RegisterError("cannot discard the last register")
        row_weights = _row_weights(view)
        live = np.flatnonzero(row_weights)
        if live.size == 1:
            purity = float(row_weights[live[0]]) ** 2
        else:
            mat = view[:, live, :].transpose(1, 0, 2).reshape(live.size, -1)
            rho = mat @ mat.conj().T
            purity = float(np.sum(np.abs(rho) ** 2).real)
        if purity < 1.0 - ATOL_DENSITY:
            raise EntangledRegisterError(name, purity)
        pick = int(np.argmax(row_weights))
        return self._without(name, view[:, pick, :].ravel() / math.sqrt(row_weights[pick]))

    def _uncompute_and_discard(self, name: str, source: str, table) -> "CompositeState":
        offsets, a, first = self._oracle_view(source, name, table, 0)
        nonzero = self.amplitudes != 0
        # The row the uncompute leaves holds the first nonzero amplitude.
        at = np.unravel_index(int(nonzero.argmax()), a.shape)
        src_at, dst_at = (at[1], at[3]) if first else (at[3], at[1])
        row = int(dst_at) ^ offsets[int(src_at)]
        axis = 3 if first else 1
        rest = np.empty(a.shape[:axis] + a.shape[axis + 1:], dtype=np.complex128)
        for m, k in enumerate(offsets):
            if first:
                rest[:, m] = a[:, m, :, row ^ k]
            else:
                rest[:, :, m] = a[:, row ^ k, :, m]
        weight = _kept_weight(rest.reshape(-1, math.prod(a.shape[axis + 1:])))
        # Every nonzero amplitude is in this row, and it passes the purity check.
        if (np.count_nonzero(rest) == np.count_nonzero(nonzero)
                and float(weight) ** 2 >= 1.0 - ATOL_DENSITY):
            rest /= math.sqrt(weight)
            return self._without(name, rest.reshape(-1))
        return self.apply_xor_oracle(source, name, table).discard(name)

    # -- unitary operations ---------------------------------------------

    def apply_hadamard(self, name: str) -> "CompositeState":
        """Hadamard on every qubit of a register.

        Implemented as an in-place butterfly along the register's axis,
        one doubling stage per qubit, then a single 2**(-w/2) rescale.
        """
        a = self._axis_view(name).copy()
        left, size, right = a.shape
        h = 1
        while h < size:
            a = a.reshape(left, size // (2 * h), 2, h, right)
            top = a[:, :, 0].copy()
            a[:, :, 0] = top + a[:, :, 1]
            a[:, :, 1] = top - a[:, :, 1]
            a = a.reshape(left, size, right)
            h *= 2
        a = a.reshape(self.dim) / math.sqrt(size)
        return CompositeState(self.registers, a, self.qubit_cap)

    def apply_phase_flip(self, name: str, mask: int) -> "CompositeState":
        """Multiply each |m> of a register by (-1)**(mask . m).

        The dot product is the XOR-parity of the bitwise AND, so the
        flip factorises into single-qubit Z gates on the set bits of
        `mask`.
        """
        reg = self.register(name)
        if not 0 <= mask < (1 << reg.width):
            raise RegisterError(f"mask {mask} does not fit in {reg.width} bits")
        if mask == 0:
            return self
        parity = np.bitwise_count(np.arange(1 << reg.width) & mask) & 1
        amps = self._axis_view(name) * (1.0 - 2.0 * parity)[:, None]
        return CompositeState(self.registers, amps.reshape(-1), self.qubit_cap)

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
        bit for bit.  The layout is split into (before, first, between,
        second, after), and each source value's row is gathered along the
        destination axis through a 2**w_dst-entry index.
        """
        offsets, a, first = self._oracle_view(src, dst, table, pad)
        out = np.empty(a.shape, dtype=a.dtype)
        # A source row drops the source axis; the destination axis is then
        # 2 (source first) or 1 (destination first).
        lead, axis = ((slice(None),), 2) if first else ((slice(None),) * 3, 1)
        ys = np.arange(a.shape[3 if first else 1])
        for m, k in enumerate(offsets):
            row = lead + (m,)
            a[row].take(ys ^ k, axis, out[row], "clip")
        return CompositeState(self.registers, out.reshape(-1), self.qubit_cap)

    # -- measurement ----------------------------------------------------

    def measure(
        self, name: str, rng: np.random.Generator, *, discard: bool = False
    ) -> tuple[int, "CompositeState"]:
        """Projective measurement of a register in the computational basis.

        Returns (outcome, collapsed state). The register stays in the
        layout, holding the observed basis value; with `discard` it is
        dropped, with the bits of measure then discard and without
        building the collapsed state. Sampling draws one uniform variate
        from `rng` and walks the cumulative Born weights, so a given
        stream position always yields the same outcome.
        """
        view = self._axis_view(name)
        if discard and len(self.registers) == 1:
            raise RegisterError("cannot discard the last register")
        probs = _row_weights(view)
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
        kept = view[:, outcome, :] / math.sqrt(float(probs[outcome]))
        if discard:
            # A register holding one basis value always factors out: its
            # purity is its renormalised weight squared, 1 to rounding.
            kept /= math.sqrt(_kept_weight(kept))
            return outcome, self._without(name, kept.reshape(-1))
        amps = np.zeros_like(view)
        amps[:, outcome, :] = kept
        return outcome, CompositeState(self.registers, amps.reshape(-1), self.qubit_cap)

    # -- density matrices -----------------------------------------------

    def reduced_density_matrix(self, keep: Iterable[str]) -> np.ndarray:
        """Partial trace down to the registers in `keep`.

        Kept registers appear in layout order, most significant first,
        regardless of the order given. Tracing the full layout returns
        the rank-one projector of the state.

        The state is read as a kept x traced matrix M and the result is
        M M^dagger. When M has at most one nonzero in each row and each
        column, and no amplitude has both a real and an imaginary part,
        that product is diagonal and each entry is the square of one
        float: it is written directly, with the bits the product gives.
        The check scans the amplitudes in fixed-size blocks and stops
        once there are more nonzeros than such an M can hold. Any other
        state takes the dense product.
        """
        wanted = set(keep)
        names = self.names()
        missing = wanted.difference(names)
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {names}")
        if not wanted:
            raise RegisterError("keep set must not be empty")
        shape = [1 << r.width for r in self.registers]
        kept = [i for i, name in enumerate(names) if name in wanted]
        order = kept + [i for i, name in enumerate(names) if name not in wanted]
        amps = self.amplitudes
        keep_dim = math.prod(shape[i] for i in kept)
        traced_dim = amps.size // keep_dim
        parts = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
        # A partial permutation has at most one nonzero in each row and in
        # each column of the kept x traced matrix.
        hits = _nonzero_parts(parts, min(keep_dim, traced_dim))
        if hits is not None:
            coords = np.unravel_index(hits >> 1, shape)
            at = np.ravel_multi_index([coords[i] for i in order], [shape[i] for i in order])
            rows, cols = np.divmod(at, traced_dim)
            # Distinct rows also mean that no amplitude has two nonzero parts,
            # so each diagonal entry is the square of one float, which is
            # the Gram product's value bit for bit.
            if _distinct(rows) and _distinct(cols):
                v = parts[hits]
                # Every entry is written, as the dense product writes it. A
                # calloc'd matrix with only its diagonal touched is resident
                # page by page, and once freed, that partly resident block
                # can stay in the heap, so the process's resident size would
                # depend on which sessions ran before.
                rho = np.full((keep_dim, keep_dim), 0.0, dtype=np.complex128)
                rho[rows, rows] = v * v
                return rho
        mat = amps.reshape(shape).transpose(order).reshape(keep_dim, traced_dim)
        return mat @ mat.conj().T


def _oracle_offsets(
    src: str | None, size: int, width: int, table, what: str, pad: int
) -> list[int]:
    """table[m] XOR pad for each of the `size` source values, checked to fit `width` bits."""
    flat = table.ravel().tolist() if isinstance(table, np.ndarray) else list(table)
    if len(flat) != size or getattr(table, "ndim", 1) != 1:
        raise RegisterError(f"table has {len(flat)} entries, register {src!r} needs {size}")
    if min(flat) < 0 or max(flat) >= (1 << width):
        raise RegisterError(f"table entries must fit in {width} bits")
    if not 0 <= pad < (1 << width):
        raise RegisterError(f"{what} {pad} does not fit in {width} bits")
    return [t ^ pad for t in flat]


def _distinct(values: np.ndarray) -> bool:
    return len(set(values.tolist())) == values.size


def _nonzero_parts(parts: np.ndarray, limit: int) -> np.ndarray | None:
    """Indices of the nonzero entries of `parts`, in order; None past `limit`.

    The entries are compared with zero one fixed-size block at a time, so
    no mask with an entry per amplitude is built, and a state with too
    many nonzeros stops early.
    """
    size = min(parts.size, _SCAN_BLOCK)
    found, count = [], 0
    for start in range(0, parts.size, size):
        hits = np.flatnonzero(parts[start:start + size] != 0.0)
        count += hits.size
        if count > limit:
            return None
        found.append(hits + start)
    return np.concatenate(found)


def _row_weights(view: np.ndarray) -> np.ndarray:
    """Weight of each middle index of a (left, size, right) view.

    The same bits as np.sum(np.abs(mat) ** 2, axis=1) over the
    contiguous (size, left * right) partition, which `view` would copy
    whole: here only the float magnitudes are rearranged.
    """
    w = np.abs(view)
    np.square(w, out=w)
    return w.transpose(1, 0, 2).reshape(view.shape[1], -1).sum(axis=1)


def _kept_weight(row: np.ndarray) -> np.float64:
    """The weight `_row_weights` gives one row of a (left, size, right)
    view, from that (left, right) row alone, with the same bits.

    For a register that is not last, `_row_weights` copies each row into
    a contiguous line, which numpy sums pairwise. For the last register
    (right == 1) it sums a strided view, and numpy adds each row's
    entries in order, as a running sum does.
    """
    w = np.abs(row)
    np.square(w, out=w)
    return np.add.accumulate(w.ravel())[-1] if row.shape[1] == 1 else w.sum()


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
    amps = np.zeros(1 << total, dtype=np.complex128)
    amps[index] = 1.0
    return CompositeState(regs, amps, qubit_cap=qubit_cap)


# ---------------------------------------------------------------------------
# Density matrices and spectral helpers
# ---------------------------------------------------------------------------


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

    Symmetric by construction: the operands are ordered canonically by
    their raw bytes before subtracting, so swapping the arguments runs
    the identical computation.
    """
    ma, mb = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    if ma.tobytes() > mb.tobytes():
        ma, mb = mb, ma
    eigs = hermitian_eigenvalues(ma - mb)
    return 0.5 * float(np.sum(np.abs(eigs)))


def is_maximally_mixed(rho, tol: float = ATOL_DENSITY) -> tuple[bool, float]:
    """Compare against I/dim elementwise; always reports the deviation."""
    m = np.asarray(rho, dtype=np.complex128)
    dim = m.shape[0]
    gap = np.abs(m)
    np.fill_diagonal(gap, np.abs(np.diagonal(m) - 1 / dim))
    deviation = float(np.max(gap))
    return deviation <= tol, deviation
