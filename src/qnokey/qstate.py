"""Exact state-vector simulation over named qubit registers.

The composite state of a protocol session is a dense complex amplitude
vector over a dynamic, ordered layout of named registers.  The first
register in the layout occupies the most significant bits of a basis
index; within a register, bit i of the stored value is qubit i of that
register.  All operations are pure: they return a new state and never
mutate their input.

Density matrices produced here are plain dense arrays wrapped in a thin
type that knows how to validate itself (Hermitian, unit trace, spectrum
bounded below).  Every spectrum, for validation and for trace
distances, comes from numpy's `eigvalsh`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
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


class Holder(str, enum.Enum):
    """Who currently holds a register."""

    ALICE = "alice"
    BOB = "bob"
    EVE = "eve"


@dataclass(frozen=True)
class Register:
    """A named block of qubits inside the composite layout."""

    name: str
    width: int
    holder: Holder = Holder.ALICE

    def __post_init__(self):
        if self.width < 1:
            raise RegisterError(f"register {self.name!r} needs width >= 1, got {self.width}")


def _require_unit_norm(amplitudes: np.ndarray) -> None:
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > ATOL_STATE:
        raise RegisterError(f"state norm {norm!r} differs from 1 beyond {ATOL_STATE}")


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

    def _values(self, name: str) -> np.ndarray:
        """Register value of every basis index, as an int64 vector."""
        reg = self.register(name)
        sh = self.shift(name)
        idx = np.arange(self.dim, dtype=np.int64)
        return (idx >> sh) & ((1 << reg.width) - 1)

    # -- layout-changing operations -------------------------------------

    def extend(self, name: str, width: int, holder: Holder, value: int = 0) -> "CompositeState":
        """Append a fresh register initialised to a basis value."""
        if any(r.name == name for r in self.registers):
            raise RegisterError(f"register name {name!r} already in use")
        new_width = self.total_width + width
        if new_width > self.qubit_cap:
            raise RegisterError(
                f"adding {name!r} needs {self.total_width}+{width}={new_width} qubits, "
                f"cap is {self.qubit_cap}"
            )
        if not 0 <= value < (1 << width):
            raise RegisterError(f"value {value} does not fit in {width} bits")
        tail = np.zeros(1 << width, dtype=np.complex128)
        tail[value] = 1.0
        amps = np.kron(self.amplitudes, tail)
        regs = self.registers + (Register(name, width, holder),)
        return replace(self, registers=regs, amplitudes=amps)

    def with_holder(self, names: Iterable[str], holder: Holder) -> "CompositeState":
        wanted = set(names)
        missing = wanted - set(self.names())
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {self.names()}")
        regs = tuple(
            replace(r, holder=holder) if r.name in wanted else r for r in self.registers
        )
        return replace(self, registers=regs)

    def discard(self, name: str) -> "CompositeState":
        """Drop an unentangled register from the layout.

        The register must factor out of the session (reduced purity
        within ATOL_DENSITY of 1), otherwise EntangledRegisterError.
        """
        reg = self.register(name)
        if len(self.registers) == 1:
            raise RegisterError("cannot discard the last register")
        mat = self._partition(name)          # rows: register value, cols: rest
        rho = mat @ mat.conj().T
        purity = float(np.sum(np.abs(rho) ** 2).real)
        if purity < 1.0 - ATOL_DENSITY:
            raise EntangledRegisterError(name, purity)
        row_weights = np.sum(np.abs(mat) ** 2, axis=1)
        pick = int(np.argmax(row_weights))
        rest = mat[pick, :] / math.sqrt(row_weights[pick])
        regs = tuple(r for r in self.registers if r.name != name)
        return replace(self, registers=regs, amplitudes=np.ascontiguousarray(rest))

    def _partition(self, name: str) -> np.ndarray:
        """Reshape amplitudes to (value of `name`, everything else)."""
        order = [r.name for r in self.registers]
        axis = order.index(name)
        shape = [1 << r.width for r in self.registers]
        arr = self.amplitudes.reshape(shape)
        arr = np.moveaxis(arr, axis, 0)
        return arr.reshape(shape[axis], -1)

    # -- unitary operations ---------------------------------------------

    def apply_hadamard(self, name: str) -> "CompositeState":
        """Hadamard on every qubit of a register.

        Implemented as an in-place butterfly along the register's axis,
        one doubling stage per qubit, then a single 2**(-w/2) rescale.
        """
        reg = self.register(name)
        sh = self.shift(name)
        size = 1 << reg.width
        left = self.dim // (size << sh)
        right = 1 << sh
        a = self.amplitudes.reshape(left, size, right).copy()
        h = 1
        while h < size:
            a = a.reshape(left, size // (2 * h), 2, h, right)
            top = a[:, :, 0].copy()
            a[:, :, 0] = top + a[:, :, 1]
            a[:, :, 1] = top - a[:, :, 1]
            a = a.reshape(left, size, right)
            h *= 2
        a = a.reshape(self.dim) / math.sqrt(size)
        return replace(self, amplitudes=a)

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
        vals = self._values(name)
        parity = np.zeros(self.dim, dtype=np.int64)
        bit = 0
        m = mask
        while m:
            if m & 1:
                parity ^= (vals >> bit) & 1
            m >>= 1
            bit += 1
        amps = self.amplitudes * (1.0 - 2.0 * parity)
        return replace(self, amplitudes=amps)

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
        bit for bit.
        """
        if src == dst:
            raise RegisterError("oracle source and destination must differ")
        sreg, dreg = self.register(src), self.register(dst)
        tab = np.asarray(table, dtype=np.int64)
        if tab.shape != (1 << sreg.width,):
            raise RegisterError(
                f"table has {tab.size} entries, register {src!r} needs {1 << sreg.width}"
            )
        if tab.size and (tab.min() < 0 or tab.max() >= (1 << dreg.width)):
            raise RegisterError(f"table entries must fit in {dreg.width} bits")
        if not 0 <= pad < (1 << dreg.width):
            raise RegisterError(f"pad {pad} does not fit in {dreg.width} bits")
        src_vals = self._values(src)
        delta = tab[src_vals] ^ pad
        perm = np.arange(self.dim, dtype=np.int64) ^ (delta << self.shift(dst))
        return replace(self, amplitudes=self.amplitudes[perm])

    # -- measurement ----------------------------------------------------

    def measure(self, name: str, rng: np.random.Generator) -> tuple[int, "CompositeState"]:
        """Projective measurement of a register in the computational basis.

        Returns (outcome, collapsed state). The register stays in the
        layout, holding the observed basis value. Sampling draws one
        uniform variate from `rng` and walks the cumulative Born
        weights, so a given stream position always yields the same
        outcome.
        """
        mat = self._partition(name)
        probs = np.sum(np.abs(mat) ** 2, axis=1)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise RegisterError(f"probabilities sum to {total!r}; state is not normalised")
        u = rng.random() * total
        acc = 0.0
        # Fallback for u landing on the rounding slack past the last
        # cumulative step: the largest value with any weight at all.
        outcome = int(np.argwhere(probs > 0.0).max())
        for k, p in enumerate(probs):
            acc += float(p)
            if u < acc:
                outcome = k
                break
        vals = self._values(name)
        amps = np.where(vals == outcome, self.amplitudes, 0.0)
        amps = amps / math.sqrt(float(probs[outcome]))
        return outcome, replace(self, amplitudes=amps)

    # -- density matrices -----------------------------------------------

    def reduced_density_matrix(self, keep: Iterable[str]) -> "DensityMatrix":
        """Partial trace down to the registers in `keep`.

        Kept registers appear in layout order, most significant first,
        regardless of the order given. Tracing the full layout returns
        the rank-one projector of the state.
        """
        wanted = set(keep)
        missing = wanted - set(self.names())
        if missing:
            raise RegisterError(f"no register named {sorted(missing)} in layout {self.names()}")
        if not wanted:
            raise RegisterError("keep set must not be empty")
        shape = [1 << r.width for r in self.registers]
        kept_axes = [i for i, r in enumerate(self.registers) if r.name in wanted]
        traced_axes = [i for i, r in enumerate(self.registers) if r.name not in wanted]
        arr = self.amplitudes.reshape(shape)
        arr = np.transpose(arr, kept_axes + traced_axes)
        keep_dim = int(np.prod([shape[i] for i in kept_axes]))
        mat = arr.reshape(keep_dim, -1)
        return DensityMatrix(mat @ mat.conj().T)


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


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix with self-checks.

    Invariants (within ATOL_DENSITY): Hermitian, trace one, eigenvalues
    bounded below by -ATOL_DENSITY.  `validate` enforces them; plain
    construction does not, so intermediate arithmetic stays cheap.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(hermitian_eigenvalues(self.matrix)[0])

    def validate(self, tol: float = ATOL_DENSITY) -> "DensityMatrix":
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        defect = self.hermiticity_defect()
        if defect > tol:
            raise ValueError(f"hermiticity defect {defect} exceeds {tol}")
        tr = np.trace(m)
        if abs(tr - 1.0) > tol:
            raise ValueError(f"trace {tr} differs from 1 beyond {tol}")
        low = self.min_eigenvalue()
        if low < -tol:
            raise ValueError(f"eigenvalue {low} below -{tol}")
        return self


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=np.complex128)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by LAPACK's `eigvalsh`.

    `eigvalsh` reads only the lower triangle, so a non-square or
    non-Hermitian input is refused here instead of silently answered.
    """
    a = np.asarray(_as_matrix(matrix), dtype=np.complex128)
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
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    if ma.tobytes() > mb.tobytes():
        ma, mb = mb, ma
    eigs = hermitian_eigenvalues(ma - mb)
    return 0.5 * float(np.sum(np.abs(eigs)))


def is_maximally_mixed(rho, tol: float = ATOL_DENSITY) -> tuple[bool, float]:
    """Compare against I/dim elementwise; always reports the deviation."""
    m = _as_matrix(rho)
    dim = m.shape[0]
    deviation = float(np.max(np.abs(m - np.eye(dim) / dim)))
    return deviation <= tol, deviation
