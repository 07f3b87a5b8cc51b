"""Dense complex linear algebra for small qubit registers.

Everything is stored as full complex128 arrays.  The qubit convention is
big-endian and used throughout the package: qubit 0 is the most significant
bit of the basis index, so the basis state |q0 q1 ... q_{n-1}> lives at
index sum_k q_k * 2**(n-1-k).

All objects are immutable after construction (arrays are marked read-only)
and every operation is a pure function of its inputs, so values can be
shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

MAX_PURE_QUBITS = 20
MAX_DENSE_QUBITS = 12

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
SPECTRUM_CUTOFF = 1e-12
PROJECTOR_TOL = 1e-10


def _readonly(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _qubits_for_dim(dim: int, what: str) -> int:
    n = int(round(math.log2(dim))) if dim > 0 else -1
    if n < 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return n


def check_qubits(indices: Iterable[int], width: int) -> tuple[int, ...]:
    """Validate a qubit index collection against a register width.

    Returns the indices as a tuple (order preserved).  Raises ValueError on
    out-of-range entries or duplicates.
    """
    out = tuple(int(q) for q in indices)
    for q in out:
        if q < 0 or q >= width:
            raise ValueError(f"qubit index {q} outside register of width {width}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate qubit indices in {out}")
    return out


def _check_pure_qubits(num_qubits: int) -> int:
    n = int(num_qubits)
    if n < 1 or n > MAX_PURE_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_PURE_QUBITS}, got {n}")
    return n


def _check_dense_qubits(num_qubits: int) -> int:
    n = int(num_qubits)
    if n < 1 or n > MAX_DENSE_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_DENSE_QUBITS}, got {n}")
    return n


def _norm_sq(amplitudes: np.ndarray) -> float:
    """Squared 2-norm of a complex vector (NaN if any entry is NaN)."""
    return float(np.vdot(amplitudes, amplitudes).real)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over ``num_qubits`` qubits.

    Invariants checked at construction: the amplitude count is exactly
    ``2**num_qubits`` (at most 20 qubits) and the squared norm is 1 within
    1e-10 (so no entry is NaN or infinite).  States the package derives
    from valid states (``apply``, ``tensor_product``, ``bloch_state``) are
    normalized by construction and skip the copy and the check through
    ``_trusted``.
    """

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        n = _check_pure_qubits(self.num_qubits)
        if amps.size != 2**n:
            raise ValueError(
                f"expected {2**n} amplitudes for {n} qubits, got {amps.size}"
            )
        norm_sq = _norm_sq(amps)
        if not (abs(norm_sq - 1.0) <= NORM_TOL):
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray, num_qubits: int) -> "PureState":
        """Wrap a state that is normalized by construction, without copy or checks.

        ``amplitudes`` must be a complex vector of ``2**num_qubits`` entries
        that the caller has just allocated; it is taken over and marked
        read-only in place.
        """
        amplitudes.setflags(write=False)
        psi = object.__new__(cls)
        object.__setattr__(psi, "amplitudes", amplitudes)
        object.__setattr__(psi, "num_qubits", num_qubits)
        return psi

    @classmethod
    def from_amplitudes(cls, values) -> "PureState":
        arr = np.asarray(values, dtype=complex).reshape(-1)
        return cls(arr, _qubits_for_dim(arr.size, "state"))

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "PureState":
        """Computational basis state |index> on ``num_qubits`` qubits."""
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, num_qubits)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "PureState":
        """Basis state from a bit list, qubit 0 first (big-endian)."""
        n = len(bits)
        index = 0
        for b in bits:
            index = (index << 1) | (int(b) & 1)
        return cls.basis(n, index)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density_matrix(self) -> "DensityMatrix":
        """|psi><psi|, kept as the amplitudes until its ``elements`` are read.

        The 12-qubit density cap is checked here, before anything is built.
        """
        # |psi><psi| of a normalized psi is exactly Hermitian, unit-trace and rank one.
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "num_qubits", _check_dense_qubits(self.num_qubits))
        object.__setattr__(rho, "_amplitudes", self.amplitudes)
        return rho

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in overlap")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PureState(num_qubits={self.num_qubits})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive operator on a qubit register.

    Validation happens once, at the boundary.  A matrix from outside the
    package is copied and checked in full at every size: Hermiticity and
    trace within 1e-10, and all eigenvalues >= -1e-8 (an O(d^3)
    decomposition, seconds at 11-12 qubits).  States the package derives
    from valid states (``partial_trace``, ``tensor_product``, dephasing and
    the record registers) are valid by construction and skip the checks
    through ``_trusted``.

    ``PureState.to_density_matrix`` skips them too, and keeps the state's
    read-only amplitudes instead of the 4^n matrix: ``elements`` is built
    from them on first read, and ``partial_trace`` works on them without
    building it at all.
    """

    elements: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.elements, dtype=complex))
        n = _check_dense_qubits(self.num_qubits)
        d = 2**n
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {mat.shape}")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if not (herm_defect <= HERMITICITY_TOL):
            raise ValueError(f"matrix not Hermitian: defect {herm_defect!r}")
        tr = complex(np.trace(mat))
        if not (abs(tr - 1.0) <= TRACE_TOL):
            raise ValueError(f"trace must be 1, got {tr!r}")
        low = float(np.min(np.linalg.eigvalsh(mat)))
        if not (low >= EIGENVALUE_FLOOR):
            raise ValueError(f"operator not positive: eigenvalue {low!r}")
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "num_qubits", n)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: ``elements`` of a rank-one
        # state not yet read.  A racing first read may build a second, equal
        # array; setdefault keeps one of them for every reader.
        amps = self.__dict__.get("_amplitudes") if name == "elements" else None
        if amps is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = np.outer(amps, amps.conj())
        mat.setflags(write=False)
        return self.__dict__.setdefault("elements", mat)

    @classmethod
    def _trusted(cls, elements: np.ndarray, num_qubits: int) -> "DensityMatrix":
        """Wrap a state that is valid by construction, without copy or checks.

        ``elements`` must be an array the caller has just allocated from
        valid states; it is taken over and marked read-only in place.
        """
        mat = np.asarray(elements, dtype=complex)
        n = _check_dense_qubits(num_qubits)
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "elements", mat)
        object.__setattr__(rho, "num_qubits", n)
        return rho

    @classmethod
    def from_matrix(cls, values) -> "DensityMatrix":
        mat = np.asarray(values, dtype=complex)
        return cls(mat, _qubits_for_dim(mat.shape[0], "density matrix"))

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        d = 2 ** _check_dense_qubits(num_qubits)
        return cls(np.eye(d, dtype=complex) / d, num_qubits)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order."""
        return np.linalg.eigvalsh(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(num_qubits={self.num_qubits})"


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent operator (P^2 = P within 1e-10)."""

    elements: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.elements, dtype=complex))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projector must be square, got shape {mat.shape}")
        if not (float(np.max(np.abs(mat - mat.conj().T))) <= PROJECTOR_TOL):
            raise ValueError("projector not Hermitian")
        if not (float(np.max(np.abs(mat @ mat - mat))) <= PROJECTOR_TOL):
            raise ValueError("projector not idempotent")
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "rank", int(self.rank))

    @classmethod
    def from_matrix(cls, values) -> "Projector":
        mat = np.asarray(values, dtype=complex)
        rank = int(round(float(np.trace(mat).real)))
        return cls(mat, rank)

    @classmethod
    def onto_vector(cls, vector) -> "Projector":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValueError("cannot project onto the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), 1)

    @classmethod
    def onto_basis_states(cls, dim: int, indices: Iterable[int]) -> "Projector":
        """Sum of |k><k| over the given computational-basis labels."""
        idx = sorted(set(int(k) for k in indices))
        mat = np.zeros((dim, dim), dtype=complex)
        for k in idx:
            if k < 0 or k >= dim:
                raise ValueError(f"basis label {k} outside dimension {dim}")
            mat[k, k] = 1.0
        return cls(mat, len(idx))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(np.eye(dim, dtype=complex), dim)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dim, dtype=complex) - self.elements, self.dim - self.rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Projector(dim={self.dim}, rank={self.rank})"


StateLike = Union[PureState, DensityMatrix]


def tensor_product(a: StateLike, b: StateLike) -> StateLike:
    """Kronecker composition of two states of the same kind.

    The result carries a's qubits first (most significant), then b's.  The
    register cap is checked before anything is built.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        n = _check_pure_qubits(a.num_qubits + b.num_qubits)
        return PureState._trusted(np.kron(a.amplitudes, b.amplitudes), n)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        n = _check_dense_qubits(a.num_qubits + b.num_qubits)
        return DensityMatrix._trusted(np.kron(a.elements, b.elements), n)
    raise TypeError("tensor_product requires two PureStates or two DensityMatrices")


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    ``keep`` fixes the qubit order of the result, so it can also be used to
    permute subsystems.  The trace is preserved exactly up to rounding.
    A state from ``PureState.to_density_matrix`` is reduced from its
    amplitudes as M M^H, M the (2^k, 2^(n-k)) amplitude matrix with the kept
    qubits first: O(2^n 2^k) work and nothing of size 4^n.
    """
    keep_t = check_qubits(keep, rho.num_qubits)
    if not keep_t:
        raise ValueError("keep-set must be nonempty")
    n = rho.num_qubits
    amps = rho.__dict__.get("_amplitudes")
    if amps is not None:
        rest = [q for q in range(n) if q not in keep_t]
        m = amps.reshape((2,) * n).transpose(keep_t + tuple(rest)).reshape(2 ** len(keep_t), -1)
        # The entrywise products of np.outer, summed, not a BLAS product: an
        # entry with at most two nonzero terms (a premeasurement register) then
        # gets the very value the full matrix gives, and CLI output its bytes.
        reduced = (m[:, None, :] * m.conj()[None, :, :]).sum(axis=-1)
        return DensityMatrix._trusted(reduced, len(keep_t))
    tensor = rho.elements.reshape((2,) * (2 * n))
    in_idx = list(range(2 * n))
    for q in range(n):
        if q not in keep_t:
            in_idx[n + q] = q
    out_idx = [q for q in keep_t] + [n + q for q in keep_t]
    d = 2 ** len(keep_t)
    reduced = np.einsum(tensor, in_idx, out_idx).reshape(d, d)
    # With nothing traced out einsum returns a view, which stays one when the order is kept.
    if np.may_share_memory(reduced, rho.elements):
        reduced = reduced.copy()
    return DensityMatrix._trusted(reduced, len(keep_t))


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    """Shannon entropy in bits of a spectrum, ignoring weights below 1e-12.

    Eigenvalues in [-1e-8, 0) are clipped to zero; anything more negative is
    an invariant violation and raises.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    low = float(eigs.min()) if eigs.size else 0.0
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"spectrum not positive: eigenvalue {low!r}")
    kept = eigs[eigs > SPECTRUM_CUTOFF]
    if kept.size == 0:
        return 0.0
    # An eigenvalue within rounding of 1 may overshoot it and push the sum
    # a few ulp below zero; the entropy is nonnegative by definition.
    return max(0.0, float(-np.sum(kept * np.log2(kept))))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -Tr(rho log2 rho), in bits."""
    return _entropy_bits(rho.eigenvalues())


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 2**-n for the maximally mixed state."""
    # For Hermitian rho, Tr(rho^2) = sum |rho_ij|^2.
    return float(np.sum(np.abs(rho.elements) ** 2))


def born_probability(rho: DensityMatrix, projector: Projector) -> float:
    """Outcome probability Tr(P rho) for a projective event.

    Additive over orthogonal projectors; the result is clamped into [0, 1]
    only within a 1e-9 numerical margin and raises beyond it.
    """
    if projector.dim != rho.dim:
        raise ValueError(
            f"projector dimension {projector.dim} does not match state dimension {rho.dim}"
        )
    value = float(np.real(np.einsum("ij,ji->", projector.elements, rho.elements)))
    if value < -1e-9 or value > 1.0 + 1e-9:
        raise ValueError(f"Born probability {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))
