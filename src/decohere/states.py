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
from dataclasses import dataclass, field
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
    _require(n >= 0 and 2**n == dim, "{} dimension {} is not a power of two", what, dim)
    return n


def check_qubits(indices: Iterable[int], width: int) -> tuple[int, ...]:
    """Validate a qubit index collection against a register width.

    Returns the indices as a tuple (order preserved).  Raises ValueError on
    out-of-range entries or duplicates.
    """
    out = tuple(_integer(q, "qubit index") for q in indices)
    for q in out:
        if q < 0 or q >= width:
            raise ValueError(f"qubit index {q} outside register of width {width}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate qubit indices in {out}")
    return out


def _require(ok, message: str, *args, error: type = ValueError) -> None:
    """Raise ``error(message.format(*args))`` unless ``ok``.

    Every tolerance and range check on outside data goes through here.  The
    condition is written in positive form (``defect <= TOL``, ``t >= 0``),
    so a NaN anywhere in it fails the check; the message is formatted only
    on failure.
    """
    if not ok:
        raise error(message.format(*args))


def _integer(value, what: str) -> int:
    """``value`` as an int; integral floats (2.0) and numpy ints pass, 2.5, NaN and inf raise."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    _require(n is not None and n == value, "{} must be an integer, got {!r}", what, value)
    return n


def _check_register(num_qubits: int, cap: int) -> int:
    """Register width as an int in 1..cap (``MAX_PURE_QUBITS`` or ``MAX_DENSE_QUBITS``)."""
    n = _integer(num_qubits, "num_qubits")
    _require(1 <= n <= cap, "num_qubits must be in 1..{}, got {}", cap, n)
    return n


def _trusted(cls, name: str, array: np.ndarray, **fields):
    """An instance of ``cls`` with ``array`` as its field ``name``: no copy, no checks.

    Only for values valid by construction.  ``array`` is taken over and
    marked read-only in place, so the caller must have just allocated it
    (or it is read-only already); ``fields`` give the other attributes.
    """
    array.setflags(write=False)
    obj = object.__new__(cls)
    attrs = obj.__dict__
    attrs[name] = array
    attrs.update(fields)
    return obj


def _square(values, message: str) -> np.ndarray:
    """A read-only complex copy of ``values``, checked to be a nonempty square matrix."""
    mat = _readonly(values)
    _require(mat.ndim == 2 and 0 < mat.shape[0] == mat.shape[1], message, mat.shape)
    return mat


def _hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^H|; NaN if M holds a NaN.

    For Hermitian A and B, BA = (AB)^H, so the defect of AB is their commutator's.
    """
    return float(np.abs(mat - mat.conj().T).max())


def _frame_defect(frame: np.ndarray) -> float:
    """max |W^H W - 1|, 0 when the columns of W are orthonormal; NaN if W holds a NaN."""
    return float(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])).max())


def _norm_sq(amplitudes: np.ndarray) -> float:
    """Squared 2-norm of a complex vector (NaN if any entry is NaN)."""
    return float(np.vdot(amplitudes, amplitudes).real)


def _check_normalized(amplitudes: np.ndarray) -> None:
    """Raise unless |psi|^2 is 1 within 1e-10 (so no entry is NaN or infinite)."""
    norm_sq = _norm_sq(amplitudes)
    _require(abs(norm_sq - 1.0) <= NORM_TOL, "state not normalized: |psi|^2 = {!r}", norm_sq)


def _expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr(op rho) as Re Tr(rho^H op), in one O(d^2) pass: exact if op or rho is Hermitian."""
    return float(np.vdot(rho, op).real)


def _entropies_from_spectra(spectra: Sequence[np.ndarray]) -> np.ndarray:
    """Entropies in bits; ``spectra[k]`` is the k-th eigenvalue of every state (1-D for one).

    Weights at or below 1e-12 are ignored; an eigenvalue below -1e-8 means
    the evolution lost positivity and raises.
    """
    low = math.inf
    total = np.zeros(np.shape(spectra[0]))
    for eigs in spectra:
        low = np.minimum(low, eigs.min())  # NaN, once any eigenvalue is NaN
        terms = np.where(eigs > SPECTRUM_CUTOFF, eigs, 1.0)
        np.log2(terms, out=terms)
        terms *= eigs
        total -= terms
    message = "evolved state lost positivity: eigenvalue {!r}"
    _require(low >= EIGENVALUE_FLOOR, message, float(low))
    # An eigenvalue a few ulp above 1 can push a sum just below zero.
    return np.maximum(total, 0.0, out=total)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over ``num_qubits`` qubits.

    Invariants checked at construction: the amplitude count is exactly
    ``2**num_qubits`` (at most 20 qubits) and the squared norm is 1 within
    1e-10 (so no entry is NaN or infinite).  ``basis`` and the states the
    package derives from valid states (``apply``, ``tensor_product``,
    ``bloch_state``) are normalized by construction and skip the copy and
    the check through ``_trusted``.
    """

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        n = _check_register(self.num_qubits, MAX_PURE_QUBITS)
        d = 2**n
        _require(amps.size == d, "expected {} amplitudes for {} qubits, got {}", d, n, amps.size)
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    @classmethod
    def from_amplitudes(cls, values) -> "PureState":
        arr = np.asarray(values, dtype=complex).reshape(-1)
        return cls(arr, _qubits_for_dim(arr.size, "state"))

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "PureState":
        """Computational basis state |index> on ``num_qubits`` qubits, 0 <= index < 2^n."""
        n = _check_register(num_qubits, MAX_PURE_QUBITS)
        index = _integer(index, "basis index")
        _require(0 <= index < 2**n, "basis index {} outside 0..{}", index, 2**n - 1)
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return _trusted(cls, "amplitudes", amps, num_qubits=n)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "PureState":
        """Basis state from a list of 0/1 bits, qubit 0 first (big-endian)."""
        _require(all(b in (0, 1) for b in bits), "bits must be 0 or 1, got {}", list(bits))
        index = 0
        for b in bits:
            index = (index << 1) | int(b)
        return cls.basis(len(bits), index)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density_matrix(self) -> "DensityMatrix":
        """|psi><psi|, kept as the amplitudes until its ``elements`` are read.

        The 12-qubit density cap is checked here, before anything is built.
        """
        # |psi><psi| is rank one, and Hermitian and unit-trace within the
        # tolerances the constructor checks, not exactly: np.outer leaves
        # rounding defects, and the trace is |psi|^2 only within NORM_TOL.
        n = _check_register(self.num_qubits, MAX_DENSE_QUBITS)
        return _trusted(DensityMatrix, "_amplitudes", self.amplitudes, num_qubits=n)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        _require(other.dim == self.dim, "dimension mismatch in overlap")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PureState(num_qubits={self.num_qubits})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive operator on a qubit register.

    Validation happens once, at the boundary.  A matrix from outside the
    package is copied and checked in full at every size: Hermiticity and
    trace within 1e-10, and all eigenvalues >= -1e-8 (an O(d^3)
    decomposition, seconds at 11-12 qubits).  ``maximally_mixed`` and the
    states the package derives from valid states (``partial_trace``,
    ``tensor_product``, dephasing and the record registers) are valid by
    construction and skip the checks through ``_trusted``.

    ``PureState.to_density_matrix`` skips them too, and keeps the state's
    read-only amplitudes instead of the 4^n matrix: ``elements`` is built
    from them on first read, and ``partial_trace`` works on them without
    building it at all.
    """

    elements: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        mat = _readonly(self.elements)
        n = _check_register(self.num_qubits, MAX_DENSE_QUBITS)
        d = 2**n
        _require(mat.shape == (d, d), "expected a {0}x{0} matrix, got shape {1}", d, mat.shape)
        herm_defect = _hermiticity_defect(mat)
        _require(herm_defect <= HERMITICITY_TOL, "matrix not Hermitian: defect {!r}", herm_defect)
        tr = complex(np.trace(mat))
        _require(abs(tr - 1.0) <= TRACE_TOL, "trace must be 1, got {!r}", tr)
        low = float(np.min(np.linalg.eigvalsh(mat)))
        _require(low >= EIGENVALUE_FLOOR, "operator not positive: eigenvalue {!r}", low)
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
    def from_matrix(cls, values) -> "DensityMatrix":
        mat = np.asarray(values, dtype=complex)
        return cls(mat, _qubits_for_dim(mat.shape[0], "density matrix"))

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        n = _check_register(num_qubits, MAX_DENSE_QUBITS)
        return _trusted(cls, "elements", np.diag(np.full(2**n, 0.5**n + 0j)), num_qubits=n)

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
    """Hermitian idempotent operator, P^2 = P within 1e-10 (checked unless the package built it).

    ``rank`` is not an argument: it is the trace, rounded to an integer.
    """

    elements: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        mat = _square(self.elements, "projector must be square, got shape {}")
        _require(_hermiticity_defect(mat) <= PROJECTOR_TOL, "projector not Hermitian")
        idem_defect = float(np.max(np.abs(mat @ mat - mat)))
        _require(idem_defect <= PROJECTOR_TOL, "projector not idempotent")
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "rank", round(float(np.trace(mat).real)))

    @classmethod
    def onto_vector(cls, vector) -> "Projector":
        v = np.ascontiguousarray(vector, dtype=complex).reshape(-1)
        # Scaled by an exact power of two: the squares cannot overflow, the norm keeps its bits.
        scale = 2.0 ** -max(math.frexp(float(abs(v.view(float)).max(initial=0.0)))[1], 0)
        nrm = float(np.linalg.norm((v.view(float) * scale).view(complex))) / scale
        _require(1e-12 <= nrm < math.inf, "cannot project onto a vector of norm {!r}", nrm)
        v = v / nrm
        return _trusted(cls, "elements", np.outer(v, v.conj()), rank=1)

    @classmethod
    def onto_basis_states(cls, dim: int, indices: Iterable[int]) -> "Projector":
        """Sum of |k><k| over the given computational-basis labels."""
        dim = _integer(dim, "projector dimension")
        _require(dim >= 1, "projector dimension must be at least 1, got {!r}", dim)
        idx = sorted(set(_integer(k, "basis label") for k in indices))
        mat = np.zeros((dim, dim), dtype=complex)
        for k in idx:
            _require(0 <= k < dim, "basis label {} outside dimension {}", k, dim)
            mat[k, k] = 1.0
        return _trusted(cls, "elements", mat, rank=len(idx))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls.onto_basis_states(dim, range(_integer(dim, "projector dimension")))

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def complement(self) -> "Projector":
        mat = np.eye(self.dim, dtype=complex) - self.elements
        return _trusted(Projector, "elements", mat, rank=self.dim - self.rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Projector(dim={self.dim}, rank={self.rank})"


def _span_projector(basis: np.ndarray) -> Projector:
    """B B^H for orthonormal columns B: the projector onto their span (zero for no columns)."""
    return _trusted(Projector, "elements", basis @ basis.conj().T, rank=basis.shape[1])


StateLike = Union[PureState, DensityMatrix]


def _pure_amplitudes(state: StateLike):
    """The amplitudes of a ``PureState``, or of a state from ``to_density_matrix``; else None."""
    if isinstance(state, PureState):
        return state.amplitudes
    return state.__dict__.get("_amplitudes")


def tensor_product(a: StateLike, b: StateLike) -> StateLike:
    """Kronecker composition of two states of the same kind.

    The result carries a's qubits first (most significant), then b's.  The
    register cap is checked before anything is built.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        n = _check_register(a.num_qubits + b.num_qubits, MAX_PURE_QUBITS)
        return _trusted(PureState, "amplitudes", np.kron(a.amplitudes, b.amplitudes), num_qubits=n)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        n = _check_register(a.num_qubits + b.num_qubits, MAX_DENSE_QUBITS)
        return _trusted(DensityMatrix, "elements", np.kron(a.elements, b.elements), num_qubits=n)
    raise TypeError("tensor_product requires two PureStates or two DensityMatrices")


def partial_trace(rho: StateLike, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    ``keep`` fixes the qubit order of the result, so it can also be used to
    permute subsystems.  The trace is preserved exactly up to rounding.
    A ``PureState``, or a state from ``PureState.to_density_matrix``, is
    reduced from its amplitudes as M M^H, M the (2^k, 2^(n-k)) amplitude
    matrix with the kept qubits first: O(2^n 2^k) work and nothing of size
    4^n.  Only the kept width meets the 12-qubit density cap, so a pure
    register of up to 20 qubits reduces without its density matrix.
    """
    n = rho.num_qubits
    keep_t = check_qubits(keep, n)
    _require(keep_t, "keep-set must be nonempty")
    _check_register(len(keep_t), MAX_DENSE_QUBITS)
    amps = _pure_amplitudes(rho)
    if amps is not None:
        rest = [q for q in range(n) if q not in keep_t]
        m = amps.reshape((2,) * n).transpose(keep_t + tuple(rest)).reshape(2 ** len(keep_t), -1)
        conj = m.conj()
        reduced = np.empty((m.shape[0], m.shape[0]), dtype=complex)
        # The entrywise products of np.outer, summed, not a BLAS product: an
        # entry with at most two nonzero terms (a premeasurement register) then
        # gets the very value the full matrix gives, and CLI output its bytes.
        # Blocks of rows keep 2^22 products (64 MB) in flight at most; each
        # entry is summed along its own row either way.
        rows = max(1, (1 << 22) >> n)
        for start in range(0, m.shape[0], rows):
            stop = start + rows
            np.sum(m[start:stop, None, :] * conj, axis=-1, out=reduced[start:stop])
        return _trusted(DensityMatrix, "elements", reduced, num_qubits=len(keep_t))
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
    return _trusted(DensityMatrix, "elements", reduced, num_qubits=len(keep_t))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -Tr(rho log2 rho), in bits."""
    return float(_entropies_from_spectra(rho.eigenvalues()))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 2**-n for the maximally mixed state."""
    return _expectation(rho.elements, rho.elements)


def born_probability(rho: DensityMatrix, projector: Projector) -> float:
    """Outcome probability Tr(P rho) for a projective event.

    Additive over orthogonal projectors; the result is clamped into [0, 1]
    only within a 1e-9 numerical margin and raises beyond it.
    """
    if projector.dim != rho.dim:
        raise ValueError(
            f"projector dimension {projector.dim} does not match state dimension {rho.dim}"
        )
    value = _expectation(projector.elements, rho.elements)
    _require(-1e-9 <= value <= 1.0 + 1e-9, "Born probability {!r} outside [0, 1]", value)
    return min(1.0, max(0.0, value))
