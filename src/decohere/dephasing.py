"""Pure-dephasing channel dynamics and the pointer-observable criterion.

The channel is defined by a pointer basis (an orthonormal frame, possibly
entangled across the register) and a single decoherence timescale ``t_d``
in seconds: diagonal entries in the pointer frame are conserved, every
off-diagonal entry is damped by exp(-t/t_d).  This is the minimal model
interpolating between the untouched state at t = 0 and the fully decohered
diagonal at t >> t_d while forming a semigroup; per-pair rates are not
resolved.

``decohered_limit`` is the pinching Pi onto the pointer-frame diagonal and
``dephase`` is f rho + (1 - f) Pi(rho), f = exp(-t/t_d).  No other module
applies a frame: the sieve, the records and the CLI go through
``_pointer_coefficients`` (W^H psi) and ``_in_pointer_frame`` (W^H X W).

The two named frames, computational and Hadamard, stay implicit: a channel
from ``computational``, ``hadamard`` or a named ``channel_from_spec`` holds
its frame kind, width and t_d, and builds ``basis`` only when it is read.  A
matrix given to the constructor is matched exactly against the two named
frames, which skip the Gram check.  Pi takes one form per frame:

* computational: diag(diag rho).  ``dephase`` writes rho (psi psi^H for a
  pure input) into its output once, scales it by f in place and rewrites
  the diagonal.
* Hadamard: the X-Pauli twirl Pi[j, k] = s[j ^ k] / d with
  s[m] = sum_j rho[j, j ^ m], real for Hermitian rho.  A pure input gives
  s = WHT(|WHT psi|^2) / d in O(n 2^n), WHT the unnormalized
  Walsh-Hadamard transform (``_walsh_hadamard``: H_n as a product of
  Sylvester factors of at most 16 x 16, one batched matrix product each);
  a full matrix is summed row by row, in j order.
  The table s[j ^ k] is laid out by row blocks, with no index table, and
  is the only d x d temporary.
* any other frame W: W diag(y) W^H with y_i = (W^H rho W)_ii, two d x d
  products.

In the named frames a pure input (``PureState.to_density_matrix``) is read
through its amplitudes only, so its 4^n ``elements`` are never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    HERMITICITY_TOL,
    MAX_DENSE_QUBITS,
    _check_register,
    _frame_defect,
    _hermiticity_defect,
    _pure_amplitudes,
    _require,
    _square,
    _trusted,
)

BASIS_TOL = 1e-10
# H_4, entry (-1)^popcount(i & j); its top-left 2^k x 2^k block is H_k.
_SYLVESTER = (-1.0) ** np.bitwise_count(np.arange(16)[:, None] & np.arange(16))
_SYLVESTER.setflags(write=False)


def _hadamard_frame(num_qubits: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    frame = h1
    for _ in range(num_qubits - 1):
        frame = np.kron(frame, h1)
    return frame


def _hadamard_entry(num_qubits: int) -> float:
    """|entry| of ``_hadamard_frame(n)``: 1/sqrt(2) multiplied in n times, rounded as kron does."""
    v = c = 1.0 / np.sqrt(2.0)
    for _ in range(num_qubits - 1):
        v *= c
    return v


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row, as Sylvester-factor products.

    out[:, z] = sum_j (-1)^popcount(j & z) rows[:, j]; rows have 2^n entries.
    H_n is the Kronecker product of H_k factors, k <= 4, one per group of
    index bits from the highest; each factor is one batched matrix product
    by a block of ``_SYLVESTER``.  The real and imaginary parts of complex
    rows are transformed as real rows, and real rows give float64.
    """
    count, d = rows.shape
    complex_rows = np.iscomplexobj(rows)
    x = np.concatenate((rows.real, rows.imag)) if complex_rows else rows
    lead, bits = x.shape[0], d.bit_length() - 1
    while bits:
        k = min(bits, 4)
        bits -= k
        h = _SYLVESTER[: 1 << k, : 1 << k]
        if bits:
            x = h @ x.reshape(lead, 1 << k, 1 << bits)
        else:  # the last group is the contiguous axis: one product over all rows
            x = x.reshape(lead, 1 << k) @ h
        lead <<= k
    x = x.reshape(-1, d)
    if not complex_rows:
        return x
    out = np.empty((count, d), dtype=complex)
    out.real, out.imag = x[:count], x[count:]
    return out


def _is_identity(mat: np.ndarray) -> bool:
    """``np.array_equal(mat, np.eye(d))`` for complex ``mat``, without the identity.

    Every diagonal entry == 1, and no nonzero (or NaN) real or imaginary
    part besides those d.  The diagonal goes first, so any other frame is
    turned away without a scan of the whole matrix.
    """
    if not np.all(mat.diagonal() == 1):
        return False
    # Counting over the float64 parts is about twice as fast as over complex entries.
    return np.count_nonzero(mat.ravel(order="K").view(np.float64)) == mat.shape[0]


def _is_hadamard_frame(mat: np.ndarray) -> bool:
    """Whether ``mat`` equals ``_hadamard_frame(n)`` exactly, without building it.

    Every entry of that frame is +-v, v the rounded n-fold product of
    1/sqrt(2), with sign (-1)^popcount(i & j).  So its quadrants are
    [[F, F], [F, -F]], and F has the same form down to the 1 x 1 block [v].
    """
    d = mat.shape[0]
    if d < 2 or d & (d - 1):
        return False
    v = _hadamard_entry(d.bit_length() - 1)
    block = mat
    while block.shape[0] > 1:
        h = block.shape[0] // 2
        top = block[:h, :h]
        if not (
            np.array_equal(block[:h, h:], top)
            and np.array_equal(block[h:, :h], top)
            and np.array_equal(block[h:, h:], -top)
        ):
            return False
        block = top
    return bool(block[0, 0] == v)


def _checked_t_d(t_d) -> float:
    _require(float(t_d) > 0.0, "t_d must be positive, got {!r}", t_d)
    return float(t_d)


@dataclass(frozen=True, eq=False)
class DephasingChannel:
    """Pointer frame plus decoherence timescale.

    ``basis`` holds the pointer states as columns of a unitary matrix.  A
    channel in a named frame builds it, read-only, on first read.
    """

    basis: np.ndarray
    t_d: float

    def __post_init__(self) -> None:
        mat = _square(self.basis, "pointer basis must be square and nonempty, got shape {}")
        if _is_identity(mat):
            frame = "computational"
        elif _is_hadamard_frame(mat):
            frame = "hadamard"
        else:
            frame = "dense"
            defect = _frame_defect(mat)
            _require(defect <= BASIS_TOL, "pointer basis not orthonormal: defect {!r}", defect)
        object.__setattr__(self, "t_d", _checked_t_d(self.t_d))
        object.__setattr__(self, "basis", mat)
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_dim", mat.shape[0])

    @classmethod
    def _named(cls, frame: str, num_qubits: int, t_d: float) -> "DephasingChannel":
        """A channel in the computational or Hadamard frame: nothing built, nothing to check."""
        n = _check_register(num_qubits, MAX_DENSE_QUBITS)
        obj = object.__new__(cls)
        obj.__dict__.update(t_d=_checked_t_d(t_d), _frame=frame, _dim=2**n)
        return obj

    @classmethod
    def computational(cls, num_qubits: int, t_d: float) -> "DephasingChannel":
        return cls._named("computational", num_qubits, t_d)

    @classmethod
    def hadamard(cls, num_qubits: int, t_d: float) -> "DephasingChannel":
        """Channel einselecting the |+>/|-> product frame."""
        return cls._named("hadamard", num_qubits, t_d)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: ``basis`` of a named channel
        # not yet read.  A racing first read may build a second, equal frame;
        # setdefault keeps one of them for every reader.
        frame = self.__dict__.get("_frame") if name == "basis" else None
        if frame is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d = self._dim
        if frame == "computational":
            mat = np.eye(d, dtype=complex)
        else:
            mat = _hadamard_frame(d.bit_length() - 1)
        mat.setflags(write=False)
        return self.__dict__.setdefault("basis", mat)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def _frame_key(self):
        """The frame as the frame helpers take it: its kind, or W if dense; never built."""
        return self.basis if self._frame == "dense" else self._frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DephasingChannel(frame={self._frame!r}, dim={self._dim}, t_d={self.t_d!r})"


def channel_from_spec(spec, t_d: float, num_qubits: int) -> DephasingChannel:
    """Build a channel from its experiment-config form.

    ``spec`` is either a named basis ("computational" or "hadamard") or a
    unitary given as row-major nested lists of [re, im] pairs.
    """
    if spec == "computational":
        return DephasingChannel.computational(num_qubits, t_d)
    if spec == "hadamard":
        return DephasingChannel.hadamard(num_qubits, t_d)
    if isinstance(spec, str):
        raise ValueError(f"unknown pointer basis {spec!r}")
    rows = []
    for row in spec:
        rows.append([complex(entry[0], entry[1]) for entry in row])
    mat = np.asarray(rows, dtype=complex)
    if mat.shape != (2**num_qubits, 2**num_qubits):
        raise ValueError(
            f"pointer-basis matrix must be {2**num_qubits}x{2**num_qubits}, got {mat.shape}"
        )
    return DephasingChannel(mat, t_d)


def _pointer_coefficients(frame, rows: np.ndarray) -> np.ndarray:
    """W^H psi for each row psi of ``rows`` (..., d); ``frame`` is a ``_frame_key``."""
    if isinstance(frame, np.ndarray):
        return rows @ frame.conj()
    if frame == "computational":
        return rows
    _require(frame == "hadamard", "unknown pointer frame {!r}", frame)
    d = rows.shape[-1]
    scaled = rows.reshape(-1, d) * _hadamard_entry(d.bit_length() - 1)
    return _walsh_hadamard(scaled).reshape(rows.shape)


def _in_pointer_frame(frame, mat: np.ndarray) -> np.ndarray:
    """W^H X W for a d x d ``mat``: B = W^H X column by column, then B W = (W^H B^H)^H."""
    half = _pointer_coefficients(frame, mat.T).T
    return _pointer_coefficients(frame, half.conj()).conj()


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Apparatus self-Hamiltonian plus apparatus-environment coupling (hbar = 1)."""

    self_hamiltonian: np.ndarray
    interaction_hamiltonian: np.ndarray

    def __post_init__(self) -> None:
        h_self = _square(self.self_hamiltonian, "self Hamiltonian must be square")
        h_int = _square(self.interaction_hamiltonian, "interaction Hamiltonian must be square")
        for name, mat in (("self", h_self), ("interaction", h_int)):
            defect = _hermiticity_defect(mat)
            _require(defect <= HERMITICITY_TOL, "{} Hamiltonian not Hermitian", name)
        _require(
            h_int.shape[0] % h_self.shape[0] == 0,
            "interaction dimension must be a multiple of the apparatus dimension",
        )
        object.__setattr__(self, "self_hamiltonian", h_self)
        object.__setattr__(self, "interaction_hamiltonian", h_int)

    @property
    def apparatus_dim(self) -> int:
        return self.self_hamiltonian.shape[0]

    @property
    def environment_dim(self) -> int:
        return self.interaction_hamiltonian.shape[0] // self.apparatus_dim

    def total(self) -> np.ndarray:
        """H_self (x) 1_env + H_interaction on the joint space."""
        return (
            np.kron(self.self_hamiltonian, np.eye(self.environment_dim, dtype=complex))
            + self.interaction_hamiltonian
        )


def _check_dims(rho: DensityMatrix, channel: DephasingChannel) -> None:
    if channel.dim != rho.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match state dimension {rho.dim}"
        )


def _diagonal(rho: DensityMatrix) -> np.ndarray:
    """The diagonal of rho; of a pure input, |psi_j|^2 as np.outer rounds it."""
    amps = _pure_amplitudes(rho)
    return rho.elements.diagonal() if amps is None else amps * amps.conj()


def _xor_sums(rho: DensityMatrix) -> np.ndarray:
    """s[m] = sum_j Re rho[j, j ^ m], the sums the Hadamard-frame pinching spreads."""
    amps = _pure_amplitudes(rho)
    if amps is not None:
        # For rho = psi psi^H, |WHT psi|^2 = WHT s, and WHT WHT = d.
        spectrum = _walsh_hadamard(amps[None])
        power = spectrum.real**2 + spectrum.imag**2
        return _walsh_hadamard(power)[0] / rho.dim
    # Row by row, in the order (and so with the rounding) of a bincount over j ^ k.
    real = rho.elements.real
    cols = np.arange(rho.dim)
    sums = np.zeros(rho.dim)
    for j in range(rho.dim):
        sums += real[j, cols ^ j]
    return sums


def _spread_xor(values: np.ndarray, out: np.ndarray) -> None:
    """Fill the real d x d ``out`` (a view is fine) with out[j, k] = values[j ^ k].

    Rows size..2 size-1 are rows 0..size-1 with their column blocks of
    ``size`` swapped in pairs, since (j + size) ^ k = j ^ (k ^ size).
    """
    d = values.size
    out[0] = values
    size = 1
    while size < d:
        shape = (size, d // (2 * size), 2, size)
        # Splitting an axis never copies, so dst is a view into out.
        src = out[:size].reshape(shape)
        dst = out[size : 2 * size].reshape(shape)
        dst[:, :, 0] = src[:, :, 1]
        dst[:, :, 1] = src[:, :, 0]
        size *= 2


def _dense_pinch(elements: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W diag(y) W^H with y_i = (W^H rho W)_ii."""
    y = np.vecdot(w, elements @ w, axis=0)
    return (w * y) @ w.conj().T


def dephase(rho: DensityMatrix, channel: DephasingChannel, t: float) -> DensityMatrix:
    """Damp pointer-frame off-diagonals by exp(-t/t_d); diagonals untouched."""
    _require(t >= 0, "time must be nonnegative, got {!r}", t)
    _require(t < math.inf, "time must be finite; decohered_limit is the t -> oo state")
    _check_dims(rho, channel)
    factor = np.exp(-t / channel.t_d)
    # A convex mixture of two states is a state.
    if channel._frame == "dense":
        elements = rho.elements
        mixed = factor * elements + (1.0 - factor) * _dense_pinch(elements, channel.basis)
        return _trusted(DensityMatrix, "elements", mixed, num_qubits=rho.num_qubits)
    amps = _pure_amplitudes(rho)
    if amps is None:
        mixed = factor * rho.elements
    else:
        mixed = np.outer(amps, amps.conj())
        mixed *= factor
    if channel._frame == "computational":
        # Pi adds +0 off the diagonal, turning -0.0 parts into +0.0: the same bytes.
        mixed += 0.0
        diag = _diagonal(rho)
        np.fill_diagonal(mixed, factor * diag + (1.0 - factor) * diag)
    else:
        table = np.empty((rho.dim, rho.dim))
        _spread_xor((1.0 - factor) * (_xor_sums(rho) / rho.dim), table)
        # Added as table + 0j, as f rho + (1 - f) Pi adds a real Pi.
        mixed += table
    return _trusted(DensityMatrix, "elements", mixed, num_qubits=rho.num_qubits)


def decohered_limit(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    """Exact projection onto the pointer-frame diagonal (the t -> oo state)."""
    _check_dims(rho, channel)
    # The pinching of a state is a state.
    if channel._frame == "computational":
        pinched = np.diag(_diagonal(rho))
    elif channel._frame == "hadamard":
        pinched = np.zeros((rho.dim, rho.dim), dtype=complex)
        _spread_xor(_xor_sums(rho) / rho.dim, pinched.real)
    else:
        pinched = _dense_pinch(rho.elements, channel.basis)
    return _trusted(DensityMatrix, "elements", pinched, num_qubits=rho.num_qubits)


def pointer_commutator_defect(
    hamiltonians: HamiltonianSpec, observable: np.ndarray
) -> float:
    """Largest |entry| of the commutator of the full Hamiltonian with an observable.

    The observable acts on the apparatus factor and is extended by identity
    on the environment.  A defect below 1e-12 certifies a pointer
    observable; generically the self- and interaction terms fail to commute
    with any common observable and the defect stays finite.
    """
    obs = _square(observable, "observable must be a square matrix")
    _require(_hermiticity_defect(obs) <= HERMITICITY_TOL, "observable not Hermitian")
    if obs.shape[0] != hamiltonians.apparatus_dim:
        raise ValueError(
            f"observable dimension {obs.shape[0]} does not match apparatus "
            f"dimension {hamiltonians.apparatus_dim}"
        )
    da, de = hamiltonians.apparatus_dim, hamiltonians.environment_dim
    # Axes (apparatus, environment) for rows, then for columns.
    total = hamiltonians.total().reshape(da, de, da, de)
    comm = np.einsum("aebf,bc->aecf", total, obs) - np.einsum("ab,becf->aecf", obs, total)
    return float(np.max(np.abs(comm)))
