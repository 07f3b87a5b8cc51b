"""Pure-dephasing channel dynamics and the pointer-observable criterion.

The channel is defined by a pointer basis (an orthonormal frame, possibly
entangled across the register) and a single decoherence timescale ``t_d``
in seconds: diagonal entries in the pointer frame are conserved, every
off-diagonal entry is damped by exp(-t/t_d).  This is the minimal model
interpolating between the untouched state at t = 0 and the fully decohered
diagonal at t >> t_d while forming a semigroup; per-pair rates are not
resolved.

``decohered_limit`` is the pinching Pi onto the pointer-frame diagonal and
``dephase`` is f rho + (1 - f) Pi(rho), f = exp(-t/t_d).  Only this module
applies a frame.  A channel's basis is matched exactly, once, against the
two named frames, which skip the Gram check; Pi then takes one exact form:
computational, diag(diag rho); Hadamard, the X-Pauli twirl
Pi[j, k] = s[j ^ k] / d with s[m] = sum_j rho[j, j ^ m]; any other frame W,
W diag(y) W^H with y_i = (W^H rho W)_ii, two d x d products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import DensityMatrix, HERMITICITY_TOL, _readonly

BASIS_TOL = 1e-10

def _hadamard_frame(num_qubits: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    frame = h1
    for _ in range(num_qubits - 1):
        frame = np.kron(frame, h1)
    return frame


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
    c = 1.0 / np.sqrt(2.0)
    v = c
    for _ in range(d.bit_length() - 2):
        v *= c
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


@dataclass(frozen=True, eq=False)
class DephasingChannel:
    """Pointer frame plus decoherence timescale.

    ``basis`` holds the pointer states as columns of a unitary matrix.
    """

    basis: np.ndarray
    t_d: float

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.basis, dtype=complex))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError(f"pointer basis must be square and nonempty, got shape {mat.shape}")
        d = mat.shape[0]
        if _is_identity(mat):
            frame = "computational"
        elif _is_hadamard_frame(mat):
            frame = "hadamard"
        else:
            frame = "dense"
            gram = mat.conj().T @ mat
            defect = float(np.max(np.abs(gram - np.eye(d))))
            if not (defect <= BASIS_TOL):
                raise ValueError(f"pointer basis not orthonormal: defect {defect!r}")
        if not (float(self.t_d) > 0.0):
            raise ValueError(f"t_d must be positive, got {self.t_d!r}")
        object.__setattr__(self, "basis", mat)
        object.__setattr__(self, "t_d", float(self.t_d))
        object.__setattr__(self, "_frame", frame)

    @classmethod
    def computational(cls, num_qubits: int, t_d: float) -> "DephasingChannel":
        return cls(np.eye(2**num_qubits, dtype=complex), t_d)

    @classmethod
    def hadamard(cls, num_qubits: int, t_d: float) -> "DephasingChannel":
        """Channel einselecting the |+>/|-> product frame."""
        return cls(_hadamard_frame(num_qubits), t_d)

    @classmethod
    def from_states(cls, states: Sequence[np.ndarray], t_d: float) -> "DephasingChannel":
        return cls(np.column_stack([np.asarray(s, dtype=complex).reshape(-1) for s in states]), t_d)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


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


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Apparatus self-Hamiltonian plus apparatus-environment coupling (hbar = 1)."""

    self_hamiltonian: np.ndarray
    interaction_hamiltonian: np.ndarray

    def __post_init__(self) -> None:
        h_self = _readonly(np.asarray(self.self_hamiltonian, dtype=complex))
        h_int = _readonly(np.asarray(self.interaction_hamiltonian, dtype=complex))
        for name, mat in (("self", h_self), ("interaction", h_int)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} Hamiltonian must be square")
            if not (float(np.max(np.abs(mat - mat.conj().T))) <= HERMITICITY_TOL):
                raise ValueError(f"{name} Hamiltonian not Hermitian")
        if h_int.shape[0] % h_self.shape[0] != 0:
            raise ValueError(
                "interaction dimension must be a multiple of the apparatus dimension"
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


def _pinch(rho: DensityMatrix, channel: DephasingChannel) -> np.ndarray:
    """Projection of rho onto the pointer-frame diagonal, in the register frame."""
    _check_dims(rho, channel)
    elements = rho.elements
    if channel._frame == "computational":
        return np.diag(elements.diagonal())
    if channel._frame == "hadamard":
        idx = np.arange(rho.dim)
        xor = idx[:, None] ^ idx[None, :]
        # s[m] is real for Hermitian rho: its conjugate sums rho[j ^ m, j].
        s = np.bincount(xor.ravel(), weights=elements.real.ravel(), minlength=rho.dim)
        return (s / rho.dim)[xor]
    w = channel.basis
    y = np.vecdot(w, elements @ w, axis=0)
    return (w * y) @ w.conj().T


def dephase(rho: DensityMatrix, channel: DephasingChannel, t: float) -> DensityMatrix:
    """Damp pointer-frame off-diagonals by exp(-t/t_d); diagonals untouched."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    factor = np.exp(-t / channel.t_d)
    pinched = _pinch(rho, channel)
    # A convex mixture of two states is a state.
    return DensityMatrix._trusted(
        factor * rho.elements + (1.0 - factor) * pinched, rho.num_qubits
    )


def decohered_limit(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    """Exact projection onto the pointer-frame diagonal (the t -> oo state)."""
    # The pinching of a state is a state.
    return DensityMatrix._trusted(_pinch(rho, channel), rho.num_qubits)


def pointer_commutator_defect(
    hamiltonians: HamiltonianSpec, observable: np.ndarray
) -> float:
    """Largest |entry| of the commutator of the full Hamiltonian with an observable.

    The observable acts on the apparatus factor and is extended by identity
    on the environment.  A defect below 1e-12 certifies a pointer
    observable; generically the self- and interaction terms fail to commute
    with any common observable and the defect stays finite.
    """
    obs = np.asarray(observable, dtype=complex)
    if obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
        raise ValueError("observable must be a square matrix")
    if float(np.max(np.abs(obs - obs.conj().T))) > HERMITICITY_TOL:
        raise ValueError("observable not Hermitian")
    if obs.shape[0] != hamiltonians.apparatus_dim:
        raise ValueError(
            f"observable dimension {obs.shape[0]} does not match apparatus "
            f"dimension {hamiltonians.apparatus_dim}"
        )
    full_obs = np.kron(obs, np.eye(hamiltonians.environment_dim, dtype=complex))
    total = hamiltonians.total()
    comm = total @ full_obs - full_obs @ total
    return float(np.max(np.abs(comm)))
