"""Checked producers and the full-register branch count, as they were before
trusted construction.

Each producer here wraps its result in the public ``DensityMatrix``
constructor, which copies the array and runs the Hermiticity, trace and
spectrum checks.  ``environment_record``, ``bloch_state`` and ``basis`` build
their states through the public ``EnvironmentRecord`` and ``PureState``
constructors, which copy and re-check the norm.  The projectors (identity,
basis labels, complement, rank one, join and meet, a record's support) go
through the public ``Projector`` constructor and its O(d^3) idempotency
product; the zero-rank meet is ``np.zeros_like``, as it was.  ``branch_count`` builds the
whole 4^cells record register only to read its diagonal; its record cells
come from ``records._cell_matrices``, whose frame ``frame_oracle`` checks.
The tests compare the trusted, diagonal-only code in ``decohere`` against
this.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from decohere.dephasing import DephasingChannel
from decohere.probability import RANK_TOL
from decohere.records import _cell_matrices
from decohere.redundancy import NULL_WEIGHT, EnvironmentRecord
from decohere.states import DensityMatrix, Projector, PureState, check_qubits
from pinch_oracle import _pinch


def to_density_matrix(psi: PureState) -> DensityMatrix:
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.num_qubits)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.kron(a.elements, b.elements), a.num_qubits + b.num_qubits)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    keep_t = check_qubits(keep, rho.num_qubits)
    n = rho.num_qubits
    tensor = rho.elements.reshape((2,) * (2 * n))
    in_idx = list(range(2 * n))
    for q in range(n):
        if q not in keep_t:
            in_idx[n + q] = q
    out_idx = [q for q in keep_t] + [n + q for q in keep_t]
    reduced = np.einsum(tensor, in_idx, out_idx)
    d = 2 ** len(keep_t)
    return DensityMatrix(reduced.reshape(d, d), len(keep_t))


def environment_record(joint, phi: PureState) -> EnvironmentRecord:
    n = joint.state.num_qubits
    n_sys = len(joint.system)
    tensor = joint.state.amplitudes.reshape((2,) * n)
    phi_tensor = phi.amplitudes.conj().reshape((2,) * n_sys)
    env_axes = list(joint.environment)
    raw = np.einsum(tensor, list(range(n)), phi_tensor, list(joint.system), env_axes)
    raw = raw.reshape(-1)
    weight = float(np.sum(np.abs(raw) ** 2))
    n_env = len(env_axes)
    if weight <= NULL_WEIGHT:
        return EnvironmentRecord(np.zeros(2**n_env, dtype=complex), 0.0, n_env)
    return EnvironmentRecord(raw / math.sqrt(weight), weight, n_env)


def bloch_state(theta: float, phi: float) -> PureState:
    return PureState.from_amplitudes(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]
    )


def dephase(rho: DensityMatrix, channel: DephasingChannel, t: float) -> DensityMatrix:
    factor = np.exp(-t / channel.t_d)
    pinched = _pinch(rho, channel)
    return DensityMatrix(factor * rho.elements + (1.0 - factor) * pinched, rho.num_qubits)


def decohered_limit(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    return DensityMatrix(_pinch(rho, channel), rho.num_qubits)


def _record_matrix(record) -> np.ndarray:
    if isinstance(record, PureState):
        return np.outer(record.amplitudes, record.amplitudes.conj())
    return record.elements


def correlate(model) -> DensityMatrix:
    total = None
    for i in range(model.outcome_count):
        sys_mat = _record_matrix(model.system_states[i])
        block = model.probabilities[i] * np.kron(
            sys_mat, _record_matrix(model.record_states[i])
        )
        total = block if total is None else total + block
    return DensityMatrix(total, model.system_qubits + model.record_qubits)


def redundant_records(model, cells: int) -> DensityMatrix:
    total = None
    for i in range(model.outcome_count):
        rec_mat = _record_matrix(model.record_states[i])
        replicated = rec_mat
        for _ in range(cells - 1):
            replicated = np.kron(replicated, rec_mat)
        block = model.probabilities[i] * np.kron(
            _record_matrix(model.system_states[i]), replicated
        )
        total = block if total is None else total + block
    return DensityMatrix(total, model.system_qubits + cells * model.record_qubits)


def _record_register_state(model, record_basis: str, cells: int) -> np.ndarray:
    """Density matrix of the bare record register for replicated records."""
    cell_mats = _cell_matrices(model, record_basis)
    dim = 2 ** (cells * model.record_qubits)
    rho = np.zeros((dim, dim), dtype=complex)
    for p_i, cell in zip(model.probabilities.values, cell_mats):
        mat = cell
        for _ in range(cells - 1):
            mat = np.kron(mat, cell)
        rho += p_i * mat
    return rho


def register_weights(model, record_basis: str, cells: int) -> np.ndarray:
    """Diagonal of the whole record register: the weights branches are counted on."""
    return _record_register_state(model, record_basis, cells).diagonal().real


def branch_count(
    model,
    record_basis: str,
    cells: int,
    channel: DephasingChannel | None = None,
    threshold: float = 1e-6,
) -> int:
    min_p = float(model.probabilities.values.min())
    if not (0.0 < threshold < min_p):
        raise ValueError(f"threshold must lie in (0, {min_p}), got {threshold!r}")
    rho = _record_register_state(model, record_basis, cells)
    width = cells * model.record_qubits
    if channel is not None:
        if channel.dim != rho.shape[0]:
            raise ValueError("channel dimension does not match the record register")
        limit = decohered_limit(DensityMatrix(rho, width), channel)
        weights = limit.elements.diagonal().real
    else:
        weights = rho.diagonal().real
    return int(np.sum(weights > threshold))


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    return DensityMatrix(np.eye(d, dtype=complex) / d, num_qubits)


def basis(num_qubits: int, index: int) -> PureState:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, num_qubits)


def identity(dim: int) -> Projector:
    return Projector(np.eye(dim, dtype=complex))


def onto_basis_states(dim: int, indices: Iterable[int]) -> Projector:
    idx = sorted(set(int(k) for k in indices))
    mat = np.zeros((dim, dim), dtype=complex)
    for k in idx:
        mat[k, k] = 1.0
    return Projector(mat)


def complement(p: Projector) -> Projector:
    return Projector(np.eye(p.dim, dtype=complex) - p.elements)


def onto_vector(vector) -> Projector:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return Projector(np.outer(v, v.conj()))


def union_and_intersection(b: Projector, c: Projector) -> tuple[Projector, Projector]:
    bm, cm = b.elements, c.elements
    eigvals, eigvecs = np.linalg.eigh(bm + cm)
    join_basis = eigvecs[:, eigvals > RANK_TOL]
    meet_basis = eigvecs[:, eigvals > 2.0 - RANK_TOL]
    join = Projector(join_basis @ join_basis.conj().T)
    if meet_basis.shape[1] == 0:
        meet = Projector(np.zeros_like(bm))
    else:
        meet = Projector(meet_basis @ meet_basis.conj().T)
    return join, meet


def record_support_projector(record) -> Projector:
    if isinstance(record, PureState):
        return onto_vector(record.amplitudes)
    eigvals, eigvecs = np.linalg.eigh(record.elements)
    support = eigvecs[:, eigvals > 1e-12]
    return Projector(support @ support.conj().T)
