"""Dense-frame reference for pinching, dephasing and conjugate-sector decoding.

This is the code as it was before ``decohere.dephasing`` chose the pinching
by frame kind: ``dephase`` and ``decohered_limit`` conjugate the state into
the pointer frame and back with four d x d products, whatever the frame;
``_pointer_robustness`` enumerates every bit-flip pattern and
``_hadamard_robustness`` transforms every phase-flipped branch with a dense
Hadamard matrix; ``record_consensus`` and ``uniform_outcome_probabilities``
conjugate a whole matrix only to read its diagonal.

The rest is each frame as it was applied by hand outside
``decohere.dephasing``, before ``_pointer_coefficients`` and
``_in_pointer_frame`` took them over: dense products with ``channel.basis``
in the sieve (``pointer_frames``, ``in_pointer_frame``, ``step_maps``), and
``_hadamard_frame`` or an identity in the records (``cell_matrices``,
``readout_consensus``) and the CLI (``observer_lists``, ``mixing_frame``).
The tests compare the structured code against all of it.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from decohere.dephasing import DephasingChannel, _check_dims, _hadamard_frame
from decohere.probability import ProbabilityVector
from decohere.records import _record_matrix
from decohere.redundancy import JointState, environment_record, majority_decode
from decohere.states import DensityMatrix, Projector, PureState, born_probability
from flip_oracle import _parity
from trusted_oracle import _record_register_state


def dephase(rho: DensityMatrix, channel: DephasingChannel, t: float) -> DensityMatrix:
    """Damp pointer-frame off-diagonals by exp(-t/t_d); diagonals untouched."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    _check_dims(rho, channel)
    w = channel.basis
    in_frame = w.conj().T @ rho.elements @ w
    factor = np.exp(-t / channel.t_d)
    damped = in_frame * factor
    np.fill_diagonal(damped, in_frame.diagonal())
    return DensityMatrix(w @ damped @ w.conj().T, rho.num_qubits)


def decohered_limit(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    """Exact projection onto the pointer-frame diagonal (the t -> oo state)."""
    _check_dims(rho, channel)
    w = channel.basis
    in_frame = w.conj().T @ rho.elements @ w
    diag = np.diag(in_frame.diagonal())
    return DensityMatrix(w @ diag @ w.conj().T, rho.num_qubits)


def uniform_outcome_probabilities(
    psi: PureState, channel: DephasingChannel
) -> ProbabilityVector:
    """Pointer-frame diagonal of the decohered limit (magnitude check omitted)."""
    limit = decohered_limit(psi.to_density_matrix(), channel)
    in_frame = channel.basis.conj().T @ limit.elements @ channel.basis
    return ProbabilityVector(in_frame.diagonal().real)


def record_consensus(model, cells: int, basis: str) -> float:
    """Probability that all replicated cells agree when read in ``basis``."""
    if model.record_qubits != 1:
        raise ValueError("consensus check expects single-qubit record cells")
    rho = _record_register_state(model, "pointer", cells)
    if basis == "conjugate":
        h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        frame = h1
        for _ in range(cells - 1):
            frame = np.kron(frame, h1)
        rho = frame.conj().T @ rho @ frame
    elif basis != "pointer":
        raise ValueError(f"unknown readout basis {basis!r}")
    weights = rho.diagonal().real
    agree = weights[0] + weights[-1]  # all-zeros and all-ones strings
    return float(agree)


def _pointer_robustness(n: int, k: int) -> float:
    """Majority decode under k bit-value-scrambling events, exact average."""
    total = 0.0
    patterns = 0
    for pattern in combinations(range(n), k):
        correct = 0
        for flips in product((0, 1), repeat=k):
            bits0 = [0] * n
            bits1 = [1] * n
            for q, f in zip(pattern, flips):
                bits0[q] ^= f
                bits1[q] ^= f
            if majority_decode(bits0) == 0:
                correct += 1
            if majority_decode(bits1) == 1:
                correct += 1
        total += correct / (2 ** (k + 1))
        patterns += 1
    return total / patterns


def _hadamard_basis_matrix(n: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    mat = h1
    for _ in range(n - 1):
        mat = np.kron(mat, h1)
    return mat


def _hadamard_robustness(joint: JointState, n: int, k: int) -> float:
    """Best-decoder sign inference under k phase-scrambling events."""
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) / math.sqrt(2.0))
    e_plus = environment_record(joint, plus).amplitudes
    e_minus = environment_record(joint, minus).amplitudes

    indices = np.arange(2**n, dtype=np.intp)
    bit_of = [1 << (n - 1 - q) for q in range(n)]
    frame = _hadamard_basis_matrix(n)

    total = 0.0
    patterns = 0
    for pattern in combinations(range(n), k):
        dists = []
        for branch in (e_plus, e_minus):
            dist = np.zeros(2**n)
            for signs in product((0, 1), repeat=k):
                z_mask = 0
                for q, s in zip(pattern, signs):
                    if s:
                        z_mask |= bit_of[q]
                flipped = branch * (1.0 - 2.0 * _parity(indices, z_mask).astype(float))
                dist += np.abs(frame @ flipped) ** 2
            dists.append(dist / (2**k))
        # Optimal outcome-by-outcome guess between the two equiprobable branches.
        total += 0.5 * float(np.sum(np.maximum(dists[0], dists[1])))
        patterns += 1
    return total / patterns


def in_pointer_frame(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """W^H X W as two dense products, as ``sieve.evolve_entropy`` took a density matrix."""
    return w.conj().T @ mat @ w


def pointer_frames(states, basis: np.ndarray) -> np.ndarray:
    """``sieve._pointer_frames``: |c><c| with c = W^H psi from a product with conj W."""
    coeffs = np.array([psi.amplitudes for psi in states]) @ basis.conj()
    return coeffs[:, :, None] * coeffs[:, None, :].conj()


def step_maps(dynamics, dts: np.ndarray) -> np.ndarray:
    """``sieve._step_maps`` with V from W^H times the eigenvectors of H."""
    d = dynamics.channel.dim
    evals, vecs = np.linalg.eigh(dynamics.self_hamiltonian)
    vecs = dynamics.channel.basis.conj().T @ vecs
    v = (vecs * np.exp(-1j * evals * dts[:, None])[:, None, :]) @ vecs.conj().T
    damp = np.exp(-dts / dynamics.channel.t_d)[:, None, None] * (1.0 - np.eye(d)) + np.eye(d)
    steps = np.empty((dts.size, d * d, d * d), dtype=complex)
    # S[(j, l), (i, k)] = D[i, k] V[i, j] conj V[k, l], written in place
    maps = steps.reshape(dts.size, d, d, d, d)
    vt = v.transpose(0, 2, 1)
    np.multiply(damp[:, None, None], vt[:, :, None, :, None], out=maps)
    maps *= vt.conj()[:, None, :, None, :]
    return steps


def cell_matrices(model, record_basis: str) -> list[np.ndarray]:
    """The records' one-cell matrices: conjugate cells turned by the dense Hadamard frame."""
    cell_mats = [_record_matrix(r) for r in model.record_states]
    if record_basis == "conjugate":
        frame = _hadamard_frame(model.record_qubits)
        return [frame @ m @ frame.conj().T for m in cell_mats]
    return cell_mats


def readout_consensus(model, cells: int, basis: str) -> float:
    """``records.record_consensus`` reading each cell through explicit readout ends."""
    ends = _hadamard_frame(1) if basis == "conjugate" else np.eye(2)
    total = 0.0
    for p_i, record in zip(model.probabilities.values, model.record_states):
        cell_weights = np.vecdot(ends, _record_matrix(record) @ ends, axis=0).real
        total += p_i * float(np.sum(cell_weights**cells))
    return total


def observer_lists(prepare_basis, measure_basis, ensemble, seed) -> dict:
    """``cli.observer_lists`` with Born weights of projectors onto ``_hadamard_frame(1)`` columns."""
    rng = np.random.default_rng(seed)
    channel = DephasingChannel.computational(1, 1.0)
    hadamard = _hadamard_frame(1)

    def outcome_one(basis: str) -> Projector:
        return Projector.onto_vector(np.array([0.0, 1.0]) if basis == "pointer" else hadamard[:, 1])

    p_b1 = np.zeros(2)
    p_a1 = np.zeros(2)
    for label in (0, 1):
        if prepare_basis == "pointer":
            prep = PureState.basis(1, label)
        else:
            prep = PureState.from_amplitudes(hadamard[:, label])
        rho = decohered_limit(prep.to_density_matrix(), channel)
        p_b1[label] = born_probability(rho, outcome_one(measure_basis))
        p_a1[label] = born_probability(rho, outcome_one(prepare_basis))

    list_a = rng.integers(0, 2, size=ensemble)
    list_b = (rng.random(ensemble) < p_b1[list_a]).astype(int)
    list_a2 = (rng.random(ensemble) < p_a1[list_a]).astype(int)
    return {
        "prepare_basis": prepare_basis,
        "measure_basis": measure_basis,
        "ensemble": int(ensemble),
        "agreement_a_b": float(np.mean(list_a == list_b)),
        "agreement_a_a2": float(np.mean(list_a == list_a2)),
        "agreement_b_a2": float(np.mean(list_b == list_a2)),
    }


def mixing_frame() -> np.ndarray:
    """The ``records`` experiment's mixing frame: Hadamard on the system, identity on the record."""
    return np.kron(_hadamard_frame(1), np.eye(2, dtype=complex))
