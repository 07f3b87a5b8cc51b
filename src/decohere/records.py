"""Observer-memory model: record correlations, their lifetime, and branches.

A memory model pairs each outcome with a system state and an orthogonal
record state.  After decoherence the joint state is the classically
correlated block mixture sum_i p_i |s_i><s_i| (x) |mu_i><mu_i| (system
qubits first, then memory).  On top of that the module computes the
predictive conditional probability g(t), per-outcome predictability
horizons, replicated (redundant) records, branch counting in the pointer
versus the conjugate record basis, and a deterministic compressibility
proxy for record sequences (an ideal-code-length stand-in for the
uncomputable algorithmic information content).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence, Union

import numpy as np

from .dephasing import DephasingChannel, _in_pointer_frame, decohered_limit
from .probability import UNDEFINED_CONDITIONAL, ProbabilityVector
from .sieve import (
    DynamicsSpec,
    Horizon,
    evolve_entropy,
    predictability_horizon,
    purity_horizon,
)
from .states import (
    MAX_DENSE_QUBITS,
    DensityMatrix,
    Projector,
    PureState,
    _check_register,
    _expectation,
    _integer,
    _require,
    _span_projector,
    _trusted,
)

RECORD_ORTHOGONALITY_TOL = 1e-10


RecordState = Union[PureState, DensityMatrix]


def _record_matrix(record: RecordState) -> np.ndarray:
    if isinstance(record, PureState):
        return np.outer(record.amplitudes, record.amplitudes.conj())
    return record.elements


@dataclass(frozen=True, eq=False)
class MemoryModel:
    """Outcome probabilities with their system and record states.

    Records may be pure states or (coarse-grained) density matrices; in
    either case distinct outcomes must occupy orthogonal supports within
    1e-10 - a memory whose entries cannot be told apart stores nothing.
    """

    probabilities: ProbabilityVector
    system_states: tuple[PureState, ...]
    record_states: tuple[RecordState, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        k = len(self.probabilities)
        if len(self.system_states) != k or len(self.record_states) != k:
            raise ValueError("need one system state and one record state per outcome")
        if self.labels is not None and len(self.labels) != k:
            raise ValueError("need one label per outcome")
        sys_n = {s.num_qubits for s in self.system_states}
        rec_n = {r.num_qubits for r in self.record_states}
        if len(sys_n) != 1 or len(rec_n) != 1:
            raise ValueError("system and record registers must each have fixed width")
        for i in range(k):
            for j in range(i + 1, k):
                a, b = self.record_states[i], self.record_states[j]
                if isinstance(a, PureState) and isinstance(b, PureState):
                    defect = abs(a.overlap(b))
                else:
                    defect = _expectation(_record_matrix(a), _record_matrix(b))
                message = "record states {} and {} not orthogonal: defect {!r}"
                _require(defect <= RECORD_ORTHOGONALITY_TOL, message, i, j, defect)

    @property
    def outcome_count(self) -> int:
        return len(self.probabilities)

    @property
    def system_qubits(self) -> int:
        return self.system_states[0].num_qubits

    @property
    def record_qubits(self) -> int:
        return self.record_states[0].num_qubits


def correlate(model: MemoryModel) -> DensityMatrix:
    """Classically correlated system-memory state sum_i p_i s_i (x) mu_i.

    Block-diagonal in the record basis; the fixed point of any dephasing
    channel whose pointer frame contains the record states.
    """
    return redundant_records(model, 1)


def _conditioned(rho_sm: DensityMatrix, record: Projector, system_dim: int) -> np.ndarray:
    """C = Tr_M[(1 (x) R) rho], O(d^2) over a view of rho: Tr C = p(mu), Tr(P C) = p(sigma, mu)."""
    blocks = rho_sm.elements.reshape(system_dim, record.dim, system_dim, record.dim)
    return np.einsum("aibj,ji->ab", blocks, record.elements)


def conditional_g(
    rho_sm: DensityMatrix, record: Projector, proposition: Projector
) -> float:
    """Predictive conditional probability p(sigma, mu) / p(mu).

    ``proposition`` acts on the system factor and ``record`` on the memory
    factor alone: g reads P on the system block that R selects.  Returns
    NaN (the undefined-conditional flag) when the record has no weight.
    """
    if proposition.dim * record.dim != rho_sm.dim:
        raise ValueError(
            "proposition and record dimensions must factor the joint state"
        )
    conditioned = _conditioned(rho_sm, record, proposition.dim)
    p_record = float(np.trace(conditioned).real)
    if p_record < 1e-12:
        return UNDEFINED_CONDITIONAL
    return _expectation(proposition.elements, conditioned) / p_record


def _record_support_projector(record: RecordState) -> Projector:
    if isinstance(record, PureState):
        return Projector.onto_vector(record.amplitudes)
    eigvals, eigvecs = np.linalg.eigh(record.elements)
    return _span_projector(eigvecs[:, eigvals > 1e-12])


def conditional_system_state(
    rho_sm: DensityMatrix, model: MemoryModel, outcome: int
) -> DensityMatrix:
    """Renormalized system state conditioned on one record outcome's support."""
    rec_proj = _record_support_projector(model.record_states[outcome])
    conditioned = _conditioned(rho_sm, rec_proj, 2**model.system_qubits)
    weight = float(np.trace(conditioned).real)
    _require(weight >= 1e-12, "outcome {} has no weight in the joint state", outcome)
    return DensityMatrix(conditioned / weight, model.system_qubits)


def outcome_horizon(
    model: MemoryModel,
    dynamics: DynamicsSpec,
    outcome: int,
    measure: str = "entropy",
) -> Horizon:
    """Predictability horizon of one outcome's conditional system state.

    The system factor evolves under ``dynamics`` while the record is held
    perfectly (no amnesia); the horizon of the conditional state is then
    the same normalized relaxation integral used by the sieve, with
    ``measure`` selecting the entropy or the purity functional.  Horizons
    can and typically will differ between outcomes.
    """
    horizons = {"entropy": predictability_horizon, "purity": purity_horizon}
    _require(measure in horizons, "unknown horizon measure {!r}", measure)
    conditional = conditional_system_state(correlate(model), model, outcome)
    return horizons[measure](evolve_entropy(conditional, dynamics))


def _kron_power(block: np.ndarray, cells: int) -> np.ndarray:
    """block (x) block (x) ... (x) block, ``cells`` factors, grouped from the left."""
    out = block
    for _ in range(cells - 1):
        out = np.kron(out, block)
    return out


def _cell_count(cells: int) -> int:
    """``cells`` as an int of at least 1: the replicas of each record."""
    cells = _integer(cells, "cells")
    _require(cells >= 1, "need at least one memory cell")
    return cells


def redundant_records(model: MemoryModel, cells: int) -> DensityMatrix:
    """Joint state with each outcome's record replicated across ``cells`` cells."""
    cells = _cell_count(cells)
    n = _check_register(model.system_qubits + cells * model.record_qubits, MAX_DENSE_QUBITS)
    total = None
    for i in range(model.outcome_count):
        replicated = _kron_power(_record_matrix(model.record_states[i]), cells)
        block = model.probabilities[i] * np.kron(
            _record_matrix(model.system_states[i]), replicated
        )
        total = block if total is None else total + block
    return _trusted(DensityMatrix, "elements", total, num_qubits=n)


def _readout_frame(basis: str, name: str) -> str:
    """The frame of the ``name`` basis: computational for "pointer", Hadamard for "conjugate"."""
    _require(basis in ("pointer", "conjugate"), "unknown {} {!r}", name, basis)
    return "hadamard" if basis == "conjugate" else "computational"


def _cell_matrices(model: MemoryModel, record_basis: str) -> list[np.ndarray]:
    """Each outcome's one-cell record, in the frame that ``record_basis`` names."""
    frame = _readout_frame(record_basis, "record basis")
    return [_in_pointer_frame(frame, _record_matrix(r)) for r in model.record_states]


def _record_register(
    probabilities: np.ndarray, blocks: Sequence[np.ndarray], cells: int
) -> np.ndarray:
    """sum_i p_i block_i^(x cells) over one block per outcome.

    Given the cell matrices this is the record register's density matrix,
    O(4^cells).  Given their diagonals it is the register's diagonal, at
    O(2^cells): the diagonal of a Kronecker chain is the chain of the
    diagonals, and the entries are the same products, so the same bits.
    """
    total = np.zeros(tuple(s**cells for s in blocks[0].shape), dtype=complex)
    for p_i, block in zip(probabilities, blocks):
        total += p_i * _kron_power(block, cells)
    return total


def branch_count(
    model: MemoryModel,
    record_basis: str,
    cells: int,
    channel: Optional[DephasingChannel] = None,
    threshold: float = 1e-6,
) -> int:
    """Number of surviving branches after the record register decoheres.

    Records are written in the pointer or the conjugate (Hadamard) basis,
    replicated over ``cells`` cells, then decohered in the register's
    einselected computational basis; branches are diagonal entries heavier
    than ``threshold``.  Pointer records keep one branch per outcome;
    conjugate records explode into 2^cells branches.  Only a ``channel``
    with another pointer frame needs the whole register.
    """
    min_p = float(model.probabilities.values.min())
    _require(
        0.0 < threshold < min_p, "threshold must lie in (0, {}), got {!r}", min_p, threshold
    )
    cells = _cell_count(cells)
    cell_mats = _cell_matrices(model, record_basis)
    probabilities = model.probabilities.values
    if channel is None:
        weights = _record_register(probabilities, [m.diagonal() for m in cell_mats], cells)
    else:
        width = _check_register(cells * model.record_qubits, MAX_DENSE_QUBITS)
        if channel.dim != 2**width:
            raise ValueError("channel dimension does not match the record register")
        register = _record_register(probabilities, cell_mats, cells)
        rho = _trusted(DensityMatrix, "elements", register, num_qubits=width)
        weights = decohered_limit(rho, channel).elements.diagonal()
    return int(np.sum(weights.real > threshold))


def record_consensus(model: MemoryModel, cells: int, basis: str) -> float:
    """Probability that all replicated cells agree when read in ``basis``.

    Reading replicated records in the basis they were einselected in gives
    perfect accord; reading them in the conjugate basis scatters the cells
    independently.  The register is sum_i p_i cell_i^(x cells), so the
    all-zeros and all-ones weights are sum_i p_i <e|cell_i|e>^cells over
    the two readout states e of one cell.
    """
    if model.record_qubits != 1:
        raise ValueError("consensus check expects single-qubit record cells")
    cells = _cell_count(cells)
    frame = _readout_frame(basis, "readout basis")
    total = 0.0
    for p_i, record in zip(model.probabilities.values, model.record_states):
        cell_weights = _in_pointer_frame(frame, _record_matrix(record)).diagonal().real
        total += p_i * float(np.sum(cell_weights**cells))
    return total


@dataclass(frozen=True, eq=False)
class RecordSequence:
    """Composite record: outcome symbols over time, with a declared alphabet."""

    symbols: tuple
    alphabet: tuple

    def __post_init__(self) -> None:
        alpha = tuple(self.alphabet)
        allowed = set(alpha)
        if len(alpha) < 2 or len(allowed) != len(alpha):
            raise ValueError("alphabet must hold at least two distinct symbols")
        syms = tuple(self.symbols)
        if not allowed.issuperset(syms):
            raise ValueError("sequence contains symbols outside the alphabet")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet", alpha)

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def constant(cls, symbol, length: int, alphabet: Sequence) -> "RecordSequence":
        return cls((symbol,) * _integer(length, "length"), tuple(alphabet))


def _run_lengths(symbols: Sequence) -> list[int]:
    return [len(list(run)) for _, run in groupby(symbols)]


def compressibility_proxy(sequence: RecordSequence) -> float:
    """Compressed/raw length ratio under a fixed two-stage ideal coder.

    Stage one run-length encodes the sequence; stage two charges each run
    log2(A-1) bits for its symbol (the first run gets log2(A)) plus the
    order-0 empirical entropy of the run-length stream.  Raw cost is
    log2(A) bits per symbol.  The result is a deterministic proxy - it is
    explicitly not the algorithmic information content, but it separates
    derivable records (trivially compressible) from algorithmically random
    ones (ratio near 1).
    """
    if len(sequence) < 16:
        raise ValueError("sequence too short for a stable ratio (need >= 16 symbols)")
    a = len(sequence.alphabet)
    runs = _run_lengths(sequence.symbols)
    counts = Counter(runs)
    n_runs = len(runs)
    length_entropy = 0.0
    for c in counts.values():
        freq = c / n_runs
        length_entropy -= freq * math.log2(freq)
    bits = math.log2(a) + (n_runs - 1) * math.log2(a - 1) + n_runs * length_entropy
    raw_bits = len(sequence) * math.log2(a)
    ratio = bits / raw_bits
    message = "compressibility ratio {!r} escaped (0, 1.2]"
    _require(0.0 < ratio <= 1.2, message, ratio, error=AssertionError)
    return ratio
