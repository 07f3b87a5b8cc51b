"""Observer-memory model: record correlations, their lifetime, and branches.

A memory model pairs each outcome with a system state and an orthogonal
record state.  After decoherence the joint state is the classically
correlated block mixture sum_i p_i |s_i><s_i| (x) |mu_i><mu_i| (system
qubits first, then memory).  On top of that the module computes the
predictive conditional probability g(t), per-outcome predictability
horizons, replicated (redundant) records, branch counting in the pointer
versus the conjugate record basis (a branch is a record string in the
support of the decohered register), and a deterministic compressibility
proxy for record sequences (an ideal-code-length stand-in for the
uncomputable algorithmic information content).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dephasing import _pointer_weights
from .probability import UNDEFINED_CONDITIONAL, ProbabilityVector
from .sieve import DynamicsSpec, Horizon, evolve_entropy, predictability_horizon
from .states import (
    MAX_DENSE_QUBITS,
    MAX_PURE_QUBITS,
    DensityMatrix,
    Projector,
    PureState,
    _check_register,
    _expectation,
    _integer,
    _pure_amplitudes,
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


def _orthogonality_defect(a: RecordState, b: RecordState, amps_a, amps_b) -> float:
    """|<a|b>| for two ``PureState`` records, else Tr(rho_a rho_b).

    ``amps_a`` and ``amps_b`` are the records' ``_pure_amplitudes``.  A
    record that has them is read from them, with no d x d matrix: the trace
    is |<a|b>|^2 for two of them and <a|rho_b|a> for one.
    """
    if amps_a is not None and amps_b is not None:
        overlap = abs(complex(np.vdot(amps_a, amps_b)))
        return overlap if isinstance(a, PureState) and isinstance(b, PureState) else overlap**2
    if amps_a is None and amps_b is None:
        return _expectation(a.elements, b.elements)
    amps, rho = (amps_a, b) if amps_b is None else (amps_b, a)
    return float(np.vdot(amps, rho.elements @ amps).real)


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

    def __post_init__(self) -> None:
        k = len(self.probabilities)
        if len(self.system_states) != k or len(self.record_states) != k:
            raise ValueError("need one system state and one record state per outcome")
        sys_n = {s.num_qubits for s in self.system_states}
        rec_n = {r.num_qubits for r in self.record_states}
        if len(sys_n) != 1 or len(rec_n) != 1:
            raise ValueError("system and record registers must each have fixed width")
        records = self.record_states
        amplitudes = [_pure_amplitudes(r) for r in records]
        for i in range(k):
            for j in range(i + 1, k):
                defect = _orthogonality_defect(records[i], records[j], amplitudes[i], amplitudes[j])
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


def outcome_horizon(model: MemoryModel, dynamics: DynamicsSpec, outcome: int) -> Horizon:
    """Predictability horizon of one outcome's conditional system state.

    The system factor evolves under ``dynamics`` while the record is held
    perfectly (no amnesia); the horizon of the conditional state is then
    the sieve's normalized entropy relaxation integral.  Horizons can and
    typically will differ between outcomes.  The purity horizon of outcome
    ``k`` is ``purity_horizon(evolve_entropy(conditional_system_state(
    correlate(model), model, k), dynamics))``.
    """
    conditional = conditional_system_state(correlate(model), model, outcome)
    return predictability_horizon(evolve_entropy(conditional, dynamics))


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


def branch_count(model: MemoryModel, record_basis: str, cells: int) -> int:
    """Number of branches: record strings that keep weight after the register decoheres.

    Records are written in the pointer or the conjugate (Hadamard) basis,
    replicated over ``cells`` cells, then decohered in the register's
    einselected computational basis.  A branch is a register string in the
    support of sum_i p_i cell_i^(x cells): some outcome i with p_i > 0 has
    every cell of the string in its one-cell support, the basis states
    whose cell weight exceeds ``RECORD_ORTHOGONALITY_TOL``.  A cell's
    weights are the record's readout-frame weights diag(W^H mu W)
    (``_pointer_weights``; |W^H psi|^2 for a pure record, with no d x d
    matrix), read only for outcomes of nonzero weight.  The count is
    exact, at any register weight.  Pointer records keep one branch per
    outcome; conjugate records explode into 2^cells branches.  Nothing of
    size 2^cells is built, yet the register keeps the ``MAX_PURE_QUBITS``
    width cap that every register of the package has.
    """
    cells = _cell_count(cells)
    _check_register(cells * model.record_qubits, MAX_PURE_QUBITS)
    frame = _readout_frame(record_basis, "record basis")
    # Each one-cell basis state's mask: the outcomes whose support holds it.
    masks = np.zeros(2**model.record_qubits, dtype=object)
    for i, (p_i, record) in enumerate(zip(model.probabilities.values, model.record_states)):
        if p_i > 0:
            masks[_pointer_weights(frame, record) > RECORD_ORTHOGONALITY_TOL] += 1 << i
    groups = Counter(masks.tolist())
    # Strings counted by the outcomes consistent with every cell so far.
    strings = Counter({(1 << model.outcome_count) - 1: 1})
    for _ in range(cells):
        folded = Counter()
        for mask, count in strings.items():
            for cell_mask, cell_count in groups.items():
                if mask & cell_mask:
                    folded[mask & cell_mask] += count * cell_count
        strings = folded
    return sum(strings.values())


def record_consensus(model: MemoryModel, cells: int, basis: str) -> float:
    """Probability that all replicated cells agree when read in ``basis``.

    Reading replicated records in the basis they were einselected in gives
    perfect accord; reading them in the conjugate basis scatters the cells
    independently.  The register is sum_i p_i cell_i^(x cells), so the
    all-zeros and all-ones weights are sum_i p_i <e|cell_i|e>^cells over
    the two readout states e of one cell; each record's <e|cell_i|e> are
    its readout-frame weights (``_pointer_weights``).
    """
    if model.record_qubits != 1:
        raise ValueError("consensus check expects single-qubit record cells")
    cells = _cell_count(cells)
    frame = _readout_frame(basis, "readout basis")
    total = 0.0
    for p_i, record in zip(model.probabilities.values, model.record_states):
        total += p_i * float(np.sum(_pointer_weights(frame, record) ** cells))
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
        length = _integer(length, "length")
        _require(length >= 0, "length must be nonnegative, got {!r}", length)
        return cls((symbol,) * length, tuple(alphabet))


def _run_lengths(symbols: Sequence, alphabet: Sequence) -> list[int]:
    """Lengths of the runs of equal symbols, in order.

    Each symbol is coded by its alphabet index, one dict lookup each; a run
    ends where consecutive codes differ (the codes -1 before and after the
    sequence close the first and last runs).
    """
    index = {symbol: i for i, symbol in enumerate(alphabet)}
    codes = np.fromiter(map(index.__getitem__, symbols), dtype=np.intp, count=len(symbols))
    return np.diff(np.flatnonzero(np.diff(codes, prepend=-1, append=-1))).tolist()


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
    runs = _run_lengths(sequence.symbols, sequence.alphabet)
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
