"""Environment-as-witness analysis of two-branch record states.

Conditional environment records are extracted by projecting the joint
state onto a system state; the redundancy distance between two records is
the least total number of single-qubit Pauli flips (X, Y and Z each count
as one) mapping one onto the other up to a global phase.  A Pauli string
is an X mask x and a Z mask z, and <b|X^x Z^z|a> is, up to phase, the
Walsh-Hadamard transform over j of conj(b[j ^ x]) a[j] at z: one transform
gives the overlaps of every Z mask for one X mask.  X masks are taken in
layers of increasing popcount, and the search stops after layer k once
the lightest match weighs at most k, since popcount(x | z) >= popcount(x).
Among matches of the least weight, the first in the order (qubit tuple,
then X < Y < Z labels) wins.  The search is capped at 8 environment qubits
(4^8 assignments).

Decoding robustness treats "k errors" as k complete decohering events:
each afflicted qubit suffers the relevant Pauli with probability 1/2
(a bit value, or a relative phase, that has been fully scrambled).  Under
bit-flip events a majority vote in the record basis survives any
minority of flips, while a single phase-flip event erases the sign of the
conjugate record entirely - the two branch ensembles become the same
mixture, so even the most favorable decoder is reduced to a coin toss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .dephasing import _hadamard_entry
from .states import PureState, _norm_sq, _readonly, _require, _trusted, check_qubits

MAX_SEARCH_QUBITS = 8
NULL_WEIGHT = 1e-12
MATCH_TOL = 1e-9
# X masks per transform: bounds the spectrum block at 16 x 2^n amplitudes.
_MASK_BLOCK = 16


@dataclass(frozen=True, eq=False)
class JointState:
    """Pure state over system (x) environment with an explicit register split."""

    state: PureState
    system: tuple[int, ...]
    environment: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.state.num_qubits
        sys_q = check_qubits(self.system, n)
        env_q = check_qubits(self.environment, n)
        if sorted(sys_q + env_q) != list(range(n)):
            raise ValueError("system and environment must partition the register")
        object.__setattr__(self, "system", sys_q)
        object.__setattr__(self, "environment", env_q)

    @property
    def environment_size(self) -> int:
        return len(self.environment)


@dataclass(frozen=True, eq=False)
class EnvironmentRecord:
    """Conditional environment state with its probability weight.

    A weight at or below 1e-12 marks a null record; null records carry a
    zero amplitude vector and are rejected by the distance search.  Records
    from ``environment_record`` are valid by construction and skip the
    copy and the checks through ``_trusted``.
    """

    amplitudes: np.ndarray
    weight: float
    num_qubits: int

    def __post_init__(self) -> None:
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        _require(amps.size == 2**self.num_qubits, "record length does not match qubit count")
        w = float(self.weight)
        _require(0 <= w <= 1 + 1e-9, "weight must lie in [0, 1], got {!r}", w)
        if w > NULL_WEIGHT:
            _require(abs(_norm_sq(amps) - 1.0) <= 1e-9, "non-null record must be normalized")
        else:
            _require(not amps.any(), "null record must carry zero amplitudes")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weight", w)

    @property
    def is_null(self) -> bool:
        return self.weight <= NULL_WEIGHT


@dataclass(frozen=True)
class FlipSequence:
    """Per-qubit flip assignment with its X/Y/Z counts."""

    labels: tuple[str, ...]
    n_x: int
    n_y: int
    n_z: int

    def __post_init__(self) -> None:
        for lab in self.labels:
            if lab not in ("I", "X", "Y", "Z"):
                raise ValueError(f"unknown flip label {lab!r}")
        counts = {
            "X": self.labels.count("X"),
            "Y": self.labels.count("Y"),
            "Z": self.labels.count("Z"),
        }
        if (self.n_x, self.n_y, self.n_z) != (counts["X"], counts["Y"], counts["Z"]):
            raise ValueError("flip counts do not match labels")

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "FlipSequence":
        labs = tuple(labels)
        return cls(labs, labs.count("X"), labs.count("Y"), labs.count("Z"))

    @property
    def total_flips(self) -> int:
        return self.n_x + self.n_y + self.n_z


def environment_record(joint: JointState, phi: PureState) -> EnvironmentRecord:
    """Conditional environment state <phi|Psi>, normalized, with its weight.

    The weight is the probability mass |<phi|Psi>|^2; a vanishing weight
    yields a flagged null record rather than a silently normalized one.
    The sum over system basis states skips those where phi vanishes, so
    conditioning on a basis state is one scaled copy of a slice of Psi.
    """
    n = joint.state.num_qubits
    n_sys = len(joint.system)
    if phi.num_qubits != n_sys:
        raise ValueError(
            f"conditioning state has {phi.num_qubits} qubits, system has {n_sys}"
        )
    # System axes first, then the environment in the order the record lists it.
    tensor = joint.state.amplitudes.reshape((2,) * n).transpose(joint.system + joint.environment)
    coeffs = phi.amplitudes.conj()
    raw = None
    for s in np.flatnonzero(coeffs).tolist():
        term = tensor[tuple((s >> (n_sys - 1 - i)) & 1 for i in range(n_sys))]
        if raw is None:
            raw = np.multiply(term, coeffs[s], out=np.empty(term.shape, dtype=complex))
        else:
            raw += term * coeffs[s]
    raw = raw.reshape(-1)
    weight = _norm_sq(raw)
    n_env = len(joint.environment)
    if weight <= NULL_WEIGHT:
        zeros = np.zeros(2**n_env, dtype=complex)
        return _trusted(EnvironmentRecord, "amplitudes", zeros, weight=0.0, num_qubits=n_env)
    # Both states are normalized, so the weight is at most 1 up to rounding.
    # Scaling the float parts by the reciprocal is what complex division by a
    # real computes, at a fifth of its cost.
    parts = raw.view(np.float64)
    np.multiply(parts, 1.0 / math.sqrt(weight), out=parts)
    return _trusted(EnvironmentRecord, "amplitudes", raw, weight=weight, num_qubits=n_env)


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row, by butterfly passes.

    out[:, z] = sum_j (-1)^popcount(j & z) rows[:, j]; rows have 2^n entries.
    """
    count, d = rows.shape
    half = 1
    while half < d:
        pairs = rows.reshape(count, d // (2 * half), 2, half)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        rows = np.stack((lo + hi, lo - hi), axis=2).reshape(count, d)
        half *= 2
    return rows


def _flip_labels(x_mask: int, z_mask: int, n: int) -> tuple[str, ...]:
    """Per-qubit labels of a Pauli string; qubit q is bit n-1-q (big-endian)."""
    return tuple(
        "IZXY"[((x_mask >> (n - 1 - q)) & 1) << 1 | ((z_mask >> (n - 1 - q)) & 1)]
        for q in range(n)
    )


def minimal_flip_sequence(
    a: EnvironmentRecord, b: EnvironmentRecord
) -> Optional[FlipSequence]:
    """Smallest flip assignment mapping record ``a`` onto ``b`` up to phase.

    X masks are visited in layers of increasing popcount, in blocks of up
    to 16; one Walsh-Hadamard transform per block gives the overlap of
    every Z mask.  A match (overlap magnitude >= 1 - 1e-9) weighs
    popcount(x | z) >= popcount(x), so the search ends after layer k once
    the lightest match found weighs at most k.  Ties go to the first
    assignment in (weight, qubit tuple, X < Y < Z labels) order.  Returns
    None when no assignment matches.
    """
    if a.is_null or b.is_null:
        raise ValueError("null records have no flip distance")
    if a.num_qubits != b.num_qubits:
        raise ValueError("records must live on equally sized environments")
    n = a.num_qubits
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"flip search capped at {MAX_SEARCH_QUBITS} qubits, got {n}")

    indices = np.arange(2**n, dtype=np.intp)
    layer_of = np.bitwise_count(indices)
    b_conj = b.amplitudes.conj()
    best = None  # ((weight, qubit tuple, Pauli labels), per-qubit labels)
    for layer in range(n + 1):
        x_masks = indices[layer_of == layer]
        for start in range(0, x_masks.size, _MASK_BLOCK):
            block = x_masks[start : start + _MASK_BLOCK]
            spectrum = _walsh_hadamard(b_conj[indices ^ block[:, None]] * a.amplitudes)
            rows, z_masks = np.nonzero(np.abs(spectrum) >= 1.0 - MATCH_TOL)
            if rows.size == 0:
                continue
            hit_x = block[rows]
            weights = np.bitwise_count(hit_x | z_masks)
            lightest = weights == weights.min()
            for x, z in zip(hit_x[lightest].tolist(), z_masks[lightest].tolist()):
                labels = _flip_labels(x, z, n)
                qubits = tuple(q for q, p in enumerate(labels) if p != "I")
                key = (len(qubits), qubits, tuple(labels[q] for q in qubits))
                if best is None or key < best[0]:
                    best = (key, labels)
        if best is not None and best[0][0] <= layer:
            break
    return None if best is None else FlipSequence.from_labels(best[1])


def redundancy_distance(a: EnvironmentRecord, b: EnvironmentRecord) -> float:
    """Least total number of single-qubit flips converting ``a`` into ``b``.

    Returns math.inf when no per-qubit flip assignment connects the two
    records (possible when they differ in entanglement structure).
    """
    seq = minimal_flip_sequence(a, b)
    return math.inf if seq is None else float(seq.total_flips)


@dataclass(frozen=True, eq=False)
class MetricAxiomReport:
    distances: np.ndarray
    violations: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return not self.violations


def verify_metric_axioms(records: Sequence[EnvironmentRecord]) -> MetricAxiomReport:
    """Check nonnegativity, symmetry and the triangle inequality over all triples."""
    if len(records) < 3:
        raise ValueError("need at least three records to exercise the axioms")
    m = len(records)
    dist = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = redundancy_distance(records[i], records[j])
            dist[j, i] = redundancy_distance(records[j], records[i])

    violations: list[str] = []
    for i in range(m):
        for j in range(m):
            if dist[i, j] < 0:
                violations.append(f"negative distance d({i},{j}) = {dist[i, j]}")
            if dist[i, j] != dist[j, i]:
                violations.append(
                    f"asymmetry d({i},{j}) = {dist[i, j]} != d({j},{i}) = {dist[j, i]}"
                )
    for i, j, k in product(range(m), repeat=3):
        if dist[i, j] + dist[j, k] < dist[i, k] - 1e-12:
            violations.append(
                f"triangle violation d({i},{j}) + d({j},{k}) < d({i},{k})"
            )
    return MetricAxiomReport(_readonly(dist, dtype=float), tuple(violations))


def majority_decode(outcome_bits: Sequence[int]) -> int:
    """Majority symbol of an odd-length 0/1 list."""
    bits = [int(b) for b in outcome_bits]
    if len(bits) % 2 == 0:
        raise ValueError("majority vote needs an odd number of outcomes")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("outcomes must be 0 or 1")
    return 1 if sum(bits) * 2 > len(bits) else 0


def _record_basis_index(record: EnvironmentRecord) -> int:
    """Basis label of a computational-basis record (up to phase)."""
    idx = int(np.argmax(np.abs(record.amplitudes)))
    peak = abs(record.amplitudes[idx])
    _require(abs(peak - 1.0) <= MATCH_TOL, "record is not a computational basis state")
    return idx


def _check_two_branch(joint: JointState) -> tuple[EnvironmentRecord, EnvironmentRecord]:
    if len(joint.system) != 1:
        raise ValueError("decoding robustness expects a single system qubit")
    r0 = environment_record(joint, PureState.basis(1, 0))
    r1 = environment_record(joint, PureState.basis(1, 1))
    if r0.is_null or r1.is_null:
        raise ValueError("state is not a two-branch record state")
    n = joint.environment_size
    if _record_basis_index(r0) != 0 or _record_basis_index(r1) != 2**n - 1:
        raise ValueError("expected all-zeros / all-ones environment records")
    return r0, r1


def error_robustness(joint: JointState, basis: str, k: int) -> float:
    """Fraction of k-error patterns from which the system bit is still decodable.

    ``basis`` selects the decoding sector: "pointer" applies bit-flip
    events and decodes by majority vote in the record basis; "hadamard"
    applies phase-flip events and infers the record sign from a full
    |+>/|-> measurement with the best outcome-by-outcome decoder.  Every
    pattern of k afflicted environment qubits is enumerated and the mean
    per-pattern success probability is returned.
    """
    n = joint.environment_size
    if k < 0 or k > n:
        raise ValueError(f"error count {k} outside 0..{n}")
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"pattern enumeration capped at {MAX_SEARCH_QUBITS} qubits")
    _check_two_branch(joint)

    if basis == "pointer":
        return _pointer_robustness(n, k)
    if basis == "hadamard":
        return _hadamard_robustness(joint, n, k)
    raise ValueError(f"unknown decoding basis {basis!r}")


def _pointer_robustness(n: int, k: int) -> float:
    """Majority decode under k bit-value-scrambling events, exact average.

    Each event flips its bit with probability 1/2; the vote survives at most
    (n - 1) / 2 flips, for either branch and every choice of afflicted qubits.
    """
    if n % 2 == 0:
        raise ValueError("majority vote needs an odd number of outcomes")
    return sum(math.comb(k, j) for j in range(min(k, (n - 1) // 2) + 1)) / 2**k


def _hadamard_robustness(joint: JointState, n: int, k: int) -> float:
    """Best-decoder sign inference under k phase-scrambling events.

    Since H Z_m = X_m H, a phase flip on mask m only permutes a branch's
    Hadamard-basis weights, w_m[j] = w[j ^ m]; each branch is transformed once.
    The amplitudes are scaled by the Hadamard frame's entry before the
    butterflies, so a two-term record gets the very weights the frame's
    matrix product gives (and CLI output its bytes).
    """
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) / math.sqrt(2.0))
    records = np.array([environment_record(joint, s).amplitudes for s in (plus, minus)])
    weights = np.abs(_walsh_hadamard(records * _hadamard_entry(n))) ** 2

    indices = np.arange(2**n, dtype=np.intp)
    bit_of = [1 << (n - 1 - q) for q in range(n)]
    signs = np.array(list(product((0, 1), repeat=k)), dtype=np.intp)

    total = 0.0
    patterns = 0
    for pattern in combinations(range(n), k):
        masks = signs @ np.array([bit_of[q] for q in pattern], dtype=np.intp)
        dists = [w[indices ^ masks[:, None]].mean(axis=0) for w in weights]
        # Optimal outcome-by-outcome guess between the two equiprobable branches.
        total += 0.5 * float(np.sum(np.maximum(dists[0], dists[1])))
        patterns += 1
    return total / patterns
