"""Environment-as-witness analysis of two-branch record states.

Conditional environment records are extracted by projecting the joint
state onto a system state; the redundancy distance between two records is
the least total number of single-qubit Pauli flips (X, Y and Z each count
as one) mapping one onto the other up to a global phase.  A Pauli string
is an X mask x and a Z mask z, and <b|X^x Z^z|a> is, up to phase, the
Walsh-Hadamard transform over j of conj(b[j ^ x]) a[j] at z: one transform
gives the overlaps of every Z mask for one X mask.  X masks are taken in
layers of increasing popcount, all masks of a layer in one transform, and
the search stops after layer k once the lightest match weighs at most k,
since popcount(x | z) >= popcount(x).
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
A decoder facing the k scrambled qubits of a pattern P can use only the
Hadamard-basis weights summed over those qubits.  With D_P the difference
of the two branches' summed weights, its best guess succeeds with
probability 1/2 + ||D_P||_1 / 4.  This is exact: max(a, b) =
(a + b + |a - b|) / 2, and each normalized branch's weights sum to 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .dephasing import _pointer_coefficients, _walsh_hadamard
from .states import PureState, _norm_sq, _readonly, _require, _trusted, check_qubits

MAX_SEARCH_QUBITS = 8
NULL_WEIGHT = 1e-12
MATCH_TOL = 1e-9


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
    """Per-qubit flip assignment; its X/Y/Z counts are counted from the labels."""

    labels: tuple[str, ...]
    n_x: int = field(init=False)
    n_y: int = field(init=False)
    n_z: int = field(init=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for lab in labels:
            if lab not in ("I", "X", "Y", "Z"):
                raise ValueError(f"unknown flip label {lab!r}")
        object.__setattr__(self, "labels", labels)
        for name, lab in (("n_x", "X"), ("n_y", "Y"), ("n_z", "Z")):
            object.__setattr__(self, name, labels.count(lab))

    @property
    def total_flips(self) -> int:
        return self.n_x + self.n_y + self.n_z


def _register_tensor(joint: JointState) -> np.ndarray:
    """Amplitudes as a (2,) * n view: system axes first, then the environment in record order."""
    n = joint.state.num_qubits
    return joint.state.amplitudes.reshape((2,) * n).transpose(joint.system + joint.environment)


def _normalize(raw: np.ndarray) -> float:
    """Squared norm of the contiguous vector ``raw``, scaled in place to unit norm unless null."""
    weight = _norm_sq(raw)
    if weight > NULL_WEIGHT:
        # Scaling the float parts by the reciprocal is what complex division by a
        # real computes, at a fifth of its cost.
        parts = raw.view(np.float64)
        np.multiply(parts, 1.0 / math.sqrt(weight), out=parts)
    return weight


def environment_record(joint: JointState, phi: PureState) -> EnvironmentRecord:
    """Conditional environment state <phi|Psi>, normalized, with its weight.

    The weight is the probability mass |<phi|Psi>|^2; a vanishing weight
    yields a flagged null record rather than a silently normalized one.
    The sum over system basis states skips those where phi vanishes, so
    conditioning on a basis state is one scaled copy of a slice of Psi.
    """
    n_sys = len(joint.system)
    if phi.num_qubits != n_sys:
        raise ValueError(
            f"conditioning state has {phi.num_qubits} qubits, system has {n_sys}"
        )
    tensor = _register_tensor(joint)
    coeffs = phi.amplitudes.conj()
    raw = None
    for s in np.flatnonzero(coeffs).tolist():
        term = tensor[tuple((s >> (n_sys - 1 - i)) & 1 for i in range(n_sys))]
        if raw is None:
            raw = np.multiply(term, coeffs[s], out=np.empty(term.shape, dtype=complex))
        else:
            raw += term * coeffs[s]
    raw = raw.reshape(-1)
    # Both states are normalized, so the weight is at most 1 up to rounding.
    weight = _normalize(raw)
    n_env = len(joint.environment)
    if weight <= NULL_WEIGHT:
        zeros = np.zeros(2**n_env, dtype=complex)
        return _trusted(EnvironmentRecord, "amplitudes", zeros, weight=0.0, num_qubits=n_env)
    return _trusted(EnvironmentRecord, "amplitudes", raw, weight=weight, num_qubits=n_env)


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

    X masks are visited in layers of increasing popcount; one
    Walsh-Hadamard transform per layer (at most 70 x 256 entries at 8
    qubits) gives the overlap of every Z mask.  A match (overlap magnitude
    >= 1 - 1e-9) weighs popcount(x | z) >= popcount(x), so the search ends
    after layer k once the lightest match found weighs at most k.  Ties go
    to the first assignment in (weight, qubit tuple, X < Y < Z labels)
    order.  Returns None when no assignment matches.
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
        spectrum = _walsh_hadamard(b_conj[indices ^ x_masks[:, None]] * a.amplitudes)
        rows, z_masks = np.nonzero(np.abs(spectrum) >= 1.0 - MATCH_TOL)
        if rows.size:
            hit_x = x_masks[rows]
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
    return None if best is None else FlipSequence(best[1])


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
    bits = list(outcome_bits)
    if len(bits) % 2 == 0:
        raise ValueError("majority vote needs an odd number of outcomes")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("outcomes must be 0 or 1")
    return 1 if sum(int(b) for b in bits) * 2 > len(bits) else 0


def _record_basis_index(amplitudes: np.ndarray) -> int:
    """Basis label of a normalized computational-basis record (up to phase)."""
    idx = int(np.argmax(np.abs(amplitudes)))
    peak = abs(amplitudes[idx])
    _require(abs(peak - 1.0) <= MATCH_TOL, "record is not a computational basis state")
    return idx


def _two_branch_rows(joint: JointState) -> np.ndarray:
    """Unnormalized branch rows <0|Psi> and <1|Psi>, the environment in record order.

    Normalized copies must be the all-zeros and all-ones records within ``MATCH_TOL``.
    """
    if len(joint.system) != 1:
        raise ValueError("decoding robustness expects a single system qubit")
    rows = _register_tensor(joint).reshape(2, -1)
    r0, r1 = rows.copy()
    if min(_normalize(r0), _normalize(r1)) <= NULL_WEIGHT:
        raise ValueError("state is not a two-branch record state")
    if _record_basis_index(r0) != 0 or _record_basis_index(r1) != r1.size - 1:
        raise ValueError("expected all-zeros / all-ones environment records")
    return rows


def error_robustness(joint: JointState, basis: str, k: int) -> float:
    """Fraction of k-error patterns from which the system bit is still decodable.

    ``basis`` selects the decoding sector: "pointer" applies bit-flip
    events and decodes by majority vote in the record basis; "hadamard"
    applies phase-flip events and infers the record sign from a full
    |+>/|-> measurement with the best outcome-by-outcome decoder.  Every
    pattern of k afflicted environment qubits is enumerated and the mean
    per-pattern success probability is returned.  The joint state is split
    once into its two branch rows, which serve both the two-branch check
    and the |+>/|-> records.
    """
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"error count must be an integer, got {k!r}")
    n = joint.environment_size
    if n == 0:
        raise ValueError("decoding robustness needs at least one environment qubit")
    if k < 0 or k > n:
        raise ValueError(f"error count {k} outside 0..{n}")
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"pattern enumeration capped at {MAX_SEARCH_QUBITS} qubits")
    rows = _two_branch_rows(joint)

    if basis == "pointer":
        return _pointer_robustness(n, k)
    if basis == "hadamard":
        return _hadamard_robustness(rows, n, k)
    raise ValueError(f"unknown decoding basis {basis!r}")


def _pointer_robustness(n: int, k: int) -> float:
    """Majority decode under k bit-value-scrambling events, exact average.

    Each event flips its bit with probability 1/2; the vote survives at most
    (n - 1) / 2 flips, for either branch and every choice of afflicted qubits.
    """
    if n % 2 == 0:
        raise ValueError("majority vote needs an odd number of outcomes")
    return sum(math.comb(k, j) for j in range(min(k, (n - 1) // 2) + 1)) / 2**k


def _hadamard_robustness(rows: np.ndarray, n: int, k: int) -> float:
    """Best-decoder sign inference under k phase-scrambling events.

    As ``environment_record`` forms them, the |+>/|-> records are a + b and a - b,
    each normalized, with a and b the unnormalized branch ``rows`` times 1/sqrt(2).
    Since H Z_m = X_m H, a phase flip on mask m only permutes a branch's
    Hadamard-basis weights, w_m[j] = w[j ^ m].  Averaged over the flips of a
    pattern P they are constant on each coset of P, so the best guess between
    the two branches succeeds with probability 1/2 + ||D_P||_1 / 4, D_P the
    difference w+ - w- summed over P's axes.  This is exact, since
    max(a, b) = (a + b + |a - b|) / 2 and each branch's weights sum to 1.
    """
    a, b = rows * (1.0 / math.sqrt(2.0))
    records = np.array([a + b, a - b])
    for record in records:
        _normalize(record)
    w_plus, w_minus = np.abs(_pointer_coefficients("hadamard", records)) ** 2
    diff = (w_plus - w_minus).reshape((2,) * n)
    norms = [float(np.abs(diff.sum(axis=pattern)).sum()) for pattern in combinations(range(n), k)]
    return 0.5 + 0.25 * (sum(norms) / len(norms))
