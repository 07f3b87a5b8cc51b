"""References for the minimal flip search and the metric-axiom check.

``minimal_flip_sequence`` is the search as it was before it became a
Walsh-Hadamard spectrum: every Pauli string is tried on its own, in order
of increasing flip count, then qubit combination, then X < Y < Z labels,
and the first string whose overlap reaches 1 - 1e-9 wins.  Each string
costs one gather and one sum, up to 4^n of them.

``layered_flip_sequence`` is the spectral search as it was before it
pruned X masks by their magnitude correlation: every X mask of every
visited popcount layer is transformed, and the winner among equally light
matches is picked by building each hit's labels and comparing tuples.  It
uses the package's own transform, so that a comparison isolates the prune.

``pairwise_flip_sequence`` is the pruned search as it was before pairs
shared their transforms: one pair, three transforms of fixed cost, and its
own layer loop.  ``pairwise_metric_axioms`` is the metric-axiom check as it
was then: one ``pairwise_flip_sequence`` per ordered pair, (i, j) and then
(j, i) for i < j, and the sign, symmetry and triangle loops over numpy
scalars.

The tests compare the shared search in ``decohere.redundancy`` against all
of them.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from decohere.dephasing import _walsh_hadamard
from decohere.redundancy import (
    MATCH_TOL,
    MAX_SEARCH_QUBITS,
    EnvironmentRecord,
    FlipSequence,
    MetricAxiomReport,
    _flip_labels,
)
from decohere.states import _readonly

_PARITY_TABLE = np.array([bin(i).count("1") & 1 for i in range(256)], dtype=np.uint8)


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    """Popcount parity of ``indices & mask`` for registers up to 8 qubits."""
    return _PARITY_TABLE[indices & mask]


def _flip_overlap(
    a: np.ndarray, b_conj: np.ndarray, indices: np.ndarray, x_mask: int, z_mask: int
) -> float:
    """|<b| P |a>| for the Pauli string with the given X/Z masks.

    P acts as |j> -> (-1)^parity(j & z_mask) |j ^ x_mask| up to a global
    phase, which cannot change the overlap magnitude.
    """
    shifted = b_conj[indices ^ x_mask]
    signs = 1.0 - 2.0 * _parity(indices, z_mask).astype(float)
    return abs(np.sum(shifted * signs * a))


def minimal_flip_sequence(
    a: EnvironmentRecord, b: EnvironmentRecord
) -> Optional[FlipSequence]:
    """Smallest flip assignment mapping record ``a`` onto ``b`` up to phase.

    Assignments are enumerated in order of increasing total flip count, so
    the first hit is minimal.  Returns None when no assignment reaches unit
    overlap magnitude (within 1e-9).
    """
    if a.is_null or b.is_null:
        raise ValueError("null records have no flip distance")
    if a.num_qubits != b.num_qubits:
        raise ValueError("records must live on equally sized environments")
    n = a.num_qubits
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"flip search capped at {MAX_SEARCH_QUBITS} qubits, got {n}")

    indices = np.arange(2**n, dtype=np.intp)
    b_conj = b.amplitudes.conj()
    # Qubit q is the (n-1-q)-th bit of the basis index (big-endian).
    bit_of = [1 << (n - 1 - q) for q in range(n)]

    for flips in range(n + 1):
        for qubits in combinations(range(n), flips):
            for paulis in product("XYZ", repeat=flips):
                x_mask = 0
                z_mask = 0
                for q, p in zip(qubits, paulis):
                    if p != "Z":
                        x_mask |= bit_of[q]
                    if p != "X":
                        z_mask |= bit_of[q]
                if _flip_overlap(a.amplitudes, b_conj, indices, x_mask, z_mask) >= 1.0 - MATCH_TOL:
                    labels = ["I"] * n
                    for q, p in zip(qubits, paulis):
                        labels[q] = p
                    return FlipSequence(labels)
    return None


def layered_flip_sequence(
    a: EnvironmentRecord, b: EnvironmentRecord
) -> Optional[FlipSequence]:
    """The flip search with one transform of every X mask per visited layer.

    X masks are visited in layers of increasing popcount; one
    Walsh-Hadamard transform per layer (at most 70 x 256 entries at 8
    qubits) gives the overlap of every Z mask.  A match weighs
    popcount(x | z) >= popcount(x), so the search ends after layer k once
    the lightest match found weighs at most k.
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


def pairwise_flip_sequence(
    a: EnvironmentRecord, b: EnvironmentRecord
) -> Optional[FlipSequence]:
    """The pruned flip search of one pair, with its own transforms and layer loop.

    c[x] = sum_j |b[j ^ x]| |a[j]| comes from WHT(WHT|a| * WHT|b|) / 2^n; only
    X masks with c[x] >= 1 - 2e-9 are transformed, one transform per
    popcount layer that holds any, and the search stops before layer k once
    the lightest match found weighs less than k.
    """
    if a.is_null or b.is_null:
        raise ValueError("null records have no flip distance")
    if a.num_qubits != b.num_qubits:
        raise ValueError("records must live on equally sized environments")
    n = a.num_qubits
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"flip search capped at {MAX_SEARCH_QUBITS} qubits, got {n}")

    indices = np.arange(2**n, dtype=np.intp)
    magnitudes = _walsh_hadamard(np.abs([a.amplitudes, b.amplitudes]))
    correlation = _walsh_hadamard(magnitudes[:1] * magnitudes[1:])[0] / 2**n  # c[x]
    candidates = indices[correlation >= 1.0 - 2 * MATCH_TOL]
    layer_of = np.bitwise_count(candidates)
    b_conj = b.amplitudes.conj()
    best = None  # ((weight, qubit tuple, Pauli labels), per-qubit labels)
    for layer in np.flatnonzero(np.bincount(layer_of)).tolist():
        if best is not None and best[0][0] < layer:
            break
        x_masks = candidates[layer_of == layer]
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
    return None if best is None else FlipSequence(best[1])


def pairwise_metric_axioms(records: Sequence[EnvironmentRecord]) -> MetricAxiomReport:
    """Nonnegativity, symmetry and the triangle inequality, one search per ordered pair."""
    if len(records) < 3:
        raise ValueError("need at least three records to exercise the axioms")
    m = len(records)
    dist = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            for s, t in ((i, j), (j, i)):
                seq = pairwise_flip_sequence(records[s], records[t])
                dist[s, t] = math.inf if seq is None else float(seq.total_flips)

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
