"""The spectral flip search against the Pauli-string loop it replaced.

``flip_oracle`` holds ``minimal_flip_sequence`` as a loop over Pauli strings
in (weight, qubit tuple, X < Y < Z labels) order that stops at the first
match.  The spectral search must return the same ``FlipSequence``, or None,
exactly: the same weight, and the same winner among equally light matches.
"""

import math

import numpy as np
import pytest

import flip_oracle
from decohere.redundancy import (
    MAX_SEARCH_QUBITS,
    EnvironmentRecord,
    FlipSequence,
    minimal_flip_sequence,
)

RNG = np.random.default_rng(4)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _record(vec) -> EnvironmentRecord:
    vec = np.asarray(vec, dtype=complex)
    n = int(round(math.log2(vec.size)))
    return EnvironmentRecord(vec / np.linalg.norm(vec), 1.0, n)


def _same_as_oracle(a: EnvironmentRecord, b: EnvironmentRecord):
    got, want = minimal_flip_sequence(a, b), flip_oracle.minimal_flip_sequence(a, b)
    assert got == want
    if want is not None:
        assert (want.n_x, want.n_y, want.n_z) == tuple(want.labels.count(p) for p in "XYZ")
    return got


def _random_vector(d: int) -> np.ndarray:
    return RNG.normal(size=d) + 1j * RNG.normal(size=d)


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_planted_flips_of_every_weight(n):
    for weight in range(n + 1):
        qubits = [_random_vector(2) for _ in range(n)]
        flipped = RNG.choice(n, size=weight, replace=False)
        planted = {int(q): str(RNG.choice(list("XYZ"))) for q in flipped}
        a = np.ones(1, dtype=complex)
        b = np.exp(1j * RNG.uniform(0.0, 2.0 * math.pi)) * np.ones(1)
        for q, amp in enumerate(qubits):
            a = np.kron(a, amp)
            b = np.kron(b, PAULI[planted[q]] @ amp if q in planted else amp)
        seq = _same_as_oracle(_record(a), _record(b))
        assert seq.labels == tuple(planted.get(q, "I") for q in range(n))


def _tie_heavy_family(n: int) -> dict[str, list[np.ndarray]]:
    """Records with many equally light matches, grouped so no flip joins two groups."""
    d = 2**n
    basis = []
    for k in sorted({0, d - 1, 1, d // 2, int(RNG.integers(d))}):
        vec = np.zeros(d)
        vec[k] = 1.0
        basis.append(vec)
    ghz = [np.zeros(d), np.zeros(d)]
    for sign, vec in zip((1.0, -1.0), ghz):
        vec[0], vec[-1] = 1.0, sign
    parity = np.bitwise_count(np.arange(d)) & 1
    return {
        "basis": basis,
        "ghz": ghz,
        "plus": [np.ones(d), 1.0 - 2.0 * parity],
        "parity": [parity.astype(float), 1.0 - parity],
    }


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_tie_heavy_pairs(n):
    family = _tie_heavy_family(n)
    # Pairs across groups search all 4^n strings in the oracle; take them at n <= 5.
    groups = [sum(family.values(), [])] if n <= 5 else list(family.values())
    for group in groups:
        for va in group:
            for vb in group:
                _same_as_oracle(_record(va), _record(vb))


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_unconnectable_random_pairs(n):
    d = 2**n
    a, b = _record(_random_vector(d)), _record(_random_vector(d))
    assert _same_as_oracle(a, b) is None


def test_zero_qubit_records_match_without_flips():
    a = EnvironmentRecord(np.array([1.0]), 1.0, 0)
    b = EnvironmentRecord(np.array([np.exp(0.3j)]), 1.0, 0)
    assert _same_as_oracle(a, b) == FlipSequence(())


def test_search_input_checks():
    null = EnvironmentRecord(np.zeros(4, dtype=complex), 0.0, 2)
    live = _record(_random_vector(4))
    for a, b in ((null, live), (live, null)):
        with pytest.raises(ValueError, match="null records have no flip distance"):
            minimal_flip_sequence(a, b)
    with pytest.raises(ValueError, match="equally sized environments"):
        minimal_flip_sequence(live, _record(_random_vector(8)))
    wide = _record(_random_vector(2 ** (MAX_SEARCH_QUBITS + 1)))
    with pytest.raises(ValueError, match="capped at 8 qubits, got 9"):
        minimal_flip_sequence(wide, wide)
