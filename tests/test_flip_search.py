"""The shared flip search against the searches it replaced.

``flip_oracle`` holds ``minimal_flip_sequence``, a loop over Pauli strings
in (weight, qubit tuple, X < Y < Z labels) order that stops at the first
match; ``layered_flip_sequence``, the spectral search that transforms
every X mask of each visited layer and breaks ties by comparing label
tuples; and ``pairwise_flip_sequence``, the pruned search of one pair with
its own transforms.  The search must return the same ``FlipSequence``, or
None, as all of them, exactly: the same weight, and the same winner among
equally light matches.  Run on every ordered pair of a record set at once,
it must give each pair what the one-pair searches give, and
``verify_metric_axioms`` must give the bytes of ``pairwise_metric_axioms``,
the check that searched each ordered pair on its own.
"""

import itertools
import math

import numpy as np
import pytest

import flip_oracle
from decohere import redundancy
from decohere.redundancy import (
    MATCH_TOL,
    MAX_SEARCH_QUBITS,
    EnvironmentRecord,
    FlipSequence,
    minimal_flip_sequence,
    verify_metric_axioms,
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


def _same_as_oracle(a: EnvironmentRecord, b: EnvironmentRecord, strings: bool = True):
    """The pruned search against the layered one and, if ``strings``, the Pauli-string loop."""
    got, want = minimal_flip_sequence(a, b), flip_oracle.layered_flip_sequence(a, b)
    assert got == want
    if strings:
        assert flip_oracle.minimal_flip_sequence(a, b) == want
    if want is not None:
        assert (want.n_x, want.n_y, want.n_z) == tuple(want.labels.count(p) for p in "XYZ")
    return got


def _random_vector(d: int) -> np.ndarray:
    return RNG.normal(size=d) + 1j * RNG.normal(size=d)


def _planted_pair(qubits, weight: int):
    """Product of ``qubits``, a copy with random flips of ``weight`` at a random phase, and the flips."""
    n = len(qubits)
    flipped = RNG.choice(n, size=weight, replace=False)
    planted = {int(q): str(RNG.choice(list("XYZ"))) for q in flipped}
    a = np.ones(1, dtype=complex)
    b = np.exp(1j * RNG.uniform(0.0, 2.0 * math.pi)) * np.ones(1)
    for q, amp in enumerate(qubits):
        a = np.kron(a, amp)
        b = np.kron(b, PAULI[planted[q]] @ amp if q in planted else amp)
    return a, b, tuple(planted.get(q, "I") for q in range(n))


@pytest.mark.parametrize("n", range(MAX_SEARCH_QUBITS + 1))
def test_planted_flips_of_every_weight(n):
    for weight in range(n + 1):
        a, b, labels = _planted_pair([_random_vector(2) for _ in range(n)], weight)
        assert _same_as_oracle(_record(a), _record(b)).labels == labels


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_uniform_magnitude_pairs(n):
    """Every X mask is a candidate: the prune removes nothing and the layers stop the search."""
    d = 2**n
    for weight in range(n + 1):
        qubits = [np.array([1.0, np.exp(1j * RNG.uniform(0.0, 2.0 * math.pi))]) for _ in range(n)]
        a, b, labels = _planted_pair(qubits, weight)
        assert _same_as_oracle(_record(a), _record(b)).labels == labels
    phases = np.exp(2j * math.pi * RNG.uniform(size=(2, d)))
    # The Pauli-string loop tries all 4^n strings here; take it at n <= 6.
    assert _same_as_oracle(_record(phases[0]), _record(phases[1]), n <= 6) is None


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_overlaps_at_the_match_tolerance(n):
    """Planted pairs whose best overlap sits just above or just below 1 - ``MATCH_TOL``.

    b = cos(t) P a + sin(t) e_k with P a planted string and e_k a basis state
    where P a vanishes, so the planted overlap and the magnitude correlation
    of its X mask are both cos(t).  At 1 - 1.5 ``MATCH_TOL`` the mask is still
    a candidate that holds no match; at 1 - 2.5 ``MATCH_TOL`` it is pruned.
    """
    d = 2**n
    for offset in (0.5, -0.5, -1.5):
        for weight in range(n + 1):
            # Qubit 0 starts in |0>, so P a vanishes on half the register.
            qubits = [np.array([1.0, 0.0])] + [_random_vector(2) for _ in range(n - 1)]
            a, planted, _ = _planted_pair(qubits, weight)
            planted /= np.linalg.norm(planted)
            a /= np.linalg.norm(a)
            k = int(RNG.choice(np.flatnonzero(planted == 0)))
            cos = 1.0 - MATCH_TOL + offset * MATCH_TOL
            b = cos * planted + math.sqrt(1.0 - cos**2) * np.eye(d)[k]
            # With no match the Pauli-string loop tries all 4^n strings; take it at n <= 6.
            seq = _same_as_oracle(EnvironmentRecord(a, 1.0, n), _record(b), offset > 0 or n <= 6)
            # On qubit 0, Y acts as X and Z as I, so the winner can be lighter than planted.
            assert seq is None if offset < 0 else seq.total_flips <= weight


def _tie_heavy_family(n: int) -> dict[str, list[np.ndarray]]:
    """Records with many equally light matches, grouped so no flip joins two groups."""
    d = 2**n
    basis = []
    for k in sorted({0, d - 1, 1, d // 2, int(RNG.integers(d))}):
        vec = np.zeros(d)
        vec[k] = 1.0
        basis.append(vec)
    ghz = [np.zeros(d), np.zeros(d), np.zeros(d)]
    for sign, vec in zip((1.0, -1.0), ghz):
        vec[0], vec[-1] = 1.0, sign
    # X on qubit 0 and the top qubits, or on the rest, maps GHZ+ here: at even n two
    # equally light supports whose qubit tuples order differently when reversed.
    m = (1 << (n - 1)) | ((1 << (n - n // 2 - 1)) - 1)
    ghz[2][m] = ghz[2][m ^ (d - 1)] = 1.0
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


# --- every ordered pair of a record set in one search ------------------------


def _same_over_set(records, strings_to: int = 6):
    """Every ordered pair of ``records`` in one shared search, against the one-pair searches.

    The Pauli-string loop joins where n <= ``strings_to``; with no match it
    tries all 4^n strings, so unconnectable pairs take it only at n <= 4.
    Returns the distance table.
    """
    n, m = records[0].num_qubits, len(records)
    left, right = np.divmod(np.arange(m * m), m)
    found = redundancy._flip_searches(np.array([r.amplitudes for r in records]), left, right)
    table = np.zeros((m, m))
    for i, j, entry in zip(left.tolist(), right.tolist(), found):
        a, b = records[i], records[j]
        got = None if entry is None else FlipSequence(entry[1])
        want = flip_oracle.pairwise_flip_sequence(a, b)
        assert got == want == minimal_flip_sequence(a, b) == flip_oracle.layered_flip_sequence(a, b)
        if n <= strings_to and (want is not None or n <= 4):
            assert flip_oracle.minimal_flip_sequence(a, b) == want
        table[i, j] = math.inf if want is None else want.total_flips
    if m >= 3:
        report, want = verify_metric_axioms(records), flip_oracle.pairwise_metric_axioms(records)
        assert report.distances.tobytes() == want.distances.tobytes()
        assert report.violations == want.violations
        off_diagonal = ~np.eye(m, dtype=bool)
        assert np.array_equal(report.distances[off_diagonal], table[off_diagonal])
    return table


def _planted_set(qubits) -> list[EnvironmentRecord]:
    """A product record and a flipped copy of it at every weight: every pair connects."""
    base, _, _ = _planted_pair(qubits, 0)
    return [_record(base)] + [_record(_planted_pair(qubits, w)[1]) for w in range(len(qubits) + 1)]


@pytest.mark.parametrize("n", range(MAX_SEARCH_QUBITS + 1))
def test_planted_sets(n):
    table = _same_over_set(_planted_set([_random_vector(2) for _ in range(n)]))
    assert np.all(np.isfinite(table))


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_tie_heavy_sets(n):
    family = _tie_heavy_family(n)
    # Across groups nothing connects; take the whole family at n <= 5, as one set.
    groups = [sum(family.values(), [])] if n <= 5 else list(family.values())
    for group in groups:
        _same_over_set([_record(v) for v in group])


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_uniform_magnitude_sets(n):
    """Every X mask of every pair is a candidate; only the layers stop the searches."""
    qubits = [np.array([1.0, np.exp(1j * RNG.uniform(0.0, 2.0 * math.pi))]) for _ in range(n)]
    _same_over_set(_planted_set(qubits)[:4])
    phases = np.exp(2j * math.pi * RNG.uniform(size=(3, 2**n)))
    table = _same_over_set([_record(p) for p in phases], strings_to=4)
    assert np.all(np.isinf(table[~np.eye(3, dtype=bool)]))


@pytest.mark.parametrize("n", range(MAX_SEARCH_QUBITS + 1))
def test_sets_mixing_connectable_and_unconnectable_pairs(n):
    d = 2**n
    records = _planted_set([_random_vector(2) for _ in range(n)])[:3]
    records += [_record(_random_vector(d)) for _ in range(2)]
    table = _same_over_set(records[::2] + records[1::2])
    assert np.isinf(table).any() == (n > 0)


@pytest.mark.parametrize("n", range(MAX_SEARCH_QUBITS + 1))
def test_sets_with_duplicates(n):
    """The same record, itself and at another phase, is at distance 0 from each copy."""
    rec = _record(_random_vector(2**n))
    rotated = EnvironmentRecord(rec.amplitudes * np.exp(0.7j), 1.0, n)
    other = _planted_set([_random_vector(2) for _ in range(n)])[-1]
    table = _same_over_set([rec, other, rec, rotated, other])
    assert table[0, 2] == table[2, 3] == table[3, 0] == table[1, 4] == 0


@pytest.mark.parametrize("n", range(1, MAX_SEARCH_QUBITS + 1))
def test_sets_at_the_match_tolerance(n):
    """The records of ``test_overlaps_at_the_match_tolerance`` for one planted string, as one set."""
    d = 2**n
    qubits = [np.array([1.0, 0.0])] + [_random_vector(2) for _ in range(n - 1)]
    a, planted, _ = _planted_pair(qubits, n)
    planted /= np.linalg.norm(planted)
    k = int(RNG.choice(np.flatnonzero(planted == 0)))
    records = [_record(a), _record(planted)]
    for offset in (0.5, -0.5, -1.5):
        cos = 1.0 - MATCH_TOL + offset * MATCH_TOL
        records.append(_record(cos * planted + math.sqrt(1.0 - cos**2) * np.eye(d)[k]))
    table = _same_over_set(records)
    assert np.isfinite(table[0, 2]) and np.isinf(table[0, 3:]).all()


def _crafted_searches(records, table):
    """Stand-ins for the shared and the one-pair search that read distances off ``table``."""
    n = records[0].num_qubits

    def labels(k):
        return ("X",) * int(k) + ("I",) * (n - int(k))

    def shared(amplitudes, left, right):
        cells = (table[i][j] for i, j in zip(left.tolist(), right.tolist()))
        return [None if math.isinf(k) else ((k, (), ()), labels(k)) for k in cells]

    def pairwise(a, b):
        k = table[records.index(a)][records.index(b)]  # records compare by identity
        return None if math.isinf(k) else FlipSequence(labels(k))

    return shared, pairwise


def test_axiom_violations_in_the_pairwise_order(monkeypatch):
    """Crafted distance tables: asymmetric, triangle-breaking and infinite entries.

    Both checks read the same table through patched searches, so the
    violations (symmetry, then triangles, in loop order) and the distances'
    bytes must agree.
    """
    inf = math.inf
    crafted = [
        [[0, 1, 2], [2, 0, 1], [2, 1, 0]],
        [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        [[0, inf, 1], [1, 0, inf], [1, inf, 0]],
        [[0, inf, inf, 3], [inf, 0, 2, 1], [inf, 2, 0, 8], [3, 1, 8, 0]],
    ]
    rng = np.random.default_rng(28)
    for m in (3, 5, 6):
        table = rng.integers(0, MAX_SEARCH_QUBITS + 1, size=(m, m)).astype(float)
        table[rng.random(size=(m, m)) < 0.2] = inf
        crafted.append(table.tolist())
    records = [_record(_random_vector(2**MAX_SEARCH_QUBITS)) for _ in range(6)]
    for table in crafted:
        subset = records[: len(table)]
        shared, pairwise = _crafted_searches(subset, table)
        monkeypatch.setattr(redundancy, "_flip_searches", shared)
        monkeypatch.setattr(flip_oracle, "pairwise_flip_sequence", pairwise)
        got, want = verify_metric_axioms(subset), flip_oracle.pairwise_metric_axioms(subset)
        assert got.violations == want.violations
        assert got.distances.tobytes() == want.distances.tobytes()
        assert got.violations  # every crafted table breaks an axiom


def test_axiom_check_refuses_pairs_in_the_pairwise_order():
    """Mixed widths, null and 9-qubit records in every position raise the pairwise loop's error.

    Records of 4 qubits, 5 qubits and a null record raise the width error,
    since the pair (0, 1) fails first; a 9-qubit pair raises the cap error.
    """
    wide = 2 ** (MAX_SEARCH_QUBITS + 1)
    palette = [
        _record(_random_vector(16)),
        _record(_random_vector(32)),
        EnvironmentRecord(np.zeros(16, dtype=complex), 0.0, 4),
        EnvironmentRecord(np.zeros(32, dtype=complex), 0.0, 5),
        _record(_random_vector(wide)),
        EnvironmentRecord(np.zeros(wide, dtype=complex), 0.0, MAX_SEARCH_QUBITS + 1),
    ]
    cases = list(itertools.product(palette, repeat=3))
    cases += [[palette[int(k)] for k in RNG.integers(len(palette), size=m)] for m in (2, 4, 5) for _ in range(40)]
    messages = set()
    for records in cases:
        outcomes = []
        for check in (verify_metric_axioms, flip_oracle.pairwise_metric_axioms):
            try:
                report = check(list(records))
                outcomes.append(("ok", report.distances.tobytes(), report.violations))
            except ValueError as err:
                outcomes.append(("error", str(err)))
        assert outcomes[0] == outcomes[1]
        messages.add(outcomes[0][1] if outcomes[0][0] == "error" else "ok")
    assert "records must live on equally sized environments" in messages
    assert "null records have no flip distance" in messages
    assert f"flip search capped at {MAX_SEARCH_QUBITS} qubits, got {MAX_SEARCH_QUBITS + 1}" in messages
    assert "need at least three records to exercise the axioms" in messages
    with pytest.raises(ValueError, match="equally sized environments"):
        verify_metric_axioms([palette[0], palette[1], palette[2]])
