import math
import re
from itertools import combinations, product

import numpy as np
import pytest

from decohere import redundancy
from decohere.redundancy import (
    EnvironmentRecord,
    FlipSequence,
    JointState,
    environment_record,
    error_robustness,
    majority_decode,
    minimal_flip_sequence,
    redundancy_distance,
    verify_metric_axioms,
)
from decohere.states import PureState

RNG = np.random.default_rng(99)

SQ2 = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ghz_joint(n_env: int) -> JointState:
    amps = np.zeros(2 ** (n_env + 1), dtype=complex)
    amps[0] = amps[-1] = SQ2
    return JointState(PureState(amps, n_env + 1), (0,), tuple(range(1, n_env + 1)))


def basis_record(n: int, index: int) -> EnvironmentRecord:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return EnvironmentRecord(amps, 1.0, n)


def vector_record(vec: np.ndarray) -> EnvironmentRecord:
    vec = np.asarray(vec, dtype=complex)
    n = int(round(math.log2(vec.size)))
    return EnvironmentRecord(vec / np.linalg.norm(vec), 1.0, n)


def brute_force_distance(a: EnvironmentRecord, b: EnvironmentRecord) -> float:
    """Independent oracle: dense Pauli matrices, full 4^N enumeration."""
    n = a.num_qubits
    best = math.inf
    for labels in product("IXYZ", repeat=n):
        op = np.array([[1.0]], dtype=complex)
        for lab in labels:
            op = np.kron(op, PAULI[lab])
        overlap = abs(np.vdot(b.amplitudes, op @ a.amplitudes))
        if overlap >= 1.0 - 1e-9:
            best = min(best, sum(1 for lab in labels if lab != "I"))
    return best


# --- environment records -------------------------------------------------------


def test_record_for_pointer_conditioning():
    joint = ghz_joint(3)
    rec = environment_record(joint, PureState.basis(1, 0))
    assert rec.weight == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rec.amplitudes, PureState.basis(3, 0).amplitudes)


def test_record_for_conjugate_conditioning():
    joint = ghz_joint(3)
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) * SQ2)
    rec = environment_record(joint, plus)
    assert rec.weight == pytest.approx(0.5, abs=1e-12)
    expected = np.zeros(8)
    expected[0] = expected[7] = SQ2
    assert np.allclose(rec.amplitudes, expected)


def test_record_null_for_orthogonal_conditioning():
    state = PureState.from_bits([0, 1, 1])  # product |0> (x) |11>
    joint = JointState(state, (0,), (1, 2))
    rec = environment_record(joint, PureState.basis(1, 1))
    assert rec.is_null
    assert rec.weight == 0.0
    # The unchecked null output passes the public check.
    assert EnvironmentRecord(rec.amplitudes, rec.weight, rec.num_qubits).is_null


@pytest.mark.parametrize("amps", [[1.0, 0.0], [0.0, 1e-7j]])
def test_null_record_must_carry_zero_amplitudes(amps):
    with pytest.raises(ValueError, match="null record must carry zero amplitudes"):
        EnvironmentRecord(np.array(amps), 0.0, 1)


def test_record_weights_sum_to_one():
    for _ in range(5):
        amps = RNG.normal(size=16) + 1j * RNG.normal(size=16)
        joint = JointState(
            PureState.from_amplitudes(amps / np.linalg.norm(amps)), (0, 1), (2, 3)
        )
        total = sum(
            environment_record(joint, PureState.basis(2, k)).weight for k in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_state_requires_partition():
    with pytest.raises(ValueError, match="partition"):
        JointState(PureState.basis(3, 0), (0,), (1,))


# --- redundancy distance ---------------------------------------------------------


def test_distance_full_flip():
    assert redundancy_distance(basis_record(3, 0), basis_record(3, 7)) == 3


def test_distance_conjugate_records():
    plus = vector_record(np.array([1, 0, 0, 0, 0, 0, 0, 1.0]))
    minus = vector_record(np.array([1, 0, 0, 0, 0, 0, 0, -1.0]))
    assert redundancy_distance(plus, minus) == 1
    seq = minimal_flip_sequence(plus, minus)
    assert seq.total_flips == 1 and seq.n_z + seq.n_y == 1


def test_distance_identical_records():
    rec = vector_record(RNG.normal(size=8) + 1j * RNG.normal(size=8))
    assert redundancy_distance(rec, rec) == 0


def test_distance_zero_iff_same_up_to_phase():
    rec = vector_record(RNG.normal(size=4) + 1j * RNG.normal(size=4))
    rotated = EnvironmentRecord(rec.amplitudes * np.exp(0.7j), 1.0, 2)
    assert redundancy_distance(rec, rotated) == 0
    other = vector_record(rec.amplitudes + 0.2 * RNG.normal(size=4))
    if abs(np.vdot(other.amplitudes, rec.amplitudes)) < 1.0 - 1e-9:
        assert redundancy_distance(rec, other) != 0


def test_distance_unreachable_is_infinite():
    product_rec = basis_record(2, 0)
    entangled = vector_record(np.array([1.0, 0, 0, 1.0]))
    assert math.isinf(redundancy_distance(product_rec, entangled))


def test_distance_equals_hamming_for_basis_records():
    for n in (2, 3, 4):
        records = [basis_record(n, k) for k in range(2**n)]
        for i, j in combinations(range(2**n), 2):
            expected = bin(i ^ j).count("1")
            assert redundancy_distance(records[i], records[j]) == expected


def test_distance_matches_dense_pauli_oracle():
    ghz_family = [
        basis_record(3, 0),
        basis_record(3, 7),
        vector_record(np.array([1, 0, 0, 0, 0, 0, 0, 1.0])),
        vector_record(np.array([1, 0, 0, 0, 0, 0, 0, -1.0])),
        vector_record(np.array([0, 1.0, 0, 0, 0, 0, 1.0, 0])),
    ]
    for a, b in combinations(ghz_family, 2):
        assert redundancy_distance(a, b) == brute_force_distance(a, b)


def test_distance_rejects_null_records():
    null = EnvironmentRecord(np.zeros(4, dtype=complex), 0.0, 2)
    with pytest.raises(ValueError, match="null"):
        redundancy_distance(null, basis_record(2, 0))


def test_flip_sequence_labels_validated():
    with pytest.raises(ValueError, match="unknown flip label 'W'"):
        FlipSequence(("X", "W"))


# --- metric axioms ---------------------------------------------------------------


def test_metric_axioms_on_conjugate_family():
    records = [
        basis_record(3, 0),
        basis_record(3, 7),
        vector_record(np.array([1, 0, 0, 0, 0, 0, 0, 1.0])),
        vector_record(np.array([1, 0, 0, 0, 0, 0, 0, -1.0])),
    ]
    report = verify_metric_axioms(records)
    assert report.satisfied


def test_metric_axioms_with_duplicate_pair():
    rec = basis_record(2, 1)
    report = verify_metric_axioms([rec, rec, basis_record(2, 2)])
    assert report.satisfied
    assert report.distances[0, 1] == 0


def test_metric_axioms_exhaustive_basis_records():
    records = [basis_record(3, k) for k in range(8)]
    report = verify_metric_axioms(records)
    assert report.satisfied
    for i in range(8):
        for j in range(8):
            assert report.distances[i, j] == bin(i ^ j).count("1")


# --- majority decode -------------------------------------------------------------


def test_majority_examples():
    assert majority_decode([0, 0, 1]) == 0
    assert majority_decode([1, 1, 1]) == 1
    assert majority_decode([1, 0, 1, 1, 0]) == 1


def test_majority_rejects_even_length():
    with pytest.raises(ValueError, match="odd"):
        majority_decode([0, 1])


def test_majority_checks_values_before_converting():
    for bad in (0.5, 1.7, "1"):
        with pytest.raises(ValueError, match="outcomes must be 0 or 1"):
            majority_decode([bad, 1, 1])
    assert majority_decode([True, False, True]) == 1
    assert majority_decode(np.array([0, 1, 0], dtype=np.int64)) == 0
    assert majority_decode([np.uint8(1), np.int32(1), 0]) == 1


# --- error robustness -------------------------------------------------------------


def test_pointer_sector_tolerates_single_flip():
    assert error_robustness(ghz_joint(3), "pointer", 1) == pytest.approx(1.0, abs=0.0)


def test_pointer_sector_no_errors():
    assert error_robustness(ghz_joint(5), "pointer", 0) == 1.0


def test_pointer_sector_below_majority_threshold():
    for n in (3, 5, 7):
        for k in range(0, (n + 1) // 2):
            assert error_robustness(ghz_joint(n), "pointer", k) == pytest.approx(
                1.0, abs=1e-12
            )


def test_conjugate_sector_single_phase_flip_is_coin_toss():
    assert error_robustness(ghz_joint(3), "hadamard", 1) == pytest.approx(0.5, abs=1e-12)


def test_conjugate_sector_clean_channel_decodes():
    assert error_robustness(ghz_joint(3), "hadamard", 0) == pytest.approx(1.0, abs=1e-12)


def test_pointer_sector_rejects_even_environment():
    for n in (2, 4):
        for k in range(n + 1):
            with pytest.raises(ValueError, match="odd"):
                error_robustness(ghz_joint(n), "pointer", k)


def test_error_robustness_rejects_excess_errors():
    with pytest.raises(ValueError, match="outside"):
        error_robustness(ghz_joint(3), "pointer", 4)


def _joint(n: int, amplitudes: dict, system=(0,)) -> JointState:
    amps = np.zeros(2**n, dtype=complex)
    for index, value in amplitudes.items():
        amps[index] = value
    env = tuple(q for q in range(n) if q not in system)
    return JointState(PureState(amps / np.linalg.norm(amps), n), tuple(system), env)


# Each state fails its own check and, where it can, every later one, so the
# first message raised pins the order: k, environment size, k range, size cap,
# system qubit, null branch, record 0, record 1, then the sector.
NOT_INTEGER = "error count must be an integer, got {}"
NOT_BASIS = "record is not a computational basis state"
WRONG_INDEX = "expected all-zeros / all-ones environment records"
REJECTIONS = {
    "non-integer k": (_joint(1, {0: 1, 1: 1}), "bogus", 1.5, NOT_INTEGER.format(1.5)),
    "integral float k": (ghz_joint(3), "pointer", 1.0, NOT_INTEGER.format(1.0)),
    "NaN k": (ghz_joint(3), "hadamard", math.nan, NOT_INTEGER.format(math.nan)),
    "no environment": (
        _joint(2, {0: 1}, (0, 1)),
        "bogus",
        1,
        "decoding robustness needs at least one environment qubit",
    ),
    "k out of range": (_joint(11, {0: 1}, (0, 1)), "bogus", 10, "error count 10 outside 0..9"),
    "negative k": (ghz_joint(3), "pointer", -1, "error count -1 outside 0..3"),
    "too many qubits": (
        _joint(11, {0: 1}, (0, 1)), "bogus", 1, "pattern enumeration capped at 8 qubits"
    ),
    "two system qubits": (
        _joint(4, {0: 1}, (0, 1)), "bogus", 1, "decoding robustness expects a single system qubit"
    ),
    "null branch": (_joint(4, {0: 1}), "bogus", 1, "state is not a two-branch record state"),
    # Row 1 is off in the other way, so the row checked first decides the message.
    "row 0 not a basis record": (_joint(4, {0: 1, 1: 1, 0b1110: 1}), "bogus", 1, NOT_BASIS),
    "row 0 wrong index": (_joint(4, {1: 1, 0b1110: 1, 0b1101: 1}), "bogus", 1, WRONG_INDEX),
    "row 1 not a basis record": (_joint(4, {0: 1, 0b1110: 1, 0b1111: 1}), "bogus", 1, NOT_BASIS),
    "row 1 wrong index": (_joint(4, {0: 1, 0b1110: 1}), "bogus", 1, WRONG_INDEX),
    "even N with pointer": (
        ghz_joint(4), "pointer", 1, "majority vote needs an odd number of outcomes"
    ),
    "unknown basis": (ghz_joint(3), "bogus", 1, "unknown decoding basis 'bogus'"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_error_robustness_rejection_messages_and_order(case):
    joint, basis, k, message = REJECTIONS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        error_robustness(joint, basis, k)


def test_error_robustness_rejects_empty_environment():
    joint = JointState(PureState.from_amplitudes(np.array([SQ2, SQ2])), (0,), ())
    for basis in ("pointer", "hadamard"):
        with pytest.raises(ValueError, match="at least one environment qubit"):
            error_robustness(joint, basis, 0)


def test_error_robustness_rejects_non_integer_k_before_reading_the_state(monkeypatch):
    def refuse(joint):
        raise AssertionError("the joint state was read")

    assert error_robustness(ghz_joint(3), "pointer", np.int64(1)) == 1.0
    monkeypatch.setattr(redundancy, "_register_tensor", refuse)
    for k in (1.5, 1.0, math.nan):
        with pytest.raises(ValueError, match="must be an integer"):
            error_robustness(ghz_joint(3), "hadamard", k)
