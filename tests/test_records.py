import math
import tracemalloc
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
import trace_oracle

from decohere import records, states
from decohere.dephasing import DephasingChannel, decohered_limit, dephase
from decohere.probability import ProbabilityVector
from decohere.records import (
    MemoryModel,
    RecordSequence,
    branch_count,
    compressibility_proxy,
    conditional_g,
    conditional_system_state,
    correlate,
    outcome_horizon,
    record_consensus,
    redundant_records,
)
from decohere.sieve import DynamicsSpec, evolve_entropy, purity_horizon, uniform_grid
from decohere.states import MAX_PURE_QUBITS, DensityMatrix, Projector, PureState

RNG = np.random.default_rng(8080)

SQ2 = 1.0 / math.sqrt(2.0)

# Frozen quadrature value: entropy horizon of |+> under unit dephasing.
PLUS_ENTROPY_HORIZON = 0.40671544479218674


def two_outcome_model(alpha: float = 0.6, beta: float = 0.8) -> MemoryModel:
    return MemoryModel(
        probabilities=ProbabilityVector([alpha**2, beta**2]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )


def test_correlate_weights():
    rho = correlate(two_outcome_model())
    # system (x) memory: outcome 0 occupies |0>|1> = index 1, outcome 1 |1>|0> = 2
    assert rho.elements[1, 1] == pytest.approx(0.36, abs=1e-12)
    assert rho.elements[2, 2] == pytest.approx(0.64, abs=1e-12)
    off = rho.elements - np.diag(rho.elements.diagonal())
    assert np.max(np.abs(off)) == 0.0


def test_correlate_single_outcome_is_product():
    model = MemoryModel(
        probabilities=ProbabilityVector([1.0]),
        system_states=(PureState.basis(1, 0),),
        record_states=(PureState.basis(1, 1),),
    )
    rho = correlate(model)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(rho.elements, expected)


def test_correlate_matches_decohered_entangled_precursor():
    alpha, beta = 0.6, 0.8
    precursor = PureState.from_amplitudes([0.0, alpha, beta, 0.0])  # a|0,1> + b|1,0>
    limit = decohered_limit(
        precursor.to_density_matrix(), DephasingChannel.computational(2, 1.0)
    )
    assert np.allclose(limit.elements, correlate(two_outcome_model()).elements, atol=1e-12)


def test_correlate_rejects_overlapping_records():
    with pytest.raises(ValueError, match="orthogonal"):
        MemoryModel(
            probabilities=ProbabilityVector([0.5, 0.5]),
            system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
            record_states=(
                PureState.basis(1, 0),
                PureState.from_amplitudes(np.array([1.0, 1.0]) * SQ2),
            ),
        )


def test_correlate_invariant_under_record_basis_dephasing():
    rho = correlate(two_outcome_model())
    ch = DephasingChannel.computational(2, 1.0)
    for t in (0.3, 2.0, 20.0):
        assert np.allclose(dephase(rho, ch, t).elements, rho.elements, atol=1e-13)


# --- conditional predictive probability g(t) ---------------------------------


def test_g_stays_unity_for_pointer_records():
    rho = correlate(two_outcome_model())
    ch = DephasingChannel.computational(2, 1.0)
    record_1 = Projector.onto_vector([0.0, 1.0])
    prop_0 = Projector.onto_vector([1.0, 0.0])
    for t in np.linspace(0.0, 10.0, 11):
        g = conditional_g(dephase(rho, ch, t), record_1, prop_0)
        assert g == pytest.approx(1.0, abs=1e-12)


def test_g_closed_form_under_symmetric_mixing():
    # Bit-value mixing at rate gamma is dephasing in the conjugate frame
    # with t_d = 1/(2 gamma); conditional survival is (1 + exp(-2 gamma t))/2.
    gamma = 0.4
    rho = correlate(two_outcome_model())
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2
    mixing = DephasingChannel(np.kron(hadamard, np.eye(2)), 1.0 / (2.0 * gamma))
    record_1 = Projector.onto_vector([0.0, 1.0])
    prop_0 = Projector.onto_vector([1.0, 0.0])
    previous = 1.0 + 1e-12
    for t in np.linspace(0.0, 4.0, 9):
        rho_t = dephase(rho, mixing, t)
        g = conditional_g(rho_t, record_1, prop_0)
        assert g == pytest.approx((1.0 + math.exp(-2.0 * gamma * t)) / 2.0, abs=1e-12)
        assert abs(g - trace_oracle.conditional_g(rho_t, record_1, prop_0)) <= 1e-12
        assert g <= previous
        previous = g


def test_g_broadened_proposition_is_certain():
    gamma = 0.4
    rho = correlate(two_outcome_model())
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2
    mixing = DephasingChannel(np.kron(hadamard, np.eye(2)), 1.0 / (2.0 * gamma))
    record_1 = Projector.onto_vector([0.0, 1.0])
    whole_system = Projector.identity(2)
    g = conditional_g(dephase(rho, mixing, 3.0), record_1, whole_system)
    assert g == pytest.approx(1.0, abs=1e-12)


def single_outcome_model() -> MemoryModel:
    return MemoryModel(
        probabilities=ProbabilityVector([1.0]),
        system_states=(PureState.basis(1, 0),),
        record_states=(PureState.basis(1, 0),),
    )


def test_g_undefined_for_empty_record():
    unused_record = Projector.onto_vector([0.0, 1.0])
    rho = correlate(single_outcome_model())
    for g in (conditional_g, trace_oracle.conditional_g):
        assert math.isnan(g(rho, unused_record, Projector.identity(2)))


def test_g_rejects_projectors_that_do_not_factor_the_state():
    rho = correlate(two_outcome_model())
    for g in (conditional_g, trace_oracle.conditional_g):
        with pytest.raises(ValueError, match="must factor the joint state"):
            g(rho, Projector.onto_vector([0.0, 1.0]), Projector.identity(4))


def test_conditional_state_rejects_an_outcome_without_weight():
    # The joint state holds only the record |0>; outcome 0 of the model reads |1>.
    rho = correlate(single_outcome_model())
    for conditional in (conditional_system_state, trace_oracle.conditional_system_state):
        with pytest.raises(ValueError, match="outcome 0 has no weight in the joint state"):
            conditional(rho, two_outcome_model(), 0)


def test_conditional_state_checks_the_renormalized_block():
    # The joint state passes its check, but dividing the record-|1> block
    # (weight 2e-12) by its weight scales its Hermiticity defect 1e-10 up to 50.
    elements = np.zeros((4, 4), dtype=complex)
    elements[0, 0], elements[3, 3] = 1 - 2e-12, 2e-12
    elements[1, 3], elements[3, 1] = 5e-11, -5e-11
    rho = DensityMatrix(elements, 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        conditional_system_state(rho, two_outcome_model(), 0)


def random_pure(n: int) -> PureState:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState.from_amplitudes(amps / np.linalg.norm(amps))


def random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix.from_matrix(mat / np.trace(mat))


def random_frame(d: int) -> np.ndarray:
    q, _ = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q


def random_projector(n: int) -> Projector:
    rank = int(RNG.integers(1, 2**n + 1))
    columns = random_frame(2**n)[:, :rank]
    return Projector(columns @ columns.conj().T)


def random_mixed_record_model(system_qubits: int, record_qubits: int) -> MemoryModel:
    """Two outcomes, random pure system states, mixed records on disjoint supports."""
    d = 2**record_qubits
    frame = random_frame(d)
    split = int(RNG.integers(1, d)) if d > 2 else 1
    record_states = []
    for columns in (frame[:, :split], frame[:, split:]):
        weights = RNG.random(columns.shape[1]) + 0.1
        mat = (columns * (weights / weights.sum())) @ columns.conj().T
        record_states.append(DensityMatrix.from_matrix(mat))
    system_states = (random_pure(system_qubits), random_pure(system_qubits))
    return MemoryModel(ProbabilityVector([0.3, 0.7]), system_states, tuple(record_states))


def joint_state(source: str, model: MemoryModel) -> DensityMatrix:
    """The model's correlated state, or a random state of its register."""
    if source == "mixed-records":
        return correlate(model)
    return random_density(model.system_qubits + model.record_qubits)


@pytest.mark.parametrize("source", ["random", "mixed-records"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conditional_g_matches_trace_oracle(n, source):
    rho = joint_state(source, random_mixed_record_model(n, n))
    for _ in range(2):
        record, proposition = random_projector(n), random_projector(n)
        got = conditional_g(rho, record, proposition)
        assert abs(got - trace_oracle.conditional_g(rho, record, proposition)) <= 1e-12


@pytest.mark.parametrize("source", ["random", "mixed-records"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conditional_system_state_matches_trace_oracle(n, source):
    model = random_mixed_record_model(n, n)
    rho = joint_state(source, model)
    for outcome in (0, 1):
        got = conditional_system_state(rho, model, outcome).elements
        expected = trace_oracle.conditional_system_state(rho, model, outcome).elements
        assert np.max(np.abs(got - expected)) <= 1e-12


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_conditioning_never_builds_a_joint_sized_matrix():
    """5 + 5 qubits: the joint state is 16 MB; the old d x d products peaked at 84 MB."""
    model = random_mixed_record_model(5, 5)
    rho = correlate(model)
    assert rho.elements.nbytes == 16 << 20
    record, proposition = random_projector(5), random_projector(5)
    assert _traced_peak(lambda: conditional_g(rho, record, proposition)) < 2 << 20
    assert _traced_peak(lambda: conditional_system_state(rho, model, 1)) < 2 << 20


# --- per-outcome horizons -----------------------------------------------------


def horizon_dynamics() -> DynamicsSpec:
    return DynamicsSpec(
        DephasingChannel.computational(1, 1.0), uniform_grid(50.0, 2500), 50.0
    )


def pointer_conjugate_model() -> MemoryModel:
    return MemoryModel(
        probabilities=ProbabilityVector([0.5, 0.5]),
        system_states=(
            PureState.basis(1, 0),
            PureState.from_amplitudes(np.array([1.0, 1.0]) * SQ2),
        ),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )


def test_pointer_outcome_never_degrades():
    horizon = outcome_horizon(pointer_conjugate_model(), horizon_dynamics(), 0)
    assert horizon.capped


def test_conjugate_outcome_matches_sieve_horizon():
    horizon = outcome_horizon(pointer_conjugate_model(), horizon_dynamics(), 1)
    assert not horizon.capped
    assert horizon.value == pytest.approx(PLUS_ENTROPY_HORIZON, abs=5e-4)


def test_outcome_horizons_differ_between_outcomes():
    model = pointer_conjugate_model()
    dyn = horizon_dynamics()
    pointer = outcome_horizon(model, dyn, 0)
    conjugate = outcome_horizon(model, dyn, 1)
    assert pointer.capped and not conjugate.capped
    assert pointer.value > conjugate.value


def test_outcome_horizon_purity_measure():
    model = pointer_conjugate_model()
    conditional = conditional_system_state(correlate(model), model, 1)
    horizon = purity_horizon(evolve_entropy(conditional, horizon_dynamics()))
    assert horizon.value == pytest.approx(0.25, abs=1e-4)


# --- redundant records and branches --------------------------------------------


def test_single_cell_matches_correlate():
    model = two_outcome_model()
    assert np.allclose(
        redundant_records(model, 1).elements, correlate(model).elements, atol=1e-14
    )


def _raises_before_allocating(request) -> None:
    """``request`` must refuse a 13-qubit register at once, not after building 1 GB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="num_qubits must be in 1..12, got 13"):
            request()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_registers_check_dense_cap_before_building():
    wide = MemoryModel(
        probabilities=ProbabilityVector([0.5, 0.5]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(12, 0), PureState.basis(12, 1)),
    )
    _raises_before_allocating(lambda: correlate(wide))
    _raises_before_allocating(lambda: redundant_records(two_outcome_model(), 12))


def test_three_cell_replication_occupies_two_branches():
    rho = redundant_records(two_outcome_model(), 3)
    # system (x) 3 cells: outcome 0 -> |0>|111> (index 7), outcome 1 -> |1>|000> (index 8)
    diag = rho.elements.diagonal().real
    assert diag[7] == pytest.approx(0.36, abs=1e-12)
    assert diag[8] == pytest.approx(0.64, abs=1e-12)
    assert np.sum(diag > 1e-12) == 2


def test_consensus_only_in_pointer_basis():
    model = two_outcome_model()
    assert record_consensus(model, 3, "pointer") == pytest.approx(1.0, abs=1e-12)
    assert record_consensus(model, 3, "conjugate") == pytest.approx(0.25, abs=1e-12)


def test_branch_counts():
    model = two_outcome_model()
    for cells in range(1, 11):
        assert branch_count(model, "pointer", cells) == 2
        assert branch_count(model, "conjugate", cells) == 2**cells


def test_branch_count_skips_zero_weight_outcomes():
    """An outcome of weight 0 holds no branch; one of weight 1e-7 holds its own."""
    for light, pointer_branches in ((0.0, 1), (1e-7, 2)):
        model = MemoryModel(
            probabilities=ProbabilityVector([light, 1.0 - light]),
            system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
            record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
        )
        for cells in (1, 2, 5):
            assert branch_count(model, "pointer", cells) == pointer_branches
            assert branch_count(model, "conjugate", cells) == 2**cells


def test_leaky_records_count_their_light_branches():
    """A pointer cell weight of 1e-8 on the other outcome's state is in the support."""
    leak = math.sqrt(1e-8)
    leaky = (
        PureState.from_amplitudes([leak, math.sqrt(1.0 - 1e-8)]),
        PureState.from_amplitudes([math.sqrt(1.0 - 1e-8), -leak]),
    )
    model = MemoryModel(ProbabilityVector([0.36, 0.64]), two_outcome_model().system_states, leaky)
    for cells in (1, 2, 3):
        assert branch_count(model, "pointer", cells) == 2**cells


def test_branch_count_at_the_cap_builds_no_register(monkeypatch):
    """Weights of 2^-20 per string still count, and the count holds at 64 outcomes."""

    def unreachable(*args):
        raise AssertionError("built a Kronecker power")

    monkeypatch.setattr(records, "_kron_power", unreachable)
    assert branch_count(two_outcome_model(), "conjugate", MAX_PURE_QUBITS) == 2**20
    for rec_n, cells in ((4, 5), (6, 3)):
        d = 2**rec_n
        model = MemoryModel(
            probabilities=ProbabilityVector(np.full(d, 1.0 / d)),
            system_states=(PureState.basis(1, 0),) * d,
            record_states=tuple(PureState.basis(rec_n, i) for i in range(d)),
        )
        assert branch_count(model, "pointer", cells) == d
        assert branch_count(model, "conjugate", cells) == 2 ** (rec_n * cells)


def test_branch_count_caps_the_register_before_building_it(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built a register past the cap")

    monkeypatch.setattr(records, "_pointer_weights", unreachable)
    # The cap is checked before the record basis.
    for basis in ("conjugate", "diagonal"):
        with pytest.raises(ValueError, match=f"num_qubits must be in 1..{MAX_PURE_QUBITS}, got 21"):
            branch_count(two_outcome_model(), basis, MAX_PURE_QUBITS + 1)


# --- compressibility proxy -------------------------------------------------------


def test_constant_sequence_compresses():
    seq = RecordSequence.constant(0, 1024, (0, 1))
    assert compressibility_proxy(seq) < 0.05


def test_alternating_sequence_compresses():
    seq = RecordSequence(tuple(i % 2 for i in range(1024)), (0, 1))
    assert compressibility_proxy(seq) < 0.1


def test_random_sequence_incompressible():
    rng = np.random.default_rng(7)
    seq = RecordSequence(tuple(int(b) for b in rng.integers(0, 2, 1024)), (0, 1))
    ratio = compressibility_proxy(seq)
    assert ratio > 0.95
    # deterministic: same seed, same ratio
    assert ratio == pytest.approx(0.9964520468593129, abs=1e-12)


def test_constant_always_beats_random():
    rng = np.random.default_rng(123)
    for length in (64, 128, 256, 512, 1024):
        constant = compressibility_proxy(RecordSequence.constant(1, length, (0, 1)))
        random_ratio = compressibility_proxy(
            RecordSequence(tuple(int(b) for b in rng.integers(0, 2, length)), (0, 1))
        )
        assert constant < random_ratio


def test_ratio_range_holds_for_many_sequences():
    rng = np.random.default_rng(5)
    for _ in range(50):
        length = int(rng.integers(16, 400))
        alphabet = tuple(range(int(rng.integers(2, 5))))
        symbols = tuple(int(s) for s in rng.integers(0, len(alphabet), length))
        ratio = compressibility_proxy(RecordSequence(symbols, alphabet))
        assert 0.0 < ratio <= 1.2


def test_sequence_validation():
    with pytest.raises(ValueError, match="too short"):
        compressibility_proxy(RecordSequence((0, 1) * 4, (0, 1)))
    with pytest.raises(ValueError, match="alphabet"):
        RecordSequence((0, 0, 2), (0, 1))
    with pytest.raises(TypeError, match="unhashable"):
        RecordSequence((0, [1], 0), (0, 1))


def _run_lengths_loop(symbols) -> list[int]:
    """Run lengths as the symbol-by-symbol loop that ``itertools.groupby`` replaced."""
    runs: list[tuple[object, int]] = []
    for s in symbols:
        if runs and runs[-1][0] == s:
            runs[-1] = (s, runs[-1][1] + 1)
        else:
            runs.append((s, 1))
    return [length for _, length in runs]


def test_run_lengths_match_symbol_loop():
    rng = np.random.default_rng(11)
    for _ in range(50):
        length = int(rng.integers(1, 400))
        alphabet = ("a", 2, 3.5, None)[: int(rng.integers(2, 5))]
        picks = rng.integers(0, len(alphabet), length)
        if rng.uniform() < 0.5:  # long runs: each pick repeated 1-49 times
            picks = np.repeat(picks, rng.integers(1, 50, length))
        symbols = tuple(alphabet[int(i)] for i in picks)
        assert records._run_lengths(symbols, alphabet) == _run_lengths_loop(symbols)


def _groupby_run_lengths(symbols) -> list[int]:
    """Run lengths as ``itertools.groupby`` gives them, the code that alphabet indices replaced."""
    return [len(list(run)) for _, run in groupby(symbols)]


def _benchmark_sequences(rng):
    """4096 symbols over 2-5 letters: runs of 4-16 in a shuffled letter order, and uniform draws."""
    for size in (2, 3, 4, 5):
        order = [int(s) for s in rng.permutation(size)]
        run = int(rng.integers(4, 17))
        yield tuple(order[(i // run) % size] for i in range(4096)), tuple(range(size))
        yield tuple(int(s) for s in rng.integers(size, size=4096)), tuple(range(size))


NAN = float("nan")


@pytest.mark.parametrize(
    "alphabet, symbols",
    [
        (("up", "down", "left"), ("up", "up", "down", "left", "left", "left", "up")),
        (((0, 1), None, (1,)), ((0, 1), (0, 1), None, None, (1,), (0, 1))),
        ((1, "1"), (1, "1", "1", 1, 1, "1")),
        ((0, 1), (1, 1.0, True, 0, 0.0, False, 1, 0, True)),
        ((NAN, 0.5), (NAN, NAN, 0.5, NAN, 0.5, 0.5)),
        ((0, 1), (0,)),
        ((0, 1), ()),
    ],
    ids=["strings", "tuples-and-none", "int-and-str", "equal-numbers", "nan", "one", "empty"],
)
def test_run_lengths_match_groupby(alphabet, symbols):
    sequence = RecordSequence(symbols, alphabet)  # a valid record
    assert records._run_lengths(sequence.symbols, sequence.alphabet) == _groupby_run_lengths(symbols)


def test_run_lengths_match_groupby_on_benchmark_sequences():
    rng = np.random.default_rng(4096)
    for symbols, alphabet in _benchmark_sequences(rng):
        assert records._run_lengths(symbols, alphabet) == _groupby_run_lengths(symbols)
        # The same runs in the same order: the ratio keeps its bits.
        sequence = RecordSequence(symbols, alphabet)
        assert compressibility_proxy(sequence) == _groupby_ratio(symbols, len(alphabet))


def _groupby_ratio(symbols, size: int) -> float:
    """``compressibility_proxy`` as it was computed from ``groupby`` run lengths."""
    runs = _groupby_run_lengths(symbols)
    length_entropy = 0.0
    for c in Counter(runs).values():
        freq = c / len(runs)
        length_entropy -= freq * math.log2(freq)
    bits = math.log2(size) + (len(runs) - 1) * math.log2(size - 1) + len(runs) * length_entropy
    return bits / (len(symbols) * math.log2(size))


def test_density_matrix_type_of_correlate():
    rho = correlate(two_outcome_model())
    assert isinstance(rho, DensityMatrix)
    assert rho.num_qubits == 2


# --- mixed (coarse-grained) record states ----------------------------------------


def mixed_record(indices, dim=4) -> DensityMatrix:
    mat = np.zeros((dim, dim), dtype=complex)
    for k in indices:
        mat[k, k] = 1.0 / len(indices)
    return DensityMatrix.from_matrix(mat)


def mixed_model() -> MemoryModel:
    return MemoryModel(
        probabilities=ProbabilityVector([0.36, 0.64]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(mixed_record([2, 3]), mixed_record([0, 1])),
    )


def test_mixed_records_accepted_when_supports_disjoint():
    rho = correlate(mixed_model())
    diag = rho.elements.diagonal().real
    # outcome 0: system |0> with record spread over |10>,|11> (joint 2,3)
    assert diag[2] == pytest.approx(0.18, abs=1e-12)
    assert diag[3] == pytest.approx(0.18, abs=1e-12)
    # outcome 1: system |1> with record spread over |00>,|01> (joint 4,5)
    assert diag[4] == pytest.approx(0.32, abs=1e-12)
    assert diag[5] == pytest.approx(0.32, abs=1e-12)


def test_mixed_records_rejected_on_support_overlap():
    overlapping = [
        (mixed_record([0, 1]), mixed_record([1, 2])),
        (random_density(1), random_density(1)),
        (random_density(3), random_density(3)),
        (random_pure(5), random_density(5)),
    ]
    for a, b in overlapping:
        with pytest.raises(ValueError, match="orthogonal") as info:
            MemoryModel(
                probabilities=ProbabilityVector([0.5, 0.5]),
                system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
                record_states=(a, b),
            )
        defect = float(str(info.value).rsplit(" ", 1)[1])
        assert abs(defect - trace_oracle.record_overlap(a, b)) <= 1e-12


def test_mixed_record_conditional_g_uses_support():
    rho = correlate(mixed_model())
    record_0 = Projector.onto_basis_states(4, [2, 3])
    prop_0 = Projector.onto_vector([1.0, 0.0])
    assert conditional_g(rho, record_0, prop_0) == pytest.approx(1.0, abs=1e-12)


def test_mixed_record_replication():
    rho = redundant_records(mixed_model(), 2)
    assert rho.num_qubits == 1 + 2 * 2
    assert abs(np.trace(rho.elements) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda model: record_consensus(model, float("nan"), "pointer"),
        lambda model: record_consensus(model, 2.5, "conjugate"),
        lambda model: branch_count(model, "pointer", 2.5),
        lambda model: redundant_records(model, 2.5),
    ],
    ids=["consensus-nan", "consensus-2.5", "branch-count", "replicas"],
)
def test_cell_counts_are_checked_not_truncated(call):
    with pytest.raises(ValueError, match="cells must be an integer"):
        call(two_outcome_model())


def test_integral_cell_counts_pass_as_ints():
    model = two_outcome_model()
    assert record_consensus(model, 3.0, "conjugate") == record_consensus(model, 3, "conjugate")
    assert branch_count(model, "conjugate", np.int64(3)) == 8
    assert redundant_records(model, 2.0).num_qubits == 3


def _record_kinds(n: int) -> dict:
    """Records of every kind: pure, rank-one from ``to_density_matrix``, rank-one held as a matrix, mixed."""
    def pure():
        amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
        return PureState(amps / np.linalg.norm(amps), n)

    a, b = pure(), pure()
    mixed = 0.3 * a.to_density_matrix().elements + 0.7 * b.to_density_matrix().elements
    held = DensityMatrix(np.outer(a.amplitudes, a.amplitudes.conj()), n)
    return {
        "pure": pure(),
        "rank-one": pure().to_density_matrix(),
        "held": held,
        "mixed": DensityMatrix(mixed, n),
    }


@pytest.mark.parametrize("n", [1, 3, 6])
def test_orthogonality_defect_matches_the_trace_product(n):
    """|<a|b>| for two PureStates; Tr(rho_a rho_b) as soon as either is a density matrix."""
    kinds = _record_kinds(n)
    basis = (PureState.basis(n, 0), PureState.basis(n, 2**n - 1))
    pairs = [(x, y) for x in kinds.values() for y in kinds.values()]
    pairs += [basis, (basis[0].to_density_matrix(), basis[1]), (basis[0], basis[1].to_density_matrix())]
    for a, b in pairs:
        got = records._orthogonality_defect(
            a, b, states._pure_amplitudes(a), states._pure_amplitudes(b)
        )
        if isinstance(a, PureState) and isinstance(b, PureState):
            want = abs(a.overlap(b))
        else:
            want = states._expectation(records._record_matrix(a), records._record_matrix(b))
        assert type(got) is float
        assert abs(got - want) <= 1e-12


def test_memory_model_reads_rank_one_records_from_their_amplitudes():
    recs = tuple(PureState.basis(6, i).to_density_matrix() for i in range(64))
    model = MemoryModel(ProbabilityVector(np.full(64, 1.0 / 64)), (PureState.basis(1, 0),) * 64, recs)
    assert model.outcome_count == 64
    assert not any("elements" in r.__dict__ for r in recs)


@pytest.mark.parametrize("kind", ["pure", "rank-one", "mixed"])
def test_memory_model_refuses_the_first_overlapping_pair(kind):
    """Pairs are checked in order; the first one over 1e-10 is named, with its defect."""
    n = 2
    basis = [PureState.basis(n, i) for i in range(4)]
    leak = PureState.from_amplitudes([0.0, 1e-3, math.sqrt(1.0 - 1e-6), 0.0])
    recs = [basis[0], basis[1], leak, basis[3]]
    if kind == "rank-one":
        recs = [r.to_density_matrix() for r in recs]
    elif kind == "mixed":
        recs = [DensityMatrix(r.to_density_matrix().elements, n) for r in recs]
    want = abs(leak.amplitudes[1]) if kind == "pure" else abs(leak.amplitudes[1]) ** 2
    with pytest.raises(ValueError, match=r"record states 1 and 2 not orthogonal: defect ") as err:
        MemoryModel(ProbabilityVector(np.full(4, 0.25)), (PureState.basis(1, 0),) * 4, tuple(recs))
    defect = float(str(err.value).rsplit(" ", 1)[1])
    assert abs(defect - want) <= 1e-12
