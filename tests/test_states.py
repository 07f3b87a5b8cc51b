import tracemalloc

import numpy as np
import pytest

from decohere import states
import trace_oracle
from sieve_oracle import _entropy_bits
from decohere.circuits import decoherence_chain, noise_chain
from decohere.cli import observer_lists
from decohere.dephasing import (
    DephasingChannel,
    HamiltonianSpec,
    dephase,
    pointer_commutator_defect,
)
from decohere.probability import ProbabilityVector
from decohere.records import RecordSequence
from decohere.redundancy import EnvironmentRecord
from decohere.sieve import DynamicsSpec, EntropyTrajectory, bloch_grid, uniform_grid
from decohere.states import (
    DensityMatrix,
    Projector,
    PureState,
    born_probability,
    check_qubits,
    partial_trace,
    purity,
    tensor_product,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20260808)


def random_pure(n: int) -> PureState:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState.from_amplitudes(amps / np.linalg.norm(amps))


def random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix.from_matrix(mat / np.trace(mat))


def random_unitary(d: int) -> np.ndarray:
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def partial_trace_oracle(mat: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Element-wise double-loop index summation, independent of einsum."""
    traced = [q for q in range(n) if q not in keep]
    dk, dt = 2 ** len(keep), 2 ** len(traced)

    def full_index(bits_keep: int, bits_traced: int) -> int:
        idx = 0
        for q in range(n):
            if q in keep:
                b = (bits_keep >> (len(keep) - 1 - keep.index(q))) & 1
            else:
                b = (bits_traced >> (len(traced) - 1 - traced.index(q))) & 1
            idx = (idx << 1) | b
        return idx

    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            for e in range(dt):
                out[i, j] += mat[full_index(i, e), full_index(j, e)]
    return out


# --- construction invariants ------------------------------------------------


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError, match="not normalized"):
        PureState.from_amplitudes([1.0, 1.0])


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        PureState.from_amplitudes([1.0, 0.0, 0.0])


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_matrix([[0.5, 0.5], [0.0, 0.5]])


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_matrix(np.eye(2))


def test_density_matrix_rejects_negative_spectrum():
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix.from_matrix([[1.5, 0.0], [0.0, -0.5]])


def test_density_matrix_checks_positivity_beyond_256_dimensions():
    # Hermitian, unit trace, nonnegative diagonal, yet eigenvalue 1/512 - 1/4.
    mat = np.eye(512, dtype=complex) / 512
    mat[0, 1] = mat[1, 0] = 0.25
    assert np.min(mat.diagonal().real) >= 0.0
    with pytest.raises(ValueError, match="not positive"):
        DensityMatrix(mat, 9)


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(np.eye(2) * 0.5)


def test_projector_rank_is_its_trace():
    assert Projector(np.zeros((2, 2))).rank == 0
    assert Projector(np.eye(2)).rank == 2
    assert Projector(np.eye(2)).complement().rank == 0


@pytest.mark.parametrize("n, index", [(2, -1), (2, 4), (1, 2), (3, -8)])
def test_basis_rejects_index_outside_register(n, index):
    with pytest.raises(ValueError, match="basis index"):
        PureState.basis(n, index)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_accepts_every_index_in_register(n):
    for index in range(2**n):
        assert PureState.basis(n, index).amplitudes[index] == 1.0


@pytest.mark.parametrize("bits", [[1, 2, 0], [0, -1], [3], [1, 0.5]])
def test_from_bits_rejects_non_binary_entries(bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        PureState.from_bits(bits)


def test_from_bits_is_big_endian():
    assert np.flatnonzero(PureState.from_bits([1, 0, 0]).amplitudes).tolist() == [4]
    assert np.flatnonzero(PureState.from_bits([0, 1, 1]).amplitudes).tolist() == [3]


# --- tensor products ----------------------------------------------------------


NAN = float("nan")
INF = float("inf")

# One call per public boundary, each with a NaN where a tolerance or range
# test reads it.  ``defect > TOL`` is False for NaN, so every check states
# the condition that must hold (``defect <= TOL``) and raises unless it does.
QUBIT_CHANNEL = DephasingChannel.computational(1, 1.0)
QUBIT_GRID = np.linspace(0.0, 2.0, 3)
NON_FINITE_INPUTS = {
    "PureState": lambda: PureState(np.array([1.0, NAN]), 1),
    "PureState-inf": lambda: PureState(np.array([INF, 0.0]), 1),
    "DensityMatrix": lambda: DensityMatrix(np.array([[0.5, NAN], [NAN, 0.5]]), 1),
    "DensityMatrix-diagonal": lambda: DensityMatrix(np.array([[NAN, 0.0], [0.0, 0.5]]), 1),
    "Projector": lambda: Projector(np.array([[1.0, NAN], [NAN, 0.0]])),
    "EnvironmentRecord-weight": lambda: EnvironmentRecord(np.array([1.0, 0.0]), NAN, 1),
    "EnvironmentRecord-amplitudes": lambda: EnvironmentRecord(np.array([NAN, 0.0]), 0.5, 1),
    "ProbabilityVector": lambda: ProbabilityVector(np.array([NAN, 1.0])),
    "ProbabilityVector-sum": lambda: ProbabilityVector(np.array([0.5, 0.5, NAN])),
    "DephasingChannel": lambda: DephasingChannel(np.array([[1.0, NAN], [0.0, 1.0]]), 1.0),
    "HamiltonianSpec": lambda: HamiltonianSpec(np.array([[0.0, NAN], [NAN, 0.0]]), np.eye(2)),
    "EnvironmentRecord-null": lambda: EnvironmentRecord(np.array([NAN, 0.0]), 0.0, 1),
    "DynamicsSpec-hamiltonian": lambda: DynamicsSpec(
        QUBIT_CHANNEL, QUBIT_GRID, 2.0, self_hamiltonian=np.array([[NAN, 0.0], [0.0, 0.0]])
    ),
    "DynamicsSpec-grid": lambda: DynamicsSpec(QUBIT_CHANNEL, np.array([0.0, NAN, 2.0]), 2.0),
    "DynamicsSpec-cap": lambda: DynamicsSpec(QUBIT_CHANNEL, QUBIT_GRID, NAN),
    "DynamicsSpec-inf": lambda: DynamicsSpec(QUBIT_CHANNEL, np.array([0.0, 1.0, INF]), INF),
    "uniform_grid": lambda: uniform_grid(NAN, 4),
    "dephase": lambda: dephase(DensityMatrix.maximally_mixed(1), QUBIT_CHANNEL, NAN),
    # exp(-t/t_d) is NaN for t = t_d = inf.
    "dephase-inf": lambda: dephase(
        DensityMatrix.maximally_mixed(1), DephasingChannel.computational(1, INF), INF
    ),
    "pointer_commutator_defect": lambda: pointer_commutator_defect(
        HamiltonianSpec(np.eye(2), np.eye(4)), np.array([[NAN, 0.0], [0.0, 1.0]])
    ),
    "EntropyTrajectory": lambda: EntropyTrajectory(
        QUBIT_GRID, np.array([0.0, NAN, 1.0]), np.ones(3), 1.0, 1
    ),
    "EntropyTrajectory-times": lambda: EntropyTrajectory(
        np.array([0.0, NAN, 2.0]), np.array([0.0, 0.5, 1.0]), np.ones(3), 1.0, 1
    ),
    "EntropyTrajectory-purities": lambda: EntropyTrajectory(
        QUBIT_GRID, np.array([0.0, 0.5, 1.0]), np.array([1.0, NAN, 0.5]), 1.0, 1
    ),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_constructors_reject_nan(name):
    with pytest.raises(ValueError):
        NON_FINITE_INPUTS[name]()


def test_tensor_product_of_accepted_pure_states():
    """Norm defects compound under kron; a product of accepted states must not raise."""
    scale = np.sqrt(1.0 + 0.9e-10)
    a = PureState(np.array([0.6, 0.8]) * scale, 1)
    b = PureState(np.array([1.0, 1.0j]) / np.sqrt(2.0) * scale, 1)
    out = tensor_product(a, b)
    assert np.array_equal(out.amplitudes, np.kron(a.amplitudes, b.amplitudes))
    assert out.num_qubits == 2
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, a.amplitudes)


def test_tensor_product_checks_pure_cap_before_kron():
    a, b = PureState.basis(11, 0), PureState.basis(10, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1..20"):
            tensor_product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tensor_basis_states():
    zero = PureState.basis(1, 0)
    combined = tensor_product(zero, zero)
    assert np.allclose(combined.amplitudes, [1, 0, 0, 0])


def test_tensor_linearity():
    psi = PureState.from_amplitudes([0.6, 0.8])
    combined = tensor_product(psi, PureState.basis(1, 0))
    assert np.allclose(combined.amplitudes, [0.6, 0, 0.8, 0])


def test_tensor_diagonal_density():
    a = DensityMatrix.from_matrix(np.diag([0.5, 0.5]))
    b = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
    combined = tensor_product(a, b)
    assert np.allclose(combined.elements, np.diag([0.5, 0.0, 0.5, 0.0]))


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor_product(PureState.basis(1, 0), DensityMatrix.maximally_mixed(1))


# --- partial trace -----------------------------------------------------------


def test_partial_trace_two_branch_state():
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = 0.6, 0.8
    rho_sa = partial_trace(PureState(amps, 3).to_density_matrix(), (0, 1))
    expected = np.zeros((4, 4))
    expected[0, 0], expected[3, 3] = 0.36, 0.64
    assert np.allclose(rho_sa.elements, expected, atol=1e-12)


def test_partial_trace_product_state():
    rho_a = random_density(1)
    rho_b = random_density(2)
    reduced = partial_trace(tensor_product(rho_a, rho_b), (0,))
    assert np.allclose(reduced.elements, rho_a.elements, atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        rho = random_pure(3).to_density_matrix()
        reduced = partial_trace(rho, keep)
        oracle = partial_trace_oracle(rho.elements, 3, keep)
        assert np.max(np.abs(reduced.elements - oracle)) < 1e-12


def test_partial_trace_preserves_trace():
    rho = random_density(3)
    reduced = partial_trace(rho, (1,))
    assert abs(np.trace(reduced.elements) - 1.0) < 1e-12


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(random_density(2), ())


def test_partial_trace_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        partial_trace(random_density(2), (0, 0))


# --- entropy and purity --------------------------------------------------------


def _random_spectrum(n: int) -> np.ndarray:
    """2^n weights of about unit sum: some zero, some below the 1e-12 cutoff
    and one a rounding negative in [-1e-8, 0)."""
    eigs = RNG.exponential(size=2**n) * (RNG.uniform(size=2**n) < 0.7)
    eigs[RNG.integers(2**n)] += 0.1
    eigs /= eigs.sum()
    slots = RNG.integers(2**n, size=min(3, 2**n))
    eigs[slots[0]] = RNG.uniform(-1e-8, 0.0)
    eigs[slots[1:]] = RNG.uniform(0.0, 1e-12, size=slots.size - 1)
    return eigs


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_entropy_matches_per_spectrum_loop(n):
    spectra = np.array([_random_spectrum(n) for _ in range(40)] + [np.eye(2**n)[0]])
    want = [_entropy_bits(eigs) for eigs in spectra]
    batched = states._entropies_from_spectra(spectra.T)
    assert np.max(np.abs(batched - want)) <= 1e-12
    single = [float(states._entropies_from_spectra(eigs)) for eigs in spectra]
    assert np.max(np.abs(np.subtract(single, want))) <= 1e-12


@pytest.mark.parametrize("k", range(3))
def test_entropy_of_spectrum_with_nan_raises(k):
    eigs = np.full(3, 0.5)
    eigs[k] = NAN
    with pytest.raises(ValueError, match="lost positivity"):
        states._entropies_from_spectra(eigs)
    with pytest.raises(ValueError, match="lost positivity"):
        states._entropies_from_spectra(np.tile(eigs, (4, 1)).T)


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(random_pure(2).to_density_matrix()) == pytest.approx(0.0, abs=1e-9)


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(DensityMatrix.maximally_mixed(1)) == pytest.approx(1.0)


def test_entropy_quarter_three_quarter():
    rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]))
    # -sum p log2 p evaluated directly
    assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_unitary_invariance():
    for n in (1, 2, 3):
        rho = random_density(n)
        u = random_unitary(2**n)
        rotated = DensityMatrix.from_matrix(u @ rho.elements @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )


def test_purity_values():
    assert purity(random_pure(2).to_density_matrix()) == pytest.approx(1.0)
    assert purity(DensityMatrix.maximally_mixed(1)) == pytest.approx(0.5)
    rho = DensityMatrix.from_matrix(np.diag([0.36, 0.64]))
    assert purity(rho) == pytest.approx(0.5392, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_purity_matches_trace_oracle(n):
    rhos = [random_pure(n).to_density_matrix()]
    if n <= 8:
        rhos += [random_density(n), DensityMatrix.maximally_mixed(n)]
    for rho in rhos:
        assert abs(purity(rho) - trace_oracle.purity(rho)) <= 1e-12


def test_purity_allocates_no_matrix_sized_temporary():
    """At 10 qubits rho holds 16 MB; |rho|^2 and its square took 8 MB each."""
    rho = random_pure(10).to_density_matrix()
    rho.elements  # build the matrix first: only purity's own allocations count
    purity(rho)  # warm up
    tracemalloc.start()
    try:
        purity(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_purity_one_iff_pure():
    for _ in range(5):
        rho = random_density(2)
        top = float(rho.eigenvalues()[-1])
        if purity(rho) >= 1.0 - 1e-12:
            assert top >= 1.0 - 1e-9
        else:
            assert purity(rho) < 1.0


# --- Born probabilities ---------------------------------------------------------


def test_born_projector_on_own_state():
    rho = PureState.basis(1, 0).to_density_matrix()
    p = Projector.onto_basis_states(2, [0])
    assert born_probability(rho, p) == pytest.approx(1.0, abs=1e-12)


def test_born_flat_state_rank_one():
    rho = DensityMatrix.maximally_mixed(2)
    p = Projector.onto_basis_states(4, [2])
    assert born_probability(rho, p) == pytest.approx(0.25, abs=1e-12)


def test_born_combination_of_outcomes():
    # Equal-magnitude superposition, decohered: n basis outcomes carry n/N.
    n_dim = 8
    rho = DensityMatrix.from_matrix(np.diag(np.full(n_dim, 1.0 / n_dim)))
    p = Projector.onto_basis_states(n_dim, [1, 4, 6])
    assert born_probability(rho, p) == pytest.approx(3.0 / 8.0, abs=1e-12)


def test_born_complete_set_sums_to_one():
    rho = random_density(2)
    total = sum(
        born_probability(rho, Projector.onto_basis_states(4, [k])) for k in range(4)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_born_matches_trace_oracle(n):
    rho = random_density(n) if n <= 8 else random_pure(n).to_density_matrix()
    d = 2**n
    u = random_unitary(d)
    for rank in (1, d // 2, d):
        frame = u[:, :rank]
        p = Projector(frame @ frame.conj().T)
        assert abs(born_probability(rho, p) - trace_oracle.born_probability(rho, p)) <= 1e-12


def test_born_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        born_probability(DensityMatrix.maximally_mixed(1), Projector.identity(4))


# --- outside data at the trusted constructors ------------------------------------------


@pytest.mark.parametrize(
    "build",
    [lambda: Projector.identity(0), lambda: Projector.identity(-1),
     lambda: Projector.onto_basis_states(0, [])],
    ids=["identity-0", "identity-minus-1", "basis-states-0"],
)
def test_projectors_reject_an_empty_dimension(build):
    with pytest.raises(ValueError, match="projector dimension must be at least 1"):
        build()


@pytest.mark.parametrize("label", [4, -1, 17])
def test_onto_basis_states_rejects_a_label_outside_the_dimension(label):
    with pytest.raises(ValueError, match=f"basis label {label} outside dimension 4"):
        Projector.onto_basis_states(4, [0, label])


@pytest.mark.parametrize(
    "vector",
    [[0.0, 0.0], [float("nan"), 1.0], [float("inf"), 0.0], [complex(0.0, float("inf")), 1.0], [],
     [1.7e308 + 1.7e308j]],
    ids=["zero", "nan", "inf", "imaginary-inf", "empty", "norm-overflows"],
)
def test_onto_vector_rejects_zero_nan_inf_and_empty_vectors(vector):
    with pytest.raises(ValueError, match="cannot project onto a vector of norm"):
        Projector.onto_vector(vector)


AMPS_2 = np.full(4, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_qubits([1.5], 3),
        lambda: partial_trace(PureState.basis(2, 0), [0.5]),
        lambda: PureState(AMPS_2, 2.5),
        lambda: PureState.basis(2.9, 0),
        lambda: PureState.basis(2, 1.5),
        lambda: DensityMatrix(np.eye(4) / 4, float("nan")),
        lambda: DensityMatrix.maximally_mixed(float("inf")),
        lambda: Projector.onto_basis_states(4, [1.5]),
        lambda: Projector.onto_basis_states(2.5, [1]),
        lambda: Projector.identity(2.5),
        lambda: Projector.identity(float("nan")),
        lambda: check_qubits(["1"], 3),
        lambda: decoherence_chain(1, (2.5,), 4),
        lambda: noise_chain((2.9,), 1, 4),
        lambda: uniform_grid(1.0, 2.5),
        lambda: bloch_grid(2.5, 4),
        lambda: bloch_grid(4, 2.5),
        lambda: observer_lists("pointer", "pointer", 2.5, 1),
        lambda: RecordSequence.constant(0, 2.5, (0, 1)),
    ],
    ids=["qubit", "keep", "width", "basis-width", "basis-index", "nan-width", "inf-width",
         "label", "basis-states-dim", "identity-dim", "identity-nan", "string",
         "chain-environment", "noise-chain-environment", "grid-steps", "bloch-theta-steps",
         "bloch-phi-steps", "ensemble", "constant-length"],
)
def test_integer_arguments_are_checked_not_truncated(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_integral_floats_and_numpy_ints_pass_as_ints():
    assert check_qubits([np.int64(2), 0.0, True], 3) == (2, 0, 1)
    psi = PureState(AMPS_2, 2.0)
    assert psi.num_qubits == 2 and type(psi.num_qubits) is int
    basis = PureState.basis(np.int32(2), np.float64(3.0))
    assert basis.num_qubits == 2 and basis.amplitudes[3] == 1.0
    assert Projector.onto_basis_states(4, [np.int64(1), 3.0, 1]).rank == 2
    assert Projector.onto_basis_states(4.0, [1]).dim == 4
    assert Projector.identity(np.float64(2.0)).elements.tobytes() == np.eye(2, dtype=complex).tobytes()
    assert DensityMatrix.maximally_mixed(np.uint8(2)).num_qubits == 2
    assert decoherence_chain(1, (2.0,), 4).to_text() == "CNOT 1 2"
    assert noise_chain((np.int64(2),), 1, 4).to_text() == "CNOT 2 1"
    assert np.array_equal(uniform_grid(1.0, 4.0), uniform_grid(1.0, 4))
    assert bloch_grid(2.0, np.int64(3)) == bloch_grid(2, 3)
    assert observer_lists("pointer", "pointer", 10.0, 1) == observer_lists("pointer", "pointer", 10, 1)
    assert RecordSequence.constant(0, 3.0, (0, 1)).symbols == (0, 0, 0)
