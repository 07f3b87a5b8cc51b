import numpy as np
import pytest
import trace_oracle

from decohere.dephasing import (
    DephasingChannel,
    HamiltonianSpec,
    channel_from_spec,
    decohered_limit,
    dephase,
    pointer_commutator_defect,
)
from decohere.states import DensityMatrix, PureState, von_neumann_entropy

RNG = np.random.default_rng(1717)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix.from_matrix(mat / np.trace(mat))


def plus_state() -> PureState:
    return PureState.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_channel_validation():
    with pytest.raises(ValueError, match="t_d"):
        DephasingChannel.computational(1, 0.0)
    with pytest.raises(ValueError, match="orthonormal"):
        DephasingChannel(np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0)


def test_dephase_at_zero_time_is_identity():
    rho = random_density(2)
    ch = DephasingChannel.computational(2, 0.7)
    out = dephase(rho, ch, 0.0)
    assert np.allclose(out.elements, rho.elements, atol=1e-14)


def test_dephase_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        dephase(random_density(1), DephasingChannel.computational(1, 1.0), -0.1)


def test_long_time_limit_is_diagonal():
    rho = random_density(2)
    ch = DephasingChannel.computational(2, 1.0)
    out = dephase(rho, ch, 40.0)
    off = out.elements - np.diag(out.elements.diagonal())
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(out.elements.diagonal(), rho.elements.diagonal())


def test_plus_state_off_diagonal_at_one_timescale():
    rho = plus_state().to_density_matrix()
    out = dephase(rho, DephasingChannel.computational(1, 1.0), 1.0)
    # closed form: 0.5 * exp(-1)
    assert abs(out.elements[0, 1]) == pytest.approx(0.18393972058572117, abs=1e-12)


def test_semigroup_property():
    rho = random_density(2)
    ch = DephasingChannel.hadamard(2, 0.9)
    t1, t2 = 0.37, 1.21
    once = dephase(rho, ch, t1 + t2)
    twice = dephase(dephase(rho, ch, t1), ch, t2)
    assert np.max(np.abs(once.elements - twice.elements)) < 1e-12


def test_pointer_diagonal_conserved():
    rho = random_density(2)
    ch = DephasingChannel.hadamard(2, 1.3)
    w = ch.basis
    before = (w.conj().T @ rho.elements @ w).diagonal()
    for t in (0.1, 1.0, 7.5):
        out = dephase(rho, ch, t)
        after = (w.conj().T @ out.elements @ w).diagonal()
        assert np.allclose(after, before, atol=1e-13)


def test_entropy_nondecreasing_along_dephasing():
    for n in (1, 2, 3):
        rho = random_density(n)
        ch = DephasingChannel.computational(n, 1.0)
        entropies = [von_neumann_entropy(dephase(rho, ch, t)) for t in np.linspace(0, 8, 17)]
        assert all(b >= a - 1e-9 for a, b in zip(entropies, entropies[1:]))


def test_decohered_limit_fixed_on_diagonal():
    rho = DensityMatrix.from_matrix(np.diag([0.2, 0.3, 0.4, 0.1]))
    ch = DephasingChannel.computational(2, 1.0)
    out = decohered_limit(rho, ch)
    assert np.allclose(out.elements, rho.elements, atol=1e-14)


def test_decohered_limit_equal_magnitude_superposition():
    n_dim = 4
    phases = RNG.uniform(0, 2 * np.pi, n_dim)
    psi = PureState.from_amplitudes(np.exp(1j * phases) / np.sqrt(n_dim))
    out = decohered_limit(psi.to_density_matrix(), DephasingChannel.computational(2, 1.0))
    assert np.allclose(out.elements, np.eye(n_dim) / n_dim, atol=1e-12)


def test_decohered_limit_bell_reduction_form():
    bell = PureState.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))
    out = decohered_limit(bell.to_density_matrix(), DephasingChannel.computational(2, 1.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(out.elements, expected, atol=1e-14)


def test_decohered_limit_idempotent():
    rho = random_density(2)
    ch = DephasingChannel.hadamard(2, 1.0)
    once = decohered_limit(rho, ch)
    twice = decohered_limit(once, ch)
    assert np.allclose(once.elements, twice.elements, atol=1e-14)


def test_dephase_converges_to_limit_with_exponential_bound():
    rho = random_density(2)
    ch = DephasingChannel.computational(2, 1.0)
    limit = decohered_limit(rho, ch)
    biggest = float(np.max(np.abs(rho.elements)))
    for t in (1.0, 3.0, 10.0):
        gap = np.max(np.abs(dephase(rho, ch, t).elements - limit.elements))
        assert gap <= np.exp(-t / ch.t_d) * biggest + 1e-14


def test_commutator_defect_zero_for_pointer_observable():
    spec = HamiltonianSpec(np.zeros((2, 2)), np.kron(SZ, SZ))
    assert pointer_commutator_defect(spec, SZ) == pytest.approx(0.0, abs=1e-12)


def test_commutator_defect_for_conjugate_observable():
    # [sz, sx] (x) sz = 2i sy (x) sz: largest entry magnitude 2.
    spec = HamiltonianSpec(np.zeros((2, 2)), np.kron(SZ, SZ))
    defect = pointer_commutator_defect(spec, SX)
    oracle = np.max(np.abs(np.kron(2j * SY, SZ)))
    assert defect == pytest.approx(float(oracle), abs=1e-12)
    assert defect == pytest.approx(2.0, abs=1e-12)


def test_commutator_defect_with_noncommuting_self_hamiltonian():
    # A self-Hamiltonian that fails to commute with the coupling spoils the
    # pointer condition for the coupling's own eigenbasis.
    spec = HamiltonianSpec(SX, np.kron(SZ, SZ))
    assert pointer_commutator_defect(spec, SZ) > 1.0


def random_hermitian(d: int) -> np.ndarray:
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("da, de", [(2, 1), (2, 2), (3, 5), (4, 8), (2, 64)])
def test_commutator_defect_matches_trace_oracle(da, de):
    pointer = np.diag(RNG.normal(size=da))
    specs = (
        HamiltonianSpec(random_hermitian(da), random_hermitian(da * de)),
        # Both terms diagonal on the apparatus, so ``pointer`` commutes with the total.
        HamiltonianSpec(pointer, np.kron(pointer, random_hermitian(de))),
    )
    for spec in specs:
        for obs in (random_hermitian(da), pointer, np.diag(RNG.normal(size=da))):
            got = pointer_commutator_defect(spec, obs)
            assert abs(got - trace_oracle.pointer_commutator_defect(spec, obs)) <= 1e-12


def test_commutator_defect_rejects_non_hermitian():
    spec = HamiltonianSpec(np.zeros((2, 2)), np.kron(SZ, SZ))
    with pytest.raises(ValueError, match="Hermitian"):
        pointer_commutator_defect(spec, np.array([[0, 1], [0, 0]]))


def test_channel_from_named_specs():
    comp = channel_from_spec("computational", 2.0, 2)
    assert np.allclose(comp.basis, np.eye(4))
    had = channel_from_spec("hadamard", 2.0, 1)
    assert np.allclose(had.basis, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_channel_from_matrix_spec():
    s = 1.0 / np.sqrt(2.0)
    spec = [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]  # hadamard as [re,im] pairs
    ch = channel_from_spec(spec, 0.5, 1)
    assert np.allclose(ch.basis, np.array([[s, s], [s, -s]]))
    assert ch.t_d == 0.5


def test_channel_from_bad_spec():
    with pytest.raises(ValueError, match="unknown pointer basis"):
        channel_from_spec("fourier", 1.0, 1)
    with pytest.raises(ValueError, match="must be"):
        channel_from_spec([[[1.0, 0.0]]], 1.0, 1)


class _UnreadSpec:
    """A matrix spec that fails the test if any entry is read."""

    def __iter__(self):
        raise AssertionError("read a spec entry before checking the width")


@pytest.mark.parametrize(
    ("spec", "num_qubits"),
    [([[[1, 0]]], 0), (_UnreadSpec(), 13), ("computational", 0), ("hadamard", 13)],
    ids=["matrix-0", "matrix-13-unread", "computational-0", "hadamard-13"],
)
def test_channel_from_spec_checks_the_width_first(spec, num_qubits):
    message = f"num_qubits must be in 1..12, got {num_qubits}"
    with pytest.raises(ValueError) as info:
        channel_from_spec(spec, 1.0, num_qubits)
    assert str(info.value) == message
