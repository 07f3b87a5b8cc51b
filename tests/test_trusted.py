"""Trusted construction and diagonal-only branch counting against the checked code.

``trusted_oracle`` holds the producers as they were, each result copied and
checked by the public ``DensityMatrix`` constructor, and the branch count
that built the whole 4^cells register.  The trusted results must carry the
same bits, pass the public check (their invariants hold by construction),
be read-only and share no memory with their inputs.  Branch counts agree
exactly, and so do the weights they are counted on.
"""

import tracemalloc

import numpy as np
import pytest

import trusted_oracle
from decohere.dephasing import DephasingChannel, decohered_limit, dephase
from decohere.probability import ProbabilityVector
from decohere.records import (
    MemoryModel,
    _cell_matrices,
    _record_register,
    branch_count,
    correlate,
    redundant_records,
)
from decohere.states import DensityMatrix, PureState, partial_trace, tensor_product

RNG = np.random.default_rng(5151)


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_pure(n: int) -> PureState:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), n)


def _random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix(mat / np.trace(mat), n)


def _assert_trusted(got: DensityMatrix, want: DensityMatrix, *inputs: np.ndarray) -> None:
    """Same bits as the checked result, a valid state, read-only, aliasing nothing."""
    assert got.num_qubits == want.num_qubits
    assert got.elements.dtype == want.elements.dtype
    assert got.elements.shape == want.elements.shape
    assert got.elements.tobytes() == want.elements.tobytes()
    DensityMatrix(got.elements, got.num_qubits)
    assert not got.elements.flags.writeable
    for arr in inputs:
        assert not np.shares_memory(got.elements, arr)


def _random_model(outcomes: int, sys_n: int, rec_n: int, mixed: bool) -> MemoryModel:
    """Random outcome weights, system states and orthogonal records in a random frame.

    Mixed records spread random weights over a block of frame columns, so
    distinct outcomes still occupy orthogonal supports.
    """
    d = 2**rec_n
    frame = _random_unitary(d)
    cuts = np.sort(RNG.choice(np.arange(1, d), size=outcomes - 1, replace=False))
    groups = np.split(np.arange(d), cuts)
    records = []
    for cols in groups:
        if mixed and cols.size > 1:
            q = RNG.uniform(0.1, 1.0, size=cols.size)
            w = frame[:, cols]
            records.append(DensityMatrix((w * (q / q.sum())) @ w.conj().T, rec_n))
        else:
            records.append(PureState(frame[:, cols[0]], rec_n))
    return MemoryModel(
        probabilities=ProbabilityVector(RNG.dirichlet(np.ones(outcomes))),
        system_states=tuple(_random_pure(sys_n) for _ in range(outcomes)),
        record_states=tuple(records),
    )


# --- trusted producers ----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_to_density_matrix_matches_checked(n):
    for _ in range(3):
        psi = _random_pure(n)
        got = psi.to_density_matrix()
        _assert_trusted(got, trusted_oracle.to_density_matrix(psi), psi.amplitudes)


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_trace_matches_checked(n):
    rho = _random_density(n)
    keeps = [tuple(range(n)), tuple(RNG.permutation(n))]
    keeps += [tuple(RNG.choice(n, size=int(RNG.integers(1, n + 1)), replace=False)) for _ in range(3)]
    for keep in keeps:
        got = partial_trace(rho, keep)
        _assert_trusted(got, trusted_oracle.partial_trace(rho, keep), rho.elements)


@pytest.mark.parametrize("n", range(2, 9))
def test_tensor_product_matches_checked(n):
    for n_a in (1, n // 2, n - 1):
        a, b = _random_density(n_a), _random_density(n - n_a)
        got = tensor_product(a, b)
        _assert_trusted(got, trusted_oracle.tensor_product(a, b), a.elements, b.elements)


@pytest.mark.parametrize("n", range(1, 9))
def test_dephasing_matches_checked(n):
    rho = _random_density(n)
    t_d = float(RNG.uniform(0.5, 2.0))
    channels = [
        DephasingChannel.computational(n, t_d),
        DephasingChannel.hadamard(n, t_d),
        DephasingChannel(_random_unitary(2**n), t_d),
    ]
    for channel in channels:
        got = decohered_limit(rho, channel)
        want = trusted_oracle.decohered_limit(rho, channel)
        _assert_trusted(got, want, rho.elements, channel.basis)
        for t in (0.0, 0.3 * t_d, 2.0 * t_d):
            got = dephase(rho, channel, t)
            want = trusted_oracle.dephase(rho, channel, t)
            _assert_trusted(got, want, rho.elements, channel.basis)


def _record_inputs(model: MemoryModel) -> list[np.ndarray]:
    states = model.system_states + model.record_states
    return [s.amplitudes if isinstance(s, PureState) else s.elements for s in states]


@pytest.mark.parametrize("n", range(2, 9))
def test_correlate_and_replicas_match_checked(n):
    for mixed in (False, True):
        rec_n = int(RNG.integers(1, min(n - 1, 3) + 1))
        outcomes = int(RNG.integers(2, min(4, 2**rec_n) + 1))
        model = _random_model(outcomes, n - rec_n, rec_n, mixed)
        _assert_trusted(correlate(model), trusted_oracle.correlate(model), *_record_inputs(model))
        for cells in range(1, (n - model.system_qubits) // rec_n + 1):
            got = redundant_records(model, cells)
            want = trusted_oracle.redundant_records(model, cells)
            _assert_trusted(got, want, *_record_inputs(model))


@pytest.mark.parametrize("basis", ["pointer", "conjugate"])
@pytest.mark.parametrize("rec_n", [1, 2])
def test_channel_register_is_valid_by_construction(basis, rec_n):
    for cells in range(1, 8 // rec_n + 1):
        model = _random_model(2, 1, rec_n, mixed=rec_n == 2)
        blocks = _cell_matrices(model, basis)
        register = _record_register(model.probabilities.values, blocks, cells)
        want = trusted_oracle._record_register_state(model, basis, cells)
        assert register.tobytes() == want.tobytes()
        DensityMatrix(register, cells * rec_n)


# --- branch counting from diagonals ------------------------------------------------


def _thresholds(weights: np.ndarray, min_p: float) -> list[float]:
    """Thresholds at, just under and just over the weights, inside (0, min_p)."""
    near = [1e-6]
    for w in RNG.permutation(np.unique(weights[(weights > 0) & (weights < min_p)]))[:4]:
        near += [float(w), float(np.nextafter(w, 0.0)), float(np.nextafter(w, 1.0))]
    return [t for t in near if 0.0 < t < min_p]


@pytest.mark.parametrize("basis", ["pointer", "conjugate"])
@pytest.mark.parametrize("rec_n", [1, 2])
@pytest.mark.parametrize("mixed", [False, True])
def test_branch_count_matches_full_register(basis, rec_n, mixed):
    for cells in range(1, 10 // rec_n + 1):
        outcomes = int(RNG.integers(2, 2**rec_n + 1))
        model = _random_model(outcomes, 1, rec_n, mixed)
        blocks = [m.diagonal() for m in _cell_matrices(model, basis)]
        got = _record_register(model.probabilities.values, blocks, cells).real
        want = trusted_oracle.register_weights(model, basis, cells)
        assert got.tobytes() == want.tobytes()
        min_p = float(model.probabilities.values.min())
        for threshold in _thresholds(want, min_p):
            count = branch_count(model, basis, cells, threshold=threshold)
            assert count == trusted_oracle.branch_count(model, basis, cells, threshold=threshold)


@pytest.mark.parametrize("basis", ["pointer", "conjugate"])
def test_branch_count_with_channel_matches_full_register(basis):
    for cells in range(1, 6):
        model = _random_model(2, 1, 1, mixed=False)
        channels = [
            DephasingChannel.computational(cells, 1.0),
            DephasingChannel.hadamard(cells, 1.0),
            DephasingChannel(_random_unitary(2**cells), 1.0),
        ]
        for channel in channels:
            got = branch_count(model, basis, cells, channel=channel)
            assert got == trusted_oracle.branch_count(model, basis, cells, channel=channel)


def test_branch_count_keeps_its_errors():
    model = _random_model(2, 1, 1, mixed=False)
    with pytest.raises(ValueError, match="unknown record basis"):
        branch_count(model, "diagonal", 3)
    with pytest.raises(ValueError, match="memory cell"):
        branch_count(model, "pointer", 0)
    with pytest.raises(ValueError, match="channel dimension"):
        branch_count(model, "pointer", 3, channel=DephasingChannel.computational(2, 1.0))


# --- allocation guards ----------------------------------------------------------------


def _peak_bytes(fn):
    """Peak traced allocation above the starting level while ``fn`` runs (numpy included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_density_matrix_at_ten_qubits_allocates_only_its_result():
    psi = PureState.basis(10, 3)
    rho, peak = _peak_bytes(psi.to_density_matrix)
    assert rho.elements.nbytes == 4**10 * 16
    assert peak <= 1.25 * rho.elements.nbytes


def test_branch_count_at_eleven_cells_allocates_under_a_megabyte():
    zero, one = PureState.basis(1, 0), PureState.basis(1, 1)
    model = MemoryModel(ProbabilityVector([0.36, 0.64]), (zero, one), (zero, one))
    count, peak = _peak_bytes(lambda: branch_count(model, "conjugate", 11))
    assert count == 2**11
    assert peak < 2**20
