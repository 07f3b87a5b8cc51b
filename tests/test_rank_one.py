"""Density matrices of pure states, kept as their amplitudes.

``PureState.to_density_matrix`` keeps the amplitudes and builds ``elements``
(the same ``np.outer``) on first read; ``partial_trace`` of such a state
works on the amplitudes.  The einsum reduction of a materialised matrix
stays the oracle: it still serves every mixed or checked ``DensityMatrix``.
The 12-qubit density cap is checked before anything of size 4^n is built.
"""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from decohere.states import DensityMatrix, PureState, _trusted, partial_trace, tensor_product

RNG = np.random.default_rng(6161)
TOL = 1e-12
MB = 2**20


def _random_pure(n: int) -> PureState:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), n)


def _full_matrix(psi: PureState) -> DensityMatrix:
    """|psi><psi| held as the full matrix (no amplitudes kept), unchecked."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return _trusted(DensityMatrix, "elements", mat, num_qubits=psi.num_qubits)


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


def _keep_sets(n: int):
    """Every ordered keep set of size <= 4; each larger one ascending, descending and shuffled.

    All ordered keep sets at 8 qubits (109600) would take about 20 s.
    """
    for k in range(1, n + 1):
        if k <= 4:
            yield from itertools.permutations(range(n), k)
            continue
        for keep in itertools.combinations(range(n), k):
            yield keep
            yield keep[::-1]
            yield tuple(int(q) for q in RNG.permutation(keep))


@pytest.mark.parametrize("n", range(1, 13))
def test_materialised_elements_equal_outer_product_bytes(n):
    psi = _random_pure(n)
    a = psi.amplitudes
    got = psi.to_density_matrix().elements
    assert got.dtype == np.complex128 and got.shape == (2**n, 2**n)
    # Row blocks of the outer product carry the bytes of the full one; blocks
    # keep the 12-qubit comparison from holding a second 268 MB matrix.
    for start in range(0, 2**n, 256):
        want = np.outer(a[start:start + 256], a.conj())
        assert got[start:start + 256].tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_trace_from_amplitudes_matches_full_matrix(n):
    psi = _random_pure(n)
    rank_one = psi.to_density_matrix()
    full = _full_matrix(psi)
    assert "_amplitudes" not in vars(full)
    keeps = list(_keep_sets(n))
    assert tuple(range(n)) in keeps
    if n > 1:
        assert tuple(range(n))[::-1] in keeps
    for keep in keeps:
        got = partial_trace(rank_one, keep)
        want = partial_trace(full, keep)
        assert got.num_qubits == want.num_qubits == len(keep)
        assert np.max(np.abs(got.elements - want.elements)) <= TOL
    assert "elements" not in vars(rank_one)


def test_partial_trace_of_two_term_states_equals_full_matrix_values():
    """Two nonzero amplitudes, as in a premeasurement register.

    Each reduced entry then sums at most two nonzero np.outer products, and
    their sum does not depend on the order, so both paths give equal values
    (not only within 1e-12), and the CLI artifacts built from them agree.
    """
    for _ in range(500):
        n = int(RNG.integers(2, 9))
        amps = np.zeros(2**n, dtype=complex)
        pair = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        amps[RNG.choice(2**n, size=2, replace=False)] = pair / np.linalg.norm(pair)
        psi = PureState(amps, n)
        full = _full_matrix(psi)
        keep = tuple(int(q) for q in RNG.permutation(n)[: int(RNG.integers(1, n + 1))])
        got = partial_trace(psi.to_density_matrix(), keep).elements
        assert np.array_equal(got, partial_trace(full, keep).elements)


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_trace_of_pure_state_equals_its_density_matrix_bytes(n):
    psi = _random_pure(n)
    for keep in [tuple(range(n)), tuple(RNG.permutation(n)), (int(RNG.integers(n)),)]:
        got = partial_trace(psi, keep).elements
        assert got.tobytes() == partial_trace(psi.to_density_matrix(), keep).elements.tobytes()


@pytest.mark.parametrize("n, keep", [(16, (0, 1)), (20, (19, 3)), (14, tuple(range(13, 3, -1)))])
def test_partial_trace_of_wide_pure_state(n, keep):
    # Registers past the density cap reduce from their amplitudes; blocks of
    # rows bound the products in flight to 64 MB (the 14 -> 10 case takes 4 blocks).
    psi = PureState.basis(n, 0) if n == 20 else _random_pure(n)
    a = psi.amplitudes.reshape((2,) * n)
    rest = [q for q in range(n) if q not in keep]
    m = a.transpose(keep + tuple(rest)).reshape(2 ** len(keep), -1)
    reduced, peak = _peak_bytes(lambda: partial_trace(psi, keep))
    assert reduced.num_qubits == len(keep)
    assert np.max(np.abs(reduced.elements - m @ m.conj().T)) <= TOL
    assert peak < reduced.elements.nbytes + 2 * psi.amplitudes.nbytes + 65 * MB


def test_partial_trace_of_pure_state_caps_only_the_kept_width():
    psi = PureState.basis(14, 0)

    def request():
        with pytest.raises(ValueError, match="num_qubits must be in 1..12, got 13"):
            partial_trace(psi, range(13))

    _, peak = _peak_bytes(request)
    assert peak < 1 * MB


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_one_results_are_valid_read_only_and_alias_nothing(n):
    psi = _random_pure(n)
    rho = psi.to_density_matrix()
    keeps = [tuple(range(n)), tuple(RNG.permutation(n)), (int(RNG.integers(n)),)]
    for keep in keeps:
        reduced = partial_trace(rho, keep).elements
        DensityMatrix(reduced, len(keep))
        assert not reduced.flags.writeable
        assert not np.shares_memory(reduced, psi.amplitudes)
    elements = rho.elements
    DensityMatrix(elements, n)
    assert not elements.flags.writeable
    assert not np.shares_memory(elements, psi.amplitudes)
    assert rho.elements is elements
    with pytest.raises(ValueError):
        elements[0, 0] = 0.0


def test_dim_does_not_materialise_the_matrix():
    rho = PureState.basis(12, 7).to_density_matrix()
    dim, peak = _peak_bytes(lambda: rho.dim)
    assert dim == 2**12
    assert peak < 4096
    assert "elements" not in vars(rho)


def test_twelve_qubit_density_request_stays_under_a_megabyte():
    psi = _random_pure(12)
    reduced, peak = _peak_bytes(lambda: partial_trace(psi.to_density_matrix(), (0, 1)))
    assert reduced.elements.shape == (4, 4)
    assert peak < 1 * MB


def test_materialising_read_allocates_only_its_result():
    rho = PureState.basis(10, 3).to_density_matrix()
    elements, peak = _peak_bytes(lambda: rho.elements)
    assert elements.nbytes == 4**10 * 16
    assert peak <= 1.25 * elements.nbytes


def test_racing_first_reads_get_one_read_only_array():
    for _ in range(20):
        psi = _random_pure(8)
        rho = psi.to_density_matrix()
        barrier = threading.Barrier(2)
        reads = [None, None]

        def read(i):
            barrier.wait()
            reads[i] = rho.elements

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for got in reads:
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert got is rho.elements


def test_missing_attributes_still_raise():
    rho = PureState.basis(2, 1).to_density_matrix()
    with pytest.raises(AttributeError, match="no_such"):
        rho.no_such
    checked = DensityMatrix.maximally_mixed(1)
    with pytest.raises(AttributeError, match="_amplitudes"):
        checked._amplitudes


# --- the density cap, checked before allocation ---------------------------------


@pytest.mark.parametrize("n", [13, 20])
def test_to_density_matrix_rejects_wide_register_before_allocating(n):
    psi = PureState.basis(n, 0)

    def request():
        with pytest.raises(ValueError, match="num_qubits must be in 1..12"):
            psi.to_density_matrix()

    _, peak = _peak_bytes(request)
    assert peak < 1 * MB


@pytest.mark.parametrize("n_a, n_b", [(12, 1), (10, 10)])
def test_tensor_product_rejects_wide_register_before_allocating(n_a, n_b):
    # Unread rank-one inputs: reading either one's elements would show in the peak.
    a = PureState.basis(n_a, 0).to_density_matrix()
    b = PureState.basis(n_b, 0).to_density_matrix()

    def request():
        with pytest.raises(ValueError, match="num_qubits must be in 1..12"):
            tensor_product(a, b)

    _, peak = _peak_bytes(request)
    assert peak < 1 * MB


def test_maximally_mixed_rejects_wide_register_before_allocating():
    def request():
        with pytest.raises(ValueError, match="num_qubits must be in 1..12"):
            DensityMatrix.maximally_mixed(14)

    _, peak = _peak_bytes(request)
    assert peak < 1 * MB
