"""Trusted construction and exact branch counting against the checked code.

``trusted_oracle`` holds the producers as they were, each result copied and
checked by the public ``DensityMatrix``, ``PureState`` or ``Projector``
constructor, the branch count that built the whole 4^cells register and
thresholded its weights, and the register's support.  The trusted results
must carry the same bits, pass the public check (their invariants hold by
construction), be read-only and share no memory with their inputs; with the
check patched to raise they must still be built.  Branch counts equal the
support's size exactly; the threshold missed only strings of weight up to
1e-6.
"""

import tracemalloc

import numpy as np
import pytest

import trusted_oracle
from decohere.dephasing import DephasingChannel, _hadamard_frame, decohered_limit, dephase
from decohere.probability import ProbabilityVector, _union_and_intersection, sum_rule_violation
from decohere.records import (
    MemoryModel,
    _record_support_projector,
    branch_count,
    correlate,
    redundant_records,
)
from decohere.states import (
    DensityMatrix,
    Projector,
    PureState,
    born_probability,
    partial_trace,
    tensor_product,
)

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


def _random_model(
    outcomes: int, sys_n: int, rec_n: int, mixed: bool, frame: np.ndarray | None = None
) -> MemoryModel:
    """Random outcome weights, system states and orthogonal records in ``frame`` (random if None).

    Mixed records spread random weights over a block of frame columns, so
    distinct outcomes still occupy orthogonal supports.
    """
    d = 2**rec_n
    frame = _random_unitary(d) if frame is None else frame
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


# --- branch counting as the register's support ----------------------------------------


def _record_frame(kind: str, rec_n: int) -> np.ndarray:
    """Records whose one-cell supports are full, disjoint, or shared by some outcomes."""
    d = 2**rec_n
    if kind == "random":
        return _random_unitary(d)
    if kind == "hadamard":
        return _hadamard_frame(rec_n)
    if kind == "permutation":
        return np.eye(d)[:, RNG.permutation(d)]
    # Random on the first qubit only: outcomes that share the rest share a support.
    return np.kron(_random_unitary(2), np.eye(d // 2)[:, RNG.permutation(d // 2)])


def _drop_an_outcome(model: MemoryModel) -> MemoryModel:
    """The same records with one outcome's weight moved to the others."""
    p = model.probabilities.values.copy()
    p[RNG.integers(p.size)] = 0.0
    return MemoryModel(ProbabilityVector(p / p.sum()), model.system_states, model.record_states)


@pytest.mark.parametrize("basis", ["pointer", "conjugate"])
@pytest.mark.parametrize("rec_n", [1, 2, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_branch_count_matches_full_register(basis, rec_n, mixed):
    """Exactly the register's support; beyond the 1e-6 threshold, only strings of weight <= 1e-6."""
    for kind in ("random", "permutation", "hadamard", "one-qubit"):
        for cells in range(1, 10 // rec_n + 1):
            outcomes = int(RNG.integers(2, 2**rec_n + 1))
            base = _random_model(outcomes, 1, rec_n, mixed, _record_frame(kind, rec_n))
            for model in (base, _drop_an_outcome(base)):
                cell_mats = trusted_oracle._cell_matrices(model, basis)
                support = trusted_oracle.register_support(model.probabilities.values, cell_mats, cells)
                count = branch_count(model, basis, cells)
                assert type(count) is int and count == int(support.sum())
                weights = trusted_oracle.register_weights(model, basis, cells)
                kept = weights > 1e-6
                assert not np.any(kept & ~support)
                extra = weights[support & ~kept]
                assert np.all((extra > 0.0) & (extra <= 1e-6))
                if model.probabilities.values.min() > 1e-6:
                    want = trusted_oracle.branch_count(model, basis, cells)
                    assert count == want + extra.size


def test_branch_count_keeps_its_errors():
    model = _random_model(2, 1, 1, mixed=False)
    with pytest.raises(ValueError, match="unknown record basis"):
        branch_count(model, "diagonal", 3)
    with pytest.raises(ValueError, match="memory cell"):
        branch_count(model, "pointer", 0)


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


# --- basis states and projectors -----------------------------------------------------


def _assert_same_projector(got: Projector, want: Projector, *inputs: np.ndarray) -> None:
    """Same bits and rank as the checked projector, a valid one, read-only, aliasing nothing.

    The stored rank must equal the one the public constructor derives from the trace.
    """
    assert type(got.rank) is int and got.rank == want.rank
    assert got.elements.dtype == want.elements.dtype
    assert got.elements.shape == want.elements.shape
    assert np.array_equal(got.elements, want.elements)
    assert got.elements.tobytes() == want.elements.tobytes()
    assert Projector(got.elements).rank == got.rank
    assert not got.elements.flags.writeable
    for arr in inputs:
        assert not np.shares_memory(got.elements, arr)


def _random_subspace(d: int, rank: int, shared: np.ndarray | None = None) -> Projector:
    """Projector onto ``rank`` random orthonormal columns, the first ``shared`` if given."""
    cols = RNG.normal(size=(d, rank)) + 1j * RNG.normal(size=(d, rank))
    if shared is not None:
        cols[:, 0] = shared
    q, _ = np.linalg.qr(cols)
    return Projector(q @ q.conj().T)


@pytest.mark.parametrize("n", [*range(1, 9), 20])
def test_basis_states_match_checked(n):
    for index in sorted({0, 2**n - 1, int(RNG.integers(2**n))}):
        got, want = PureState.basis(n, index), trusted_oracle.basis(n, index)
        assert got.num_qubits == want.num_qubits == n
        assert got.amplitudes.dtype == want.amplitudes.dtype
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        PureState(got.amplitudes, n)
        assert not got.amplitudes.flags.writeable
    bits = [int(b) for b in RNG.integers(0, 2, size=n)]
    want = trusted_oracle.basis(n, int("".join(map(str, bits)), 2))
    assert PureState.from_bits(bits).amplitudes.tobytes() == want.amplitudes.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_maximally_mixed_matches_checked(n):
    _assert_trusted(DensityMatrix.maximally_mixed(n), trusted_oracle.maximally_mixed(n))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 16, 64])
def test_built_projectors_match_checked(dim):
    _assert_same_projector(Projector.identity(dim), trusted_oracle.identity(dim))
    label_sets = [[], list(range(dim)), [dim - 1, 0, dim - 1]]
    label_sets += [list(RNG.choice(dim, size=int(RNG.integers(1, dim + 1)))) for _ in range(3)]
    dense = [_random_subspace(dim, r) for r in {0, 1, dim // 2, dim}]
    for labels in label_sets:
        got = Projector.onto_basis_states(dim, labels)
        _assert_same_projector(got, trusted_oracle.onto_basis_states(dim, labels))
        dense.append(got)
    for p in dense:
        _assert_same_projector(p.complement(), trusted_oracle.complement(p), p.elements)
    for scale in (1e-6, 1.0, 1e6):
        v = scale * (RNG.normal(size=dim) + 1j * RNG.normal(size=dim))
        _assert_same_projector(Projector.onto_vector(v), trusted_oracle.onto_vector(v), v)
    # Squares that overflow; a power-of-two scale leaves the direction's bits alone.
    _assert_same_projector(Projector.onto_vector(2.0**600 * v), trusted_oracle.onto_vector(v))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_join_and_meet_match_checked(n):
    """Generic pairs (a zero-rank meet when the ranks fit), pairs sharing a vector, equal events.

    The sum rule now reads the zero-rank meet's Born probability, exactly 0.0,
    where it used to skip it: its value must not move.
    """
    d, rho = 2**n, _random_density(n)
    zero_meets = 0
    for trial in range(12):
        rank_b, rank_c = (int(r) for r in RNG.integers(1, d, size=2)) if d > 2 else (1, 1)
        shared = RNG.normal(size=d) + 1j * RNG.normal(size=d) if trial % 3 == 1 else None
        b = _random_subspace(d, rank_b, shared)
        c = b if trial % 3 == 2 else _random_subspace(d, rank_c, shared)
        got, want = _union_and_intersection(b, c), trusted_oracle.union_and_intersection(b, c)
        for got_p, want_p in zip(got, want):
            _assert_same_projector(got_p, want_p, b.elements, c.elements)
        join, meet = want
        zero_meets += meet.rank == 0
        if trial % 3 == 0:
            mu_meet = born_probability(rho, meet) if meet.rank else 0.0
            mus = [born_probability(rho, p) for p in (join, b, c)]
            assert sum_rule_violation(rho, b, c) == abs(mus[0] - mus[1] - mus[2] + mu_meet)
    assert zero_meets > 0


@pytest.mark.parametrize("n", range(2, 8))
def test_record_support_matches_checked(n):
    """Pure and mixed records."""
    for mixed in (False, True):
        rec_n = int(RNG.integers(1, min(n - 1, 3) + 1))
        outcomes = int(RNG.integers(2, min(4, 2**rec_n) + 1))
        model = _random_model(outcomes, n - rec_n, rec_n, mixed)
        for record in model.record_states:
            got = _record_support_projector(record)
            want = trusted_oracle.record_support_projector(record)
            _assert_same_projector(got, want, *_record_inputs(model))


def _refuse(*args, **kwargs):
    raise AssertionError("a value valid by construction was checked again")


def test_built_projectors_skip_the_check(monkeypatch):
    model = _random_model(3, 1, 2, mixed=True)
    pure = next(r for r in model.record_states if isinstance(r, PureState))
    mixed = next(r for r in model.record_states if isinstance(r, DensityMatrix))
    p = Projector.onto_basis_states(8, [1, 4])
    b, c = _random_subspace(4, 2), _random_subspace(4, 2)
    rho_bc = _random_density(2)
    monkeypatch.setattr(Projector, "__post_init__", _refuse)
    monkeypatch.setattr(DensityMatrix, "__post_init__", _refuse)
    assert Projector.identity(1024).rank == 1024
    assert Projector.onto_basis_states(1024, range(0, 1024, 2)).rank == 512
    assert p.complement().rank == 6
    assert Projector.onto_vector([1.0, 1j, 0.5]).rank == 1
    assert [q.rank for q in _union_and_intersection(b, c)] == [4, 0]
    assert _record_support_projector(pure).rank == 1
    assert _record_support_projector(mixed).rank > 1
    sum_rule_violation(rho_bc, b, c)


def test_basis_states_skip_the_check(monkeypatch):
    monkeypatch.setattr(PureState, "__post_init__", _refuse)
    assert PureState.basis(20, 0).amplitudes[0] == 1.0
    assert PureState.from_bits([1, 0, 1]).amplitudes[5] == 1.0


def test_maximally_mixed_at_twelve_qubits_skips_the_spectrum(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    rho = DensityMatrix.maximally_mixed(12)
    diag = rho.elements.diagonal()
    assert np.count_nonzero(rho.elements) == 4096
    assert np.all(diag == 1 / 4096)
