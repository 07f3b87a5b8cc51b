"""Records are read as pointer-frame weights, against the matrices they were read from.

``dephasing._pointer_weights(frame, state)`` is diag(W^H rho W).  The code it
replaced built each record's d x d matrix (``np.outer`` of a pure record),
turned it with ``_in_pointer_frame`` and read the diagonal;
``trusted_oracle._cell_matrices`` keeps that.  Weights must carry the same
bits in the computational frame (and for a mixed state in every frame) and
agree to 1e-12 in the Hadamard and dense frames.  Branch counts must equal
the register's support exactly, record consensus the explicit readout to
1e-12, and observer lists the values the matrix code gave.  Pure records
build no matrix.
"""

from itertools import product

import numpy as np
import pytest

import frame_oracle
import trusted_oracle
from decohere import dephasing, records
from decohere.cli import observer_lists
from decohere.dephasing import (
    DephasingChannel,
    _hadamard_frame,
    _in_pointer_frame,
    _pointer_weights,
    decohered_limit,
)
from decohere.probability import ProbabilityVector
from decohere.records import MemoryModel, _record_matrix, branch_count, record_consensus
from decohere.states import DensityMatrix, PureState

RNG = np.random.default_rng(2424)
TOL = 1e-12
KINDS = ("computational", "hadamard", "dense")
# observer_lists(prepare, measure, 1000, 1) and (..., 257, 7) before the weights
# were read through _pointer_weights: (agreement_a_b, agreement_a_a2, agreement_b_a2).
OBSERVER_LISTS = {
    ("pointer", "pointer"): ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    ("pointer", "conjugate"): (
        (0.502, 1.0, 0.502),
        (0.48249027237354086, 1.0, 0.48249027237354086),
    ),
    ("conjugate", "pointer"): (
        (0.502, 0.495, 0.485),
        (0.48249027237354086, 0.44357976653696496, 0.45525291828793774),
    ),
    ("conjugate", "conjugate"): (
        (0.502, 0.495, 0.485),
        (0.48249027237354086, 0.44357976653696496, 0.45525291828793774),
    ),
}


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _frame_key(kind: str, n: int):
    return _random_unitary(2**n) if kind == "dense" else kind


def _mixture(u: np.ndarray, columns, weights, n: int) -> DensityMatrix:
    rho = sum(w * np.outer(u[:, c], u[:, c].conj()) for c, w in zip(columns, weights))
    return DensityMatrix(rho, n)


def _states(n: int):
    """A pure state, it as a rank-one density matrix, a basis state and a mixed state."""
    d = 2**n
    amps = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    psi = PureState.from_amplitudes(amps / np.linalg.norm(amps))
    mixed = _mixture(_random_unitary(d), range(d), RNG.dirichlet(np.ones(d)), n)
    return psi, psi.to_density_matrix(), PureState.basis(n, int(RNG.integers(d))), mixed


def _model(record_states, probabilities=None) -> MemoryModel:
    k = len(record_states)
    p = np.full(k, 1.0 / k) if probabilities is None else probabilities
    return MemoryModel(ProbabilityVector(p), (PureState.basis(1, 0),) * k, tuple(record_states))


def _rank_one_records(rec_n: int) -> list[DensityMatrix]:
    """Orthogonal pure records in a random frame, as rank-one density matrices."""
    u = _random_unitary(2**rec_n)
    return [PureState(u[:, k], rec_n).to_density_matrix() for k in range(2**rec_n)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_weights_match_the_turned_record_matrix(n, kind):
    frame = _frame_key(kind, n)
    psi, rank_one, basis_state, mixed = _states(n)
    for state in (psi, rank_one, basis_state, mixed):
        got = _pointer_weights(frame, state)
        want = _in_pointer_frame(frame, _record_matrix(state)).diagonal().real
        assert got.dtype == np.float64 and got.shape == (2**n,)
        if kind == "computational" or state is mixed:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= TOL


# test_trusted.py covers pure and mixed records; these are rank-one density matrices.
@pytest.mark.parametrize("rec_n", [1, 2, 3])
def test_branch_count_on_rank_one_records_equals_register_support(rec_n):
    record_states = _rank_one_records(rec_n)
    k = len(record_states)
    dropped = RNG.dirichlet(np.ones(k))
    dropped[RNG.integers(k)] = 0.0
    for probabilities in (None, dropped / dropped.sum()):
        model = _model(record_states, probabilities)
        for basis in ("pointer", "conjugate"):
            cell_mats = trusted_oracle._cell_matrices(model, basis)
            for cells in range(1, 9 // rec_n + 1):
                support = trusted_oracle.register_support(model.probabilities.values, cell_mats, cells)
                count = branch_count(model, basis, cells)
                assert type(count) is int and count == int(support.sum())


@pytest.mark.parametrize("basis", ["pointer", "conjugate"])
def test_branch_count_at_64_outcomes_equals_register_support(basis):
    u = _random_unitary(64)
    basis_records = [PureState.basis(6, i) for i in range(64)]
    for record_states in (basis_records, [PureState(u[:, i], 6) for i in range(64)]):
        model = _model(record_states)
        cell_mats = trusted_oracle._cell_matrices(model, basis)
        for cells in (1, 2, 3):
            support = trusted_oracle.register_support(model.probabilities.values, cell_mats, cells)
            assert branch_count(model, basis, cells) == int(support.sum())


def test_record_consensus_matches_explicit_readout():
    u = _random_unitary(2)
    pure = [PureState(u[:, k], 1) for k in (0, 1)]
    p = float(RNG.uniform(0.1, 0.9))
    models = [
        _model(pure, [p, 1.0 - p]),
        _model([psi.to_density_matrix() for psi in pure], [p, 1.0 - p]),
        _model([PureState.basis(1, 1), PureState.basis(1, 0)], [0.36, 0.64]),
        _model([_mixture(u, (0, 1), (0.3, 0.7), 1)]),
    ]
    for model in models:
        for basis in ("pointer", "conjugate"):
            for cells in range(1, 13):
                got = record_consensus(model, cells, basis)
                assert abs(got - frame_oracle.readout_consensus(model, cells, basis)) <= TOL


@pytest.mark.parametrize("measure_basis", ["pointer", "conjugate"])
@pytest.mark.parametrize("prepare_basis", ["pointer", "conjugate"])
def test_observer_lists_keep_their_values(prepare_basis, measure_basis):
    channel = DephasingChannel.computational(1, 1.0)
    for amplitudes in (*np.eye(2), *_hadamard_frame(1).T):
        psi = PureState(amplitudes, 1)
        rho = decohered_limit(psi.to_density_matrix(), channel)
        for frame in ("computational", "hadamard"):
            want = _in_pointer_frame(frame, rho.elements)[1, 1].real
            assert _pointer_weights(frame, rho)[1] == want
    pinned = OBSERVER_LISTS[prepare_basis, measure_basis]
    for (seed, ensemble), want in zip(((1, 1000), (7, 257)), pinned):
        got = observer_lists(prepare_basis, measure_basis, ensemble, seed)
        assert (got["agreement_a_b"], got["agreement_a_a2"], got["agreement_b_a2"]) == want


def test_pure_records_build_no_matrix(monkeypatch):
    """Neither the record matrix nor a frame change runs for pure and rank-one records."""

    def unreachable(*args):
        raise AssertionError("built a record matrix")

    u = _random_unitary(8)
    pure = [PureState(u[:, k], 3) for k in range(8)]
    models = {"pure": _model(pure), "rank-one": _model([s.to_density_matrix() for s in pure])}
    counts = {}
    for (name, model), basis in product(models.items(), ("pointer", "conjugate")):
        cell_mats = trusted_oracle._cell_matrices(model, basis)
        support = trusted_oracle.register_support(model.probabilities.values, cell_mats, 2)
        counts[name, basis] = int(support.sum())
    plus_minus = [PureState(h, 1) for h in _hadamard_frame(1).T]
    consensus_models = [
        _model(plus_minus, [0.36, 0.64]),
        _model([s.to_density_matrix() for s in plus_minus]),
    ]
    consensus = {
        (i, basis): frame_oracle.readout_consensus(model, 3, basis)
        for (i, model), basis in product(enumerate(consensus_models), ("pointer", "conjugate"))
    }
    lazy = pure[0].to_density_matrix()

    monkeypatch.setattr(records, "_record_matrix", unreachable)
    monkeypatch.setattr(dephasing, "_in_pointer_frame", unreachable)
    for (name, model), basis in product(models.items(), ("pointer", "conjugate")):
        assert branch_count(model, basis, 2) == counts[name, basis]
    for (i, model), basis in product(enumerate(consensus_models), ("pointer", "conjugate")):
        assert abs(record_consensus(model, 3, basis) - consensus[i, basis]) <= TOL
    for frame in ("computational", "hadamard"):
        _pointer_weights(frame, lazy)
    assert "elements" not in vars(lazy)


@pytest.mark.parametrize("n", range(1, 9))
def test_computational_frame_change_is_one_copy(n):
    """In the computational frame W^H X W is X: a fresh copy with the bytes of X conj conj."""
    mixed = _states(n)[3]
    elements = mixed.elements
    turned = _in_pointer_frame("computational", elements)
    assert not np.shares_memory(turned, elements)
    assert turned.dtype == elements.dtype and turned.tobytes() == elements.conj().conj().tobytes()
    weights = _pointer_weights("computational", mixed)
    assert weights.dtype == np.float64 and weights.tobytes() == elements.diagonal().real.tobytes()
