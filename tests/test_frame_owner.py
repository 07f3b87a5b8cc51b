"""Frames are applied in ``decohere.dephasing`` alone, against the code that applied them by hand.

``frame_oracle`` keeps every replaced expression: dense products with
``channel.basis`` in the sieve, and ``_hadamard_frame`` or an identity in
the records and the CLI.  The computational frame must give the same
values (``==``), the Hadamard and dense frames agree to 1e-12, and branch
counts and observer lists must be equal.  No named frame is ever built.
"""

from itertools import product

import numpy as np
import pytest

import frame_oracle
import trusted_oracle
from decohere import cli, dephasing, probability, records, sieve
from decohere.cli import EXPERIMENTS, observer_lists
from decohere.dephasing import (
    DephasingChannel,
    _hadamard_frame,
    _in_pointer_frame,
    _pointer_coefficients,
    _pointer_weights,
    dephase,
)
from decohere.probability import ProbabilityVector
from decohere.records import (
    MemoryModel,
    branch_count,
    conditional_g,
    correlate,
    record_consensus,
)
from decohere.sieve import (
    DynamicsSpec,
    _evolve_block,
    _pointer_frames,
    _step_maps,
    bloch_grid,
    bloch_state,
    evolve_entropy,
    sieve_rank,
    uniform_grid,
)
from decohere.states import DensityMatrix, Projector, PureState

RNG = np.random.default_rng(1313)
TOL = 1e-12
KINDS = ("computational", "hadamard", "dense")


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(d: int) -> np.ndarray:
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _channel(kind: str, n: int, t_d: float = 1.0) -> DephasingChannel:
    if kind == "dense":
        return DephasingChannel(_random_unitary(2**n), t_d)
    return getattr(DephasingChannel, kind)(n, t_d)


def _explicit(channel: DephasingChannel) -> np.ndarray:
    """The frame matrix the replaced code multiplied by, built without reading ``basis``."""
    if channel._frame == "computational":
        return np.eye(channel.dim, dtype=complex)
    if channel._frame == "hadamard":
        return _hadamard_frame(channel.dim.bit_length() - 1)
    return channel.basis


def _assert_frame_match(got, want, kind: str) -> None:
    if kind == "computational":
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("n", range(1, 9))
def test_in_pointer_frame_matches_dense_products(n):
    d = 2**n
    for kind in KINDS:
        channel = _channel(kind, n)
        w = _explicit(channel)
        for x in (RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)), RNG.normal(size=(d, d))):
            got = _in_pointer_frame(channel._frame_key, x / d)
            _assert_frame_match(got, frame_oracle.in_pointer_frame(w, x / d), kind)
        assert kind == "dense" or "basis" not in vars(channel)


def test_frame_helpers_refuse_what_is_not_a_frame_key():
    # A channel passes its ``_frame_key``, never itself.
    for frame in (DephasingChannel.hadamard(1, 1.0), "Hadamard", None):
        for helper in (_pointer_coefficients, _in_pointer_frame):
            with pytest.raises(ValueError, match="unknown pointer frame"):
                helper(frame, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pointer_frames_match_dense_product(n):
    d = 2**n
    amplitudes = RNG.normal(size=(16, d)) + 1j * RNG.normal(size=(16, d))
    states = [PureState.from_amplitudes(a / np.linalg.norm(a)) for a in amplitudes]
    for kind in KINDS:
        channel = _channel(kind, n)
        want = frame_oracle.pointer_frames(states, _explicit(channel))
        _assert_frame_match(_pointer_frames(states, channel), want, kind)


@pytest.mark.parametrize("n", [1, 2])
def test_density_input_enters_the_pointer_frame_as_before(n):
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    rho = DensityMatrix.from_matrix(a @ a.conj().T / np.trace(a @ a.conj().T))
    for kind, ham in product(KINDS, (None, _random_hermitian(d))):
        channel = _channel(kind, n)
        dynamics = DynamicsSpec(channel, uniform_grid(10.0, 100), 10.0, self_hamiltonian=ham)
        new = evolve_entropy(rho, dynamics)
        frames = frame_oracle.in_pointer_frame(_explicit(channel), rho.elements)[None]
        purities, entropies, _ = _evolve_block(frames, dynamics, new.times)
        _assert_frame_match(new.purities, purities[0], kind)
        _assert_frame_match(new.entropies, entropies[0], kind)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_maps_match_eigenvectors_turned_into_the_frame(n):
    """V from H in the pointer frame against V from W^H times the eigenvectors of H."""
    d = 2**n
    dts = np.array([0.05, 0.1, np.nextafter(0.1, 1.0), 0.37])
    for kind in KINDS:
        channel = _channel(kind, n, 1.3)
        w = _explicit(channel)
        pointer_diagonal = w @ np.diag(RNG.normal(size=d)) @ w.conj().T
        for ham in (_random_hermitian(d), pointer_diagonal):
            dynamics = DynamicsSpec(channel, uniform_grid(1.0, 10), 1.0, self_hamiltonian=ham)
            want = frame_oracle.step_maps(dynamics, dts)
            _assert_frame_match(_step_maps(dynamics, dts), want, kind)


def _record_model(rec_n: int, mixed: bool) -> MemoryModel:
    """Two outcomes with orthogonal records in a random frame, pure or spread over two states."""
    u = _random_unitary(2**rec_n)
    p = float(RNG.uniform(0.1, 0.9))
    if mixed and rec_n > 1:
        record_states = tuple(
            DensityMatrix(0.3 * np.outer(u[:, k], u[:, k].conj())
                          + 0.7 * np.outer(u[:, k + 2], u[:, k + 2].conj()), rec_n)
            for k in (0, 1)
        )
    else:
        record_states = tuple(PureState(u[:, k], rec_n) for k in (0, 1))
    return MemoryModel(
        probabilities=ProbabilityVector([p, 1.0 - p]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=record_states,
    )


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("rec_n", [1, 2, 3])
def test_cell_matrices_and_branch_counts_match_dense_frame(rec_n, mixed):
    """Each record's readout weights are the diagonal of its dense-frame cell matrix."""
    model = _record_model(rec_n, mixed)
    for basis, kind in (("pointer", "computational"), ("conjugate", "hadamard")):
        want = frame_oracle.cell_matrices(model, basis)
        for record, want_cell in zip(model.record_states, want):
            _assert_frame_match(_pointer_weights(kind, record), want_cell.diagonal().real, kind)
        for cells in range(1, 8 // rec_n + 1):
            support = trusted_oracle.register_support(model.probabilities.values, want, cells)
            assert branch_count(model, basis, cells) == int(support.sum())


@pytest.mark.parametrize("measure_basis", ["pointer", "conjugate"])
@pytest.mark.parametrize("prepare_basis", ["pointer", "conjugate"])
def test_observer_lists_match_projector_readout(prepare_basis, measure_basis):
    for seed, ensemble in ((11, 1000), (3, 500), (5, 1)):
        got = observer_lists(prepare_basis, measure_basis, ensemble, seed)
        assert got == frame_oracle.observer_lists(prepare_basis, measure_basis, ensemble, seed)


@pytest.mark.parametrize("t_d", [0.5, 1.0, 3.0])
def test_records_mixing_row_matches_dense_mixing_frame(t_d):
    spec = EXPERIMENTS["records"]
    params = {**spec.defaults, "cells_max": 1, "seq_length": 16, "t_d": t_d}
    got = next(row["g_t"] for row in spec.run(params, 1)["rows"] if row["basis"] == "mixing")
    model = MemoryModel(
        probabilities=ProbabilityVector([params["alpha"] ** 2, params["beta"] ** 2]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )
    mixed = dephase(correlate(model), DephasingChannel(frame_oracle.mixing_frame(), t_d), t_d)
    record_1 = Projector.onto_vector(np.array([0.0, 1.0]))
    assert got == conditional_g(mixed, record_1, Projector.onto_vector(np.array([1.0, 0.0])))


def _named_frame_results():
    """Every result that once read a named channel's ``basis`` or built a Hadamard frame."""
    channels = [DephasingChannel.computational(1, 0.8), DephasingChannel.hadamard(1, 0.8)]
    angles = bloch_grid(3, 5)
    candidates = [bloch_state(theta, phi) for theta, phi in angles]
    rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 1)
    ham = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    out = []
    for channel, h in product(channels, (None, ham)):
        dynamics = DynamicsSpec(channel, uniform_grid(10.0, 100), 12.0, self_hamiltonian=h)
        ranked = sieve_rank(candidates, dynamics)
        out.append([(r.label, r.t_p, r.tprime_p, r.final_entropy) for r in ranked])
        for state in (rho, candidates[7]):
            traj = evolve_entropy(state, dynamics)
            out.append((traj.purities.tolist(), traj.entropies.tolist(), traj.equilibrium_entropy))
    model = MemoryModel(
        probabilities=ProbabilityVector([0.36, 0.64]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )
    for cells in (1, 3, 5):
        count = branch_count(model, "conjugate", cells)
        out.append((count, record_consensus(model, cells, "conjugate")))
    for bases in product(("pointer", "conjugate"), repeat=2):
        out.append(observer_lists(*bases, 200, seed=7))
    spec = EXPERIMENTS["records"]
    out.append(spec.run({**spec.defaults, "cells_max": 4, "seq_length": 64}, 1)["rows"])
    return out, channels


def test_named_frames_are_never_built(monkeypatch):
    """With ``_hadamard_frame`` refusing, every path runs and returns what it returned."""
    want, _ = _named_frame_results()

    def refuse(num_qubits):
        raise AssertionError(f"a {num_qubits}-qubit Hadamard frame was built")

    # Also where a module would hold its own reference to `_hadamard_frame`.
    for module in (dephasing, sieve, records, probability, cli):
        monkeypatch.setattr(module, "_hadamard_frame", refuse, raising=False)
    got, channels = _named_frame_results()
    assert got == want
    assert all("basis" not in vars(channel) for channel in channels)
