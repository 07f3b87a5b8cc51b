"""Block evaluation of the sieve against the per-candidate reference loop.

``sieve_oracle`` holds the sieve as it was before block evaluation.  The
closed form agrees to rounding (1e-12 relative to max(1, |x|)); the split
step reorders the arithmetic of several hundred sequential steps, so it
agrees to 1e-10.
"""

from itertools import product

import numpy as np
import pytest

import sieve_oracle
from decohere import sieve
from decohere.dephasing import DephasingChannel
from decohere.sieve import (
    BLOCK_SIZE,
    DynamicsSpec,
    bloch_grid,
    bloch_state,
    evolve_entropy,
    sieve_rank,
    uniform_grid,
)
from decohere.states import DensityMatrix, PureState

CLOSED_TOL = 1e-12
SPLIT_TOL = 1e-10
TIE_TOL = 1e-9


def _random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _frame(kind: str, d: int, rng) -> np.ndarray:
    if kind == "computational":
        return np.eye(d, dtype=complex)
    if kind == "hadamard":
        return DephasingChannel.hadamard(d.bit_length() - 1, 1.0).basis
    return _random_unitary(rng, d)


def _qubit_grid(theta_steps: int, phi_steps: int):
    angles = bloch_grid(theta_steps, phi_steps)
    return [bloch_state(t, p) for t, p in angles], angles


def _two_qubit_states(rng, count: int) -> list[PureState]:
    states = []
    for _ in range(count):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(PureState.from_amplitudes(amps / np.linalg.norm(amps)))
    # pointer-frame basis states make degenerate, capped horizons
    return states + [PureState.basis(2, 0), PureState.basis(2, 3)]


def _close(new, old, tol: float) -> bool:
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return bool(np.all(np.abs(new - old) <= tol * np.maximum(1.0, np.abs(old))))


def _assert_matches_oracle(candidates, dynamics, tol, angles=None):
    """Per-sample trajectories, horizons, flags and ranking against the oracle."""
    labels = [f"c{i}" for i in range(len(candidates))]
    times = dynamics.recorded_times()
    window = float(times[-1])
    oracle_trajs = [sieve_oracle.evolve_entropy(c, dynamics) for c in candidates]
    for start in range(0, len(candidates), BLOCK_SIZE):
        block = candidates[start : start + BLOCK_SIZE]
        frames = sieve._pointer_frames(block, dynamics.channel)
        purities, entropies, equilibrium = sieve._evolve_block(frames, dynamics, times)
        for k, traj in enumerate(oracle_trajs[start : start + len(block)]):
            assert _close(purities[k], traj.purities, tol)
            assert _close(entropies[k], traj.entropies, tol)
            assert _close(equilibrium[k], traj.equilibrium_entropy, tol)

    new = sieve_rank(candidates, dynamics, labels=labels, angles=angles)
    old = sieve_oracle.sieve_rank(candidates, dynamics, labels=labels, angles=angles)
    by_label = {r.label: r for r in new}
    for ref in old:
        got = by_label[ref.label]
        traj = oracle_trajs[int(ref.label[1:])]
        gap = traj.equilibrium_entropy - float(traj.entropies[0])
        assert (got.t_p_capped, got.tprime_capped) == (ref.t_p_capped, ref.tprime_capped)
        assert (got.theta, got.phi) == (ref.theta, ref.phi)
        if gap > sieve.DEGENERATE_GAP:
            # t_p divides by the information gap, so its rounding scales with 1/gap
            assert abs(got.t_p - ref.t_p) <= tol * window / gap
        else:
            assert got.t_p == ref.t_p == window
        assert _close(got.tprime_p, ref.tprime_p, tol)
        assert _close(got.final_entropy, ref.final_entropy, tol)

    # Pairs whose oracle keys differ by more than TIE_TOL keep their order;
    # closer pairs are ties at rounding level and must fill the same slots.
    old_pos = {r.label: i for i, r in enumerate(old)}
    new_rank = np.array([old_pos[r.label] for r in new])
    tprime = np.array([r.tprime_p for r in old])
    final = np.array([r.final_entropy for r in old])
    decided = (np.abs(tprime[:, None] - tprime[None, :]) > TIE_TOL) | (
        np.abs(final[:, None] - final[None, :]) > TIE_TOL
    )
    new_slot = np.empty_like(new_rank)
    new_slot[new_rank] = np.arange(new_rank.size)
    before_old = np.arange(new_rank.size)[:, None] < np.arange(new_rank.size)[None, :]
    before_new = new_slot[:, None] < new_slot[None, :]
    assert np.all(before_new[decided & before_old])
    assert np.all(np.abs(tprime[new_rank] - tprime) <= TIE_TOL)
    assert np.all(np.abs(final[new_rank] - final) <= TIE_TOL)


@pytest.mark.parametrize(
    "kind, theta_steps, phi_steps",
    [("computational", 36, 36), ("hadamard", 12, 10), ("random", 9, 7)],
)
def test_closed_form_qubit_grid_matches_oracle(kind, theta_steps, phi_steps):
    rng = np.random.default_rng(7)
    candidates, angles = _qubit_grid(theta_steps, phi_steps)
    assert len(candidates) % BLOCK_SIZE != 0
    channel = DephasingChannel(_frame(kind, 2, rng), 1.0)
    dynamics = DynamicsSpec(channel, uniform_grid(50.0, 500), 50.0)
    _assert_matches_oracle(candidates, dynamics, CLOSED_TOL, angles=angles)


@pytest.mark.parametrize("kind", ["computational", "hadamard", "random"])
def test_split_step_qubit_grid_matches_oracle(kind):
    rng = np.random.default_rng(11)
    candidates, angles = _qubit_grid(3, 5)
    channel = DephasingChannel(_frame(kind, 2, rng), 1.0)
    # the cap ends the recording on a shorter step than the grid's
    dynamics = DynamicsSpec(
        channel, uniform_grid(25.0, 500), 25.03, self_hamiltonian=_random_hermitian(rng, 2)
    )
    assert len(set(np.round(np.diff(dynamics.recorded_times()), 9))) == 2
    _assert_matches_oracle(candidates, dynamics, SPLIT_TOL, angles=angles)


@pytest.mark.parametrize("kind", ["computational", "hadamard", "random"])
def test_two_qubit_candidates_match_oracle(kind):
    rng = np.random.default_rng(13)
    candidates = _two_qubit_states(rng, 18)
    channel = DephasingChannel(_frame(kind, 4, rng), 0.7)
    closed = DynamicsSpec(channel, uniform_grid(20.0, 200), 25.0)
    _assert_matches_oracle(candidates, closed, CLOSED_TOL)
    split = DynamicsSpec(channel, uniform_grid(20.0, 200), 20.0, self_hamiltonian=_random_hermitian(rng, 4))
    _assert_matches_oracle(candidates, split, SPLIT_TOL)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_mixed_state_trajectory_matches_oracle(num_qubits):
    # records.outcome_horizon evolves conditional states given as density matrices
    rng = np.random.default_rng(17)
    d = 2**num_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = DensityMatrix.from_matrix(a @ a.conj().T / np.trace(a @ a.conj().T))
    channels = [DephasingChannel(_random_unitary(rng, d), 1.0)]
    hamiltonian = _random_hermitian(rng, d)
    # The named frames take the state into the pointer frame without a frame matrix.
    for frame in ("computational", "hadamard"):
        channels.append(getattr(DephasingChannel, frame)(num_qubits, 1.0))
    for channel, ham in product(channels, (None, hamiltonian)):
        dynamics = DynamicsSpec(channel, uniform_grid(10.0, 200), 12.0, self_hamiltonian=ham)
        tol = CLOSED_TOL if ham is None else SPLIT_TOL
        new = evolve_entropy(rho, dynamics)
        old = sieve_oracle.evolve_entropy(rho, dynamics)
        assert np.array_equal(new.times, old.times)
        assert _close(new.purities, old.purities, tol)
        assert _close(new.entropies, old.entropies, tol)
        assert _close(new.equilibrium_entropy, old.equilibrium_entropy, tol)
        assert new.equilibrium_purity == old.equilibrium_purity == 2.0**-num_qubits
        # The floor is computed, not passed: the horizon keeps the reference's bits.
        assert sieve.purity_horizon(new) == sieve_oracle.purity_horizon(new)


def test_qubit_spectrum_from_purity():
    purities = np.array([0.5, 0.5 + 1e-17, 0.75, 1.0 - 1e-15, 1.0, 1.0 + 1e-9])
    lower, upper = sieve._qubit_spectra(purities)
    assert np.allclose(lower + upper, 1.0, atol=1e-15)
    assert np.allclose(lower**2 + upper**2, purities, atol=1e-15)
    assert np.all(lower <= upper)
    # lambda- = det / lambda+ keeps tiny eigenvalues accurate
    assert lower[3] == pytest.approx(5e-16, rel=0.25)
    with pytest.raises(ValueError, match="lost positivity"):
        sieve._entropies_from_spectra(sieve._qubit_spectra(np.array([1.0 + 1e-7])))


def _no_evolution(*args):
    raise AssertionError("evolution ran before the input was validated")


def test_sieve_rank_rejects_mismatched_labels_before_evolving(monkeypatch):
    candidates, _ = _qubit_grid(2, 2)
    dynamics = DynamicsSpec(DephasingChannel.computational(1, 1.0), uniform_grid(5.0, 50), 5.0)
    monkeypatch.setattr(sieve, "_evolve_block", _no_evolution)
    with pytest.raises(ValueError, match="labels has 1 entries for 6 candidates"):
        sieve_rank(candidates, dynamics, labels=["only-one"])


def test_sieve_rank_rejects_mismatched_angles_before_evolving(monkeypatch):
    candidates, angles = _qubit_grid(2, 2)
    dynamics = DynamicsSpec(DephasingChannel.computational(1, 1.0), uniform_grid(5.0, 50), 5.0)
    monkeypatch.setattr(sieve, "_evolve_block", _no_evolution)
    with pytest.raises(ValueError, match="angles has 5 entries for 6 candidates"):
        sieve_rank(candidates, dynamics, angles=angles[:-1])


def test_sieve_rank_rejects_candidate_of_wrong_dimension():
    candidates, _ = _qubit_grid(2, 2)
    candidates.append(PureState.basis(2, 1))
    dynamics = DynamicsSpec(DephasingChannel.computational(1, 1.0), uniform_grid(5.0, 50), 5.0)
    with pytest.raises(ValueError, match="dynamics dimension does not match state"):
        sieve_rank(candidates, dynamics)


def test_sieve_rank_rejects_mixed_candidates():
    dynamics = DynamicsSpec(DephasingChannel.computational(1, 1.0), uniform_grid(5.0, 50), 5.0)
    with pytest.raises(TypeError, match="PureStates"):
        sieve_rank([PureState.basis(1, 0), DensityMatrix.maximally_mixed(1)], dynamics)
