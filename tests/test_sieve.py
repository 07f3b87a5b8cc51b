import math

import numpy as np
import pytest

from decohere.dephasing import DephasingChannel
from decohere.sieve import (
    DynamicsSpec,
    EntropyTrajectory,
    bloch_grid,
    bloch_state,
    evolve_entropy,
    predictability_horizon,
    purity_horizon,
    sieve_rank,
    uniform_grid,
)
from decohere.states import DensityMatrix, PureState

# Entropy-horizon of |+> under unit-timescale dephasing: adaptive quadrature
# of 1 - h2((1 + exp(-t))/2) over [0, inf), evaluated once and frozen here.
PLUS_ENTROPY_HORIZON = 0.40671544479218674

SQ2 = 1.0 / math.sqrt(2.0)


def plus() -> PureState:
    return PureState.from_amplitudes(np.array([1.0, 1.0]) * SQ2)


def z_dynamics(t_d: float = 1.0, steps: int = 2500) -> DynamicsSpec:
    ch = DephasingChannel.computational(1, t_d)
    return DynamicsSpec(ch, uniform_grid(50.0 * t_d, steps), 50.0 * t_d)


def binary_entropy(p: float) -> float:
    total = 0.0
    for x in (p, 1.0 - p):
        if x > 1e-15:
            total -= x * math.log2(x)
    return total


def test_spec_validation():
    ch = DephasingChannel.computational(1, 1.0)
    with pytest.raises(ValueError, match="start at 0"):
        DynamicsSpec(ch, np.array([0.5, 1.0]), 2.0)
    with pytest.raises(ValueError, match="increasing"):
        DynamicsSpec(ch, np.array([0.0, 1.0, 1.0]), 2.0)
    with pytest.raises(ValueError, match="cap"):
        DynamicsSpec(ch, np.array([0.0, 1.0, 2.0]), 1.0)


def test_pointer_state_produces_no_entropy():
    traj = evolve_entropy(PureState.basis(1, 0), z_dynamics())
    assert np.max(traj.entropies) == 0.0


def test_plus_state_entropy_matches_closed_form():
    traj = evolve_entropy(plus(), z_dynamics())
    expected = [binary_entropy((1.0 + math.exp(-t)) / 2.0) for t in traj.times]
    assert np.max(np.abs(traj.entropies - expected)) < 1e-9


def test_plus_state_purity_matches_closed_form():
    traj = evolve_entropy(plus(), z_dynamics())
    expected = (1.0 + np.exp(-2.0 * traj.times)) / 2.0
    assert np.max(np.abs(traj.purities - expected)) < 1e-12


def test_entropy_horizon_against_quadrature_oracle():
    horizon = predictability_horizon(evolve_entropy(plus(), z_dynamics()))
    assert not horizon.capped
    assert horizon.value == pytest.approx(PLUS_ENTROPY_HORIZON, abs=5e-4)


def test_entropy_horizon_capped_for_pointer_state():
    horizon = predictability_horizon(evolve_entropy(PureState.basis(1, 0), z_dynamics()))
    assert horizon.capped


def test_entropy_horizon_instant_equilibration():
    times = np.linspace(0.0, 1.0, 1001)
    entropies = np.where(times > 0, 1.0, 0.0)
    traj = EntropyTrajectory(times, entropies, np.full_like(times, 0.5), 1.0, 0.5, 1)
    horizon = predictability_horizon(traj)
    assert horizon.value == pytest.approx(0.0, abs=1e-3)


def test_purity_horizon_quarter_timescale():
    horizon = purity_horizon(evolve_entropy(plus(), z_dynamics()))
    assert not horizon.capped
    assert horizon.value == pytest.approx(0.25, abs=1e-4)


def test_purity_horizon_grid_refinement_converges():
    coarse = purity_horizon(evolve_entropy(plus(), z_dynamics(steps=2500))).value
    fine = purity_horizon(evolve_entropy(plus(), z_dynamics(steps=5000))).value
    assert abs(coarse - fine) <= 1e-4


def test_purity_horizon_cap_dominated_for_pointer_state():
    horizon = purity_horizon(evolve_entropy(PureState.basis(1, 0), z_dynamics()))
    assert horizon.capped
    # constant integrand (1 - equilibrium purity) over the whole window
    assert horizon.value == pytest.approx(0.5 * 50.0, abs=1e-9)


def test_purity_horizon_zero_at_equilibrium():
    horizon = purity_horizon(evolve_entropy(DensityMatrix.maximally_mixed(1), z_dynamics()))
    assert horizon.value == pytest.approx(0.0, abs=1e-12)
    assert not horizon.capped


def test_recorded_times_extend_to_cap():
    ch = DephasingChannel.computational(1, 1.0)
    dyn = DynamicsSpec(ch, np.linspace(0.0, 2.0, 21), 3.0)
    times = dyn.recorded_times()
    assert times[-1] == pytest.approx(3.0)
    assert np.all(np.diff(times) > 0)


def test_self_hamiltonian_commuting_with_channel_changes_nothing():
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ch = DephasingChannel.computational(1, 1.0)
    grid = uniform_grid(10.0, 500)
    plain = evolve_entropy(plus(), DynamicsSpec(ch, grid, 10.0))
    with_h = evolve_entropy(plus(), DynamicsSpec(ch, grid, 10.0, self_hamiltonian=sz))
    assert np.max(np.abs(plain.entropies - with_h.entropies)) < 1e-9
    assert np.max(np.abs(plain.purities - with_h.purities)) < 1e-9


def test_self_hamiltonian_alone_keeps_state_pure():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ch = DephasingChannel.computational(1, 1e9)  # effectively unitary dynamics
    dyn = DynamicsSpec(ch, uniform_grid(5.0, 200), 5.0, self_hamiltonian=sx)
    traj = evolve_entropy(PureState.basis(1, 0), dyn)
    assert np.max(traj.entropies) < 1e-6
    assert np.min(traj.purities) > 1.0 - 1e-6


def test_sieve_prefers_pointer_state():
    reports = sieve_rank([PureState.basis(1, 0), plus()], z_dynamics(), labels=["zero", "plus"])
    assert reports[0].label == "zero"
    assert reports[0].tprime_capped
    assert reports[1].tprime_p == pytest.approx(0.25, abs=1e-4)


def test_sieve_coarse_bloch_grid_puts_poles_first():
    angles = bloch_grid(theta_steps=6, phi_steps=4)
    candidates = [bloch_state(t, p) for t, p in angles]
    reports = sieve_rank(candidates, z_dynamics(steps=500), angles=angles)
    pole_count = sum(1 for t, _ in angles if t in (0.0, math.pi))
    top = reports[:pole_count]
    assert all(r.theta in (0.0, math.pi) for r in top)
    assert all(r.final_entropy <= 1e-12 for r in top)


def test_tied_candidates_rank_in_position_order():
    """Candidates tied in exact arithmetic differ only by rounding; their position decides.

    In the computational frame the horizons depend on theta alone, so every
    theta row of the grid is one tie, the pole theta = pi repeated across
    phi included.
    """
    angles = bloch_grid(theta_steps=6, phi_steps=12)
    candidates = [bloch_state(t, p) for t, p in angles]
    reports = sieve_rank(candidates, z_dynamics(steps=500), angles=angles)
    position = {angle: i for i, angle in enumerate(angles)}
    ranked = [position[(r.theta, r.phi)] for r in reports]
    pole = [i for i in ranked if angles[i][0] == math.pi]
    assert pole == list(range(len(angles) - 12, len(angles)))
    for theta in {t for t, _ in angles}:
        row = [i for i in ranked if angles[i][0] == theta]
        assert row == sorted(row)


def test_sieve_hadamard_channel_prefers_conjugate_states():
    ch = DephasingChannel.hadamard(1, 1.0)
    dyn = DynamicsSpec(ch, uniform_grid(50.0, 500), 50.0)
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) * SQ2)
    reports = sieve_rank(
        [PureState.basis(1, 0), plus(), minus], dyn, labels=["zero", "plus", "minus"]
    )
    assert {reports[0].label, reports[1].label} == {"plus", "minus"}
    assert reports[2].label == "zero"


def test_horizon_orders_agree_on_extremes():
    dyn = z_dynamics()
    pointer_traj = evolve_entropy(PureState.basis(1, 0), dyn)
    conjugate_traj = evolve_entropy(plus(), dyn)
    t_p = (predictability_horizon(pointer_traj), predictability_horizon(conjugate_traj))
    t_pp = (purity_horizon(pointer_traj), purity_horizon(conjugate_traj))
    # both functionals rank the pointer state ahead of its conjugate
    assert t_p[0].value > t_p[1].value
    assert t_pp[0].value > t_pp[1].value
    assert t_p[0].capped and t_pp[0].capped
    assert not t_p[1].capped and not t_pp[1].capped


def test_sieve_ranking_covariant_under_frame_change():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2
    angles = bloch_grid(theta_steps=4, phi_steps=4)
    candidates = [bloch_state(t, p) for t, p in angles]
    rotated = [
        PureState.from_amplitudes(hadamard @ c.amplitudes) for c in candidates
    ]
    dyn_z = z_dynamics(steps=500)
    ch_h = DephasingChannel.hadamard(1, 1.0)
    dyn_h = DynamicsSpec(ch_h, uniform_grid(50.0, 500), 50.0)
    plain = {r.label: r.tprime_p for r in sieve_rank(candidates, dyn_z, labels=[str(i) for i in range(len(candidates))])}
    conj = {r.label: r.tprime_p for r in sieve_rank(rotated, dyn_h, labels=[str(i) for i in range(len(candidates))])}
    for key in plain:
        assert plain[key] == pytest.approx(conj[key], abs=1e-9)


def test_sieve_breaks_purity_ties_by_final_entropy():
    # Both diagonals have sum p_i^2 = 30820/16^4, so their purity horizons are
    # bitwise equal; only the final (Shannon) entropy of the diagonal differs.
    dyn = DynamicsSpec(DephasingChannel.computational(3, 1.0), uniform_grid(5.0, 200), 5.0)
    high = PureState.from_amplitudes(np.array([13, 6, 5, 4, 3, 1, 0, 0]) / 16.0)
    low = PureState.from_amplitudes(np.array([12, 10, 3, 1, 1, 1, 0, 0]) / 16.0)
    for candidates, labels in (([high, low], ["high", "low"]), ([low, high], ["low", "high"])):
        reports = sieve_rank(candidates, dyn, labels=labels)
        assert reports[0].tprime_p == reports[1].tprime_p
        assert [r.label for r in reports] == ["low", "high"]
        assert reports[0].final_entropy == pytest.approx(1.260, abs=1e-3)
        assert reports[1].final_entropy == pytest.approx(1.572, abs=1e-3)
