"""Per-candidate reference for the predictability sieve.

This is the sieve as it was before block evaluation: every candidate is
evolved on its own, the closed form takes the spectrum of each sampled
state with ``eigvalsh``, and the split step applies the unitary and the
dephasing as four d x d products per step in the register frame.  The
tests compare the block evaluation in ``decohere.sieve`` against it.

``split_step`` is the block split step as it was before the chunked
propagation: one (B, d^2) @ (d^2, d^2) product per recorded interval.  It
takes the Hamiltonian into the pointer frame as the sieve does, so that it
isolates the propagation; ``frame_oracle.step_maps`` keeps the step maps
as they were formed before, from W^H times the eigenvectors of H.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from decohere.dephasing import _in_pointer_frame
from decohere.sieve import (
    DEGENERATE_GAP,
    ENTROPY_CAP_THRESHOLD,
    PURITY_CAP_THRESHOLD,
    DynamicsSpec,
    EntropyTrajectory,
    Horizon,
    SieveReport,
)
from decohere.states import EIGENVALUE_FLOOR, SPECTRUM_CUTOFF, DensityMatrix, PureState


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    """Shannon entropy in bits of one spectrum, ignoring weights below 1e-12.

    Eigenvalues in [-1e-8, 0) are clipped to zero; anything more negative is
    an invariant violation and raises.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    low = float(eigs.min()) if eigs.size else 0.0
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"spectrum not positive: eigenvalue {low!r}")
    kept = eigs[eigs > SPECTRUM_CUTOFF]
    if kept.size == 0:
        return 0.0
    # An eigenvalue within rounding of 1 may overshoot it and push the sum
    # a few ulp below zero; the entropy is nonnegative by definition.
    return max(0.0, float(-np.sum(kept * np.log2(kept))))


def _entropies_from_stack(stack: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(stack)
    low = float(eigs.min())
    if low < -1e-8:
        raise ValueError(f"evolved state lost positivity: eigenvalue {low!r}")
    safe = np.where(eigs > 1e-12, eigs, 1.0)
    return np.maximum(
        -np.sum(np.where(eigs > 1e-12, eigs * np.log2(safe), 0.0), axis=-1), 0.0
    )


def evolve_entropy(
    state: Union[PureState, DensityMatrix], dynamics: DynamicsSpec
) -> EntropyTrajectory:
    """Evolve a state and record entropy (bits) and purity on the time grid.

    The recording always spans [0, horizon_cap]; when the grid stops short
    it is continued at its final spacing.  The equilibrium entropy is taken
    from the decohered limit of the end state, or from the cap-time state
    itself when a self-Hamiltonian keeps rotating the register.
    """
    rho = state.to_density_matrix() if isinstance(state, PureState) else state
    if dynamics.channel.dim != rho.dim:
        raise ValueError("dynamics dimension does not match state")
    times = dynamics.recorded_times()
    w = dynamics.channel.basis
    t_d = dynamics.channel.t_d
    n = rho.num_qubits
    d = rho.dim
    off_diag = 1.0 - np.eye(d)

    if dynamics.self_hamiltonian is None:
        # Closed-form semigroup: damp pointer-frame off-diagonals per time.
        in_frame = w.conj().T @ rho.elements @ w
        factors = np.exp(-times[:, None, None] / t_d) * off_diag + np.eye(d)
        stack = in_frame[None, :, :] * factors
        eq_diag = in_frame.diagonal().real
    else:
        evals, vecs = np.linalg.eigh(dynamics.self_hamiltonian)
        stack = np.empty((times.size, d, d), dtype=complex)
        current = rho.elements.copy()
        stack[0] = w.conj().T @ current @ w
        step_cache: dict[float, np.ndarray] = {}
        for i in range(1, times.size):
            dt = float(times[i] - times[i - 1])
            u = step_cache.get(dt)
            if u is None:
                u = (vecs * np.exp(-1j * evals * dt)) @ vecs.conj().T
                step_cache[dt] = u
            current = u @ current @ u.conj().T
            in_frame = w.conj().T @ current @ w
            damp = math.exp(-dt / t_d) * off_diag + np.eye(d)
            in_frame = in_frame * damp
            current = w @ in_frame @ w.conj().T
            stack[i] = in_frame
        eq_diag = None

    entropies = _entropies_from_stack(stack)
    purities = np.sum(np.abs(stack) ** 2, axis=(1, 2))
    if eq_diag is not None:
        equilibrium_entropy = _entropy_bits(eq_diag)
    else:
        equilibrium_entropy = float(entropies[-1])
    return EntropyTrajectory(
        times=times,
        entropies=entropies,
        purities=purities,
        equilibrium_entropy=equilibrium_entropy,
        num_qubits=n,
    )


def split_step(
    frames: np.ndarray, dynamics: DynamicsSpec, times: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Purities (B, T) and, for d > 2, pointer-frame states (B, T, d, d), one step at a time.

    Each interval applies S = (diag(vec D) kron(V, conj V))^T to the block of
    row-major vec(X), S built once per distinct dt.
    """
    b, d, _ = frames.shape
    ham = _in_pointer_frame(dynamics.channel._frame_key, dynamics.self_hamiltonian)
    evals, vecs = np.linalg.eigh(ham)
    off_diag = 1.0 - np.eye(d)
    steps: dict[float, np.ndarray] = {}
    purities = np.empty((b, times.size))
    states = np.empty((b, times.size, d, d), dtype=complex) if d > 2 else None
    x = frames.reshape(b, d * d)
    for i, dt in enumerate([0.0] + np.diff(times).tolist()):
        if i:
            step = steps.get(dt)
            if step is None:
                v = (vecs * np.exp(-1j * evals * dt)) @ vecs.conj().T
                damp = (math.exp(-dt / dynamics.channel.t_d) * off_diag + np.eye(d)).reshape(-1)
                step = steps[dt] = (damp[:, None] * np.kron(v, v.conj())).T
            x = x @ step
        flat = x.view(float)  # |x|^2 summed as re^2 + im^2
        np.vecdot(flat, flat, out=purities[:, i])
        if states is not None:
            states[:, i] = x.reshape(b, d, d)
    return purities, states


def predictability_horizon(trajectory: EntropyTrajectory) -> Horizon:
    """Normalized entropy-relaxation time by trapezoid rule over the window.

    A degenerate information gap (H_eq within 1e-9 of H(0)) or an integrand
    above 0.5 at the end of the window returns a capped horizon whose value
    is the window length itself.
    """
    h_eq = trajectory.equilibrium_entropy
    h0 = float(trajectory.entropies[0])
    window = float(trajectory.times[-1])
    if h_eq <= h0 + DEGENERATE_GAP:
        return Horizon(window, True)
    integrand = (h_eq - trajectory.entropies) / (h_eq - h0)
    value = float(np.trapezoid(integrand, trajectory.times))
    return Horizon(value, bool(integrand[-1] > ENTROPY_CAP_THRESHOLD))


def purity_horizon(trajectory: EntropyTrajectory) -> Horizon:
    """Integrated excess purity above the equilibrium floor."""
    integrand = trajectory.purities - trajectory.equilibrium_purity
    value = float(np.trapezoid(integrand, trajectory.times))
    return Horizon(max(value, 0.0), bool(integrand[-1] > PURITY_CAP_THRESHOLD))



def sieve_rank(
    candidates: Sequence[PureState],
    dynamics: DynamicsSpec,
    labels: Optional[Sequence[str]] = None,
    angles: Optional[Sequence[tuple[float, float]]] = None,
) -> list[SieveReport]:
    """Rank candidate initial states by descending purity horizon.

    Ties break by ascending final entropy, then by candidate position, so
    the order is deterministic and independent of evaluation order.
    """
    if not candidates:
        raise ValueError("need at least one candidate state")
    reports: list[tuple[float, float, int, SieveReport]] = []
    for idx, psi in enumerate(candidates):
        traj = evolve_entropy(psi, dynamics)
        t_p = predictability_horizon(traj)
        t_pp = purity_horizon(traj)
        label = labels[idx] if labels is not None else f"candidate-{idx}"
        theta, phi = (angles[idx] if angles is not None else (None, None))
        report = SieveReport(
            label=label,
            t_p=t_p.value,
            t_p_capped=t_p.capped,
            tprime_p=t_pp.value,
            tprime_capped=t_pp.capped,
            final_entropy=traj.final_entropy,
            theta=theta,
            phi=phi,
        )
        reports.append((-t_pp.value, traj.final_entropy, idx, report))
    reports.sort(key=lambda item: item[:3])
    return [item[3] for item in reports]
