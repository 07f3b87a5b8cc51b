"""Predictability sieve: entropy trajectories, horizons, candidate ranking.

States are evolved in the pointer frame X = W^H rho W of the channel, where
dephasing only damps off-diagonal entries, and candidates are evaluated
together in blocks of ``BLOCK_SIZE``.  One helper serves a single state
(``evolve_entropy``) and a block of candidates (``sieve_rank``).

With no self-Hamiltonian the channel semigroup is evaluated in closed form
at every grid time: the purity is
sum_i |x_ii|^2 + exp(-2t/t_d) sum_{i!=j} |x_ij|^2, one outer product of
per-candidate sums with the sample times.  With a self-Hamiltonian H,
evolution uses first-order operator splitting per grid interval: the exact
unitary V = exp(-iH' dt) of H' = W^H H W, H in the pointer frame, then the
exact dephasing mask D for the same dt, X' = D o (V X V^H).  That step is a
fixed linear map, built once per distinct dt as a d^2 x d^2 superoperator.
For d > 2 the block advances by one (B, d^2) x (d^2, d^2) product per grid
interval, straight into its state record.  A qubit keeps only its purities:
its intervals are grouped into chunks of about sqrt(n) steps, and the block
advances by one (B, 4) x (4, 4k) product per chunk against the chunk's
prefix products, which yields the k states of the chunk.

Entropies come from the spectrum of each sampled state.  A qubit's spectrum
follows from its purity alone: lambda+ = (1 + sqrt(2P - 1)) / 2 and
lambda- = det / lambda+ with det = (1 - P) / 2, which avoids the
cancellation in (1 - sqrt(2P - 1)) / 2.  Larger registers take ``eigvalsh``
once per block.

Two horizons are computed from a trajectory by trapezoid quadrature:

* the entropy horizon, the integral of (H_eq - H(t)) / (H_eq - H(0)),
  flagged as capped when the initial information H_eq - H(0) is degenerate
  or the integrand still exceeds 0.5 at the end of the window;
* the purity horizon, the integral of Tr rho(t)^2 - P_eq, flagged as
  cap-dominated when the integrand at the end of the window exceeds 1e-3.

P_eq is the register's equilibrium purity floor 2**-n (the all-outcomes-
equally-likely reference), which makes channel fixed points score a
cap-growing horizon instead of zero and keeps the ranking comparable
across candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .dephasing import DephasingChannel, _in_pointer_frame, _pointer_coefficients
from .states import (
    DensityMatrix,
    HERMITICITY_TOL,
    PureState,
    _entropies_from_spectra,
    _hermiticity_defect,
    _integer,
    _readonly,
    _require,
    _trusted,
)

DEGENERATE_GAP = 1e-9
ENTROPY_CAP_THRESHOLD = 0.5
PURITY_CAP_THRESHOLD = 1e-3
# Candidates evolved together by sieve_rank.  A fixed block keeps the
# working set of (B, T) arrays, and so the peak memory, independent of the
# number of candidates.
BLOCK_SIZE = 16
# Split-step prefix products held at once, in complex entries (4 MB).
_PREFIX_ENTRIES = 1 << 18


def uniform_grid(t_end: float, steps: int) -> np.ndarray:
    """Evenly spaced sample times 0 .. t_end with ``steps`` intervals."""
    steps = _integer(steps, "steps")
    _require(
        steps >= 1 and 0 < t_end < math.inf,
        "grid needs at least one interval over positive time",
    )
    return np.linspace(0.0, float(t_end), steps + 1)


@dataclass(frozen=True, eq=False)
class DynamicsSpec:
    """Open-system dynamics: channel, optional self-Hamiltonian, sampling grid."""

    channel: DephasingChannel
    time_grid: np.ndarray
    horizon_cap: float
    self_hamiltonian: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        grid = _readonly(np.asarray(self.time_grid, dtype=float).reshape(-1), dtype=float)
        _require(
            grid.size >= 2 and grid[0] == 0.0,
            "time grid must start at 0 and contain at least two points",
        )
        _require(np.all(np.diff(grid) > 0), "time grid must be strictly increasing")
        cap = float(self.horizon_cap)
        # A finite cap also keeps the grid finite.
        _require(
            grid[-1] - 1e-12 <= cap < math.inf,
            "horizon cap must reach at least the last grid point",
        )
        ham = self.self_hamiltonian
        if ham is not None:
            ham = _readonly(ham)
            d = self.channel.dim
            _require(ham.shape == (d, d), "self-Hamiltonian dimension does not match channel")
            _require(_hermiticity_defect(ham) <= HERMITICITY_TOL, "self-Hamiltonian not Hermitian")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "horizon_cap", cap)
        object.__setattr__(self, "self_hamiltonian", ham)

    def recorded_times(self) -> np.ndarray:
        """Grid extended at its final spacing until the horizon cap."""
        grid = self.time_grid
        if self.horizon_cap <= grid[-1] + 1e-12:
            return grid.copy()
        dt = float(grid[-1] - grid[-2])
        extra = np.arange(grid[-1] + dt, self.horizon_cap + dt * 0.5, dt)
        extra = extra[extra < self.horizon_cap - 1e-12]
        return np.concatenate([grid, extra, [self.horizon_cap]])


@dataclass(frozen=True, eq=False)
class EntropyTrajectory:
    """Sampled entropy/purity record of one open-system evolution."""

    times: np.ndarray
    entropies: np.ndarray
    purities: np.ndarray
    equilibrium_entropy: float
    num_qubits: int

    def __post_init__(self) -> None:
        times = _readonly(np.asarray(self.times, dtype=float), dtype=float)
        ent = _readonly(np.asarray(self.entropies, dtype=float), dtype=float)
        pur = _readonly(np.asarray(self.purities, dtype=float), dtype=float)
        if not (times.size == ent.size == pur.size):
            raise ValueError("trajectory arrays must have equal length")
        _require(np.all(np.isfinite(times)), "trajectory times must be finite")
        _require(
            np.all((pur >= -1e-9) & (pur <= 1.0 + 1e-9)), "purity values outside [0, 1]"
        )
        _check_entropy_range(ent, self.num_qubits)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "entropies", ent)
        object.__setattr__(self, "purities", pur)

    @property
    def equilibrium_purity(self) -> float:
        """The purity floor 2**-n of the maximally mixed register."""
        return 2.0 ** -self.num_qubits

    @property
    def final_entropy(self) -> float:
        return float(self.entropies[-1])


@dataclass(frozen=True)
class Horizon:
    """Quadrature value plus a flag marking cap-dominated (non-convergent) runs."""

    value: float
    capped: bool


def _check_entropy_range(entropies: np.ndarray, num_qubits: int) -> None:
    _require(
        np.all((entropies >= -1e-9) & (entropies <= num_qubits + 1e-9)),
        "entropy values outside [0, num_qubits]",
    )


def _qubit_spectra(purities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (lambda-, lambda+) of 2x2 density matrices from their purities."""
    upper = np.sqrt(np.maximum(2.0 * purities - 1.0, 0.0))
    upper += 1.0
    upper *= 0.5
    lower = 1.0 - purities
    lower *= 0.5
    lower /= upper
    return lower, upper


def _pointer_frames(states: Sequence[PureState], channel: DephasingChannel) -> np.ndarray:
    """Pointer-frame density matrices |c><c|, c = W^H psi, of a block, (B, d, d)."""
    d = channel.dim
    if any(psi.dim != d for psi in states):
        raise ValueError("dynamics dimension does not match state")
    coeffs = _pointer_coefficients(channel._frame_key, np.array([s.amplitudes for s in states]))
    return coeffs[:, :, None] * coeffs[:, None, :].conj()


def _split_step(
    frames: np.ndarray, dynamics: DynamicsSpec, times: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Purities (B, T) and, for d > 2, pointer-frame states (B, T, d, d).

    Each interval applies V = exp(-iH' dt), H' = W^H H W, and then the
    dephasing mask D, X' = D o (V X V^H).  On row-major vec(X) that is the
    fixed matrix diag(vec D) kron(V, conj V); its transpose S advances the
    whole block as (B, d^2) @ S.  ``_step_maps`` builds S once per distinct
    dt (a linspace grid has a few dt values that differ in the last ulp, and
    the recorded times can end on a shorter interval); only it knows the
    splitting, so an exact generator exp(L dt) would replace it alone.

    For d > 2 every state is kept for its spectrum, so the block advances
    one interval per (B, d^2) @ (d^2, d^2) product, written straight into
    the state record, and the purities are read from the record at the end.
    Chunks would not pay there: their prefix products cost d^6 multiplies
    per interval, at least the B d^4 of the step itself as B <= BLOCK_SIZE
    = 16 <= d^2, and would hold about one d^2 x d^2 map per interval.

    A qubit's spectrum needs only its purity, so its states are not kept:
    that record would be the largest allocation of the sieve.  The n
    intervals are cut into c chunks of k = isqrt(n) steps, the last one
    padded with identities, and the block advances one chunk per
    (B, 4) @ (4, 4k) product against the chunk's prefix products
    (``_chunk_prefixes``), which yields all k states of the chunk; the next
    chunk starts from its last state.  While the prefix products fit in
    ``_PREFIX_ENTRIES`` (up to about 16000 intervals) that makes k - 1 + c
    Python steps instead of n, and k + n / k is least at k = sqrt(n): 44
    steps for 500 intervals.  Each S is a contraction, so rounding grows
    with n as in a step-by-step loop.
    """
    b, d, _ = frames.shape
    dd = d * d
    dts, step_of = np.unique(np.diff(times), return_inverse=True)
    steps = _step_maps(dynamics, dts)
    purities = np.empty((b, times.size))
    if d > 2:
        states = np.empty((b, times.size, dd), dtype=complex)
        states[:, 0] = frames.reshape(b, dd)
        for i, step in enumerate(step_of.tolist(), 1):
            np.matmul(states[:, i - 1], steps[step], out=states[:, i])
        _purities(states, purities)
        return purities, states.reshape(b, times.size, d, d)

    n = step_of.size
    k = math.isqrt(n)
    c = -(-n // k)
    # Index len(dts) is the identity that pads the last chunk.
    steps = np.concatenate([steps, np.eye(dd, dtype=complex)[None]])
    chunk_steps = np.full(c * k, dts.size)
    chunk_steps[:n] = step_of
    x = frames.reshape(b, dd)
    _purities(x[:, None], purities[:, :1])
    for chunk, prefix in enumerate(_chunk_prefixes(steps, chunk_steps.reshape(c, k))):
        xs = np.matmul(x, prefix).reshape(b, k, dd)
        record = purities[:, 1 + chunk * k : 1 + (chunk + 1) * k]
        _purities(xs[:, : record.shape[1]], record)
        x = xs[:, -1]
    return purities, None


def _chunk_prefixes(steps: np.ndarray, chunk_steps: np.ndarray) -> Iterator[np.ndarray]:
    """Each chunk's prefix products S_1, S_1 S_2, ... side by side, (d^2, k d^2).

    ``chunk_steps`` (c, k) indexes ``steps`` per chunk.  The products are
    formed for a group of chunks at a time, in k - 1 batched products, and
    a group holds at most ``_PREFIX_ENTRIES`` of their entries (or one
    chunk's, if that is more), so memory stays bounded however long the
    recording is.
    """
    c, k = chunk_steps.shape
    dd = steps.shape[1]
    group = max(1, _PREFIX_ENTRIES // (k * dd * dd))
    for first in range(0, c, group):
        index = chunk_steps[first : first + group]
        prefix = np.empty((index.shape[0], dd, k, dd), dtype=complex)
        prefix[:, :, 0] = steps[index[:, 0]]
        for j in range(1, k):
            np.matmul(prefix[:, :, j - 1], steps[index[:, j]], out=prefix[:, :, j])
        yield from prefix.reshape(-1, dd, k * dd)


def _step_maps(dynamics: DynamicsSpec, dts: np.ndarray) -> np.ndarray:
    """Split-step maps S (len(dts), d^2, d^2), one per dt."""
    d = dynamics.channel.dim
    ham = _in_pointer_frame(dynamics.channel._frame_key, dynamics.self_hamiltonian)
    evals, vecs = np.linalg.eigh(ham)
    v = (vecs * np.exp(-1j * evals * dts[:, None])[:, None, :]) @ vecs.conj().T
    damp = np.exp(-dts / dynamics.channel.t_d)[:, None, None] * (1.0 - np.eye(d)) + np.eye(d)
    steps = np.empty((dts.size, d * d, d * d), dtype=complex)
    # S[(j, l), (i, k)] = D[i, k] V[i, j] conj V[k, l], written in place
    maps = steps.reshape(dts.size, d, d, d, d)
    vt = v.transpose(0, 2, 1)
    np.multiply(damp[:, None, None], vt[:, :, None, :, None], out=maps)
    maps *= vt.conj()[:, None, :, None, :]
    return steps


def _purities(xs: np.ndarray, out: np.ndarray) -> None:
    """Purities of vec(X) (B, m, d^2) into ``out`` (B, m)."""
    flat = xs.view(float)  # |x|^2 summed as re^2 + im^2
    np.vecdot(flat, flat, out=out)


def _evolve_block(
    frames: np.ndarray, dynamics: DynamicsSpec, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Purities (B, T), entropies (B, T) and equilibrium entropies (B,).

    ``frames`` holds B pointer-frame density matrices (B, d, d), recorded
    at ``times``.  The equilibrium entropy is that of the decohered limit,
    the pointer-frame diagonal, or of the state at the last recorded time
    when a self-Hamiltonian keeps rotating the register.
    """
    d = frames.shape[1]
    t_d = dynamics.channel.t_d
    off_diag = 1.0 - np.eye(d)
    if dynamics.self_hamiltonian is None:
        populations = np.diagonal(frames, axis1=1, axis2=2).real
        coherence = np.sum(np.abs(frames) ** 2 * off_diag, axis=(1, 2))
        purities = (
            np.sum(populations**2, axis=1)[:, None]
            + coherence[:, None] * np.exp(-2.0 * times / t_d)
        )
        equilibrium = _entropies_from_spectra(populations.T)
        states = None
        if d > 2:
            states = frames[:, None] * (np.exp(-times / t_d)[:, None, None] * off_diag + np.eye(d))
    else:
        purities, states = _split_step(frames, dynamics, times)
        equilibrium = None
    if d == 2:
        spectra = _qubit_spectra(purities)
    else:
        spectra = np.moveaxis(np.linalg.eigvalsh(states), -1, 0)
    entropies = _entropies_from_spectra(spectra)
    _check_entropy_range(entropies, d.bit_length() - 1)
    if equilibrium is None:
        equilibrium = entropies[:, -1]
    return purities, entropies, equilibrium


def evolve_entropy(
    state: Union[PureState, DensityMatrix], dynamics: DynamicsSpec
) -> EntropyTrajectory:
    """Evolve a state and record entropy (bits) and purity on the time grid.

    The recording always spans [0, horizon_cap]; when the grid stops short
    it is continued at its final spacing.  The equilibrium entropy is taken
    from the decohered limit of the end state, or from the cap-time state
    itself when a self-Hamiltonian keeps rotating the register.
    """
    channel = dynamics.channel
    if isinstance(state, PureState):
        frames = _pointer_frames([state], channel)
    elif state.dim != channel.dim:
        raise ValueError("dynamics dimension does not match state")
    else:
        frames = _in_pointer_frame(channel._frame_key, state.elements)[None]
    times = dynamics.recorded_times()
    purities, entropies, equilibrium = _evolve_block(frames, dynamics, times)
    return EntropyTrajectory(
        times=times,
        entropies=entropies[0],
        purities=purities[0],
        equilibrium_entropy=float(equilibrium[0]),
        num_qubits=state.num_qubits,
    )


def _entropy_horizons(
    times: np.ndarray, entropies: np.ndarray, equilibrium: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy horizons and cap flags along the trailing time axis."""
    h0 = entropies[..., 0]
    degenerate = equilibrium <= h0 + DEGENERATE_GAP
    gap = np.where(degenerate, 1.0, equilibrium - h0)
    integrand = (equilibrium[..., None] - entropies) / gap[..., None]
    values = np.where(degenerate, times[-1], np.trapezoid(integrand, times, axis=-1))
    return values, degenerate | (integrand[..., -1] > ENTROPY_CAP_THRESHOLD)


def _purity_horizons(
    times: np.ndarray, purities: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Purity horizons and cap flags along the trailing time axis."""
    integrand = purities - floor
    values = np.maximum(np.trapezoid(integrand, times, axis=-1), 0.0)
    return values, integrand[..., -1] > PURITY_CAP_THRESHOLD


def predictability_horizon(trajectory: EntropyTrajectory) -> Horizon:
    """Normalized entropy-relaxation time by trapezoid rule over the window.

    A degenerate information gap (H_eq within 1e-9 of H(0)) or an integrand
    above 0.5 at the end of the window returns a capped horizon whose value
    is the window length itself.
    """
    value, capped = _entropy_horizons(
        trajectory.times, trajectory.entropies, np.asarray(trajectory.equilibrium_entropy)
    )
    return Horizon(float(value), bool(capped))


def purity_horizon(trajectory: EntropyTrajectory) -> Horizon:
    """Integrated excess purity above the equilibrium floor."""
    value, capped = _purity_horizons(
        trajectory.times, trajectory.purities, trajectory.equilibrium_purity
    )
    return Horizon(float(value), bool(capped))


@dataclass(frozen=True)
class SieveReport:
    """Per-candidate sieve outcome."""

    label: str
    t_p: float
    t_p_capped: bool
    tprime_p: float
    tprime_capped: bool
    final_entropy: float
    theta: Optional[float] = None
    phi: Optional[float] = None


def bloch_state(theta: float, phi: float) -> PureState:
    """Single-qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Normalized by construction for any finite angles, so built without the
    norm check.
    """
    message = "Bloch angles must be finite, got ({!r}, {!r})"
    _require(math.isfinite(theta) and math.isfinite(phi), message, theta, phi)
    amps = np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
        dtype=complex,
    )
    return _trusted(PureState, "amplitudes", amps, num_qubits=1)


def bloch_grid(theta_steps: int = 36, phi_steps: int = 36) -> list[tuple[float, float]]:
    """Plain product grid over (theta, phi); poles repeat across phi."""
    theta_steps, phi_steps = _integer(theta_steps, "theta_steps"), _integer(phi_steps, "phi_steps")
    angles = []
    for i in range(theta_steps + 1):
        theta = math.pi * i / theta_steps
        for j in range(phi_steps):
            angles.append((theta, 2.0 * math.pi * j / phi_steps))
    return angles


def sieve_rank(
    candidates: Sequence[PureState],
    dynamics: DynamicsSpec,
    labels: Optional[Sequence[str]] = None,
    angles: Optional[Sequence[tuple[float, float]]] = None,
) -> list[SieveReport]:
    """Rank candidate initial states by descending purity horizon.

    Ties break by ascending final entropy, then by candidate position.  The
    horizon is compared to 30 significant bits (about 9 digits) and the
    entropy (0 to n bits) to 9 decimals, so exact ties that rounding split
    keep their input order; a pair straddling a rounding boundary still
    orders by value.  Candidates are evolved in blocks of ``BLOCK_SIZE``.
    """
    if not candidates:
        raise ValueError("need at least one candidate state")
    if not all(isinstance(psi, PureState) for psi in candidates):
        raise TypeError("sieve candidates must be PureStates")
    count = len(candidates)
    for name, values in (("labels", labels), ("angles", angles)):
        if values is not None and len(values) != count:
            raise ValueError(f"{name} has {len(values)} entries for {count} candidates")
    times = dynamics.recorded_times()
    floor = 1.0 / dynamics.channel.dim
    reports: list[SieveReport] = []
    for start in range(0, count, BLOCK_SIZE):
        frames = _pointer_frames(candidates[start : start + BLOCK_SIZE], dynamics.channel)
        purities, entropies, equilibrium = _evolve_block(frames, dynamics, times)
        t_p, t_p_capped = _entropy_horizons(times, entropies, equilibrium)
        t_pp, t_pp_capped = _purity_horizons(times, purities, floor)
        for k in range(frames.shape[0]):
            idx = start + k
            theta, phi = (angles[idx] if angles is not None else (None, None))
            reports.append(SieveReport(
                label=labels[idx] if labels is not None else f"candidate-{idx}",
                t_p=float(t_p[k]),
                t_p_capped=bool(t_p_capped[k]),
                tprime_p=float(t_pp[k]),
                tprime_capped=bool(t_pp_capped[k]),
                final_entropy=float(entropies[k, -1]),
                theta=theta,
                phi=phi,
            ))
    mantissa, exponent = np.frexp([r.tprime_p for r in reports])
    horizon_keys = np.ldexp(np.round(mantissa * 2**30), exponent - 30)
    entropy_keys = np.round([r.final_entropy for r in reports], 9)
    order = np.lexsort((np.arange(count), entropy_keys, -horizon_keys))
    return [reports[i] for i in order.tolist()]
