"""The sieve's qubit blocks and horizons against the block code they replace, bit for bit.

``sieve_oracle.block_*`` is the block evaluation as it was before the
qubit entropies were formed in one buffer and the two horizons shared one
halved-interval array: ``np.trapezoid`` per horizon, the generic spectrum
entropy over both qubit eigenvalues, a numpy scalar per report field.
Nothing may move, not even the sign of a zero: reports, trajectories and
horizons must be ``tobytes()``-equal.

``sieve_oracle.ungrouped_sieve_rank`` evolves every candidate, as the sieve
did before qubit closed-form candidates were grouped by their statistics
(p0, p1, coherence).  The grouped sieve must give the same reports in the
same order, bit for bit.

Both references evaluate 16 candidates per block, as the sieve did before
its blocks were sized by samples (``BLOCK_ENTRIES`` pointer-frame entries
per block trajectory), so every comparison also checks that the block
size moves no bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sieve_oracle
from decohere import sieve
from decohere.dephasing import DephasingChannel
from decohere.sieve import (
    BLOCK_ENTRIES,
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

RNG = np.random.default_rng(2323)
KINDS = ("computational", "hadamard", "dense")
# The grid ends at 10; a cap of 12.03 continues it at its spacing and ends
# on a shorter interval.
GRIDS = {"cap at grid": 10.0, "cap past grid": 12.03}
REPORT_FLOATS = ("t_p", "tprime_p", "final_entropy")
REPORT_FIELDS = ("label", "t_p_capped", "tprime_capped", "theta", "phi")
# Qubit rows per block at the 501 samples of uniform_grid(50.0, 500).
QUBIT_ROWS = 32


def _block_rows(dynamics: DynamicsSpec) -> int:
    """Rows per sieve block: its pointer-frame trajectory holds at most BLOCK_ENTRIES entries."""
    return max(1, BLOCK_ENTRIES // (dynamics.recorded_times().size * dynamics.channel.dim**2))


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(d: int) -> np.ndarray:
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _channel(kind: str, num_qubits: int, t_d: float) -> DephasingChannel:
    if kind == "dense":
        return DephasingChannel(_random_unitary(2**num_qubits), t_d)
    return getattr(DephasingChannel, kind)(num_qubits, t_d)


def _dynamics(kind: str, num_qubits: int, split: bool, cap: float) -> DynamicsSpec:
    channel = _channel(kind, num_qubits, float(RNG.uniform(0.5, 2.0)))
    ham = _random_hermitian(2**num_qubits) if split else None
    return DynamicsSpec(channel, uniform_grid(10.0, 200), cap, self_hamiltonian=ham)


def _random_states(count: int, num_qubits: int) -> list[PureState]:
    amps = RNG.normal(size=(count, 2**num_qubits)) + 1j * RNG.normal(size=(count, 2**num_qubits))
    return [PureState(a / np.linalg.norm(a), num_qubits) for a in amps]


def _candidates(num_qubits: int, channel: DephasingChannel):
    """Qubits: a Bloch grid with both poles.  Two qubits: the pointer states and random states.

    Two-qubit blocks hold 16 to 20 rows on ``GRIDS``, so 43 candidates end
    on a short block.
    """
    if num_qubits == 1:
        angles = bloch_grid(6, 8)
        return [bloch_state(t, p) for t, p in angles], angles
    pointers = [PureState(channel.basis[:, k], 2) for k in range(4)]
    basis = [PureState.basis(2, k) for k in range(4)]
    return pointers + basis + _random_states(35, 2), None


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_trajectory(got: EntropyTrajectory, want: EntropyTrajectory) -> None:
    for name in ("times", "entropies", "purities"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert _bits(got.equilibrium_entropy) == _bits(want.equilibrium_entropy)
    assert got.num_qubits == want.num_qubits


def _assert_same_horizons(traj: EntropyTrajectory) -> None:
    for new, old in ((predictability_horizon, sieve_oracle.block_predictability_horizon),
                     (purity_horizon, sieve_oracle.block_purity_horizon)):
        got, want = new(traj), old(traj)
        assert _bits(got.value) == _bits(want.value)
        assert got.capped is want.capped


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("split", [False, True], ids=["closed", "split"])
@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_sieve_rank_keeps_block_bits(kind, num_qubits, split, grid):
    dynamics = _dynamics(kind, num_qubits, split, GRIDS[grid])
    candidates, angles = _candidates(num_qubits, dynamics.channel)
    assert len(candidates) % _block_rows(dynamics)  # a short last block
    got = sieve_rank(candidates, dynamics, angles=angles)
    want = sieve_oracle.block_sieve_rank(candidates, dynamics, angles=angles)
    for name in REPORT_FLOATS:
        floats = [[getattr(r, name) for r in reports] for reports in (got, want)]
        assert _bits(floats[0]) == _bits(floats[1]), name
    for name in REPORT_FIELDS:
        assert [getattr(r, name) for r in got] == [getattr(r, name) for r in want], name
    assert all(type(getattr(r, name)) is float for r in got for name in REPORT_FLOATS)
    assert all(type(r.t_p_capped) is type(r.tprime_capped) is bool for r in got)
    if not split and kind == "computational":
        # Poles and basis states are pointer states here: entropy exactly 0 at every time.
        assert any(r.final_entropy == 0.0 for r in got)


def _assert_same_reports(got, want) -> None:
    """Every report in rank order: float fields by their bytes, the rest by equality."""
    assert len(got) == len(want)
    for name in REPORT_FLOATS:
        floats = [[getattr(r, name) for r in reports] for reports in (got, want)]
        assert _bits(floats[0]) == _bits(floats[1]), name
    for name in REPORT_FIELDS:
        assert [getattr(r, name) for r in got] == [getattr(r, name) for r in want], name


def _assert_matches_both_references(candidates, dynamics, **names) -> list:
    got = sieve_rank(candidates, dynamics, **names)
    _assert_same_reports(got, sieve_oracle.ungrouped_sieve_rank(candidates, dynamics, **names))
    _assert_same_reports(got, sieve_oracle.block_sieve_rank(candidates, dynamics, **names))
    return got


def _closed_qubit_dynamics(channel: DephasingChannel, cap: float = 50.0) -> DynamicsSpec:
    return DynamicsSpec(channel, uniform_grid(50.0, 500), cap)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("split", [False, True], ids=["closed", "split"])
@pytest.mark.parametrize("kind", KINDS)
def test_grouped_sieve_keeps_ungrouped_bits(kind, split, grid):
    dynamics = _dynamics(kind, 1, split, GRIDS[grid])
    candidates, angles = _candidates(1, dynamics.channel)
    labels = [f"c{i}" for i in range(len(candidates))]
    _assert_matches_both_references(candidates, dynamics, labels=labels, angles=angles)


@pytest.mark.parametrize("kind", ["computational", "hadamard"])
def test_grouped_sieve_keeps_bits_on_the_default_grid(kind):
    """The CLI's 36 x 36 grid: 1332 candidates, far fewer distinct statistics."""
    angles = bloch_grid(36, 36)
    candidates = [bloch_state(t, p) for t, p in angles]
    dynamics = _closed_qubit_dynamics(getattr(DephasingChannel, kind)(1, 1.0))
    _assert_matches_both_references(candidates, dynamics, angles=angles)


def test_grouped_sieve_keeps_bits_on_random_states():
    """Random qubits share no statistics: every group holds one candidate."""
    candidates = _random_states(3 * QUBIT_ROWS + 5, 1)
    for kind in KINDS:
        _assert_matches_both_references(candidates, _closed_qubit_dynamics(_channel(kind, 1, 0.8)))


def test_repeated_candidate_forms_one_group_in_position_order():
    candidates = [bloch_state(1.1, 0.4)] * 40
    labels = [f"copy-{i}" for i in range(40)]
    angles = [(1.1, 0.4)] * 40
    dynamics = _closed_qubit_dynamics(DephasingChannel.hadamard(1, 1.3))
    got = _assert_matches_both_references(candidates, dynamics, labels=labels, angles=angles)
    assert [r.label for r in got] == labels
    assert len({(_bits(r.t_p), _bits(r.tprime_p), _bits(r.final_entropy)) for r in got}) == 1


def test_single_candidate_without_labels_or_angles():
    dynamics = _closed_qubit_dynamics(DephasingChannel.computational(1, 0.7), cap=61.0)
    (report,) = _assert_matches_both_references([bloch_state(0.3, 2.0)], dynamics)
    assert (report.label, report.theta, report.phi) == ("candidate-0", None, None)


def _spy_rows(monkeypatch) -> list[int]:
    """The number of rows of every closed-form evaluation that follows."""
    rows = []
    closed_form = sieve._closed_form

    def spy(populations, coherence, decay):
        rows.append(len(populations))
        return closed_form(populations, coherence, decay)

    monkeypatch.setattr(sieve, "_closed_form", spy)
    return rows


@pytest.mark.parametrize("copies", [1, 2, 17, 48, QUBIT_ROWS + 1, 3 * QUBIT_ROWS])
def test_copies_of_one_candidate_evolve_one_row(monkeypatch, copies):
    rows = _spy_rows(monkeypatch)
    dynamics = _closed_qubit_dynamics(DephasingChannel.hadamard(1, 1.0))
    reports = sieve_rank([bloch_state(0.9, 2.5)] * copies + [bloch_state(2.0, 1.0)], dynamics)
    assert rows == [2]
    assert len(reports) == copies + 1


def test_statistics_group_by_their_bytes(monkeypatch):
    """+0.0 and -0.0 compare equal but are two groups; equal bytes are one."""
    rows = _spy_rows(monkeypatch)
    populations = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [1.0, -0.0]])
    monkeypatch.setattr(sieve, "_frame_statistics", lambda frames: (populations, np.zeros(4)))
    dynamics = _closed_qubit_dynamics(DephasingChannel.computational(1, 1.0))
    reports = sieve_rank([bloch_state(0.0, 0.0)] * 4, dynamics)
    assert rows == [2]
    assert [r.label for r in reports] == [f"candidate-{i}" for i in range(4)]


@pytest.mark.parametrize("distinct", [1, QUBIT_ROWS - 1, QUBIT_ROWS, QUBIT_ROWS + 1, 2 * QUBIT_ROWS + 1])
@pytest.mark.parametrize("kind", KINDS)
def test_blocks_of_distinct_rows_keep_bits(monkeypatch, kind, distinct):
    """Distinct closed-form rows fill blocks of 32 at 501 samples; the last one may be short."""
    rows = _spy_rows(monkeypatch)
    states = _random_states(distinct, 1)
    # Every state twice, the copies in reverse order: as many groups as states.
    candidates = states + states[::-1]
    labels = [f"c{i}" for i in range(len(candidates))]
    dynamics = _closed_qubit_dynamics(_channel(kind, 1, 0.9))
    sieve_rank(candidates, dynamics, labels=labels)
    full, short = divmod(distinct, QUBIT_ROWS)
    assert rows == [QUBIT_ROWS] * full + ([short] if short else [])
    monkeypatch.undo()
    _assert_matches_both_references(candidates, dynamics, labels=labels)


@pytest.mark.parametrize("kind", KINDS)
def test_split_step_blocks_keep_bits(kind):
    """40 qubits with a self-Hamiltonian at 501 samples: a block of 32 and one of 8."""
    channel = _channel(kind, 1, 1.1)
    dynamics = DynamicsSpec(channel, uniform_grid(50.0, 500), 50.0, self_hamiltonian=_random_hermitian(2))
    assert _block_rows(dynamics) == QUBIT_ROWS
    _assert_matches_both_references(_random_states(40, 1), dynamics)


@pytest.mark.parametrize("split", [False, True], ids=["closed", "split"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_qubits", [2, 3])
def test_larger_register_blocks_keep_bits(num_qubits, kind, split):
    """d = 4 and 8 at 201 samples: blocks of 20 and 5 rows, the last one short."""
    dynamics = _dynamics(kind, num_qubits, split, 10.0)
    d = 2**num_qubits
    pointers = [PureState(dynamics.channel.basis[:, k], num_qubits) for k in range(d)]
    candidates = pointers + _random_states(23 - d, num_qubits)
    assert _block_rows(dynamics) == {2: 20, 3: 5}[num_qubits]
    assert len(candidates) % _block_rows(dynamics)
    _assert_matches_both_references(candidates, dynamics)


def _long_grid(kind: str):
    """A 4 x 4 Bloch grid (20 candidates) at 100001 samples: one qubit row per block."""
    angles = bloch_grid(4, 4)
    candidates = [bloch_state(t, p) for t, p in angles]
    dynamics = DynamicsSpec(_channel(kind, 1, 1.0), uniform_grid(50.0, 100_000), 50.0)
    assert _block_rows(dynamics) == 1
    return candidates, angles, dynamics


@pytest.mark.parametrize("kind", KINDS)
def test_long_grid_blocks_of_one_row_keep_bits(monkeypatch, kind):
    rows = _spy_rows(monkeypatch)
    candidates, angles, dynamics = _long_grid(kind)
    sieve_rank(candidates, dynamics, angles=angles)
    assert rows and set(rows) == {1}
    monkeypatch.undo()
    _assert_matches_both_references(candidates, dynamics, angles=angles)


def test_one_statistics_call_per_request(monkeypatch):
    """The CLI's 36 x 36 grid reads every candidate's statistics in one call."""
    calls = []
    frame_statistics = sieve._frame_statistics

    def spy(frames):
        calls.append(len(frames))
        return frame_statistics(frames)

    monkeypatch.setattr(sieve, "_frame_statistics", spy)
    candidates = [bloch_state(t, p) for t, p in bloch_grid(36, 36)]
    sieve_rank(candidates, _closed_qubit_dynamics(DephasingChannel.hadamard(1, 1.0)))
    assert calls == [len(candidates)]


@pytest.mark.parametrize("kind", KINDS)
def test_one_statistics_call_keeps_the_bits_of_16_candidate_blocks(kind):
    """1332 candidates in one call, as 16-candidate slices did: the Walsh-Hadamard rows too."""
    candidates = [bloch_state(t, p) for t, p in bloch_grid(36, 36)]
    channel = _channel(kind, 1, 1.0)
    populations, coherence = sieve._frame_statistics(sieve._pointer_frames(candidates, channel))
    blocks = [
        sieve._frame_statistics(sieve._pointer_frames(candidates[start : start + 16], channel))
        for start in range(0, len(candidates), 16)
    ]
    assert populations.tobytes() == np.concatenate([b[0] for b in blocks]).tobytes()
    assert coherence.tobytes() == np.concatenate([b[1] for b in blocks]).tobytes()


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("split", [False, True], ids=["closed", "split"])
@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_trajectories_and_horizons_keep_block_bits(kind, num_qubits, split, grid):
    dynamics = _dynamics(kind, num_qubits, split, GRIDS[grid])
    candidates, _ = _candidates(num_qubits, dynamics.channel)
    rho = DensityMatrix(
        0.6 * candidates[-1].to_density_matrix().elements
        + 0.4 * candidates[-2].to_density_matrix().elements,
        num_qubits,
    )
    for state in candidates[:4] + candidates[-3:] + [rho]:
        got = evolve_entropy(state, dynamics)
        _assert_same_trajectory(got, sieve_oracle.block_evolve_entropy(state, dynamics))
        _assert_same_horizons(got)
    if grid == "cap past grid":
        steps = np.diff(got.times)
        assert steps[-1] < steps[-2] - 1e-9


def test_signed_zeros_reach_the_horizons():
    """A pole's entropies are all exactly 0; hand-made records carry -0.0 and a degenerate gap."""
    dynamics = DynamicsSpec(DephasingChannel.computational(1, 1.0), uniform_grid(10.0, 200), 12.03)
    pole = evolve_entropy(bloch_state(0.0, 0.0), dynamics)
    assert not np.any(pole.entropies)
    _assert_same_horizons(pole)
    times = np.linspace(0.0, 1.0, 11)
    for entropies, equilibrium in (
        (np.where(times > 0, 1.0, -0.0), 1.0),
        (np.zeros_like(times), 0.0),
        (np.full_like(times, -0.0), 1.0),
    ):
        purities = np.where(times > 0, 0.5, 1.0)
        for pur in (purities, np.full_like(times, 0.5)):
            _assert_same_horizons(EntropyTrajectory(times, entropies, pur, equilibrium, 1))


@pytest.mark.parametrize(
    "purities",
    [[1.0 + 1e-7], [0.75, 1.0 + 1e-7], [math.nan], [0.75, math.nan]],
    ids=["negative", "negative-among", "nan", "nan-among"],
)
def test_qubit_entropies_refuse_what_the_spectrum_path_refused(purities):
    purities = np.array([purities, purities])
    with pytest.raises(ValueError, match="lost positivity") as new:
        sieve._qubit_entropies(purities)
    with pytest.raises(ValueError, match="lost positivity") as old:
        sieve._entropies_from_spectra(sieve_oracle.block_qubit_spectra(purities))
    assert str(new.value) == str(old.value)


def test_qubit_entropies_keep_the_edges():
    """Purities 1/2 and 1 and near them: lambda- is 0, tiny, cut or a rounding negative."""
    edges = np.array(
        [0.5, 0.5 + 1e-17, 1.0 - 1e-15, 1.0 - 1e-12, 1.0 - 2e-12, 1.0, 1.0 + 1e-16, 1.0 + 1e-9]
    )
    purities = np.stack([edges, edges[::-1]])
    want = sieve._entropies_from_spectra(sieve_oracle.block_qubit_spectra(purities))
    assert sieve._qubit_entropies(purities).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "entropies",
    [[0.0, 1.0], [-0.0], [-1e-9], [-2e-9], [1.0 + 1e-9], [1.0 + 2e-9], [math.nan], [0.5, math.inf], []],
)
def test_entropy_range_check_accepts_what_it_accepted(entropies):
    entropies = np.array(entropies, dtype=float)
    try:
        sieve_oracle._check_entropy_range(entropies, 1)
    except ValueError:
        with pytest.raises(ValueError, match="entropy values outside"):
            sieve._check_entropy_range(entropies, 1)
    else:
        sieve._check_entropy_range(entropies, 1)


def _peak_above_result(fn):
    """Peak traced allocation above what ``fn``'s result keeps, and the result's own bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept, kept - base


@pytest.mark.parametrize("kind", ["computational", "hadamard"])
def test_closed_form_grid_peak(kind):
    """36 x 36 closed form, 501 samples: the reports plus at most seven (32, T) arrays."""
    angles = bloch_grid(36, 36)
    candidates = [bloch_state(t, p) for t, p in angles]
    dynamics = DynamicsSpec(getattr(DephasingChannel, kind)(1, 1.0), uniform_grid(50.0, 500), 50.0)
    assert _block_rows(dynamics) == QUBIT_ROWS
    block_bytes = QUBIT_ROWS * dynamics.recorded_times().size * 8
    reports, transient, kept = _peak_above_result(lambda: sieve_rank(candidates, dynamics, angles=angles))
    assert len(reports) == len(candidates)
    assert transient <= 7 * block_bytes
    assert kept < 1_000_000


@pytest.mark.parametrize("kind", ["computational", "hadamard"])
def test_long_grid_peak(kind):
    """20 candidates at 100001 samples: at most seven (1, T) float arrays and the cut mask.

    Blocks of one row keep the peak independent of the grid's length.  The
    (1, T) arrays are the request's times, halved intervals and decay, and
    the block's purities and three entropy buffers; the qubit entropies also
    hold one (1, T) bool mask of the eigenvalues above the cutoff.  The
    statistics and per-candidate columns are a few bytes per candidate,
    allowed for as 16 KB.
    """
    candidates, angles, dynamics = _long_grid(kind)
    samples = dynamics.recorded_times().size
    reports, transient, _ = _peak_above_result(lambda: sieve_rank(candidates, dynamics, angles=angles))
    assert len(reports) == len(candidates)
    assert transient <= 7 * samples * 8 + samples + 16 * 1024
