"""Chunked split step against the step-by-step loop it replaced.

``sieve_oracle.split_step`` advances the block by one (B, d^2) x (d^2, d^2)
product per recorded interval.  ``sieve._split_step`` does so too for d > 2,
writing into the state record; for a qubit it advances one chunk of about
sqrt(n) intervals per product, from prefix products of the step maps.  Both
must give the same purities and states to 1e-12, for square and non-square
interval counts and for recordings that end on a shorter step.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sieve_oracle
from decohere import sieve
from decohere.dephasing import DephasingChannel
from decohere.sieve import DynamicsSpec, bloch_grid, bloch_state, sieve_rank, uniform_grid

TOL = 1e-12
TIE_TOL = 1e-9


def _random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _random_frames(rng, b: int, d: int) -> np.ndarray:
    """Pointer-frame states of B random pure states, (B, d, d)."""
    amps = rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps[:, :, None] * amps[:, None, :].conj()


@pytest.mark.parametrize("intervals", [1, 2, 3, 4, 15, 16, 17, 500, 1000])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_chunked_split_step_matches_step_by_step(d, intervals):
    rng = np.random.default_rng(1000 * d + intervals)
    channel = DephasingChannel(_random_unitary(rng, d), float(rng.uniform(0.5, 2.0)))
    ham = _random_hermitian(rng, d)
    t_end = float(rng.uniform(1.0, 30.0))
    # A cap 2.4 intervals past the grid adds two steps and a shorter last one.
    for cap in (t_end, t_end + 2.4 * t_end / intervals):
        dynamics = DynamicsSpec(channel, uniform_grid(t_end, intervals), cap, self_hamiltonian=ham)
        times = dynamics.recorded_times()
        assert times.size == intervals + (1 if cap == t_end else 4)
        for b in (1, 16):
            frames = _random_frames(rng, b, d)
            purities, states = sieve._split_step(frames, dynamics, times)
            want_purities, want_states = sieve_oracle.split_step(frames, dynamics, times)
            assert purities.shape == (b, times.size)
            assert np.max(np.abs(purities - want_purities)) <= TOL
            if d == 2:
                assert states is None and want_states is None
            else:
                assert states.shape == (b, times.size, d, d)
                assert np.max(np.abs(states - want_states)) <= TOL


@pytest.mark.parametrize("intervals", [17, 500, 1000])
def test_prefix_groups_match_step_by_step(monkeypatch, intervals):
    """Prefix products formed a few chunks at a time give the same states."""
    rng = np.random.default_rng(intervals)
    channel = DephasingChannel(_random_unitary(rng, 2), 1.3)
    dynamics = DynamicsSpec(
        channel, uniform_grid(20.0, intervals), 21.0, self_hamiltonian=_random_hermitian(rng, 2)
    )
    times = dynamics.recorded_times()
    frames = _random_frames(rng, 16, 2)
    want, _ = sieve_oracle.split_step(frames, dynamics, times)
    k = math.isqrt(times.size - 1)
    # One chunk per group, then three: the last group is short.
    for entries in (1, 3 * k * 16):
        monkeypatch.setattr(sieve, "_PREFIX_ENTRIES", entries)
        purities, _ = sieve._split_step(frames, dynamics, times)
        assert np.max(np.abs(purities - want)) <= TOL


def _qubit_grid_dynamics(rng, frame: str, pointer_diagonal: bool) -> DynamicsSpec:
    """A sieve-grid request: 501 samples over 50 t_d, H diagonal in the pointer frame or not."""
    if frame == "computational":
        w = np.eye(2, dtype=complex)
    elif frame == "hadamard":
        w = DephasingChannel.hadamard(1, 1.0).basis
    else:
        w = _random_unitary(rng, 2)
    t_d = float(rng.uniform(0.5, 2.0))
    omega = float(rng.uniform(0.5, 3.0))
    if pointer_diagonal:
        ham = w @ np.diag([omega / 2, -omega / 2]) @ w.conj().T
    else:
        ham = omega * _random_hermitian(rng, 2)
    return DynamicsSpec(
        DephasingChannel(w, t_d), uniform_grid(50.0 * t_d, 500), 50.0 * t_d, self_hamiltonian=ham
    )


@pytest.mark.parametrize("pointer_diagonal", [True, False])
@pytest.mark.parametrize("frame", ["computational", "hadamard", "random"])
def test_ranking_keeps_every_order_decided_beyond_ties(monkeypatch, frame, pointer_diagonal):
    """Pairs whose purity horizons differ by more than 1e-9 keep their order.

    Under a pointer-diagonal H the candidates of one theta row are tied
    exactly in exact arithmetic; rounding already decides their order in the
    step-by-step loop, and the chunked propagation may decide it otherwise.
    """
    rng = np.random.default_rng(sum(map(ord, frame)) + pointer_diagonal)
    dynamics = _qubit_grid_dynamics(rng, frame, pointer_diagonal)
    angles = bloch_grid(2, 5)
    candidates = [bloch_state(theta, phi) for theta, phi in angles]
    labels = [f"c{i}" for i in range(len(candidates))]
    new = sieve_rank(candidates, dynamics, labels=labels)
    with monkeypatch.context() as patch:
        patch.setattr(sieve, "_split_step", sieve_oracle.split_step)
        old = sieve_rank(candidates, dynamics, labels=labels)

    assert sorted(r.label for r in new) == sorted(labels)
    old_tprime = {r.label: r.tprime_p for r in old}
    for r in new:
        assert abs(r.tprime_p - old_tprime[r.label]) <= TOL
    new_slot = {r.label: i for i, r in enumerate(new)}
    for i, first in enumerate(old):
        for second in old[i + 1 :]:
            if abs(first.tprime_p - second.tprime_p) > TIE_TOL:
                assert new_slot[first.label] < new_slot[second.label]


def test_qubit_split_step_keeps_no_state_record():
    # The (B, T, d^2) record of 16 qubits over 501 samples would be 513 KB.
    # What remains: the prefix products (128 KB), the purities (64 KB) and
    # one chunk of states (23 KB).
    angles = bloch_grid(3, 4)[:16]
    candidates = [bloch_state(theta, phi) for theta, phi in angles]
    channel = DephasingChannel.hadamard(1, 1.0)
    ham = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    dynamics = DynamicsSpec(channel, uniform_grid(50.0, 500), 50.0, self_hamiltonian=ham)
    times = dynamics.recorded_times()
    frames = sieve._pointer_frames(candidates, channel)
    assert frames.shape[0] == 16 and times.size == 501
    purities, states = sieve._split_step(frames, dynamics, times)
    assert states is None and purities.shape == (16, 501)
    assert _traced_peak(lambda: sieve._split_step(frames, dynamics, times)) < 256 * 1024


def _traced_peak(fn) -> int:
    fn()  # warm up numpy's caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_wide_split_step_holds_no_map_per_interval():
    # 16 three-qubit candidates over 501 samples: the state record the
    # entropies need is 8.2 MB; prefix products, at one 64 x 64 map per
    # interval, would add 33 MB.  The distinct step maps are 10 x 64 KB.
    rng = np.random.default_rng(8)
    channel = DephasingChannel(_random_unitary(rng, 8), 1.0)
    dynamics = DynamicsSpec(
        channel, uniform_grid(50.0, 500), 50.0, self_hamiltonian=_random_hermitian(rng, 8)
    )
    times = dynamics.recorded_times()
    frames = _random_frames(rng, 16, 8)
    record = 16 * times.size * 64 * 16
    peak = _traced_peak(lambda: sieve._split_step(frames, dynamics, times))
    assert peak < record + 1024 * 1024


def _product_shapes(monkeypatch, d: int, intervals: int) -> list[tuple[int, ...]]:
    """Shapes of the right operands of every np.matmul in one split step."""
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return matmul(*args, **kwargs)

    rng = np.random.default_rng(3)
    channel = DephasingChannel(_random_unitary(rng, d), 1.0)
    ham = _random_hermitian(rng, d)
    dynamics = DynamicsSpec(channel, uniform_grid(50.0, intervals), 50.0, self_hamiltonian=ham)
    frames = _random_frames(rng, 4, d)
    monkeypatch.setattr(sieve.np, "matmul", counting)
    sieve._split_step(frames, dynamics, dynamics.recorded_times())
    monkeypatch.undo()
    return calls


def test_chunks_are_about_sqrt_n_steps(monkeypatch):
    """k - 1 batched prefix products plus c chunk products, k = isqrt(n)."""
    calls = _product_shapes(monkeypatch, 2, 500)
    k, c = math.isqrt(500), -(-500 // math.isqrt(500))
    assert (k, c) == (22, 23)
    assert calls.count((c, 4, 4)) == k - 1
    assert calls.count((4, k * 4)) == c
    assert len(calls) == k - 1 + c


@pytest.mark.parametrize("d", [4, 8])
def test_wide_blocks_take_one_product_per_interval(monkeypatch, d):
    """For d > 2 no prefix product is formed: one (d^2, d^2) map per interval."""
    assert _product_shapes(monkeypatch, d, 500) == [(d * d, d * d)] * 500
