"""Named pointer frames stay implicit, against the explicit pinching they replaced.

``pinch_oracle`` holds the pinching as it was: every named channel held its
d x d frame, and dephasing built the input's 4^n ``elements``, a d x d XOR
index table and the whole projection.  The computational frame must give
the very bytes it gave, the Hadamard frame agree to 1e-12.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import pinch_oracle
from decohere.dephasing import (
    DephasingChannel,
    _hadamard_entry,
    _hadamard_frame,
    _pointer_coefficients,
    _walsh_hadamard,
    channel_from_spec,
    decohered_limit,
    dephase,
)
from decohere.probability import uniform_outcome_probabilities
from decohere.states import DensityMatrix, PureState, _trusted

RNG = np.random.default_rng(909)
TOL = 1e-12
NAMED = ("computational", "hadamard")


def _random_amplitudes(n: int, kind: str) -> np.ndarray:
    """Complex, real with mixed signs, or sparse with exact zeros (signed-zero cases)."""
    d = 2**n
    c = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    if kind == "real":
        c = c.real.astype(complex)
    elif kind == "sparse":
        c[RNG.random(d) < 0.6] = 0.0
        c[0] = -1.0
    return c / np.linalg.norm(c)


def _inputs(n: int):
    """(rank-one state, the same state as a full matrix) pairs, unchecked."""
    for kind in ("complex", "real", "sparse"):
        psi = PureState(_random_amplitudes(n, kind), n)
        full = np.outer(psi.amplitudes, psi.amplitudes.conj())
        yield psi, _trusted(DensityMatrix, "elements", full, num_qubits=n)
    # A mixed state: only its full matrix exists.
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    yield None, _trusted(DensityMatrix, "elements", mat / np.trace(mat), num_qubits=n)


def _times(t_d: float) -> list[float]:
    # exp(-1000) is 0.0: the off-diagonals vanish to signed zeros.
    return [0.0, 0.3 * t_d, 2.0 * t_d, 1000.0 * t_d]


def _check(got: DensityMatrix, want: DensityMatrix, frame: str) -> None:
    assert got.elements.dtype == want.elements.dtype
    assert not got.elements.flags.writeable
    if frame == "computational":
        assert got.elements.tobytes() == want.elements.tobytes()
    else:
        assert np.max(np.abs(got.elements - want.elements)) <= TOL


@pytest.mark.parametrize("n", range(1, 11))
def test_named_frames_match_explicit_pinching(n):
    t_d = float(RNG.uniform(0.5, 2.0))
    for frame in NAMED:
        channel = channel_from_spec(frame, t_d, n)
        for psi, full in _inputs(n):
            rank_one = None if psi is None else psi.to_density_matrix()
            for rho in (full,) if psi is None else (rank_one, full):
                want = pinch_oracle.decohered_limit(full, channel)
                _check(decohered_limit(rho, channel), want, frame)
                for t in _times(t_d):
                    _check(dephase(rho, channel, t), pinch_oracle.dephase(full, channel, t), frame)
            assert rank_one is None or "elements" not in vars(rank_one)
        assert "basis" not in vars(channel)


def _digest(mat: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mat)).hexdigest()


@pytest.mark.parametrize("n", range(1, 13))
def test_lazy_basis_is_the_explicit_frame(n):
    """Built on first read, byte-equal to the frame the channel used to hold, read-only."""
    d = 2**n
    references = {
        "computational": lambda: np.eye(d, dtype=complex),
        "hadamard": lambda: _hadamard_frame(n),
    }
    for frame, build in references.items():
        channel = DephasingChannel._named(frame, n, 1.0)
        assert channel.dim == d and "basis" not in vars(channel)
        basis = channel.basis
        assert channel.basis is basis
        assert basis.dtype == complex and basis.shape == (d, d)
        assert not basis.flags.writeable
        with pytest.raises(AttributeError):
            channel.frame_matrix
        got = _digest(basis)
        del basis, channel
        assert got == _digest(build())


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("frame", NAMED)
def test_named_channel_allocates_no_frame(frame):
    channel, peak = _traced_peak(lambda: channel_from_spec(frame, 1.0, 12))
    assert peak < 1 << 20
    assert channel.dim == 4096 and "basis" not in vars(channel)


@pytest.mark.parametrize("frame", NAMED)
def test_rank_one_dephase_stays_small(frame):
    """Output (16 MB) plus at most one real 8 MB table; the input's elements never built."""
    psi = PureState(_random_amplitudes(10, "complex"), 10)
    rho = psi.to_density_matrix()
    channel = channel_from_spec(frame, 1.0, 10)
    for fn in (lambda: dephase(rho, channel, 0.7), lambda: decohered_limit(rho, channel)):
        out, peak = _traced_peak(fn)
        assert peak < 32 << 20
        del out
    assert "elements" not in vars(rho)
    assert "basis" not in vars(channel)


@pytest.mark.parametrize("frame", NAMED)
def test_named_channel_beyond_dense_cap_raises(frame):
    def build():
        with pytest.raises(ValueError, match="1..12"):
            channel_from_spec(frame, 1.0, 13)
        with pytest.raises(ValueError, match="1..12"):
            getattr(DephasingChannel, frame)(13, 1.0)
        with pytest.raises(ValueError, match="t_d"):
            getattr(DephasingChannel, frame)(2, math.nan)

    _, peak = _traced_peak(build)
    assert peak < 1 << 20


@pytest.mark.parametrize("n", range(1, 11))
def test_pointer_coefficients_match_dense_product(n):
    """One state or a block of rows, in either named frame or a dense one."""
    d = 2**n
    for frame in NAMED + ("dense",):
        if frame == "dense":
            q, _ = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
            channel = DephasingChannel(q, 1.0)
        else:
            channel = DephasingChannel._named(frame, n, 1.0)
        psi = _random_amplitudes(n, "complex")
        got = _pointer_coefficients(channel._frame_key, psi)
        rows = np.array([_random_amplitudes(n, "complex") for _ in range(5)])
        block = _pointer_coefficients(channel._frame_key, rows)
        # Flat pointer-frame magnitudes, random phases.
        coeffs = np.exp(2j * np.pi * RNG.uniform(size=d)) / math.sqrt(d)
        if frame == "hadamard":
            coeffs = _hadamard_entry(n) * _walsh_hadamard(coeffs[None])[0]
        elif frame == "dense":
            coeffs = q @ coeffs
        flat = PureState(coeffs, n)
        probs = uniform_outcome_probabilities(flat, channel).values
        assert frame == "dense" or "basis" not in vars(channel)
        w = channel.basis
        assert np.max(np.abs(got - w.conj().T @ psi)) <= TOL
        assert block.shape == rows.shape
        assert np.max(np.abs(block - rows @ w.conj())) <= TOL
        assert np.max(np.abs(probs - np.abs(w.conj().T @ flat.amplitudes) ** 2)) <= TOL
