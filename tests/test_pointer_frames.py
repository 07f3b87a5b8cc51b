"""Pinching by frame kind, and the code built on it, against the dense reference.

``frame_oracle`` holds the dense-frame code these paths replaced.  Every
float agrees to 1e-12 and the pointer-sector robustness exactly.
"""

import math

import numpy as np
import pytest

import frame_oracle
from decohere import dephasing
from decohere.dephasing import (
    DephasingChannel,
    _hadamard_frame,
    channel_from_spec,
    decohered_limit,
    dephase,
)
from decohere.probability import ProbabilityVector, uniform_outcome_probabilities
from decohere.records import MemoryModel, record_consensus
from decohere.redundancy import JointState, error_robustness
from decohere.states import DensityMatrix, PureState

RNG = np.random.default_rng(2024)
TOL = 1e-12


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix(mat / np.trace(mat), n)


def _channels(n: int) -> list[DephasingChannel]:
    t_d = float(RNG.uniform(0.5, 2.0))
    return [
        DephasingChannel.computational(n, t_d),
        DephasingChannel.hadamard(n, t_d),
        DephasingChannel(_random_unitary(2**n), t_d),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_pinching_and_dephasing_match_dense_frame(n):
    rho = _random_density(n)
    for channel, kind in zip(_channels(n), ("computational", "hadamard", "dense")):
        assert channel._frame == kind
        got = decohered_limit(rho, channel).elements
        want = frame_oracle.decohered_limit(rho, channel).elements
        assert np.max(np.abs(got - want)) <= TOL
        for t in (0.0, 0.3 * channel.t_d, 2.0 * channel.t_d):
            got = dephase(rho, channel, t).elements
            want = frame_oracle.dephase(rho, channel, t).elements
            assert np.max(np.abs(got - want)) <= TOL


def test_named_frames_and_equal_matrices_take_structured_paths():
    for n in (1, 3):
        d = 2**n
        assert DephasingChannel.computational(n, 1.0)._frame == "computational"
        assert channel_from_spec("computational", 1.0, n)._frame == "computational"
        assert DephasingChannel(np.eye(d), 1.0)._frame == "computational"
        assert DephasingChannel.hadamard(n, 1.0)._frame == "hadamard"
        assert channel_from_spec("hadamard", 1.0, n)._frame == "hadamard"
        assert DephasingChannel(_hadamard_frame(n).copy(), 1.0)._frame == "hadamard"
        spec = [[[v.real, v.imag] for v in row] for row in _hadamard_frame(n)]
        assert channel_from_spec(spec, 1.0, n)._frame == "hadamard"


@pytest.mark.parametrize("n", [1, 4, 10])
def test_named_hadamard_channel_builds_its_frame_once(n, monkeypatch):
    calls = []

    def counted(num_qubits):
        calls.append(num_qubits)
        return _hadamard_frame(num_qubits)

    monkeypatch.setattr(dephasing, "_hadamard_frame", counted)
    assert DephasingChannel.hadamard(n, 1.0)._frame == "hadamard"
    assert calls == [n]
    assert channel_from_spec("hadamard", 1.0, n)._frame == "hadamard"
    assert calls == [n, n]


def test_identity_check_accepts_exactly_what_array_equal_accepts():
    eye = np.eye(4, dtype=complex)
    cases = [eye, np.eye(1, dtype=complex), np.zeros((4, 4), dtype=complex)]
    signed = eye.copy()
    signed[0, 1] = complex(-0.0, -0.0)
    signed[2, 3] = complex(0.0, -0.0)
    cases.append(signed)
    for value in (complex(1.0, -0.0), 1 + 1e-300j, np.nextafter(1.0, 2.0), complex(1.0, np.nan), np.nan):
        diag = eye.copy()
        diag[2, 2] = value
        cases.append(diag)
    for value in (-0.0, 1e-300, 1j, np.nan):
        off = eye.copy()
        off[3, 0] = value
        cases.append(off)
    cases += [eye[[1, 0, 3, 2]], eye[::-1], _hadamard_frame(2), _random_unitary(4)]
    # Fortran order and strided views, as a caller may pass them.
    cases += [np.asfortranarray(off), np.asfortranarray(eye), np.eye(8, dtype=complex)[::2, ::2]]
    accepted = 0
    for mat in cases:
        want = np.array_equal(mat, np.eye(mat.shape[0]))
        assert dephasing._is_identity(mat) == want
        accepted += want
    # eye, 1 x 1, the signed zeros, 1 - 0j on the diagonal, -0.0 off it,
    # eye in Fortran order, every other row and column of a larger eye.
    assert accepted == 7


def test_near_miss_frames_take_dense_path_with_gram_check():
    nudged = np.eye(4, dtype=complex)
    nudged[1, 1] += 1e-12
    assert DephasingChannel(nudged, 1.0)._frame == "dense"
    h = _hadamard_frame(2).copy()
    h[0, 0] += 1e-12
    assert DephasingChannel(h, 1.0)._frame == "dense"
    # Frames of the wrong size, or with a Hadamard frame's values but not its
    # exact bits, are checked in full as well.
    assert DephasingChannel(_random_unitary(3), 1.0)._frame == "dense"
    assert DephasingChannel(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)._frame == "dense"
    signs = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert DephasingChannel(np.kron(signs, signs) / 2.0, 1.0)._frame == "dense"
    with pytest.raises(ValueError, match="orthonormal"):
        DephasingChannel(np.eye(4) * (1.0 + 1e-9), 1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        DephasingChannel(_hadamard_frame(2) * 2.0, 1.0)
    # Right magnitudes, one sign wrong in the lower-right quadrant.
    flipped = _hadamard_frame(3).copy()
    flipped[7, 7] *= -1.0
    with pytest.raises(ValueError, match="orthonormal"):
        DephasingChannel(flipped, 1.0)
    with pytest.raises(ValueError, match="square"):
        DephasingChannel(np.zeros((0, 0)), 1.0)


def _two_branch_joint(n_env: int) -> JointState:
    """alpha |0>|0...0> + beta e^{i phi} |1>|1...1>, |alpha| != |beta|, system qubit at random."""
    p = float(RNG.uniform(0.1, 0.9))
    phases = np.exp(2j * np.pi * RNG.uniform(size=2))
    n = n_env + 1
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.sqrt(p) * phases[0]
    amps[-1] = math.sqrt(1.0 - p) * phases[1]
    s = int(RNG.integers(n))
    return JointState(PureState(amps, n), (s,), tuple(q for q in range(n) if q != s))


@pytest.mark.parametrize("n_env", range(1, 9))
def test_error_robustness_matches_pattern_enumeration(n_env):
    for _ in range(3):
        joint = _two_branch_joint(n_env)
        for k in range(n_env + 1):
            got = error_robustness(joint, "hadamard", k)
            want = frame_oracle._hadamard_robustness(joint, n_env, k)
            assert abs(got - want) <= TOL
            if n_env % 2:
                want = frame_oracle._pointer_robustness(n_env, k)
                assert error_robustness(joint, "pointer", k) == want


@pytest.mark.parametrize("n_env", range(1, 9))
def test_ghz_robustness_equals_dense_frame_exactly(n_env):
    """Two-term records, as the CLI's GHZ states give, get the dense frame's very bits."""
    amps = np.zeros(2 ** (n_env + 1), dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    joint = JointState(PureState(amps, n_env + 1), (0,), tuple(range(1, n_env + 1)))
    for k in range(n_env + 1):
        want = frame_oracle._hadamard_robustness(joint, n_env, k)
        assert error_robustness(joint, "hadamard", k) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_uniform_outcomes_match_decohered_limit_diagonal(n):
    d = 2**n
    for channel in _channels(n):
        coeffs = np.exp(2j * np.pi * RNG.uniform(size=d)) / math.sqrt(d)
        psi = PureState(channel.basis @ coeffs, n)
        got = uniform_outcome_probabilities(psi, channel).values
        want = frame_oracle.uniform_outcome_probabilities(psi, channel).values
        assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("cells", range(1, 9))
def test_record_consensus_matches_full_conjugation(cells):
    p = float(RNG.uniform(0.05, 0.95))
    system = (PureState.basis(1, 0), PureState.basis(1, 1))
    u = _random_unitary(2)
    models = [
        MemoryModel(
            probabilities=ProbabilityVector([p, 1.0 - p]),
            system_states=system,
            record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
        ),
        # Orthogonal records in a random frame, given as density matrices.
        MemoryModel(
            probabilities=ProbabilityVector([p, 1.0 - p]),
            system_states=system,
            record_states=tuple(
                DensityMatrix(np.outer(u[:, k], u[:, k].conj()), 1) for k in (0, 1)
            ),
        ),
        # A mixed (full-rank) record cell; one outcome, so nothing to be orthogonal to.
        MemoryModel(
            probabilities=ProbabilityVector([1.0]),
            system_states=system[:1],
            record_states=(_random_density(1),),
        ),
    ]
    for model in models:
        for basis in ("pointer", "conjugate"):
            got = record_consensus(model, cells, basis)
            assert abs(got - frame_oracle.record_consensus(model, cells, basis)) <= TOL
