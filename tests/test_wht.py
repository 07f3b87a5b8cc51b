"""Sylvester-factor Walsh-Hadamard transform and its callers against the code they replaced.

``wht_oracle`` holds the butterfly transform and the per-pattern robustness
loop.  The factored transform must agree with the butterfly to
1e-12 x 2^(n/2) (exactly on integer rows) and keep real rows real; the flip
search must transform only the candidate X masks of each popcount layer it
visits, in one call per layer; the robustness from marginal weights must
agree with the loop to 1e-12, and the robustness read off one split of the
joint state must equal, bit for bit, the one read off four conditional
records.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import wht_oracle
from decohere import redundancy
from decohere.dephasing import DephasingChannel, _walsh_hadamard, decohered_limit
from decohere.redundancy import EnvironmentRecord, JointState, error_robustness
from decohere.states import PureState

RNG = np.random.default_rng(12)
ROW_COUNTS = (1, 2, 16, 70)


@pytest.mark.parametrize("n", range(13))
def test_transform_matches_butterfly(n):
    d = 2**n
    for count in ROW_COUNTS:
        real = RNG.normal(size=(count, d))
        for rows in (real, real + 1j * RNG.normal(size=(count, d))):
            kept = rows.copy()
            got = _walsh_hadamard(rows)
            assert np.array_equal(rows, kept)
            want = wht_oracle._walsh_hadamard(rows)
            assert got.dtype == want.dtype == rows.dtype
            assert got.shape == (count, d)
            assert np.max(np.abs(got - want)) <= 1e-12 * 2 ** (n / 2)
        # Sums of small integers are exact in either order.
        ints = RNG.integers(-8, 9, size=(count, d)).astype(float)
        assert np.array_equal(_walsh_hadamard(ints), wht_oracle._walsh_hadamard(ints))


@pytest.mark.parametrize("n", range(1, 11))
def test_hadamard_pinching_of_pure_state_raises_no_warning(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    psi = PureState(amps / np.linalg.norm(amps), n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decohered_limit(psi.to_density_matrix(), DephasingChannel.hadamard(n, 1.0))


def _product_record(vectors) -> EnvironmentRecord:
    vec = np.ones(1, dtype=complex)
    for v in vectors:
        vec = np.kron(vec, v)
    return EnvironmentRecord(vec / np.linalg.norm(vec), 1.0, len(vectors))


@pytest.mark.parametrize("n", range(1, redundancy.MAX_SEARCH_QUBITS + 1))
def test_flip_search_transforms_each_visited_layer_once(n, monkeypatch):
    """Only candidate X masks are transformed, each visited layer in one call.

    Real rows are the magnitude correlation (|a| and |b| in one call, their
    product in another); complex rows are the overlaps of candidate X masks.
    """
    real_rows, complex_rows = [], []

    def counted(rows):
        (complex_rows if np.iscomplexobj(rows) else real_rows).append(rows.shape[0])
        return _walsh_hadamard(rows)

    def search(a, b):
        real_rows.clear()
        complex_rows.clear()
        seq = redundancy.minimal_flip_sequence(a, b)
        assert real_rows == [2, 1]
        return seq

    monkeypatch.setattr(redundancy, "_walsh_hadamard", counted)
    x_flip = np.array([[0, 1], [1, 0]], dtype=complex)
    for weight in range(n + 1):
        qubits = [RNG.normal(size=2) + 1j * RNG.normal(size=2) for _ in range(n)]
        flipped = [x_flip @ v if q < weight else v for q, v in enumerate(qubits)]
        seq = search(_product_record(qubits), _product_record(flipped))
        assert seq.labels == ("X",) * weight + ("I",) * (n - weight)
        # Only the planted X mask reaches a unit magnitude correlation.
        assert complex_rows == [1]
    # A random pair that no flip connects leaves no candidate at all.
    a = EnvironmentRecord(np.eye(2**n, dtype=complex)[0], 1.0, n)
    b_vec = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    b = EnvironmentRecord(b_vec / np.linalg.norm(b_vec), 1.0, n)
    assert search(a, b) is None
    assert complex_rows == []
    # Uniform magnitudes prune nothing: an unconnectable pair transforms every layer in full.
    phases = np.exp(2j * np.pi * RNG.uniform(size=(2, 2**n))) / math.sqrt(2**n)
    a, b = (EnvironmentRecord(p, 1.0, n) for p in phases)
    assert search(a, b) is None
    assert complex_rows == [math.comb(n, layer) for layer in range(n + 1)]


def _two_branch_joint(n_env: int, ghz: bool, leak: float = 0.0, system=None) -> JointState:
    """GHZ or unequal-weight records, plus leakage of total norm ``leak`` onto every amplitude.

    The system is qubit ``system``; by default qubit 0 for GHZ, a random one otherwise.
    """
    n = n_env + 1
    amps = np.zeros(2**n, dtype=complex)
    if ghz:
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    else:
        p = float(RNG.uniform(0.1, 0.9))
        phases = np.exp(2j * np.pi * RNG.uniform(size=2))
        amps[0] = math.sqrt(p) * phases[0]
        amps[-1] = math.sqrt(1.0 - p) * phases[1]
    if leak:
        noise = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
        amps += leak * noise / np.linalg.norm(noise)
        amps /= np.linalg.norm(amps)
    if system is None:
        system = 0 if ghz else int(RNG.integers(n))
    return JointState(PureState(amps, n), (system,), tuple(q for q in range(n) if q != system))


@pytest.mark.parametrize("n_env", range(1, redundancy.MAX_SEARCH_QUBITS + 1))
def test_batched_robustness_has_the_loops_bits(n_env):
    """The marginal-weight identity against the per-pattern gather loop, to 1e-12."""
    for ghz in (True, False, False):
        joint = _two_branch_joint(n_env, ghz)
        for k in range(n_env + 1):
            got = error_robustness(joint, "hadamard", k)
            want = wht_oracle._hadamard_robustness(joint, n_env, k)
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n_env", range(1, redundancy.MAX_SEARCH_QUBITS + 1))
def test_split_robustness_equals_the_records_exactly(n_env):
    """One split of the joint state gives the bits of four conditional records.

    GHZ, unequal-weight and leaky records (leakage of norm 1e-6, which the
    check admits and which leaves D_P nonzero), with the system on every qubit.
    """
    for ghz, leak in ((True, 0.0), (False, 0.0), (True, 1e-6), (False, 1e-6)):
        for system in range(n_env + 1):
            joint = _two_branch_joint(n_env, ghz, leak, system)
            wht_oracle._check_two_branch(joint)
            for k in range(n_env + 1):
                want = wht_oracle._record_robustness(joint, n_env, k)
                assert error_robustness(joint, "hadamard", k) == want


def test_robustness_builds_no_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("error_robustness built a conditional record")

    joint = _two_branch_joint(5, ghz=False, leak=1e-6)
    cases = [(basis, k) for basis in ("pointer", "hadamard") for k in range(6)]
    want = [error_robustness(joint, basis, k) for basis, k in cases]
    for name in ("environment_record", "EnvironmentRecord", "PureState"):
        monkeypatch.setattr(redundancy, name, refuse)
    assert [error_robustness(joint, basis, k) for basis, k in cases] == want


def test_robustness_batches_keep_the_peak_flat():
    """At 8 qubits a gather of every flip held 2^(8 + k) weights per branch; the sums hold 2^8."""
    joint = _two_branch_joint(8, ghz=True)
    for k in (4, 5):
        error_robustness(joint, "hadamard", k)  # warm up imports and caches
        tracemalloc.start()
        try:
            error_robustness(joint, "hadamard", k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, (k, peak)
