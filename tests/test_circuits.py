import numpy as np
import pytest

from decohere.circuits import (
    Circuit,
    Gate,
    GateKind,
    apply,
    cnot,
    decoherence_chain,
    h,
    noise_chain,
    premeasurement,
    x,
)
from decohere.states import PureState, partial_trace

RNG = np.random.default_rng(404)

SQ2 = 1.0 / np.sqrt(2.0)


def test_cnot_truth_table():
    flipped = apply(PureState.basis(2, 2), cnot(0, 1))  # |10> -> |11>
    assert np.allclose(flipped.amplitudes, [0, 0, 0, 1])
    untouched = apply(PureState.basis(2, 0), cnot(0, 1))  # |00> stays
    assert np.allclose(untouched.amplitudes, [1, 0, 0, 0])


def test_hadamard_on_zero():
    out = apply(PureState.basis(1, 0), h(0))
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_gate_validation():
    with pytest.raises(ValueError, match="differ"):
        cnot(1, 1)
    with pytest.raises(ValueError, match="control"):
        Gate(GateKind.PAULI_X, 0, control=1)
    with pytest.raises(ValueError, match="outside register"):
        apply(PureState.basis(1, 0), x(3))


def test_premeasurement_identity_branch():
    circ = premeasurement(0, 1)
    out = apply(PureState.basis(2, 0), circ)
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_premeasurement_bell_state():
    circ = premeasurement(0, 1)
    start = PureState.from_amplitudes([SQ2, 0, SQ2, 0])
    out = apply(start, circ)
    assert np.allclose(out.amplitudes, [SQ2, 0, 0, SQ2])


def test_premeasurement_generic_amplitudes():
    circ = premeasurement(0, 1)
    out = apply(PureState.from_amplitudes([0.6, 0, 0.8, 0]), circ)
    assert np.allclose(out.amplitudes, [0.6, 0, 0, 0.8], atol=1e-15)


def test_premeasurement_rejects_same_qubit():
    with pytest.raises(ValueError, match="distinct"):
        premeasurement(2, 2)


def test_decoherence_chain_single_qubit():
    # (a|00> + b|11>) (x) |0>  ->  a|000> + b|111>
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[6] = 0.6, 0.8  # |110> = index 6: system=1, apparatus=1, env=0
    out = apply(PureState(amps, 3), decoherence_chain(1, (2,), width=3))
    expected = np.zeros(8)
    expected[0], expected[7] = 0.6, 0.8
    assert np.allclose(out.amplitudes, expected)


def test_decoherence_chain_three_qubits_builds_branch_state():
    # Monitored qubit in (|0>+|1>)/sqrt(2), three environment qubits.
    amps = np.zeros(16, dtype=complex)
    amps[0], amps[8] = SQ2, SQ2
    out = apply(PureState(amps, 4), decoherence_chain(0, (1, 2, 3), width=4))
    expected = np.zeros(16)
    expected[0], expected[15] = SQ2, SQ2
    assert np.allclose(out.amplitudes, expected)


def test_decoherence_chain_trivial_branch():
    out = apply(PureState.basis(3, 0), decoherence_chain(0, (1, 2), width=3))
    assert np.allclose(out.amplitudes, PureState.basis(3, 0).amplitudes)


def test_chain_rejects_overlap():
    with pytest.raises(ValueError):
        decoherence_chain(1, (1, 2))
    with pytest.raises(ValueError):
        noise_chain((0, 1), 1)


@pytest.mark.parametrize("chain", ["decoherence", "noise"])
def test_chains_share_validation(chain):
    build = decoherence_chain if chain == "decoherence" else (lambda a, env, width=None: noise_chain(env, a, width))
    with pytest.raises(ValueError, match="apparatus qubit cannot be part of the environment"):
        build(1, (2, 1))
    with pytest.raises(ValueError, match="environment qubits must be distinct"):
        build(0, (1, 2, 1))
    with pytest.raises(ValueError, match="outside register of width 3"):
        build(0, (1, 3), width=3)
    assert build(0, (2, 1)).width == 3


def test_noise_chain_flips_apparatus():
    # environment |1>, apparatus |0>: apparatus gets flipped
    out = apply(PureState.from_bits([1, 0]), noise_chain((0,), 1, width=2))
    assert np.allclose(out.amplitudes, PureState.from_bits([1, 1]).amplitudes)
    # environment |0>: untouched
    quiet = apply(PureState.from_bits([0, 0]), noise_chain((0,), 1, width=2))
    assert np.allclose(quiet.amplitudes, PureState.from_bits([0, 0]).amplitudes)


def test_noise_chain_superposed_environment_mixes_apparatus():
    start = PureState.from_amplitudes([SQ2, 0, SQ2, 0])  # (|0>+|1>)/sqrt2 (x) |0>
    out = apply(start, noise_chain((0,), 1, width=2))
    assert np.allclose(out.amplitudes, [SQ2, 0, 0, SQ2])
    reduced = partial_trace(out.to_density_matrix(), (1,))
    assert np.allclose(reduced.elements, np.eye(2) / 2, atol=1e-12)


def test_norm_preserved_by_random_circuits():
    for _ in range(10):
        amps = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        state = PureState.from_amplitudes(amps / np.linalg.norm(amps))
        gates = []
        for _ in range(12):
            kind = RNG.choice(["X", "Y", "Z", "H", "CNOT"])
            if kind == "CNOT":
                c, t = RNG.choice(3, size=2, replace=False)
                gates.append(cnot(int(c), int(t)))
            else:
                gates.append(Gate(GateKind(kind), int(RNG.integers(0, 3))))
        out = apply(state, Circuit(tuple(gates), 3))
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_decoherence_kills_off_diagonals_exactly():
    # Orthogonal environment records wipe the SA coherence on trace-out.
    amps = np.zeros(8, dtype=complex)
    alpha, beta = 0.48 + 0.36j, 0.8
    amps[0], amps[6] = alpha, beta
    out = apply(PureState(amps, 3), decoherence_chain(1, (2,), width=3))
    rho_sa = partial_trace(out.to_density_matrix(), (0, 1))
    off = rho_sa.elements - np.diag(rho_sa.elements.diagonal())
    assert np.max(np.abs(off)) == 0.0
    assert rho_sa.elements[0, 0] == pytest.approx(abs(alpha) ** 2, abs=1e-12)
    assert rho_sa.elements[3, 3] == pytest.approx(abs(beta) ** 2, abs=1e-12)


def test_hadamard_conjugation_swaps_control_and_target():
    sandwich = Circuit((h(0), h(1), cnot(0, 1), h(0), h(1)), 2).as_matrix()
    reversed_cnot = Circuit((cnot(1, 0),), 2).as_matrix()
    assert np.max(np.abs(sandwich - reversed_cnot)) < 1e-12


def test_circuit_text_round_trip():
    circ = Circuit((cnot(0, 1), h(2), x(0)), 3)
    text = circ.to_text()
    assert text == "CNOT 0 1\nH 2\nX 0"
    parsed = Circuit.from_text(text, 3)
    assert parsed == circ


def test_circuit_from_text_rejects_unknown_gate():
    with pytest.raises(ValueError, match="unknown gate"):
        Circuit.from_text("SWAP 0 1", 2)
