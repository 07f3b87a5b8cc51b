"""Compiled circuits and trusted pure states against the code they replace.

``circuit_oracle`` applies gates one at a time, as ``apply`` did before runs
of X, Y, Z and CNOT were compiled into one signed permutation.  Phases are
exact multiples of +-1 and +-i, so the compiled result must equal the loop's
with ``==``: only the sign of a zero may differ, which ``==`` ignores.
``circuit_oracle.full_table_run`` applies a compiled run through the whole
2^n index and sign mask, as ``apply`` did before it gathered a row of at
most ``_GATHER_ENTRIES`` amplitudes at a time; the row-by-row run must
carry its bytes, signed zeros included, and its peak is its output plus
one row's buffers.  An H is applied in place and must carry the bytes of
(lo + hi) / sqrt 2 and (lo - hi) / sqrt 2, as the loop forms them.
``trusted_oracle`` builds records and Bloch states through the public,
checked constructors.  Trusted results must pass those constructors' checks
(their invariants hold by construction), be read-only and alias nothing.
"""

import math
import tracemalloc
from itertools import groupby

import numpy as np
import pytest

import circuit_oracle
import trusted_oracle
from decohere import circuits, cli, redundancy
from decohere.circuits import (
    Circuit,
    Gate,
    GateKind,
    _compile_run,
    apply,
    cnot,
    decoherence_chain,
    h,
    noise_chain,
    premeasurement,
    z,
)
from decohere.cli import ExperimentConfig, run
from decohere.redundancy import EnvironmentRecord, JointState, environment_record
from decohere.sieve import bloch_grid, bloch_state
from decohere.states import PureState

RNG = np.random.default_rng(7070)
KINDS = tuple(GateKind)


def _random_pure(n: int) -> PureState:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), n)


def _random_gate(n: int, kinds=KINDS) -> Gate:
    kind = kinds[RNG.integers(len(kinds))]
    if kind is GateKind.CNOT:
        control, target = (int(q) for q in RNG.choice(n, size=2, replace=False))
        return Gate(kind, target, control)
    return Gate(kind, int(RNG.integers(n)))


def _random_circuit(n: int, count: int, kinds=KINDS) -> Circuit:
    if n == 1:
        kinds = tuple(k for k in kinds if k is not GateKind.CNOT) or (GateKind.PAULI_X,)
    return Circuit(tuple(_random_gate(n, kinds) for _ in range(count)), n)


def _assert_same(state: PureState, op) -> PureState:
    got = apply(state, op)
    want = circuit_oracle.apply(state, op)
    assert got.num_qubits == want.num_qubits
    assert got.amplitudes.dtype == want.amplitudes.dtype
    assert np.array_equal(got.amplitudes, want.amplitudes)
    _assert_trusted_state(got, state.amplitudes)
    return got


def _assert_trusted_state(got: PureState, *inputs: np.ndarray) -> None:
    """A valid state by the public check, read-only and aliasing no input."""
    PureState(got.amplitudes, got.num_qubits)
    assert not got.amplitudes.flags.writeable
    for arr in inputs:
        assert not np.shares_memory(got.amplitudes, arr)


# --- compiled runs against the gate loop ------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_random_circuits_match_gate_loop(n):
    """All five gate kinds; H is drawn often enough to split circuits into several runs."""
    state = _random_pure(n)
    for count in (0, 1, 2, 5, 12, 40):
        _assert_same(state, _random_circuit(n, count))


@pytest.mark.parametrize("n", range(1, 13))
def test_pauli_cnot_runs_match_gate_loop(n):
    """One long run without H, so signs and phases accumulate in one compiled map."""
    kinds = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z, GateKind.CNOT)
    state = _random_pure(n)
    for count in (3, 30, 200):
        _assert_same(state, _random_circuit(n, count, kinds))


@pytest.mark.parametrize("n", range(1, 7))
def test_single_gates_match_gate_loop(n):
    state = _random_pure(n)
    for kind in KINDS:
        for target in range(n):
            if kind is not GateKind.CNOT:
                _assert_same(state, Gate(kind, target))
                continue
            for control in range(n):
                if control != target:
                    _assert_same(state, Gate(kind, target, control))


@pytest.mark.parametrize("kinds", ["XX", "ZZ", "YY", "XZXZ", "HH", "ZHZH"])
def test_runs_that_cancel_match_gate_loop(kinds):
    """Identity maps, pure signs and pure phases take the skipping branches."""
    state = _random_pure(3)
    gates = tuple(Gate(GateKind(k), 1) for k in kinds)
    _assert_same(state, Circuit(gates, 3))


def test_compiled_map_reads_the_matrix():
    """Output k reads input A k ^ b with phase i^c (-1)^popcount(s & k), as the unitary says."""
    kinds = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z, GateKind.CNOT)
    for n in range(1, 6):
        for _ in range(5):
            circ = _random_circuit(n, 25, kinds)
            cols, b, s, c = _compile_run(circ.gates, n)
            want = np.zeros((2**n, 2**n), dtype=complex)
            for k in range(2**n):
                source = b
                for q in range(n):
                    if k >> (n - 1 - q) & 1:
                        source ^= cols[q]
                want[k, source] = 1j**c * (-1) ** bin(s & k).count("1")
            assert np.array_equal(circ.as_matrix(), want)


def _bench_request(n: int):
    """A wide-register ``apply`` request: premeasurement, then a monitoring chain."""
    p = RNG.uniform(0.1, 0.9)
    phases = np.exp(2j * np.pi * RNG.uniform(size=2))
    order = [int(q) for q in RNG.permutation(n)]
    system, apparatus, env = order[0], order[1], tuple(order[2:])
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.sqrt(p) * phases[0]
    amps[1 << (n - 1 - system)] = math.sqrt(1 - p) * phases[1]
    return PureState(amps, n), system, apparatus, env


@pytest.mark.parametrize("n", range(14, 21))
def test_benchmark_chains_match_gate_loop(n):
    state, system, apparatus, env = _bench_request(n)
    state = _assert_same(state, premeasurement(system, apparatus, width=n))
    _assert_same(state, decoherence_chain(apparatus, env, width=n))


@pytest.mark.parametrize("n", (14, 16))
def test_dense_states_match_gate_loop_at_width(n):
    state = _random_pure(n)
    _assert_same(state, _random_circuit(n, 30))
    _assert_same(state, noise_chain(range(1, n), 0, width=n))


def test_empty_circuit_copies():
    state = _random_pure(4)
    got = _assert_same(state, Circuit((), 4))
    assert got.amplitudes.tobytes() == state.amplitudes.tobytes()


# --- environment records -----------------------------------------------------------


def _assert_record_close(joint: JointState, phi: PureState) -> None:
    got = environment_record(joint, phi)
    want = trusted_oracle.environment_record(joint, phi)
    assert got.num_qubits == want.num_qubits
    assert abs(got.weight - want.weight) <= 1e-12
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12
    EnvironmentRecord(got.amplitudes, got.weight, got.num_qubits)
    assert not got.amplitudes.flags.writeable
    assert not np.shares_memory(got.amplitudes, joint.state.amplitudes)


@pytest.mark.parametrize("n", range(2, 13))
def test_environment_record_matches_einsum_path(n):
    state = _random_pure(n)
    phis = [PureState.basis(1, 0), PureState.basis(1, 1), _random_pure(1)]
    for system in sorted({0, n // 2, n - 1}):
        rest = tuple(q for q in range(n) if q != system)
        for env in (rest, rest[::-1]):
            joint = JointState(state, (system,), env)
            for phi in phis:
                _assert_record_close(joint, phi)


@pytest.mark.parametrize("n", (14, 17, 20))
def test_environment_record_matches_on_benchmark_states(n):
    state, system, apparatus, env = _bench_request(n)
    state = apply(apply(state, premeasurement(system, apparatus, width=n)),
                  decoherence_chain(apparatus, env, width=n))
    for sys_q in sorted({0, n // 2, n - 1}):
        joint = JointState(state, (sys_q,), tuple(q for q in range(n) if q != sys_q))
        for phi in (PureState.basis(1, 0), PureState.basis(1, 1)):
            _assert_record_close(joint, phi)


def test_environment_record_multi_qubit_system_and_null_records():
    state = _random_pure(6)
    joint = JointState(state, (4, 1), (0, 5, 2, 3))
    _assert_record_close(joint, _random_pure(2))
    product = PureState.basis(3, 0b010)
    joint = JointState(product, (1,), (0, 2))
    null = environment_record(joint, PureState.basis(1, 0))
    assert null.is_null and null.weight == 0.0
    assert not null.amplitudes.flags.writeable
    _assert_record_close(joint, PureState.basis(1, 0))
    _assert_record_close(joint, PureState.basis(1, 1))


# --- Bloch states ------------------------------------------------------------------


def test_bloch_state_matches_checked_and_is_normalized():
    for theta, phi in bloch_grid(60, 60) + [(1e-300, 7.0), (-2.5, -40.0), (1e6, 3e5)]:
        got = bloch_state(theta, phi)
        want = trusted_oracle.bloch_state(theta, phi)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert abs(float(np.vdot(got.amplitudes, got.amplitudes).real) - 1.0) <= 1e-15
        _assert_trusted_state(got)


@pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)])
def test_bloch_state_rejects_non_finite_angles(angles):
    with pytest.raises(ValueError, match="finite"):
        bloch_state(*angles)


# --- CLI artifacts -----------------------------------------------------------------


def _artifact(tmp_path, name, experiment, params, fmt) -> bytes:
    out = tmp_path / f"{name}.{fmt}"
    run(ExperimentConfig(experiment=experiment, params=params, seed=None, out=str(out), fmt=fmt))
    return out.read_bytes()


CLI_CASES = [
    ("premeasure", {}),
    ("premeasure", {"environment": 10}),
    ("premeasure", {"alpha": 0.28, "beta": 0.96, "environment": 4, "environment_bits": [1, 0, 1, 1]}),
    ("redundancy", {}),
    ("redundancy", {"sizes": [1, 3, 5], "max_errors": 3}),
    ("sieve", {"theta_steps": 6, "phi_steps": 4, "step": 0.5, "cap": 25.0}),
]


@pytest.mark.parametrize("case", range(len(CLI_CASES)))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_artifacts_byte_identical_to_checked_paths(tmp_path, monkeypatch, case, fmt):
    experiment, params = CLI_CASES[case]
    got = _artifact(tmp_path, "compiled", experiment, params, fmt)
    monkeypatch.setattr(cli, "apply", circuit_oracle.apply)
    monkeypatch.setattr(cli, "environment_record", trusted_oracle.environment_record)
    monkeypatch.setattr(redundancy, "environment_record", trusted_oracle.environment_record)
    monkeypatch.setattr(cli, "bloch_state", trusted_oracle.bloch_state)
    want = _artifact(tmp_path, "checked", experiment, params, fmt)
    assert got == want


# --- row-by-row gathers ------------------------------------------------------------

KB = 2**10
PAULI_CNOT = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z, GateKind.CNOT)


def _row_entries(n: int, rows: str) -> int:
    return {"entry": 1, "two entries": 3, "sqrt": 2 ** (n // 2), "half": 2 ** (n - 1), "table": 2**n}[rows]


def _with_zeros(state: PureState) -> PureState:
    """The state with about half its amplitudes exactly zero, so that signed zeros show."""
    amps = state.amplitudes.copy()
    amps[RNG.random(amps.size) < 0.5] = 0.0
    amps[0] = 1.0
    return PureState(amps / np.linalg.norm(amps), state.num_qubits)


@pytest.mark.parametrize("rows", ["entry", "two entries", "sqrt", "half", "table"])
@pytest.mark.parametrize("n", range(1, 13))
def test_row_runs_equal_full_table_bytes(monkeypatch, n, rows):
    """Rows of 1, 2 (from 3), 2^(n/2), 2^(n-1) and 2^n amplitudes; all five kinds, signs, +-i phases.

    Rows only split a register of more than ``_GATHER_ENTRIES`` amplitudes,
    so the row is shrunk here on small registers, odd n and n = 1 included.
    """
    # On a qubit of the first row and on one that picks the row: -i (Y), +i (ZY), -1 (ZX), signs only (Z).
    circs = [Circuit(tuple(Gate(GateKind(k), t) for k in kinds), n)
             for kinds in ("Y", "ZY", "ZX", "Z") for t in {0, n - 1}]
    circs += [_random_circuit(n, count) for count in (1, 5, 12, 40)]
    circs += [_random_circuit(n, count, PAULI_CNOT) for count in (1, 2, 3, 7, 30, 200)]
    runs = [_compile_run(tuple(run), n) for circ in circs
            for is_h, run in groupby(circ.gates, key=lambda g: g.kind is GateKind.HADAMARD) if not is_h]
    identity = [1 << (n - 1 - q) for q in range(n)]
    assert {c for _, _, _, c in runs} == {0, 1, 2, 3}
    assert any(s for _, _, s, _ in runs)
    assert {bool(b or cols != identity) for cols, b, _, _ in runs} == {False, True}
    monkeypatch.setattr(circuits, "_GATHER_ENTRIES", _row_entries(n, rows))
    state = _random_pure(n)
    for psi in (state, _with_zeros(state)):
        for circ in circs:
            got = apply(psi, circ).amplitudes
            with monkeypatch.context() as m:
                m.setattr(circuits, "_apply_run", circuit_oracle.full_table_run)
                full = apply(psi, circ).amplitudes
            assert got.tobytes() == full.tobytes()
            assert np.array_equal(got, circuit_oracle.apply(psi, circ).amplitudes)


def _peak_bytes(fn):
    """Peak traced allocation above the starting level while ``fn`` runs (numpy included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("run", ["cnot", "z-sign", "z-only"])
def test_run_peak_is_output_plus_one_row(run):
    """18 qubits, several rows.  The full index alone would add 2 MB, its sign mask 256 KB."""
    n = 18
    state, _, apparatus, env = _bench_request(n)
    circ, row_bytes = {
        "cnot": (decoherence_chain(apparatus, env, width=n), 8),
        "z-sign": (Circuit(tuple(g for e in env for g in (z(e), cnot(apparatus, e))), n), 8 + 1),
        "z-only": (Circuit(tuple(z(e) for e in env), n), 1),
    }[run]
    got, peak = _peak_bytes(lambda: apply(state, circ))
    assert peak <= got.amplitudes.nbytes + circuits._GATHER_ENTRIES * row_bytes + 64 * KB
    assert np.array_equal(got.amplitudes, circuit_oracle.apply(state, circ).amplitudes)


@pytest.mark.parametrize("n", range(1, 9))
def test_hadamard_in_place_keeps_loop_bytes(n):
    """Every target, one H and H on every qubit; dense and with signed zeros."""
    state = _random_pure(n)
    ops = [h(t) for t in range(n)] + [Circuit(tuple(h(t) for t in range(n)), n)]
    for psi in (state, _with_zeros(state)):
        for op in ops:
            got = apply(psi, op).amplitudes
            assert got.tobytes() == circuit_oracle.apply(psi, op).amplitudes.tobytes()
        assert not psi.amplitudes.flags.writeable


@pytest.mark.parametrize("target", [0, 9, 17])
def test_hadamard_peak_is_output_plus_half_register(target):
    """18 qubits.  Before, (lo + hi) and (lo - hi) and their scaled copies peaked a full register above the output.

    At targets 0 and 17 both halves are 1-D views.  In between they are 2-D
    strided views, and numpy's ufunc iterator adds its buffers (at most three
    of ``getbufsize()`` entries, whatever the register size).
    """
    n = 18
    state = _random_pure(n)
    got, peak = _peak_bytes(lambda: apply(state, h(target)))
    out = got.amplitudes.nbytes
    buffers = 0 if target in (0, n - 1) else 3 * np.getbufsize() * got.amplitudes.itemsize
    assert peak <= out + out // 2 + buffers + 64 * KB
    assert got.amplitudes.tobytes() == circuit_oracle.apply(state, h(target)).amplitudes.tobytes()
