"""wide-register: few large dense arrays, bound by memory bandwidth and BLAS.

Request kinds, with the size multiset fixed and only the content seeded:

* ``apply``: premeasurement plus a monitoring chain on 14-20-qubit pure
  states, then both conditional environment records;
* ``density``: ``to_density_matrix`` plus ``partial_trace`` at 8-12 qubits;
* ``branch``: ``branch_count`` in the pointer or conjugate basis at 8-12
  cells;
* ``coarse``: ``coarse_grain`` plus ``reconstruct_reduced`` at M = 256-4096;
* ``dephase``: ``dephase`` at 7-10 qubits in the computational or the
  Hadamard frame.

The largest sizes cost ~1 s and ~1 GB each, so the levels are weighted
toward the small end; every level of every range still occurs in each pass.
"""

from __future__ import annotations

import math

import numpy as np

from common import Request, close, expect, stratified

# Whether the calibration kernel includes memory work (see run.Calibration).
MEMORY_BOUND = True

APPLY_QUBITS = stratified({14: 4, 15: 4, 16: 4, 17: 3, 18: 3, 19: 2, 20: 2})
DENSITY_QUBITS = stratified({8: 8, 9: 6, 10: 4, 11: 1, 12: 1})
BRANCH_CELLS = stratified({8: 8, 9: 6, 10: 4, 11: 1, 12: 1})
COARSE_STATES = stratified({256: 6, 512: 6, 1024: 4, 2048: 3, 4096: 1})
DEPHASE_QUBITS = stratified({7: 8, 8: 6, 9: 3, 10: 1})
BYTES_PER_AMPLITUDE = 16
TOL = 1e-10


def _two_amplitudes(rng) -> tuple[complex, complex]:
    p = rng.uniform(0.1, 0.9)
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    return complex(math.sqrt(p) * phases[0]), complex(math.sqrt(1 - p) * phases[1])


# --- apply -------------------------------------------------------------------

def _apply_request(rng, n: int) -> Request:
    alpha, beta = _two_amplitudes(rng)
    order = [int(q) for q in rng.permutation(n)]
    system, apparatus, env = order[0], order[1], tuple(order[2:])
    gates = 1 + len(env)
    data = {"n": n, "alpha": alpha, "beta": beta, "system": system, "apparatus": apparatus, "env": env}
    counts = {"circuits.gates": gates, "circuits.amplitude_bytes": gates * 2**n * BYTES_PER_AMPLITUDE}
    return Request("apply", (n,), data, _run_apply, _check_apply, counts)


def _run_apply(call, d):
    n, s = d["n"], d["system"]
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = d["alpha"]
    amps[1 << (n - 1 - s)] = d["beta"]
    state = call("states.PureState", amps, n)
    state = call("circuits.apply", state, call("circuits.premeasurement", s, d["apparatus"], width=n))
    state = call("circuits.apply", state, call("circuits.decoherence_chain", d["apparatus"], d["env"], width=n))
    rest = tuple(q for q in range(n) if q != s)
    joint = call("redundancy.JointState", state, (s,), rest)
    zero = call("states.PureState", np.array([1.0, 0.0], dtype=complex), 1)
    one = call("states.PureState", np.array([0.0, 1.0], dtype=complex), 1)
    records = (call("redundancy.environment_record", joint, zero),
               call("redundancy.environment_record", joint, one))
    return state, records


def _check_apply(d, result) -> dict:
    state, (r0, r1) = result
    alpha, beta = d["alpha"], d["beta"]
    # Both branch amplitudes in place and the norm intact leave nothing elsewhere.
    close(abs(state.amplitudes[0] - alpha), 0.0, TOL, "amplitude of |0...0>")
    close(abs(state.amplitudes[-1] - beta), 0.0, TOL, "amplitude of |1...1>")
    close(r0.weight, abs(alpha) ** 2, TOL, "record weight for system |0>")
    close(r1.weight, abs(beta) ** 2, TOL, "record weight for system |1>")
    close(abs(r0.amplitudes[0]), 1.0, TOL, "record |0...0> for system |0>")
    close(abs(r1.amplitudes[-1]), 1.0, TOL, "record |1...1> for system |1>")
    return {}


# --- density -----------------------------------------------------------------

def _density_request(rng, n: int) -> Request:
    alpha, beta = _two_amplitudes(rng)
    keep = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
    data = {"n": n, "alpha": alpha, "beta": beta, "keep": keep}
    counts = {"states.density_bytes": 4**n * BYTES_PER_AMPLITUDE}
    return Request("density", (n,), data, _run_density, _check_density, counts)


def _run_density(call, d):
    n = d["n"]
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = d["alpha"], d["beta"]
    rho = call("states.to_density_matrix", call("states.PureState", amps, n))
    return call("states.partial_trace", rho, d["keep"])


def _check_density(d, reduced) -> dict:
    want = np.diag([abs(d["alpha"]) ** 2, 0.0, 0.0, abs(d["beta"]) ** 2])
    close(float(np.max(np.abs(reduced.elements - want))), 0.0, TOL, "two-qubit reduced state")
    return {}


# --- branch ------------------------------------------------------------------

def _branch_request(rng, cells: int, basis: str) -> Request:
    data = {"p": float(rng.uniform(0.2, 0.8)), "cells": cells, "basis": basis}
    return Request("branch", (cells, basis), data, _run_branch, _check_branch)


def _run_branch(call, d):
    zero = call("states.PureState", np.array([1.0, 0.0], dtype=complex), 1)
    one = call("states.PureState", np.array([0.0, 1.0], dtype=complex), 1)
    probs = call("probability.ProbabilityVector", np.array([d["p"], 1.0 - d["p"]]))
    model = call("records.MemoryModel", probs, (zero, one), (zero, one))
    return call("records.branch_count", model, d["basis"], d["cells"])


def _check_branch(d, count) -> dict:
    want = 2 if d["basis"] == "pointer" else 2 ** d["cells"]
    expect(count == want, f"{d['basis']} records over {d['cells']} cells: {count} branches, want {want}")
    return {}


# --- coarse ------------------------------------------------------------------

def _coarse_request(rng, m: int, outcomes: int) -> Request:
    data = {"p": rng.dirichlet(np.ones(outcomes)), "m": m}
    return Request("coarse", (m, outcomes), data, _run_coarse, _check_coarse)


def _run_coarse(call, d):
    grouping = call("probability.coarse_grain", call("probability.ProbabilityVector", d["p"]), d["m"])
    return grouping, call("probability.reconstruct_reduced", grouping)


def _check_coarse(d, result) -> dict:
    grouping, (reduced, deviation) = result
    m = d["m"]
    expect(sum(grouping.degeneracies) == m, f"degeneracies sum to {sum(grouping.degeneracies)}, want {m}")
    expect(deviation <= 1.0 / m + 1e-12, f"deviation {deviation!r} exceeds 1/M = {1.0 / m!r}")
    want = np.diag(np.array(grouping.degeneracies, dtype=float) / m)
    close(float(np.max(np.abs(reduced - want))), 0.0, 1e-12, "reduced diagonal n_k/M")
    return {}


# --- dephase -----------------------------------------------------------------

def _hadamard_columns(n: int, columns) -> np.ndarray:
    """Columns of the n-qubit Hadamard frame, entry (k, i) = (-1)^popcount(k & i) / sqrt(2^n)."""
    parity = np.bitwise_count(np.arange(2**n)[:, None] & np.array(columns)[None, :]) & 1
    return (1.0 - 2.0 * parity) / math.sqrt(2**n)


def _walsh_hadamard(c: np.ndarray, n: int) -> np.ndarray:
    a = c.reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack([lo + hi, lo - hi], axis=axis) / math.sqrt(2.0)
    return a.reshape(-1)


def _dephase_request(rng, n: int, frame: str) -> Request:
    c = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    c /= np.linalg.norm(c)
    psi = c if frame == "computational" else _walsh_hadamard(c, n)
    t_d = float(rng.uniform(0.5, 2.0))
    probes = [(int(i), int(i)) for i in rng.choice(2**n, size=2, replace=False)]
    probes += [tuple(int(v) for v in rng.choice(2**n, size=2, replace=False)) for _ in range(4)]
    data = {"n": n, "frame": frame, "psi": psi, "c": c, "t_d": t_d,
            "t": float(rng.uniform(0.1, 2.0)) * t_d, "probes": probes}
    return Request("dephase", (n, frame), data, _run_dephase, _check_dephase)


def _run_dephase(call, d):
    n = d["n"]
    channel = call("dephasing.channel_from_spec", d["frame"], d["t_d"], n)
    rho = call("states.to_density_matrix", call("states.PureState", d["psi"], n))
    return call("dephasing.dephase", rho, channel, d["t"], variant=d["frame"])


def _check_dephase(d, rho) -> dict:
    """Sampled pointer-frame entries: diagonal kept, off-diagonal scaled by exp(-t/t_d)."""
    c, n = d["c"], d["n"]
    factor = math.exp(-d["t"] / d["t_d"])
    for i, j in d["probes"]:
        if d["frame"] == "computational":
            got = complex(rho.elements[i, j])
        else:
            w = _hadamard_columns(n, (i, j))
            got = complex(w[:, 0].conj() @ rho.elements @ w[:, 1])
        want = abs(c[i]) ** 2 if i == j else c[i] * np.conj(c[j]) * factor
        close(abs(got - want), 0.0, TOL, f"pointer-frame entry ({i}, {j})")
    return {}


def build(rng, workdir: str) -> list[Request]:
    requests = [_apply_request(rng, n) for n in APPLY_QUBITS]
    requests += [_density_request(rng, n) for n in DENSITY_QUBITS]
    requests += [_branch_request(rng, cells, ("pointer", "conjugate")[i % 2])
                 for i, cells in enumerate(BRANCH_CELLS)]
    requests += [_coarse_request(rng, m, 2 + i % 5) for i, m in enumerate(COARSE_STATES)]
    requests += [_dephase_request(rng, n, ("computational", "hadamard")[i % 2])
                 for i, n in enumerate(DEPHASE_QUBITS)]
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]
