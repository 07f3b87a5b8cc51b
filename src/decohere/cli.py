"""Deterministic experiment runner.

Usage:  decohere --config experiment.json [--out PATH] [--format csv|json]
                 [--seed N]

The config file holds one experiment: its name, a parameter object, and
optionally a seed, output path and format (command-line flags override the
file).  Artifacts embed a canonical echo of the scientific config and the
build identifier; identical config plus seed reproduces identical bytes.
Every parameter is converted and checked once, before the run, by one
converter per kind of value.  Exit codes: 0 success, 2 config error (any
parameter of the wrong type or outside its range), 3 invariant violation
during a run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .circuits import apply, decoherence_chain, premeasurement
from .dephasing import (
    DephasingChannel,
    _pointer_coefficients,
    _pointer_weights,
    channel_from_spec,
    decohered_limit,
    dephase,
)
from .probability import (
    ProbabilityVector,
    coarse_grain,
    conditional_product_check,
    permutation_distinguishability,
    reconstruct_reduced,
    sum_rule_violation,
    uniform_outcome_probabilities,
)
from .records import (
    MemoryModel,
    RecordSequence,
    _readout_frame,
    branch_count,
    compressibility_proxy,
    conditional_g,
    correlate,
    outcome_horizon,
)
from .redundancy import (
    MAX_SEARCH_QUBITS,
    JointState,
    PureState,
    environment_record,
    error_robustness,
    redundancy_distance,
)
from .sieve import (
    DynamicsSpec,
    bloch_grid,
    bloch_state,
    sieve_rank,
    uniform_grid,
)
from .states import (
    MAX_DENSE_QUBITS,
    MAX_PURE_QUBITS,
    DensityMatrix,
    Projector,
    _integer as _checked_integer,
    _require,
    partial_trace,
)

BUILD_ID = f"decohere {__version__}"


class ConfigError(Exception):
    """Bad experiment configuration; maps to exit code 2."""


_JSON_ONLY = "experiment '{}' emits JSON; use --format json"
# Largest sieve time grid: 10^6 steps of 12 candidates peak near 93 MB max RSS.
_MAX_SIEVE_STEPS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    seed: Optional[int]
    out: str
    fmt: str

    def echo(self) -> str:
        """Canonical one-line form of the scientific inputs."""
        payload = {"experiment": self.experiment, "params": self.params, "seed": self.seed}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ResultArtifact:
    experiment: str
    config_echo: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    payload: Optional[dict] = None
    comments: list[str] = field(default_factory=list)

    def rendered(self, fmt: str) -> str:
        if fmt == "json":
            doc = {
                "experiment": self.experiment,
                "build": BUILD_ID,
                "config": json.loads(self.config_echo),
            }
            if self.payload is not None:
                doc["results"] = self.payload
            else:
                doc["rows"] = [
                    {k: row.get(k) for k in self.columns} for row in self.rows
                ]
            if self.comments:
                doc["notes"] = self.comments
            return json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            _require(self.payload is None, _JSON_ONLY, self.experiment, error=ConfigError)
            buf = io.StringIO()
            buf.write(f"# config: {self.config_echo}\r\n")
            buf.write(f"# build: {BUILD_ID}\r\n")
            for note in self.comments:
                buf.write(f"# {note}\r\n")
            writer = csv.writer(buf, lineterminator="\r\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row.get(k)) for k in self.columns])
            return buf.getvalue()
        raise ConfigError(f"unknown output format {fmt!r}")

    def write(self, path: str, fmt: str) -> None:
        text = self.rendered(fmt)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # Created exclusively, so the process umask sets its mode like any new file's.
        tmp_path = os.path.join(directory, f".decohere-{os.urandom(16).hex()}")
        try:
            with open(tmp_path, "x", newline="") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"  # "inf", "-inf" and "nan" included
    return str(value)


# Parameter converters: one per kind of value, every failure a config error.


def _number(value, name: str) -> float:
    """A JSON number (not a boolean) as a float; NaN and infinities pass."""
    ok = type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    _require(ok, "{} must be a number, got {!r}", name, value, error=ConfigError)
    return float(value)


def _positive(value, name: str) -> float:
    number = _number(value, name)
    message = "{} must be positive and finite, got {!r}"
    _require(0.0 < number < math.inf, message, name, number, error=ConfigError)
    return number


def _integer(value, name: str, lo: int, hi: float) -> int:
    """A JSON integer, or an integral float, in lo..hi (``hi`` may be inf)."""
    ok = type(value) in (int, float) and lo <= value <= hi and value % 1 == 0
    message = "{} must be an integer in {}..{}, got {!r}"
    _require(ok, message, name, lo, hi, value, error=ConfigError)
    return int(value)


def _complex(value, name: str) -> complex:
    """A JSON number or an [re, im] pair of numbers, as a complex."""
    pair = value if isinstance(value, list) else [value, 0.0]
    message = "{} must be a number or an [re, im] pair, got {!r}"
    _require(len(pair) == 2, message, name, value, error=ConfigError)
    return complex(_number(pair[0], name), _number(pair[1], name))


def _listed(convert: Callable, value, name: str, *bounds) -> list:
    """A JSON list, each entry read by ``convert(entry, name, *bounds)``."""
    _require(isinstance(value, list), "{} must be a list, got {!r}", name, value, error=ConfigError)
    return [convert(entry, name, *bounds) for entry in value]


def _built(what: str, build: Callable, *args):
    """``build(*args)``: a library value checked at its own boundary, as config."""
    try:
        return build(*args)
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# experiments: each reads its parameters through the converters, then runs
# ---------------------------------------------------------------------------


class _Experiment(NamedTuple):
    run: Callable[[dict, Optional[int]], dict]
    defaults: dict
    seeded: bool
    json_only: bool


EXPERIMENTS: dict[str, _Experiment] = {}


def _experiment(name: str, seeded: bool = False, json_only: bool = False, **defaults):
    """Register the decorated runner as experiment ``name`` with its parameter defaults."""
    def register(runner: Callable[[dict, Optional[int]], dict]):
        EXPERIMENTS[name] = _Experiment(runner, defaults, seeded, json_only)
        return runner
    return register


@_experiment("premeasure", alpha=0.6, beta=0.8, environment=3, environment_bits=None)
def _run_premeasure(p: dict, seed: Optional[int]) -> dict:
    alpha, beta = _complex(p["alpha"], "alpha"), _complex(p["beta"], "beta")
    # The squared parts overflow to inf, never to an exception.
    norm_sq = sum(x * x for x in (alpha.real, alpha.imag, beta.real, beta.imag))
    message = "alpha and beta must satisfy |alpha|^2 + |beta|^2 = 1"
    _require(abs(norm_sq - 1.0) <= 1e-9, message, error=ConfigError)
    # The 2 + n qubit register must fit a pure state; only its 2-qubit reduction is dense.
    n_env = _integer(p["environment"], "environment", 1, MAX_PURE_QUBITS - 2)
    bits = p["environment_bits"]
    bits = _listed(_integer, [0] * n_env if bits is None else bits, "environment_bits", 0, 1)
    message = "environment_bits must list one 0/1 value per environment qubit"
    _require(len(bits) == n_env, message, error=ConfigError)
    width = 2 + n_env
    env_index = sum(b << i for i, b in enumerate(reversed(bits)))
    amps = np.zeros(2**width, dtype=complex)
    amps[env_index] = alpha
    amps[2 ** (width - 1) + env_index] = beta
    state = PureState(amps, width)

    record = premeasurement(0, 1, width)
    monitor = decoherence_chain(1, range(2, width), width)
    state = apply(state, record)
    state = apply(state, monitor)
    rho_sa = partial_trace(state, (0, 1))
    off = rho_sa.elements - np.diag(rho_sa.elements.diagonal())
    row = {
        "alpha": abs(alpha),
        "beta": abs(beta),
        "p00": float(rho_sa.elements[0, 0].real),
        "p11": float(rho_sa.elements[3, 3].real),
        "max_offdiag": float(np.max(np.abs(off))),
    }
    gates = (record.to_text() + "\n" + monitor.to_text()).splitlines()
    return {
        "columns": ["alpha", "beta", "p00", "p11", "max_offdiag"],
        "rows": [row],
        "comments": [f"circuit: {line}" for line in gates],
    }


def _ghz_joint(n_env: int) -> JointState:
    amps = np.zeros(2 ** (n_env + 1), dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = 1.0 / math.sqrt(2.0)
    state = PureState(amps, n_env + 1)
    return JointState(state, (0,), tuple(range(1, n_env + 1)))


@_experiment("redundancy", sizes=[3, 5, 7], max_errors=2)
def _run_redundancy(p: dict, seed: Optional[int]) -> dict:
    sizes = _listed(_integer, p["sizes"], "sizes", 1, MAX_SEARCH_QUBITS)
    message = "sizes must be odd so the majority vote cannot tie"
    _require(all(n % 2 == 1 for n in sizes), message, error=ConfigError)
    max_errors = _integer(p["max_errors"], "max_errors", 0, math.inf)

    rows = []
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) / math.sqrt(2.0))
    for n in sizes:
        joint = _ghz_joint(n)
        r0 = environment_record(joint, PureState.basis(1, 0))
        r1 = environment_record(joint, PureState.basis(1, 1))
        d_pointer = redundancy_distance(r0, r1)
        d_conjugate = redundancy_distance(
            environment_record(joint, plus), environment_record(joint, minus)
        )
        for basis in ("pointer", "hadamard"):
            for k in range(0, min(max_errors, n) + 1):
                rows.append(
                    {
                        "N": n,
                        "basis": basis,
                        "k": k,
                        "patterns": math.comb(n, k),
                        "success_rate": error_robustness(joint, basis, k),
                        "d_pointer": d_pointer,
                        "d_conjugate": d_conjugate,
                    }
                )
    return {
        "columns": ["N", "basis", "k", "patterns", "success_rate", "d_pointer", "d_conjugate"],
        "rows": rows,
    }


@_experiment(
    "sieve", t_d=1.0, theta_steps=36, phi_steps=36, step=0.1, cap=50.0, basis="computational"
)
def _run_sieve(p: dict, seed: Optional[int]) -> dict:
    t_d = _positive(p["t_d"], "t_d")
    channel = _built("pointer basis", channel_from_spec, p["basis"], t_d, 1)
    step, cap = _positive(p["step"], "step"), _positive(p["cap"], "cap")
    steps = round(min(cap / step, _MAX_SIEVE_STEPS + 1))
    message = f"cap / step must round to 1..{_MAX_SIEVE_STEPS} steps, got {{!r}}"
    _require(1 <= steps <= _MAX_SIEVE_STEPS, message, cap / step, error=ConfigError)
    horizon = _positive(cap * t_d, "the horizon cap * t_d")
    theta_steps = _integer(p["theta_steps"], "theta_steps", 1, math.inf)
    phi_steps = _integer(p["phi_steps"], "phi_steps", 1, math.inf)

    dyn = DynamicsSpec(channel, uniform_grid(horizon, steps), horizon)
    angles = bloch_grid(theta_steps, phi_steps)
    candidates = [bloch_state(theta, phi) for theta, phi in angles]
    reports = sieve_rank(candidates, dyn, angles=angles)
    rows = [
        {
            "theta": r.theta,
            "phi": r.phi,
            "t_p": r.t_p,
            "t_p_capped": r.t_p_capped,
            "tprime_p": r.tprime_p,
            "final_entropy_bits": r.final_entropy,
        }
        for r in reports
    ]
    return {
        "columns": ["theta", "phi", "t_p", "t_p_capped", "tprime_p", "final_entropy_bits"],
        "rows": rows,
    }


@_experiment(
    "probability",
    seeded=True,
    json_only=True,
    uniform_n=4,
    p=[1.0 / 3.0, 2.0 / 3.0],
    m_start=4,
    m_doublings=8,
)
def _run_probability(p: dict, seed: Optional[int]) -> dict:
    # The dephasing channel over the 2^k outcomes is dense, so k meets the density cap.
    n_outcomes = _integer(p["uniform_n"], "uniform_n", 2, 2**MAX_DENSE_QUBITS)
    message = "uniform_n must be a power of two"
    _require(n_outcomes & (n_outcomes - 1) == 0, message, error=ConfigError)
    weights = _built("p", ProbabilityVector, _listed(_number, p["p"], "p"))
    # M = m_start * 2^m_doublings stays below 2^53, so every cell count is exact as a float.
    m = _integer(p["m_start"], "m_start", len(weights), 2**20)
    m_doublings = _integer(p["m_doublings"], "m_doublings", 0, 32)
    rng = np.random.default_rng(seed)
    results: dict = {}

    # Equal-magnitude superposition with random phases -> flat outcomes.
    num_qubits = n_outcomes.bit_length() - 1
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_outcomes)
    psi = PureState.from_amplitudes(np.exp(1j * phases) / math.sqrt(n_outcomes))
    channel = DephasingChannel.computational(num_qubits, 1.0)
    uniform = uniform_outcome_probabilities(psi, channel)
    results["uniform_outcomes"] = {
        "inputs": {"n": n_outcomes, "phases": [float(x) for x in phases]},
        "probabilities": [float(x) for x in uniform.values],
        "max_deviation": float(np.max(np.abs(uniform.values - 1.0 / n_outcomes))),
    }

    # Label permutation distinguishes coherent states under a fixed measurement.
    psi3 = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
    perm = [2, 1, 0]
    meas = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0),
    ]
    original, permuted = permutation_distinguishability(psi3, perm, meas)
    results["permutation"] = {
        "inputs": {"state": [float(x) for x in psi3], "permutation": perm},
        "original": [float(x) for x in original.values],
        "permuted": [float(x) for x in permuted.values],
    }

    # Coarse-graining sweep: deviation shrinks like 1/M.
    sweep = []
    for _ in range(m_doublings + 1):
        grouping = coarse_grain(weights, m)
        _, deviation = reconstruct_reduced(grouping)
        sweep.append(
            {
                "M": m,
                "degeneracies": list(grouping.degeneracies),
                "deviation": deviation,
                "bound": 1.0 / m,
            }
        )
        m *= 2
    results["coarse_graining"] = {
        "inputs": {"p": [float(x) for x in weights.values]},
        "sweep": sweep,
    }

    # Sum rule: zero on decohered pointer events, 1/2 on the interference pair.
    rho4 = decohered_limit(
        PureState.from_amplitudes(np.exp(1j * rng.uniform(0, 2 * math.pi, 4)) / 2.0)
        .to_density_matrix(),
        DephasingChannel.computational(2, 1.0),
    )
    b = Projector.onto_basis_states(4, [0, 1])
    c = Projector.onto_basis_states(4, [1, 2])
    pointer_violation = sum_rule_violation(rho4, b, c)
    qubit = PureState.basis(1, 0)
    b_q = Projector.onto_vector(np.array([1.0, 0.0]))
    c_q = Projector.onto_vector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    interference_violation = sum_rule_violation(qubit, b_q, c_q)
    results["sum_rule"] = {
        "pointer_violation": pointer_violation,
        "interference_violation": interference_violation,
    }

    # Multiplication theorem on commuting pointer events.
    mixed = DensityMatrix.maximally_mixed(2)
    a_p = Projector.onto_basis_states(4, [0, 1])
    b_p = Projector.onto_basis_states(4, [0, 2])
    c_p = Projector.onto_basis_states(4, [0, 1])
    results["conditional_product"] = {
        "defect": conditional_product_check(mixed, a_p, b_p, c_p)
    }
    return {"payload": results}


@_experiment("records", seeded=True, cells_max=10, t_d=1.0, alpha=0.6, beta=0.8, seq_length=1024)
def _run_records(p: dict, seed: Optional[int]) -> dict:
    cells_max = _integer(p["cells_max"], "cells_max", 1, MAX_DENSE_QUBITS)
    t_d = _positive(p["t_d"], "t_d")
    t_cap = _positive(50.0 * t_d, "the horizon 50 * t_d")
    amplitudes = [_number(p["alpha"], "alpha"), _number(p["beta"], "beta")]
    message = "alpha and beta must lie in [-1, 1], got {!r}"
    _require(all(abs(a) <= 1.0 for a in amplitudes), message, amplitudes, error=ConfigError)
    weights = _built("alpha and beta", ProbabilityVector, [a**2 for a in amplitudes])
    length = _integer(p["seq_length"], "seq_length", 16, math.inf)
    rng = np.random.default_rng(seed)
    model = MemoryModel(
        probabilities=weights,
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )
    rows = []

    for cells in range(1, cells_max + 1):
        for basis in ("pointer", "conjugate"):
            rows.append(
                {
                    "experiment": "branches",
                    "N": cells,
                    "basis": basis,
                    "branches": branch_count(model, basis, cells),
                }
            )

    # Predictive conditional probability under pure dephasing and under mixing.
    rho_sm = correlate(model)
    pointer_channel = DephasingChannel.computational(2, t_d)
    record_1 = Projector.onto_vector(np.array([0.0, 1.0]))
    prop_0 = Projector.onto_vector(np.array([1.0, 0.0]))
    times = np.linspace(0.0, 5.0 * t_d, 11)
    g_pointer = min(
        conditional_g(dephase(rho_sm, pointer_channel, t), record_1, prop_0)
        for t in times
    )
    # Pointer states |+>|0>, |+>|1>, |->|0>, |->|1>; the rows of the real, symmetric H.
    plus_minus = _pointer_coefficients("hadamard", np.eye(2))
    mixing_channel = DephasingChannel(np.kron(plus_minus, np.eye(2)), t_d)
    g_mixing = conditional_g(dephase(rho_sm, mixing_channel, t_d), record_1, prop_0)
    rows.append({"experiment": "g", "basis": "pointer", "g_t": g_pointer})
    rows.append({"experiment": "g", "basis": "mixing", "g_t": g_mixing})

    # Per-outcome horizons under dephasing that spares only the pointer outcome.
    conj_model = MemoryModel(
        probabilities=ProbabilityVector([0.5, 0.5]),
        system_states=(
            PureState.basis(1, 0),
            PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0)),
        ),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )
    dyn = DynamicsSpec(DephasingChannel.computational(1, t_d), uniform_grid(t_cap, 2500), t_cap)
    for outcome, basis in ((0, "pointer"), (1, "conjugate")):
        horizon = outcome_horizon(conj_model, dyn, outcome)
        rows.append(
            {
                "experiment": "horizon",
                "basis": basis,
                "horizon": math.inf if horizon.capped else horizon.value,
            }
        )

    # Compressibility proxy on constant, alternating, and seeded-random records.
    constant = RecordSequence.constant(0, length, (0, 1))
    alternating = RecordSequence(tuple(i % 2 for i in range(length)), (0, 1))
    random_seq = RecordSequence(tuple(int(b) for b in rng.integers(0, 2, length)), (0, 1))
    for name, seq in (
        ("constant", constant),
        ("alternating", alternating),
        ("random", random_seq),
    ):
        rows.append(
            {
                "experiment": "compress",
                "basis": name,
                "compress_ratio": compressibility_proxy(seq),
            }
        )
    return {
        "columns": ["experiment", "N", "basis", "branches", "g_t", "horizon", "compress_ratio"],
        "rows": rows,
    }


def observer_lists(
    prepare_basis: str,
    measure_basis: str,
    ensemble: int,
    seed: int,
) -> dict:
    """Two-observer list-comparison protocol on a decohering ensemble.

    Observer A prepares each member in a random state of their basis and
    keeps list L_A.  Pointer-basis dephasing einselects the ensemble, B
    reads each member through the environment (a nondemolition readout in
    B's basis, sampled from the decohered state's Born weights) producing
    L_B, decoherence acts again, and A remeasures in their own basis to get
    L_A2.  Returns the pairwise list agreement fractions; an unknown basis,
    an empty ensemble or a negative seed raises ``ValueError``.
    """
    prepare = _readout_frame(prepare_basis, "prepare_basis")
    measure = _readout_frame(measure_basis, "measure_basis")
    ensemble = _checked_integer(ensemble, "ensemble")
    _require(ensemble >= 1, "ensemble must be positive")
    seed = _checked_integer(seed, "seed")
    _require(seed >= 0, "seed must be nonnegative, got {!r}", seed)
    rng = np.random.default_rng(seed)
    # The t -> oo pinching never reads t_d.
    channel = DephasingChannel.computational(1, 1.0)
    # Row l is W^H|l>; both frames are real and symmetric, so that is the prepared W|l>.
    prepared = _pointer_coefficients(prepare, np.eye(2, dtype=complex))

    # Per preparation label: decohered state and outcome-1 weights for B and A.
    p_b1, p_a1 = np.zeros(2), np.zeros(2)
    for label, amplitudes in enumerate(prepared):
        rho = decohered_limit(PureState.from_amplitudes(amplitudes).to_density_matrix(), channel)
        p_b1[label] = _pointer_weights(measure, rho)[1]
        # B's readout is environment-mediated, so the state is unchanged;
        # the second bout of decoherence is a no-op on the diagonal state.
        p_a1[label] = _pointer_weights(prepare, rho)[1]

    list_a = rng.integers(0, 2, size=ensemble)
    list_b = (rng.random(ensemble) < p_b1[list_a]).astype(int)
    list_a2 = (rng.random(ensemble) < p_a1[list_a]).astype(int)
    return {
        "prepare_basis": prepare_basis,
        "measure_basis": measure_basis,
        "ensemble": ensemble,
        "agreement_a_b": float(np.mean(list_a == list_b)),
        "agreement_a_a2": float(np.mean(list_a == list_a2)),
        "agreement_b_a2": float(np.mean(list_b == list_a2)),
    }


@_experiment(
    "observer-lists",
    seeded=True,
    prepare_basis="pointer",
    measure_basis="pointer",
    ensemble=1000,
)
def _run_observer_lists(p: dict, seed: Optional[int]) -> dict:
    ensemble = _integer(p["ensemble"], "ensemble", 1, math.inf)
    bases = p["prepare_basis"], p["measure_basis"]
    outcome = _built("basis", observer_lists, *bases, ensemble, seed)
    columns = ["pair", "agreement", "ensemble", "prepare_basis", "measure_basis"]
    pairs = (("L_A:L_B", "a_b"), ("L_A:L_A2", "a_a2"), ("L_B:L_A2", "b_a2"))
    shared = {column: outcome[column] for column in columns[2:]}
    rows = [
        {"pair": pair, "agreement": outcome[f"agreement_{key}"], **shared} for pair, key in pairs
    ]
    return {"columns": columns, "rows": rows}


def load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object", error=ConfigError)
    unknown = ", ".join(sorted(set(raw) - {"experiment", "params", "seed", "out", "format"}))
    _require(not unknown, "unknown config fields: {}", unknown, error=ConfigError)
    experiment = raw.get("experiment")
    message = "unknown experiment {!r}; choose one of: {}"
    ok = isinstance(experiment, str) and experiment in EXPERIMENTS
    _require(ok, message, experiment, ", ".join(sorted(EXPERIMENTS)), error=ConfigError)
    params = raw.get("params", {})
    _require(isinstance(params, dict), "params must be a JSON object", error=ConfigError)
    seed = overrides.seed if overrides.seed is not None else raw.get("seed")
    seed = None if seed is None else _integer(seed, "seed", 0, math.inf)
    out = overrides.out or raw.get("out") or f"{experiment.replace('-', '_')}.csv"
    _require(isinstance(out, str), "out must be a path string, got {!r}", out, error=ConfigError)
    default_fmt = "json" if EXPERIMENTS[experiment].json_only else "csv"
    fmt = overrides.format or raw.get("format") or default_fmt
    _require(fmt in ("csv", "json"), "format must be 'csv' or 'json'", error=ConfigError)
    return ExperimentConfig(experiment=experiment, params=params, seed=seed, out=out, fmt=fmt)


def run(config: ExperimentConfig) -> ResultArtifact:
    """Check the config against its experiment, run it and write its artifact atomically."""
    name, spec = config.experiment, EXPERIMENTS[config.experiment]
    known = ", ".join(sorted(spec.defaults))
    for key in config.params:
        message = "invalid parameter '{}' for experiment '{}' (known: {})"
        _require(key in spec.defaults, message, key, name, known, error=ConfigError)
    message = "experiment '{}' samples stochastically and needs a seed"
    _require(config.seed is not None or not spec.seeded, message, name, error=ConfigError)
    _require(config.fmt == "json" or not spec.json_only, _JSON_ONLY, name, error=ConfigError)
    result = spec.run({**spec.defaults, **config.params}, config.seed)
    artifact = ResultArtifact(experiment=name, config_echo=config.echo(), **result)
    artifact.write(config.out, config.fmt)
    return artifact


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="decohere", description="Run one decoherence/einselection experiment."
    )
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", default=None, help="output artifact path")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--seed", default=None, type=int, help="RNG seed (uint64)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        config = load_config(args.config, args)
        run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    duration_s = time.perf_counter() - started
    print(f"{config.experiment}: wrote {config.out} ({duration_s:.2f}s, {BUILD_ID})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
