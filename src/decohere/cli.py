"""Deterministic experiment runner.

Usage:  decohere --config experiment.json [--out PATH] [--format csv|json]
                 [--seed N]

The config file holds one experiment: its name, a parameter object, and
optionally a seed, output path and format (command-line flags override the
file).  Artifacts embed a canonical echo of the scientific config and the
build identifier; identical config plus seed reproduces identical bytes.
Exit codes: 0 success, 2 config error, 3 invariant violation during a run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .circuits import apply, decoherence_chain, premeasurement
from .dephasing import (
    DephasingChannel,
    _hadamard_frame,
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
    branch_count,
    compressibility_proxy,
    conditional_g,
    correlate,
    outcome_horizon,
)
from .redundancy import (
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
from .states import DensityMatrix, Projector, _require, born_probability, partial_trace

BUILD_ID = f"decohere {__version__}"


class ConfigError(Exception):
    """Bad experiment configuration; maps to exit code 2."""


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


@dataclass
class ResultArtifact:
    experiment: str
    config_echo: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    payload: Optional[dict] = None
    comments: list[str] = field(default_factory=list)
    duration_s: float = 0.0

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
            if self.payload is not None:
                raise ConfigError(
                    f"experiment '{self.experiment}' emits JSON; use --format json"
                )
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
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".decohere-")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp_path, 0o666 & ~mask)
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
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _take_params(params: dict, experiment: str, defaults: dict) -> dict:
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ConfigError(
                f"invalid parameter '{key}' for experiment '{experiment}' "
                f"(known: {', '.join(sorted(defaults))})"
            )
        merged[key] = value
    return merged


def _require_seed(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise ConfigError(
            f"experiment '{config.experiment}' samples stochastically and needs a seed"
        )
    return int(config.seed)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_premeasure(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params,
        "premeasure",
        {"alpha": 0.6, "beta": 0.8, "environment": 3, "environment_bits": None},
    )
    alpha = complex(p["alpha"]) if not isinstance(p["alpha"], list) else complex(*p["alpha"])
    beta = complex(p["beta"]) if not isinstance(p["beta"], list) else complex(*p["beta"])
    message = "alpha and beta must satisfy |alpha|^2 + |beta|^2 = 1"
    _require(abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-9, message, error=ConfigError)
    n_env = int(p["environment"])
    if n_env < 1:
        raise ConfigError("environment must hold at least one qubit")
    env_bits = p["environment_bits"]
    if env_bits is None:
        env_bits = [0] * n_env
    if len(env_bits) != n_env or any(b not in (0, 1) for b in env_bits):
        raise ConfigError("environment_bits must list one 0/1 value per environment qubit")
    width = 2 + n_env
    env_index = 0
    for b in env_bits:
        env_index = (env_index << 1) | b
    amps = np.zeros(2**width, dtype=complex)
    amps[env_index] = alpha
    amps[2 ** (width - 1) + env_index] = beta
    state = PureState(amps, width)

    record = premeasurement(0, 1, width)
    monitor = decoherence_chain(1, range(2, width), width)
    state = apply(state, record)
    state = apply(state, monitor)
    rho_sa = partial_trace(state.to_density_matrix(), (0, 1))
    off = rho_sa.elements - np.diag(rho_sa.elements.diagonal())
    row = {
        "alpha": abs(alpha),
        "beta": abs(beta),
        "p00": float(rho_sa.elements[0, 0].real),
        "p11": float(rho_sa.elements[3, 3].real),
        "max_offdiag": float(np.max(np.abs(off))),
    }
    art = ResultArtifact(
        experiment="premeasure",
        config_echo=config.echo(),
        columns=["alpha", "beta", "p00", "p11", "max_offdiag"],
        rows=[row],
    )
    art.comments = [f"circuit: {line}" for line in (record.to_text() + "\n" + monitor.to_text()).splitlines()]
    return art


def _ghz_joint(n_env: int) -> JointState:
    amps = np.zeros(2 ** (n_env + 1), dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = 1.0 / math.sqrt(2.0)
    state = PureState(amps, n_env + 1)
    return JointState(state, (0,), tuple(range(1, n_env + 1)))


def _run_redundancy(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params, "redundancy", {"sizes": [3, 5, 7], "max_errors": 2}
    )
    sizes = [int(n) for n in p["sizes"]]
    max_errors = int(p["max_errors"])
    if any(n < 1 or n > 8 for n in sizes):
        raise ConfigError("sizes must lie in 1..8 (exhaustive flip search cap)")
    if any(n % 2 == 0 for n in sizes):
        raise ConfigError("sizes must be odd so the majority vote cannot tie")

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
    return ResultArtifact(
        experiment="redundancy",
        config_echo=config.echo(),
        columns=["N", "basis", "k", "patterns", "success_rate", "d_pointer", "d_conjugate"],
        rows=rows,
    )


def _run_sieve(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params,
        "sieve",
        {
            "t_d": 1.0,
            "theta_steps": 36,
            "phi_steps": 36,
            "step": 0.1,
            "cap": 50.0,
            "basis": "computational",
        },
    )
    t_d = float(p["t_d"])
    _require(t_d > 0, "t_d must be positive", error=ConfigError)
    try:
        channel = channel_from_spec(p["basis"], t_d, 1)
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"bad pointer basis: {exc}") from exc
    steps = int(round(float(p["cap"]) / float(p["step"])))
    grid = uniform_grid(float(p["cap"]) * t_d, steps)
    dyn = DynamicsSpec(channel, grid, float(p["cap"]) * t_d)

    angles = bloch_grid(int(p["theta_steps"]), int(p["phi_steps"]))
    candidates = [bloch_state(theta, phi) for theta, phi in angles]
    labels = [f"theta={theta:.6f},phi={phi:.6f}" for theta, phi in angles]
    reports = sieve_rank(candidates, dyn, labels=labels, angles=angles)
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
    return ResultArtifact(
        experiment="sieve",
        config_echo=config.echo(),
        columns=["theta", "phi", "t_p", "t_p_capped", "tprime_p", "final_entropy_bits"],
        rows=rows,
    )


def _run_probability(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params,
        "probability",
        {"uniform_n": 4, "p": [1.0 / 3.0, 2.0 / 3.0], "m_start": 4, "m_doublings": 8},
    )
    seed = _require_seed(config)
    rng = np.random.default_rng(seed)
    results: dict = {}

    # Equal-magnitude superposition with random phases -> flat outcomes.
    n_outcomes = int(p["uniform_n"])
    num_qubits = max(1, (n_outcomes - 1).bit_length())
    if 2**num_qubits != n_outcomes:
        raise ConfigError("uniform_n must be a power of two")
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
    weights = ProbabilityVector(np.asarray(p["p"], dtype=float))
    sweep = []
    m = int(p["m_start"])
    for _ in range(int(p["m_doublings"]) + 1):
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

    return ResultArtifact(
        experiment="probability", config_echo=config.echo(), payload=results
    )


def _run_records(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params,
        "records",
        {"cells_max": 10, "t_d": 1.0, "alpha": 0.6, "beta": 0.8, "seq_length": 1024},
    )
    seed = _require_seed(config)
    rng = np.random.default_rng(seed)
    t_d = float(p["t_d"])
    if not 1 <= int(p["cells_max"]) <= 12:
        raise ConfigError("cells_max must lie in 1..12 (dense register cap)")
    alpha, beta = float(p["alpha"]), float(p["beta"])
    model = MemoryModel(
        probabilities=ProbabilityVector([alpha**2, beta**2]),
        system_states=(PureState.basis(1, 0), PureState.basis(1, 1)),
        record_states=(PureState.basis(1, 1), PureState.basis(1, 0)),
    )
    rows = []

    for cells in range(1, int(p["cells_max"]) + 1):
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
    mixing_channel = DephasingChannel(
        np.kron(_hadamard_frame(1), np.eye(2, dtype=complex)), t_d
    )
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
    dyn = DynamicsSpec(
        DephasingChannel.computational(1, t_d),
        uniform_grid(50.0 * t_d, 2500),
        50.0 * t_d,
    )
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
    length = int(p["seq_length"])
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

    return ResultArtifact(
        experiment="records",
        config_echo=config.echo(),
        columns=["experiment", "N", "basis", "branches", "g_t", "horizon", "compress_ratio"],
        rows=rows,
    )


def observer_lists(
    prepare_basis: str,
    measure_basis: str,
    ensemble: int,
    seed: int,
    t_d: float = 1.0,
) -> dict:
    """Two-observer list-comparison protocol on a decohering ensemble.

    Observer A prepares each member in a random state of their basis and
    keeps list L_A.  Pointer-basis dephasing einselects the ensemble, B
    reads each member through the environment (a nondemolition readout in
    B's basis, sampled from the decohered state's Born weights) producing
    L_B, decoherence acts again, and A remeasures in their own basis to get
    L_A2.  Returns the pairwise list agreement fractions.
    """
    for name, value in (("prepare_basis", prepare_basis), ("measure_basis", measure_basis)):
        if value not in ("pointer", "conjugate"):
            raise ConfigError(f"{name} must be 'pointer' or 'conjugate'")
    if ensemble < 1:
        raise ConfigError("ensemble must be positive")
    rng = np.random.default_rng(seed)
    channel = DephasingChannel.computational(1, t_d)
    hadamard = _hadamard_frame(1)

    def basis_projectors(basis: str) -> tuple[Projector, Projector]:
        if basis == "pointer":
            return (
                Projector.onto_vector(np.array([1.0, 0.0])),
                Projector.onto_vector(np.array([0.0, 1.0])),
            )
        return (
            Projector.onto_vector(hadamard[:, 0]),
            Projector.onto_vector(hadamard[:, 1]),
        )

    measure_projs = basis_projectors(measure_basis)
    remeasure_projs = basis_projectors(prepare_basis)

    # Per preparation label: decohered state and outcome-1 weights for B and A.
    p_b1 = np.zeros(2)
    p_a1 = np.zeros(2)
    for label in (0, 1):
        if prepare_basis == "pointer":
            prep = PureState.basis(1, label)
        else:
            prep = PureState.from_amplitudes(hadamard[:, label])
        rho = decohered_limit(prep.to_density_matrix(), channel)
        p_b1[label] = born_probability(rho, measure_projs[1])
        # B's readout is environment-mediated, so the state is unchanged;
        # the second bout of decoherence is a no-op on the diagonal state.
        p_a1[label] = born_probability(rho, remeasure_projs[1])

    list_a = rng.integers(0, 2, size=ensemble)
    list_b = (rng.random(ensemble) < p_b1[list_a]).astype(int)
    list_a2 = (rng.random(ensemble) < p_a1[list_a]).astype(int)
    return {
        "prepare_basis": prepare_basis,
        "measure_basis": measure_basis,
        "ensemble": int(ensemble),
        "agreement_a_b": float(np.mean(list_a == list_b)),
        "agreement_a_a2": float(np.mean(list_a == list_a2)),
        "agreement_b_a2": float(np.mean(list_b == list_a2)),
    }


def _run_observer_lists(config: ExperimentConfig) -> ResultArtifact:
    p = _take_params(
        config.params,
        "observer-lists",
        {
            "prepare_basis": "pointer",
            "measure_basis": "pointer",
            "ensemble": 1000,
            "t_d": 1.0,
        },
    )
    seed = _require_seed(config)
    outcome = observer_lists(
        str(p["prepare_basis"]),
        str(p["measure_basis"]),
        int(p["ensemble"]),
        seed,
        float(p["t_d"]),
    )
    rows = [
        {"pair": "L_A:L_B", "agreement": outcome["agreement_a_b"]},
        {"pair": "L_A:L_A2", "agreement": outcome["agreement_a_a2"]},
        {"pair": "L_B:L_A2", "agreement": outcome["agreement_b_a2"]},
    ]
    for row in rows:
        row.update(
            {
                "ensemble": outcome["ensemble"],
                "prepare_basis": outcome["prepare_basis"],
                "measure_basis": outcome["measure_basis"],
            }
        )
    return ResultArtifact(
        experiment="observer-lists",
        config_echo=config.echo(),
        columns=["pair", "agreement", "ensemble", "prepare_basis", "measure_basis"],
        rows=rows,
    )


EXPERIMENTS = {
    "premeasure": _run_premeasure,
    "redundancy": _run_redundancy,
    "sieve": _run_sieve,
    "probability": _run_probability,
    "records": _run_records,
    "observer-lists": _run_observer_lists,
}


def load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"experiment", "params", "seed", "out", "format"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose one of: "
            + ", ".join(sorted(EXPERIMENTS))
        )
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    seed = overrides.seed if overrides.seed is not None else raw.get("seed")
    out = overrides.out or raw.get("out") or f"{experiment.replace('-', '_')}.csv"
    fmt = overrides.format or raw.get("format") or ("json" if experiment == "probability" else "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    return ExperimentConfig(
        experiment=experiment,
        params=params,
        seed=None if seed is None else int(seed),
        out=str(out),
        fmt=fmt,
    )


def run(config: ExperimentConfig) -> ResultArtifact:
    """Execute one experiment and write its artifact atomically."""
    started = time.perf_counter()
    artifact = EXPERIMENTS[config.experiment](config)
    artifact.duration_s = time.perf_counter() - started
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

    try:
        config = load_config(args.config, args)
        artifact = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    print(
        f"{config.experiment}: wrote {config.out} "
        f"({artifact.duration_s:.2f}s, {BUILD_ID})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
