"""sieve-grid: predictability-sieve rankings over seeded Bloch grids.

Each request builds a dephasing channel from its config form (computational,
Hadamard, or a seeded random unitary as ``[re, im]`` pairs) and ranks a
Bloch grid of single-qubit candidates by purity horizon over 501 samples
(step 0.1, cap 50 t_d), then writes the ranking as CSV like the CLI does.
About one request in nine carries a self-Hamiltonian and so takes the
sequential split-step path of ``evolve_entropy``; those form the latency
tail.  Split-step grids are kept small because that path costs ~20x more
per candidate than the closed form.

Oracle: for a pure-dephasing qubit the purity horizon is affine and
decreasing in p0*p1 = (1 - (n.m)^2)/4, with n the candidate's Bloch vector
and m the pointer axis, so the top-ranked candidate is the grid point best
aligned with m.  A self-Hamiltonian diagonal in the pointer frame only
rotates phases and leaves the purity trajectory, hence the ranking, as it is.
"""

from __future__ import annotations

import json
import math
import os
from itertools import product

import numpy as np

from common import Request, expect

# Whether the calibration kernel includes memory work (see run.Calibration).
MEMORY_BOUND = False

CAP = 50.0
STEP = 0.1
STEPS = int(round(CAP / STEP))
POINTS = STEPS + 1
CLOSED_THETA_STEPS = range(3, 9)
CLOSED_PHI_STEPS = range(4, 11)
CLOSED_EXTRA = 6
SPLIT_THETA_STEPS = (1, 2)
SPLIT_PHI_STEPS = (4, 5)
SPLIT_REPEATS = 3
FRAMES = ("computational", "hadamard", "random")
COLUMNS = ["theta", "phi", "t_p", "t_p_capped", "tprime_p", "final_entropy_bits"]
ALIGN_TOL = 1e-9

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _random_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _frame(kind: str, rng) -> tuple[object, np.ndarray]:
    """Config-form pointer basis and its matrix (pointer states as columns)."""
    if kind == "computational":
        return kind, np.eye(2, dtype=complex)
    if kind == "hadamard":
        return kind, _HADAMARD
    u = _random_unitary(rng)
    spec = [[[float(v.real), float(v.imag)] for v in row] for row in u]
    return spec, u


def _pointer_axis(w: np.ndarray) -> np.ndarray:
    """Bloch vector of the first pointer state."""
    a, b = w[0, 0], w[1, 0]
    return np.array([2 * (np.conj(a) * b).real, 2 * (np.conj(a) * b).imag, abs(a) ** 2 - abs(b) ** 2])


def _request(rng, index: int, theta_steps: int, phi_steps: int, frame: str, split: bool, workdir: str) -> Request:
    spec, w = _frame(frame, rng)
    t_d = float(rng.uniform(0.5, 2.0))
    hamiltonian = None
    if split:
        omega = float(rng.uniform(0.5, 3.0))
        hamiltonian = w @ np.diag([omega / 2, -omega / 2]) @ w.conj().T
    candidates = (theta_steps + 1) * phi_steps
    data = {
        "spec": spec,
        "axis": _pointer_axis(w),
        "frame": frame,
        "t_d": t_d,
        "hamiltonian": hamiltonian,
        "theta_steps": theta_steps,
        "phi_steps": phi_steps,
        "candidates": candidates,
        "path": os.path.join(workdir, f"sieve-{index}.csv"),
    }
    kind = "sieve.split_step" if split else "sieve.closed_form"
    counts = {"sieve.candidates": candidates, "sieve.trajectory_points": candidates * POINTS}
    return Request(kind, (theta_steps, phi_steps, frame), data, _run, _check, counts)


def build(rng, workdir: str) -> list[Request]:
    closed = list(product(CLOSED_THETA_STEPS, CLOSED_PHI_STEPS)) * 2
    closed += closed[:CLOSED_EXTRA]
    split = list(product(SPLIT_THETA_STEPS, SPLIT_PHI_STEPS)) * SPLIT_REPEATS
    shapes = [(ts, ps, False) for ts, ps in closed] + [(ts, ps, True) for ts, ps in split]
    requests = [_request(rng, i, ts, ps, FRAMES[i % len(FRAMES)], is_split, workdir)
                for i, (ts, ps, is_split) in enumerate(shapes)]
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _run(call, d):
    t_d = d["t_d"]
    channel = call("dephasing.channel_from_spec", d["spec"], t_d, 1)
    grid = call("sieve.uniform_grid", CAP * t_d, STEPS)
    dynamics = call("sieve.DynamicsSpec", channel, grid, CAP * t_d, self_hamiltonian=d["hamiltonian"])
    angles = call("sieve.bloch_grid", d["theta_steps"], d["phi_steps"])
    candidates = [call("sieve.bloch_state", theta, phi) for theta, phi in angles]
    labels = [f"theta={theta:.6f},phi={phi:.6f}" for theta, phi in angles]
    variant = "closed_form" if d["hamiltonian"] is None else "split_step"
    reports = call("sieve.sieve_rank", candidates, dynamics, labels=labels, angles=angles, variant=variant)
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
    echo = json.dumps(
        {"experiment": "sieve", "params": {"t_d": t_d, "theta_steps": d["theta_steps"],
                                           "phi_steps": d["phi_steps"], "basis": d["spec"]}},
        sort_keys=True, separators=(",", ":"),
    )
    artifact = call("cli.ResultArtifact", experiment="sieve", config_echo=echo, columns=COLUMNS, rows=rows)
    call("cli.write", artifact, d["path"], "csv")
    return reports


def _alignment(theta, phi, axis: np.ndarray):
    mx, my, mz = axis
    return np.abs(np.sin(theta) * (mx * np.cos(phi) + my * np.sin(phi)) + mz * np.cos(theta))


def _check(d, reports) -> dict:
    path = d["path"]
    try:
        with open(path, newline="") as handle:
            lines = handle.read().split("\r\n")
        written = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.unlink(path)
    n = d["candidates"]
    expect(len(reports) == n, f"ranked {len(reports)} of {n} candidates")
    # Two comment lines, a header, one row per candidate, then the final terminator.
    expect(len(lines) == n + 4 and lines[-1] == "", f"CSV has {len(lines) - 1} lines for {n} candidates")

    steps = d["theta_steps"], d["phi_steps"]
    thetas = np.array([math.pi * i / steps[0] for i in range(steps[0] + 1)])
    phis = np.array([2.0 * math.pi * j / steps[1] for j in range(steps[1])])
    best = float(_alignment(thetas[:, None], phis[None, :], d["axis"]).max())
    top = reports[0]
    got = float(_alignment(top.theta, top.phi, d["axis"]))
    expect(got >= best - ALIGN_TOL, f"top candidate alignment {got!r} below best {best!r}")
    if d["frame"] == "computational":
        expect(min(top.theta, abs(top.theta - math.pi)) < 1e-12,
               f"computational frame ranked theta={top.theta!r} first")
    if d["frame"] == "hadamard" and steps[0] % 2 == 0:
        on_equator = abs(top.theta - math.pi / 2) < 1e-12
        expect(on_equator and min(abs(top.phi), abs(top.phi - math.pi)) < 1e-12,
               f"Hadamard frame ranked theta={top.theta!r}, phi={top.phi!r} first")
    return {"cli.bytes_written": written}
