"""Butterfly reference for the Walsh-Hadamard transform and the robustness loop.

``_walsh_hadamard`` is the transform as it was before ``decohere.dephasing``
factored H_n into small Sylvester matrices: n butterfly passes, each one
reshape and one ``np.stack`` of the sums and differences of paired entries.
``_hadamard_robustness`` is the per-pattern loop of gathers over every
phase-flip mask that ``decohere.redundancy`` replaced with sums of the
weight difference over each pattern's axes; it transforms with the
package's own transform, so that a comparison isolates that replacement.
``_check_two_branch`` and ``_record_robustness`` are the two-branch check
and the conjugate-sector robustness as they were before one split of the
joint state into its branch rows served both: four conditional records
through ``environment_record`` (|0>, |1>, |+> and |->) per call, of which
only the amplitudes were read.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from decohere import dephasing
from decohere.redundancy import (
    EnvironmentRecord,
    JointState,
    _record_basis_index,
    environment_record,
)
from decohere.states import PureState


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row, by butterfly passes.

    out[:, z] = sum_j (-1)^popcount(j & z) rows[:, j]; rows have 2^n entries.
    """
    count, d = rows.shape
    half = 1
    while half < d:
        pairs = rows.reshape(count, d // (2 * half), 2, half)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        rows = np.stack((lo + hi, lo - hi), axis=2).reshape(count, d)
        half *= 2
    return rows


def _hadamard_robustness(joint: JointState, n: int, k: int) -> float:
    """Best-decoder sign inference under k phase-scrambling events, one pattern at a time."""
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) / math.sqrt(2.0))
    records = np.array([environment_record(joint, s).amplitudes for s in (plus, minus)])
    scaled = records * dephasing._hadamard_entry(n)
    weights = np.abs(dephasing._walsh_hadamard(scaled)) ** 2

    indices = np.arange(2**n, dtype=np.intp)
    bit_of = [1 << (n - 1 - q) for q in range(n)]
    signs = np.array(list(product((0, 1), repeat=k)), dtype=np.intp)

    total = 0.0
    patterns = 0
    for pattern in combinations(range(n), k):
        masks = signs @ np.array([bit_of[q] for q in pattern], dtype=np.intp)
        dists = [w[indices ^ masks[:, None]].mean(axis=0) for w in weights]
        total += 0.5 * float(np.sum(np.maximum(dists[0], dists[1])))
        patterns += 1
    return total / patterns


def _check_two_branch(joint: JointState) -> tuple[EnvironmentRecord, EnvironmentRecord]:
    """The all-zeros / all-ones check on the |0> and |1> records."""
    if len(joint.system) != 1:
        raise ValueError("decoding robustness expects a single system qubit")
    r0 = environment_record(joint, PureState.basis(1, 0))
    r1 = environment_record(joint, PureState.basis(1, 1))
    if r0.is_null or r1.is_null:
        raise ValueError("state is not a two-branch record state")
    n = joint.environment_size
    if _record_basis_index(r0.amplitudes) != 0 or _record_basis_index(r1.amplitudes) != 2**n - 1:
        raise ValueError("expected all-zeros / all-ones environment records")
    return r0, r1


def _record_robustness(joint: JointState, n: int, k: int) -> float:
    """1/2 + mean ||D_P||_1 / 4 from the Hadamard weights of the |+> and |-> records."""
    plus = PureState.from_amplitudes(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = PureState.from_amplitudes(np.array([1.0, -1.0]) / math.sqrt(2.0))
    records = np.array([environment_record(joint, s).amplitudes for s in (plus, minus)])
    w_plus, w_minus = np.abs(dephasing._pointer_coefficients("hadamard", records)) ** 2
    diff = (w_plus - w_minus).reshape((2,) * n)
    norms = [float(np.abs(diff.sum(axis=pattern)).sum()) for pattern in combinations(range(n), k)]
    return 0.5 + 0.25 * (sum(norms) / len(norms))
