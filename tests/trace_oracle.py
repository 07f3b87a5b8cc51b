"""Traces as the library took them before ``_expectation`` and ``_conditioned``.

Each function keeps the expression it replaced: ``sum |rho_ij|^2`` for the
purity, ``einsum("ij,ji->")`` for a Born probability, ``np.trace`` of d x d
products for the product rule (``b a`` and ``c b a``, as written, in the
formula that cancels mu(cba); and the sequential conditioning that replaced
it) and the mixed-record overlap, one-factor operators extended to the whole
register by ``np.kron`` with an identity for g(t), the conditional system
state and the pointer commutator, and the conditional state read off the
pinched d x d joint state by a partial trace.  The tests compare the
library against them.
"""

from __future__ import annotations

import numpy as np

from decohere.dephasing import HamiltonianSpec
from decohere.probability import UNDEFINED_CONDITIONAL
from decohere.records import MemoryModel, _record_matrix, _record_support_projector
from decohere.states import DensityMatrix, Projector, _require, partial_trace


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2) as the sum of |rho_ij|^2, with two d x d temporaries."""
    return float(np.sum(np.abs(rho.elements) ** 2))


def born_probability(rho: DensityMatrix, projector: Projector) -> float:
    value = float(np.real(np.einsum("ij,ji->", projector.elements, rho.elements)))
    _require(-1e-9 <= value <= 1.0 + 1e-9, "Born probability {!r} outside [0, 1]", value)
    return min(1.0, max(0.0, value))


def commuting_sum_rule(rho: DensityMatrix, b: Projector, c: Projector) -> float:
    """|Tr((join - b - c + meet) rho)| for commuting b and c, as one trace of a product."""
    bm, cm = b.elements, c.elements
    bc = bm @ cm
    return abs(float(np.real(np.trace(((bm + cm - bc) - bm - cm + bc) @ rho.elements))))


def conditional_product_traces(
    rho: DensityMatrix, a: Projector, b: Projector, c: Projector
) -> tuple[float, float, float]:
    """Re Tr(a rho), Re Tr(b a rho) and Re Tr(c b a rho)."""
    mu_a = float(np.real(np.trace(a.elements @ rho.elements)))
    mu_ba = float(np.real(np.trace(b.elements @ a.elements @ rho.elements)))
    mu_cba = float(np.real(np.trace(c.elements @ b.elements @ a.elements @ rho.elements)))
    return mu_a, mu_ba, mu_cba


def conditional_product_check(
    rho: DensityMatrix, a: Projector, b: Projector, c: Projector
) -> float:
    """The product rule before sequential conditioning: 0 up to rounding for any mu(cba)."""
    mu_a, mu_ba, mu_cba = conditional_product_traces(rho, a, b, c)
    if mu_a < 1e-12 or mu_ba < 1e-12:
        return UNDEFINED_CONDITIONAL
    return abs(mu_cba / mu_a - (mu_cba / mu_ba) * (mu_ba / mu_a))


def sequential_product_traces(
    rho: DensityMatrix, a: Projector, b: Projector, c: Projector
) -> list[float]:
    """Re Tr(a rho), Re Tr(b rho_a), Re Tr(c b rho_a) and Re Tr(c rho_ba).

    rho_a = a rho a / Tr(a rho) and rho_ba = b rho_a b / Tr(b rho_a); the
    list stops after the first conditioning weight below 1e-12.
    """
    am, bm, cm = a.elements, b.elements, c.elements
    mu_a = float(np.real(np.trace(am @ rho.elements)))
    if mu_a < 1e-12:
        return [mu_a]
    rho_a = am @ rho.elements @ am / mu_a
    mu_b_a = float(np.real(np.trace(bm @ rho_a)))
    if mu_b_a < 1e-12:
        return [mu_a, mu_b_a]
    rho_ba = bm @ rho_a @ bm / mu_b_a
    mu_cb_a = float(np.real(np.trace(cm @ bm @ rho_a)))
    return [mu_a, mu_b_a, mu_cb_a, float(np.real(np.trace(cm @ rho_ba)))]


def record_overlap(a, b) -> float:
    """Re Tr(A B) of two record states, the mixed-record orthogonality defect."""
    return float(np.real(np.trace(_record_matrix(a) @ _record_matrix(b))))


def conditional_g(rho_sm: DensityMatrix, record: Projector, proposition: Projector) -> float:
    if proposition.dim * record.dim != rho_sm.dim:
        raise ValueError("proposition and record dimensions must factor the joint state")
    record_full = np.kron(np.eye(proposition.dim, dtype=complex), record.elements)
    joint_full = np.kron(proposition.elements, record.elements)
    p_record = float(np.real(np.trace(record_full @ rho_sm.elements)))
    if p_record < 1e-12:
        return UNDEFINED_CONDITIONAL
    p_joint = float(np.real(np.trace(joint_full @ rho_sm.elements)))
    return p_joint / p_record


def conditional_system_state(
    rho_sm: DensityMatrix, model: MemoryModel, outcome: int
) -> DensityMatrix:
    rec_proj = _record_support_projector(model.record_states[outcome])
    full = np.kron(np.eye(2**model.system_qubits, dtype=complex), rec_proj.elements)
    pinched = full @ rho_sm.elements @ full
    weight = float(np.real(np.trace(pinched)))
    _require(weight >= 1e-12, "outcome {} has no weight in the joint state", outcome)
    pinched = pinched / weight
    sys_qubits = range(model.system_qubits)
    return partial_trace(
        DensityMatrix(pinched, model.system_qubits + model.record_qubits), sys_qubits
    )


def pointer_commutator_defect(hamiltonians: HamiltonianSpec, observable: np.ndarray) -> float:
    obs = np.asarray(observable, dtype=complex)
    full_obs = np.kron(obs, np.eye(hamiltonians.environment_dim, dtype=complex))
    total = hamiltonians.total()
    comm = total @ full_obs - full_obs @ total
    return float(np.max(np.abs(comm)))
