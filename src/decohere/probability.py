"""Probability constructions on decohered states, checked numerically.

Covers the equal-likelihood route (uniform outcomes after full dephasing
and their breakdown under label permutations before it), the ancilla
coarse-graining that reduces unequal weights to counting, and the
classical sum/product rules evaluated as identities on projective events.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from .dephasing import DephasingChannel, _pointer_coefficients
from .states import (
    DensityMatrix,
    Projector,
    PureState,
    born_probability,
    _expectation,
    _frame_defect,
    _hermiticity_defect,
    _readonly,
    _require,
)

SUM_TOL = 1e-12
EQUAL_MAGNITUDE_TOL = 1e-10
COMMUTATOR_TOL = 1e-12
RANK_TOL = 1e-10
UNDEFINED_CONDITIONAL = float("nan")


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Finite outcome distribution: entries in [0, 1] summing to 1 (1e-12)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size == 0:
            raise ValueError("probability vector must be nonempty")
        _require(
            np.all((vals >= -SUM_TOL) & (vals <= 1.0 + SUM_TOL)), "probabilities must lie in [0, 1]"
        )
        total = float(vals.sum())
        _require(abs(total - 1.0) <= SUM_TOL, "probabilities must sum to 1, got {!r}", total)
        object.__setattr__(self, "values", _readonly(np.clip(vals, 0.0, 1.0), dtype=float))

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


@dataclass(frozen=True, eq=False)
class CoarseGraining:
    """Apportionment of M ancilla-expanded states over N outcomes.

    ``degeneracies[k]`` counts the equal-weight cells standing in for
    outcome k; a zero entry means the outcome fell below the resolution of
    the expansion and is flagged via ``zero_probability_cells``.
    """

    probabilities: ProbabilityVector
    total_states: int
    degeneracies: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.degeneracies):
            raise ValueError("degeneracies must be nonnegative")
        if sum(self.degeneracies) != self.total_states:
            raise ValueError("degeneracies must sum to the expanded dimension")
        if len(self.degeneracies) != len(self.probabilities):
            raise ValueError("one degeneracy per outcome required")

    @property
    def outcome_count(self) -> int:
        return len(self.probabilities)

    @property
    def zero_probability_cells(self) -> bool:
        return any(n == 0 for n in self.degeneracies)


def uniform_outcome_probabilities(
    psi: PureState, channel: DephasingChannel
) -> ProbabilityVector:
    """Outcome distribution of an equal-magnitude state after full dephasing.

    Requires every pointer-frame coefficient of ``psi`` to have the same
    magnitude (within 1e-10); phases are free and are erased by the
    channel, leaving exactly 1/N per outcome.
    """
    if channel.dim != psi.dim:
        raise ValueError("channel dimension does not match state")
    coeffs = _pointer_coefficients(channel._frame_key, psi.amplitudes)
    mags = np.abs(coeffs)
    _require(
        float(mags.max() - mags.min()) <= EQUAL_MAGNITUDE_TOL,
        "pointer-frame magnitudes are unequal; use born_probability directly",
    )
    return ProbabilityVector(mags**2)


def permutation_distinguishability(
    psi: Union[PureState, np.ndarray],
    permutation: Sequence[int],
    measurement: Sequence[np.ndarray],
) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Outcome distributions of a state and its label-permuted twin.

    No decoherence is applied: coherent states generally distinguish the
    two, while any diagonal (decohered) equal-weight mixture cannot.  The
    measurement must be a complete orthonormal basis of the state space;
    the state may have any dimension (outcome labels need not fill a qubit
    register).
    """
    amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=complex)
    amps = amps.reshape(-1)
    dim = amps.size
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(dim)):
        raise ValueError("not a permutation of the basis labels")
    frame = np.column_stack([np.asarray(m, dtype=complex).reshape(-1) for m in measurement])
    if frame.shape != (dim, dim):
        raise ValueError("measurement must contain dim orthonormal vectors")
    defect = _frame_defect(frame)
    message = "measurement basis not orthonormal: defect {!r}"
    _require(defect <= EQUAL_MAGNITUDE_TOL, message, defect)

    permuted = np.empty_like(amps)
    permuted[perm] = amps
    probs = np.abs(frame.conj().T @ amps) ** 2
    probs_perm = np.abs(frame.conj().T @ permuted) ** 2
    return ProbabilityVector(probs), ProbabilityVector(probs_perm)


def coarse_grain(p: ProbabilityVector, total_states: int) -> CoarseGraining:
    """Largest-remainder apportionment of ``total_states`` cells to weights p.

    Every quota is rounded within one cell, so max_k |p_k - n_k/M| <= 1/M.
    Outcomes squeezed to zero cells are flagged on the result rather than
    rejected.
    """
    m = int(total_states)
    n_outcomes = len(p)
    if m < n_outcomes:
        raise ValueError(f"need at least {n_outcomes} states, got {m}")
    quotas = p.values * m
    counts = np.floor(quotas).astype(int)
    leftovers = m - int(counts.sum())
    remainders = quotas - counts
    # Ties broken by outcome order for determinism.
    order = sorted(range(n_outcomes), key=lambda k: (-remainders[k], k))
    for k in order[:leftovers]:
        counts[k] += 1
    return CoarseGraining(p, m, tuple(int(c) for c in counts))


def reconstruct_reduced(grouping: CoarseGraining) -> tuple[np.ndarray, float]:
    """Group-sum the flat expanded state back to outcome weights.

    The M-dimensional maximally mixed expansion gives each ancilla cell
    weight 1/M, so outcome k's block of n_k cells sums to n_k / M.  Returns
    the reduced diagonal matrix diag(n_k / M) together with the worst-case
    deviation max_k |p_k - n_k/M| from the original weights.
    """
    weights = np.array(grouping.degeneracies, dtype=float) / grouping.total_states
    deviation = float(np.max(np.abs(grouping.probabilities.values - weights)))
    return np.diag(weights.astype(complex)), deviation


def _as_density(state: Union[PureState, DensityMatrix]) -> DensityMatrix:
    return state.to_density_matrix() if isinstance(state, PureState) else state


def _union_and_intersection(b: Projector, c: Projector) -> tuple[Projector, Projector]:
    """Span and intersection projectors of two noncommuting subspaces.

    Both are read off the spectrum of b + c (eigenvalue > 0 spans the
    union, eigenvalue 2 marks the intersection).
    """
    bm, cm = b.elements, c.elements
    eigvals, eigvecs = np.linalg.eigh(bm + cm)
    join_basis = eigvecs[:, eigvals > RANK_TOL]
    meet_basis = eigvecs[:, eigvals > 2.0 - RANK_TOL]
    join = Projector(join_basis @ join_basis.conj().T, join_basis.shape[1])
    if meet_basis.shape[1] == 0:
        meet = Projector(np.zeros_like(bm), 0)
    else:
        meet = Projector(meet_basis @ meet_basis.conj().T, meet_basis.shape[1])
    return join, meet


def sum_rule_violation(
    state: Union[PureState, DensityMatrix], b: Projector, c: Projector
) -> float:
    """|mu(b or c) - mu(b) - mu(c) + mu(b and c)| for projective events.

    Zero for commuting (decohered, pointer-diagonal) events; interference
    between noncommuting subspaces makes it finite.  The commuting case
    uses the exact algebraic forms of the join and meet and skips the
    spectral construction, so exhaustive event sweeps stay cheap.
    """
    rho = _as_density(state)
    if b.dim != rho.dim or c.dim != rho.dim:
        raise ValueError("projector dimensions must match the state")
    bm, cm, rm = b.elements, c.elements, rho.elements
    bc = bm @ cm
    # For Hermitian projectors cb = (bc)^H, so one product tests commutation.
    if _hermiticity_defect(bc) <= COMMUTATOR_TOL:
        # join - b - c + meet is one matrix, so one trace gives the whole sum.
        return abs(_expectation((bm + cm - bc) - bm - cm + bc, rm))
    join_p, meet_p = _union_and_intersection(b, c)
    mu_join = born_probability(rho, join_p)
    mu_meet = born_probability(rho, meet_p) if meet_p.rank else 0.0
    return abs(mu_join - born_probability(rho, b) - born_probability(rho, c) + mu_meet)


def conditional_product_check(
    rho: DensityMatrix, a: Projector, b: Projector, c: Projector
) -> float:
    """|mu(cb|a) - mu(c|ba) mu(b|a)| for pairwise commuting events.

    Conditionals are ratios of Born probabilities (classical conditioning
    on commuting events).  Returns NaN - the undefined-conditional flag -
    when a conditioning event has vanishing probability.
    """
    _require(a.dim == b.dim == c.dim == rho.dim, "projector dimensions must match the state")
    am, rm = a.elements, rho.elements
    ab, ac, bc = (x @ y for x, y in combinations((am, b.elements, c.elements), 2))
    for xy in (ab, ac, bc):
        defect = _hermiticity_defect(xy)
        _require(defect <= COMMUTATOR_TOL, "projectors must commute pairwise, defect {!r}", defect)
    # Hermitian a, b, c, rho: Tr(ba rho), Tr(cba rho) conjugate Tr(ab rho), Tr(a(bc) rho).
    mu_a, mu_ba, mu_cba = (_expectation(x, rm) for x in (am, ab, am @ bc))
    if mu_a < SUM_TOL or mu_ba < SUM_TOL:
        return UNDEFINED_CONDITIONAL
    return abs(mu_cba / mu_a - (mu_cba / mu_ba) * (mu_ba / mu_a))
