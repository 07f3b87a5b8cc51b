import math
from itertools import permutations

import numpy as np
import pytest
import trace_oracle

from decohere import probability
from decohere.dephasing import DephasingChannel
from decohere.probability import (
    CoarseGraining,
    ProbabilityVector,
    coarse_grain,
    conditional_product_check,
    permutation_distinguishability,
    reconstruct_reduced,
    sum_rule_violation,
    uniform_outcome_probabilities,
)
from decohere.states import DensityMatrix, Projector, PureState, _expectation, born_probability

RNG = np.random.default_rng(31)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def random_density(n: int) -> DensityMatrix:
    d = 2**n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix.from_matrix(mat / np.trace(mat))


def test_probability_vector_validation():
    with pytest.raises(ValueError, match="sum"):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError, match="lie in"):
        ProbabilityVector([1.5, -0.5])


# --- uniform outcomes --------------------------------------------------------


def test_uniform_outcomes_random_phases():
    phases = RNG.uniform(0, 2 * math.pi, 4)
    psi = PureState.from_amplitudes(np.exp(1j * phases) / 2.0)
    probs = uniform_outcome_probabilities(psi, DephasingChannel.computational(2, 1.0))
    assert np.max(np.abs(probs.values - 0.25)) < 1e-12


def test_uniform_outcomes_plus_state():
    psi = PureState.from_amplitudes(np.array([1.0, 1.0]) * SQ2)
    probs = uniform_outcome_probabilities(psi, DephasingChannel.computational(1, 1.0))
    assert np.allclose(probs.values, [0.5, 0.5], atol=1e-12)


def test_uniform_outcomes_alternating_signs():
    signs = np.array([1, -1] * 4, dtype=float)
    psi = PureState.from_amplitudes(signs / math.sqrt(8.0))
    probs = uniform_outcome_probabilities(psi, DephasingChannel.computational(3, 1.0))
    assert np.max(np.abs(probs.values - 0.125)) < 1e-12


def test_uniform_outcomes_reject_unequal_magnitudes():
    psi = PureState.from_amplitudes([0.6, 0.8])
    with pytest.raises(ValueError, match="unequal"):
        uniform_outcome_probabilities(psi, DephasingChannel.computational(1, 1.0))


def test_born_weights_of_a_state_inside_the_norm_tolerance():
    # |psi|^2 - 1 = -1.9e-11: inside PureState's 1e-10, outside the 1e-12 sum check.
    psi = PureState.from_amplitudes([0.70710678118, 0.70710678118])
    uniform = uniform_outcome_probabilities(psi, DephasingChannel.computational(1, 1.0))
    for probs in (uniform, *permutation_distinguishability(psi, [1, 0], np.eye(2))):
        assert np.array_equal(probs.values, [0.5, 0.5])


# --- permutations ------------------------------------------------------------


def worked_example():
    psi = np.array([1.0, 1.0, -1.0]) * SQ3
    perm = [2, 1, 0]  # swap labels 1 <-> 3 (0-indexed 0 <-> 2)
    measurement = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 1.0]) * SQ2,
        np.array([0.0, 1.0, -1.0]) * SQ2,
    ]
    return psi, perm, measurement


def test_permutation_distinguishes_coherent_state():
    psi, perm, measurement = worked_example()
    original, permuted = permutation_distinguishability(psi, perm, measurement)
    assert np.allclose(original.values, [1 / 3, 0.0, 2 / 3], atol=1e-12)
    assert np.allclose(permuted.values, [1 / 3, 2 / 3, 0.0], atol=1e-12)


def test_identity_permutation_changes_nothing():
    psi, _, measurement = worked_example()
    original, permuted = permutation_distinguishability(psi, [0, 1, 2], measurement)
    assert np.allclose(original.values, permuted.values, atol=1e-15)


def test_permutations_invisible_after_decoherence():
    # Equal magnitudes + pointer measurement: every relabeling looks the same.
    for n_dim in (2, 3, 4, 5):
        phases = RNG.uniform(0, 2 * math.pi, n_dim)
        psi = np.exp(1j * phases) / math.sqrt(n_dim)
        pointer = [np.eye(n_dim)[:, k] for k in range(n_dim)]
        base, _ = permutation_distinguishability(psi, list(range(n_dim)), pointer)
        for perm in permutations(range(n_dim)):
            _, permuted = permutation_distinguishability(psi, list(perm), pointer)
            assert np.allclose(base.values, permuted.values, atol=1e-12)


def test_permutation_rejects_non_permutation():
    psi, _, measurement = worked_example()
    with pytest.raises(ValueError, match="permutation"):
        permutation_distinguishability(psi, [0, 0, 2], measurement)


def test_permutation_rejects_unnormalized_array_as_a_state():
    _, perm, measurement = worked_example()
    with pytest.raises(ValueError, match=r"state not normalized: \|psi\|\^2 = 3.0"):
        permutation_distinguishability(np.array([1.0, 1.0, 1.0]), perm, measurement)


def test_permutation_rejects_skew_measurement():
    psi, perm, _ = worked_example()
    skew = [np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0]) * SQ2, np.array([0, 0, 1.0])]
    with pytest.raises(ValueError, match="orthonormal"):
        permutation_distinguishability(psi, perm, skew)


def test_permutation_rejects_nan_measurement_as_not_orthonormal():
    psi, perm, measurement = worked_example()
    measurement = [measurement[0] * np.nan] + list(measurement[1:])
    with pytest.raises(ValueError, match="orthonormal"):
        permutation_distinguishability(psi, perm, measurement)


# --- coarse graining ---------------------------------------------------------


def test_coarse_grain_exact_split():
    grouping = coarse_grain(ProbabilityVector([0.25, 0.75]), 4)
    assert grouping.degeneracies == (1, 3)
    assert not grouping.zero_probability_cells


def test_coarse_grain_largest_remainder():
    grouping = coarse_grain(ProbabilityVector([1 / 3, 2 / 3]), 4)
    assert grouping.degeneracies == (1, 3)


def test_coarse_grain_single_outcome():
    grouping = coarse_grain(ProbabilityVector([1.0]), 7)
    assert grouping.degeneracies == (7,)


def test_coarse_grain_rejects_insufficient_states():
    with pytest.raises(ValueError, match="at least"):
        coarse_grain(ProbabilityVector([0.5, 0.5]), 1)


def test_coarse_grain_flags_starved_outcome():
    grouping = coarse_grain(ProbabilityVector([0.999, 0.001]), 2)
    assert grouping.degeneracies == (2, 0)
    assert grouping.zero_probability_cells


def test_coarse_grain_deviation_bound():
    for _ in range(20):
        n_outcomes = int(RNG.integers(2, 6))
        raw = RNG.random(n_outcomes) + 1e-3
        p = ProbabilityVector(raw / raw.sum())
        m = int(RNG.integers(n_outcomes, 200))
        grouping = coarse_grain(p, m)
        assert grouping.total_states == m
        _, deviation = reconstruct_reduced(grouping)
        assert deviation <= 1.0 / m + 1e-12


def test_degeneracies_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        CoarseGraining(ProbabilityVector([0.5, 0.5]), (3, -1))


def test_reconstruct_exact_case():
    reduced, deviation = reconstruct_reduced(coarse_grain(ProbabilityVector([0.25, 0.75]), 4))
    assert deviation == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(reduced, np.diag([0.25, 0.75]), atol=1e-15)


def test_reconstruct_third_case_deviation():
    _, deviation = reconstruct_reduced(coarse_grain(ProbabilityVector([1 / 3, 2 / 3]), 4))
    assert deviation == pytest.approx(1.0 / 12.0, abs=1e-12)


def _block_sum_reduced(grouping: CoarseGraining) -> tuple[np.ndarray, float]:
    """Reference: sum each outcome's block of the M x M maximally mixed expansion."""
    m = grouping.total_states
    expanded = np.eye(m, dtype=complex) / m
    boundaries = np.cumsum((0,) + grouping.degeneracies)
    reduced = np.zeros((grouping.outcome_count, grouping.outcome_count), dtype=complex)
    for k in range(grouping.outcome_count):
        block = expanded[boundaries[k] : boundaries[k + 1], boundaries[k] : boundaries[k + 1]]
        reduced[k, k] = block.diagonal().sum()
    deviation = float(
        np.max(np.abs(grouping.probabilities.values - reduced.diagonal().real))
    )
    return reduced, deviation


def test_reconstruct_matches_block_sum():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 7, 64, 255, 256, 1000, 1024):
        for _ in range(5):
            n_outcomes = int(rng.integers(1, min(m, 12) + 1))
            raw = rng.random(n_outcomes) ** 3
            grouping = coarse_grain(ProbabilityVector(raw / raw.sum()), m)
            reduced, deviation = reconstruct_reduced(grouping)
            want, want_deviation = _block_sum_reduced(grouping)
            assert reduced.shape == want.shape and reduced.dtype == want.dtype
            assert np.max(np.abs(reduced - want)) <= 1e-15
            assert abs(deviation - want_deviation) <= 1e-15


def test_reconstruct_deviation_shrinks_with_doubling():
    p = ProbabilityVector([1 / 3, 2 / 3])
    prev = math.inf
    m = 4
    while m <= 1024:
        _, deviation = reconstruct_reduced(coarse_grain(p, m))
        assert deviation <= 1.0 / m + 1e-12
        assert deviation <= prev + 1e-12
        prev = deviation
        m *= 2


# --- sum and product rules -----------------------------------------------------


def test_sum_rule_zero_for_pointer_events():
    rho = DensityMatrix.from_matrix(np.diag([0.1, 0.2, 0.3, 0.4]))
    b = Projector.onto_basis_states(4, [0, 1])
    c = Projector.onto_basis_states(4, [1, 2])
    assert sum_rule_violation(rho, b, c) < 1e-12


def test_sum_rule_interference_example():
    psi = PureState.basis(1, 0)
    b = Projector.onto_vector([1.0, 0.0])
    c = Projector.onto_vector(np.array([1.0, 1.0]) * SQ2)
    assert sum_rule_violation(psi, b, c) == pytest.approx(0.5, abs=1e-12)


def test_sum_rule_degenerate_pair():
    rho = random_density(2)
    p = Projector.onto_basis_states(4, [1, 3])
    assert sum_rule_violation(rho, p, p) < 1e-12


def test_sum_rule_exhaustive_commuting_pairs():
    for n_dim in (2, 4):
        diag = RNG.random(n_dim)
        rho = DensityMatrix.from_matrix(np.diag(diag / diag.sum()))
        subsets = range(1 << n_dim)
        projs = [Projector.onto_basis_states(n_dim, [k for k in range(n_dim) if s >> k & 1]) for s in subsets]
        for pb in projs:
            for pc in projs:
                assert sum_rule_violation(rho, pb, pc) < 1e-12


def _four_traces(rm: np.ndarray, bm: np.ndarray, cm: np.ndarray) -> np.ndarray:
    """Commuting-event sum rule as four separate traces; cm may be a stack."""
    bc = bm @ cm
    join = bm + cm - bc

    def mu(a):
        return np.einsum("...ij,ji->...", a, rm).real

    return np.abs(mu(join) - mu(bm) - mu(cm) + mu(bc))


def _spectral_sum_rule(rho: DensityMatrix, b: Projector, c: Projector) -> float:
    """Noncommuting-event sum rule from the spectrum of b + c."""
    eigvals, eigvecs = np.linalg.eigh(b.elements + c.elements)
    join, meet = eigvecs[:, eigvals > 1e-10], eigvecs[:, eigvals > 2.0 - 1e-10]
    mu_join = float(np.real(np.trace(join @ join.conj().T @ rho.elements)))
    mu_meet = float(np.real(np.trace(meet @ meet.conj().T @ rho.elements)))
    return abs(mu_join - born_probability(rho, b) - born_probability(rho, c) + mu_meet)


def _random_unitary(d: int) -> np.ndarray:
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_sum_rule_matches_four_trace_formula():
    rho = random_density(3)
    events = [
        Projector.onto_basis_states(8, [k for k in range(8) if s >> k & 1]) for s in range(256)
    ]
    stack = np.array([p.elements for p in events])
    for pb in events:
        expected = _four_traces(rho.elements, pb.elements, stack)
        got = np.array([sum_rule_violation(rho, pb, pc) for pc in events])
        assert np.max(np.abs(got - expected)) <= 1e-12
    # commuting events in a dense frame
    u = _random_unitary(8)
    rotated = [Projector(u @ p.elements @ u.conj().T) for p in events[::17]]
    for pb in rotated:
        for pc in rotated:
            got = sum_rule_violation(rho, pb, pc)
            expected = float(_four_traces(rho.elements, pb.elements, pc.elements))
            assert abs(got - expected) <= 1e-12
            assert abs(got - trace_oracle.commuting_sum_rule(rho, pb, pc)) <= 1e-12
    # random noncommuting pairs
    for _ in range(200):
        rank_b, rank_c = (int(r) for r in RNG.integers(1, 8, size=2))
        vb, vc = _random_unitary(8)[:, :rank_b], _random_unitary(8)[:, :rank_c]
        pb, pc = Projector(vb @ vb.conj().T), Projector(vc @ vc.conj().T)
        expected = _spectral_sum_rule(rho, pb, pc)
        assert abs(sum_rule_violation(rho, pb, pc) - expected) <= 1e-12


def test_normalization_rule():
    for _ in range(5):
        rho = random_density(2)
        p = Projector.onto_basis_states(4, [0, 2])
        total = born_probability(rho, p) + born_probability(rho, p.complement())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_product_diagonal_example():
    rho = DensityMatrix.maximally_mixed(2)
    a = Projector.onto_basis_states(4, [0, 1])  # qubit 0 in |0>
    b = Projector.onto_basis_states(4, [0, 2])  # qubit 1 in |0>
    c = Projector.onto_basis_states(4, [0, 1])
    assert conditional_product_check(rho, a, b, c) == pytest.approx(0.0, abs=1e-12)


def test_conditional_product_with_identity_condition():
    rho = random_density(2)
    rho = DensityMatrix.from_matrix(np.diag(rho.elements.diagonal().real / np.trace(rho.elements).real))
    a = Projector.identity(4)
    b = Projector.onto_basis_states(4, [1, 3])
    c = Projector.onto_basis_states(4, [2, 3])
    assert conditional_product_check(rho, a, b, c) == pytest.approx(0.0, abs=1e-12)


def test_conditional_product_on_decohered_unions():
    rho = DensityMatrix.from_matrix(np.diag(np.full(4, 0.25)))
    a = Projector.onto_basis_states(4, [0, 1, 2])
    b = Projector.onto_basis_states(4, [1, 2, 3])
    c = Projector.onto_basis_states(4, [0, 2])
    assert conditional_product_check(rho, a, b, c) == pytest.approx(0.0, abs=1e-12)


def test_conditional_product_flags_undefined():
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    a = Projector.onto_basis_states(4, [3])
    b = Projector.onto_basis_states(4, [1])
    c = Projector.onto_basis_states(4, [2])
    assert math.isnan(conditional_product_check(rho, a, b, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_conditional_product_matches_trace_oracle(n, monkeypatch):
    """Every order of the three events, since mu(cb|a) is read off bc.

    Each trace of the sequential conditioning is compared with the oracle's,
    the defect with the one the traces give, and the flag and the value with
    the formula that cancelled mu(cba).
    """
    d = 2**n
    rho = random_density(n)
    u = _random_unitary(d)
    traces = []

    def recorded(op, state):
        traces.append(_expectation(op, state))
        return traces[-1]

    monkeypatch.setattr(probability, "_expectation", recorded)
    for trial in range(20):
        # Pairwise commuting events: random unions of the columns of one dense frame.
        masks = [RNG.random(d) < 0.7 for _ in range(3)]
        if trial == 0:
            masks[1] = ~masks[0]  # b a = 0: the undefined-conditional flag
        events = [Projector((u * m) @ u.conj().T) for m in masks]
        for a, b, c in permutations(events):
            traces.clear()
            got = conditional_product_check(rho, a, b, c)
            expected = trace_oracle.conditional_product_check(rho, a, b, c)
            want = trace_oracle.sequential_product_traces(rho, a, b, c)
            assert len(traces) == len(want)
            assert np.max(np.abs(np.subtract(traces, want))) <= 1e-12
            assert math.isnan(got) == math.isnan(expected) == (len(want) < 4)
            if not math.isnan(expected):
                mu_a, mu_b_a, mu_cb_a, mu_c_ba = want
                assert abs(got - abs(mu_cb_a - mu_c_ba * mu_b_a)) <= 1e-12
                assert abs(got - expected) <= 1e-12


def test_conditional_product_reads_each_conditional(monkeypatch):
    """A pointer-diagonal state with distinct weights and partly overlapping events.

    The formula that cancelled mu(cba) returned 0 for any value of it.  Here
    every trace is checked against the conditionals counted from the weights,
    so the joint trace read off ca, or the state conditioned on b before a,
    fails: either moves the recorded traces and the defect far from 0.
    """
    weights = np.random.default_rng(8).dirichlet(np.ones(8))
    rho = DensityMatrix.from_matrix(np.diag(weights))
    sa, sb, sc = {0, 1, 2, 3, 4}, {1, 2, 5}, {0, 2, 5, 6}
    a, b, c = (Projector.onto_basis_states(8, s) for s in (sa, sb, sc))

    def mu(*events):
        return float(weights[sorted(set.intersection(*events))].sum())

    traces = []

    def recorded(op, state):
        traces.append(_expectation(op, state))
        return traces[-1]

    monkeypatch.setattr(probability, "_expectation", recorded)
    defect = conditional_product_check(rho, a, b, c)
    mu_a, mu_ba, mu_cba = mu(sa), mu(sb, sa), mu(sc, sb, sa)
    want = [mu_a, mu_ba / mu_a, mu_cba / mu_a, mu_cba / mu_ba]
    assert np.max(np.abs(np.subtract(traces, want))) <= 1e-12
    assert defect <= 1e-12
    # The mutants' defects: |mu(ca) - mu(cba)| / mu(a) and |mu(cb) - mu(cab)| / mu(b).
    assert abs(mu(sc, sa) - mu_cba) / mu_a > 0.01
    assert abs(mu(sc, sb) - mu_cba) / mu(sb) > 0.01


def test_conditional_product_rejects_noncommuting():
    rho = DensityMatrix.maximally_mixed(1)
    a = Projector.onto_vector([1.0, 0.0])
    b = Projector.onto_vector(np.array([1.0, 1.0]) * SQ2)
    with pytest.raises(ValueError, match="commute"):
        conditional_product_check(rho, a, b, a)


@pytest.mark.parametrize("wrong", [(0, 1, 2), (1,)], ids=["every-projector", "one-projector"])
def test_conditional_product_rejects_mismatched_dimensions(wrong):
    events = [Projector.identity(4) if k in wrong else Projector.identity(2) for k in range(3)]
    with pytest.raises(ValueError, match="projector dimensions must match the state"):
        conditional_product_check(DensityMatrix.maximally_mixed(1), *events)


@pytest.mark.parametrize("total", [4.7, float("nan"), float("inf"), "4"])
def test_coarse_grain_checks_the_state_count_is_an_integer(total):
    with pytest.raises(ValueError, match="total_states must be an integer"):
        coarse_grain(ProbabilityVector([0.25, 0.75]), total)


def test_coarse_grain_takes_an_integral_float():
    p = ProbabilityVector([0.25, 0.75])
    assert coarse_grain(p, 4.0).degeneracies == coarse_grain(p, np.int64(4)).degeneracies == (1, 3)
