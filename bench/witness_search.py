"""witness-search: combinatorial enumeration over small vectors (<= 256 amplitudes).

Request kinds, with the size multiset fixed and only the content seeded:

* ``distance``: ``redundancy_distance`` between a random product record on
  4-8 qubits and a copy carrying planted X/Y/Z flips (weight 0-4), plus one
  pair per size that no flip assignment connects (the 8-qubit one searches
  all 4^8 assignments);
* ``robustness``: ``error_robustness`` on GHZ records, N = 3, 5, 7, both
  bases, every error count k, with the system on qubit k;
* ``axioms``: ``verify_metric_axioms`` over four flipped copies of one record
  at 4-6 qubits;
* ``sum_rule``: ``sum_rule_violation`` on commuting and non-commuting
  ``Projector`` pairs;
* ``compress``: ``compressibility_proxy`` on 4096-symbol sequences, derived
  (periodic) and random.

Random records keep every Bloch component of every qubit within 0.95, so a
Pauli that differs from the planted one on any qubit scales the overlap by
at most 0.95; the planted assignment is then the only match, its weight is
the distance, and its place in the search order gives the number of
assignments tried.
"""

from __future__ import annotations

import math
from itertools import combinations, groupby, product

import numpy as np

from common import Request, close, expect, stratified

# Whether the calibration kernel includes memory work (see run.Calibration).
MEMORY_BOUND = False

DISTANCE_QUBITS = range(4, 9)
DISTANCE_WEIGHTS = stratified({0: 2, 1: 2, 2: 2, 3: 2, 4: 1})
ROBUSTNESS_SIZES = (3, 5, 7)
AXIOM_QUBITS = (4, 5, 6, 4, 5, 6)
SUM_RULE_QUBITS = stratified({2: 4, 3: 4, 4: 4})
ALPHABETS = (2, 3, 4, 5)
SEQUENCE_LENGTH = 4096
MAX_COMPONENT = 0.95
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _random_qubits(rng, n: int) -> list[np.ndarray]:
    """n single-qubit states whose Bloch components all lie within 0.95."""
    qubits = []
    while len(qubits) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if np.max(np.abs(v)) > MAX_COMPONENT:
            continue
        theta, phi = math.acos(v[2]), math.atan2(v[1], v[0])
        qubits.append(np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]))
    return qubits


def _product(qubits, flips: dict, phase: complex = 1.0) -> np.ndarray:
    out = np.array([phase], dtype=complex)
    for q, amp in enumerate(qubits):
        out = np.kron(out, PAULI[flips[q]] @ amp if q in flips else amp)
    return out


def _search_order(n: int, weight: int) -> list[tuple]:
    """Assignments of one weight in the order the flip search tries them."""
    return [(qubits, paulis) for qubits in combinations(range(n), weight)
            for paulis in product("XYZ", repeat=weight)]


def _planted_flips(rng, n: int, weight: int) -> dict:
    """A flip assignment from the middle fiftieth of the search order of its weight.

    The search stops at the planted assignment, so drawing it from a narrow
    window keeps each request's work the same, within 2%, for every seed.
    """
    order = _search_order(n, weight)
    lo = int(0.49 * len(order))
    hi = max(lo + 1, math.ceil(0.51 * len(order)))
    qubits, paulis = order[int(rng.integers(lo, hi))]
    return dict(zip(qubits, paulis))


def _assignments_tried(n: int, flips) -> int:
    """Position of ``flips`` in the search order (by weight, then qubits, then X<Y<Z), 1-based.

    ``None`` means no assignment matches and all 4^n are tried.
    """
    if flips is None:
        return 4**n
    w = len(flips)
    before = sum(math.comb(n, f) * 3**f for f in range(w))
    qubits = tuple(sorted(flips))
    return before + _search_order(n, w).index((qubits, tuple(flips[q] for q in qubits))) + 1


def _compose(a: dict, b: dict) -> dict:
    """Per-qubit product of two flip assignments, up to phase."""
    out = {}
    for q in set(a) | set(b):
        pa, pb = a.get(q), b.get(q)
        if pa is None or pb is None:
            out[q] = pa or pb
        elif pa != pb:
            out[q] = ({"X", "Y", "Z"} - {pa, pb}).pop()
    return out


def _record(call, amplitudes, n):
    return call("redundancy.EnvironmentRecord", amplitudes, 1.0, n)


# --- distance ----------------------------------------------------------------

def _distance_request(rng, n: int, weight) -> Request:
    base = _random_qubits(rng, n)
    if weight is None:
        flips, other = None, _product(_random_qubits(rng, n), {})
    else:
        flips = _planted_flips(rng, n, weight)
        other = _product(base, flips, np.exp(2j * np.pi * rng.uniform()))
    data = {"n": n, "a": _product(base, {}), "b": other,
            "want": math.inf if flips is None else float(weight)}
    counts = {"redundancy.flip_assignments": _assignments_tried(n, flips)}
    size = (n, "unconnectable" if weight is None else weight)
    return Request("distance", size, data, _run_distance, _check_distance, counts)


def _run_distance(call, d):
    n = d["n"]
    return call("redundancy.redundancy_distance", _record(call, d["a"], n), _record(call, d["b"], n))


def _check_distance(d, distance) -> dict:
    expect(distance == d["want"], f"flip distance {distance!r}, planted {d['want']!r}")
    return {}


# --- robustness --------------------------------------------------------------

def _robustness_request(n_env: int, basis: str, k: int) -> Request:
    """GHZ record with the system on qubit ``k``.

    The system's position changes the cost by up to 15%, so it is part of
    the size, not drawn from the seed; these requests differ between seeds
    only in their place in the pass.
    """
    if basis == "pointer":
        want = sum(math.comb(k, j) for j in range(min(k, (n_env - 1) // 2) + 1)) / 2**k
    else:
        want = 1.0 if k == 0 else 0.5
    data = {"n_env": n_env, "basis": basis, "k": k, "system": k, "want": want}
    counts = {"redundancy.patterns": math.comb(n_env, k)}
    return Request("robustness", (n_env, basis, k, k), data, _run_robustness, _check_robustness, counts)


def _run_robustness(call, d):
    n = d["n_env"] + 1
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    s = d["system"]
    joint = call("redundancy.JointState", call("states.PureState", amps, n), (s,),
                 tuple(q for q in range(n) if q != s))
    return call("redundancy.error_robustness", joint, d["basis"], d["k"])


def _check_robustness(d, value) -> dict:
    close(value, d["want"], 1e-9, f"{d['basis']} robustness, N={d['n_env']}, k={d['k']}")
    return {}


# --- axioms ------------------------------------------------------------------

def _axioms_request(rng, n: int) -> Request:
    """Records I, P, Q and PQ applied to one product state, P and Q single flips on different qubits.

    Every pairwise distance is 1 or 2, and d(P, Q) = d(P, I) + d(I, Q)
    makes the triangle inequality tight.
    """
    base = _random_qubits(rng, n)
    a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
    p, q = ({a: "XYZ"[int(rng.integers(3))]}, {b: "XYZ"[int(rng.integers(3))]})
    flips = [{}, p, q, _compose(p, q)]
    m = len(flips)
    want = np.zeros((m, m))
    tried = 0
    for i in range(m):
        for j in range(m):
            if i != j:
                between = _compose(flips[i], flips[j])
                want[i, j] = len(between)
                tried += _assignments_tried(n, between)
    phases = np.exp(2j * np.pi * rng.uniform(size=m))
    data = {"n": n, "records": [_product(base, f, phase) for f, phase in zip(flips, phases)], "want": want}
    counts = {"redundancy.flip_assignments": tried}
    return Request("axioms", (n,), data, _run_axioms, _check_axioms, counts)


def _run_axioms(call, d):
    records = [_record(call, amps, d["n"]) for amps in d["records"]]
    return call("redundancy.verify_metric_axioms", records)


def _check_axioms(d, report) -> dict:
    expect(report.satisfied, f"metric axioms violated: {report.violations[:3]}")
    expect(np.array_equal(report.distances, d["want"]), "pairwise distances differ from planted flips")
    return {}


# --- sum rule ----------------------------------------------------------------

def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _sum_rule_request(rng, q: int, commuting: bool) -> Request:
    dim = 2**q
    rho = _random_density(rng, dim)
    if commuting:
        events = [sorted(int(k) for k in rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
                  for _ in range(2)]
        want = 0.0
    else:
        events = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2)]
        u, v = (e / np.linalg.norm(e) for e in events)
        w = v - np.vdot(u, v) * u
        w /= np.linalg.norm(w)
        mu = [float(np.vdot(x, rho @ x).real) for x in (u, v, w)]
        # The join is the plane spanned by u and v (orthonormal pair u, w); the meet is empty.
        want = abs(mu[0] + mu[2] - mu[0] - mu[1])
    data = {"q": q, "rho": rho, "events": events, "commuting": commuting, "want": want}
    variant = "commuting" if commuting else "spectral"
    return Request("sum_rule", (q, variant), data, _run_sum_rule, _check_sum_rule)


def _run_sum_rule(call, d):
    dim = 2 ** d["q"]
    rho = call("states.DensityMatrix", d["rho"], d["q"])
    if d["commuting"]:
        b, c = (call("states.Projector.onto_basis_states", dim, e) for e in d["events"])
        variant = "commuting"
    else:
        b, c = (call("states.Projector.onto_vector", e) for e in d["events"])
        variant = "spectral"
    return call("probability.sum_rule_violation", rho, b, c, variant=variant)


def _check_sum_rule(d, value) -> dict:
    close(value, d["want"], 1e-12 if d["commuting"] else 1e-9, "sum-rule violation")
    return {}


# --- compress ----------------------------------------------------------------

def _reference_ratio(symbols, alphabet_size: int) -> float:
    """The two-stage coder's length ratio, recomputed from its definition."""
    runs = [len(list(group)) for _, group in groupby(symbols)]
    freq = np.bincount(runs)[1:]
    freq = freq[freq > 0] / len(runs)
    length_entropy = float(-(freq * np.log2(freq)).sum())
    bits = (math.log2(alphabet_size) + (len(runs) - 1) * math.log2(alphabet_size - 1)
            + len(runs) * length_entropy)
    return bits / (len(symbols) * math.log2(alphabet_size))


def _compress_request(rng, alphabet_size: int, derived: bool) -> Request:
    if derived:
        order = [int(s) for s in rng.permutation(alphabet_size)]
        run = int(rng.integers(4, 17))
        symbols = tuple(order[(i // run) % alphabet_size] for i in range(SEQUENCE_LENGTH))
    else:
        symbols = tuple(int(s) for s in rng.integers(alphabet_size, size=SEQUENCE_LENGTH))
    data = {"symbols": symbols, "alphabet": tuple(range(alphabet_size)), "derived": derived,
            "want": _reference_ratio(symbols, alphabet_size)}
    counts = {"records.symbols": SEQUENCE_LENGTH}
    size = (alphabet_size, "derived" if derived else "random")
    return Request("compress", size, data, _run_compress, _check_compress, counts)


def _run_compress(call, d):
    return call("records.compressibility_proxy", call("records.RecordSequence", d["symbols"], d["alphabet"]))


def _check_compress(d, ratio) -> dict:
    close(ratio, d["want"], 1e-12, "compressibility ratio")
    if d["derived"]:
        expect(ratio < 0.5, f"derived record compresses only to {ratio!r}")
    else:
        expect(ratio > 0.8, f"random record compresses to {ratio!r}")
    return {}


def build(rng, workdir: str) -> list[Request]:
    requests = [_distance_request(rng, n, w) for n in DISTANCE_QUBITS for w in DISTANCE_WEIGHTS + [None]]
    requests += [_robustness_request(n, basis, k)
                 for n in ROBUSTNESS_SIZES for basis in ("pointer", "hadamard") for k in range(n + 1)]
    requests += [_axioms_request(rng, n) for n in AXIOM_QUBITS]
    requests += [_sum_rule_request(rng, q, i % 2 == 0) for i, q in enumerate(SUM_RULE_QUBITS)]
    requests += [_compress_request(rng, a, derived) for a in ALPHABETS for derived in (True, False)]
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]
