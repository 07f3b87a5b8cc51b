"""The calls the benchmark makes into decohere, and the two ways of making them.

Every request reaches the program only through a caller, ``call(name, *args,
variant=None, **kwargs)``, where ``name`` is ``<module>.<function>`` from
``LAYERS``.  ``direct`` forwards the call and nothing else; ``Tracer`` also
records a span around it.  Spans are taken here, in the benchmark's own
files, around each call into a package module, so the program itself is
unchanged by tracing.
"""

from __future__ import annotations

import json
from time import perf_counter

from decohere import circuits, cli, dephasing, probability, records, redundancy, sieve, states

LAYERS = {
    "states.PureState": states.PureState,
    "states.DensityMatrix": states.DensityMatrix,
    "states.to_density_matrix": states.PureState.to_density_matrix,
    "states.partial_trace": states.partial_trace,
    "states.Projector.onto_basis_states": states.Projector.onto_basis_states,
    "states.Projector.onto_vector": states.Projector.onto_vector,
    "circuits.premeasurement": circuits.premeasurement,
    "circuits.decoherence_chain": circuits.decoherence_chain,
    "circuits.apply": circuits.apply,
    "dephasing.channel_from_spec": dephasing.channel_from_spec,
    "dephasing.dephase": dephasing.dephase,
    "redundancy.EnvironmentRecord": redundancy.EnvironmentRecord,
    "redundancy.JointState": redundancy.JointState,
    "redundancy.environment_record": redundancy.environment_record,
    "redundancy.redundancy_distance": redundancy.redundancy_distance,
    "redundancy.verify_metric_axioms": redundancy.verify_metric_axioms,
    "redundancy.error_robustness": redundancy.error_robustness,
    "sieve.uniform_grid": sieve.uniform_grid,
    "sieve.DynamicsSpec": sieve.DynamicsSpec,
    "sieve.bloch_grid": sieve.bloch_grid,
    "sieve.bloch_state": sieve.bloch_state,
    "sieve.sieve_rank": sieve.sieve_rank,
    "probability.ProbabilityVector": probability.ProbabilityVector,
    "probability.coarse_grain": probability.coarse_grain,
    "probability.reconstruct_reduced": probability.reconstruct_reduced,
    "probability.sum_rule_violation": probability.sum_rule_violation,
    "records.MemoryModel": records.MemoryModel,
    "records.RecordSequence": records.RecordSequence,
    "records.branch_count": records.branch_count,
    "records.compressibility_proxy": records.compressibility_proxy,
    "cli.ResultArtifact": cli.ResultArtifact,
    "cli.write": cli.ResultArtifact.write,
}

# Calls whose time is also split by the path the program takes; the request
# names the path, since the benchmark generated the input that selects it.
VARIANTS = {
    "sieve.sieve_rank": ("closed_form", "split_step"),
    "dephasing.dephase": ("computational", "hadamard"),
    "probability.sum_rule_violation": ("commuting", "spectral"),
}


def direct(name, *args, variant=None, **kwargs):
    """Caller that forwards each call untimed (the end-to-end runs)."""
    return LAYERS[name](*args, **kwargs)


class Tracer:
    """Caller that records one span per call, kept in memory.

    A span is ``(request, name, variant, start, end, ok)``; ``request`` is
    the index of the request that caused it, whose own span the run loop
    records through ``request_span``.
    """

    def __init__(self) -> None:
        self.request = None
        self.spans: list[tuple] = []
        self.request_spans: list[tuple] = []

    def __call__(self, name, *args, variant=None, **kwargs):
        fn = LAYERS[name]
        ok = False
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.spans.append((self.request, name, variant, start, perf_counter(), ok))

    def request_span(self, index: int, kind: str, start: float, end: float, ok: bool) -> None:
        self.request_spans.append((index, kind, start, end, ok))

    def layer_totals(self) -> dict[str, float]:
        """Per-call ``.calls``, ``.s`` and ``.failed`` plus the variant splits.

        The benchmark's spans do not nest inside one another (each sits
        directly under its request), so a span's busy time is its duration.
        """
        totals = {}
        for name in LAYERS:
            totals[f"{name}.calls"] = 0
            totals[f"{name}.s"] = 0.0
            totals[f"{name}.failed"] = 0
        for name, variants in VARIANTS.items():
            for variant in variants:
                totals[f"{name}.{variant}.s"] = 0.0
        for _, name, variant, start, end, ok in self.spans:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.failed"] += 0 if ok else 1
            if variant is not None:
                totals[f"{name}.{variant}.s"] += end - start
        return totals

    def dump(self, handle, pass_index: int) -> None:
        """Write this pass's spans as JSON lines; a layer span's parent is its request span."""
        for index, kind, start, end, ok in self.request_spans:
            handle.write(json.dumps({
                "id": f"{pass_index}:{index}", "parent": None, "name": f"request.{kind}",
                "start": start, "end": end, "ok": ok,
            }) + "\n")
        for index, name, variant, start, end, ok in self.spans:
            handle.write(json.dumps({
                "id": None, "parent": f"{pass_index}:{index}", "name": name,
                "variant": variant, "start": start, "end": end, "ok": ok,
            }) + "\n")

