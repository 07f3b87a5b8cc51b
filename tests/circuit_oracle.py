"""Gate-by-gate circuit application, as it was before runs were compiled.

Each gate is applied in turn by index arithmetic on the amplitude tensor,
and the result goes through the public ``PureState`` constructor (a copy
and the norm check).  The tests compare the compiled ``apply`` in
``decohere.circuits`` against this.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from decohere.circuits import _SQRT_HALF, Circuit, Gate, GateKind
from decohere.states import PureState, check_qubits


def _apply_gate(amps: np.ndarray, gate: Gate, width: int) -> np.ndarray:
    """Apply one gate in place on a writable amplitude tensor view."""
    arr = amps.reshape((2,) * width)
    t = gate.target
    if gate.kind is GateKind.PAULI_X:
        lo = np.take(arr, 0, axis=t)
        hi = np.take(arr, 1, axis=t)
        _assign(arr, t, 0, hi)
        _assign(arr, t, 1, lo)
    elif gate.kind is GateKind.PAULI_Y:
        lo = np.take(arr, 0, axis=t)
        hi = np.take(arr, 1, axis=t)
        _assign(arr, t, 0, -1j * hi)
        _assign(arr, t, 1, 1j * lo)
    elif gate.kind is GateKind.PAULI_Z:
        hi = np.take(arr, 1, axis=t)
        _assign(arr, t, 1, -hi)
    elif gate.kind is GateKind.HADAMARD:
        lo = np.take(arr, 0, axis=t)
        hi = np.take(arr, 1, axis=t)
        _assign(arr, t, 0, (lo + hi) * _SQRT_HALF)
        _assign(arr, t, 1, (lo - hi) * _SQRT_HALF)
    elif gate.kind is GateKind.CNOT:
        c = gate.control
        sel = [slice(None)] * width
        sel[c] = 1
        sub = arr[tuple(sel)]
        t_sub = t - 1 if t > c else t
        arr[tuple(sel)] = np.flip(sub, axis=t_sub).copy()
    else:
        raise ValueError(f"unsupported gate kind {gate.kind!r}")
    return amps


def _assign(arr: np.ndarray, axis: int, index: int, values: np.ndarray) -> None:
    sel = [slice(None)] * arr.ndim
    sel[axis] = index
    arr[tuple(sel)] = values


def apply(state: PureState, op: Union[Gate, Circuit]) -> PureState:
    if isinstance(op, Gate):
        gates: Iterable[Gate] = (op,)
    elif isinstance(op, Circuit):
        if op.width != state.num_qubits:
            raise ValueError(
                f"circuit width {op.width} does not match register of {state.num_qubits}"
            )
        gates = op.gates
    else:
        raise TypeError("op must be a Gate or a Circuit")

    amps = state.amplitudes.copy()
    for g in gates:
        touched = (g.target,) if g.control is None else (g.control, g.target)
        check_qubits(touched, state.num_qubits)
        amps = _apply_gate(amps, g, state.num_qubits)
    return PureState(amps, state.num_qubits)
