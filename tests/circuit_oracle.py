"""Gate-by-gate circuit application, as it was before runs were compiled.

Each gate is applied in turn by index arithmetic on the amplitude tensor,
and the result goes through the public ``PureState`` constructor (a copy
and the norm check).  The tests compare the compiled ``apply`` in
``decohere.circuits`` against this.

``full_table_run`` applies a compiled run as ``apply`` did before it
gathered a row at a time: through the whole 2^n index and sign mask, built
by ``xor_table``.  The row-by-row run must equal it byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from decohere.circuits import _SQRT_HALF, Circuit, Gate, GateKind, _compile_run, _span, _writable
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


def xor_table(images: Sequence, dtype, offset=0) -> np.ndarray:
    """Entry k is offset XOR images[q] over the qubits q set in k (qubit 0 most significant).

    Built from the tables of the high and low halves of k, 2^(n/2) entries
    each, XOR-ed into one flat array.
    """
    half = len(images) // 2
    high = _span(images[:half][::-1], dtype)
    low = _span(images[half:][::-1], dtype)
    if offset:
        low ^= offset
    out = np.empty((high.size, low.size), dtype=dtype)
    np.bitwise_xor(high[:, None], low[None, :], out=out)
    return out.reshape(-1)


def full_table_run(amps: np.ndarray, gates: Sequence[Gate], width: int) -> np.ndarray:
    """A compiled run applied as one gather through the full index, then the full sign mask."""
    cols, b, s, c = _compile_run(gates, width)
    if b or cols != [1 << (width - 1 - q) for q in range(width)]:
        amps = np.take(amps, xor_table(cols, np.intp, b))
    if s:
        amps = _writable(amps)
        mask = xor_table([bool(s >> (width - 1 - q) & 1) for q in range(width)], bool)
        np.negative(amps, out=amps, where=mask)
    if c == 2:
        amps = np.negative(amps, out=_writable(amps))
    elif c:
        amps = np.multiply(amps, (1j, -1j)[c == 3], out=_writable(amps))
    return amps
