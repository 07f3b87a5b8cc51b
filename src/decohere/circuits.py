"""Gate-level circuits: bit-by-bit premeasurement, monitoring, and noise.

Circuits are plain data - inspectable and serializable to a line-oriented
text form (one gate per line, e.g. ``CNOT 0 1``, ``H 2``) used in
experiment logs.

``apply`` compiles a circuit before it touches any amplitude.  X, Y, Z and
CNOT send every basis state to one basis state times a phase in {+-1, +-i},
so a maximal run of them composes, like the Pauli and CNOT part of a
stabilizer tableau (Aaronson & Gottesman, PRA 70, 052328, 2004), into one
affine map over GF(2): output amplitude k is i^c (-1)^(s.k) times input
amplitude A k + b.  Composing costs O(1) bit operations per gate; the map is
then applied as a gather, one row of at most ``_GATHER_ENTRIES`` amplitudes
at a time.  A row's index (and its sign mask, if any) is XOR-ed in one
reused buffer from a table of the row's own qubits and one of the rest, so
a run holds its output and one row's index, never a 2^n table; ``take``
runs in clip mode, which writes into the output unbuffered.  An H breaks a
run and is applied in place over its qubit's axis, with one half-register
temporary.  The phases are exact, so the result equals gate-by-gate
application exactly (up to the sign of zeros).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .states import PureState, _integer, _trusted, check_qubits

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Amplitudes a compiled run gathers per row, and so the entries of its one
# index buffer (128 KB of intp).  At 18-20 qubits rows of 2^14-2^16 timed
# alike; 2^12 and 2^18 were slower.
_GATHER_ENTRIES = 1 << 14


class GateKind(str, Enum):
    PAULI_X = "X"
    PAULI_Y = "Y"
    PAULI_Z = "Z"
    HADAMARD = "H"
    CNOT = "CNOT"


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    target: int
    control: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is GateKind.CNOT:
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control == self.target:
                raise ValueError("control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind.value} gate takes no control qubit")

    def to_text(self) -> str:
        if self.kind is GateKind.CNOT:
            return f"CNOT {self.control} {self.target}"
        return f"{self.kind.value} {self.target}"


def x(target: int) -> Gate:
    return Gate(GateKind.PAULI_X, target)


def y(target: int) -> Gate:
    return Gate(GateKind.PAULI_Y, target)


def z(target: int) -> Gate:
    return Gate(GateKind.PAULI_Z, target)


def h(target: int) -> Gate:
    return Gate(GateKind.HADAMARD, target)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, target, control)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a register of fixed width."""

    gates: tuple[Gate, ...]
    width: int

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        for g in gates:
            touched = (g.target,) if g.control is None else (g.control, g.target)
            check_qubits(touched, self.width)
        object.__setattr__(self, "gates", gates)

    def to_text(self) -> str:
        return "\n".join(g.to_text() for g in self.gates)

    @classmethod
    def from_text(cls, text: str, width: int) -> "Circuit":
        gates = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            name = parts[0].upper()
            try:
                kind = GateKind(name)
            except ValueError:
                raise ValueError(f"line {lineno}: unknown gate {name!r}") from None
            if kind is GateKind.CNOT:
                if len(parts) != 3:
                    raise ValueError(f"line {lineno}: CNOT takes control and target")
                gates.append(cnot(int(parts[1]), int(parts[2])))
            else:
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: {name} takes one qubit")
                gates.append(Gate(kind, int(parts[1])))
        return cls(tuple(gates), width)

    def as_matrix(self) -> np.ndarray:
        """Full-register unitary, built column by column."""
        d = 2**self.width
        mat = np.zeros((d, d), dtype=complex)
        for j in range(d):
            mat[:, j] = apply(PureState.basis(self.width, j), self).amplitudes
        return mat


def _compile_run(gates: Sequence[Gate], width: int) -> tuple[list[int], int, int, int]:
    """Fold a run of X, Y, Z and CNOT gates into one signed permutation.

    Returns (cols, b, s, c) such that output amplitude k is
    i^c (-1)^popcount(s & k) times input amplitude A k ^ b, where A sends
    the basis bit of qubit q to cols[q].  Each gate updates the map in O(1):
    it acts on the output side, so X_t and Y_t read the input at k ^ e_t,
    Z_t and Y_t sign by bit t of k, and CNOT c->t reads k ^ k_c e_t.
    """
    bit = [1 << (width - 1 - q) for q in range(width)]
    cols = list(bit)
    b = s = c = 0
    for g in gates:
        t = g.target
        if g.kind is GateKind.CNOT:
            cols[g.control] ^= cols[t]
            if s & bit[t]:
                s ^= bit[g.control]
            continue
        if g.kind is not GateKind.PAULI_Z:  # X or Y: read the input at k ^ e_t
            if s & bit[t]:
                c += 2
            b ^= cols[t]
        if g.kind is not GateKind.PAULI_X:  # Z or Y: sign (-1)^(bit t of k)
            s ^= bit[t]
        if g.kind is GateKind.PAULI_Y:  # (Y psi)[k] = -i (-1)^(bit t of k) psi[k ^ e_t]
            c += 3
    return cols, b, s, c % 4


def _span(images: Sequence, dtype) -> np.ndarray:
    """Entry m is the XOR of images[i] over the set bits i of m."""
    table = np.zeros(1 << len(images), dtype=dtype)
    for i, image in enumerate(images):
        np.bitwise_xor(table[: 1 << i], image, out=table[1 << i : 2 << i])
    return table


def _split_tables(images: Sequence, split: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the first ``split`` qubits and of the rest (qubit 0 most significant).

    Entry k of the full table, the XOR of images[q] over the qubits q set
    in k, is high[k // low.size] ^ low[k % low.size].
    """
    return _span(images[:split][::-1], dtype), _span(images[split:][::-1], dtype)


def _writable(amps: np.ndarray) -> np.ndarray:
    return amps if amps.flags.writeable else amps.copy()


def _apply_run(amps: np.ndarray, gates: Sequence[Gate], width: int) -> np.ndarray:
    """Apply a compiled run: a gather, then signs and a global phase only if needed.

    The output is viewed as rows of at most ``_GATHER_ENTRIES`` amplitudes
    and filled a row at a time.  Row r's gather index (and sign mask) is the
    low table XOR high[r].  One buffer holds it: it starts as the low table
    (high[0] is 0) and is XOR-ed in place with the scalar high[r - 1] ^
    high[r] from row to row.  So the call holds the output and one row's
    index, never a 2^n table, and runs no broadcast, whose ufunc buffers
    would add to the peak.  ``take`` runs in clip mode: every index is an
    XOR of n-bit column images, so it is below 2^n by construction and
    clipping never moves it; unlike the default raise mode, which buffers
    ``out``, clip mode writes straight into the row.
    """
    cols, b, s, c = _compile_run(gates, width)
    bits = [1 << (width - 1 - q) for q in range(width)]
    gather = b or cols != bits
    if gather or s:
        out = np.empty_like(amps) if gather else _writable(amps)
        split = width - min(width, _GATHER_ENTRIES.bit_length() - 1)
        if gather:
            high, index = _split_tables(cols, split, np.intp)
            index ^= b
        if s:
            sign_high, mask = _split_tables([bool(s & bit) for bit in bits], split, bool)
        for r, row in enumerate(out.reshape(1 << split, -1)):
            if gather:
                if r:
                    np.bitwise_xor(index, high[r - 1] ^ high[r], out=index)
                np.take(amps, index, out=row, mode="clip")
            if s:
                if r:
                    np.bitwise_xor(mask, sign_high[r - 1] ^ sign_high[r], out=mask)
                np.negative(row, out=row, where=mask)
        amps = out
    if c == 2:
        amps = np.negative(amps, out=_writable(amps))
    elif c:
        amps = np.multiply(amps, (1j, -1j)[c == 3], out=_writable(amps))
    return amps


def _apply_hadamard(amps: np.ndarray, target: int) -> np.ndarray:
    """H on ``target`` in place: (lo, hi) <- ((lo + hi) / sqrt 2, (lo - hi) / sqrt 2).

    lo - hi is the one half-register temporary; both halves are then
    updated in place with the same operations, so the bits are those of
    the two expressions.
    """
    pair = amps.reshape(2**target, 2, -1)
    lo, hi = pair[:, 0], pair[:, 1]
    diff = lo - hi
    lo += hi
    lo *= _SQRT_HALF
    np.multiply(diff, _SQRT_HALF, out=hi)
    return amps


def apply(state: PureState, op: Union[Gate, Circuit]) -> PureState:
    """Apply a gate or a whole circuit to a pure state.

    Each maximal run of X, Y, Z and CNOT gates is compiled into one signed
    permutation of the amplitudes and applied as a gather, a row of at most
    ``_GATHER_ENTRIES`` amplitudes at a time, so a run's peak is its output
    plus one row's index (and sign mask); each H is an in-place pass over
    its qubit's axis, whose peak is its output plus half the register.
    Unitary by construction, so the result skips the norm check; the norm
    is preserved to rounding (exactly, without H).  Raises on any qubit
    index outside the state's register.
    """
    n = state.num_qubits
    if isinstance(op, Gate):
        touched = (op.target,) if op.control is None else (op.control, op.target)
        check_qubits(touched, n)
        gates: tuple[Gate, ...] = (op,)
    elif isinstance(op, Circuit):
        if op.width != n:
            raise ValueError(f"circuit width {op.width} does not match register of {n}")
        gates = op.gates
    else:
        raise TypeError("op must be a Gate or a Circuit")

    amps = state.amplitudes
    for is_h, run in groupby(gates, key=lambda g: g.kind is GateKind.HADAMARD):
        if is_h:
            amps = _writable(amps)
            for g in run:
                amps = _apply_hadamard(amps, g.target)
        else:
            amps = _apply_run(amps, tuple(run), n)
    if amps is state.amplitudes:
        amps = amps.copy()
    return _trusted(PureState, "amplitudes", amps, num_qubits=n)


def premeasurement(system: int, apparatus: int, width: Optional[int] = None) -> Circuit:
    """One-bit record transfer: a c-not with the system as control.

    Acting on (a|0> + b|1>) (x) |0> it produces a|00> + b|11> exactly.
    """
    if system == apparatus:
        raise ValueError("system and apparatus must be distinct qubits")
    w = width if width is not None else max(system, apparatus) + 1
    return Circuit((cnot(system, apparatus),), w)


def _chain_register(
    apparatus: int, environment: Iterable[int], width: Optional[int]
) -> tuple[tuple[int, ...], int]:
    """Environment qubits and register width of a chain, checked."""
    env = tuple(_integer(q, "qubit index") for q in environment)
    if apparatus in env:
        raise ValueError("apparatus qubit cannot be part of the environment")
    if len(set(env)) != len(env):
        raise ValueError("environment qubits must be distinct")
    return env, width if width is not None else max((apparatus, *env)) + 1


def decoherence_chain(
    apparatus: int, environment: Iterable[int], width: Optional[int] = None
) -> Circuit:
    """Monitoring chain: the apparatus controls a c-not onto each environment qubit.

    Acting on (a|00> + b|11>) (x) |0...0> it spreads the record into a
    two-branch state a|0...0> + b|1...1>.
    """
    env, w = _chain_register(apparatus, environment, width)
    return Circuit(tuple(cnot(apparatus, e) for e in env), w)


def noise_chain(
    environment: Iterable[int], apparatus: int, width: Optional[int] = None
) -> Circuit:
    """Noise chain: c-not directions reversed, the environment acts as control."""
    env, w = _chain_register(apparatus, environment, width)
    return Circuit(tuple(cnot(e, apparatus) for e in env), w)
