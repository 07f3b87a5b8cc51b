"""Pinching and dephasing as they were before the named frames became implicit.

``_pinch`` builds the whole pointer-frame diagonal projection as a d x d
matrix: the computational frame from the input's ``elements``, the Hadamard
frame by ``bincount`` over an int64 table of j ^ k, any other frame by two
d x d products.  ``dephase`` and ``decohered_limit`` mix it with the input
as the library did.  The tests compare the implicit-frame code against it.
"""

from __future__ import annotations

import math

import numpy as np

from decohere.dephasing import DephasingChannel, _check_dims
from decohere.states import DensityMatrix, _require, _trusted


def _pinch(rho: DensityMatrix, channel: DephasingChannel) -> np.ndarray:
    """Projection of rho onto the pointer-frame diagonal, in the register frame."""
    _check_dims(rho, channel)
    elements = rho.elements
    if channel._frame == "computational":
        return np.diag(elements.diagonal())
    if channel._frame == "hadamard":
        idx = np.arange(rho.dim)
        xor = idx[:, None] ^ idx[None, :]
        # s[m] is real for Hermitian rho: its conjugate sums rho[j ^ m, j].
        s = np.bincount(xor.ravel(), weights=elements.real.ravel(), minlength=rho.dim)
        return (s / rho.dim)[xor]
    w = channel.basis
    y = np.vecdot(w, elements @ w, axis=0)
    return (w * y) @ w.conj().T


def dephase(rho: DensityMatrix, channel: DephasingChannel, t: float) -> DensityMatrix:
    """Damp pointer-frame off-diagonals by exp(-t/t_d); diagonals untouched."""
    _require(t >= 0, "time must be nonnegative, got {!r}", t)
    _require(t < math.inf, "time must be finite; decohered_limit is the t -> oo state")
    factor = np.exp(-t / channel.t_d)
    pinched = _pinch(rho, channel)
    mixed = factor * rho.elements + (1.0 - factor) * pinched
    return _trusted(DensityMatrix, "elements", mixed, num_qubits=rho.num_qubits)


def decohered_limit(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    """Exact projection onto the pointer-frame diagonal (the t -> oo state)."""
    pinched = _pinch(rho, channel).astype(complex, copy=False)
    return _trusted(DensityMatrix, "elements", pinched, num_qubits=rho.num_qubits)
