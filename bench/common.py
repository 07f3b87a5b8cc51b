"""Request type and oracle helpers shared by the three workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


class Mismatch(Exception):
    """A request's result disagrees with its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol})")


@dataclass(frozen=True)
class Request:
    """One experiment a user would run, generated from the workload seed.

    ``size`` holds the parameters its cost depends on; two seeds give the
    same multiset of ``(kind, size)`` and differ only in ``data``.
    ``run(call, data)`` performs the experiment through a layer caller and
    is the timed part; ``check(data, result)`` compares the result with the
    answer known from how the input was built and returns any counts
    measured from the output.  ``counts`` are computed from array sizes and
    planted answers when the input is generated, never read from the
    program.
    """

    kind: str
    size: tuple
    data: dict
    run: Callable
    check: Callable
    counts: dict = field(default_factory=dict)


def stratified(levels: dict) -> list:
    """Each level repeated its given number of times, in level order."""
    return [level for level, count in levels.items() for _ in range(count)]
