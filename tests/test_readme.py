"""The README's Quick tour runs as written and gives the values its comments state."""

from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    section = README.read_text().split("## Quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_matches_its_comments():
    code = _quick_tour()
    for comment in ("# diagonal: 0.36 / 0.64", "# 2: one flip per environment qubit", "# ~0.25"):
        assert comment in code
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    diagonal = np.diagonal(ns["rho_sa"].elements)
    assert np.allclose(diagonal, [0.36, 0.0, 0.0, 0.64], rtol=0.0, atol=1e-12)
    assert ns["redundancy_distance"](ns["r0"], ns["r1"]) == 2
    horizon = ns["purity_horizon"](ns["evolve_entropy"](ns["plus"], ns["dynamics"]))
    assert horizon.value == pytest.approx(0.25, abs=1e-4)
