"""CSV rendering of result artifacts against the csv.writer loop it replaced.

``ResultArtifact.rendered("csv")`` builds one format string per artifact;
``artifact_oracle.csv_writer_rendered`` writes every row through
``csv.writer``.  They must agree byte for byte on every experiment's
artifact, on crafted cells (quoting, edge floats, numpy scalars, missing
keys, mixed columns, no columns or rows) and on drawn artifacts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact_oracle import CSV_WRITES_NUL, csv_writer_rendered
from decohere.cli import EXPERIMENTS, ExperimentConfig, ResultArtifact, run

# Criterion 10's CSV configs, then each CSV experiment at its defaults.
CONFIGS = [
    ("premeasure", {}, None),
    ("redundancy", {"sizes": [3, 5], "max_errors": 1}, None),
    ("sieve", {"theta_steps": 4, "phi_steps": 4, "step": 0.5, "cap": 25.0}, None),
    ("records", {"cells_max": 4}, 9),
    ("observer-lists", {}, 11),
] + [(name, {}, 1) for name, spec in EXPERIMENTS.items() if not spec.json_only]


@pytest.mark.parametrize("experiment, params, seed", CONFIGS)
def test_experiment_csv_matches_csv_writer(tmp_path, experiment, params, seed):
    out = tmp_path / "x.csv"
    artifact = run(ExperimentConfig(experiment, params, seed, str(out), "csv"))
    assert out.read_bytes() == csv_writer_rendered(artifact).encode()


def artifact(columns, rows, comments=()):
    return ResultArtifact("crafted", '{"crafted":true}', list(columns), list(rows), None, list(comments))


QUOTED_TEXTS = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "\r\n", '""', '"', ",", ",,"]
PLAIN_TEXTS = [" lead", "trail ", " ", "x", "tab\there", "semi;colon", "it's", "ünïcødé", "日本語", "🙂"]
EDGE_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324, 1e-5, 0.1, 1.0 / 3.0, -1.5e300, 2.0**53]
INTS = [0, -1, 7, 2**70, -(2**70)]
NUMPY = [np.float64(0.1), np.float32(0.1), np.float64(-0.0), np.int64(-3), np.bool_(True), np.bool_(False)]
TUPLES = [(1, 2), ("a", "b"), ()]

CRAFTED = {
    "quoted strings": artifact(["s"], [{"s": t} for t in QUOTED_TEXTS]),
    "quoted strings, many columns": artifact(
        ["s", "t"], [{"s": t, "t": u} for t, u in zip(QUOTED_TEXTS, reversed(QUOTED_TEXTS))]
    ),
    "plain strings": artifact(["s", "n"], [{"s": t, "n": 1} for t in PLAIN_TEXTS]),
    "empty and None, one column": artifact(["a"], [{"a": ""}, {"a": None}, {}, {"a": "x"}]),
    "empty and None, many columns": artifact(
        ["a", "b", "c"], [{"a": "", "b": None}, {}, {"a": None, "b": "", "c": ""}]
    ),
    "empty string in a float column of one": artifact(["a"], [{"a": 0.0}, {"a": ""}]),
    "zero columns": artifact([], [{}, {"a": 1}, {}]),
    "zero columns, no rows": artifact([], []),
    "no rows": artifact(["a", "b,c"], []),
    "headers that need quoting": artifact(
        ["a,b", 'say "x"', "cr\r", "lf\n", "", "plain"], [{"a,b": 1, "": 2.5, "plain": True}]
    ),
    "one empty header": artifact([""], [{"": 1.5}]),
    "one quoted header": artifact(["a,b"], [{"a,b": "c,d"}]),
    "edge floats": artifact(["f", "g"], [{"f": f, "g": -f} for f in EDGE_FLOATS]),
    "edge floats, one column": artifact(["f"], [{"f": f} for f in EDGE_FLOATS]),
    "ints and bools": artifact(
        ["i", "b"], [{"i": i, "b": i % 2 == 0} for i in INTS] + [{"i": True, "b": False}]
    ),
    "numpy scalars": artifact(["n"], [{"n": v} for v in NUMPY]),
    "numpy scalars beside floats": artifact(["n", "f"], [{"n": v, "f": 0.5} for v in NUMPY]),
    "tuples": artifact(["t", "u"], [{"t": t, "u": t} for t in TUPLES]),
    "missing keys": artifact(["a", "b", "c"], [{"a": 1.0}, {"b": True}, {"c": "x"}, {"d": 1}]),
    "mixed columns": artifact(
        ["m"],
        [{"m": v} for v in [1.5, True, 3, None, "x,y", np.float64(2.5), (1, 2), math.nan]],
    ),
    "float and bool columns with a gap": artifact(
        ["f", "b"], [{"f": 1.0, "b": True}, {"f": 2.0}, {"b": False}]
    ),
    "comments": artifact(["a"], [{"a": 1}], comments=["circuit: H 0", "note, with comma"]),
}


@pytest.mark.parametrize("case", CRAFTED)
def test_crafted_csv_matches_csv_writer(case):
    art = CRAFTED[case]
    assert art.rendered("csv") == csv_writer_rendered(art)


def body(art):
    """The rendered CSV after its two comment lines."""
    return art.rendered("csv").split("\r\n", 2)[2]


def test_csv_edge_cases_read_as_documented():
    assert body(artifact(["a"], [{"a": ""}, {}, {"a": "x"}])) == 'a\r\n""\r\n""\r\nx\r\n'
    assert body(artifact(["a", "b"], [{}])) == "a,b\r\n,\r\n"
    assert body(artifact([], [{}, {}])) == "\r\n\r\n\r\n"
    assert body(artifact([""], [])) == '""\r\n'
    assert body(artifact(["q"], [{"q": 'a"b,c'}, {"q": (1, 2)}])) == 'q\r\n"a""b,c"\r\n"(1, 2)"\r\n'
    assert body(artifact(["f", "b"], [{"f": -0.0, "b": True}])) == "f,b\r\n-0,true\r\n"


def test_nul_is_written_unquoted():
    # csv before Python 3.11 cannot write a NUL at all; the text here is what later csv writes.
    art = artifact(["a", "b"], [{"a": "x\x00y", "b": "\x00,"}])
    assert art.rendered("csv").endswith('a,b\r\nx\x00y,"\x00,"\r\n')
    if CSV_WRITES_NUL:
        assert art.rendered("csv") == csv_writer_rendered(art)


# --- drawn artifacts ------------------------------------------------------------------

SPECIAL = ',"\r\n \t\'' + ("\x00" if CSV_WRITES_NUL else "")
TEXT = st.text(
    st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_characters="\x00")), max_size=8
)
CELLS = {
    "float": st.floats(),
    "bool": st.booleans(),
    "int": st.integers(-(2**80), 2**80),
    "text": TEXT,
    "none": st.none(),
    "numpy": st.one_of(
        st.floats().map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
    ),
    "tuple": st.tuples(st.integers(), TEXT),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def artifacts(draw):
    columns = draw(st.lists(TEXT, max_size=4))
    kinds = [draw(st.sampled_from(sorted(CELLS))) for _ in columns]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        present = [draw(st.integers(0, 7)) > 0 for _ in columns]  # a key is missing 1 time in 8
        rows.append({k: draw(CELLS[kind]) for k, kind, p in zip(columns, kinds, present) if p})
    return artifact(columns, rows, draw(st.lists(TEXT, max_size=2)))


@settings(max_examples=400, deadline=None)
@given(artifacts())
def test_drawn_csv_matches_csv_writer(art):
    assert art.rendered("csv") == csv_writer_rendered(art)
