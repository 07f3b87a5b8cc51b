import json
import math
import os
import stat

import numpy as np
import pytest

from decohere import cli
from decohere.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    observer_lists,
    run,
)


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def make_config(experiment, params=None, seed=None, out="out.csv", fmt="csv"):
    return ExperimentConfig(
        experiment=experiment, params=params or {}, seed=seed, out=out, fmt=fmt
    )


# --- configuration handling -----------------------------------------------------


def test_unknown_experiment_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "teleportation"})
    assert main(["--config", cfg]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_parameter_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "sieve", "params": {"temperature": 3.0}, "out": str(tmp_path / "x.csv")},
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "invalid parameter 'temperature'" in err and "sieve" in err


def test_missing_seed_for_stochastic_experiment_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"experiment": "observer-lists", "out": str(tmp_path / "x.csv")}
    )
    assert main(["--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_invariant_violation_exits_3(tmp_path, capsys, monkeypatch):
    # No parameter in range breaks a run invariant any more, so a library
    # ValueError is injected where premeasure reduces its register.
    def broken_reduction(*args):
        raise ValueError("reduced state lost positivity")

    monkeypatch.setattr(cli, "partial_trace", broken_reduction)
    cfg = write_config(
        tmp_path,
        {"experiment": "premeasure", "out": str(tmp_path / "x.csv")},
    )
    assert main(["--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "invariant violation: reduced state lost positivity" in err
    assert not (tmp_path / "x.csv").exists()


# Each config is malformed in one parameter: (id, experiment, params, file seed, extra argv,
# the parameter the message must name).
BAD_PARAMETERS = [
    ("records-alpha-null", "records", {"alpha": None}, 3, [], "alpha"),
    ("sieve-theta-zero", "sieve", {"theta_steps": 0}, None, [], "theta_steps"),
    ("sieve-step-count-overflows", "sieve", {"cap": 1e300, "step": 1e-300}, None, [], "cap / step"),
    ("sieve-step-count-rounds-to-zero", "sieve", {"cap": 50, "step": 100}, None, [], "cap / step"),
    # Each value is in range, but the horizon cap * t_d (or 50 * t_d) overflows to inf.
    ("sieve-horizon-overflows", "sieve", {"cap": 1e200, "t_d": 1e200, "step": 1e196}, None, [],
     "cap * t_d"),
    ("records-horizon-overflows", "records", {"t_d": 1e307}, 3, [], "50 * t_d"),
    ("redundancy-sizes-not-a-list", "redundancy", {"sizes": 5}, None, [], "sizes"),
    ("premeasure-environment-null", "premeasure", {"environment": None}, None, [], "environment"),
    ("observer-ensemble-null", "observer-lists", {"ensemble": None}, 3, [], "ensemble"),
    ("records-alpha-nan", "records", {"alpha": math.nan}, 3, [], "alpha"),
    ("records-t_d-negative", "records", {"t_d": -1}, 3, [], "t_d"),
    ("records-seq_length-short", "records", {"seq_length": 3}, 3, [], "seq_length"),
    ("sieve-phi-zero", "sieve", {"phi_steps": 0}, None, [], "phi_steps"),
    ("sieve-t_d-inf", "sieve", {"t_d": math.inf}, None, [], "t_d"),
    ("sieve-theta-string", "sieve", {"theta_steps": "a"}, None, [], "theta_steps"),
    ("probability-m_start-zero", "probability", {"m_start": 0}, 3, [], "m_start"),
    ("probability-p-nan", "probability", {"p": [0.5, math.nan]}, 3, [], "p"),
    ("observer-t_d-zero", "observer-lists", {"t_d": 0}, 3, [], "t_d"),
    ("seed-string", "observer-lists", {}, "abc", [], "seed"),
    ("seed-negative", "observer-lists", {}, -1, [], "seed"),
    ("seed-flag-negative", "observer-lists", {}, None, ["--seed", "-1"], "seed"),
    ("redundancy-max_errors-negative", "redundancy", {"max_errors": -1}, None, [], "max_errors"),
    ("premeasure-environment-fraction", "premeasure", {"environment": 2.7}, None, [], "environment"),
    ("premeasure-alpha-short-pair", "premeasure", {"alpha": [0.6]}, None, [], "alpha"),
    ("premeasure-alpha-string", "premeasure", {"alpha": "0.6"}, None, [], "alpha"),
    ("records-cells_max-fraction", "records", {"cells_max": 2.5}, 3, [], "cells_max"),
    ("probability-m_doublings-negative", "probability", {"m_doublings": -1}, 3, [], "m_doublings"),
    ("probability-uniform_n-string", "probability", {"uniform_n": "4"}, 3, [], "uniform_n"),
    # 8192 outcomes need a 13-qubit dephasing channel, past the 12-qubit density cap.
    ("probability-uniform_n-past-density-cap", "probability", {"uniform_n": 8192}, 3, [],
     "uniform_n"),
    ("seed-fraction", "observer-lists", {}, 1.7, [], "seed"),
    ("seed-boolean", "observer-lists", {}, True, [], "seed"),
    # observer_lists checks its bases itself; the runner turns its ValueError into a config error.
    ("observer-prepare_basis-unknown", "observer-lists", {"prepare_basis": "diagonal"}, 3, [],
     "prepare_basis"),
    ("observer-measure_basis-list", "observer-lists", {"measure_basis": ["pointer"]}, 3, [],
     "measure_basis"),
]


@pytest.mark.parametrize(
    "experiment, params, seed, argv, name",
    [case[1:] for case in BAD_PARAMETERS],
    ids=[case[0] for case in BAD_PARAMETERS],
)
def test_bad_parameter_is_a_config_error(tmp_path, capsys, experiment, params, seed, argv, name):
    payload = {"experiment": experiment, "params": params}
    if seed is not None:
        payload["seed"] = seed
    out = tmp_path / "artifact"
    assert main(["--config", write_config(tmp_path, payload), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert not out.exists()


def test_format_is_checked_before_the_run(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the experiment ran before its format was checked")

    monkeypatch.setattr(cli, "uniform_outcome_probabilities", must_not_run)
    cfg = make_config("probability", seed=1, out=str(tmp_path / "p.csv"), fmt="csv")
    with pytest.raises(ConfigError, match="JSON"):
        run(cfg)


def test_artifact_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    mask = os.umask(0)
    os.umask(mask)

    def refuse(*args):
        raise AssertionError("process-wide state touched")

    monkeypatch.setattr(os, "umask", refuse)
    artifact = cli.ResultArtifact("sieve", "{}", columns=["a"], rows=[{"a": 1}])
    path = tmp_path / "out" / "a.csv"
    artifact.write(str(path), "csv")
    assert path.read_bytes() == artifact.rendered("csv").encode()
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask
    # A failed write removes its temporary file too.
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(AssertionError, match="process-wide"):
        artifact.write(str(path), "csv")
    monkeypatch.undo()
    assert [p.name for p in path.parent.iterdir()] == ["a.csv"]


def test_integral_floats_read_as_integers(tmp_path):
    params = {"theta_steps": 4, "phi_steps": 3, "step": 0.5, "cap": 5.0}
    blobs = []
    for name, values in (("int", params), ("float", {**params, "theta_steps": 4.0})):
        run(make_config("sieve", params=values, out=str(tmp_path / f"{name}.csv")))
        blobs.append((tmp_path / f"{name}.csv").read_text().splitlines()[1:])
    assert blobs[0] == blobs[1]  # all but the config echo, which keeps 4.0 as given


def test_premeasure_nan_amplitude_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "premeasure", "params": {"alpha": math.nan}, "out": str(tmp_path / "x.csv")},
    )
    assert main(["--config", cfg]) == 2
    assert "config error: alpha and beta must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("environment", [11, 18])
def test_premeasure_beyond_density_cap_runs(tmp_path, environment):
    # 2 + 18 qubits is a 20-qubit register; only its 2-qubit reduction is dense.
    alpha, beta = 0.6, 0.8j
    out = tmp_path / "x.csv"
    cfg = write_config(
        tmp_path,
        {
            "experiment": "premeasure",
            "params": {"environment": environment, "alpha": alpha, "beta": [0.0, 0.8]},
            "out": str(out),
        },
    )
    assert main(["--config", cfg]) == 0
    header, row = out.read_text().splitlines()[-2:]
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["p00"]) == pytest.approx(abs(alpha) ** 2, abs=1e-12)
    assert float(values["p11"]) == pytest.approx(abs(beta) ** 2, abs=1e-12)
    assert float(values["max_offdiag"]) == 0.0


@pytest.mark.parametrize(
    "params, message",
    [
        ({"step": 0}, "step must be positive and finite, got 0.0"),
        ({"step": -0.1}, "step must be positive and finite, got -0.1"),
        ({"cap": math.nan}, "cap must be positive and finite, got nan"),
        ({"cap": math.inf}, "cap must be positive and finite, got inf"),
    ],
    ids=["step-zero", "step-negative", "cap-nan", "cap-inf"],
)
def test_sieve_bad_step_or_cap_is_a_config_error(tmp_path, capsys, params, message):
    cfg = write_config(
        tmp_path, {"experiment": "sieve", "params": params, "out": str(tmp_path / "x.csv")}
    )
    assert main(["--config", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"experiment": ["sieve"]}', "unknown experiment ['sieve']"),
        ('{"experiment": "premeasure", "out": ["a"]}', "out must be a path string"),
        # json refuses integers over 4300 digits (Python >= 3.10.7); t_d is out of range anyway.
        ('{"experiment": "sieve", "params": {"t_d": 1' + "0" * 5000 + "}}", ""),
    ],
    ids=["experiment-list", "out-list", "integer-too-long"],
)
def test_malformed_config_field_exits_2(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(text)
    assert main(["--config", "exp.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert sorted(os.listdir(tmp_path)) == ["exp.json"]


def test_csv_rejected_for_probability(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            {
                "experiment": "probability",
                "seed": 1,
                "format": "csv",
                "out": str(tmp_path / "p.csv"),
            },
        ),
        overrides=_Namespace(),
    )
    with pytest.raises(ConfigError, match="JSON"):
        run(cfg)


class _Namespace:
    seed = None
    out = None
    format = None


def test_flag_overrides_file_seed(tmp_path):
    payload = {"experiment": "observer-lists", "seed": 1, "out": str(tmp_path / "a.csv")}
    ns = _Namespace()
    ns.seed = 42
    cfg = load_config(write_config(tmp_path, payload), overrides=ns)
    assert cfg.seed == 42


# --- experiment output -------------------------------------------------------------


def test_premeasure_artifact(tmp_path):
    out = tmp_path / "pre.csv"
    cfg = make_config("premeasure", out=str(out))
    run(cfg)
    text = out.read_text()
    assert text.startswith("# config: ")
    assert "# build: decohere" in text
    assert "CNOT 0 1" in text
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body[0] == "alpha,beta,p00,p11,max_offdiag"
    alpha, beta, p00, p11, off = body[1].split(",")
    assert float(p00) == pytest.approx(0.36, abs=1e-12)
    assert float(p11) == pytest.approx(0.64, abs=1e-12)
    assert float(off) == 0.0


def test_premeasure_rejects_unnormalized(tmp_path):
    cfg = make_config("premeasure", params={"alpha": 1.0, "beta": 1.0}, out=str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError, match="alpha"):
        run(cfg)


def test_redundancy_artifact_values(tmp_path):
    out = tmp_path / "red.csv"
    cfg = make_config("redundancy", params={"sizes": [3], "max_errors": 1}, out=str(out))
    run(cfg)
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    assert by_key[("3", "pointer", "1")][4] == "1"
    assert by_key[("3", "hadamard", "1")][4] == "0.5"
    assert by_key[("3", "pointer", "0")][5:7] == ["3", "1"]


def test_redundancy_rejects_even_sizes(tmp_path):
    cfg = make_config("redundancy", params={"sizes": [4]}, out=str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError, match="odd"):
        run(cfg)


def test_sieve_artifact_top_rows_are_poles(tmp_path):
    out = tmp_path / "sieve.csv"
    cfg = make_config(
        "sieve",
        params={"theta_steps": 6, "phi_steps": 4, "step": 0.5, "cap": 25.0},
        out=str(out),
    )
    run(cfg)
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    pole_rows = 2 * 4  # both poles, repeated per phi by the plain product grid
    for row in rows[:pole_rows]:
        theta = float(row[0])
        assert theta == pytest.approx(0.0, abs=1e-12) or theta == pytest.approx(
            math.pi, abs=1e-12
        )
        assert row[3] == "true"  # t_p capped for pointer states
        assert float(row[5]) == 0.0


def test_sieve_accepts_matrix_basis_spec(tmp_path):
    s = 1.0 / math.sqrt(2.0)
    hadamard_pairs = [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]
    out = tmp_path / "sieve.csv"
    cfg = make_config(
        "sieve",
        params={"theta_steps": 2, "phi_steps": 2, "step": 0.5, "cap": 10.0, "basis": hadamard_pairs},
        out=str(out),
    )
    run(cfg)
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    # under the hadamard frame the equator states are the channel fixed points
    assert float(rows[0][0]) == pytest.approx(math.pi / 2, abs=1e-9)


def test_sieve_rejects_bad_basis_spec(tmp_path):
    cfg = make_config("sieve", params={"basis": "fourier"}, out=str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError, match="pointer basis"):
        run(cfg)


def test_premeasure_with_configured_environment_bits(tmp_path):
    out = tmp_path / "pre.csv"
    cfg = make_config(
        "premeasure",
        params={"environment": 2, "environment_bits": [1, 0]},
        out=str(out),
    )
    run(cfg)
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    _, _, p00, p11, off = body[1].split(",")
    assert float(p00) == pytest.approx(0.36, abs=1e-12)
    assert float(p11) == pytest.approx(0.64, abs=1e-12)
    assert float(off) == 0.0


def test_records_json_format(tmp_path):
    out = tmp_path / "rec.json"
    cfg = make_config("records", params={"cells_max": 3}, seed=5, out=str(out), fmt="json")
    run(cfg)
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "records"
    assert doc["config"]["seed"] == 5
    branch_rows = [r for r in doc["rows"] if r["experiment"] == "branches"]
    conj = {r["N"]: r["branches"] for r in branch_rows if r["basis"] == "conjugate"}
    assert conj == {1: 2, 2: 4, 3: 8}


def test_probability_json_values(tmp_path):
    out = tmp_path / "prob.json"
    cfg = make_config("probability", seed=5, out=str(out), fmt="json")
    run(cfg)
    doc = json.loads(out.read_text())
    res = doc["results"]
    assert res["uniform_outcomes"]["max_deviation"] < 1e-12
    assert res["permutation"]["original"] == pytest.approx([1 / 3, 0.0, 2 / 3], abs=1e-12)
    assert res["permutation"]["permuted"] == pytest.approx([1 / 3, 2 / 3, 0.0], abs=1e-12)
    assert res["sum_rule"]["pointer_violation"] < 1e-12
    assert res["sum_rule"]["interference_violation"] == pytest.approx(0.5, abs=1e-12)
    for entry in res["coarse_graining"]["sweep"]:
        assert entry["deviation"] <= entry["bound"] + 1e-12


# --- observer lists ------------------------------------------------------------------


def test_observer_lists_pointer_pointer_agrees_everywhere():
    outcome = observer_lists("pointer", "pointer", 1000, seed=11)
    assert outcome["agreement_a_b"] == 1.0
    assert outcome["agreement_a_a2"] == 1.0
    assert outcome["agreement_b_a2"] == 1.0


def test_observer_lists_spying_in_conjugate_basis_is_undetected():
    outcome = observer_lists("pointer", "conjugate", 1000, seed=11)
    assert outcome["agreement_a_a2"] == 1.0  # A cannot tell B was there
    assert abs(outcome["agreement_a_b"] - 0.5) < 0.05  # B learned nothing


def test_observer_lists_conjugate_preparation_deteriorates():
    outcome = observer_lists("conjugate", "pointer", 1000, seed=11)
    assert abs(outcome["agreement_a_a2"] - 0.5) < 0.05


def test_observer_lists_deterministic_per_seed():
    first = observer_lists("conjugate", "pointer", 500, seed=3)
    second = observer_lists("conjugate", "pointer", 500, seed=3)
    assert first == second
    third = observer_lists("conjugate", "pointer", 500, seed=4)
    assert third != first


def test_observer_lists_raises_value_error_on_bad_input():
    # A library function: only the CLI's runner turns these into config errors.
    cases = [("diagonal", "pointer", 10, "prepare_basis"), ("pointer", "x", 10, "measure_basis"),
             ("pointer", "pointer", 0, "ensemble")]
    for prepare_basis, measure_basis, ensemble, name in cases:
        with pytest.raises(ValueError, match=name):
            observer_lists(prepare_basis, measure_basis, ensemble, seed=1)


def test_observer_lists_accepts_numpy_scalars():
    # Only the config boundary insists on JSON types; the library takes any real number.
    expected = observer_lists("conjugate", "pointer", 500, 3, 2.0)
    assert observer_lists("conjugate", "pointer", np.int64(500), 3, np.float64(2.0)) == expected


# --- reproducibility & rendering ------------------------------------------------------


def test_float_rendering_uses_12_significant_digits():
    from decohere.cli import _format_cell

    assert _format_cell(math.pi) == "3.14159265359"
    assert _format_cell(0.5) == "0.5"
    assert _format_cell(True) == "true"
    assert _format_cell(None) == ""
    assert _format_cell(math.inf) == "inf"


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "obs.csv"
    run(make_config("observer-lists", seed=1, out=str(out)))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".decohere-")]
    assert leftovers == []
    assert out.exists()


def test_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(make_config("observer-lists", seed=77, out=str(out_a)))
    run(make_config("observer-lists", seed=77, out=str(out_b)))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_main_end_to_end(tmp_path, capsys):
    out = tmp_path / "obs.csv"
    cfg = write_config(
        tmp_path, {"experiment": "observer-lists", "params": {"ensemble": 100}}
    )
    rc = main(["--config", cfg, "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "observer-lists" in capsys.readouterr().out
