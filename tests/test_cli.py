import json
import math
import os

import pytest

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


def test_invariant_violation_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "records",
            "params": {"t_d": -1.0},
            "seed": 3,
            "out": str(tmp_path / "x.csv"),
        },
    )
    assert main(["--config", cfg]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_premeasure_nan_amplitude_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "premeasure", "params": {"alpha": math.nan}, "out": str(tmp_path / "x.csv")},
    )
    assert main(["--config", cfg]) == 2
    assert "config error: alpha and beta must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_premeasure_beyond_density_cap_exits_3(tmp_path, capsys):
    # 1 system + 1 apparatus + 18 environment qubits: a 20-qubit register,
    # whose 4^20-entry density matrix must be refused, not allocated.
    cfg = write_config(
        tmp_path,
        {
            "experiment": "premeasure",
            "params": {"environment": 18},
            "out": str(tmp_path / "x.csv"),
        },
    )
    assert main(["--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "invariant violation: num_qubits must be in 1..12, got 20" in err
    assert not (tmp_path / "x.csv").exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2


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
