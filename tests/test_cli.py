import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import holopulse
from holopulse import cli
from holopulse.cli import (MAX_STEPS, ConfigError, load_config, main, parse_gate,
                           parse_noise, run_sweep)
from holopulse.paths import DYNAMICAL
from holopulse.pulses import named_gate, synthesize


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_load_config_rejects_unknown_keys(tmp_path):
    # main rejects a key that the command's parse did not read
    path = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X", "zz": 1})
    out = tmp_path / "o"
    assert main(["synth", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_load_config_rejects_bad_kind(tmp_path):
    path = _write(tmp_path, "c.json", {"experiment": "teleport"})
    with pytest.raises(ConfigError):
        load_config(path, "synth")


def test_parse_gate_variants():
    assert parse_gate({"gate": "X"}).gamma == pytest.approx(np.pi)
    g = parse_gate({"gate": {"theta": 0.3, "phi": 0.1, "gamma": 1.0, "eta": 0.5}})
    assert g.eta == 0.5
    d = parse_gate({"gate": {"theta": 0.3, "phi": 0.1, "eta": 0.5,
                             "scheme": DYNAMICAL}})
    assert d.gamma == pytest.approx(-np.pi)
    with pytest.raises(ConfigError):
        parse_gate({"gate": {"theta": 0.3}})
    with pytest.raises(ConfigError):
        parse_gate({"gate": {"theta": 0.3, "phi": 0.0, "gamma": 1.0, "axis": "x"}})
    with pytest.raises(ConfigError):
        parse_gate({})


def test_parse_noise():
    nm = parse_noise({"noise": {"epsilon": 0.1, "gamma_1a": 100.0}})
    assert nm.epsilon == 0.1
    with pytest.raises(ConfigError):
        parse_noise({"noise": {"t2": 1.0}})
    with pytest.raises(ConfigError):
        parse_noise({"noise": {"epsilon": 0.9}})


def test_synth_outputs(tmp_path, check_tone_file):
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X",
                                      "n_samples": 256})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    # the tone file is the schedule of the config, bit for bit
    check_tone_file(out / "tones.csv", synthesize(named_gate("X"), n_samples=256))
    manifest = (out / "manifest.txt").read_text()
    assert "tones.csv" in manifest
    assert manifest.startswith("# artifact_version")


def test_propagate_header_echoes_config(tmp_path):
    cfg = _write(tmp_path, "c.json", {"experiment": "propagate", "gate": "X",
                                      "noise": {"epsilon": 0.05}, "n_samples": 256,
                                      "steps": 512})
    out = tmp_path / "out"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "propagate.csv").read_text()
    assert '# noise = {"epsilon": 0.05}' in text
    assert '# gate = "X"' in text
    row = text.strip().splitlines()[-1]
    assert float(row.split(",")[1]) < 1.0    # fidelity drops under the error


def test_sweep_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "experiment": "sweep", "gate": "X", "n_samples": 256, "steps": 512,
        "epsilon_grid": {"min": -0.1, "max": 0.1, "points": 3}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "4"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "4"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()


def test_qpt_seed_changes_counts(tmp_path):
    base = {"experiment": "qpt", "gate": "X", "shots": 200,
            "n_samples": 256, "steps": 512}
    cfg = _write(tmp_path, "c.json", base)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"o{seed}"
        assert main(["qpt", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == 0
        outs.append((out / "counts.csv").read_text())
    assert outs[0] != outs[1]
    for text in outs:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines[0] == "prep,basis,shots,bright"
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(j), b) for j, b, _, _ in rows] == [
            (j, b) for j in range(6) for b in ("x", "y", "z")]
        for _, _, shots, bright in rows:
            assert int(shots) == 200
            assert bright.isdigit() and 0 <= int(bright) <= 200


def test_rb_command(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "experiment": "rb", "lengths": [1, 2, 4, 8], "sequences": 3,
        "n_samples": 256, "steps": 512, "noise": {"epsilon": 0.05}})
    out = tmp_path / "out"
    assert main(["rb", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "rb_reference.csv").read_text().strip().splitlines()
    assert "m,mean_fidelity,std,n_sequences" in lines
    assert '"p":' in (out / "rb_reference_fit.txt").read_text()


def test_rb_fit_files_are_json(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "experiment": "rb", "interleaved": "T", "lengths": [1, 2, 4, 8], "sequences": 2,
        "shots": 100, "n_samples": 256, "steps": 512, "noise": {"epsilon": 0.05}})
    out = tmp_path / "out"
    assert main(["rb", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    for name, interleaved, fidelity in (("rb_reference_fit.txt", False, "F_ave"),
                                        ("rb_interleaved_fit.txt", True, "F_gate")):
        lines = (out / name).read_text().splitlines()
        fit = json.loads("\n".join(ln for ln in lines if not ln.startswith("#")))
        assert fit["mode"] == "pulse" and fit["interleaved"] is interleaved
        assert fidelity in fit and "p" in fit


def test_cli_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X", "bogus": 1})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad", [{"n_max": 2}, {"eta_ld": 0.5}])
def test_sideband_bad_system_is_config_error(tmp_path, capsys, bad):
    cfg = _write(tmp_path, "c.json", {"experiment": "sideband", **bad})
    out = tmp_path / "o"
    assert main(["sideband", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# one valid gate setting per command that propagates
_GATES = {"propagate": {"gate": "X"}, "qpt": {"gate": "X"}, "rb": {},
          "sweep": {"gate": "X"}}


@pytest.mark.parametrize("command, bad", [
    ("rb", {"lengths": [1, 2]}),
    ("rb", {"shots": 0}),
    ("rb", {"sequences": 1}),
    ("rb", {"noise": {"gamma_1a": 100.0}, "n_samples": 1024, "steps": 256}),
    ("rb", {"steps": 0}),
    ("rb", {"interleaved": "Q"}),
    ("synth", {"gate": "Q"}),
    ("rb", {"gate": "X"}),
    ("sweep", {"mode": "rb", "lengths": [1, 2]}),
    # steps below the schedule resolution, or none at all
    ("propagate", {"gate": "X", "n_samples": 1024, "steps": 256}),
    ("qpt", {"gate": "X", "n_samples": 1024, "steps": 256}),
    ("sweep", {"gate": "X", "n_samples": 1024, "steps": 256}),
    ("sideband", {"steps": 0}),
    # too few or odd samples, or a peak Rabi rate outside (0, inf), in every command
    *[(command, {**gate, "n_samples": 128, "steps": 256})
      for command, gate in _GATES.items()],
    ("synth", {"gate": "X", "n_samples": 128}),
    ("synth", {"gate": "X", "n_samples": 257}),
    ("sideband", {"n_samples": 128, "steps": 256}),
    # omega_max changes no closed-system output: propagate, qpt, a closed rb and
    # a direct sweep reject it as an unknown key, and sideband its omega_eff_max;
    # synth checks its value
    *[(command, {**gate, "omega_max": value})
      for command, gate in _GATES.items() for value in (0.0, -1.0, float("inf"))],
    ("synth", {"gate": "X", "omega_max": -1.0}),
    ("sideband", {"omega_eff_max": 0.0}),
    # malformed values
    ("sweep", {"gate": "X", "epsilon_grid": 5}),
    ("sweep", {"gate": "X", "epsilon_grid": {"points": 0}}),
    ("sweep", {"gate": "X", "epsilon_grid": []}),
    ("sweep", {"gate": "X", "epsilon_grid": ""}),
    ("sweep", {"gate": "X", "schemes": [5, 6]}),
    ("rb", {"noise": []}),
    ("qpt", {"gate": "X", "noise": []}),
    ("qpt", {"gate": "X", "shots": 0}),
    ("propagate", {"gate": {"theta": None, "phi": 0.0, "gamma": 1.0}}),
    ("propagate", {"gate": "X", "n_samples": float("inf")}),
    ("qpt", {"gate": "X", "seed": -1}),
    ("rb", {"scheme": "bogus"}),
    ("rb", {"scheme": "dynamical", "eta": 1.0}),
    ("sweep", {"mode": "rb", "schemes": [
        {"scheme": "holonomic"}, {"scheme": "dynamical", "eta": 1.0}]}),
    # keys the command does not read
    ("synth", {"gate": "X", "steps": 512}),
    ("synth", {"gate": "X", "noise": {}}),
    ("propagate", {"gate": {"name": "X", "theta": 0.3, "phi": 1.0, "gamma": 0.2}}),
    ("propagate", {"gate": "X", "omega_max": 2.0 * np.pi * 3.7e4}),
    ("sweep", {"gate": "X", "realizations": 5}),
    ("sweep", {"gate": "X", "noise": {"epsilon": 0.1}}),
    ("sweep", {"gate": "X", "lengths": [1, 2, 4, 8]}),
    ("sweep", {"gate": "X", "sequences": 5}),
    ("sweep", {"mode": "rb", "noise": {"epsilon": 0.1}}),
    ("propagate", {"gate": "X", "noise": {"gamma_1a": 100.0}}),
    ("propagate", {"gate": "X", "noise": {"prep_error": 0.01}}),
    ("qpt", {"gate": "X", "noise": {"gamma_0a": 10.0}}),
    ("qpt", {"gate": "X", "analytic": True, "shots": 100}),
    # a direct sweep needs its gate; an rb-mode sweep reads none
    ("sweep", {}),
    ("sweep", {"mode": "rb", "gate": "Q"}),
    # a direct sweep takes eta and scheme from 'schemes', never from its gate
    ("sweep", {"gate": {"theta": 1.0, "phi": 0.3, "gamma": 2.0, "eta": 0.7}}),
    ("sweep", {"gate": {"theta": 1.0, "phi": 0.3, "gamma": 2.0, "scheme": "dynamical"}}),
    # a gate name that is no string; lengths that are no list
    ("synth", {"gate": {"name": 5}}),
    ("rb", {"interleaved": {"name": None}}),
    ("rb", {"lengths": "124"}),
    ("sweep", {"mode": "rb", "lengths": "124"}),
    # sizes above their bound, rejected before any run starts
    ("rb", {"shots": 1e300}),
    ("qpt", {"gate": "X", "shots": 1e300}),
    ("propagate", {"gate": "X", "steps": 1e300}),
    ("sweep", {"gate": "X", "steps": 1e300}),
    ("sideband", {"steps": 1e300}),
    ("rb", {"steps": 1e300}),
    ("synth", {"gate": "X", "n_samples": 1e300}),
    ("rb", {"n_samples": 1e300}),
    ("rb", {"sequences": 1e300}),
    ("sweep", {"mode": "rb", "sequences": 1e300}),
    ("rb", {"lengths": [1, 2, 4, 1e300]}),
    ("sweep", {"gate": "X", "epsilon_grid": {"points": 1e300}}),
    ("propagate", {"gate": "X", "n_samples": 256, "steps": MAX_STEPS + 2}),
    # dephasing rates that are not finite
    ("rb", {"noise": {"gamma_1a": float("nan")}}),
    ("rb", {"noise": {"gamma_1a": float("inf")}}),
    ("sweep", {"mode": "rb", "noise": {"gamma_0a": float("nan")}}),
    # epsilon is read from 'noise' alone, and every epsilon is bounded
    ("propagate", {"gate": "X", "epsilon": 0.05}),
    ("propagate", {"gate": "X", "epsilon": 5, "noise": {"epsilon": 0.05}}),
    ("propagate", {"gate": "X", "noise": {"epsilon": float("nan")}}),
    ("sweep", {"gate": "X", "epsilon_grid": [float("nan")]}),
    ("sweep", {"gate": "X", "epsilon_grid": {"max": float("nan")}}),
    ("sweep", {"mode": "rb", "gate": "X"}),
    # a dephased rb reads omega_max, and checks its value
    *[("rb", {"noise": {"gamma_1a": 100.0}, "omega_max": value})
      for value in (0.0, -1.0, float("inf"))],
    # a named gate takes no angles; a direct sweep's gate and a closed rb no omega_max
    ("synth", {"gate": {"name": "X", "theta": 0.3}}),
    ("sweep", {"gate": {"name": "X", "eta": 0.5}}),
    ("sweep", {"gate": "X", "omega_max": 2.0 * np.pi * 3.7e4}),
    ("rb", {"omega_max": 2.0 * np.pi * 3.7e4}),
    ("sideband", {"omega_eff_max": 2.0 * np.pi * 3.7e4}),
    # a size is an integer, and analytic a JSON boolean
    ("synth", {"gate": "X", "n_samples": 256.7}),
    ("synth", {"gate": "X", "n_samples": True}),
    ("qpt", {"gate": "X", "shots": 100.5}),
    ("rb", {"lengths": [1, 2, 4, 4.5]}),
    ("sweep", {"gate": "X", "epsilon_grid": {"points": 5.5}}),
    ("sideband", {"n_max": 5.5}),
    ("qpt", {"gate": "X", "analytic": "false"}),
    ("qpt", {"gate": "X", "analytic": 0.5}),
    # an all-dynamical sweep sets gamma = -2 pi eta, so it reads no gamma
    ("sweep", {"gate": {"theta": 1.0, "phi": 0.3, "gamma": 2.0},
               "schemes": [{"scheme": "dynamical", "eta": 0.5},
                           {"scheme": "dynamical", "eta": 0.25}]}),
    # omega_max so small that the duration pi^2 sqrt(1 + 16 eta^2) / omega_max
    # overflows: no tone file of inf/nan rows, no crash in the fit
    ("synth", {"gate": "X", "n_samples": 256, "omega_max": 1e-310}),
    ("rb", {"noise": {"gamma_1a": 100.0}, "lengths": [1, 2, 4, 8], "sequences": 2,
            "n_samples": 256, "steps": 512, "omega_max": 1e-320}),
    # a seed is an integer, and every real-valued field a JSON number
    ("qpt", {"gate": "X", "seed": 2.7}),
    ("qpt", {"gate": "X", "seed": True}),
    ("qpt", {"gate": "X", "seed": "3"}),
    ("propagate", {"gate": {"theta": True, "phi": 0.0, "gamma": 1.0}}),
    ("propagate", {"gate": {"theta": "1.0", "phi": 0.0, "gamma": 1.0}}),
    ("propagate", {"gate": {"theta": 1.0, "phi": "0", "gamma": 1.0}}),
    ("propagate", {"gate": {"theta": 1.0, "phi": 0.0, "gamma": False}}),
    ("propagate", {"gate": {"name": "X", "eta": "0.5"}}),
    ("propagate", {"gate": "X", "noise": {"epsilon": "0.05"}}),
    ("qpt", {"gate": "X", "noise": {"prep_error": True}}),
    ("rb", {"noise": {"gamma_1a": "100"}}),
    ("synth", {"gate": "X", "omega_max": "6.3e4"}),
    ("rb", {"noise": {"gamma_1a": 100.0}, "omega_max": True}),
    ("rb", {"eta": "0.2"}),
    ("sideband", {"eta": True}),
    ("sideband", {"gamma": "1.5"}),
    ("sweep", {"gate": "X", "schemes": [{"eta": "0"}, {"eta": 1.0}]}),
    ("sweep", {"gate": "X", "epsilon_grid": [0.1, False]}),
    ("sweep", {"gate": "X", "epsilon_grid": {"min": "-0.1"}}),
    ("sweep", {"gate": "X", "epsilon_grid": {"max": False}}),
    # A p^m + B has three parameters: three distinct lengths fit any means exactly
    ("rb", {"lengths": [1, 2, 4, 4]}),
    # a given experiment must name the command
    ("synth", {"gate": "X", "experiment": None}),
    # a sweep's mode, and its two or three schemes of a known kind
    ("sweep", {"gate": "X", "mode": "grid"}),
    ("sweep", {"gate": "X", "schemes": [{"scheme": "adiabatic"}, {"eta": 1.0}]}),
    ("sweep", {"gate": "X", "schemes": [{"eta": 0.0}]}),
    ("sweep", {"gate": "X", "schemes": [{"eta": 0.0}, {"eta": 0.25}, {"eta": 0.5},
                                        {"eta": 1.0}]}),
    # an interleaved gate whose own eta overflows its duration, closed or
    # dephased: rejected by the parse, before the reference run writes a file
    *[("rb", {"interleaved": {"theta": 1.0, "phi": 0.0, "gamma": 1.0, "eta": 1e308},
              "noise": noise, "lengths": [1, 2, 4, 8], "sequences": 2,
              "n_samples": 256, "steps": 512})
      for noise in ({"epsilon": 0.05}, {"gamma_1a": 100.0, "gamma_0a": 10.0})],
])
def test_bad_config_is_config_error(tmp_path, capsys, command, bad):
    cfg = _write(tmp_path, "c.json", {"experiment": command, **bad})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("below", [None, "sub"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, below):
    # an --out that is a file, or lies below one: one line, no traceback, no file
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X", "n_samples": 256})
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile if below is None else afile / below
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(out) in err and len(err.splitlines()) == 1
    assert afile.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json"]


def test_missing_config_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(tmp_path / "none.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_config_seed_is_checked_under_a_seed_override(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"experiment": "qpt", "gate": "X", "analytic": True,
                                      "n_samples": 256, "steps": 1024, "seed": 2.7})
    out = tmp_path / "o"
    assert main(["qpt", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, seed, extra", [
    # settings found by search at lengths 1, 2, 4, 8. At seed 4, epsilon 0.03,
    # 5 sequences and 100 shots the reference curve is (0.994, 0.98, 0.992,
    # 0.98): its least-squares decay lies at p -> 0
    ("rb", "4", {"noise": {"epsilon": 0.03}, "sequences": 5, "shots": 100}),
    # at seed 0 the reference curve is (1, 0.995, 0.995, 0.995): again p -> 0
    ("rb", "0", {"noise": {"epsilon": 0.01}, "sequences": 2, "shots": 100}),
])
def test_rb_fit_failure_exits_3(tmp_path, capsys, command, seed, extra):
    cfg = _write(tmp_path, "c.json", {
        "experiment": command, "lengths": [1, 2, 4, 8], "sequences": 3,
        "n_samples": 256, "steps": 512, **extra})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--seed", seed]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fit failed") and len(err.splitlines()) == 1
    assert (out / "manifest.txt").read_text().splitlines()[-1] == ""


def test_mismatched_command_and_config(tmp_path):
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X"})
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# the truncation estimate of this eta = 1 gate at 256 steps is 2.5e-6 > 1e-6
_UNCONVERGED = {"gate": {"theta": 1.0, "phi": 0.3, "gamma": 2.0, "eta": 1.0},
                "n_samples": 256, "steps": 256}


def _table(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_qpt_unconverged_propagation_exits_3(tmp_path):
    cfg = _write(tmp_path, "c.json", {"experiment": "qpt", "analytic": True, **_UNCONVERGED})
    out = tmp_path / "o"
    assert main(["qpt", "--config", cfg, "--out", str(out)]) == 3
    assert "qpt_summary.csv" in (out / "manifest.txt").read_text()
    [row] = _table(out / "qpt_summary.csv")
    assert list(row) == ["process_fidelity", "iterations", "converged", "truncation_error"]
    assert row["converged"] == "True"       # the MLE's flag
    assert float(row["truncation_error"]) > 1e-6


def test_propagate_unconverged_exits_3(tmp_path):
    cfg = _write(tmp_path, "c.json", {"experiment": "propagate", **_UNCONVERGED})
    out = tmp_path / "o"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 3
    assert "propagate.csv" in (out / "manifest.txt").read_text()
    [row] = _table(out / "propagate.csv")
    assert row["converged"] == "False"
    assert float(row["truncation_error"]) > 1e-6


def test_direct_sweep_unconverged_point_exits_3(tmp_path):
    # 'schemes' sets eta; the sweep reads theta, phi and gamma of the gate
    gate = {k: v for k, v in _UNCONVERGED["gate"].items() if k != "eta"}
    cfg = _write(tmp_path, "c.json", {
        "experiment": "sweep", "epsilon_grid": [-0.1, 0.0, 0.1], **_UNCONVERGED,
        "gate": gate, "schemes": [{"eta": 0.0}, {"eta": 1.0}]})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "sweep.csv" in (out / "manifest.txt").read_text()
    rows = _table(out / "sweep.csv")
    assert len(rows) == 6
    errors = {(r["scheme"], float(r["epsilon"])): float(r["truncation_error"]) for r in rows}
    assert errors["holonomic:eta=1", 0.0] > 1e-6
    assert errors["holonomic:eta=0", 0.0] < 1e-6


def test_rb_sweep_does_not_need_a_gate(tmp_path):
    base = {"experiment": "sweep", "mode": "rb", "n_samples": 256, "steps": 512,
            "epsilon_grid": [0.02]}
    out = tmp_path / "a"
    assert main(["sweep", "--config", _write(tmp_path, "a.json", base),
                 "--out", str(out), "--seed", "1"]) == 0
    rows = _table(out / "sweep.csv")
    assert list(rows[0]) == ["epsilon", "scheme", "infidelity_mean"]
    # an rb-mode sweep reads no gate, so it rejects one
    out = tmp_path / "b"
    assert main(["sweep", "--config", _write(tmp_path, "b.json", dict(base, gate="X")),
                 "--out", str(out), "--seed", "1"]) == 2
    assert not out.exists()


def test_rb_sweep_is_monotone_in_the_amplitude_error():
    # the exact decay at each epsilon, with no sampled sequences to scatter it
    rows = run_sweep({"experiment": "sweep", "mode": "rb", "n_samples": 256, "steps": 512,
                      "epsilon_grid": {"min": -0.2, "max": 0.2, "points": 9}}, 0)
    infidelity = {}
    for eps, label, mean, err in rows:
        assert err is None
        infidelity.setdefault(label, []).append(mean)
    for values in infidelity.values():
        assert abs(values[4]) <= 1e-12       # epsilon = 0
        assert np.all(np.diff(values[:5]) < 0) and np.all(np.diff(values[4:]) > 0)
    robust, plain = infidelity["holonomic:eta=1"], infidelity["holonomic:eta=0"]
    assert robust[0] < plain[0] and robust[-1] < plain[-1]


def test_sweep_mode_is_set_in_the_config_alone(tmp_path):
    # argparse rejects a --mode flag, and export-awg, which is synth's old name
    for command, flags in (("sweep", ["--mode", "rb"]), ("export-awg", [])):
        cfg = _write(tmp_path, "c.json", {"experiment": command, "gate": "X"})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def _counted(monkeypatch, name):
    """Route cli.<name> through a wrapper; returns the list of its calls."""
    calls, fn = [], getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(cli, name, counted)
    return calls


def test_direct_sweep_scores_each_schemes_grid_in_one_call(tmp_path, monkeypatch):
    fidelities = _counted(monkeypatch, "fidelity_qubit_subspace")
    propagations = _counted(monkeypatch, "propagate_unitary")
    cfg = _write(tmp_path, "c.json", {
        "experiment": "sweep", "gate": "X", "n_samples": 256, "steps": 512,
        "epsilon_grid": {"min": -0.2, "max": 0.2, "points": 5},
        "schemes": [{"eta": 0.0}, {"eta": 1.0}, {"scheme": "dynamical", "eta": 0.5}]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(fidelities) == 3 and len(propagations) == 3
    assert all(np.shape(u) == (5, 3, 3) for u, _ in fidelities)
    assert len(_table(tmp_path / "o" / "sweep.csv")) == 15


@pytest.fixture
def fresh_parser():
    """An empty parser memo before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, fresh_parser):
    built, parser_class = [], argparse.ArgumentParser

    def counted(*args, **kwargs):
        built.append(parser_class(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counted))
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X", "n_samples": 256})
    for k in range(2):
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 0
    assert len(built) == 1


def test_a_bad_command_is_a_usage_error_on_every_call(tmp_path, capsys, fresh_parser):
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X"})
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: holopulse") and "invalid choice: 'bogus'" in err
    assert not (tmp_path / "o").exists()


_CLI_RUNS = """
import json, sys
from pathlib import Path
import holopulse.cli
out = Path(sys.argv[1])
for k, cfg in enumerate(json.loads(sys.argv[2])):
    path, run = out / f"{k}.json", out / f"out{k}"
    path.write_text(json.dumps(cfg))
    status = holopulse.cli.main([cfg["experiment"], "--config", str(path),
                                 "--out", str(run), "--seed", "7"])
    if status != 0:
        sys.exit(f"{cfg} exited {status}")
    listed = sorted(line for line in (run / "manifest.txt").read_text().splitlines()
                    if line and not line.startswith("#"))
    written = sorted(p.name for p in run.iterdir() if p.name != "manifest.txt")
    if listed != written:
        sys.exit(f"{cfg}: manifest lists {listed}, --out holds {written}")
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "fft"])
sys.exit(f"the runs loaded {loaded}" if loaded else 0)
"""


def test_numpy_commands_need_no_scipy(tmp_path):
    # every command runs on numpy alone, rb and its fit included: no run loads a
    # scipy module, not even one whose import failure the code would tolerate,
    # nor numpy.fft, which numpy imports lazily (a dephased T run's theta
    # series takes its coefficients by a DFT matrix product). Each run exits
    # 0, and its manifest lists exactly the files in its --out.
    dynamical = {"theta": 1.1, "phi": 0.4, "eta": 0.3, "scheme": "dynamical"}
    dephased_rb = {"experiment": "rb", "noise": {"gamma_1a": 100.0, "gamma_0a": 10.0},
                   "lengths": [1, 2, 4, 8], "sequences": 2, "shots": 100,
                   "n_samples": 256, "steps": 512}
    configs = [
        {"experiment": "synth", "gate": "X", "n_samples": 256},
        {"experiment": "propagate", "gate": "H", "noise": {"epsilon": 0.05},
         "n_samples": 256, "steps": 512},
        {"experiment": "propagate", "gate": dynamical, "n_samples": 256,
         "steps": 1024},
        {"experiment": "qpt", "gate": "X", "shots": 2000, "n_samples": 256,
         "steps": 1024},
        {"experiment": "qpt", "gate": "T", "analytic": True, "n_samples": 256,
         "steps": 1024},
        {"experiment": "sideband", "gamma": 1.5, "eta": 0.2, "n_samples": 512,
         "steps": 1024},
        {"experiment": "sweep", "gate": "X", "n_samples": 256, "steps": 512,
         "epsilon_grid": {"min": -0.2, "max": 0.2, "points": 5}},
        {"experiment": "sweep", "mode": "rb", "n_samples": 256, "steps": 512,
         "epsilon_grid": [-0.1, 0.0, 0.1]},
        # one drive per epsilon
        {"experiment": "sweep", "mode": "rb", "noise": {"gamma_1a": 100.0, "gamma_0a": 10.0},
         "n_samples": 256, "steps": 512, "epsilon_grid": [0.0, 0.02]},
        # an all-dynamical sweep needs only the axis of its gate
        {"experiment": "sweep", "gate": {"theta": 1.0, "phi": 0.3}, "n_samples": 256,
         "steps": 512, "epsilon_grid": [-0.1, 0.1],
         "schemes": [{"scheme": "dynamical", "eta": 0.5},
                     {"scheme": "dynamical", "eta": 0.25}]},
        # one fidelity call per scheme, on a holonomic and a dynamical stack
        {"experiment": "sweep", "gate": "X", "n_samples": 256, "steps": 512,
         "epsilon_grid": {"min": -0.2, "max": 0.2, "points": 5},
         "schemes": [{"eta": 0.0}, {"scheme": "dynamical", "eta": 0.5}]},
        {"experiment": "rb", "noise": {"epsilon": 0.05}, "lengths": [1, 2, 4, 8],
         "sequences": 2, "n_samples": 256, "steps": 512},
        {"experiment": "rb", "interleaved": "T", "noise": {"epsilon": 0.05},
         "lengths": [1, 2, 4, 8], "sequences": 2, "shots": 100, "n_samples": 256,
         "steps": 512},
        dephased_rb,
        # four blocks of the first half, more than the drive memo holds: each
        # channel makes its own drive (at 16384 steps, two blocks, all share one)
        dict(dephased_rb, steps=32768),
        # its recoveries read the engine's theta series of the first half
        dict(dephased_rb, interleaved="T"),
        # a Clifford interleaved gate: index 24 of the run's gate stack, and
        # each recovery read from the Cayley table through products[k]
        dict(dephased_rb, interleaved="X"),
        # a dynamical interleaved gate with its own eta: a drive apart from the Cliffords'
        dict(dephased_rb, interleaved=dynamical),
        # one draw per length for both runs: each read of a length's streams,
        # the repeated m = 2 included, puts them back before its shots
        dict(dephased_rb, interleaved="T", lengths=[1, 2, 2, 4, 8], sequences=3),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(holopulse.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CLI_RUNS, str(tmp_path),
                           json.dumps(configs)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("extra, status", [({}, 0), ({"bogus": 1}, 2)])
def test_module_entry_point(tmp_path, extra, status):
    # `python -m holopulse.cli` runs main through the module's __main__ guard
    # and exits with its status: 0 with a manifest, 2 with no --out
    cfg = _write(tmp_path, "c.json", {"experiment": "synth", "gate": "X",
                                      "n_samples": 256, **extra})
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(holopulse.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "holopulse.cli", "synth", "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == status, proc.stderr
    if status == 0:
        assert (out / "manifest.txt").read_text().splitlines()[-2:] == [
            "tones.csv", "synth_summary.csv"]
    else:
        assert proc.stderr.startswith("config error") and not out.exists()
