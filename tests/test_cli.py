import argparse
import json
import os

import numpy as np
import pytest

from loopvertex import action
from loopvertex.action import jacobian_check
from loopvertex.contour import build_keyhole
from loopvertex.cli import (
    COMMANDS,
    SCHEMA_VERSION,
    _parse_n_list,
    _write_json,
    build_parser,
    config_from_args,
    main,
    run,
)
from loopvertex.scalarmaps import inverse_residual


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("LOOPVERTEX_OUTDIR", str(tmp_path))
    return main(argv)


def load_json(tmp_path, command):
    with open(os.path.join(str(tmp_path), f"{command}.json")) as f:
        return json.load(f)


def test_parse_n_list():
    assert _parse_n_list("1..4") == (1, 2, 3, 4)
    assert _parse_n_list("2,5,7") == (2, 5, 7)
    assert _parse_n_list("") == ()


def test_parser_covers_all_commands():
    parser = build_parser()
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name


_COUPLING_FLAGS = {"--p", "--lambda-modulus", "--lambda-arg", "--epsilon"}
_ENSEMBLE_FLAGS = {"--N", "--beta"}

#: the flags each command body reads, besides --output
_EXPECTED_FLAGS = {
    "fc-eval": {"--p", "--z-re", "--z-im"},
    "maps-check": _COUPLING_FLAGS | {"--seed"},
    "contour-check": _COUPLING_FLAGS | {"--seed"},
    "z-identity": _COUPLING_FLAGS | _ENSEMBLE_FLAGS,
    "free-energy": _COUPLING_FLAGS | _ENSEMBLE_FLAGS,
    "single-vertex": _COUPLING_FLAGS | _ENSEMBLE_FLAGS,
    "lve-sum": _COUPLING_FLAGS | _ENSEMBLE_FLAGS | {"--n-max", "--mc-samples", "--seed"},
    "jacobian-check": {"--p", "--N", "--lambda-modulus", "--lambda-arg", "--seed"},
    "verify-bounds": {"--p", "--epsilon", "--seed"},
    "pacman-scan": _COUPLING_FLAGS | {"--N-list", "--beta"},
}


def test_each_command_takes_and_records_only_the_inputs_it_reads(tmp_path, capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_EXPECTED_FLAGS) == set(COMMANDS)
    every_flag = set().union(*_EXPECTED_FLAGS.values())
    for name, flags in _EXPECTED_FLAGS.items():
        actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
        assert {f for a in actions for f in a.option_strings} == flags | {"--output"}
        out = tmp_path / name
        _write_json(config_from_args([name, "--output", str(out)]), {})
        recorded = set(load_json(out, name)["inputs"])
        assert recorded == {a.dest for a in actions} | {"command"}
        assert "output_path" in recorded
        for flag in sorted(every_flag - flags):
            assert main([name, flag, "1"]) == 2, (name, flag)
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


def test_malformed_n_list_exits_2(tmp_path, capsys):
    # argparse parses --N-list, so a bad list is a usage error, not a traceback
    # an empty or reversed range, or fewer than 3 distinct N, leaves the trend fit undefined
    for text in ("abc", "1..2..3", "2,x", "1", "1,2", "5..2"):
        assert main(["pacman-scan", "--N-list", text, "--output", str(tmp_path)]) == 2
        assert "--N-list" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_and_bad_command_exit_codes():
    assert main(["--help"]) == 0
    assert main(["no-such-command"]) == 2


def test_config_errors_exit_2(tmp_path, monkeypatch, capsys):
    for argv in (
        # pacman sector violation
        ["z-identity", "--lambda-modulus", "0.1", "--lambda-arg", "3.1"],
        ["fc-eval", "--p", "1"],
        ["z-identity", "--beta", "3"],
        # |lambda| above eta is rejected by Coupling
        ["z-identity", "--lambda-modulus", "0.7"],
        # a non-finite lambda is rejected by Coupling
        ["z-identity", "--lambda-modulus", "nan"],
        ["z-identity", "--lambda-modulus", "0.05", "--lambda-arg", "nan"],
        ["maps-check", "--lambda-modulus", "nan"],
        # a non-finite z, lambda or an n_max above the amplitude limit
        ["fc-eval", "--z-re", "nan"],
        ["fc-eval", "--z-re", "1e400"],
        ["fc-eval", "--z-im", "inf"],
        ["jacobian-check", "--lambda-modulus", "nan"],
        ["jacobian-check", "--lambda-modulus", "inf"],
        ["lve-sum", "--n-max", "4"],
        # a negative seed, which numpy's generators refuse
        ["jacobian-check", "--seed", "-1", "--lambda-modulus", "1"],
        ["verify-bounds", "--seed", "-1"],
        ["lve-sum", "--seed", "-1", "--lambda-modulus", "0.05"],
    ):
        assert run_cli(argv, tmp_path, monkeypatch) == 2, argv
        assert "config error" in capsys.readouterr().err, argv


def test_fc_eval_json_document(tmp_path, monkeypatch):
    code = run_cli(
        ["fc-eval", "--p", "2", "--z-re", "0.1"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    doc = load_json(tmp_path, "fc-eval")
    assert doc["schema_version"] == SCHEMA_VERSION
    assert "convention_ledger" in doc
    assert "covariance_beta2" in doc["convention_ledger"]
    assert doc["inputs"]["p"] == 2
    assert "seed" not in doc["inputs"]
    assert "results" in doc and "checks" in doc
    assert all(doc["checks"].values())


def test_seed_reproducibility_byte_identical(tmp_path, monkeypatch):
    def run_seed(seed):
        argv = [
            "lve-sum", "--N", "2", "--lambda-modulus", "0.0125",
            "--mc-samples", "2000", "--seed", str(seed),
        ]
        assert run_cli(argv, tmp_path, monkeypatch) == 0
        return open(os.path.join(str(tmp_path), "lve-sum.json"), "rb").read()

    first = run_seed(9)
    assert run_seed(9) == first
    # the seed reaches the sampler
    assert run_seed(10) != first


def test_z_identity_quadrature_and_mc(tmp_path, monkeypatch):
    code = run_cli(
        ["z-identity", "--N", "2", "--lambda-modulus", "0.08"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    doc = load_json(tmp_path, "z-identity")
    assert all(doc["checks"].values())
    code = run_cli(
        ["z-identity", "--N", "5", "--lambda-modulus", "0.05"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    doc = load_json(tmp_path, "z-identity")
    assert doc["results"]["relative_gap"] <= 1e-4


def test_jacobian_check_requires_real_positive_coupling(tmp_path, monkeypatch):
    code = run_cli(
        ["jacobian-check", "--lambda-modulus", "0.1", "--lambda-arg", "0.5"],
        tmp_path, monkeypatch,
    )
    assert code == 2
    code = run_cli(
        ["jacobian-check", "--lambda-modulus", "1.0"], tmp_path, monkeypatch
    )
    assert code == 0


def test_jacobian_check_negative_control(tmp_path, monkeypatch):
    """A map h that is not increasing fails the check, in the library and the CLI."""
    true_map_derivatives = action.map_derivatives

    def decreasing_at_first_point(c, u):
        md = dict(true_map_derivatives(c, u))
        for key in ("h", "hp"):
            md[key] = md[key].copy()
            md[key][..., 0] *= -1.0
        return md

    monkeypatch.setattr(action, "map_derivatives", decreasing_at_first_point)
    assert not jacobian_check(2, 1.0, [-1.0, 2.0])["overall_positive"]
    assert not jacobian_check(2, 1.0, np.array([[-1.0, 2.0], [0.5, 3.0]]))[
        "overall_positive"].any()
    assert run_cli(["jacobian-check", "--lambda-modulus", "1.0"], tmp_path, monkeypatch) == 1
    assert load_json(tmp_path, "jacobian-check")["results"]["n_failures"] == 200


def test_single_vertex_output(tmp_path, monkeypatch):
    code = run_cli(
        ["single-vertex", "--N", "2", "--lambda-modulus", "0.005"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    doc = load_json(tmp_path, "single-vertex")
    amp = doc["results"]["amplitude"]
    assert amp["re"] == pytest.approx(-0.0027815360, abs=1e-7)


def test_single_vertex_complex_coupling_above_n3(tmp_path, monkeypatch):
    code = run_cli(
        ["single-vertex", "--N", "5", "--lambda-modulus", "0.05",
         "--lambda-arg", "2.5"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    doc = load_json(tmp_path, "single-vertex")
    assert doc["results"]["stderr"] <= 1e-10
    assert doc["results"]["n_mc_samples"] in (128, 256)


def test_output_flag_overrides_env(tmp_path, monkeypatch):
    out = tmp_path / "sub"
    monkeypatch.setenv("LOOPVERTEX_OUTDIR", str(tmp_path))
    code = main(["fc-eval", "--z-re", "0.05", "--output", str(out)])
    assert code == 0
    assert (out / "fc-eval.json").exists()
    assert not (tmp_path / "fc-eval.json").exists()


def test_pacman_scan_csv(tmp_path, monkeypatch):
    code = run_cli(
        ["pacman-scan", "--N-list", "1..3", "--lambda-modulus", "0.05",
         "--lambda-arg", "0.7"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    csv_path = os.path.join(str(tmp_path), "pacman-scan.csv")
    assert os.path.exists(csv_path)
    with open(csv_path) as f:
        header = f.readline().strip().split(",")
    assert any(col.endswith("_re") for col in header)
    assert any(col.endswith("_im") for col in header)


def test_pacman_scan_complex_coupling_every_n(tmp_path, monkeypatch):
    code = run_cli(
        ["pacman-scan", "--N-list", "1..6", "--lambda-modulus", "0.05",
         "--lambda-arg", "2.5"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    with open(os.path.join(str(tmp_path), "pacman-scan.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0] == "N,F_re,F_im"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6]


def test_run_config_direct(tmp_path, monkeypatch):
    monkeypatch.setenv("LOOPVERTEX_OUTDIR", str(tmp_path))
    cfg = config_from_args(["free-energy", "--N", "1", "--lambda-modulus", "0.1"])
    assert cfg.command == "free-energy"
    assert cfg.coupling().lam == pytest.approx(0.1)
    assert run(cfg) == 0
    assert (tmp_path / "free-energy.json").exists()


def test_free_energy_json_records_the_topological_residual(tmp_path, monkeypatch):
    # p = 5, N = 1, lambda = 0.1: the former ray integral of log Z stalled here
    argv = ["free-energy", "--p", "5", "--N", "1", "--lambda-modulus", "0.1"]
    assert run_cli(argv, tmp_path, monkeypatch) == 0
    doc = load_json(tmp_path, "free-energy")
    res = doc["results"]
    f = complex(res["free_energy"]["re"], res["free_energy"]["im"])
    topo = complex(res["free_energy_topological"]["re"], res["free_energy_topological"]["im"])
    assert res["topological_residual"] == pytest.approx(abs(f - topo), rel=1e-12)
    assert 0 < res["topological_residual"] <= 0.25
    assert "log_branch" in doc["convention_ledger"]


def _old_maps_check(config):
    """The per-point loop maps-check ran before inverse_residual took arrays."""
    c = config.coupling()
    rng = np.random.default_rng(config.seed)
    pts = 2.0 * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    worst = 0.0
    for z in pts:
        worst = max(worst, abs(inverse_residual(c, complex(z))))
    ok = worst <= 1e-9
    return {
        "results": {"max_inverse_residual": worst, "n_points": len(pts)},
        "checks": {"inverse_pair_identity": bool(ok)},
    }


def _old_jacobian_check(config):
    """The per-spectrum loop jacobian-check ran before the batched pair scan."""
    rng = np.random.default_rng(config.seed)
    n_fail = 0
    n_specs = 200
    for _ in range(n_specs):
        eigs = rng.uniform(-5, 5, config.N)
        report = jacobian_check(config.p, config.lambda_modulus, eigs)
        if not report["overall_positive"]:
            n_fail += 1
    return {
        "results": {"n_spectra": n_specs, "n_failures": n_fail},
        "checks": {"jacobian_positive": bool(n_fail == 0)},
    }


def _old_contour_check(config):
    """contour-check with --quad-nodes at its default 64 and a per-point Cauchy loop."""
    gamma = build_keyhole(2.0, config.coupling(), n_nodes=64)
    rng = np.random.default_rng(config.seed)
    inner = rng.uniform(-0.4, 0.4, 100) * gamma.r
    worst_in = max(abs(complex(gamma.cauchy(complex(a))) - 1.0) for a in inner)
    outer = 2.0 * gamma.R * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    worst_out = max(abs(complex(gamma.cauchy(complex(a)))) for a in outer)
    ok = worst_in <= 1e-8 and worst_out <= 1e-8
    return {
        "results": {
            "R": gamma.R,
            "r": gamma.r,
            "psi": gamma.psi,
            "n_nodes": len(gamma.nodes),
            "max_interior_defect": worst_in,
            "max_exterior_defect": worst_out,
        },
        "checks": {"cauchy_identity": bool(ok)},
    }


@pytest.mark.parametrize("argv,old_body", [
    (["maps-check", "--lambda-modulus", "0.1", "--seed", "3"], _old_maps_check),
    (["maps-check", "--p", "3", "--lambda-modulus", "0.05", "--lambda-arg", "2.0",
      "--seed", "11"], _old_maps_check),
    (["jacobian-check", "--lambda-modulus", "1.0", "--N", "3", "--seed", "5"],
     _old_jacobian_check),
    (["jacobian-check", "--p", "3", "--lambda-modulus", "0.3", "--N", "4", "--seed", "2"],
     _old_jacobian_check),
    (["contour-check", "--lambda-modulus", "0.05", "--seed", "4"], _old_contour_check),
    (["contour-check", "--p", "3", "--lambda-modulus", "0.1", "--lambda-arg", "2.5",
      "--seed", "9"], _old_contour_check),
])
def test_batched_commands_match_old_loops_byte_for_byte(argv, old_body, tmp_path):
    new_cfg = config_from_args(argv + ["--output", str(tmp_path / "new")])
    code = run(new_cfg)
    old_cfg = config_from_args(argv + ["--output", str(tmp_path / "old")])
    old_cfg.validate()
    old_payload = old_body(old_cfg)
    _write_json(old_cfg, old_payload)
    assert code == (0 if all(old_payload["checks"].values()) else 1)
    name = f"{argv[0]}.json"
    new_bytes = (tmp_path / "new" / name).read_bytes()
    old_bytes = (tmp_path / "old" / name).read_bytes()
    # the output directory is echoed in the inputs; compare everything else
    assert new_bytes.replace(b"/new", b"/old") == old_bytes
