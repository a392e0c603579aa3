"""Self-tests of the benchmark: oracles against closed forms, checks
against deliberately wrong values, tracing and the command line.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from loopvertex import bounds, fusscatalan, partition  # noqa: E402
from loopvertex.bounds import BoundReport  # noqa: E402


def off_cut_points(n: int, seed: int, min_angle: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    radius = 10.0 ** rng.uniform(-2.0, 4.0, n)
    angle = rng.uniform(min_angle, 2 * np.pi - min_angle, n)
    return radius * np.exp(1j * angle)


# ---------------------------------------------------------------------------
# oracles against closed forms


def test_p2_oracles_match_closed_form():
    z = np.concatenate([off_cut_points(300, 1, 0.05), workloads.near_cut_points(2, 40)])
    ref = oracles.catalan_closed_form(z)
    inside = np.abs(z) <= 0.5 * oracles.branch_point(2)
    assert inside.any()
    assert np.max(np.abs(oracles.fc_series(2, z[inside]) - ref[inside])
                  / np.abs(ref[inside])) <= 1e-13
    assert np.max(np.abs(oracles.fc_hyp2f1(2, z) - ref) / np.abs(ref)) <= 1e-13
    assert np.max(np.abs(oracles.fc_dense_continuation(2, z) - ref) / np.abs(ref)) <= 1e-12


def test_p3_hyp2f1_matches_series_and_continuation_away_from_cut():
    z = off_cut_points(300, 2, 0.5)
    ref = oracles.fc_hyp2f1(3, z)
    inside = np.abs(z) <= 0.5 * oracles.branch_point(3)
    assert inside.any()
    assert np.max(np.abs(oracles.fc_series(3, z[inside]) - ref[inside])
                  / np.abs(ref[inside])) <= 1e-13
    assert np.max(np.abs(oracles.fc_dense_continuation(3, z) - ref) / np.abs(ref)) <= 1e-12
    resid = np.abs(z * ref**3 - ref + 1.0) / (1.0 + np.abs(z * ref**3))
    assert np.max(resid) <= 1e-13


def test_dense_continuation_satisfies_equation_at_higher_p():
    for p in (4, 5, 6):
        z = workloads.near_cut_points(p, 40)
        t = oracles.fc_dense_continuation(p, z)
        assert np.max(np.abs(z * t**p - t + 1.0) / (1.0 + np.abs(z * t**p))) <= 1e-12
        # principal branch: p |arg T| < pi along the whole continuation
        assert np.all(p * np.abs(np.angle(t)) < np.pi)


def test_n1_gaussian_moments():
    for p in range(1, 7):
        closed = oracles.gaussian_moment_n1(p)
        assert closed == pytest.approx(float(partition.gaussian_moment_exact(1, p, 2)), rel=1e-15)
        integral = mpmath.quad(lambda x: x ** (2 * p) * mpmath.exp(-x * x),
                               [-mpmath.inf, mpmath.inf]) / mpmath.sqrt(mpmath.pi)
        assert closed == pytest.approx(float(integral), rel=1e-14)


def test_moment_oracle_first_order_and_gaussian_limit():
    lam = 1e-7
    for p in (2, 3):
        z1 = oracles.z_ratio_moments(p, lam, 1)
        assert (1.0 - z1.real) / lam == pytest.approx(oracles.gaussian_moment_n1(p), rel=1e-5)
        z2 = oracles.z_ratio_moments(p, lam, 2)
        # Z = 1 - N lam E[Tr H^2p] + O(lam^2)
        slope = float(partition.gaussian_moment_exact(2, p, 2)) * 2
        assert (1.0 - z2.real) / lam == pytest.approx(slope, rel=1e-5)


# ---------------------------------------------------------------------------
# each workload's checks reject deliberately wrong values


class TinyQuad(workloads.QuadOracle):
    ps = (2,)
    betas = (2,)
    sizes = (1, 2)
    moduli = (0.1,)
    angles = (0.0, 3 * np.pi / 4)
    free_energy_sizes = (1,)


def scaled(est, factor):
    return SimpleNamespace(value=est.value * factor)


def test_quad_checks_pass_and_reject_scaled_z():
    wl = TinyQuad(0)
    wl.setup()
    ops = wl.ops()
    results = {op.name: op.call() for op in ops}
    wl.oracles()
    assert workloads.check_round(ops, results, wl.verdict)[1] == []
    for prefix in ("z_direct", "z_lvr"):
        name = next(k for k in results if k.startswith(prefix))
        bad = dict(results, **{name: scaled(results[name], 1 + 1e-3)})
        assert workloads.check_round(ops, bad, wl.verdict)[1], prefix
    f_name = next(k for k in results if k.startswith("free_energy"))
    bad = dict(results, **{f_name: results[f_name] * 1.02})
    assert workloads.check_round(ops, bad, wl.verdict)[1]


class TinyBattery(workloads.BoundBattery):
    ps = (2,)
    near_cut_ps = (3,)
    near_cut_count = 4
    fc_sample_points = 64


@pytest.fixture(scope="module")
def battery():
    wl = TinyBattery(0)
    wl.setup()
    wl.oracles()
    return wl


def test_near_cut_non_principal_root_counts_as_failed(battery):
    # fc_eval_many's non-principal root at p = 3, z = 899 exp(4.7e-4 i)
    z = 899.0 * np.exp(4.7e-4j)
    battery.near_cut = {3: np.array([z])}
    battery.near_cut_ref = {3: oracles.fc_hyp2f1(3, battery.near_cut[3])}
    assert abs(battery.near_cut_ref[3][0] - (0.053608 + 0.086622j)) < 1e-5
    name = "near_cut p=3 #0"
    failed, problems = battery.verdict({name: np.array([-0.10719 + 0.0000174j])})
    assert failed == [name] and problems == []
    failed, problems = battery.verdict({name: battery.near_cut_ref[3]})
    assert failed == [] and problems == []


def test_bound_checks_reject_bad_values(battery):
    good = BoundReport("x", 2.0, 10, exponent_target=0.0625, exponent_measured=1.0)
    assert battery.verdict({"suite": good}) == ([], [])
    for bad in (BoundReport("x", np.inf, 10), BoundReport("x", -1.0, 10),
                BoundReport("x", 2.0, 10, exponent_target=0.0625, exponent_measured=0.05)):
        assert battery.verdict({"suite": (good, bad)})[1]

    arg = battery.args[0]
    name = f"contour_factor_values p=2 arg={arg:.4f}"
    moduli, values = bounds.contour_factor_values(2, arg, moduli=battery.low_decade)
    assert battery.verdict({name: (moduli, values)})[1] == []
    # a constant floor, which the full-sweep envelope lets pass
    assert battery.verdict({name: (moduli, values + 0.1)})[1]

    p, m, a, _ = battery.sigma_cases[0]
    name = f"sigma_resolvent p={p} mod={m} arg={a:.4f}"
    assert battery.verdict({name: [np.ones((3, 3))]})[1] == []
    assert battery.verdict({name: [np.ones((3, 3)) + 1e-3]})[1]

    t = fusscatalan.fc_eval_many(fusscatalan.FussCatalanParams(2), battery.fc_sample[2])
    assert battery.verdict({"fc_eval_many sample p=2": t})[1] == []
    wrong = t.copy()
    k = int(np.argmax(np.abs(battery.fc_sample[2])))
    wrong[k] = 1.0 / (battery.fc_sample[2][k] * t[k])  # the other root of z T^2 - T + 1
    assert battery.verdict({"fc_eval_many sample p=2": wrong})[1]

    est = SimpleNamespace(value=-0.5625 * battery.small_lam)
    assert battery.verdict({"single_vertex_amplitude p=2": est})[1] == []
    est = SimpleNamespace(value=-0.5625 * battery.small_lam * 1.02)
    assert battery.verdict({"single_vertex_amplitude p=2": est})[1]


def amp(value, stderr):
    return SimpleNamespace(value=value, stderr=stderr)


def test_mc_checks_reject_swapped_amplitude_and_disagreement():
    wl = workloads.McTrees(0)
    wl.setup()
    a3 = -8.1e-7
    results = {
        "tree_amplitude n=2": amp(1.0e-5, 3e-8),
        "single_vertex_amplitude": amp(-6.8e-3, 0.0),
        "lve_truncated_F n_max=2": (-6.8e-3 + 0.5e-5, 1.5e-8),
        "free_energy": -6.8e-3 + 0.5e-5 + 3 * a3 / 6,
        "mc z_direct N=3 beta=2": SimpleNamespace(value=0.8085, error=5e-4),
        "mc z_lvr N=3 beta=2": SimpleNamespace(value=0.8086, error=4e-4),
        "quad z_direct N=3": SimpleNamespace(value=0.80819, error=0.0),
    }
    for t in wl.trees3:
        results[f"tree_amplitude n=3 {t.edges}"] = amp(a3, 3.5e-8)
    assert wl.verdict(results) == ([], [])

    swapped = dict(results)
    first = f"tree_amplitude n=3 {wl.trees3[0].edges}"
    swapped[first], swapped["tree_amplitude n=2"] = (
        results["tree_amplitude n=2"], results[first])
    assert wl.verdict(swapped)[1]

    off = dict(results, **{"mc z_lvr N=3 beta=2": SimpleNamespace(value=0.8086 * 1.01, error=4e-4)})
    assert wl.verdict(off)[1]
    off = dict(results, **{"free_energy": results["free_energy"] + 3e-7})
    assert wl.verdict(off)[1]


# ---------------------------------------------------------------------------
# tracing, command line, compare


def test_tracer_covers_benchmark_metrics_and_uninstalls():
    import loopvertex

    original = fusscatalan.fc_eval_many
    tracer = tracing.Tracer()
    tracer.install(loopvertex)
    try:
        assert fusscatalan.fc_eval_many is not original
        assert bounds.fc_eval_many is fusscatalan.fc_eval_many
        tracer.phase = "round"
        bounds.contour_factor_values(2, 0.0, moduli=(1e-3,))
    finally:
        tracer.uninstall()
    assert fusscatalan.fc_eval_many is original and bounds.fc_eval_many is original
    names = {s.name for s in tracer.spans}
    assert {"bounds.contour_factor_values", "contour.build_keyhole",
            "scalarmaps.eval_map", "fusscatalan.fc_eval_many"} <= names
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["contour.keyholes"] == 1 and metrics["scalarmaps.eval_map.calls"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(declared) == set(metrics) | {"trace.overhead_s"}
    assert all(tracing.unit_of(k) == u for k, u in declared.items())


def test_run_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-trees", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wall_time_sums_each_operations_slowest_time():
    times = {"a": [5.0, 1.0, 3.0, 2.0, 4.0], "b": [0.5]}
    assert run.base_speed_round(times) == 5.5


def write_result(d: Path, workload: str, i: int, wall: float):
    (d / workload).mkdir(parents=True, exist_ok=True)
    metrics = {"setup_s": {"value": 1.0, "unit": "s"},
               "wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": 100.0, "unit": "MB"}}
    rec = {"workload": workload, "seed": i, "trace": 0,
           "result": {"correct": True, "attempted": 10, "failed": 1, "metrics": metrics}}
    (d / workload / f"s{i}.json").write_text(json.dumps(rec))


def test_compare_flags_a_worse_median(tmp_path, capsys):
    for i in range(5):
        write_result(tmp_path / "a", "mc-trees", i, 10.0 + 0.01 * i)
        write_result(tmp_path / "b", "mc-trees", i, 10.0 + 0.01 * i)
        write_result(tmp_path / "c", "mc-trees", i, 20.0 + 0.01 * i)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    out = capsys.readouterr().out
    assert "WORSE" in out and "failed share 0.100000" in out
