"""Batch command-line front-end with JSON/CSV result emission.

Each command takes only the flags its body reads, plus ``--output``;
any other flag is refused (exit 2).  The JSON ``inputs`` block records
the command, the output path and those flags:

    fc-eval                    --p --z-re --z-im
    maps-check, contour-check  --p --lambda-modulus --lambda-arg --epsilon --seed
    z-identity, free-energy,   --p --N --beta --lambda-modulus --lambda-arg --epsilon
      single-vertex
    lve-sum                    the six above, plus --n-max --mc-samples --seed
    jacobian-check             --p --N --lambda-modulus --lambda-arg (0) --seed
    verify-bounds              --p --epsilon --seed
    pacman-scan                --p --N-list --beta --lambda-modulus --lambda-arg --epsilon
                               (--N-list: lo..hi or a,b,c, at least 3 distinct N)

Exit codes: 0 all asserted invariants pass, 1 an invariant failed
(the failing check is named in the JSON), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .action import jacobian_check
from .bounds import all_bound_suites
from .contour import build_keyhole
from .errors import ConfigError, LoopVertexError
from .fusscatalan import FussCatalanParams, fc_eval_many
from .matrixcore import EnsembleSpec
from .partition import free_energy, topological_free_energy, z_direct, z_lvr
from .scalarmaps import Coupling, inverse_residual
from .trees import MAX_AMPLITUDE_VERTICES, lve_truncated_F, single_vertex_amplitude

SCHEMA_VERSION = 4

CONVENTION_LEDGER = {
    "gaussian_weight": "exp(-N Tr H^2)",
    "covariance_beta2": "E[H_ij H_kl] = delta_il delta_jk / (2N)",
    "covariance_beta1": "E[H_ij H_kl] = (delta_il delta_jk + delta_ik delta_jl) / (4N)",
    "cauchy_normalization": "1/(2 pi i) included in all contour calculus",
    "edge_factor": "1/(2N) per tree edge, matching the declared covariance",
    "log_branch": "F = N^-2 (principal log Z + 2 pi i m), m the integer nearest "
    "to Im(N^2 F_topo - log Z)/(2 pi); refused when N^2 |F - F_topo| > pi/2",
}


@dataclass
class RunConfig:
    command: str
    p: int = 2
    lambda_modulus: float = 0.0
    lambda_arg: float = 0.0
    epsilon: float = 0.2
    N: int = 2
    beta: int = 2
    n_max: int = 2
    mc_samples: int = 20000
    seed: int = 0
    output_path: str = ""
    n_list: tuple[int, ...] = field(default_factory=tuple)
    z_re: float = 0.0
    z_im: float = 0.0

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.p < 2:
            raise ConfigError("p must be >= 2")
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if self.beta not in (1, 2):
            raise ConfigError("beta must be 1 or 2")
        if self.lambda_modulus < 0:
            raise ConfigError("lambda modulus must be >= 0")
        if not 0 < self.epsilon < np.pi:
            raise ConfigError("epsilon must lie in (0, pi)")
        if self.lambda_modulus > 0 and abs(self.lambda_arg) > np.pi - self.epsilon:
            raise ConfigError("arg lambda outside the pacman sector")
        if self.mc_samples < 1:
            raise ConfigError("counts must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 1 <= self.n_max <= MAX_AMPLITUDE_VERTICES:
            raise ConfigError(f"n_max must lie in [1, {MAX_AMPLITUDE_VERTICES}]")
        if not np.isfinite(complex(self.z_re, self.z_im)):
            raise ConfigError("z must be finite")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("N-list entries must be >= 1")

    def coupling(self) -> Coupling:
        lam = self.lambda_modulus * np.exp(1j * self.lambda_arg)
        try:
            return Coupling(lam=lam, epsilon=self.epsilon, p=self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def ensemble(self) -> EnsembleSpec:
        return EnsembleSpec(N=self.N, beta=self.beta)


def _c2d(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _out_dir(config: RunConfig) -> str:
    if config.output_path:
        return config.output_path
    return os.environ.get("LOOPVERTEX_OUTDIR", ".")


def _write_json(config: RunConfig, payload: dict) -> str:
    os.makedirs(_out_dir(config), exist_ok=True)
    path = os.path.join(_out_dir(config), f"{config.command}.json")
    _, inputs = COMMANDS[config.command]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "convention_ledger": CONVENTION_LEDGER,
        "inputs": {k: getattr(config, k) for k in ("command", "output_path", *inputs)},
        **payload,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path

def _write_csv(config: RunConfig, header: list[str], rows: list[list]) -> str:
    os.makedirs(_out_dir(config), exist_ok=True)
    path = os.path.join(_out_dir(config), f"{config.command}.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# command bodies: each returns (payload dict, ok flag)


def _cmd_fc_eval(config: RunConfig):
    z = complex(config.z_re, config.z_im)
    params = FussCatalanParams(config.p)
    t = complex(fc_eval_many(params, z)[0])
    resid = abs(z * t**config.p - t + 1.0)
    ok = resid <= 1e-10 * (1.0 + abs(z * t**config.p))
    return {
        "results": {"z": _c2d(z), "T": _c2d(t), "residual": resid},
        "checks": {"functional_equation": bool(ok)},
    }, ok


def _cmd_maps_check(config: RunConfig):
    c = config.coupling()
    rng = np.random.default_rng(config.seed)
    pts = 2.0 * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    worst = float(np.max(inverse_residual(c, pts), initial=0.0))
    ok = worst <= 1e-9
    return {
        "results": {"max_inverse_residual": worst, "n_points": len(pts)},
        "checks": {"inverse_pair_identity": bool(ok)},
    }, ok


def _cmd_contour_check(config: RunConfig):
    c = config.coupling()
    gamma = build_keyhole(2.0, c)
    rng = np.random.default_rng(config.seed)
    inner = rng.uniform(-0.4, 0.4, 100) * gamma.r
    worst_in = float(np.max(np.abs(gamma.cauchy(inner) - 1.0)))
    outer = 2.0 * gamma.R * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    worst_out = float(np.max(np.abs(gamma.cauchy(outer))))
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
    }, ok


def _cmd_z_identity(config: RunConfig):
    c = config.coupling()
    spec = config.ensemble()
    direct = z_direct(c, spec)
    lvr = z_lvr(c, spec)
    gap = abs(lvr.value - direct.value) / abs(direct.value)
    ok = gap <= 1e-4
    return {
        "results": {
            "z_direct": _c2d(direct.value),
            "z_lvr": _c2d(lvr.value),
            "relative_gap": gap,
            "error_direct": direct.error,
            "error_lvr": lvr.error,
        },
        "checks": {"change_of_variables": bool(ok)},
    }, ok


def _cmd_free_energy(config: RunConfig):
    c, spec = config.coupling(), config.ensemble()
    f, topo = free_energy(c, spec), topological_free_energy(c, spec)
    ok = np.isfinite(f.real) and np.isfinite(f.imag)
    return {
        "results": {
            "free_energy": _c2d(f),
            "free_energy_topological": _c2d(topo),
            "topological_residual": spec.N**2 * abs(f - topo),
        },
        "checks": {"finite": bool(ok)},
    }, ok


def _cmd_lve_sum(config: RunConfig):
    c = config.coupling()
    spec = config.ensemble()
    params = {
        "n_w": max(1, config.mc_samples // 100),
        "n_mc": 100,
        "seed": config.seed,
    }
    value, err = lve_truncated_F(c, spec, config.n_max, params)
    ok = np.isfinite(err)
    return {
        "results": {"lve_truncated_F": _c2d(value), "error": err,
                    "n_max": config.n_max},
        "checks": {"finite": bool(ok)},
    }, ok


def _cmd_single_vertex(config: RunConfig):
    c = config.coupling()
    spec = config.ensemble()
    est = single_vertex_amplitude(c, spec)
    ok = np.isfinite(est.stderr)
    return {
        "results": {
            "amplitude": _c2d(est.value),
            "stderr": est.stderr,
            "a1": _c2d(est.a1),
            "a2": _c2d(est.a2),
            "n_mc_samples": est.n_mc_samples,
        },
        "checks": {"finite": bool(ok)},
    }, ok


def _cmd_jacobian_check(config: RunConfig):
    if config.lambda_arg != 0.0 or not 0 < config.lambda_modulus < np.inf:
        raise ConfigError("jacobian-check needs real 0 < lambda < inf")
    rng = np.random.default_rng(config.seed)
    n_specs = 200
    eigs = rng.uniform(-5, 5, (n_specs, config.N))
    report = jacobian_check(config.p, config.lambda_modulus, eigs)
    n_fail = int(np.sum(~report["overall_positive"]))
    ok = n_fail == 0
    return {
        "results": {"n_spectra": n_specs, "n_failures": n_fail},
        "checks": {"jacobian_positive": bool(ok)},
    }, ok


def _cmd_verify_bounds(config: RunConfig):
    reports = all_bound_suites(config.p, config.epsilon, seed=config.seed)
    rows = []
    for rep in reports:
        rows.append([
            rep.name,
            repr(rep.fitted_constant),
            "" if rep.exponent_target is None else repr(rep.exponent_target),
            "" if rep.exponent_measured is None else repr(rep.exponent_measured),
            rep.n_samples,
        ])
    csv_path = _write_csv(
        config,
        ["bound", "fitted_constant", "exponent_target", "exponent_measured",
         "n_samples"],
        rows,
    )
    ok = all(rep.holds for rep in reports)
    payload = {
        "results": {
            "csv": csv_path,
            "bounds": {
                rep.name: {
                    "fitted_constant": rep.fitted_constant,
                    "exponent_target": rep.exponent_target,
                    "exponent_measured": rep.exponent_measured,
                }
                for rep in reports
            },
        },
        "checks": {"all_bounds_hold_with_fitted_constant": bool(ok)},
    }
    return payload, ok


def _cmd_pacman_scan(config: RunConfig):
    n_values = config.n_list or tuple(range(1, 7))
    c = config.coupling()
    rows = []
    abs_f = []
    for big_n in n_values:
        f = free_energy(c, EnsembleSpec(N=big_n, beta=config.beta))
        rows.append([big_n, repr(f.real), repr(f.imag)])
        abs_f.append(abs(f))
    csv_path = _write_csv(config, ["N", "F_re", "F_im"], rows)
    slope, slope_err = _trend(np.array(n_values, float), np.array(abs_f))
    ok = slope <= 2.0 * slope_err
    return {
        "results": {
            "csv": csv_path,
            "abs_F": dict(zip(map(str, n_values), abs_f)),
            "trend_slope": slope,
            "trend_slope_stderr": slope_err,
            "bounded_in_N": bool(ok),
        },
        "checks": {"no_growth_in_N": bool(ok)},
    }, ok


def _trend(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error."""
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0, 0]))


_COUPLING = ("p", "lambda_modulus", "lambda_arg", "epsilon")
_ENSEMBLE = ("N", "beta")

#: command -> (body, the RunConfig fields it reads: its only flags besides --output)
COMMANDS = {
    "fc-eval": (_cmd_fc_eval, ("p", "z_re", "z_im")),
    "maps-check": (_cmd_maps_check, _COUPLING + ("seed",)),
    "contour-check": (_cmd_contour_check, _COUPLING + ("seed",)),
    "z-identity": (_cmd_z_identity, _COUPLING + _ENSEMBLE),
    "free-energy": (_cmd_free_energy, _COUPLING + _ENSEMBLE),
    "lve-sum": (_cmd_lve_sum, _COUPLING + _ENSEMBLE + ("n_max", "mc_samples", "seed")),
    "single-vertex": (_cmd_single_vertex, _COUPLING + _ENSEMBLE),
    "jacobian-check": (
        _cmd_jacobian_check, ("p", "N", "lambda_modulus", "lambda_arg", "seed")
    ),
    "verify-bounds": (_cmd_verify_bounds, ("p", "epsilon", "seed")),
    "pacman-scan": (_cmd_pacman_scan, _COUPLING + ("n_list", "beta")),
}


def _parse_n_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok)


def _n_list_flag(text: str) -> tuple[int, ...]:
    n_values = _parse_n_list(text)
    # the trend fit's slope error needs three distinct N
    if len(set(n_values)) < 3:
        raise argparse.ArgumentTypeError(f"{text!r} gives fewer than 3 distinct N")
    return n_values


#: RunConfig field -> (flag, argparse type); the defaults are RunConfig's
_FLAGS = {
    "p": ("--p", int),
    "N": ("--N", int),
    "n_list": ("--N-list", _n_list_flag),
    "beta": ("--beta", int),
    "lambda_modulus": ("--lambda-modulus", float),
    "lambda_arg": ("--lambda-arg", float),
    "epsilon": ("--epsilon", float),
    "n_max": ("--n-max", int),
    "mc_samples": ("--mc-samples", int),
    "seed": ("--seed", int),
    "z_re": ("--z-re", float),
    "z_im": ("--z-im", float),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopvertex",
        description="Matrix-model change-of-variables and tree-expansion checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, inputs) in COMMANDS.items():
        # an absent flag leaves no attribute, so RunConfig's default applies;
        # no abbreviations, or pacman-scan would read --N as --N-list
        s = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for key in inputs:
            flag, kind = _FLAGS[key]
            s.add_argument(flag, dest=key, type=kind)
        s.add_argument("--output", dest="output_path")
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def run(config: RunConfig) -> int:
    try:
        config.validate()
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    body, _ = COMMANDS[config.command]
    try:
        payload, ok = body(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LoopVertexError as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_json(config, {"results": {}, "checks": {type(exc).__name__: False}})
        return 1
    path = _write_json(config, payload)
    if not ok:
        failing = [k for k, v in payload.get("checks", {}).items() if not v]
        print(f"FAIL {','.join(failing)} ({path})", file=sys.stderr)
        return 1
    print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize errors to exit 2
        return 0 if exc.code in (0, None) else 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
