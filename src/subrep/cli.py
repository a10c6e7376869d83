"""Batch front end: run configured check suites, evaluate single operators,
list available checks.

Config files are INI-style.  Sections and keys, all optional except
[run] checks:

    [run]
    dimension = 2
    checks = bbm_limit, beta_identity
    output_dir = reports
    formats = json, csv

    [quadrature]
    rel_tol = 1e-3
    annuli_per_decade = 4
    points_per_dim = 16

    [function]
    family = smooth_bump
    center = 0, 0
    scale = 1.0
    amplitude = 1.0

    [weight]
    kind = constant | radial_power | power_plus_one
    value = 1.0
    beta = 0.5
    pole = 0, 0

    [omega]
    profile = cosine_harmonic | sign_profile | odd_polynomial
    k = 1
    amplitude = 1.0
    cells = 64
    coefficients = 1.0, -0.5

    [params]
    alpha = 0.5          p = 1.5            d = 2.0
    K = 10               cube_side = 2.0    variant = avg_11
    a1 = 0.8             a2 = 0.8           separation = 1.0
    bbm_octaves = 10     ahlfors_beta = 0.5
    outer_cells = 8      cells = 12

Exit codes: 0 all non-degenerate checks pass, 1 some check fails or errors,
2 config/usage error or reports that cannot be written (output_dir is
created before any check runs; a write that fails later also exits 2).
`eval` exits 0 with the value, or 2 with a message on stderr when its flags
are invalid or the operator rejects them.

The checks `run` accepts, their anchors and how each is called from a loaded
config all come from verify.CHECKS.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import verify
from .functions import FAMILIES, Cube, TestFunction
from .norms import lorentz_norm, lp_norm
from .operators import (
    OperatorError,
    SphereSymbol,
    TruncationGrid,
    frac_derivative,
    maximal_Mwc,
    potential_Tw,
    riesz_potential,
    rough_maximal,
)
from .quadrature import QuadratureError, QuadratureScheme
from .weights import Weight

EVAL_OPERATORS = ("riesz", "frac_derivative", "tw", "rough_maximal", "mwc", "lp_norm", "lorentz")


class ConfigError(ValueError):
    """Raised with a message naming the offending section and field."""


@dataclass
class RunConfig:
    dimension: int
    checks: list
    function: TestFunction
    weight: Weight
    omega: SphereSymbol
    scheme: QuadratureScheme
    output_dir: Path
    formats: tuple
    params: dict = field(default_factory=dict)


def _floats(raw: str, where: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{where} must be a list of numbers, got {raw!r}")


@dataclass(frozen=True)
class _Fields:
    """One group of settings, from an INI section or from eval's flags.
    get(key) is the raw value (None when unset); label(key) names the field
    the way the user wrote it, for error messages."""

    get: Callable[[str], object]
    label: Callable[[str], str]

    @classmethod
    def section(cls, parser, name: str) -> "_Fields":
        sec = parser[name] if name in parser else {}
        return cls(sec.get, lambda key: f"[{name}] {key}")

    @classmethod
    def flags(cls, args, **renames: str) -> "_Fields":
        def dest(key: str) -> str:
            return renames.get(key, key)

        return cls(lambda key: getattr(args, dest(key), None),
                   lambda key: "--" + dest(key).replace("_", "-"))

    def text(self, key: str, default: str) -> str:
        raw = self.get(key)
        return default if raw is None else raw

    def number(self, key: str, default: float) -> float:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.label(key)} must be a number, got {raw!r}")

    def coords(self, key: str, n: int) -> tuple:
        raw = self.get(key)
        if raw is None:
            return (0.0,) * n
        vals = _floats(raw, self.label(key))
        if len(vals) != n:
            raise ConfigError(f"{self.label(key)} has {len(vals)} coordinates, dimension is {n}")
        return vals


# -- builders shared by the config file and eval's flags ---------------------------


def _build_scheme(src: _Fields) -> QuadratureScheme:
    return QuadratureScheme(
        rel_tol=src.number("rel_tol", 1e-3),
        annuli_per_decade=int(src.number("annuli_per_decade", 4)),
        points_per_dim=int(src.number("points_per_dim", 16)),
    )


def _build_function(src: _Fields, n: int) -> TestFunction:
    family = src.text("family", "smooth_bump")
    if family not in FAMILIES:
        raise ConfigError(f"{src.label('family')} must be one of {FAMILIES}, got {family!r}")
    center = src.coords("center", n)
    scale = src.number("scale", 1.0)
    if scale <= 0.0:
        raise ConfigError(f"{src.label('scale')} must be positive, got {scale}")
    amplitude = src.number("amplitude", 1.0)
    if amplitude < 0.0:
        raise ConfigError(f"{src.label('amplitude')} must be nonnegative, got {amplitude}")
    return TestFunction(family, center, scale, amplitude)


def _build_weight(src: _Fields, n: int) -> Weight:
    kind = src.text("kind", "constant")
    if kind == "constant":
        value = src.number("value", 1.0)
        if value <= 0.0:
            raise ConfigError(f"{src.label('value')} must be positive, got {value}")
        return Weight.constant(n, value)
    if kind not in ("radial_power", "power_plus_one"):
        raise ConfigError(
            f"{src.label('kind')} must be constant, radial_power or power_plus_one, got {kind!r}"
        )
    beta = src.number("beta", 0.5)
    if not 0.0 <= beta < n:
        raise ConfigError(f"{src.label('beta')} must sit in [0, {n}), got {beta}")
    ctor = Weight.radial_power if kind == "radial_power" else Weight.power_plus_one
    return ctor(src.coords("pole", n), beta)


def _build_omega(src: _Fields, n: int) -> SphereSymbol:
    profile = src.text("profile", "cosine_harmonic" if n == 2 else "odd_polynomial")
    amplitude = src.number("amplitude", 1.0)
    if profile == "cosine_harmonic":
        return SphereSymbol.cosine_harmonic(k=int(src.number("k", 1)), amplitude=amplitude)
    if profile == "sign_profile":
        return SphereSymbol.sign_profile(cells=int(src.number("cells", 64)), amplitude=amplitude)
    if profile == "odd_polynomial":
        coeffs = _floats(src.text("coefficients", "1.0"), src.label("coefficients"))
        return SphereSymbol.odd_polynomial(list(coeffs), amplitude=amplitude)
    raise ConfigError(f"{src.label('profile')} unknown: {profile!r}")


DEFAULT_PARAMS = {
    "alpha": 0.5,
    "p": 1.5,
    "d": None,  # defaults to the dimension
    "K": 10.0,
    "cube_side": 2.0,
    "a1": None,  # defaults to 0.8 n, keeping a1 + a2 > n at every dimension
    "a2": None,
    "separation": 1.0,
    "bbm_octaves": 10.0,
    "ahlfors_beta": 0.5,
    "outer_cells": 8.0,
    "cells": 12.0,
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run = parser["run"]

    try:
        n = int(run.get("dimension", "2"))
    except ValueError:
        raise ConfigError(f"[run] dimension must be an integer, got {run.get('dimension')!r}")
    if n < 1:
        raise ConfigError(f"[run] dimension must be positive, got {n}")

    raw_checks = run.get("checks", "")
    checks = [tok.strip() for tok in raw_checks.replace(",", " ").split() if tok.strip()]
    for cid in checks:
        if cid not in verify.CHECKS:
            known = ", ".join(sorted(verify.CHECKS))
            raise ConfigError(f"[run] checks: unknown check {cid!r}; known: {known}")
    seen = set()
    checks = [c for c in checks if not (c in seen or seen.add(c))]
    for cid in checks:
        lo, hi = verify.CHECKS[cid].dimensions
        if n < lo or (hi is not None and n > hi):
            span = f"{lo} and up" if hi is None else f"{lo}-{hi}"
            raise ConfigError(f"[run] dimension = {n}: check {cid} runs in dimensions {span}")

    formats = tuple(tok.strip() for tok in run.get("formats", "json").replace(",", " ").split() if tok.strip())
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"[run] formats must be a subset of json, csv; got {fmt!r}")
    output_dir = Path(run.get("output_dir", "reports"))

    scheme = _build_scheme(_Fields.section(parser, "quadrature"))
    function = _build_function(_Fields.section(parser, "function"), n)
    weight = _build_weight(_Fields.section(parser, "weight"), n)
    omega = _build_omega(_Fields.section(parser, "omega"), n)

    psec = _Fields.section(parser, "params")
    fallbacks = {"d": float(n), "a1": 0.8 * n, "a2": 0.8 * n}
    params = {key: psec.number(key, fallbacks.get(key, default)) for key, default in DEFAULT_PARAMS.items()}
    params["variant"] = psec.text("variant", "avg_11")

    alpha = params["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"[params] alpha must sit in (0, 1), got {alpha}")
    needs_pd = {"hedberg_split", "sobolev_mapping"} & set(checks)
    if needs_pd and not 1.0 < params["p"] < params["d"]:
        raise ConfigError(
            f"[params] need 1 < p < d, got p={params['p']}, d={params['d']}"
        )
    if params["variant"] not in verify.POINCARE_VARIANTS:
        raise ConfigError(
            f"[params] variant must be one of {verify.POINCARE_VARIANTS}, got {params['variant']!r}"
        )
    if not 0.0 < params["ahlfors_beta"] < 1.0:
        raise ConfigError(f"[params] ahlfors_beta must sit in (0, 1), got {params['ahlfors_beta']}")
    if params["K"] < 1:
        raise ConfigError(f"[params] K must be at least 1, got {params['K']}")

    return RunConfig(
        dimension=n,
        checks=checks,
        function=function,
        weight=weight,
        omega=omega,
        scheme=scheme,
        output_dir=output_dir,
        formats=formats,
        params=params,
    )


# -- check dispatch ------------------------------------------------------------


@dataclass
class CheckFailure:
    check_id: str
    error: str


def _run_one(rc: RunConfig, check_id: str):
    try:
        return verify.CHECKS[check_id].run(rc)
    except Exception as exc:  # recorded, never aborts the batch
        return CheckFailure(check_id, f"{type(exc).__name__}: {exc}")


def _resolve_threads(flag: Optional[int]) -> int:
    """--threads, else SUBREP_THREADS, else one thread per CPU."""
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("SUBREP_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"SUBREP_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


CSV_COLUMNS = (
    "check_id",
    "paper_anchor",
    "config_digest",
    "sample_index",
    "point",
    "lhs",
    "rhs",
    "ratio",
    "empirical_constant",
    "theoretical_constant",
    "pass",
    "error_budget",
)


def _write_csv(path: Path, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, s in enumerate(report.samples):
            writer.writerow(
                [
                    report.check_id,
                    report.paper_anchor,
                    report.config_digest,
                    i,
                    "|".join(str(c) for c in s.point),
                    str(s.lhs),
                    str(s.rhs),
                    str(s.ratio),
                    str(report.empirical_constant),
                    "" if report.theoretical_constant is None else str(report.theoretical_constant),
                    report.passed,
                    str(report.error_budget),
                ]
            )


def _write_outputs(rc: RunConfig, results: list) -> dict:
    rows = []
    for res in results:
        if isinstance(res, CheckFailure):
            rows.append(
                {"check_id": res.check_id, "pass": False, "error": res.error, "degenerate": False}
            )
            if "json" in rc.formats:
                blob = json.dumps(rows[-1], indent=2, sort_keys=True) + "\n"
                (rc.output_dir / f"{res.check_id}.json").write_text(blob)
            continue
        rows.append(
            {
                "check_id": res.check_id,
                "paper_anchor": res.paper_anchor,
                "pass": res.passed,
                "degenerate": res.degenerate,
                "empirical_constant": res.empirical_constant,
                "config_digest": res.config_digest,
            }
        )
        if "json" in rc.formats:
            blob = json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"
            (rc.output_dir / f"{res.check_id}.json").write_text(blob)
        if "csv" in rc.formats:
            _write_csv(rc.output_dir / f"{res.check_id}.csv", res)
    summary = {"checks": rows, "all_pass": all(r["pass"] or r.get("degenerate") for r in rows)}
    (rc.output_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_command(args) -> int:
    try:
        rc = load_config(args.config)
        threads = _resolve_threads(args.threads)
    except (ValueError, QuadratureError) as exc:  # ConfigError, or a constructor's own check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rc.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2
    results = {}
    if rc.checks:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {cid: pool.submit(_run_one, rc, cid) for cid in rc.checks}
        results = {cid: fut.result() for cid, fut in futures.items()}
    ordered = [results[cid] for cid in sorted(results)]
    try:
        summary = _write_outputs(rc, ordered)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2
    for row in summary["checks"]:
        tag = "PASS" if row["pass"] else ("SKIP" if row.get("degenerate") else "FAIL")
        extra = f"  error: {row['error']}" if "error" in row else ""
        print(f"{tag:4s}  {row['check_id']}{extra}")
    print(f"{len(summary['checks'])} checks, all_pass={summary['all_pass']}")
    exit_bad = any(
        not row["pass"] and not row.get("degenerate", False) for row in summary["checks"]
    )
    return 1 if exit_bad else 0


# -- single-operator evaluation --------------------------------------------------


def eval_command(args) -> int:
    try:
        n = args.dimension
        scheme = _build_scheme(_Fields.flags(args))
        f = _build_function(_Fields.flags(args), n)

        def weight() -> Weight:
            return _build_weight(_Fields.flags(args, kind="weight", value="weight_value"), n)

        x = np.asarray(_floats(args.x, "--x") if args.x else f.support_center, dtype=float)
        if x.size != n:
            raise ConfigError(f"--x has {x.size} coordinates, --dimension is {n}")
        op = args.operator
        if op == "riesz":
            alpha = args.alpha if args.alpha is not None else 1.0
            if not 0.0 < alpha < n:
                raise ConfigError(f"--alpha must sit in (0, {n}) for riesz, got {alpha}")
            value = riesz_potential(f, alpha, x, scheme)
        elif op == "frac_derivative":
            alpha = args.alpha if args.alpha is not None else 0.5
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"--alpha must sit in (0, 1), got {alpha}")
            value = frac_derivative(f, alpha, x, scheme)
        elif op == "tw":
            alpha = args.alpha if args.alpha is not None else 1.0
            if not 0.0 < alpha <= 1.0:
                raise ConfigError(f"--alpha must sit in (0, 1] for tw, got {alpha}")
            value = potential_Tw(f, weight(), alpha, x, scheme)
        elif op == "rough_maximal":
            omega = _build_omega(_Fields.flags(args, amplitude="omega_amplitude"), n)
            grid = TruncationGrid.covering(f, x, octaves=args.octaves)
            value = rough_maximal(f, omega, x, grid, scheme)
        elif op == "mwc":
            value = maximal_Mwc(f, weight(), x, None, scheme)
        elif op == "lp_norm":
            value = lp_norm(f, weight(), args.p, f.support_box(pad=1.0), scheme)
        elif op == "lorentz":
            q = args.q if args.q is not None else 1.0
            side = args.cube_side if args.cube_side is not None else 2.0 * f.support_radius
            Q = Cube(tuple(f.support_center), side)
            value = lorentz_norm(f, args.p, q, Q, samples=args.samples)
        else:
            raise ConfigError(f"unknown operator {op!r}")
    except (ValueError, QuadratureError, OperatorError) as exc:
        print(f"eval error: {exc}", file=sys.stderr)
        return 2
    if op == "lorentz":
        err = 2.0 * abs(value) / math.sqrt(args.samples)
    else:
        err = abs(value) * scheme.rel_tol
    print(f"{value!r} +/- {err:.3g}")
    return 0


def list_checks_command(_args) -> int:
    for cid in sorted(verify.CHECKS):
        print(f"{cid:28s} {verify.CHECKS[cid].anchor}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks requested by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(func=run_command)

    p_eval = sub.add_parser("eval", help="evaluate a single operator at a point")
    p_eval.add_argument("operator", choices=EVAL_OPERATORS)
    p_eval.add_argument("--dimension", type=int, default=2)
    p_eval.add_argument("--family", default="smooth_bump")
    p_eval.add_argument("--center", default=None)
    p_eval.add_argument("--scale", type=float, default=1.0)
    p_eval.add_argument("--amplitude", type=float, default=1.0)
    p_eval.add_argument("--x", default=None)
    p_eval.add_argument("--alpha", type=float, default=None)
    p_eval.add_argument("--p", type=float, default=2.0)
    p_eval.add_argument("--q", type=float, default=None)
    p_eval.add_argument("--weight", default="constant")
    p_eval.add_argument("--weight-value", type=float, default=1.0)
    p_eval.add_argument("--beta", type=float, default=0.5)
    p_eval.add_argument("--pole", default=None)
    p_eval.add_argument("--profile", default="cosine_harmonic")
    p_eval.add_argument("--k", type=int, default=1)
    p_eval.add_argument("--omega-amplitude", type=float, default=1.0)
    p_eval.add_argument("--octaves", type=int, default=10)
    p_eval.add_argument("--samples", type=int, default=100_000)
    p_eval.add_argument("--cube-side", type=float, default=None)
    p_eval.add_argument("--rel-tol", type=float, default=1e-3)
    p_eval.add_argument("--annuli-per-decade", type=int, default=4)
    p_eval.add_argument("--points-per-dim", type=int, default=16)
    p_eval.set_defaults(func=eval_command)

    p_list = sub.add_parser("list-checks", help="list check ids and their anchors")
    p_list.set_defaults(func=list_checks_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
