"""The four workloads: inputs made from a seed, the requests of each round,
and the checks of their outputs.

A request is one call of a `check_*` function (API workloads) or one
`subrep run` subprocess (`batch_cli`).  A round runs every request of the
workload once; the benchmark repeats whole rounds.  In the API workloads each
request of each round draws its own sample points: each point slot of each
request follows a randomly shifted Halton sequence, the shift seeded by
(seed, request, slot), one term per round.  A run thus averages over many evenly spread points,
and the same seed always gives the same inputs.  The mix is fixed: how many points are
interior and how many exterior, and the exterior radius.

The oracles (scipy) are imported only where outputs are checked, so that
set-up time measures subrep's import and the inputs, not the benchmark's own
checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("pointwise_2d", "fractional_2d", "pointwise_3d", "batch_cli")


@dataclass
class Request:
    label: str
    call: Callable[[], Any]


@dataclass
class Outcome:
    ok: bool
    samples: int
    payload: Any


def _radical_inverse(k: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * f
        f /= base
    return inv


def _unit_stream(seed: int, request_index: int, slot: int, round_index: int, dim: int) -> np.ndarray:
    """Term `round_index` of a Halton sequence in [0, 1)^dim under a random
    shift (mod 1) seeded by (seed, request, point slot).  Successive rounds
    fill the square evenly, so a run's points clump far less than
    independent draws would."""
    shift = np.random.default_rng([seed, request_index, slot]).random(dim)
    halton = [_radical_inverse(round_index + 1, base) for base in (2, 3, 5)[:dim]]
    return (np.asarray(halton) + shift) % 1.0


def _direction(u) -> np.ndarray:
    """Unit vector from uniform coordinates: an angle in 2-d, (cos, azimuth)
    in 3-d; uniform on the sphere."""
    if len(u) == 1:
        t = 2.0 * math.pi * u[0]
        return np.array([math.cos(t), math.sin(t)])
    z, t = 1.0 - 2.0 * u[0], 2.0 * math.pi * u[1]
    s = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([s * math.cos(t), s * math.sin(t), z])


def interior_point(u, radius: float) -> tuple:
    """Uniform in the ball of the given radius about the origin."""
    n = len(u)
    return tuple(float(v) for v in radius * u[0] ** (1.0 / n) * _direction(u[1:]))


def exterior_point(u, radius: float) -> tuple:
    """Uniform on the sphere of the given radius."""
    return tuple(float(v) for v in radius * _direction(u))


# -- API workloads -----------------------------------------------------------------


class ApiWorkload:
    """Calls `subrep.verify.check_*` in this process.  Checks are looked up
    on the module at call time, so tracing wrappers apply.

    Subclasses fill `calls` with (label, check name, fixed arguments, mix),
    where the mix (interior, exterior) gives the number of points with
    |x| <= 0.9 and with |x| = 1.5 that each request draws, in dimension N.
    """

    rusage_who = "self"
    N = 2

    def __init__(self, seed: int) -> None:
        from subrep import verify

        self.verify_module = verify
        self.seed = seed
        self.calls: list = []

    def points(self, round_index: int, request_index: int, mix: tuple) -> list:
        def u(slot, dim):
            return _unit_stream(self.seed, request_index, slot, round_index, dim)

        n_in, n_out = mix
        return ([interior_point(u(k, self.N), 0.9) for k in range(n_in)]
                + [exterior_point(u(n_in + k, self.N - 1), 1.5) for k in range(n_out)])

    def requests(self, round_index: int) -> list:
        return [Request(label, self._caller(check, dict(kwargs, points=self.points(round_index, i, mix))))
                for i, (label, check, kwargs, mix) in enumerate(self.calls)]

    def _caller(self, check: str, kwargs: dict):
        return lambda: getattr(self.verify_module, check)(**kwargs)

    def outcome(self, label: str, report) -> Outcome:
        return Outcome(True, len(report.samples), report)

    def verify(self, payloads: list) -> list:
        return [f"{label}: report did not pass" for label, rep in payloads if not rep.passed]


def _centre_checks(bump, scheme, unit_empirical: float) -> list:
    """I_1(|grad f|)(c) = sigma_n f(c), and Theorem 2.1's ratio for w = 1
    (A1 constant 1): 1/n at the centre, at most 1/n over the samples."""
    import oracles
    from subrep import GradientMagnitude, Weight, potential_Tw, riesz_potential

    n, c = bump.dimension, bump.center
    grad = GradientMagnitude(bump)
    i1 = riesz_potential(grad, 1.0, c, scheme)
    ratio = bump.value(c) / potential_Tw(grad, Weight.constant(n), 1.0, c, scheme)
    return (oracles.check_bump_centre_identity(i1, n, bump.amplitude)
            + oracles.check_unit_weight_bound(ratio, max(ratio, unit_empirical), n))


class Pointwise2D(ApiWorkload):
    """Theorem 2.1 for smooth_bump and tensor_hat under the constant,
    radial_power and power_plus_one weights, and Theorem 2.2 with the
    cosine_harmonic symbol, at the default quadrature scheme.  A tensor_hat
    request takes 1 interior point and costs 0.1-1.5 s depending on where the
    point falls against the hat's kinks; a smooth_bump request takes 2
    interior and 1 exterior point, for a similar mean cost."""

    trace_rounds = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from subrep import QuadratureScheme, SphereSymbol, TestFunction, Weight

        centre = (0.0, 0.0)
        self.scheme = QuadratureScheme()
        self.bump = TestFunction("smooth_bump", centre, 1.0)
        hat = TestFunction("tensor_hat", centre, 1.0)
        weights = {
            "constant": Weight.constant(2),
            "radial_power": Weight.radial_power(centre, 0.5),
            "power_plus_one": Weight.power_plus_one(centre, 0.5),
        }
        for f in (self.bump, hat):
            for wname, w in weights.items():
                self.calls.append((f"thm21/{f.family}/{wname}", "check_subrepresentation_identity",
                                   dict(f=f, w=w, scheme=self.scheme),
                                   (2, 1) if f is self.bump else (1, 0)))
        self.calls.append(("thm22/smooth_bump/power_plus_one", "check_rough_subrepresentation",
                           dict(f=self.bump, w=weights["power_plus_one"],
                                omega=SphereSymbol.cosine_harmonic(1), scheme=self.scheme),
                           (2, 1)))

    def verify(self, payloads: list) -> list:
        unit = max(rep.empirical_constant for lab, rep in payloads
                   if lab == "thm21/smooth_bump/constant")
        return super().verify(payloads) + _centre_checks(self.bump, self.scheme, unit)


class Pointwise3D(ApiWorkload):
    """Theorem 2.1 in 3-d for smooth_bump under power_plus_one, five
    requests of one interior point each, at the default quadrature scheme.
    No exterior point: see README."""

    trace_rounds = 1
    N = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from subrep import QuadratureScheme, TestFunction, Weight

        centre = (0.0, 0.0, 0.0)
        self.scheme = QuadratureScheme()
        self.bump = TestFunction("smooth_bump", centre, 1.0)
        w = Weight.power_plus_one(centre, 0.5)
        for i in range(5):
            self.calls.append((f"thm21/smooth_bump/power_plus_one/{i}",
                               "check_subrepresentation_identity",
                               dict(f=self.bump, w=w, scheme=self.scheme), (1, 0)))

    def verify(self, payloads: list) -> list:
        # No w = 1 report here: the centre ratio stands in for its constant.
        return super().verify(payloads) + _centre_checks(self.bump, self.scheme, 0.0)


class Fractional2D(ApiWorkload):
    """Lemma 2.4 and Theorem 2.6 (w = 1) at alpha = 0.5 on seeded interior
    points plus one exterior point: 23 + 1 for Lemma 2.4 and 1 + 1 for
    Theorem 2.6, which gives the two requests a similar cost (about 3.5 s),
    so the median request is not the midpoint between two clusters.  Both checks
    build the same base field (grid_points = 16) on a coarse scheme
    (8 points per dimension, rel_tol 1e-2)."""

    trace_rounds = 4
    ALPHA = 0.5
    GRID_POINTS = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from subrep import QuadratureScheme, TestFunction, Weight

        self.scheme = QuadratureScheme(points_per_dim=8, rel_tol=1e-2)
        self.bump = TestFunction("smooth_bump", (0.0, 0.0), 1.0)
        common = dict(f=self.bump, alpha=self.ALPHA, scheme=self.scheme,
                      grid_points=self.GRID_POINTS)
        self.calls.append(("lemma24", "check_lemma_domination", common, (23, 1)))
        self.calls.append(("thm26/constant", "check_identity_fractional",
                           dict(common, w=Weight.constant(2)), (1, 1)))

    def verify(self, payloads: list) -> list:
        import oracles
        from subrep import FracDerivativeField

        out = super().verify(payloads)
        lemmas = [rep for lab, rep in payloads if lab == "lemma24"]
        for rep in lemmas:
            out += oracles.check_lemma(rep.theoretical_constant, [s.ratio for s in rep.samples],
                                       self.ALPHA, 2)
        # Far-field probe: the first exterior point pushed out of the cached
        # box (half width 2.5), where the field uses its single-layer formula.
        u = np.asarray(lemmas[0].samples[-1].point)
        x = tuple(float(v) for v in 3.0 * u / np.max(np.abs(u)))
        field = FracDerivativeField(self.bump, self.ALPHA, self.scheme, grid_points=self.GRID_POINTS)
        b = self.bump
        return out + oracles.check_far_field(field.value(x), x, self.ALPHA, b.center, b.scale,
                                             b.amplitude)


# -- batch_cli ----------------------------------------------------------------------

MAIN_INI = """\
[run]
dimension = 2
checks = beta_identity, annuli_absorption, bbm_limit, lower_ahlfors, poincare_bbm
output_dir = {out}
formats = json

[function]
family = smooth_bump
center = {cx!r}, {cy!r}
scale = 1.0

[params]
bbm_octaves = 15
variant = avg_11
outer_cells = 3
separation = {sep!r}
ahlfors_beta = {beta!r}
"""

# Fixed: this request fails on every run (see README), whatever the seed.
HEDBERG_INI = """\
[run]
dimension = 2
checks = hedberg_split
output_dir = {out}
formats = json

[weight]
kind = power_plus_one
beta = 0.5
pole = 0, 0
"""


class BatchCli:
    """Two `subrep run --threads 2` requests a round, one per INI file.  The
    seed places the function (its centre sets the annuli point and the
    Poincare cube) and picks the beta_identity separation and the
    lower_ahlfors exponent; the hedberg_split INI is fixed."""

    rusage_who = "children"
    trace_rounds = 5
    THREADS = 2

    def __init__(self, seed: int, out_dir: Path, in_process: bool = False) -> None:
        rng = np.random.default_rng(seed)
        cx, cy = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        self.bump = {"center": (cx, cy), "scale": 1.0, "amplitude": 1.0}
        self.params = {"cx": cx, "cy": cy, "sep": float(rng.uniform(0.5, 2.0)),
                       "beta": float(rng.uniform(0.4, 0.6))}
        self.root = out_dir
        self.in_process = in_process
        self.ini = {label: self._write_ini(label, template, self.THREADS)
                    for label, template in (("main", MAIN_INI), ("hedberg", HEDBERG_INI))}

    def _write_ini(self, label: str, template: str, threads: int) -> Path:
        path = self.root / f"{label}-threads{threads}.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(template.format(out=self._out_dir(path), **self.params))
        return path

    @staticmethod
    def _out_dir(ini: Path) -> Path:
        return ini.with_suffix("")

    def _run(self, ini: Path, threads: int, in_process: bool):
        shutil.rmtree(self._out_dir(ini), ignore_errors=True)
        argv = ["run", str(ini), "--threads", str(threads)]
        if not in_process:
            return subprocess.run([sys.executable, "-m", "subrep.cli", *argv],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        from subrep import cli

        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        except Exception as exc:  # the request failed; counted, not fatal
            return repr(exc)

    def requests(self, round_index: int) -> list:
        return [Request(label, lambda ini=ini: self._run(ini, self.THREADS, self.in_process))
                for label, ini in self.ini.items()]

    def outcome(self, label: str, code) -> Outcome:
        files = self._read(self._out_dir(self.ini[label]))
        if "summary.json" not in files:
            return Outcome(False, 0, code)
        samples = sum(len(json.loads(blob).get("samples", ()))
                      for name, blob in files.items() if name != "summary.json")
        return Outcome(True, samples, files)

    @staticmethod
    def _read(out: Path) -> dict:
        if not out.is_dir():
            return {}
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def verify(self, payloads: list) -> list:
        import oracles

        mains = [files for label, files in payloads if label == "main"]
        if not mains:
            return ["main: no reports to check"]
        out = []
        for files in mains:
            summary = json.loads(files["summary.json"])
            out += [f"main: {row['check_id']} did not pass" for row in summary["checks"] if not row["pass"]]
        files = mains[0]
        rep = {name[:-5]: json.loads(blob) for name, blob in files.items() if name != "summary.json"}

        beta = rep["beta_identity"]
        cfg = beta["config"]
        sample = beta["samples"][0]
        sep = math.dist(cfg["x1"], cfg["x2"])
        out += oracles.check_beta(sample["lhs"], sample["rhs"], cfg["n"], cfg["a1"], cfg["a2"], sep)

        bbm = rep["bbm_limit"]
        out += oracles.check_bbm_gaps(bbm["extras"]["gaps"], bbm["config"]["alpha_sequence"],
                                      bbm["config"]["n"])

        ahl = rep["lower_ahlfors"]
        out += oracles.check_ahlfors([s["lhs"] for s in ahl["samples"]],
                                     [s["point"][0] for s in ahl["samples"]],
                                     ahl["config"]["r"], ahl["config"]["beta"])

        ann = rep["annuli_absorption"]
        s = ann["samples"][0]
        out += oracles.check_absorption(s["lhs"], s["rhs"], s["ratio"], ann["config"]["x"],
                                        ann["extras"]["radii"], self.bump)

        # The same request at one thread must write the same bytes.
        single = self._write_ini("main", MAIN_INI, 1)
        self._run(single, 1, in_process=False)
        again = self._read(self._out_dir(single))
        if set(again) != set(files):
            out.append(f"main: --threads 1 wrote {sorted(again)}, --threads 2 wrote {sorted(files)}")
        for name in sorted(set(again) & set(files)):
            out += oracles.check_identical(f"main/{name}", files[name], again[name])
        return out


def make(name: str, seed: int, out_dir: Path, trace: bool):
    if name == "batch_cli":
        return BatchCli(seed, out_dir, in_process=trace)
    return {"pointwise_2d": Pointwise2D, "pointwise_3d": Pointwise3D,
            "fractional_2d": Fractional2D}[name](seed)
