"""Self-test of the benchmark's output checks; runs in a few seconds.

    python3 perfbench/selftest.py

Each check in oracles.py must accept its exact reference value and reject
the same value perturbed by 1% (both ways where the check is two-sided).
The test also confirms that BENCHMARK.json lists the workloads and per-layer
metrics the benchmark prints.  It needs numpy and scipy, not subrep.  Exit
code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def cases():
    """(name, failures for the exact value, failures for each perturbed value)."""
    up, down = 1.01, 0.99
    for n in (2, 3):
        ref = oracles.sphere_measure(n) * math.exp(-1.0)
        yield (f"centre identity n={n}", oracles.check_bump_centre_identity(ref, n, 1.0),
               [oracles.check_bump_centre_identity(ref * k, n, 1.0) for k in (up, down)])
        yield (f"w=1 bound n={n}", oracles.check_unit_weight_bound(1.0 / n, 1.0 / n, n),
               [oracles.check_unit_weight_bound(k / n, 1.0 / n, n) for k in (up, down)]
               + [oracles.check_unit_weight_bound(1.0 / n, up / n, n)])

    c = oracles.bbm_constant(0.5, 2)
    top = c * (1.0 + oracles.LEMMA_TOLERANCE)
    yield ("lemma constant and ratios", oracles.check_lemma(c, [0.5 * c, top], 0.5, 2),
           [oracles.check_lemma(c * k, [0.5 * c], 0.5, 2) for k in (up, down)]
           + [oracles.check_lemma(c, [top * up], 0.5, 2)])

    x, centre = (3.0, 0.0), (0.0, 0.0)
    far = oracles.bump_far_field(x, 0.5, centre, 1.0, 1.0)
    yield ("far field", oracles.check_far_field(far, x, 0.5, centre, 1.0, 1.0),
           [oracles.check_far_field(far * k, x, 0.5, centre, 1.0, 1.0) for k in (up, down)])

    closed = oracles.beta_closed_form(2, 1.6, 1.6, 0.7)
    yield ("beta identity", oracles.check_beta(closed, closed, 2, 1.6, 1.6, 0.7),
           [oracles.check_beta(closed, closed * k, 2, 1.6, 1.6, 0.7) for k in (up, down)]
           + [oracles.check_beta(closed * k, closed, 2, 1.6, 1.6, 0.7) for k in (up, down)])

    alphas = [1.0 - 2.0**-k for k in range(1, 16)]
    sigma = oracles.sphere_measure(2)
    gaps = [abs(oracles.bbm_constant(a, 2) - sigma) for a in alphas]
    yield ("bbm gaps", oracles.check_bbm_gaps(gaps, alphas, 2),
           [oracles.check_bbm_gaps(gaps[:-1] + [gaps[-1] * k], alphas, 2) for k in (up, down)])

    centers = [2.0**k for k in range(1, 13)]
    masses = [oracles.ahlfors_mass(cc, 1.0, 0.5) for cc in centers]
    yield ("lower Ahlfors masses", oracles.check_ahlfors(masses, centers, 1.0, 0.5),
           [oracles.check_ahlfors([masses[0] * k] + masses[1:], centers, 1.0, 0.5) for k in (up, down)])

    bump = {"center": (0.2, -0.3), "scale": 1.0, "amplitude": 1.0}
    xa = (0.3, -0.3)
    radii = [1.1 * 2.0 ** (1 - k) for k in range(1, 11)]
    m = [oracles.bump_grad_ball_integral(xa, r, bump["center"], 1.0, 1.0)
         for r in radii + [radii[-1] / 2.0]]
    vol = oracles.ball_volume(2)
    full = math.fsum(m[k] / (vol * radii[k]) for k in range(10))
    holes = math.fsum((m[k] - m[k + 1]) / (vol * radii[k]) for k in range(10))
    ratio = full / holes
    yield ("annuli absorption", oracles.check_absorption(full, holes, ratio, xa, radii, bump),
           [oracles.check_absorption(full * k, holes, ratio, xa, radii, bump) for k in (up, down)]
           + [oracles.check_absorption(full, holes * k, ratio, xa, radii, bump) for k in (up, down)]
           + [oracles.check_absorption(full, holes, 2.0 * up, xa, radii, bump)])

    blob = b'{"pass": true}\n'
    yield ("identical reports", oracles.check_identical("r", blob, blob),
           [oracles.check_identical("r", blob, blob.replace(b"true", b"false"))])


def benchmark_file_problems() -> list:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != list(tracing.LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    return problems


def main() -> int:
    bad = 0
    for name, exact, perturbed in cases():
        rejected = sum(1 for failures in perturbed if failures)
        ok = not exact and rejected == len(perturbed)
        bad += not ok
        print(f"{'ok' if ok else 'FAIL':4s}  {name}: exact accepted={not exact}, "
              f"perturbed rejected {rejected}/{len(perturbed)}")
        for msg in exact:
            print(f"      exact value refused: {msg}")
    for msg in benchmark_file_problems():
        bad += 1
        print(f"FAIL  {msg}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
