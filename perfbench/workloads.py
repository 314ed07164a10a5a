"""Seeded workload inputs for the discop benchmark.

Each workload is one list of experiments (a "pass") that the benchmark runs
over and over in a closed loop: one process, one experiment at a time.  The
same seed always gives the same list.  This module uses the standard library
only, so inputs can be generated before the timed import of numpy, scipy and
discop.

An experiment is either a config dict that goes through
``config.parse_config -> harness.run -> harness.emit_reports``, or a call of
``operators.lift_norm_check`` on ``coeff * z**degree``.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bound-chain", "equivalence-fft", "symbol-scan")

#: the program's sources in the checkout that holds this directory
SRC = Path(__file__).resolve().parents[1] / "src"

#: the bundled configs the workloads run, copied from ``configs/`` (minus
#: ``out_dir``) so that the benchmark's inputs cannot drift with that folder
BUNDLED = {
    "bound_check_monomial2": {
        "command": "bound-check",
        "symbol": {"type": "monomial", "k": 2},
        "family": "monomials:1..8",
        "params": {"sigma": 1.0, "beta": 0.5},
    },
    "equivalence_monomials": {
        "command": "equivalence",
        "family": "monomials:1..8",
        "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
    },
    "equivalence_mobius_family": {
        "command": "equivalence",
        "family": {
            "name": "mobius-monomials", "start": 1, "stop": 4,
            "a": {"re": 0.5, "im": 0.0}, "order": 48,
        },
        "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
    },
    "norm_geometric": {
        "command": "norm",
        "family": "geometric:1..6",
        "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
    },
}

#: symbol-scan catalog composition: (kind, count)
CATALOG = (("mobius", 64), ("monomial", 16), ("rotation", 16), ("identity", 1),
           ("blaschke", 72), ("poly-contact", 36), ("poly-inner", 8),
           ("poly-interior", 26), ("constant", 1))

#: Mobius |a| = 1 - 10**-u with u evenly spaced over this range; the top of
#: it is |a| = 1 - 1e-7, where the closed-form sup is about 2e7
MOBIUS_DEPTH = (0.3, 7.0)
#: golden-angle step between the arguments of successive Mobius zeros
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class Experiment:
    """One unit of work; ``name`` is unique within a pass."""

    name: str
    config: dict | None = None
    lift: tuple | None = None  # (degree, coeff, sigma, beta, QuadratureSettings fields)


def _cx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _unit(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _blaschke_zeros(rng: random.Random, count: int, max_modulus: float) -> list:
    return [_cx(rng.uniform(0.05, max_modulus) * _unit(rng)) for _ in range(count)]


#: lift ladder 24x96 -> 48x192 (9,216 nodes).  Each pair block of the final
#: rule is 512 x 9216 doubles, about 38 MB: above glibc's 32 MB ceiling for
#: reusing freed chunks, so every block is fresh memory, as at 64x256, while
#: the 16 MB blocks of bound-check are reused.  The default 32x128 -> 64x256
#: ladder takes 8-10 s a call on 2 cores, which leaves too few samples per run.
LIFT_SETTINGS = {"radial_count": 24, "angular_count": 96, "max_refinements": 1}


def _bound_chain(rng):
    mobius = {
        "command": "bound-check",
        "symbol": {"type": "mobius", "a": _cx(0.5), "post_rotation": rng.uniform(0.0, 2 * math.pi)},
        "family": "monomials:1..4",
        "params": {"sigma": 1.0, "beta": 0.5},
    }
    blaschke = {
        "command": "bound-check",
        "symbol": {
            "type": "blaschke",
            "zeros": _blaschke_zeros(rng, rng.choice((2, 3)), 0.6),
            "post_rotation": rng.uniform(0.0, 2 * math.pi),
        },
        "family": "monomials:1..4",
        "params": {"sigma": 1.0, "beta": 0.5},
    }
    degree = rng.choice((1, 2, 3))
    coeff = rng.uniform(0.5, 2.0) * _unit(rng)
    return [
        Experiment("bound_check_monomial2", config=BUNDLED["bound_check_monomial2"]),
        Experiment("bound_check_mobius", config=mobius),
        Experiment("bound_check_blaschke", config=blaschke),
        Experiment(f"lift_z{degree}", lift=(degree, coeff, 1.0, 0.5, LIFT_SETTINGS)),
    ]


def _equivalence_fft(rng):
    # scaled monomials: the ratio is 2-homogeneous, so it must match z^n's
    scaled = [
        {"coeffs": [0.0] * n + [_cx(rng.uniform(0.25, 4.0) * _unit(rng))], "label": f"c*z^{n}"}
        for n in range(1, 9)
    ]
    sigma, tau = rng.uniform(1.2, 1.8), rng.uniform(0.4, 0.8)
    beta = rng.uniform(0.3, 0.6)
    return [
        Experiment(name, config=BUNDLED[name])
        for name in ("equivalence_monomials", "equivalence_mobius_family", "norm_geometric")
    ] + [
        Experiment("equivalence_monomials_64x256", config={
            "command": "equivalence",
            "family": scaled,
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": {"radial_count": 64, "angular_count": 256},
        }),
        Experiment("equivalence_sigma_ne_tau", config={
            "command": "equivalence",
            "family": "monomials:1..8",
            "params": {"sigma": sigma, "tau": tau, "beta": beta},
        }),
    ]


def _catalog_symbol(rng, kind, stratum, strata):
    if kind == "mobius":
        # a fixed ladder, the same for every seed: whether the sup search
        # misjudges a near-boundary map depends on |a|, arg a and, through
        # rounding, the post-rotation, so seeded maps would make the number
        # of failures vary with the seed
        lo, hi = MOBIUS_DEPTH
        depth = lo + stratum * (hi - lo) / (strata - 1)
        a = (1.0 - 10.0**-depth) * cmath.exp(1j * GOLDEN_ANGLE * stratum)
        return {"type": "mobius", "a": _cx(a), "post_rotation": GOLDEN_ANGLE * (strata - stratum)}
    if kind == "monomial":
        return {"type": "monomial", "k": rng.randint(1, 12)}
    if kind == "rotation":
        return {"type": "rotation", "angle": rng.uniform(0.0, 2 * math.pi)}
    if kind == "identity":
        return {"type": "identity"}
    if kind == "blaschke":
        return {
            "type": "blaschke",
            "zeros": _blaschke_zeros(rng, rng.randint(2, 4), 0.95),
            "post_rotation": rng.uniform(0.0, 2 * math.pi),
        }
    if kind == "poly-contact":
        # e^{i psi} (t + (1-t) (z/zeta0)^m): |p| = 1 exactly where (z/zeta0)^m = 1;
        # zeta0 sits on the 1024-point circle grid, so every contact point does
        m = rng.choice((1, 2, 4))
        t = rng.uniform(0.1, 0.9)
        psi = _unit(rng)
        zeta0 = cmath.exp(2j * math.pi * rng.randrange(1024) / 1024)
        coeffs = [0j] * (m + 1)
        coeffs[0] = psi * t
        coeffs[m] = psi * (1.0 - t) * zeta0**-m
        return {"type": "poly", "coeffs": [_cx(c) for c in coeffs]}
    if kind == "poly-inner":
        k = rng.randint(1, 5)
        return {"type": "poly", "coeffs": [_cx(0j)] * k + [_cx(_unit(rng))]}
    if kind == "poly-interior":
        degree = rng.randint(1, 5)
        weights = [rng.random() for _ in range(degree + 1)]
        scale = rng.uniform(0.3, 0.95) / sum(weights)
        return {"type": "poly", "coeffs": [_cx(w * scale * _unit(rng)) for w in weights]}
    if kind == "constant":
        return {"type": "poly", "coeffs": [_cx(rng.uniform(0.0, 0.9) * _unit(rng))]}
    raise ValueError(kind)


def _symbol_scan(rng):
    out = []
    for kind, count in CATALOG:
        for i in range(count):
            symbol = _catalog_symbol(rng, kind, i, count)
            for command in ("kernel-sup", "rank-check", "selfmap-check"):
                out.append(Experiment(
                    f"{kind}[{i}]:{command}", config={"command": command, "symbol": symbol}
                ))
    return out


_BUILDERS = {
    "bound-chain": _bound_chain,
    "equivalence-fft": _equivalence_fft,
    "symbol-scan": _symbol_scan,
}


def build(workload: str, seed: int) -> list:
    """The experiments of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def setup(experiments):
    """Import the program and validate every input, as a user's run would.

    Returns the parsed RunConfigs (None for lift experiments).  The caller
    times this: it is the benchmark's set-up (imports, config parsing and
    family expansion, including coefficient extraction for
    mobius-monomials families).
    """
    from discop import config, harness, operators  # noqa: F401  (import cost is set-up)

    return [config.parse_config(e.config) if e.config is not None else None for e in experiments]
