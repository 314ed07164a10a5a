"""Correctness references and computed work counts for benchmark experiments.

Every reference is computed here from the generated inputs, independently of
discop's own code paths, or frozen from the program as it stood when this
benchmark was written, where no closed form exists:

* kernel supremum: closed forms for identity, rotations, z^k and Mobius maps
  ((1+|a|)/(1-|a|)); for finite Blaschke products the maximum over the circle
  of |B'| = sum (1-|a_k|^2)/|zeta-a_k|^2; Unbounded for every symbol that
  is not unimodular on the circle;
* rank check: the minimum of |phi'| over the contact set, from the same
  formulas;
* Dirichlet-type norms: sum n^2 |a_n|^2 B(n, p+1) from the coefficients,
  with Mobius powers expanded here by series multiplication;
* equivalence: ratio recomputed from the returned refinement trace, and its
  refinement move within the config's stability tolerance;
* lift route: gap <= 1e-8 and values frozen per rule;
* bound chain: composed integrals and bound ratios frozen at the seed.

The work counts are labelled "computed": node pairs are N_z * N_w from rule
sizes (quadrature) or grid sizes (supremum search), never timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import betaln

#: relative tolerance on kernel suprema (acceptance criterion 2 uses 1e-3)
SUP_RTOL = 1e-3
#: relative tolerance on min |phi'| (the rank scan polishes to 1e-12 in angle)
RANK_RTOL = 1e-6
#: the lift route identity (acceptance criterion 6)
LIFT_ROUTE_TOL = 1e-8
#: agreement with frozen values, and with exact formulas
#: that the program evaluates in another order
FROZEN_RTOL = 1e-9
EXACT_RTOL = 1e-12
#: quadrature Dirichlet norm vs the Beta-function formula (harness tolerance)
NORM_QUAD_RTOL = 1e-8
#: equivalence ratio recomputed from the trace over an independently
#: expanded denominator (the program extracts Mobius coefficients numerically)
RATIO_RTOL = 1e-8
#: a 1024-point boundary scan under-reads max |p| by O(spacing^2) for deg <= 5
SELFMAP_GRID_ATOL = 1e-3
DEFAULT_STABILITY_TOL = 0.02

# Values frozen when this benchmark was written (x86-64, numpy 2.4, OpenBLAS), per
# experiment name and in family order.  bound-check entries are
# (bound_ratio, composed_pair_integral) at the default 32x128 rule; the Mobius
# ones hold for every post-rotation, which leaves |f(phi)| unchanged.
# Equivalence entries are ratios, which are 2-homogeneous in f.
FROZEN = {
    "bound_check_monomial2": [
        (0.04166666666666667, 0.2970902370903317),
        (0.03749999999999998, 0.20695679475555345),
        (0.03571428571428569, 0.16571420741241563),
        (0.03472222222222221, 0.14334084247013057),
        (0.034090909090909095, 0.12952397273218128),
        (0.03365384615384618, 0.12019460554152622),
        (0.033333333333333395, 0.11347937477491495),
        (0.03308823529411771, 0.10841035503432009),
    ],
    "bound_check_mobius": [
        (0.0033815748801149957, 2.729700323854023),
        (0.003541861524342881, 7.298898620851826),
        (0.00364353417005168, 11.990754489538704),
        (0.0037140961131017156, 16.357863904414558),
    ],
    "equivalence_monomials": [
        1.2418678325179748, 1.2417483777615204, 1.2431748365251594, 1.244780512556824,
        1.2462387113966393, 1.2474791964290832, 1.248503497318478, 1.249332781139531,
    ],
    "equivalence_mobius_family": [
        1.2420029123010383, 1.2432284900849988, 1.2441191192128724, 1.2448811932811041,
    ],
    "equivalence_monomials_64x256": [
        1.2419163095399948, 1.2418899531443923, 1.243450452038587, 1.2452275983414043,
        1.2468913461459332, 1.2483682602118438, 1.2496568174161733, 1.2507752712480757,
    ],
}
# lift route: the pairwise integral of z^n (sigma=1, beta=0.5) on the final
# rule of the ladder, per (n, n_rad, n_ang); it scales with |coeff|^2
FROZEN_LIFT = {
    (1, 48, 192): 0.6209051701756582,
    (2, 48, 192): 0.8277212355389232,
    (3, 48, 192): 0.9321399734530664,
}


@dataclass
class Work:
    """Computed work of one experiment."""

    pairs: int = 0  # every (z, w) pair at which a two-point kernel is evaluated
    composed_pairs: int = 0  # pair passes of the operators layer
    fft_pairs: int = 0  # pairs covered by the FFT pairwise integral
    fft_calls: int = 0
    refine_levels: int = 0
    sup_calls: int = 0
    zoom_steps: int = 0
    sup_mismatch: int = 0

    def add(self, other: "Work"):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# --- symbol references -------------------------------------------------------


def _extremum(g, sign):
    """max (sign=1) or min (sign=-1) of a smooth 2*pi-periodic g, polished."""
    n = 8192
    theta = 2.0 * np.pi * np.arange(n) / n
    i = int(np.argmax(sign * g(theta)))
    h = 2.0 * np.pi / n
    res = minimize_scalar(
        lambda t: -sign * float(g(np.array([t]))[0]),
        bounds=(theta[i] - h, theta[i] + h), method="bounded", options={"xatol": 1e-14},
    )
    return max(sign * float(g(theta[i : i + 1])[0]), -float(res.fun)) * sign


def _blaschke_deriv_modulus(zeros):
    zeros = np.asarray(zeros)
    weights = 1.0 - np.abs(zeros) ** 2

    def g(theta):
        zeta = np.exp(1j * theta)[:, None]
        return np.sum(weights / np.abs(zeta - zeros) ** 2, axis=1)

    return g


@dataclass(frozen=True)
class SymbolRef:
    """What a correct program reports for one symbol."""

    sup: float  # inf when the kernel is unbounded
    rank_verdict: str
    min_deriv: float | None
    max_modulus: float
    contact: bool
    max_modulus_exact: bool  # False: a boundary grid may under-read it


def symbol_reference(spec: dict) -> SymbolRef:
    kind = spec["type"]
    if kind in ("identity", "rotation"):
        return SymbolRef(1.0, "Pass", 1.0, 1.0, True, True)
    if kind == "monomial":
        k = float(spec["k"])
        return SymbolRef(k, "Pass", k, 1.0, True, True)
    if kind == "mobius":
        a = abs(_complex(spec["a"]))
        return SymbolRef((1 + a) / (1 - a), "Pass", (1 - a) / (1 + a), 1.0, True, True)
    if kind == "blaschke":
        g = _blaschke_deriv_modulus([_complex(z) for z in spec["zeros"]])
        return SymbolRef(_extremum(g, 1), "Pass", _extremum(g, -1), 1.0, True, True)
    if kind == "poly":
        coeffs = [_complex(c) for c in spec["coeffs"]]
        terms = [(k, c) for k, c in enumerate(coeffs) if c != 0]
        if len(terms) == 1 and terms[0][0] >= 1 and abs(abs(terms[0][1]) - 1.0) < 1e-12:
            k = float(terms[0][0])  # unimodular monomial written as a polynomial
            return SymbolRef(k, "Pass", k, 1.0, True, True)
        if (len(terms) == 2 and terms[0][0] == 0
                and abs(terms[0][1]) + abs(terms[1][1]) >= 1.0 - 1e-12):
            # c0 + cm z^m touches the circle where the phases align, with
            # |p'| = m |cm| there; |p| < 1 elsewhere, so the kernel diverges
            m, cm = terms[1]
            return SymbolRef(math.inf, "Pass", m * abs(cm), 1.0, True, True)
        poly = np.polynomial.Polynomial(coeffs)
        top = _extremum(lambda t: np.abs(poly(np.exp(1j * t))), 1) if len(coeffs) > 1 else abs(coeffs[0])
        if top >= 1.0 - 1e-3:
            raise ValueError(f"catalog polynomial too close to the circle: {spec}")
        return SymbolRef(math.inf, "Vacuous", None, top, False, len(coeffs) == 1)
    raise ValueError(f"unknown symbol type {kind!r}")


# --- family references --------------------------------------------------------


def _mobius_power_coeffs(a: complex, n: int, order: int) -> np.ndarray:
    """Taylor coefficients of ((a - z)/(1 - conj(a) z))^n up to z^order."""
    geometric = np.conj(a) ** np.arange(order + 1)
    base = a * geometric
    base[1:] -= geometric[:-1]
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    for _ in range(n):
        out = np.convolve(out, base)[: order + 1]
    return out


def family_coeffs(family) -> list:
    """Coefficient arrays of a config family, expanded without discop."""
    if isinstance(family, str):
        name, rng = family.split(":")
        start, stop = (int(x) for x in rng.split(".."))
        family = {"name": name, "start": start, "stop": stop}
    if isinstance(family, list):
        return [np.array([_complex(c) for c in e["coeffs"]]) for e in family]
    name, start, stop = family["name"], family.get("start", 1), family.get("stop", 8)
    members = range(start, stop + 1)
    if name == "monomials":
        return [np.eye(n + 1)[n].astype(complex) for n in members]
    if name == "geometric":
        return [np.ones(k + 1, dtype=complex) for k in members]
    if name == "mobius-monomials":
        a = _complex(family.get("a", 0.5))
        return [_mobius_power_coeffs(a, n, family.get("order", 48)) for n in members]
    raise ValueError(f"unknown family {name!r}")


def dirichlet_sq(coeffs, p: float) -> float:
    """sum_{n>=1} n^2 |a_n|^2 B(n, p+1)."""
    n = np.arange(1, len(coeffs))
    return float(np.sum(n**2 * np.abs(coeffs[1:]) ** 2 * np.exp(betaln(n, p + 1.0))))


def _params(cfg: dict):
    par = cfg["params"]
    sigma, beta = float(par["sigma"]), float(par["beta"])
    tau = float(par.get("tau", sigma))
    return sigma, tau, beta, sigma + tau - 2.0 * beta


# --- checks -------------------------------------------------------------------


def _rows(outcome, quantity):
    return [r for r in outcome.rows if r.quantity == quantity]


def _count_sup(outcome, run_cfg, work):
    """One supremum search: initial grid pairs plus a local grid per zoom."""
    trace = outcome.traces["sup"]
    zooms = len(trace) - 1
    work.pairs += int(trace[0][0]) ** 2 + zooms * run_cfg.sup_search.local_grid**2
    work.sup_calls += 1
    work.zoom_steps += zooms


def _check_sup_row(row, ref: SymbolRef, fail, work):
    want = "Bounded" if math.isfinite(ref.sup) else "Unbounded"
    if row.verdict != want:
        work.sup_mismatch += 1
        fail(f"sup verdict {row.verdict} (value {row.value:.6g}), expected {want} "
             f"(closed form {ref.sup:.6g})")
    elif want == "Bounded" and _rel(row.value, ref.sup) > SUP_RTOL:
        fail(f"sup {row.value!r} vs reference {ref.sup!r}")


def _check_min_deriv(row, ref: SymbolRef, fail):
    if row.verdict != ref.rank_verdict:
        fail(f"rank verdict {row.verdict}, expected {ref.rank_verdict}")
    elif ref.min_deriv is not None and _rel(row.value, ref.min_deriv) > RANK_RTOL:
        fail(f"min |phi'| {row.value!r} vs reference {ref.min_deriv!r}")


def _check_kernel_sup(cfg, run_cfg, outcome, ref, frozen, fail, work):
    (row,) = _rows(outcome, "kernel_sup")
    _check_sup_row(row, ref, fail, work)
    want_exit = 0 if math.isfinite(ref.sup) else 2
    if outcome.exit_code != want_exit:
        fail(f"exit code {outcome.exit_code}, expected {want_exit}")
    _count_sup(outcome, run_cfg, work)


def _check_rank(cfg, run_cfg, outcome, ref, frozen, fail, work):
    (row,) = _rows(outcome, "min_deriv_modulus")
    _check_min_deriv(row, ref, fail)
    if outcome.exit_code != 0:
        fail(f"exit code {outcome.exit_code}, expected 0")


def _check_selfmap(cfg, run_cfg, outcome, ref, frozen, fail, work):
    (mod,) = _rows(outcome, "max_modulus")
    (contact,) = _rows(outcome, "boundary_contact")
    if ref.max_modulus_exact:
        ok = _rel(mod.value, ref.max_modulus) <= FROZEN_RTOL
    else:
        ok = ref.max_modulus - SELFMAP_GRID_ATOL <= mod.value <= ref.max_modulus + 1e-12
    if not ok or mod.verdict != "Pass":
        fail(f"max |phi| {mod.value!r} ({mod.verdict}) vs reference {ref.max_modulus!r}")
    if bool(contact.value) != ref.contact:
        fail(f"boundary contact {contact.value}, expected {int(ref.contact)}")
    if outcome.exit_code != 0:
        fail(f"exit code {outcome.exit_code}, expected 0")


def _check_bound(cfg, run_cfg, outcome, ref, frozen, fail, work):
    (sup_row,) = _rows(outcome, "kernel_sup")
    _check_sup_row(sup_row, ref, fail, work)
    _count_sup(outcome, run_cfg, work)
    rank_rows = _rows(outcome, "min_deriv_modulus")
    if not rank_rows:
        fail("no rank row: the chain stopped at the supremum")
        return
    _check_min_deriv(rank_rows[0], ref, fail)
    ratios = _rows(outcome, "bound_ratio")
    violations = _rows(outcome, "pointwise_violations")
    composed = _rows(outcome, "composed_pair_integral")
    members = len(family_coeffs(cfg["family"]))
    if not len(ratios) == len(violations) == len(composed) == members:
        fail(f"{len(ratios)} bound rows for {members} family members")
        return
    for i, (r, v, c) in enumerate(zip(ratios, violations, composed)):
        if r.verdict != "Pass" or not (math.isfinite(r.value) and r.value > 0):
            fail(f"{r.input}: bound ratio {r.value!r} ({r.verdict})")
        if v.value != 0:
            fail(f"{r.input}: {v.value} pointwise violations")
        if not c.value > 0:
            fail(f"{r.input}: composed integral {c.value!r}")
        if frozen is not None:
            want_ratio, want_composed = frozen[i]
            if _rel(r.value, want_ratio) > FROZEN_RTOL:
                fail(f"{r.input}: bound ratio {r.value!r} vs frozen {want_ratio!r}")
            if _rel(c.value, want_composed) > FROZEN_RTOL:
                fail(f"{r.input}: composed integral {c.value!r} vs frozen {want_composed!r}")
        refined = outcome.traces[r.input]
        work.refine_levels += len(refined)
    if outcome.exit_code != 0:
        fail(f"exit code {outcome.exit_code}, expected 0")
    # the composed pass runs on the coarse and the base rule of a two-level
    # ladder for every member (operators.bound_check)
    q = run_cfg.quadrature
    coarse = max(q.radial_count // q.refinement_factor, 4) * max(
        q.angular_count // q.refinement_factor, 8)
    per_member = coarse**2 + (q.radial_count * q.angular_count) ** 2
    work.composed_pairs += members * per_member
    work.pairs += members * per_member


def _check_equivalence(cfg, run_cfg, outcome, ref, frozen, fail, work):
    sigma, tau, beta, p = _params(cfg)
    tol = float(cfg.get("stability_rel_tol", DEFAULT_STABILITY_TOL))
    coeffs = family_coeffs(cfg["family"])
    rows = _rows(outcome, "equivalence_ratio")
    if len(rows) != len(coeffs):
        fail(f"{len(rows)} ratio rows for {len(coeffs)} family members")
        return
    for i, (row, a) in enumerate(zip(rows, coeffs)):
        trace = outcome.traces[row.input]
        den = dirichlet_sq(a, p)
        ratio, prev = trace[-1][2] / den, trace[-2][2] / den
        move = abs(ratio - prev) / max(abs(ratio), abs(prev))
        if row.verdict != "Pass" or move > tol:
            fail(f"{row.input}: refinement move {move:.3g} > {tol:g} ({row.verdict})")
        if _rel(row.value, ratio) > RATIO_RTOL:
            fail(f"{row.input}: ratio {row.value!r} vs trace/Beta {ratio!r}")
        if frozen is not None and _rel(row.value, frozen[i]) > FROZEN_RTOL:
            fail(f"{row.input}: ratio {row.value!r} vs frozen {frozen[i]!r}")
        levels = [int(n_rad) * int(n_ang) for n_rad, n_ang, _ in trace]
        work.fft_calls += len(levels)
        work.refine_levels += len(levels)
        work.fft_pairs += sum(n * n for n in levels)
        work.pairs += sum(n * n for n in levels)
    (band,) = _rows(outcome, "ratio_band")
    values = [r.value for r in rows]
    if band.verdict != "Pass" or _rel(band.value, max(values) / min(values)) > EXACT_RTOL:
        fail(f"ratio band {band.value!r} ({band.verdict})")
    if outcome.exit_code != 0:
        fail(f"exit code {outcome.exit_code}, expected 0")


def _check_norm(cfg, run_cfg, outcome, ref, frozen, fail, work):
    *_, p = _params(cfg)
    rows = _rows(outcome, "dirichlet_norm_sq")
    coeffs = family_coeffs(cfg["family"])
    if len(rows) != 2 * len(coeffs):
        fail(f"{len(rows)} norm rows for {len(coeffs)} family members")
        return
    for a, coeff_row, quad_row in zip(coeffs, rows[0::2], rows[1::2]):
        want = dirichlet_sq(a, p)
        if _rel(coeff_row.value, want) > EXACT_RTOL:
            fail(f"{coeff_row.input}: coefficient norm {coeff_row.value!r} vs Beta {want!r}")
        if quad_row.verdict != "Pass" or _rel(quad_row.value, want) > NORM_QUAD_RTOL:
            fail(f"{quad_row.input}: quadrature norm {quad_row.value!r} vs Beta {want!r}")
        work.refine_levels += len(outcome.traces[coeff_row.input])
    if outcome.exit_code != 0:
        fail(f"exit code {outcome.exit_code}, expected 0")


def _check_lift(spec, result, fail, work):
    degree, coeff, sigma, beta, _ = spec
    scale = abs(coeff) ** 2
    if not result.route_gap <= LIFT_ROUTE_TOL:
        fail(f"route gap {result.route_gap:.3e} > {LIFT_ROUTE_TOL:g}")
    l_trace, d_trace = result.bergman_sq.trace, result.double_integral_sq.trace
    if [t[:2] for t in l_trace] != [t[:2] for t in d_trace]:
        fail("the two routes did not share one refinement ladder")
    n_rad, n_ang, _ = l_trace[-1]
    frozen = FROZEN_LIFT.get((degree, int(n_rad), int(n_ang)))
    if frozen is None:
        fail(f"no frozen lift value for z^{degree} on a {n_rad}x{n_ang} rule")
    elif _rel(result.bergman_sq.value_sq, scale * frozen) > FROZEN_RTOL:
        fail(f"lift norm {result.bergman_sq.value_sq!r} vs frozen {scale * frozen!r}")
    want = scale * dirichlet_sq(np.eye(degree + 1)[degree], 2.0 * sigma - 2.0 * beta)
    if _rel(result.dirichlet_sq.value_sq, want) > EXACT_RTOL:
        fail(f"Dirichlet norm {result.dirichlet_sq.value_sq!r} vs Beta {want!r}")
    composed = sum((int(r) * int(a)) ** 2 for r, a, _ in l_trace)
    fft = sum((int(r) * int(a)) ** 2 for r, a, _ in d_trace)
    work.composed_pairs += composed
    work.fft_pairs += fft
    work.fft_calls += len(d_trace)
    work.pairs += composed + fft


_CONFIG_CHECKS = {
    "kernel-sup": _check_kernel_sup,
    "rank-check": _check_rank,
    "selfmap-check": _check_selfmap,
    "bound-check": _check_bound,
    "equivalence": _check_equivalence,
    "norm": _check_norm,
}


class Checker:
    """Checks experiment outputs; references are computed once per input."""

    def __init__(self, experiments, run_configs):
        self.unchecked = 0
        self._run_configs = {e.name: rc for e, rc in zip(experiments, run_configs)}
        by_spec = {}  # the three symbol-scan commands share one symbol
        self._refs = {}
        for e in experiments:
            if e.config is not None and "symbol" in e.config:
                key = repr(e.config["symbol"])
                if key not in by_spec:
                    by_spec[key] = symbol_reference(e.config["symbol"])
                self._refs[e.name] = by_spec[key]

    def check(self, exp, result, error) -> tuple:
        """Returns (failure messages, Work) for one executed experiment."""
        failures = []
        work = Work()

        def fail(message):
            failures.append(f"{exp.name}: {message}")

        if error is not None:
            fail(f"raised {type(error).__name__}: {error}")
            return failures, work
        if exp.lift is not None:
            _check_lift(exp.lift, result, fail, work)
            return failures, work
        errors = [r for r in result.rows if r.quantity == "error"]
        if errors:
            fail(f"error row {errors[0].verdict}: {errors[0].value}")
            return failures, work
        try:
            _CONFIG_CHECKS[exp.config["command"]](
                exp.config, self._run_configs[exp.name], result, self._refs.get(exp.name),
                FROZEN.get(exp.name), fail, work,
            )
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            # an output of unexpected shape is wrong, and leaves the run unchecked
            fail(f"unreadable output ({exc!r})")
            self.unchecked += 1
        return failures, work
