"""Composition operators, the lift to the bidisc, and the bound pipeline.

The composition operator sends f to f(phi(.)).  ``ComposedFunction(f, phi)``
answers ``value(z)`` and ``deriv(z)`` (the chain rule f'(phi(z)) phi'(z)), as
series and symbols do, so the norm routes take it as they take f; it has no
coefficients, so its Dirichlet-type norm is computed by quadrature on that
derivative.

The lift sends a disc function to the bidisc difference quotient

    (f(z) - f(w)) / (1 - conj(w) z)^e,   e > 0.

Only the modulus of the lift is contractually defined: the denominator is
anti-holomorphic in w, so for non-integer exponents a holomorphic branch on
the bidisc is not available, while every downstream use consumes |.| only.
The principal-branch modulus |1 - z conj(w)|^e is used.  With e = beta + 2
the squared bidisc Bergman norm of the lift is, node for node, the pairwise
double-integral functional with kernel exponent q = 2*(beta + 2).
``lift_norm_check`` sums it with the composed pair engine (identity symbol)
and evaluates both routes on a shared refinement ladder, so the identity can
be asserted at round-off level.  The engine works in Gram form, one product
for all members.  For phi = c z^m (the identity among them) the kernel
depends on the radii and the angle difference only, and a Mobius map's is
the kernel of z times separable node weights, so for both the engine sums a
circular correlation along the angle by a real FFT on the pairwise integral's
cached ring-kernel spectrum; other symbols take the upper-triangle route.
The lift's route identity compares two different summations: this engine
evaluates f at the nodes, the pairwise integral reads f's coefficients.

The rank-sufficiency check inspects the diagonal bidisc symbol
Phi(z1, z2) = (phi(z1), phi(z2)): its boundary derivative is diagonal with
entries phi'(zeta_1), phi'(zeta_2) (the cross partials vanish), so
invertibility at every boundary-contact pair reduces to |phi'| staying away
from zero on the contact set: the circle for a Blaschke product (every inner
symbol), the scan-bracketed maxima of |phi| for a polynomial.  Both come
from phi' on the shared boundary grid, and phi there for a polynomial only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._numutil import abs_sq, powq
from .errors import ConvergenceError, ParamError
from .kernels import SupEstimate, Verdict, estimate_sup
from .norms import (
    NormResult,
    _kernel_spectrum,
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    pairwise_difference_integral,
    validate_main_theorem_params,
)
from .quadrature import QuadratureSettings, _rel_change, build_disc_rule
from .series import TruncatedPowerSeries
from .symbols import TWO_PI, Blaschke, BoundaryPoint, Identity, Polynomial, boundary_grid

#: rows per tile of the composed pair engine, and its corner's zeroed lower triangle and diagonal
_TILE = 16
_LOWER = np.tri(_TILE, dtype=bool)
#: largest relative gap between the lift's two routes on one rule
_ROUTE_TOL = 1e-8
#: rank scan: boundary grid size, the |phi| band counted as contact, and the
#: |phi'| below which the angular derivative is numerically zero
_SCAN_RESOLUTION, _CONTACT_TOL, DERIV_TOL = 4096, 1e-6, 1e-8
#: relative slack of the pointwise majorization test (round-off of the powers),
#: and of the kernel diagonal that picks the rows it tests (below the first, so
#: a rotation's diagonal of exactly 1 picks none at sup_q = 1)
VIOLATION_REL_TOL, _DIAG_SLACK = 1e-12, 1e-14


@dataclass(frozen=True)
class ComposedFunction:
    """f (a series, symbol or composition) after a symbol: value and chain-rule derivative."""

    f: object
    symbol: Blaschke | Polynomial

    def value(self, z):
        return self.f.value(self.symbol.value(z))

    def deriv(self, z):
        return self.f.deriv(self.symbol.value(z)) * self.symbol.deriv(z)


@dataclass(frozen=True)
class LiftNormCheck:
    """Both sides of the lift-boundedness statement, plus the route identity gap.

    ``bergman_sq`` is the squared bidisc Bergman norm of the lifted function,
    ``dirichlet_sq`` the squared Dirichlet-type norm of f itself, and
    ``double_integral_sq`` the pairwise functional evaluated on the same
    final rule as the Bergman route (the two are the same nodal sum up to
    reassociation; ``route_gap`` is their relative difference).
    """

    bergman_sq: NormResult
    dirichlet_sq: NormResult
    double_integral_sq: NormResult
    route_gap: float


def lift_norm_check(
    f: TruncatedPowerSeries,
    sigma: float,
    beta: float,
    settings: QuadratureSettings = QuadratureSettings(),
) -> LiftNormCheck:
    """Check that lifting into the bidisc Bergman space matches the functional.

    Both integrals are driven over one shared refinement ladder (stopping on
    the pairwise functional's change) so they end on the same rule; their
    relative gap must stay within 1e-8.
    """
    params = validate_main_theorem_params(sigma, beta)
    q = params.q_exponent

    def d_eval(n_rad, n_ang):
        return pairwise_difference_integral(f, sigma, sigma, q, n_rad, n_ang)

    # Bergman route: direct pair summation of the squared lift modulus (the
    # lift exponent is q/2, so the squared modulus carries the kernel power
    # q); structurally this is the composed pass with the identity symbol.
    def l_eval(n_rad, n_ang):
        return _composed_pair_sums([f.value], Identity(), sigma, q, n_rad, n_ang)[0][0]

    n_rad, n_ang = settings.radial_count, settings.angular_count
    d_val, l_val = d_eval(n_rad, n_ang), l_eval(n_rad, n_ang)
    d_trace, l_trace = [(n_rad, n_ang, d_val)], [(n_rad, n_ang, l_val)]
    change = None
    for _ in range(settings.max_refinements):
        n_rad *= settings.refinement_factor
        n_ang *= settings.refinement_factor
        d_new, l_new = d_eval(n_rad, n_ang), l_eval(n_rad, n_ang)
        d_trace.append((n_rad, n_ang, d_new))
        l_trace.append((n_rad, n_ang, l_new))
        change = _rel_change(d_new, d_val)
        d_val, l_val = d_new, l_new
        if change <= settings.target_rel_tol:
            break
    else:
        raise ConvergenceError(
            "lift-norm refinement did not stabilize",
            partial=(l_val, d_val),
            trace=tuple(d_trace),
        )

    route_gap = _rel_change(l_val, d_val)
    if route_gap > _ROUTE_TOL:
        raise ConvergenceError(
            f"lift route identity violated: relative gap {route_gap:.3e} > {_ROUTE_TOL:g}",
            partial=(l_val, d_val),
        )
    dirichlet = dirichlet_norm_sq_coeff(f, params.p_dirichlet)
    return LiftNormCheck(
        bergman_sq=NormResult(value_sq=max(l_val, 0.0), rel_error_estimate=change,
                              trace=tuple(l_trace)),
        dirichlet_sq=dirichlet,
        double_integral_sq=NormResult(value_sq=max(d_val, 0.0), rel_error_estimate=change,
                                      trace=tuple(d_trace)),
        route_gap=route_gap,
    )


# --- rank sufficiency ------------------------------------------------------


class RankVerdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    VACUOUS = "Vacuous"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RankReport:
    """The contact set, the minimum of |phi'| over it, and the verdict.

    The contact set is where |phi| reaches 1 (within 1e-6).  For structurally
    unimodular symbols the whole circle is reported symbolically through
    ``full_circle`` rather than as a point list.  ``exhaustive`` records
    whether the scan resolution was fine enough to bracket every modulus
    extremum of the symbol.  ``deriv_modulus`` is |phi'| on the scan grid,
    ``boundary_grid(len(deriv_modulus))``.
    """

    full_circle: bool
    points: tuple  # BoundaryPoint entries (empty when full_circle)
    exhaustive: bool
    min_deriv_modulus: float | None
    verdict: RankVerdict
    deriv_modulus: np.ndarray = field(repr=False, compare=False)


def _refine_min_deriv(symbol, theta0: float, half_width: float) -> float:
    """Polish a boundary minimum of |phi'| by three zooms of 65 angles, each
    across the last best angle's neighbours (final spacing half_width / 32^3)."""
    for _ in range(3):
        t = theta0 + half_width * np.linspace(-1.0, 1.0, 65)
        dmod = np.abs(symbol.deriv(np.exp(1j * t)))
        k = int(np.argmin(dmod))
        theta0, half_width = float(t[k]), half_width / 32
    return float(dmod[k])


def _bisect_modulus_extrema(symbol, lo, hi):
    """Bisect every scan bracket's root of d|phi|^2/dtheta at once (slope > 0 at lo, <= 0 at hi)."""
    peaks, live = np.empty_like(lo), np.ones(lo.shape, dtype=bool)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        zeta = np.exp(1j * mid)
        v, d = symbol.value(zeta), symbol.deriv(zeta)
        # Re(conj(v) i zeta d) by real products, unfused as one bracket's scalar products are
        br, bi = v.imag * zeta.real - v.real * zeta.imag, v.imag * zeta.imag + v.real * zeta.real
        fm = 2.0 * (br * d.real - bi * d.imag)
        stop = live & ((fm == 0.0) | (hi - lo < 1e-13))
        peaks[stop], live[stop] = mid[stop], False
        if not live.any():
            return peaks
        lo, hi = np.where(fm > 0, mid, lo), np.where(fm > 0, hi, mid)
    return np.where(live, 0.5 * (lo + hi), peaks)


def rank_sufficiency_check(symbol: Blaschke | Polynomial) -> RankReport:
    """Decide invertibility of the diagonal bidisc symbol on its contact set.

    Scans 4096 boundary angles for contact points (local maxima of |phi|
    within 1e-6 of 1, polished by bisection on the angle), then takes the
    minimum of |phi'| over them.  Below DERIV_TOL the predicted nonzero
    angular derivative is numerically indistinguishable from zero, so the
    verdict is Fail.
    """
    theta, zeta = boundary_grid(_SCAN_RESOLUTION)
    dphi = symbol.deriv(zeta)
    dmod = np.abs(dphi)
    points, min_deriv = [], None
    if isinstance(symbol, Blaschke):
        # inner: the whole circle is contact by construction, so |phi| is not scanned
        full_circle = touched = exhaustive = True
        k = int(np.argmin(dmod))
        refined = _refine_min_deriv(symbol, float(theta[k]), TWO_PI / _SCAN_RESOLUTION)
        min_deriv = min(float(dmod[k]), refined)
    else:
        phi = symbol.value(zeta)
        mods = np.abs(phi)
        exhaustive = _SCAN_RESOLUTION >= 32 * (2 * len(symbol.coeffs) - 1)
        touched = not float(np.max(mods)) < 1.0 - _CONTACT_TOL
        # the whole circle is contact in effect (e.g. a rotation written as a polynomial)
        full_circle = touched and float(np.max(mods) - np.min(mods)) <= 1e-12
        if full_circle:
            exhaustive, min_deriv = True, float(np.min(dmod))
        elif touched:
            # bracket local maxima of |phi|^2 through sign changes of its angular slope
            slope = 2.0 * np.real(np.conj(phi) * 1j * zeta * dphi)
            lo = theta[(slope > 0) & (np.roll(slope, -1) <= 0)]
            peaks = _bisect_modulus_extrema(symbol, lo, lo + TWO_PI / _SCAN_RESOLUTION)
            angles = peaks[1.0 - np.abs(symbol.value(np.exp(1j * peaks))) <= _CONTACT_TOL] % TWO_PI
            points = [BoundaryPoint(a) for a in angles.tolist()]
            if points:
                min_deriv = min(np.abs(symbol.deriv(np.exp(1j * angles))).tolist())
            else:
                exhaustive = False  # the grid touched the contact band, no bracket resolved it
    if min_deriv is not None:
        verdict = RankVerdict.PASS if min_deriv > DERIV_TOL else RankVerdict.FAIL
    else:
        verdict = RankVerdict.INCONCLUSIVE if touched else RankVerdict.VACUOUS
    return RankReport(full_circle=full_circle, points=tuple(points), exhaustive=exhaustive,
                      min_deriv_modulus=min_deriv, verdict=verdict, deriv_modulus=dmod)


# --- bound pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class BoundCheckRow:
    """Per-function outcome of the composition bound check.

    ``ratio`` is ||C_phi f||^2 / (sup^q ||f||^2), whose refinement move is
    ``comp_norm_sq.rel_error_estimate`` (the denominator is exact);
    ``eq_intermediate_sq`` the composed-kernel double integral (the quantity
    the proof's middle step bounds); ``violations`` counts quadrature node
    pairs where the pointwise majorization by sup^q failed beyond round-off.
    """

    label: str
    comp_norm_sq: NormResult
    eq_intermediate_sq: NormResult
    ratio: float
    violations: int
    nodes_checked: int


@dataclass(frozen=True)
class BoundCheckReport:
    rows: tuple
    sup: SupEstimate
    sup_power_q: float


def _kernel_sq_factors(u):
    """|1 - u_i conj(u_j)|^2 as the product of [1, x, y, |u|^2]_i and [1, -2x, -2y, |u|^2]_j."""
    one, x, y, s = np.ones(len(u)), u.real, u.imag, abs_sq(u)
    return np.stack([one, x, y, s], axis=1), np.stack([one, -2.0 * x, -2.0 * y, s])


def _composed_pair_sums(value_fns, symbol, sigma, q, n_rad, n_ang, sup_q=None):
    """One rule-level pass of the composed pairwise integral for a family.

    Computes, for every F = f(phi) with f in the family,
    iint |F(z)-F(w)|^2 / |1 - conj(phi(w)) phi(z)|^q dA_sigma^2 as a direct
    node-pair sum in Gram form.  V holds F minus its value at the first node,
    which |F_i - F_j|^2 does not see (a constant gives exactly 0 and an F
    close to a constant does not cancel).  With D the reciprocal kernel power,
    zero on the diagonal (where the integrand vanishes), one product
    P = D @ (w * [1, |V|^2, Re V, Im V]) serves every member:

        sum_j D_ij w_j |V_i - V_j|^2 = |V_i|^2 P_i0 + P_i,|V|^2 - 2 Re(conj(V_i) P_i,V).

    phi = c z^m (a Blaschke product with every zero at the origin) and a
    Mobius map c (a - z)/(1 - conj(a) z) take the rotation-invariant route,
    on the kernel of z^m (c drops out; m = 1 for a Mobius map).  A Mobius
    map's reciprocal kernel power is that one times g_i g_j, with
    g = (|1 - conj(a) z|^2 / (1 - |a|^2))^(q/2) (g = 1 for c z^m), so
    P = g * route(g * rhs) with no cancelling 1 - |phi|^2.  Every other
    symbol takes the general route, the strict upper triangle in row tiles,
    on u = phi.  With ``sup_q`` given, ``_majorization_violations`` then
    counts each member's violating node pairs on u = z^m for c z^m and on
    u = phi otherwise.  Returns (values, violations, pairs); violations is
    None when sup_q is None.
    """
    rule = build_disc_rule(sigma, n_rad, n_ang)
    nodes, weights = rule.nodes, rule.weights
    phi_vals = np.asarray(symbol.value(nodes), dtype=complex)
    total, count = len(nodes), len(value_fns)
    f_vals = np.empty((total, count), dtype=complex)
    for k, value_fn in enumerate(value_fns):
        f_vals[:, k] = value_fn(phi_vals)
    if not np.all(np.isfinite(f_vals)):
        raise ConvergenceError("composed integrand is non-finite at a quadrature node")
    v = f_vals - f_vals[0]
    v_sq = abs_sq(v)
    rhs = weights[:, None] * np.hstack([np.ones((total, 1)), v_sq, v.real, v.imag])
    zeros = symbol.zeros if isinstance(symbol, Blaschke) else ()
    if len(zeros) == 1 or (zeros and not any(zeros)):
        # c z^m (a = 0, so g = 1) or a Mobius map (m = 1, its count on phi)
        a, power = zeros[0], len(zeros)
        g = powq(abs_sq(1.0 - np.conj(a) * nodes) / ((1.0 - abs(a)) * (1.0 + abs(a))), q)[:, None]
        spectrum = _kernel_spectrum(sigma, sigma, q, n_rad, n_ang, power)[0]
        p, scale = g * _rotation_invariant_products(spectrum, g * rhs), 1.0
        u = phi_vals if a else nodes**power
    else:
        u = phi_vals
        p, scale = _upper_triangle_products(u, q, rhs), 2.0
    cross = v.real * p[:, 1 + count : 1 + 2 * count] + v.imag * p[:, 1 + 2 * count :]
    term = v_sq * p[:, :1] + p[:, 1 : 1 + count] - 2.0 * cross
    values = [scale * float(x) for x in np.sum(weights[:, None] * term, axis=0)]
    violations = None if sup_q is None else _majorization_violations(nodes, u, f_vals, q, sup_q)
    return values, violations, total**2


def _upper_triangle_products(u, q, rhs):
    """P over the strict upper triangle (the integrand is symmetric), in row tiles.

    Each tile of 16 rows takes its squared kernel from one rank-4 product, then
    powq, the reciprocal and the zeroed corner (the diagonal and the part below
    it), all in one workspace reused across tiles, and its rows of P from one
    more product; these products round alike at 1 and 2 BLAS threads.
    """
    total, p = len(u), np.empty(rhs.shape)
    left, right = _kernel_sq_factors(u)
    space = np.empty(3 * _TILE * total)
    for lo in range(0, total, _TILE):
        hi, cols = min(lo + _TILE, total), total - lo
        rows = hi - lo
        tile = np.matmul(left[lo:hi], right[:, lo:], out=space[: rows * cols].reshape(rows, cols))
        work = space[rows * cols : 3 * rows * cols].reshape(2, rows, cols)
        np.divide(1.0, powq(tile, q, work), out=tile)
        tile[:, :rows][_LOWER[:rows, :rows]] = 0.0
        np.matmul(tile, rhs[lo:], out=p[lo:hi])
    return p


def _rotation_invariant_products(spectrum, rhs):
    """P for u = z^m, whose kernel depends on the radii and the angle difference only.

    D between nodes (i, a) and (j, b) is the kernel of the rings r_i, r_j at the
    angle b - a, even in it, so P[(i, a)] = sum_{j,d} D[(i, 0), (j, d)]
    rhs[(j, (a + d) mod M)] is a circular correlation along the angle.  A real
    FFT diagonalizes it: the kernel's spectrum is real (``spectrum``, from
    ``_kernel_spectrum``, whose self pairs add w_i |V_i - V_i|^2 = 0), and each
    frequency takes one real product of it with the spectrum of rhs (viewed as
    floats); one inverse FFT ends the pass.
    """
    n_rad, (total, cols) = spectrum.shape[1], rhs.shape
    n_ang = total // n_rad
    rhs_hat = np.fft.rfft(rhs.reshape(n_rad, n_ang, cols), axis=1).transpose(1, 0, 2)
    rhs_hat = np.ascontiguousarray(rhs_hat).view(float)  # [k, j, (c, re/im)]
    p = np.fft.irfft(np.matmul(spectrum, rhs_hat).view(complex), n=n_ang, axis=0)  # [a, i, c]
    return p.transpose(1, 0, 2).reshape(total, cols)


def _majorization_violations(z, u, f_vals, q, sup_q):
    """Ordered node pairs where plain-kernel integrand <= sup_q * composed
    integrand fails beyond VIOLATION_REL_TOL, for every member.

    Where F_i != F_j, f cancels and the test reads |k_ij|^q > sup_q (1 +
    VIOLATION_REL_TOL) for k(z, w) = (1 - u(z) conj(u(w))) / (1 - z conj(w)),
    the de Branges-Rovnyak kernel of the self-map.  It is positive
    semidefinite, so |k_ij|^2 <= k_ii k_jj: a violating pair has a node whose
    diagonal k_ii^q is above the bound.  Only those rows are tested, in tiles,
    against every column with the exact per-member predicate (a candidate
    column only past the row, so each unordered pair is met once); with a
    correct supremum there are none.  u holds the values the route's kernel
    uses, so a rotation's diagonal is exactly 1.  Near the circle 1 - |u|^2
    cancels (6e-10 relative at a Mobius |a| = 0.999 on 48x192); the count
    stays exact while the largest |k_ij|^q stays further below the largest
    k_ii^q than that, as it does by 1.8e-3 relative or more on the tested rules.
    """
    k_diag = (1.0 - abs_sq(u)) / (1.0 - abs_sq(z))
    candidate = powq(k_diag * k_diag, q) > sup_q * (1.0 + VIOLATION_REL_TOL) * (1.0 - _DIAG_SLACK)
    rows, cols = np.flatnonzero(candidate), np.arange(len(z))
    comp_left, comp_right = _kernel_sq_factors(u)
    plain_left, plain_right = _kernel_sq_factors(z)
    violations = np.zeros(f_vals.shape[1], dtype=int)
    for s in range(0, len(rows), _TILE):
        i = rows[s : s + _TILE]
        met = ~candidate | (cols > i[:, None])
        comp = powq(comp_left[i] @ comp_right, q)
        plain = powq(plain_left[i] @ plain_right, q)
        for k, f_col in enumerate(f_vals.T):
            num = abs_sq(f_col[i, None] - f_col)
            bad = num / plain > sup_q * (num / comp) * (1.0 + VIOLATION_REL_TOL)
            violations[k] += 2 * np.count_nonzero(bad & met)
    return violations.tolist()


def bound_check(
    family,
    symbol: Blaschke | Polynomial,
    sigma: float,
    beta: float,
    settings: QuadratureSettings = QuadratureSettings(),
    sup: SupEstimate | None = None,
    labels=None,
) -> BoundCheckReport:
    """Verify the composition bound chain for a family of test functions.

    For each f the ratio ||C_phi f||^2 / (sup^q ||f||^2) is computed with the
    numerator by quadrature on the chain-rule derivative and the denominator
    by the exact coefficient formula, together with the composed-kernel
    double integral and a nodewise check of the majorization step; the
    double integral runs once per rule for the whole family.  Requires a
    Bounded supremum verdict (the chain is vacuous otherwise).
    """
    params = validate_main_theorem_params(sigma, beta)
    p = params.p_dirichlet
    q = params.q_exponent
    if sup is None:
        sup = estimate_sup(symbol)
    if sup.verdict is not Verdict.BOUNDED:
        raise ParamError(
            f"bound check requires a Bounded kernel supremum, got {sup.verdict.value}"
        )
    sup_q = sup.value**q
    if labels is None:
        labels = [f"f{i}" for i in range(len(family))]
    # the composed integral is a reported diagnostic, not a criterion; it runs
    # on a two-level ladder ending at the base rule so the top level doubles
    # as the node set for the pointwise majorization check
    coarse_rad = max(settings.radial_count // settings.refinement_factor, 4)
    coarse_ang = max(settings.angular_count // settings.refinement_factor, 8)
    norms = []
    for label, f in zip(labels, family):
        comp_norm = dirichlet_norm_sq_quad(ComposedFunction(f, symbol), p, settings)
        f_norm = dirichlet_norm_sq_coeff(f, p)
        if f_norm.value_sq <= 0.0:
            raise ParamError(f"family member {label} is constant; ratio undefined")
        norms.append((comp_norm, comp_norm.value_sq / (sup_q * f_norm.value_sq)))
    value_fns = [f.value for f in family]
    eq_coarse, _, _ = _composed_pair_sums(value_fns, symbol, sigma, q, coarse_rad, coarse_ang)
    eq_base, violations, checked = _composed_pair_sums(
        value_fns, symbol, sigma, q,
        settings.radial_count, settings.angular_count, sup_q=sup_q,
    )
    rows = []
    for label, (comp_norm, ratio), coarse, base, bad in zip(
        labels, norms, eq_coarse, eq_base, violations
    ):
        trace = ((coarse_rad, coarse_ang, coarse),
                 (settings.radial_count, settings.angular_count, base))
        eq6 = NormResult(value_sq=max(base, 0.0), rel_error_estimate=_rel_change(base, coarse),
                         trace=trace)
        rows.append(BoundCheckRow(label=label, comp_norm_sq=comp_norm, eq_intermediate_sq=eq6,
                                  ratio=ratio, violations=bad, nodes_checked=checked))
    return BoundCheckReport(rows=tuple(rows), sup=sup, sup_power_q=sup_q)
