"""Independent oracles and frozen reference values for the test suite.

The pairwise double integral of a monomial against the difference kernel has
a rotation-invariant expansion: writing q = 2*(beta+2), s = q/2,
c_k = Gamma(k+s)/(Gamma(s) k!) for the binomial series of |1-conj(w) z|^{-q}
and m_s(j) = (s+1) B(j+1, s+1) for the weighted moments, term-by-term
integration gives

    D(z^n) = sum_k c_k^2 [m_sigma(k+n) m_tau(k) + m_sigma(k) m_tau(k+n)]
             - 2 sum_k c_k c_{k+n} m_sigma(k+n) m_tau(k+n).

The rearrangement needs absolute convergence, which holds strictly inside
the parameter window (beta < (sigma+tau)/2) but FAILS at the upper endpoint,
where the three pieces diverge individually and cancel to a spurious zero.
The oracle therefore refuses endpoint parameters.  The algebraic tail decays
like k^-(p+1) with p = sigma+tau-2*beta, so a partial sum to K misses
sum_j c_j K^-(p+j); Richardson extrapolation eliminates those terms one
exponent at a time.

This route shares nothing with the library's quadrature: no disc rules, no
FFTs, no node sets.

The module also holds helpers that only the tests use: pointwise kernel
evaluation, the closed-form suprema, the symbol spec writer, the equivalence
ratio of one function, the row-by-row Neville loop that the vectorised
extrapolation is checked against, the scalar bisection of one bracket at a
time that the rank check's batched one is checked against, and reference
evaluations of the inner symbols (their closed forms and the factor-by-factor
Blaschke product), and the Taylor coefficients of a disc automorphism's powers.
"""

from math import comb

import numpy as np
from scipy.special import betaln, gammaln

from discop.errors import DiscopError, ParamError
from discop.kernels import MIN_DENOMINATOR, _sample_disc
from discop.norms import (
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
)
from discop.quadrature import QuadratureSettings
from discop.series import TruncatedPowerSeries
from discop.symbols import BoundaryPoint, Polynomial

# D(z^n) at sigma = tau = 1, beta = 0.5, from the series oracle above
# (kmax = 2^21, 4 Richardson levels; stable to ~1e-12 across depths)
PAIRWISE_MONOMIAL_SIGMA1_BETA05 = {
    1: 0.6209648842941246,
    2: 0.8279531790588558,
    3: 0.932646728772062,
    4: 0.9962853059125903,
    5: 1.039235148956212,
    6: 1.0702557093133762,
    7: 1.0937526705538159,
    8: 1.1121903227683452,
}

#: brute-force tensor quadrature of D(z) at 4x the default resolution
#: (128 radial, 512 angular); agrees with the series oracle to 1.1e-5
V1_QUAD_4X = 0.6209581547700198

#: the series-oracle value of D(z) at sigma = tau = 1, beta = 0.5
V1_SERIES = 0.6209648842941246


def pairwise_series_oracle(n, sigma, tau, beta, kmax=2**21, levels=4):
    """Series-oracle value of D(z^n); valid strictly inside the window."""
    p = sigma + tau - 2.0 * beta
    if p <= 0:
        raise ValueError("series oracle is invalid at or beyond the window endpoint")
    q = 2.0 * (beta + 2.0)
    s = q / 2.0

    def terms(lo, hi):
        k = np.arange(lo, hi, dtype=float)
        logc = gammaln(k + s) - gammaln(s) - gammaln(k + 1.0)
        logc_n = gammaln(k + n + s) - gammaln(s) - gammaln(k + n + 1.0)
        lms_k = np.log(sigma + 1.0) + betaln(k + 1.0, sigma + 1.0)
        lms_kn = np.log(sigma + 1.0) + betaln(k + n + 1.0, sigma + 1.0)
        lmt_k = np.log(tau + 1.0) + betaln(k + 1.0, tau + 1.0)
        lmt_kn = np.log(tau + 1.0) + betaln(k + n + 1.0, tau + 1.0)
        plus = np.exp(2 * logc + lms_kn + lmt_k) + np.exp(2 * logc + lms_k + lmt_kn)
        minus = 2.0 * np.exp(logc + logc_n + lms_kn + lmt_kn)
        return plus - minus

    # partial sums at K = kmax/2^(levels-1), ..., kmax, each extending the last
    # in blocks of at most 2^20 terms
    counts = [kmax >> i for i in range(levels)][::-1]
    vals, total, lo = [], 0.0, 0
    for count in counts:
        for start in range(lo, count, 2**20):
            total += float(np.sum(terms(start, min(start + 2**20, count))))
        vals.append(total)
        lo = count
    # the tail is sum_j c_j K^-(p+j): Richardson eliminates p, p+1, ... in turn
    tab = list(vals)
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            ratio = (counts[i] / counts[i - 1]) ** (p + j - 1)
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) / (ratio - 1.0)
    return tab[-1]


def disc_moment(sigma, m):
    """int_D |z|^{2m} dA_sigma = (sigma+1) B(m+1, sigma+1)."""
    return (sigma + 1.0) * float(np.exp(betaln(m + 1.0, sigma + 1.0)))


def dirichlet_monomial_sq(n, p):
    """||z^n||^2 in the p-weighted space: n^2 B(n, p+1)."""
    return n * n * float(np.exp(betaln(n, p + 1.0)))


# --- test-only helpers over the library API -----------------------------------

class SingularKernelError(DiscopError):
    """Kernel evaluation requested too close to the boundary diagonal."""

    code = "E_SINGULAR"


def eval_kernel(symbol, z, w, min_denominator=MIN_DENOMINATOR):
    """k(z, w) for points of the closed bidisc off the boundary diagonal.

    An unverified polynomial symbol raises SymbolError.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    den = 1.0 - z * np.conj(w)
    if np.any(np.abs(den) <= min_denominator):
        raise SingularKernelError(
            "kernel evaluation too close to the boundary diagonal (|1 - z conj(w)| underflow)"
        )
    out = (1.0 - symbol.value(z) * np.conj(symbol.value(w))) / den
    return out if out.shape else complex(out)


def closed_form_sup(symbol):
    """Exact sup |k| for the inner symbols with a closed form, read from the zeros.

    One zero a (a disc automorphism; a = 0 for the identity and rotations)
    gives (1+|a|)/(1-|a|); k zeros at the origin (z^k up to a unit) factor the
    kernel into a geometric sum of k terms with supremum k.
    """
    zeros = getattr(symbol, "zeros", ())
    if len(zeros) == 1:
        return (1.0 + abs(zeros[0])) / (1.0 - abs(zeros[0]))
    if zeros and not any(zeros):
        return float(len(zeros))
    raise ParamError(f"no closed-form supremum for {symbol.describe()}")


def pointwise_kernel_identity_check(symbol, sample_count=10000, seed=0):
    """Max deviation of |1 - phi(z) conj(phi(w))| from |k| |1 - z conj(w)|.

    The identity is algebraically exact; the returned maximum over random
    interior pairs is pure round-off.
    """
    rng = np.random.default_rng(seed)
    z = _sample_disc(rng, sample_count)
    w = _sample_disc(rng, sample_count)
    den = 1.0 - z * np.conj(w)
    num = 1.0 - symbol.value(z) * np.conj(symbol.value(w))
    k = num / den
    return float(np.max(np.abs(np.abs(num) - np.abs(k) * np.abs(den))))


def equivalence_ratio(f, params, settings=QuadratureSettings()):
    """Ratio of the pairwise functional to the squared Dirichlet-type norm.

    The denominator uses the exact coefficient route whenever f is a series
    (removing one source of quadrature error from the ratio); both sides are
    homogeneous of degree 2, so the ratio is scale-invariant.
    """
    if isinstance(f, TruncatedPowerSeries):
        denominator = dirichlet_norm_sq_coeff(f, params.p_dirichlet)
    else:
        denominator = dirichlet_norm_sq_quad(f, params.p_dirichlet)
    if denominator.value_sq <= 0.0:
        raise ParamError("equivalence ratio undefined for constant functions")
    return double_integral_functional(f, params, settings).value_sq / denominator.value_sq


def symbol_to_spec(symbol):
    """A config form of ``symbol`` for symbol_from_spec (complex numbers as
    {'re','im'} objects), read from a polynomial's coefficients or from an
    inner symbol's zeros and unit, in the narrowest spelling that fits."""

    def c2d(c):
        return {"re": c.real, "im": c.imag}

    if isinstance(symbol, Polynomial):
        return {"type": "poly", "coeffs": [c2d(c) for c in symbol.coeffs]}
    zeros, unit = symbol.zeros, symbol.unit
    angle = float(np.angle(unit))
    if zeros == (0,):
        return {"type": "identity"} if unit == 1 else {"type": "rotation", "angle": angle}
    if not any(zeros) and unit == 1:
        return {"type": "monomial", "k": len(zeros)}
    if len(zeros) == 1:
        return {"type": "mobius", "a": c2d(zeros[0]), "post_rotation": angle}
    # the blaschke spelling's unit carries the sign of each factor -z at the origin
    rotation = float(np.angle(unit * (-1) ** zeros.count(0)))
    return {"type": "blaschke", "zeros": [c2d(a) for a in zeros], "post_rotation": rotation}


# --- reference evaluations of the inner symbols -------------------------------
# Each returns (value, derivative) at the points z: the closed forms of the
# identity, rotations, disc automorphisms and z^k, and the finite Blaschke
# product factor by factor with its O(k^2) product-rule derivative.


def identity_reference(z):
    z = np.asarray(z, dtype=complex)
    return z, np.ones_like(z)


def rotation_reference(angle, z):
    z = np.asarray(z, dtype=complex)
    return np.exp(1j * angle) * z, np.full_like(z, np.exp(1j * angle))


def mobius_reference(a, post_rotation, z):
    z = np.asarray(z, dtype=complex)
    unit = np.exp(1j * post_rotation)
    return (unit * (a - z) / (1.0 - np.conj(a) * z),
            unit * -(1.0 - abs(a)) * (1.0 + abs(a)) / (1.0 - np.conj(a) * z) ** 2)


def mobius_power_coeffs(a, n, order):
    """Taylor coefficients of ((a - z)/(1 - conj(a) z))^n, n >= 1, up to z^order.

    The binomial series of (a - z)^n and (1 - conj(a) z)^(-n), multiplied
    term by term: no series products and no sampling.  For a dyadic real a
    and small n every term is exact in floating point.
    """
    b = complex(a).conjugate()
    return np.array([
        sum(comb(n, j) * a ** (n - j) * (-1) ** j * comb(n + k - j - 1, k - j) * b ** (k - j)
            for j in range(min(n, k) + 1))
        for k in range(order + 1)
    ], dtype=complex)


def monomial_reference(k, z):
    z = np.asarray(z, dtype=complex)
    return z**k, k * z ** (k - 1)


def blaschke_reference(zeros, post_rotation, z):
    z = np.asarray(z, dtype=complex)
    value = np.full_like(z, np.exp(1j * post_rotation))
    for a in zeros:
        value = value * (a - z) / (1.0 - np.conj(a) * z)
    # product rule: each factor's derivative (|a|^2 - 1)/(1 - conj(a) z)^2 times the others;
    # the numerator as -(1 - |a|)(1 + |a|), which does not cancel near the circle
    factors = [(a - z) / (1.0 - np.conj(a) * z) for a in zeros]
    deriv = np.zeros_like(z)
    for j, a in enumerate(zeros):
        dj = -(1.0 - abs(a)) * (1.0 + abs(a)) / (1.0 - np.conj(a) * z) ** 2
        rest = np.full_like(z, 1.0 + 0.0j)
        for m, f in enumerate(factors):
            if m != j:
                rest = rest * f
        deriv = deriv + dj * rest
    return value, np.exp(1j * post_rotation) * deriv


def neville_to_zero_scalar(hs, table):
    """Row-by-row Neville extrapolation to h = 0: the reference for the vectorised one."""
    tab = [np.asarray(row, dtype=float) for row in table]
    for m in range(1, len(tab)):
        for i in range(len(tab) - 1, m - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * hs[i] / (hs[i - m] - hs[i])
    return tab[-1], np.abs(tab[-1] - tab[-2])


def bisect_modulus_extremum_scalar(symbol, lo, hi):
    """Bisect d|phi|^2/dtheta to its root in one scan bracket (slope > 0 at lo,
    <= 0 at hi), one scalar step at a time.  Returns (angle, steps taken)."""
    for step in range(1, 65):
        mid = 0.5 * (lo + hi)
        zeta = np.exp(1j * mid)
        fm = float(2.0 * np.real(np.conj(symbol.value(zeta)) * 1j * zeta * symbol.deriv(zeta)))
        if fm == 0.0 or hi - lo < 1e-13:
            return mid, step
        lo, hi = (mid, hi) if fm > 0 else (lo, mid)
    return 0.5 * (lo + hi), 64


def polynomial_contacts_scalar(symbol, resolution=4096, contact_tol=1e-6):
    """Contact angles, min |phi'| over them and each bracket's bisection steps
    for a polynomial symbol touching the circle at isolated points: the rank
    scan with one scalar bisection per bracket."""
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    zeta = np.exp(1j * theta)
    phi, dphi = symbol.value(zeta), symbol.deriv(zeta)
    slope = 2.0 * np.real(np.conj(phi) * 1j * zeta * dphi)
    angles, steps = [], []
    for i in np.flatnonzero((slope > 0) & (np.roll(slope, -1) <= 0)):
        peak, taken = bisect_modulus_extremum_scalar(
            symbol, theta[i], theta[i] + 2.0 * np.pi / resolution)
        steps.append(taken)
        if 1.0 - float(np.abs(symbol.value(np.exp(1j * peak)))) <= contact_tol:
            angles.append(BoundaryPoint(peak).angle)
    min_deriv = min(float(np.abs(symbol.deriv(BoundaryPoint(a).to_complex()))) for a in angles)
    return angles, min_deriv, steps
