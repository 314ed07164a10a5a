import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import discop
from discop.config import _quadrature_bytes
from discop.errors import ConvergenceError, ParamError
from discop.norms import (
    _kernel_spectrum,
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
    pairwise_difference_integral,
    validate_main_theorem_params,
    WeightParams,
)
from discop.operators import _composed_pair_sums
from discop.quadrature import QuadratureSettings, build_disc_rule
from discop.series import TruncatedPowerSeries
from discop.symbols import Identity
from oracles import (
    PAIRWISE_MONOMIAL_SIGMA1_BETA05,
    V1_QUAD_4X,
    V1_SERIES,
    dirichlet_monomial_sq,
    equivalence_ratio,
    mobius_power_coeffs,
    pairwise_series_oracle,
)

# --- parameter windows -------------------------------------------------------


def test_validate_params_accepts_window_point():
    p = WeightParams(1.0, 1.0, 0.5)
    assert p.p_dirichlet == pytest.approx(1.0)
    assert p.q_exponent == pytest.approx(5.0)


def test_validate_params_rejects_beta_above_mean():
    with pytest.raises(ParamError, match="beta"):
        WeightParams(1.0, 1.0, 2.0)


def test_validate_params_near_lower_edge():
    p = WeightParams(0.0, 0.0, -0.9)
    assert p.p_dirichlet == pytest.approx(1.8)


def test_validate_params_rejects_weight_endpoint():
    with pytest.raises(ParamError, match="sigma"):
        WeightParams(-1.0, 0.0, -0.6)
    with pytest.raises(ParamError, match="tau"):
        WeightParams(0.0, -1.0, -0.6)


def test_validate_main_window_point():
    p = validate_main_theorem_params(1.0, 0.5)
    assert p.tau == p.sigma == 1.0
    assert p.p_dirichlet == pytest.approx(1.0)


def test_validate_main_rejects_equality():
    with pytest.raises(ParamError, match="strictly"):
        validate_main_theorem_params(1.0, 1.0)


def test_validate_main_negative_beta_ok():
    p = validate_main_theorem_params(0.5, -0.5)
    assert p.p_dirichlet == pytest.approx(2.0)


def test_validate_main_requires_positive_sigma():
    with pytest.raises(ParamError, match="sigma"):
        validate_main_theorem_params(0.0, -0.5)


# --- Dirichlet-type norms ----------------------------------------------------


def test_coeff_norm_constant_is_zero():
    assert dirichlet_norm_sq_coeff(TruncatedPowerSeries([3.0 + 1j]), 1.0).value_sq == 0.0


def test_coeff_norm_linear():
    res = dirichlet_norm_sq_coeff(TruncatedPowerSeries.monomial(1), 1.0)
    assert res.value_sq == pytest.approx(0.5)
    assert res.rel_error_estimate == 0.0


def test_coeff_norm_square():
    res = dirichlet_norm_sq_coeff(TruncatedPowerSeries.monomial(2), 1.0)
    assert res.value_sq == pytest.approx(2.0 / 3.0)


def test_coeff_norm_rejects_negative_weight():
    with pytest.raises(ParamError):
        dirichlet_norm_sq_coeff(TruncatedPowerSeries.monomial(1), -0.5)


def test_quad_norm_linear():
    res = dirichlet_norm_sq_quad(TruncatedPowerSeries.monomial(1), 1.0)
    assert res.value_sq == pytest.approx(0.5, abs=1e-10)
    assert res.trace is not None


def test_quad_norm_z8_weight_two():
    res = dirichlet_norm_sq_quad(TruncatedPowerSeries.monomial(8), 2.0)
    assert res.value_sq == pytest.approx(dirichlet_monomial_sq(8, 2.0), rel=1e-12)


def test_quad_norm_z8_weight_one_closed_form():
    res = dirichlet_norm_sq_quad(TruncatedPowerSeries.monomial(8), 1.0)
    assert res.value_sq == pytest.approx(64.0 / 72.0, rel=1e-8)


def test_weight_zero_admitted_for_diagnostics():
    s = TruncatedPowerSeries([0.0, 1.0, 0.5])
    coeff = dirichlet_norm_sq_coeff(s, 0.0).value_sq
    quad = dirichlet_norm_sq_quad(s, 0.0).value_sq
    assert coeff > 0
    assert quad == pytest.approx(coeff, rel=1e-10)


def test_quad_norm_constant():
    res = dirichlet_norm_sq_quad(TruncatedPowerSeries([2.0]), 1.0)
    assert res.value_sq <= 1e-14


@pytest.mark.parametrize("scale", [2.4156809098717717e-159, 1e-160, 1e150])
def test_quad_norm_refines_like_unit_multiple(scale):
    # |f'|^2 of the tiny scales is subnormal; the refinement must still move
    # as it does for the unit multiple, and the value is |scale|^2 times its
    # value up to the spacing of the subnormals
    unit = dirichlet_norm_sq_quad(TruncatedPowerSeries([0.0, 1.0, 0.3j]), 1.0)
    scaled = dirichlet_norm_sq_quad(TruncatedPowerSeries([0.0, scale, 0.3j * scale]), 1.0)
    assert scaled.rel_error_estimate == pytest.approx(unit.rel_error_estimate, abs=1e-12)
    assert len(scaled.trace) == len(unit.trace)
    want = scale**2 * unit.value_sq
    assert scaled.value_sq == pytest.approx(want, rel=max(1e-12, 4 * 5e-324 / want))


@pytest.mark.parametrize("scale", [1e-160, 2.4156809098717717e-159, 1.0])
def test_norm_routes_agree_for_tiny_coefficients(scale):
    # the tiny values are subnormal; both routes square scaled values and
    # round once, and the unit multiple keeps its bits
    s = TruncatedPowerSeries([0.0, scale, 0.3j * scale])
    coeff = dirichlet_norm_sq_coeff(s, 1.0).value_sq
    quad = dirichlet_norm_sq_quad(s, 1.0).value_sq
    assert coeff == pytest.approx(quad, rel=1e-12)
    if scale == 1.0:
        assert coeff.hex() == quad.hex() == "0x1.1eb851eb851ecp-1"


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=17,
    )
)
def test_route_agreement_on_polynomials(p, coeffs):
    s = TruncatedPowerSeries(coeffs)
    coeff = dirichlet_norm_sq_coeff(s, p).value_sq
    quad = dirichlet_norm_sq_quad(s, p).value_sq
    assert quad == pytest.approx(coeff, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("theta", [np.pi / 7, 1.0, 2.5])
def test_rotation_invariance(theta):
    s = TruncatedPowerSeries([0.3, 1.0, -0.5j, 0.25])
    rotated = TruncatedPowerSeries(
        [c * np.exp(1j * n * theta) for n, c in enumerate(s.coeffs)]
    )
    for p in (0.5, 1.0, 2.0):
        base = dirichlet_norm_sq_coeff(s, p).value_sq
        assert dirichlet_norm_sq_coeff(rotated, p).value_sq == pytest.approx(base, rel=1e-12)
        assert dirichlet_norm_sq_quad(rotated, p).value_sq == pytest.approx(
            dirichlet_norm_sq_quad(s, p).value_sq, rel=1e-12
        )


@given(
    scale=st.complex_numbers(
        min_magnitude=0.01, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
)
def test_homogeneity(scale):
    s = TruncatedPowerSeries([0.0, 1.0, 0.5, -0.25j])
    base_c = dirichlet_norm_sq_coeff(s, 1.0).value_sq
    base_q = dirichlet_norm_sq_quad(s, 1.0).value_sq
    scaled = TruncatedPowerSeries([scale * c for c in s.coeffs])
    assert dirichlet_norm_sq_coeff(scaled, 1.0).value_sq == pytest.approx(
        abs(scale) ** 2 * base_c, rel=1e-12
    )
    assert dirichlet_norm_sq_quad(scaled, 1.0).value_sq == pytest.approx(
        abs(scale) ** 2 * base_q, rel=1e-12
    )


# --- bidisc Bergman norm -----------------------------------------------------


def test_bergman_difference():
    # iint |z - w|^2 dA_1 dA_1 = 2/3 at q = 0, through the brute-force pair
    # engine (identity symbol) and the spectral pairwise integral alike
    (pair_sum,), _, _ = _composed_pair_sums([lambda z: z], Identity(), 1.0, 0.0, 8, 16)
    assert pair_sum == pytest.approx(2.0 / 3.0, rel=1e-12)
    spectral = pairwise_difference_integral(TruncatedPowerSeries.monomial(1), 1.0, 1.0, 0.0, 8, 16)
    assert spectral == pytest.approx(2.0 / 3.0, rel=1e-12)


# --- pairwise double integral ------------------------------------------------

_QUINTIC = TruncatedPowerSeries([0.7 - 0.2j, 1.0, -0.5j, 0.0, 0.25, 0.3])


class _Unevaluated(TruncatedPowerSeries):
    """A series whose nodal values fail the test: the pairwise route reads coefficients."""

    def value(self, z):
        pytest.fail("f evaluated at quadrature nodes")


_UNEVALUATED = _Unevaluated(_QUINTIC.coeffs)


def _direct_pair_sum(f, sigma, tau, q, n_rad, n_ang):
    """Every node pair of both rules, with the complex kernel |1 - conj(w) z|^-q."""
    rule_z = build_disc_rule(sigma, n_rad, n_ang)
    rule_w = build_disc_rule(tau, n_rad, n_ang)
    z, w = rule_z.nodes[:, None], rule_w.nodes[None, :]
    diff_sq = np.abs(f.value(z) - f.value(w)) ** 2
    kern = np.abs(1.0 - np.conj(w) * z) ** -q
    return float(np.sum(rule_z.weights[:, None] * rule_w.weights[None, :] * diff_sq * kern))


@pytest.mark.parametrize("n_rad, n_ang", [(6, 16), (5, 7)])
@pytest.mark.parametrize("q", [0.0, 5.0, 5.8])
@pytest.mark.parametrize("sigma, tau", [(1.0, 1.0), (1.5, 0.6)])
def test_pairwise_matches_direct_pair_sum(n_rad, n_ang, q, sigma, tau):
    got = pairwise_difference_integral(_QUINTIC, sigma, tau, q, n_rad, n_ang)
    want = _direct_pair_sum(_QUINTIC, sigma, tau, q, n_rad, n_ang)
    assert got == pytest.approx(want, rel=1e-12)
    flat = pairwise_difference_integral(
        TruncatedPowerSeries([2.5 - 1j]), sigma, tau, q, n_rad, n_ang
    )
    assert flat == 0.0


@pytest.mark.parametrize("n_rad", [15, 17, 33])
@pytest.mark.parametrize("sigma, tau", [(1.0, 1.0), (1.5, 0.6)])
def test_pairwise_matches_direct_pair_sum_across_multiples_of_16_radii(n_rad, sigma, tau):
    # the radii once went through the products 16 at a time; at q = 5 the expanded square's
    # cancellation on the outer radius pairs stays below 1e-12 (at q = 5.8 and 33 radii it
    # reaches 1.3e-11 against a long-double direct sum, 5.9e-12 with the 16-radius blocks)
    got = pairwise_difference_integral(_QUINTIC, sigma, tau, 5.0, n_rad, 16)
    want = _direct_pair_sum(_QUINTIC, sigma, tau, 5.0, n_rad, 16)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("degree, n_rad, n_ang", [(20, 6, 16), (9, 5, 7)])
@pytest.mark.parametrize("sigma, tau", [(1.0, 1.0), (1.5, 0.6)])
def test_pairwise_folds_degrees_past_the_angle_count(degree, n_rad, n_ang, sigma, tau):
    # degrees n >= m alias onto mode n mod m, as the DFT of the nodal values folds them
    coeffs = [0.3j, *(np.cos(n) + 1j * np.sin(2 * n) for n in range(1, degree + 1))]
    f = TruncatedPowerSeries(coeffs)
    got = pairwise_difference_integral(f, sigma, tau, 5.8, n_rad, n_ang)
    assert got == pytest.approx(_direct_pair_sum(f, sigma, tau, 5.8, n_rad, n_ang), rel=1e-12)


@pytest.mark.parametrize("bad", [1e308, float("nan")])
def test_pairwise_rejects_non_finite_ring_spectrum(bad):
    with pytest.raises(ConvergenceError, match="non-finite"):
        pairwise_difference_integral(TruncatedPowerSeries([0.0, 1.0, bad]), 1.0, 1.0, 5.0, 8, 16)


def _long_double_monomial_sums(degrees, sigma, tau, q, n_rad, n_ang):
    """The nodal sums of z^n in long double.  Kernel and |z^n - w^n|^2 depend on the
    radii and the angle difference only, so each radius pair's m^2 angle pairs are m."""
    ld = np.longdouble
    rules = [build_disc_rule(s, n_rad, n_ang) for s in (sigma, tau)]
    r_z, r_w = (r.nodes[::n_ang].real.astype(ld) for r in rules)
    w_z, w_w = (r.radial_w.astype(ld) for r in rules)
    theta = 2 * np.arccos(ld(-1)) * np.arange(n_ang) / n_ang
    deg = np.asarray(degrees)
    cos = np.cos(np.outer(theta, np.r_[0, deg]))  # (m, 1 + degrees)
    total = np.zeros(deg.size, dtype=ld)
    for i in range(n_rad):
        x = (r_z[i] * r_w)[:, None]
        s = (1 - 2 * x * np.cos(theta) + x * x) ** (-ld(q) / 2) @ cos  # (n_rad, 1 + degrees)
        pz, pw = r_z[i] ** deg, r_w[:, None] ** deg
        diff = (pz * pz + pw * pw) * s[:, :1] - 2 * pz * pw * s[:, 1:]
        total += w_z[i] * np.sum(w_w[:, None] * diff, axis=0)
    return total * ld(rules[0].normalization) * ld(rules[1].normalization) / n_ang


@pytest.mark.parametrize(
    "sigma, tau, beta, n_rad, n_ang, rel",
    # 1e-12 with one rule; 2e-10 is the expanded square's cancellation scale on the
    # outer radius pairs with two (3.0e-14, 2.2e-14, 3.8e-14, 4.9e-11 and 6.6e-13 measured)
    [(1.0, 1.0, 0.5, 32, 128, 1e-12), (1.0, 1.0, 0.5, 64, 256, 1e-12),
     (1.0, 1.0, 0.5, 128, 512, 1e-12), (0.3, 0.2, 0.1, 128, 512, 2e-10),
     (1.5, 0.6, 0.9, 64, 256, 2e-10)],
)
def test_pairwise_matches_long_double_nodal_sum(sigma, tau, beta, n_rad, n_ang, rel):
    q = 2.0 * (beta + 2.0)
    want = _long_double_monomial_sums((1, 2, 4, 8), sigma, tau, q, n_rad, n_ang)
    for n, ref in zip((1, 2, 4, 8), want):
        got = pairwise_difference_integral(TruncatedPowerSeries.monomial(n), sigma, tau, q,
                                           n_rad, n_ang)
        assert float(abs(np.longdouble(got) - ref) / ref) <= rel


#: (sigma, tau, q, n_rad, n_ang): 32 to 128 radii, each product through BLAS; sigma = tau
#: shares one rule
_BLAS_CASES = [(1.5, 0.6, 5.8, 32, 64), (1.0, 1.0, 5.0, 64, 256), (1.0, 1.0, 5.0, 128, 512),
               (1.5, 0.6, 5.8, 64, 256)]


def _pairwise_bits():
    return " ".join(
        pairwise_difference_integral(_QUINTIC, *case).hex() for case in _BLAS_CASES
    )


def test_pairwise_independent_of_blas_threads():
    """Single-threaded BLAS in a fresh process gives the same bits (the products use BLAS)."""
    paths = [os.path.dirname(os.path.dirname(discop.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", "import test_norms; print(test_norms._pairwise_bits())"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == _pairwise_bits()


@pytest.mark.parametrize(
    "n_rad, n_ang, sigma, tau, q, bits",
    [
        (32, 128, 1.0, 1.0, 5.0, "0x1.f74d49f2b74bcp-1"),
        (32, 128, 1.5, 0.6, 5.8, "0x1.be0d03d32ef50p+0"),
        (64, 256, 1.0, 1.0, 5.0, "0x1.f79a46ae37abap-1"),
        (64, 256, 1.5, 0.6, 5.8, "0x1.bde8f38b13b1cp+0"),
        (128, 512, 1.0, 1.0, 5.0, "0x1.f7a9e43b45a50p-1"),
        (128, 512, 1.5, 0.6, 5.8, "0x1.bcfb38200b34cp+0"),
    ],
)
def test_pairwise_frozen_bits_and_one_evaluation_per_rule(n_rad, n_ang, sigma, tau, q, bits):
    # bits of the coefficient-spectrum form with a rule per side; f is evaluated at no node
    assert pairwise_difference_integral(_UNEVALUATED, sigma, tau, q, n_rad, n_ang).hex() == bits


@pytest.mark.parametrize("sigma, tau, n_rad, n_ang", [(1.0, 1.0, 16, 64), (1.5, 0.6, 8, 30)])
def test_kernel_spectrum_unit_stride_slabs_within_memory_rule(sigma, tau, n_rad, n_ang):
    spectrum = _kernel_spectrum(sigma, tau, 5.8, n_rad, n_ang, 1)[0]
    assert spectrum.shape == (n_ang // 2 + 1, n_rad, n_rad)
    assert all(spectrum[k].strides[-1] == spectrum.itemsize for k in range(spectrum.shape[0]))
    ladder = QuadratureSettings(radial_count=n_rad // 2, angular_count=n_ang // 2,
                                max_refinements=1)
    # the spectrum and the slabs a dense series gathers from it, as large again
    assert 2 * spectrum.nbytes == _quadrature_bytes("equivalence", ladder)


def test_pairwise_warm_call_peak_within_its_gathered_slabs():
    # 49 occupied modes (degrees 1..48): the gathered slabs dominate a warm call's memory
    n_rad, n_ang = 128, 512
    f = TruncatedPowerSeries([0.0, *(np.cos(n) + 1j * np.sin(n) for n in range(1, 49))])
    pairwise_difference_integral(f, 1.0, 1.0, 5.0, n_rad, n_ang)
    tracemalloc.start()
    try:
        pairwise_difference_integral(f, 1.0, 1.0, 5.0, n_rad, n_ang)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 49 * n_rad**2 * 8 + 2**20


@pytest.mark.parametrize(
    "sigma, tau, n_rad, n_ang", [(1.5, 0.6, 32, 64), (1.0, 0.3, 5, 7), (1.0, 1.0, 16, 64)]
)
def test_pairwise_same_bits_cold_cached_and_cleared(sigma, tau, n_rad, n_ang):
    def value():
        return pairwise_difference_integral(_QUINTIC, sigma, tau, 5.8, n_rad, n_ang).hex()

    _kernel_spectrum.cache_clear()
    cold = value()
    hits = _kernel_spectrum.cache_info().hits
    cached = value()
    assert _kernel_spectrum.cache_info().hits == hits + 1
    _kernel_spectrum.cache_clear()
    assert cold == cached == value()


def test_family_ladder_builds_each_level_once():
    # three members, each running all three levels: one build per level, and
    # the cache must not evict a level just before the next member needs it
    params = WeightParams(1.0, 1.0, 0.5)
    ladder = QuadratureSettings(
        radial_count=8, angular_count=32, target_rel_tol=1e-15, max_refinements=2
    )
    _kernel_spectrum.cache_clear()
    for n in (1, 2, 3):
        with pytest.raises(ConvergenceError) as info:
            double_integral_functional(TruncatedPowerSeries.monomial(n), params, ladder)
        assert len(info.value.partial.trace) == 3
    stats = _kernel_spectrum.cache_info()
    assert (stats.misses, stats.hits) == (3, 6)


def test_two_alternating_ladders_build_each_level_once():
    # a process that alternates two weight triples keeps both ladders warm
    ladder = QuadratureSettings(
        radial_count=8, angular_count=32, target_rel_tol=1e-15, max_refinements=2
    )
    _kernel_spectrum.cache_clear()
    for params in [WeightParams(1.0, 1.0, 0.5), WeightParams(1.5, 0.6, 0.5)] * 2:
        with pytest.raises(ConvergenceError) as info:
            double_integral_functional(TruncatedPowerSeries.monomial(2), params, ladder)
        assert len(info.value.partial.trace) == 3
    stats = _kernel_spectrum.cache_info()
    assert (stats.misses, stats.hits) == (6, 6)


@pytest.mark.parametrize("sigma, tau", [(1.0, 1.0), (1.5, 0.6)])
def test_pairwise_warm_call_builds_no_rule(monkeypatch, sigma, tau):
    def value():
        return pairwise_difference_integral(_QUINTIC, sigma, tau, 5.8, 16, 64).hex()

    _kernel_spectrum.cache_clear()
    cold = value()
    monkeypatch.setattr("discop.norms.build_disc_rule", lambda *args: pytest.fail("rule built"))
    assert value() == cold


def test_double_integral_constant_is_zero():
    params = WeightParams(1.0, 1.0, 0.5)
    for c in (4.0, 1.5, 1000.0):
        res = double_integral_functional(TruncatedPowerSeries([c]), params)
        assert res.value_sq == 0.0
        assert res.rel_error_estimate == 0.0


_CUBIC = TruncatedPowerSeries([0.0, 1.0, 0.5, -0.25j])


@given(
    scale=st.complex_numbers(
        min_magnitude=1e-8, max_magnitude=1e8, allow_nan=False, allow_infinity=False
    )
)
@example(scale=1e-8)
@example(scale=1e8)
def test_double_integral_scale_invariant_convergence(scale):
    # the functional is 2-homogeneous; its convergence test must be too
    params = WeightParams(1.0, 1.0, 0.5)
    base = double_integral_functional(_CUBIC, params)
    scaled = double_integral_functional(
        TruncatedPowerSeries([scale * c for c in _CUBIC.coeffs]), params
    )
    assert scaled.value_sq == pytest.approx(abs(scale) ** 2 * base.value_sq, rel=1e-12)
    assert len(scaled.trace) == len(base.trace)
    assert scaled.rel_error_estimate == pytest.approx(base.rel_error_estimate, abs=1e-12)


@given(
    shift=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
)
@example(shift=1e3)
def test_double_integral_blind_to_constants(shift):
    params = WeightParams(1.0, 1.0, 0.5)
    base = double_integral_functional(_CUBIC, params)
    shifted = TruncatedPowerSeries([shift, *_CUBIC.coeffs[1:]])
    res = double_integral_functional(shifted, params)
    assert res.value_sq == pytest.approx(base.value_sq, rel=1e-11)


def test_tiny_function_fails_refinement_like_its_unit_multiple():
    params = WeightParams(1.0, 1.0, 0.95)
    rule = QuadratureSettings(
        radial_count=8, angular_count=16, target_rel_tol=1e-3, max_refinements=1
    )
    changes = []
    for c in (1.0, 1e-7):
        with pytest.raises(ConvergenceError) as info:
            double_integral_functional(TruncatedPowerSeries([0.0] * 40 + [c]), params, rule)
        changes.append(info.value.partial.achieved_rel_change)
    assert changes[1] == pytest.approx(changes[0], rel=1e-12)


def test_double_integral_linear_matches_pinned_oracle():
    params = WeightParams(1.0, 1.0, 0.5)
    res = double_integral_functional(TruncatedPowerSeries.monomial(1), params)
    # default rule is coarser than the pinned 4x value; 5e-4 covers the gap
    assert res.value_sq == pytest.approx(V1_QUAD_4X, rel=5e-4)
    assert res.value_sq == pytest.approx(V1_SERIES, rel=5e-4)
    assert res.trace is not None and len(res.trace) >= 2


def test_brute_force_4x_matches_series_oracle():
    s = TruncatedPowerSeries.monomial(1)
    val = pairwise_difference_integral(s, 1.0, 1.0, 5.0, 128, 512)
    assert val == pytest.approx(V1_QUAD_4X, rel=1e-12)
    assert val == pytest.approx(V1_SERIES, rel=2e-5)


def test_series_oracle_reproduces_frozen_table():
    for n, expected in PAIRWISE_MONOMIAL_SIGMA1_BETA05.items():
        assert pairwise_series_oracle(n, 1.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [1, 8])
def test_series_oracle_stable_in_depth_below_p_one(n):
    # p = 0.2: the tail's exponents p, p + 1, ... are not multiples of p (2.8e-6 and 9.5e-6
    # apart when eliminated as such)
    four = pairwise_series_oracle(n, 1.0, 1.0, 0.9)
    five = pairwise_series_oracle(n, 1.0, 1.0, 0.9, kmax=2**23, levels=5)
    assert four == pytest.approx(five, rel=2e-7)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_double_integral_against_series_oracle(n):
    params = WeightParams(1.0, 1.0, 0.5)
    res = double_integral_functional(TruncatedPowerSeries.monomial(n), params)
    assert res.value_sq == pytest.approx(
        PAIRWISE_MONOMIAL_SIGMA1_BETA05[n], rel=5e-3
    )


def test_double_integral_upper_endpoint_converges():
    # beta = (sigma+tau)/2 is allowed; the trace must stabilize even though
    # the series-side oracle is unavailable there
    params = WeightParams(1.0, 1.0, 1.0)
    res = double_integral_functional(TruncatedPowerSeries.monomial(1), params)
    assert res.value_sq > 0
    assert res.rel_error_estimate <= 0.05


def test_double_integral_asymmetric_weights():
    params = WeightParams(1.0, 0.5, 0.25)
    res = double_integral_functional(TruncatedPowerSeries.monomial(2), params)
    oracle = pairwise_series_oracle(2, 1.0, 0.5, 0.25)
    assert res.value_sq == pytest.approx(oracle, rel=5e-3)


# --- equivalence ratio -------------------------------------------------------


def test_ratio_rotation_invariant():
    params = WeightParams(1.0, 1.0, 0.5)
    base = equivalence_ratio(TruncatedPowerSeries.monomial(1), params)
    for theta in (np.pi / 7, 1.0, 2.5):
        rotated = TruncatedPowerSeries([0.0, np.exp(1j * theta)])
        assert equivalence_ratio(rotated, params) == pytest.approx(base, rel=1e-12)


def test_ratio_scale_invariant():
    params = WeightParams(1.0, 1.0, 0.5)
    s = TruncatedPowerSeries([0.0, 1.0, 0.25])
    assert equivalence_ratio(TruncatedPowerSeries([3.5j * c for c in s.coeffs]), params) == pytest.approx(
        equivalence_ratio(s, params), rel=1e-12
    )


def test_ratio_rejects_constants():
    params = WeightParams(1.0, 1.0, 0.5)
    with pytest.raises(ParamError):
        equivalence_ratio(TruncatedPowerSeries([1.0]), params)


def test_ratio_band_over_monomials():
    params = WeightParams(1.0, 1.0, 0.5)
    settings = QuadratureSettings()
    ratios = [
        equivalence_ratio(TruncatedPowerSeries.monomial(n), params, settings)
        for n in range(1, 9)
    ]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 10.0
    oracle_ratios = [
        PAIRWISE_MONOMIAL_SIGMA1_BETA05[n] / dirichlet_monomial_sq(n, 1.0)
        for n in range(1, 9)
    ]
    for got, want in zip(ratios, oracle_ratios):
        assert got == pytest.approx(want, rel=5e-3)


def test_ratio_band_with_mobius_composed_functions():
    params = WeightParams(1.0, 1.0, 0.5)
    family = [TruncatedPowerSeries.monomial(n) for n in (1, 2, 3)]
    family += [TruncatedPowerSeries(mobius_power_coeffs(0.5, n, 48)) for n in (1, 2)]
    ratios = []
    for f in family:
        functional = double_integral_functional(f, params)
        denom = dirichlet_norm_sq_coeff(f, params.p_dirichlet).value_sq
        ratio = functional.value_sq / denom
        prev = float(np.real(functional.trace[-2][2])) / denom
        assert abs(ratio - prev) / max(ratio, prev) < 0.02
        ratios.append(ratio)
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 10.0
