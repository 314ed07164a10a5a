import numpy as np
import pytest

from discop.errors import ConvergenceError, ParamError
from discop.quadrature import QuadratureSettings, build_disc_rule, refine_until
from oracles import disc_integral, disc_moment


def test_rule_integrates_one_to_one():
    rule = build_disc_rule(1.0, 8, 16)
    assert disc_integral(rule, lambda z: np.ones_like(z, dtype=float)) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.5, 1.0, 2.0, 3.7])
def test_rule_normalization_across_weights(sigma):
    rule = build_disc_rule(sigma, 12, 32)
    total = disc_integral(rule, lambda z: np.ones_like(z, dtype=float))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_rotational_symmetry_kills_z():
    rule = build_disc_rule(1.0, 8, 16)
    assert abs(disc_integral(rule, lambda z: z)) < 1e-14
    assert abs(disc_integral(rule, lambda z: z**2)) < 1e-14


def test_second_moment_weight_one():
    rule = build_disc_rule(1.0, 8, 16)
    val = disc_integral(rule, lambda z: np.abs(z) ** 2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fourth_moment_unweighted():
    rule = build_disc_rule(0.0, 8, 16)
    val = disc_integral(rule, lambda z: np.abs(z) ** 4)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", range(11))
def test_moment_exactness(sigma, m):
    rule = build_disc_rule(sigma, 16, 32)
    val = disc_integral(rule, lambda z: np.abs(z) ** (2 * m))
    assert val == pytest.approx(disc_moment(sigma, m), rel=1e-10, abs=1e-12)


def test_radial_nodes_strictly_interior():
    rule = build_disc_rule(-0.5, 24, 8)
    assert np.all(np.abs(rule.nodes) > 0) and np.all(np.abs(rule.nodes) < 1)


def test_rejects_bad_weight_and_counts():
    with pytest.raises(ParamError):
        build_disc_rule(-1.0, 8, 16)
    with pytest.raises(ParamError):
        build_disc_rule(1.0, 1, 16)
    with pytest.raises(ParamError):
        build_disc_rule(1.0, 8, 2)


def test_determinism_bit_identical():
    a = build_disc_rule(0.5, 16, 32)
    b = build_disc_rule(0.5, 16, 32)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    g = lambda z: np.abs(z) ** 3 + np.real(z)  # noqa: E731
    assert disc_integral(a, g) == disc_integral(b, g)


def test_settings_validation():
    with pytest.raises(ParamError):
        QuadratureSettings(target_rel_tol=0.5)
    with pytest.raises(ParamError):
        QuadratureSettings(refinement_factor=1)
    with pytest.raises(ParamError):
        QuadratureSettings(max_refinements=0)


def test_refine_until_constant_converges_immediately():
    settings = QuadratureSettings(radial_count=4, angular_count=8, target_rel_tol=1e-9)

    def functional(n_rad, n_ang):
        rule = build_disc_rule(2.0, n_rad, n_ang)
        return float(np.real(disc_integral(rule, lambda z: np.ones_like(z, dtype=float))))

    refined = refine_until(settings, functional)
    assert refined.value == pytest.approx(1.0, abs=1e-12)
    assert refined.achieved_rel_change <= 1e-12
    assert len(refined.trace) == 2


def test_refine_keeps_exact_moments_exact():
    # exact rules stay exact: refinement must not grow the error
    settings = QuadratureSettings(
        radial_count=8, angular_count=16, target_rel_tol=1e-9, max_refinements=3
    )

    def functional(n_rad, n_ang):
        rule = build_disc_rule(1.0, n_rad, n_ang)
        return float(np.real(disc_integral(rule, lambda z: np.abs(z) ** 6)))

    refined = refine_until(settings, functional)
    exact = disc_moment(1.0, 3)
    errors = [abs(v - exact) for _, _, v in refined.trace]
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier + 1e-12


def test_refine_until_raises_with_partial_attached():
    settings = QuadratureSettings(
        radial_count=4, angular_count=8, target_rel_tol=1e-4, max_refinements=2
    )
    calls = []

    def stubborn(n_rad, n_ang):
        calls.append(n_rad)
        return 1.0 + 1.0 / len(calls)  # keeps moving by more than the tolerance

    with pytest.raises(ConvergenceError) as exc_info:
        refine_until(settings, stubborn)
    assert exc_info.value.partial is not None
    assert len(exc_info.value.trace) == 3
