import numpy as np
import pytest

from polysmooth import ElementKind
from polysmooth.errors import InvalidSpec, OracleDomainError
from polysmooth.fdcheck import check_field, fd_gradient, gradient_suite, relative_error
from polysmooth.generators import random_element_coords
from polysmooth.geometry import element_field, element_mean_volume


def test_fd_quadratic_exact_to_rounding(rng):
    x = rng.standard_normal((5, 3))
    grad = fd_gradient(lambda c: float(np.sum(c * c)), x)
    assert np.abs(grad - 2 * x).max() < 1e-9


def test_fd_constant_is_zero(rng):
    x = rng.standard_normal((4, 3))
    assert np.abs(fd_gradient(lambda c: 42.0, x)).max() == 0.0


def test_fd_matches_transformation_field(rng):
    x = random_element_coords(ElementKind.TETRA, rng)
    fd = fd_gradient(lambda c: element_mean_volume(ElementKind.TETRA, c), x)
    assert relative_error(element_field(ElementKind.TETRA, x) / 6.0, fd) < 1e-6


def test_fd_domain_error():
    x = np.ones((2, 3))
    with pytest.raises(OracleDomainError):
        fd_gradient(lambda c: float("nan"), x)


@pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf")])
def test_fd_step_must_be_finite_and_positive(h):
    with pytest.raises(InvalidSpec, match=f"step h must be finite and > 0, got {h}"):
        fd_gradient(lambda c: float(np.sum(c * c)), np.ones((2, 3)), h=h)


@pytest.mark.parametrize("count", [0, -3])
def test_check_field_needs_a_sample(count):
    def never(_):
        raise AssertionError("no sample may be drawn")

    with pytest.raises(InvalidSpec, match=f"sample_count must be >= 1, got {count}"):
        check_field(never, never, never, sample_count=count, tol=1e-6)


def test_check_field_passes_for_true_gradient(rng):
    rep = check_field(
        lambda x: element_field(ElementKind.PRISM, x) / 6.0,
        lambda x: element_mean_volume(ElementKind.PRISM, x),
        lambda i: random_element_coords(ElementKind.PRISM, rng),
        sample_count=10,
        tol=1e-6,
        name="prism volume gradient",
    )
    assert rep.passed
    assert rep.worst_sample is None
    assert "pass" in rep.summary()


def test_check_field_detects_scaled_fault(rng):
    rep = check_field(
        lambda x: 2.0 * element_field(ElementKind.TETRA, x) / 6.0,
        lambda x: element_mean_volume(ElementKind.TETRA, x),
        lambda i: random_element_coords(ElementKind.TETRA, rng),
        sample_count=5,
        tol=1e-6,
    )
    assert not rep.passed
    # doubled analytic field: deviation is half the larger magnitude
    assert rep.max_rel_error == pytest.approx(0.5, abs=0.05)
    assert rep.worst_sample is not None


def test_gradient_suite_all_pass():
    reports = gradient_suite(samples=4, tol=1e-6, seed=0)
    assert len(reports) >= 12
    for rep in reports:
        assert rep.passed, rep.summary()


@pytest.mark.parametrize("seed, match", [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")])
def test_gradient_suite_seed_is_checked(seed, match):
    with pytest.raises(InvalidSpec, match=match):
        gradient_suite(samples=1, seed=seed)
