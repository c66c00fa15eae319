"""Independent finite-difference differentiation for validating gradients.

Central differences are exact up to rounding on polynomials of degree two,
which makes them a trustworthy oracle for every analytic gradient in the
package. ``gradient_suite`` bundles the standard checks behind the
``check-gradients`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpec, OracleDomainError


def fd_gradient(f: Callable[[np.ndarray], float], coords, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function of an (n, 3) array; a given step ``h`` must be
    finite and positive."""
    coords = np.asarray(coords, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.abs(coords).max()))
    elif not 0 < h < math.inf:
        raise InvalidSpec(f"step h must be finite and > 0, got {h}")
    grad = np.zeros_like(coords)
    flat = coords.reshape(-1)
    for k in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[k] += h
        minus[k] -= h
        fp = f(plus.reshape(coords.shape))
        fm = f(minus.reshape(coords.shape))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleDomainError(f"non-finite probe at coordinate {k}")
        grad.reshape(-1)[k] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic, reference) -> float:
    """Max absolute deviation over max(|analytic|, |reference|, 1e-30)."""
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(reference).max(initial=0.0)), 1e-30)
    return float(np.abs(analytic - reference).max(initial=0.0)) / denom


@dataclass
class CheckReport:
    name: str
    samples: int
    tol: float
    max_rel_error: float
    worst_sample: np.ndarray | None
    passed: bool

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (max rel error {self.max_rel_error:.3e}, tol {self.tol:.1e}, {self.samples} samples)"


def check_field(
    field_fn: Callable[[np.ndarray], np.ndarray],
    f: Callable[[np.ndarray], float],
    sampler: Callable[[int], np.ndarray],
    sample_count: int,
    tol: float,
    h: float | None = None,
    name: str = "field",
) -> CheckReport:
    """Compare an analytic field against the finite-difference gradient of f
    over sampled configurations."""
    if sample_count < 1:
        raise InvalidSpec(f"sample_count must be >= 1, got {sample_count}")
    worst = -1.0
    worst_sample = None
    for i in range(sample_count):
        coords = sampler(i)
        err = relative_error(field_fn(coords), fd_gradient(f, coords, h=h))
        if err > worst:
            worst = err
            worst_sample = coords
    return CheckReport(
        name=name,
        samples=sample_count,
        tol=tol,
        max_rel_error=worst,
        worst_sample=None if worst <= tol else worst_sample,
        passed=worst <= tol,
    )


def gradient_suite(samples: int = 20, tol: float = 1e-6, seed: int = 0) -> list[CheckReport]:
    """Run the standard oracle checks over every analytic field.

    Covers the per-element transformation fields (six times the mean-volume
    gradient), the isoperimetric-quotient gradients, the mesh-level quality
    gradients, and the generic polyhedron quotient and volume gradients.
    """
    from . import generators, geometry, quality
    from .mesh import ElementKind
    from .quality import Combiner, Measure, QualityMeasureSpec

    if samples < 1:
        raise InvalidSpec(f"samples must be >= 1, got {samples}")
    if not tol >= 0:
        raise InvalidSpec(f"tol must be >= 0, got {tol}")
    reports = []
    rng = generators._seeded_rng(seed)

    for kind in ElementKind:
        def sampler(_i, kind=kind):
            return generators.random_element_coords(kind, rng)

        reports.append(check_field(
            lambda x, kind=kind: geometry.element_field(kind, x) / 6.0,
            lambda x, kind=kind: geometry.element_mean_volume(kind, x),
            sampler, samples, tol, name=f"mean-volume gradient [{kind.value}]",
        ))
        reports.append(check_field(
            lambda x, kind=kind: geometry.element_iq_gradient(kind, x),
            lambda x, kind=kind: geometry.element_iq(kind, x),
            sampler, samples, tol, name=f"iq gradient [{kind.value}]",
        ))

    coords12, faces = generators.icosahedron_polyhedron()

    def ico_sampler(_i):
        return coords12 + rng.uniform(-0.1, 0.1, size=coords12.shape)

    reports.append(check_field(
        lambda x: geometry.polyhedron_iq_gradient(faces, x),
        lambda x: geometry.polyhedron_iq(faces, x),
        ico_sampler, max(1, samples // 4), tol, name="polyhedron iq gradient",
    ))

    mesh_specs = [
        QualityMeasureSpec(Measure.MEAN_VOLUME_SUM, Combiner.SUM),
        QualityMeasureSpec(Measure.PRODUCT_SQUARED),
        QualityMeasureSpec(Measure.INVERSE_SQUARED_SUM, Combiner.SUM),
        QualityMeasureSpec(Measure.ISOPERIMETRIC_QUOTIENT, Combiner.ARITHMETIC_MEAN),
    ]
    for spec in mesh_specs:
        mesh = generators.random_valid_mesh(rng)

        def sampler(_i, mesh=mesh, rng=rng):
            # keep a validity margin so finite-difference probes stay in-domain
            while True:
                c = np.asarray(mesh.vertices) + rng.uniform(-0.01, 0.01, size=mesh.vertices.shape)
                if quality.mesh_mean_volumes(mesh, c).min() > 1e-4:
                    return c

        reports.append(check_field(
            lambda c, mesh=mesh, spec=spec: quality.quality_gradient_field(mesh, c, spec),
            lambda c, mesh=mesh, spec=spec: quality.mesh_quality(mesh, c, spec).global_value,
            sampler, max(1, samples // 4), tol,
            name=f"mesh quality gradient [{spec.measure.value}/{spec.combiner.value}]",
        ))

    # appended last, so the earlier checks keep their samples
    reports.append(check_field(
        lambda x: geometry.polyhedron_volume_gradient(faces, x),
        lambda x: geometry.polyhedron_mean_volume(faces, x),
        ico_sampler, max(1, samples // 4), tol, name="polyhedron volume gradient",
    ))
    return reports
