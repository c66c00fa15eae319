"""Quality-ascent smoothing for mixed-volume meshes.

Meshes of tetrahedra, pyramids, prisms and hexahedra are smoothed by
stepping along gradient-direction fields of global quality measures built
from per-element mean volumes, normalized so the step commutes with
translation and scaling of the input.
"""

from . import errors
from .fdcheck import CheckReport, check_field, fd_gradient, gradient_suite
from .generators import (
    GENERATOR_NAMES,
    GeneratorSpec,
    generate,
    hex_grid,
    icosahedron_mesh,
    icosahedron_polyhedron,
    perturb_mesh,
    regular_element,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from .geometry import (
    element_field,
    element_iq,
    element_iq_gradient,
    element_mean_boundary_area,
    element_mean_volume,
    polygon_normal,
    polyhedron_iq,
    polyhedron_iq_gradient,
    polyhedron_mean_area,
    polyhedron_mean_volume,
    tet_signed_volume,
)
from .mesh import Element, ElementKind, Mesh, make_mesh
from .quality import (
    Combiner,
    Measure,
    QualityMeasureSpec,
    QualityReport,
    ReferenceFrame,
    compute_volume_shift,
    mean_ratio,
    mean_ratio_volume_equivalence,
    mesh_mean_volumes,
    mesh_quality,
    quality_gradient_field,
)
from .smoothing import (
    Assembly,
    BoundaryPolicy,
    SmoothingConfig,
    SmoothingReport,
    Termination,
    assemble_field,
    homogeneity_degree,
    project_shape,
    scale_normalize,
    smooth,
    smooth_polyhedron,
    smoothing_step,
)
from .vtkio import read_mesh, write_mesh

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "BoundaryPolicy",
    "CheckReport",
    "Combiner",
    "Element",
    "ElementKind",
    "GENERATOR_NAMES",
    "GeneratorSpec",
    "Measure",
    "Mesh",
    "QualityMeasureSpec",
    "QualityReport",
    "ReferenceFrame",
    "SmoothingConfig",
    "SmoothingReport",
    "Termination",
    "assemble_field",
    "check_field",
    "compute_volume_shift",
    "element_field",
    "element_iq",
    "element_iq_gradient",
    "element_mean_boundary_area",
    "element_mean_volume",
    "errors",
    "fd_gradient",
    "generate",
    "gradient_suite",
    "hex_grid",
    "homogeneity_degree",
    "icosahedron_mesh",
    "icosahedron_polyhedron",
    "make_mesh",
    "mean_ratio",
    "mean_ratio_volume_equivalence",
    "mesh_mean_volumes",
    "mesh_quality",
    "perturb_mesh",
    "polygon_normal",
    "polyhedron_iq",
    "polyhedron_iq_gradient",
    "polyhedron_mean_area",
    "polyhedron_mean_volume",
    "project_shape",
    "quality_gradient_field",
    "read_mesh",
    "regular_element",
    "scale_normalize",
    "smooth",
    "smooth_polyhedron",
    "smoothing_step",
    "tet_grid",
    "tet_signed_volume",
    "tet_with_inner_vertex",
    "unit_element",
    "write_mesh",
]
