"""vancoh: lowest vanishing cohomology of non-isolated hypersurface
singularity germs, computed exactly over the integers from a combinatorial
description of the sliced singular locus."""

__version__ = "0.1.0"

from .linalg import (FinAbGroup, IntegerMatrix, Submodule, char_poly, cokernel,
                     image, intersect, is_unimodular, kernel, matrix, rank,
                     smith_normal_form, solve_in_basis)
from .polynomial import IntPolynomial, poly_divides, poly_product
from .model import (Branch, CurveComponent, EigenvalueData, IsolatedPoint,
                    MonodromyData, SliceConfiguration, SpecialPoint, Violation,
                    branch_kernel, validate)
from .engine import (Bounds, ComponentCohomology, InternalDefectError,
                     InvalidConfigurationError, MonodromyChecks, SixTermCheck,
                     VanishingReport, analyze, component_cohomology)
from .loader import load_bytes, load_path, parse_configuration, serialize_configuration
from .report import Report, format_group, render_json, render_text

__all__ = [
    "FinAbGroup", "IntegerMatrix", "Submodule", "char_poly", "cokernel",
    "image", "intersect", "is_unimodular", "kernel", "matrix", "rank",
    "smith_normal_form", "solve_in_basis",
    "IntPolynomial", "poly_divides", "poly_product",
    "Branch", "CurveComponent", "EigenvalueData", "IsolatedPoint",
    "MonodromyData", "SliceConfiguration", "SpecialPoint", "Violation",
    "branch_kernel", "validate",
    "Bounds", "ComponentCohomology", "InternalDefectError",
    "InvalidConfigurationError", "MonodromyChecks", "SixTermCheck",
    "VanishingReport", "analyze", "component_cohomology",
    "load_bytes", "load_path", "parse_configuration", "serialize_configuration",
    "Report", "format_group", "render_json", "render_text",
    "__version__",
]
