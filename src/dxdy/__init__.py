"""Residue calculus in the Clifford algebra of the real plane.

The 2-form dxdy squares to -1, so z = x + y*dxdy and the even subalgebra
stand in for the complex numbers; residues, Laurent expansions, contour
integrals and real-line improper integrals are computed symbolically over
that algebra and cross-checked by direct numeric quadrature.
"""

from .algebra import (DX, DXDY, DY, EvenElement, Multivector, PolarForm,
                      dot_one_forms, even, even_int_pow, even_mul,
                      from_polar, mv_product, to_polar)
from .contours import (CircleContour, IntegralResult, closure_half_plane,
                       enclosed_poles, integrate_closed, integrate_real_line)
from .functions import (EntireFactor, FormClass, MeromorphicFunction, OneForm,
                        Pole, classify_one_form, find_poles, local_expansion,
                        meromorphic_from_text, to_meromorphic)
from .oracle import (QuadratureSpec, differential_check, quad_circle,
                     real_line_quadrature)
from .residues import (ResidueReport, cauchy_derivative, cauchy_evaluate,
                       cauchy_integral_value, laurent_expand, residue,
                       residue_by_derivative_formula,
                       residue_by_order_reduction)
from .series import LaurentSeries, entire_series, series_inv, series_mul

__version__ = "0.1.0"

__all__ = [
    "DX", "DXDY", "DY",
    "CircleContour", "EntireFactor", "EvenElement", "FormClass",
    "IntegralResult", "LaurentSeries", "MeromorphicFunction", "Multivector",
    "OneForm", "PolarForm", "Pole", "QuadratureSpec", "ResidueReport",
    "cauchy_derivative", "cauchy_evaluate", "cauchy_integral_value",
    "classify_one_form", "closure_half_plane", "differential_check",
    "dot_one_forms", "enclosed_poles", "entire_series", "even",
    "even_int_pow", "even_mul", "find_poles", "from_polar",
    "integrate_closed", "integrate_real_line", "laurent_expand",
    "local_expansion", "meromorphic_from_text", "mv_product", "quad_circle",
    "real_line_quadrature", "residue",
    "residue_by_derivative_formula", "residue_by_order_reduction",
    "series_inv", "series_mul", "to_meromorphic", "to_polar",
]
