"""Curves with increasing chords in two-dimensional normed planes.

A chord of a curve never shrinks as its endpoints advance; this package
provides the norm machinery (gauges, support lines, Birkhoff
orthogonality), a checker and rearrangement tools for the property,
involutes of convex bodies, sharp length bounds via lens perimeters and
Reuleaux triangles, and a Chebyshev-norm construction through all
vertices of the d-cube.
"""

from .errors import GeometryError, InvalidDiskError, UnsupportedDiskError
from .normplane import (ConvexBody, SupportLine, UnitDisk, boundary_arclength,
                        gauge, gauge_many, is_birkhoff_orthogonal, support,
                        unit_vector, unit_vectors, DEFAULT_RESOLUTION)
from .curvekit import (BisectorSample, ChordReport, Polyline, Witness,
                       arclength, bisector_sample, check_increasing_chords,
                       check_increasing_wrt_set, convexify, is_x_monotone)
from .involute import (InvoluteCurve, InvoluteSupport, build_involute,
                       involute_support_direction)
from .chordbound import (DiskFamilyParams, Hexagon, LmProfile, MaxMinResult,
                         bounding_parallelogram, inscribed_hexagon,
                         intersect_translates, lens_corners, lm, lm_sweep,
                         maxmin_search, perimeter, reuleaux,
                         reuleaux_two_sides)
from .highdim import (PolylineD, chebyshev_arclength,
                      check_increasing_chords_dd, hypercube_curve)

__version__ = "0.1.0"

__all__ = [
    "GeometryError", "InvalidDiskError", "UnsupportedDiskError",
    "SupportLine", "UnitDisk", "boundary_arclength", "gauge", "gauge_many",
    "is_birkhoff_orthogonal", "support", "unit_vector", "unit_vectors",
    "DEFAULT_RESOLUTION",
    "BisectorSample", "ChordReport", "Polyline", "Witness", "arclength",
    "bisector_sample", "check_increasing_chords", "check_increasing_wrt_set",
    "convexify", "is_x_monotone",
    "ConvexBody", "InvoluteCurve", "InvoluteSupport", "build_involute",
    "involute_support_direction",
    "DiskFamilyParams", "Hexagon", "LmProfile", "MaxMinResult",
    "bounding_parallelogram", "inscribed_hexagon", "intersect_translates",
    "lens_corners", "lm", "lm_sweep", "maxmin_search", "perimeter",
    "reuleaux", "reuleaux_two_sides",
    "PolylineD", "chebyshev_arclength", "check_increasing_chords_dd",
    "hypercube_curve",
]
