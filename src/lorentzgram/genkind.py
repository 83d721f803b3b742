"""The generator kinds, apart from the generators that build them.

The command line lists and checks ``generate --kind`` from this enum, so
it lives in a module of its own: a process that never generates does not
import ``generators``.
"""

from enum import Enum


class GenKind(Enum):
    POINTS_ON_HOROSPHERE = "points_on_horosphere"
    POINTS_ON_HYPERSPHERE = "points_on_hypersphere"
    POINTS_ON_HYPERPLANE = "points_on_hyperplane"
    POINTS_ON_EQUIDISTANT = "points_on_equidistant"
    HOROSPHERES_ON_HYPERPLANE_BOUNDARY = "horospheres_on_hyperplane_boundary"
    HYPERPLANES_TANGENT_AT_INFINITY = "hyperplanes_tangent_at_infinity"
    HYPERPLANES_COMMON_IDEAL_POINT = "hyperplanes_common_ideal_point"
    HYPERPLANES_ORTH_EQUAL = "hyperplanes_orth_equal"
    GENERIC_POINTS = "generic_points"
    GENERIC_HOROSPHERES = "generic_horospheres"
    GENERIC_HYPERPLANES = "generic_hyperplanes"
    SPHERES_TANGENT_TO_CIRCLE = "spheres_tangent_to_circle"
    SPHERES_THROUGH_POINT = "spheres_through_point"
