"""Exact commuting families on root-system holonomy algebras.

Everything is computed in exact arithmetic: rational numbers, cyclotomic
field elements, integer lattices.  The package builds root systems and
their Weyl groups, enumerates the layers of the associated toric
arrangement, constructs limit subspaces of the commuting degree-one
families over boundary charts, and verifies the structural statements
(commutativity, constant rank, injectivity, triangularity, and the
type-A identification with rational spin models) by direct computation.
"""

from .bethe import (HolonomySpace, RecoveredData, XPoint, chart_only,
                    injectivity_pool, recover_data, sample_xpoints,
                    weyl_action_report, xpoint_from_dict)
from .field import (DEFAULT_FIELD_ORDER, CyclotomicField, FieldElement,
                    default_field_order)
from .hecke import HeckeAlgebra
from .lattice import (SmithForm, hermite_coordinates, hermite_normal_form,
                      int_rank, smith_normal_form)
from .layers import (Layer, building_set, enumerate_layers, gamma_divisors,
                     generic_point, is_indecomposable, layer_contains,
                     point_on_layer, poset_relations)
from .nested import Chart, maximal_nested_sets
from .poly import Poly
from .roots import RootSystem, cartan_matrix, root_system, symmetrizers

__version__ = "0.1.0"

__all__ = [
    "CyclotomicField", "FieldElement", "DEFAULT_FIELD_ORDER",
    "default_field_order",
    "RootSystem", "root_system", "cartan_matrix", "symmetrizers",
    "SmithForm", "smith_normal_form", "hermite_normal_form", "int_rank",
    "hermite_coordinates",
    "Layer", "enumerate_layers", "building_set",
    "generic_point", "point_on_layer", "gamma_divisors",
    "is_indecomposable", "layer_contains", "poset_relations",
    "Chart", "maximal_nested_sets",
    "HolonomySpace", "XPoint", "RecoveredData", "xpoint_from_dict",
    "recover_data", "sample_xpoints", "injectivity_pool", "chart_only",
    "weyl_action_report",
    "HeckeAlgebra",
    "Poly",
    "__version__",
]
