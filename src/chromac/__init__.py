"""Exact computer algebra for chromatic MacMahon symmetric functions of
vertex-weighted graphs, their Hopf structure, and the recovery of the
extended generalized degree polynomial of a forest from its CMF."""

from .algebra import (LaurentPolynomial, MacMahonElement, TensorElement,
                      VectorPartition, partitions_of, truncation_variables)
from .bases import (family_graph, is_triangular_with_unit_diagonal,
                    matrix_to_text, realizable_partitions, star_family,
                    transition_matrix)
from .chromatic import (beta_table, cmf, cmf_by_enumeration, egdp,
                        egdp_variables, specialize_csf, specialize_egdp)
from .errors import CapExceededError, NotApplicableError
from .graphs import (Component, GraphFormatError, WeightedGraph,
                     all_labeled_trees, connected_components,
                     counterexample_pair, cycle_graph, disjoint_union,
                     parse_graph, path_graph, random_forest, serialize_graph,
                     single_vertex, star_graph, tree_from_pruefer)
from .hopf import (ForestStats, LinearFunctional, antipode, convolve,
                   coproduct, egdp_convolution, recover_egdp_hopf,
                   recover_stats, symbolic_counting_image)
from .recovery import recover_egdp_explicit

__version__ = "0.1.0"
