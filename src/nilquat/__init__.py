"""Nilpotent 2x2 products over finite chain rings of odd order.

The package models finite chain rings R (Z_{p^n} and GF(q)[t]/(t^n)),
the quaternion ring over R together with its explicit matrix picture,
conjugation orbits of top-row matrices, and exact censuses plus certified
factorizations of matrices into products of nilpotents.
"""

from .chain_ring import (Ring, RingElem, RingSpec, format_element,
                         format_ring_spec, make_ring, parse_element,
                         parse_ring_spec, ring_from_string,
                         smallest_irreducible)
from .mat2 import (DEFAULT_ENUMERATION_CAP, CapExceededError, Mat2,
                   MatrixSpace, NilClass, NilTag, classify_nilpotent,
                   format_matrix, gl2_count, identity, load_packed,
                   matrix_space, parse_matrix, save_packed, top_row,
                   zero_matrix)
from .nilfactor import (DEFAULT_SEED, CensusReport, DecompositionError,
                        NilFactorization, NotInOrbitUnionError,
                        NotNilpotentError, ScanReport, SharpnessCertificate,
                        TraceObstructionError, census_formula_only,
                        census_orbit_union, census_set_product, decompose,
                        formula_count, nilpotent_count_check, product_set,
                        rank1_union_count, sharpness_example,
                        stable_product_count, valuation_obstruction_scan)
from .orbits import (OrbitCertificate, conjugate, load_union_bitset,
                     locate_in_orbit_union, orbit_of, orbit_union,
                     save_union_bitset, shear, union_summary, unit_diag)
from .quaternion import (Quaternion, QuaternionIso, basis, build_iso,
                         format_quaternion, parse_quaternion)
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "Ring", "RingElem", "RingSpec", "format_element", "format_ring_spec",
    "make_ring", "parse_element", "parse_ring_spec", "ring_from_string",
    "smallest_irreducible",
    "DEFAULT_ENUMERATION_CAP", "CapExceededError", "Mat2", "MatrixSpace",
    "NilClass", "NilTag", "classify_nilpotent", "format_matrix", "identity",
    "load_packed", "matrix_space", "parse_matrix", "save_packed", "top_row",
    "zero_matrix",
    "DEFAULT_SEED", "CensusReport", "DecompositionError", "NilFactorization",
    "NotInOrbitUnionError", "NotNilpotentError", "ScanReport",
    "SharpnessCertificate", "TraceObstructionError", "census_formula_only",
    "census_orbit_union", "census_set_product", "decompose", "formula_count",
    "gl2_count", "nilpotent_count_check", "product_set", "rank1_union_count",
    "sharpness_example",
    "stable_product_count", "valuation_obstruction_scan",
    "OrbitCertificate", "conjugate", "load_union_bitset",
    "locate_in_orbit_union", "orbit_of", "orbit_union", "save_union_bitset",
    "shear", "union_summary", "unit_diag",
    "Quaternion", "QuaternionIso", "basis", "build_iso", "format_quaternion",
    "parse_quaternion",
    "SUITE_NAMES", "SuiteResult", "run_suites",
    "__version__",
]
