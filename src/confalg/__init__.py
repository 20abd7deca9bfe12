"""Exact symbolic kernel for associative and Lie conformal algebras.

Represents finite free C[d]-modules and their lambda-products by structure
tables of exact rational polynomials, verifies operator identities
(O-operators, Rota-Baxter and twisted Rota-Baxter, Nijenhuis, Reynolds,
derivations), builds the derived structures they induce (dendriform, NS,
left-symmetric, deformed products), and implements the Hochschild /
Gerstenhaber / derived-bracket cohomology machinery with Maurer-Cartan
checks.  The ``confalg`` command line drives everything from a small DSL.
"""

from .cohomology import (
    Cochain,
    derived_bracket,
    g_bracket,
    g_circle,
    hochschild_d,
    is_cocycle,
    maurer_cartan_check,
    mc_perturbation_check,
    modified_mc_check,
    multiplication_cochain,
    o_complex_d,
    random_cochain,
)
from .confcore import (
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    LieRep,
    ModElem,
    MultiTable,
    Verdict,
    check_associative,
    check_bimodule,
    check_lie,
    commutator_lie,
    cur,
    eval_multilinear,
    matching_pair,
    rep_from_bimodule,
    semidirect,
    twisted_extension,
)
from .derived import (
    StructureBundle,
    check_structure,
    deformation_check,
    deformed_product,
    dendriform_from_O,
    induced_bimodule_on_A,
    m_ass,
    nijenhuis_hierarchy,
    ns_from_nijenhuis,
    ns_from_twisted,
)
from .dsl import Report, emit_dsl, parse, parse_file
from .dsl import run as run_source
from .errors import ConfalgError
from .operators import KINDS, ModuleMap, reynolds_from_derivation, verify_operator
from .polyring import Poly, Scalar, lam, parse_poly

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomial layer
    "Poly",
    "Scalar",
    "lam",
    "parse_poly",
    # core structures
    "FreeModule",
    "ModElem",
    "MultiTable",
    "ConfAlgebra",
    "ConfBimodule",
    "LieRep",
    "Verdict",
    "Composite",
    "cur",
    "eval_multilinear",
    "check_associative",
    "check_lie",
    "check_bimodule",
    "commutator_lie",
    "rep_from_bimodule",
    "semidirect",
    "twisted_extension",
    "matching_pair",
    # operators
    "KINDS",
    "ModuleMap",
    "verify_operator",
    "reynolds_from_derivation",
    # derived structures
    "StructureBundle",
    "check_structure",
    "dendriform_from_O",
    "m_ass",
    "induced_bimodule_on_A",
    "ns_from_twisted",
    "ns_from_nijenhuis",
    "deformed_product",
    "nijenhuis_hierarchy",
    "deformation_check",
    # cohomology
    "Cochain",
    "multiplication_cochain",
    "hochschild_d",
    "o_complex_d",
    "is_cocycle",
    "g_circle",
    "g_bracket",
    "derived_bracket",
    "maurer_cartan_check",
    "mc_perturbation_check",
    "modified_mc_check",
    "random_cochain",
    # DSL and reporting
    "parse",
    "parse_file",
    "run_source",
    "emit_dsl",
    "Report",
    # errors
    "ConfalgError",
]
