"""Exact verification of weak model structures on finite mesh categories.

The package builds cluster presentations of simply laced Dynkin types as
finite mesh categories, equips them with the morphism classes induced by a
rigid set of indecomposables, and machine-checks the structural axioms,
factorizations, homotopy relations and the module-category equivalence,
everything over a small prime field with no tolerances.
"""

from .exactlin import PrimeField
from .meshcat import (DynkinQuiver, MeshCategory, TransQuiver, build_dynkin,
                      build_type_a, dynkin_a, dynkin_d4_subspace, load,
                      make_dynkin, make_quiver, save)
from .addcat import Mor, Obj, obj
from .rigidmodel import (Classification, FactorPair, NotRigidError,
                         RigidStructure, all_rigid_subsets, build_rigid)
from .oracle import (lemma_equivalence_suite, lifting_report,
                     rlp_against_generating_I, rlp_all_squares,
                     run_axiom_suite)
from .endalg import (check_equivalence, end_algebra, find_module_iso,
                     module_hom_dim, module_of)
from .d4scenario import bind as bind_d4
from .d4scenario import run_scenario as run_d4_scenario

__version__ = "0.1.0"
