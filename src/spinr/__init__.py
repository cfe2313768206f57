"""Exact decision procedures for invariant spin^r structures on
homogeneous spaces: fundamental-group bookkeeping, the parity lifting
criterion, representation-family catalogs and the sphere table."""

from .abelian import (
    AbElem,
    AbHom,
    FgAbGroup,
    Subgroup,
    contains,
    direct_product,
    mod2,
)
from .catalog import Catalog, load, load_default, loads
from .catalogfile import SpinrError
from .liecat import AlgebraProfile, CompactGroupRec, SimpleIdeal, so_group, so_pi1
from .lifting import LiftQuery, LiftVerdict, lift_subgroup, lifts
from .repcat import (
    EnumResult,
    OrthRepFamily,
    RuleProof,
    enumerate_homs,
    first_possible_rank,
    no_nontrivial_hom,
)
from .spaces import (
    Classification,
    HomSpaceRec,
    SpinTypeResult,
    canonical_structure,
    classify,
    holonomy_lift,
    invariant_spin_type,
)

__version__ = "0.1.0"

__all__ = [
    "AbElem",
    "AbHom",
    "AlgebraProfile",
    "Catalog",
    "Classification",
    "CompactGroupRec",
    "EnumResult",
    "FgAbGroup",
    "HomSpaceRec",
    "LiftQuery",
    "LiftVerdict",
    "OrthRepFamily",
    "RuleProof",
    "SimpleIdeal",
    "SpinTypeResult",
    "SpinrError",
    "Subgroup",
    "canonical_structure",
    "classify",
    "contains",
    "direct_product",
    "enumerate_homs",
    "first_possible_rank",
    "holonomy_lift",
    "invariant_spin_type",
    "lift_subgroup",
    "lifts",
    "load",
    "load_default",
    "loads",
    "mod2",
    "no_nontrivial_hom",
    "so_group",
    "so_pi1",
]
