"""Finite soluble group analysis, Cayley-ball growth, and growth
certificates: enumerated group tables with exact word metrics, chief-series
and self-centralizing rank analysis, the modified derived length with exact
cost arithmetic, bound verification suites, and the conjugate-chain
certificate pipeline.

The package imports lazily (PEP 562): ``import solgrow`` loads no submodule
and not numpy. A name below is looked up in its defining module on each
access, and that module is imported on first use, so ``from solgrow import
growth_table`` loads only what ``solgrow.growth`` needs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "elements": ("GenSet", "GroupElement", "Lamplighter", "MatFp", "MatZ", "Perm", "TreeAuto"),
    "errors": (
        "CapExceeded",
        "ContextViolated",
        "DegenerateWindow",
        "InvariantViolated",
        "MixedVariants",
        "NotNormal",
        "NotSelfCentralizing",
        "NotSoluble",
        "NotTransitive",
        "ParseError",
        "RankDeficient",
        "SeriesMismatch",
        "SolgrowError",
        "TrivialGroup",
        "UnknownName",
    ),
    "table": (
        "FiniteGroupTable",
        "QuotientGroup",
        "Subgroup",
        "commutator_subgroup",
        "conjugacy_classes",
        "derived_length",
        "derived_series",
        "enumerate_group",
        "is_soluble",
        "lower_central_series",
        "nilpotency_class",
        "normal_closure",
        "quotient",
        "subgroup_generated",
        "whole_group",
    ),
    "constructions": ("affine_semidirect", "matrix_wreath", "sym_gens", "wreath_product"),
    "soluble": (
        "ChiefFactorRecord",
        "NormalLattice",
        "chief_series",
        "is_supersoluble",
        "minimal_normal_subgroups",
        "normal_subgroups",
        "sc_chief_rank",
        "soluble_subgroups",
    ),
    "mu": ("ModifiedSeries", "MuValue", "mu_bruteforce", "mu_fast"),
    "bounds": (
        "is_irreducible",
        "mu_bound",
        "permutation_structure",
        "rho_bound",
        "rho_int_bound",
        "sigma_value",
    ),
    "catalog": ("catalog",),
    "growth": (
        "GrowthFit",
        "GrowthTable",
        "growth_exponent_fit",
        "growth_table",
        "s4_tower",
        "s4_tower_derived",
    ),
    "milnor": ("Certificate", "MilnorChain", "certify_growth_lower_bound", "milnor_chain"),
    "smallcases": ("verify_mu_theorem", "verify_small_cases"),
    "specio": ("load_genset", "parse_genset", "serialize_genset"),
}

# exported name -> submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds a submodule on its package when it first
        # loads it. `catalog` names both a submodule and the function it
        # exports; the function must win, whichever is imported first.
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
