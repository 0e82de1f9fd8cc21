"""Digit-exact (u, m, e, s)-nets, mixed (ordered) orthogonal arrays, and bounds.

The package materializes one combinatorial dictionary in three languages:

* low-discrepancy point sets with per-coordinate resolution vectors,
  verified exhaustively against elementary boxes (:mod:`evnets.netverify`);
* mixed orthogonal arrays obtained from leading digits
  (:mod:`evnets.oa`) and ordered mixed arrays obtained from digit blocks,
  including the inverse reconstruction (:mod:`evnets.ooa`);
* exact necessary conditions (Rao-type row bounds, per-resolution coordinate
  budgets) in :mod:`evnets.bounds`, plus constructive character-sum
  certificates, decided exactly, in :mod:`evnets.dualcert`.

Deterministic generators and a desk-scale existence search live in
:mod:`evnets.corpus`; canonical text formats in :mod:`evnets.io`; the
command-line interface in :mod:`evnets.cli`.
"""

import importlib

# The module behind each public name. A name is imported on first use
# (PEP 562), so a process loads only the modules it touches: the bound
# calculators and the command line's parser never load numpy.
_SOURCES = {
    "bounds": ("Condition", "FeasibilityReport", "feasibility_report", "net_rao_check",
               "rao_rhs", "seq_budget_check"),
    "core": ("MixedOA", "MixedOOA", "PointSet", "Verdict"),
    "corpus": ("SearchResult", "digital_net", "faure", "flip_digit", "grid_1d",
               "hammersley", "random_pointset", "search_net"),
    "dualcert": ("build_block_family", "char_exponents", "gram_certificate"),
    "errors": ("FormatError", "ParamError", "PrecisionError", "VerificationError"),
    "evector": ("EVector",),
    "io": ("NetFile", "moa_chunks", "mooa_chunks", "net_chunks", "parse_function_tuples",
           "parse_moa", "parse_mooa", "parse_net"),
    "netverify": ("check_shapes", "rebase_compress", "rebase_expand", "u_star", "verify_net",
                  "verify_sequence_prefix"),
    "oa": ("max_strength", "net_to_moa", "verify_moa"),
    "ooa": ("canonical_beta", "enumerate_profiles", "mooa_to_net", "net_to_mooa",
            "verify_mooa"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = list(_MODULE_OF)
# Submodules an eager import used to load, still reachable as attributes.
_SUBMODULES = {*_SOURCES, "_util"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})


__version__ = "0.1.0"
