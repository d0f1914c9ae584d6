"""The public API: which names ``renyivar`` exports, and from where.

Each module's ``__all__`` is its public API; the package re-exports those
lists.  These tests pin the exported names and the module each one lives in,
so that a name cannot appear, vanish, move or be shadowed unnoticed.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import renyivar

# Every public name, grouped by the module that defines it.
HOMES = {
    "config": ["TOL", "Tolerances"],
    "distributions": ["Alpha", "Dist", "abs_cont", "rel_entropy", "renyi_div", "renyi_via_reference"],
    "errors": [
        "AbsoluteContinuityError",
        "BalanceError",
        "ClassStructureError",
        "DimensionMismatchError",
        "ExtRealArithmeticError",
        "InfeasiblePointError",
        "InputValidationError",
        "InvalidAlphaError",
        "InvalidDistributionError",
        "PathSpaceError",
        "PerronConvergenceError",
        "RenyiVarError",
    ],
    "extreal": ["ExtReal", "NEG_INF", "POS_INF"],
    "markov": [
        "Kernel",
        "PairMeasure",
        "abs_cont_pair",
        "check_abs_cont_lift",
        "kernel",
        "path_distribution",
        "rel_entropy_rate",
        "renyi_rate",
        "support",
    ],
    "markov_variational": [
        "EdgeFn",
        "MarkovVarSolution",
        "RhoIdentityReport",
        "certify_markov_acd",
        "certify_markov_inequality",
        "markov_acd_inf",
        "markov_acd_sup",
        "markov_objective",
        "rho_identities_check",
        "solve_markov_variational",
        "varadhan_growth",
        "varadhan_solve",
    ],
    "oracles": [
        "ConvergenceReport",
        "IIDVariationalProblem",
        "MarkovVariationalProblem",
        "RandomSearchReport",
        "easyvar_finite_n_oracle",
        "easyvar_oracle_report",
        "random_search_extremum",
        "rel_entropy_rate_oracle",
        "renyi_rate_oracle",
    ],
    "spectral": [
        "ClassDecomposition",
        "NonnegMatrix",
        "PerronData",
        "classes",
        "compatible",
        "growth_rate",
        "growth_rate_bruteforce",
        "growth_rate_from_log",
        "has_cycle",
        "log_mass_sequence",
        "maximal_abs_cont",
        "perron",
        "perron_from_log",
    ],
    "variational": [
        "BoundedFn",
        "CertResult",
        "VarSolution",
        "acd_certify",
        "acd_inf",
        "acd_sup",
        "certify_inequality",
        "dv_solve",
        "log_exp_integral",
        "objective",
        "solve_variational",
        "truncated_optimizer",
        "truncation_caps",
    ],
}
PUBLIC = sorted([name for names in HOMES.values() for name in names] + ["__version__"])

MODULES = sorted(info.name for info in pkgutil.iter_modules(renyivar.__path__))


def test_all_lists_the_eighty_public_names():
    assert len(PUBLIC) == 80
    assert sorted(renyivar.__all__) == PUBLIC
    assert len(set(renyivar.__all__)) == len(renyivar.__all__)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_the_object_of_its_home_module(module):
    home = importlib.import_module(f"renyivar.{module}")
    assert sorted(home.__all__) == HOMES[module]
    for name in HOMES[module]:
        obj = getattr(home, name)
        assert getattr(renyivar, name) is obj
        # Defined here, not imported; for TOL, NEG_INF and POS_INF, their class is.
        assert obj.__module__ == home.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from renyivar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(renyivar, name) for name in PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"renyivar.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"renyivar.{module}.__all__ names missing {name!r}"


def test_no_two_modules_export_the_same_name():
    seen: dict[str, str] = {}
    for module in MODULES:
        for name in getattr(importlib.import_module(f"renyivar.{module}"), "__all__", []):
            assert name not in seen, f"{name!r} is exported by both {seen[name]} and {module}"
            seen[name] = module
