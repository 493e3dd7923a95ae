"""Middle order on permutations: a distributive lattice on S_n defined
coordinate-wise on inversion sequences, sitting between the weak and
Bruhat orders, with counting, Moebius, Heyting and parking-function
structure, all cross-checked against a generic finite-poset oracle.

The public names load lazily (PEP 562): `import middleorder` imports no
submodule, and the first use of a name imports only its home module.
"""

import importlib

# Home module of each public name.
_HOMES = {
    "counting": (
        "boolean_by_rank", "boolean_interval_total", "covering_relation_count",
        "euler_characteristic", "euler_distribution", "interval_count_total",
        "intervals_by_rank", "is_boolean_interval", "polynomial_row",
        "stirling_first_unsigned",
    ),
    "heyting": ("is_regular", "pseudocomplement", "regular_elements", "relative_pseudocomplement"),
    "involutions": (
        "all_involutions", "clusters", "involution_count", "involution_seq_check",
        "is_slow_climbing", "maximal_slow_climbing_below", "mobius_involution_ideal",
        "slow_climb_decompose",
    ),
    "orders": (
        "bruhat_leq", "cover_mesh_witness", "join", "join_irreducibles", "meet",
        "middle_leq", "middle_poset", "mobius_middle", "rank", "upper_covers", "weak_leq",
    ),
    "parking": ("TOP", "all_parking_functions", "is_parking_function", "pf_join", "pf_leq", "pf_meet"),
    "permutations": (
        "MeshPattern", "all_permutations", "avoids_classical", "from_inversion_sequence",
        "identity", "inversion_sequence", "is_involution", "long_element", "mesh_contains",
    ),
    "posets": ("FinitePoset", "PosetError"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
