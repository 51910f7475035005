"""Action codes on finite labeled transition systems and Mealy machines.

The package models prefix-free translations between a concrete and an
abstract action alphabet, the three operators such a translation induces on
systems (contraction, refinement, concretization), deciders for the
simulation preorder and reachable-part isomorphism used to verify their
laws, and a runnable adaptor that lets an abstract learner or tester drive
a concrete system under test.

Each public name is imported from its submodule on first use, so importing
the package, or one submodule such as the CLI, loads no other submodule.
"""

# Each public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in (
        ("codes", "CodeMap CodeTree compose to_map to_tree"),
        ("errors", "ActionCodesError AlphabetMismatch CodeIncomplete EmptyCodeWord"
                   " InvalidTree IsomorphismInconclusive NotDeterminate NotWinning"
                   " PrefixClash SutProtocolError"),
        ("lts", "CompatRel Label Lts Word is_deterministic"),
        ("operators", "CHAOS concretize contract is_icomplete refine"),
        ("adaptor", "AdaptorSession ExternalSut InProcessSut TAU adaptor_composition"
                    " check_adaptor_theorem is_determinate is_input_enabled"
                    " solve_winning split_io"),
        ("simulation", "find_delay_simulation find_isomorphism_reachable find_simulation"
                       " is_delay_simulation is_simulation"),
    )
    for name in names.split()
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
