"""The package's public names, pinned: adding or removing one is an edit here."""

from __future__ import annotations

import types

import actioncodes

PUBLIC = set("""
    CodeMap CodeTree compose to_map to_tree
    ActionCodesError AlphabetMismatch CodeIncomplete EmptyCodeWord InvalidTree
    IsomorphismInconclusive NotDeterminate NotDeterministic NotWinning PrefixClash
    SutProtocolError
    CompatRel Label Lts Word is_deterministic structural_predicates
    CHAOS concretize contract is_icomplete refine
    AdaptorSession ExternalSut InProcessSut TAU adaptor_composition check_adaptor_theorem
    is_determinate is_input_enabled is_output_deterministic run_adaptor solve_winning split_io
    find_delay_simulation find_isomorphism_reachable find_simulation
    is_delay_simulation is_simulation
""".split())


def test_public_names_are_pinned():
    # Submodules become attributes once imported anywhere, so they are left out.
    names = {
        name
        for name in dir(actioncodes)
        if not name.startswith("_")
        and not isinstance(getattr(actioncodes, name), types.ModuleType)
    }
    assert names == PUBLIC
