"""Action codes on finite labeled transition systems and Mealy machines.

The package models prefix-free translations between a concrete and an
abstract action alphabet, the three operators such a translation induces on
systems (contraction, refinement, concretization), deciders for the
simulation preorder and reachable-part isomorphism used to verify their
laws, and a runnable adaptor that lets an abstract learner or tester drive
a concrete system under test.
"""

from .codes import CodeMap, CodeTree, compose, to_map, to_tree
from .errors import (
    ActionCodesError,
    AlphabetMismatch,
    CodeIncomplete,
    EmptyCodeWord,
    InvalidTree,
    IsomorphismInconclusive,
    NotDeterminate,
    NotWinning,
    PrefixClash,
    SutProtocolError,
)
from .lts import (
    CompatRel,
    Label,
    Lts,
    Word,
    is_deterministic,
)
from .operators import CHAOS, concretize, contract, is_icomplete, refine
from .adaptor import (
    AdaptorSession,
    ExternalSut,
    InProcessSut,
    TAU,
    adaptor_composition,
    check_adaptor_theorem,
    is_determinate,
    is_input_enabled,
    is_output_deterministic,
    solve_winning,
    split_io,
)
from .simulation import (
    find_delay_simulation,
    find_isomorphism_reachable,
    find_simulation,
    is_delay_simulation,
    is_simulation,
)

__version__ = "0.1.0"
