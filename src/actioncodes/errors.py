"""Exception types shared across the package."""

from __future__ import annotations


class ActionCodesError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetMismatch(ActionCodesError):
    """An operation was applied to values over incompatible alphabets."""


class EmptyCodeWord(ActionCodesError):
    """A code maps an abstract label to the empty word."""

    def __init__(self, label):
        super().__init__(f"code word for {label} is empty")


class PrefixClash(ActionCodesError):
    """One code word is a prefix of another, so decoding would be ambiguous."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(f"code word for {first} is a prefix of the one for {second}")


class InvalidTree(ActionCodesError):
    """A tree-form code violates one of its structural invariants."""


class NotDeterminate(ActionCodesError):
    """A code admits two winning inputs at a node, so an adaptor cannot pick one."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "code is not determinate: node %s can reach %s-leaves through both "
            "input %s and input %s" % witness
        )


class NotWinning(ActionCodesError):
    """The code has no winning strategy for a requested abstract input."""

    def __init__(self, abstract_input: str):
        self.abstract_input = abstract_input
        super().__init__(f"no winning strategy for abstract input {abstract_input!r}")


class CodeIncomplete(ActionCodesError):
    """The system under test produced an output the code has no edge for."""

    def __init__(self, node: str, concrete_input: str, observed_output: str):
        self.node = node
        self.concrete_input = concrete_input
        self.observed_output = observed_output
        super().__init__(
            f"code node {node!r} has no edge {concrete_input}/{observed_output}: "
            "observed an output outside the code"
        )


class SutProtocolError(ActionCodesError):
    """The external system under test broke the line protocol."""


class IsomorphismInconclusive(ActionCodesError):
    """The isomorphism search exceeded its node budget without a verdict."""
