"""Adaptors: translating between an abstract learner/tester and a concrete SUT.

Given a code over Mealy labels, an adaptor answers each abstract input by
steering the system under test through the code tree, choosing concrete
inputs from a winning strategy of the induced two-player game (the SUT picks
the outputs) until a leaf carrying the requested abstract input is reached.
The module also builds the explicit composed process of an adaptor with a
SUT model, whose hidden synchronizations let the learner-visible behavior be
compared against the contraction of the SUT model.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .codes import CodeTree, to_map
from .errors import (
    CodeIncomplete,
    NotDeterminate,
    NotWinning,
    SutProtocolError,
)
from .lts import CompatRel, Label, Lts, explore, is_deterministic
from .operators import contract

__all__ = [
    "TAU",
    "WinningTable",
    "solve_winning",
    "DeterminacyWitness",
    "is_determinate",
    "is_output_deterministic",
    "is_input_enabled",
    "InProcessSut",
    "ExternalSut",
    "AdaptorSession",
    "format_transcript",
    "split_io",
    "adaptor_composition",
    "check_adaptor_theorem",
]

TAU = Label("τ")


def _require_mealy_tree(tree: CodeTree) -> None:
    if not all(a.is_mealy for a in tree._code.source):
        raise ValueError("adaptor codes need Mealy labels on the tree")
    if not all(lab.is_mealy for _, lab in tree.leaf_labels):
        raise ValueError("adaptor codes need Mealy leaf labels")


class WinningTable:
    """For each tree node and abstract input: the concrete inputs that force
    the play into a leaf carrying that abstract input.

    ``wins`` holds the winning pairs only, keyed by carrier name, with sorted
    inputs; a labeled leaf wins its own abstract input with no input, ``()``.
    """

    def __init__(self, wins: dict[tuple[str, str], tuple[str, ...]]):
        self._wins = wins

    def winning_inputs(self, node: str, abstract_input: str) -> tuple[str, ...]:
        return self._wins.get((node, abstract_input), ())

    def is_winning(self, node: str, abstract_input: str) -> bool:
        return (node, abstract_input) in self._wins


class DeterminacyWitness(NamedTuple):
    node: str
    abstract_input: str
    first_input: str
    second_input: str


def _solve(tree: CodeTree) -> tuple[WinningTable, DeterminacyWitness | None]:
    """Evaluate the adaptor game and check determinacy in one bottom-up pass.

    A labeled leaf wins exactly the abstract input it carries.  An internal
    node wins an abstract input with concrete input i when it has an i-edge
    and every i-successor wins that abstract input.  A node is a determinacy
    conflict when leaves with the same abstract input lie below two of its
    concrete inputs; the witness is the first conflict of the least node name.
    """
    _require_mealy_tree(tree)
    kids, leaf, names = tree._code._kids, tree._code._leaf, tree._names
    below: dict[int, set[str]] = {}  # abstract inputs of the leaves under a node
    won: dict[int, set[str]] = {}  # abstract inputs a node wins
    wins: dict[tuple[str, str], tuple[str, ...]] = {}
    witness = None
    for node in reversed(range(len(kids))):  # a child's number exceeds its parent's
        name = names[node]
        if leaf[node] is not None:  # labeled nodes are exactly the non-root leaves
            x = leaf[node].symbol
            below[node] = won[node] = {x}
            wins[(name, x)] = ()
            continue
        # Per concrete input: what its successors reach, and what they all win.
        reached: dict[str, set[str]] = {}
        forced: dict[str, set[str]] = {}
        for a, dst in kids[node].items():
            i = a.symbol
            reached[i] = reached.get(i, set()) | below[dst]
            forced[i] = forced[i] & won[dst] if i in forced else won[dst]
        below[node] = set().union(*reached.values())
        won[node] = set().union(*forced.values())
        for x in won[node]:
            wins[(name, x)] = tuple(sorted(i for i, xs in forced.items() if x in xs))
        conflict = sum(map(len, reached.values())) > len(below[node])  # the sets overlap
        if conflict and (witness is None or name < witness.node):
            inputs = sorted(reached)
            witness = next(
                (
                    DeterminacyWitness(name, min(shared), i1, i2)
                    for k, i1 in enumerate(inputs)
                    for i2 in inputs[k + 1 :]
                    if (shared := reached[i1] & reached[i2])
                ),
                witness,
            )
    return WinningTable(wins), witness


def solve_winning(tree: CodeTree) -> WinningTable:
    """The winning table of the adaptor game over the code tree."""
    return _solve(tree)[0]


def is_determinate(tree: CodeTree) -> tuple[bool, DeterminacyWitness | None]:
    """Whether each node offers at most one concrete input per abstract input.

    Fails when two edges with different concrete inputs both lead to
    subtrees containing a leaf with the same abstract input; the witness
    names the node, the shared abstract input, and the two concrete inputs.
    """
    witness = _solve(tree)[1]
    return witness is None, witness


def _strategy(tree: CodeTree) -> WinningTable:
    """The winning table of a determinate code: at most one input per win."""
    table, witness = _solve(tree)
    if witness is not None:
        raise NotDeterminate(witness)
    return table


def is_output_deterministic(m: Lts) -> bool:
    """One output and one successor per state and input."""
    return is_deterministic(m, CompatRel.same_input(m.alphabet))


def is_input_enabled(m: Lts) -> bool:
    """Every state accepts every input of the alphabet: one pass per out-list."""
    inputs = m.inputs
    return all(inputs <= {a.symbol for a, _ in m.out(q)} for q in m.states)


# -- SUT endpoints ----------------------------------------------------------


class InProcessSut:
    """A SUT backend driven by an in-memory Mealy machine.

    The machine must be input enabled.  When a state offers several outputs
    for an input, the choice is resolved by a scripted list of output
    symbols while it lasts, then by a seeded pseudo-random pick, so sessions
    are reproducible.
    """

    def __init__(self, machine: Lts, seed: int = 0, script: Sequence[str] | None = None):
        if not all(a.is_mealy for a in machine.alphabet):
            raise ValueError("in-process SUT needs a Mealy machine")
        if not is_input_enabled(machine):
            raise ValueError("in-process SUT machine must be input enabled")
        self.machine = machine
        self._rng = random.Random(seed)
        self._script = deque(script or ())
        self._state = machine.initial
        self._pending: str | None = None

    def send(self, symbol: str) -> None:
        options = [e for e in self.machine.out(self._state) if e[0].symbol == symbol]
        if not options:
            raise SutProtocolError(f"machine rejects input {symbol!r} in state {self._state!r}")
        if self._script:
            wanted = self._script.popleft()
            matching = [e for e in options if e[0].output == wanted]
            if not matching:
                raise SutProtocolError(
                    f"scripted output {wanted!r} is not enabled for input "
                    f"{symbol!r} in state {self._state!r}"
                )
            label, nxt = matching[0]
        else:
            label, nxt = self._rng.choice(options)
        self._state = nxt
        self._pending = label.output

    def receive(self) -> str:
        if self._pending is None:
            raise SutProtocolError("receive() called before send()")
        out, self._pending = self._pending, None
        return out

    def reset(self) -> None:
        self._state = self.machine.initial
        self._pending = None


def _check_timeout(timeout: float) -> None:
    """Refuse a timeout that is not a finite number > 0: ``select`` and
    sockets reject infinity, and a socket with timeout 0 does not block."""
    if not 0 < timeout < float("inf"):  # nan fails both comparisons
        raise ValueError(f"the timeout must be a finite number > 0, got {timeout}")


def _reader(stream):
    """``read_some`` for a pipe or socket: wait until it is readable, then read.
    It keeps the stream, not its number, so a read after ``close`` raises."""
    import select

    def read_some(deadline: float) -> bytes:
        if not select.select([stream], [], [], deadline)[0]:
            raise SutProtocolError("timed out waiting for the SUT")
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            raise SutProtocolError("the SUT closed its output")
        return chunk

    return read_some


#: The longest output line, newline excluded, that an external SUT may send.
LINE_CAP = 64 * 1024


class ExternalSut:
    """A SUT behind a newline-delimited byte stream (child process or TCP).

    The adaptor writes one input symbol per line; the SUT answers with one
    output symbol per line.  The literal line ``RESET`` asks the SUT to
    return to its initial state and expects no reply.
    """

    def __init__(self, write, read_some, close, timeout: float = 5.0):
        self._write = write
        self._read_some = read_some
        self._close = close
        self.timeout = timeout
        self._buffer = bytearray()

    @classmethod
    def spawn(cls, command: Sequence[str], timeout: float = 5.0) -> "ExternalSut":
        import subprocess
        _check_timeout(timeout)
        proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,  # unbuffered: each write reaches the SUT at once
        )

        def close() -> None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.terminate()
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

        return cls(proc.stdin.write, _reader(proc.stdout), close, timeout)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 5.0) -> "ExternalSut":
        import socket
        _check_timeout(timeout)
        if not 0 < port < 65536:  # the resolver would truncate it to 16 bits
            raise ValueError(f"the port must be in 1..65535, got {port}")
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock.sendall, _reader(sock), sock.close, timeout)

    def send(self, symbol: str) -> None:
        try:
            self._write((symbol + "\n").encode("utf-8"))
        except OSError as exc:  # the SUT stopped reading: not a closed stdout
            raise SutProtocolError(f"cannot write to the SUT: {exc}") from exc

    def receive(self) -> str:
        deadline = time.monotonic() + self.timeout  # one for the whole line
        buffer, scanned = self._buffer, 0  # no newline before ``scanned``
        while (end := buffer.find(b"\n", scanned)) < 0 and len(buffer) <= LINE_CAP:
            wait = deadline - time.monotonic()
            if wait <= 0:
                raise SutProtocolError("timed out waiting for the SUT")
            scanned = len(buffer)
            buffer += self._read_some(wait)
        if not 0 <= end <= LINE_CAP:
            raise SutProtocolError(f"an output line from the SUT is longer than {LINE_CAP} bytes")
        line = bytes(buffer[:end])
        del buffer[: end + 1]  # a bytearray drops its front without copying the rest
        try:
            symbol = line.decode("utf-8").strip()
        except UnicodeDecodeError:
            symbol = ""  # not UTF-8: refused below as malformed
        if not symbol or any(ch.isspace() for ch in symbol) or "/" in symbol:
            raise SutProtocolError(f"malformed output symbol {line!r} from the SUT")
        return symbol

    def reset(self) -> None:
        self.send("RESET")

    def close(self) -> None:
        self._close()

    def __enter__(self) -> "ExternalSut":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the adaptor runtime ----------------------------------------------------


def format_transcript(events: Iterable[tuple]) -> list[str]:
    lines = []
    for event in events:
        if event[0] == "SUT":
            lines.append(f"SUT {event[1]}/{event[2]}")
        else:
            lines.append(f"{event[0]} {event[1]}")
    return lines


class AdaptorSession:
    """One adaptor in front of one SUT endpoint.

    Each abstract input restarts the code tree at its root and walks down
    its numbered nodes: send the unique winning concrete input, read the
    SUT's output, follow the corresponding edge.  The leaf reached carries
    the abstract input/output pair whose output component is returned to the
    caller.  Not safe for concurrent use from several threads.
    """

    def __init__(self, tree: CodeTree, sut):
        self.table = _strategy(tree)
        self.tree = tree
        self.sut = sut
        self.transcript: list[tuple] = []

    def apply(self, abstract_input: str) -> str:
        table, tree = self.table, self.tree
        kids, leaf, names = tree._code._kids, tree._code._leaf, tree._names
        if not table.is_winning(names[0], abstract_input):
            raise NotWinning(abstract_input)
        self.transcript.append(("IN", abstract_input))
        node = 0  # the root; a node the play reaches wins the input
        while leaf[node] is None:
            (concrete,) = table.winning_inputs(names[node], abstract_input)
            self.sut.send(concrete)
            observed = self.sut.receive()
            self.transcript.append(("SUT", concrete, observed))
            child = kids[node].get(Label(concrete, observed))  # Label checks the reply
            if child is None:
                raise CodeIncomplete(names[node], concrete, observed)
            node = child
        leaf_label = leaf[node]
        assert leaf_label.symbol == abstract_input
        self.transcript.append(("OUT", leaf_label.output))
        return leaf_label.output


# -- explicit process composition -------------------------------------------


def _emission(y: str) -> Label:
    return Label(f"{y}!")


def _learner_alphabet(abstract: Iterable[Label]) -> frozenset[Label]:
    xs = sorted({lab.symbol for lab in abstract})
    ys = sorted({lab.output for lab in abstract})
    labels = [Label(x) for x in xs] + [_emission(y) for y in ys] + [TAU]
    if len(set(labels)) != len(labels):
        raise ValueError("abstract input/output symbols collide after namespacing")
    return frozenset(labels)


def split_io(m: Lts) -> Lts:
    """Two-phase view of a Mealy machine with inputs and outputs separated.

    The view covers the states reachable from the initial one.  Every state
    first accepts any input of the alphabet, then emits one of the outputs
    the machine allows for it; emissions are namespaced with a trailing
    ``!`` so inputs and outputs cannot collide.
    """
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("split_io needs a Mealy machine")
    xs = sorted(m.inputs)

    def successors(key):
        if isinstance(key, str):
            for x in xs:
                yield Label(x), (key, x)
        else:
            q, x = key
            for a, dst in m.out(q):
                if a.symbol == x:
                    yield _emission(a.output), dst

    def name(key) -> str:
        return key if isinstance(key, str) else f"{key[0]}?{key[1]}"

    return explore(m.initial, successors, name, _learner_alphabet(m.alphabet))


def adaptor_composition(tree: CodeTree, m: Lts) -> Lts:
    """The composed process of an adaptor for the code and a SUT model.

    States pair an adaptor phase with a SUT state: idle at the tree root,
    descending towards a leaf for a pending abstract input, or waiting for
    the SUT's output after forwarding a concrete input; keys hold node
    numbers, names the carrier's.  Synchronizations on concrete inputs and
    outputs are hidden as ``τ``; abstract inputs and namespaced output
    emissions stay visible.
    """
    _require_mealy_tree(tree)
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("the SUT model must be a Mealy machine")
    table = _strategy(tree)
    for _, lab in tree.leaf_labels:
        if not table.is_winning(tree.root, lab.symbol):
            raise NotWinning(lab.symbol)
    if not is_input_enabled(m):
        raise ValueError("the SUT model must be input enabled")

    xs = sorted({a.symbol for a in tree.abstract})
    alphabet = _learner_alphabet(tree.abstract)
    kids, leaf, names = tree._code._kids, tree._code._leaf, tree._names

    def successors(key):
        if key[0] == "P":
            _, q = key
            for x in xs:
                yield Label(x), ("Q", 0, x, q)
        elif key[0] == "Q":
            _, node, x, q = key
            if leaf[node] is not None:
                yield _emission(leaf[node].output), ("P", q)
            elif inputs := table.winning_inputs(names[node], x):
                yield TAU, ("R", node, x, q, inputs[0])
        else:
            _, node, x, q, i = key
            for a, q2 in m.out(q):
                if a.symbol == i and a in kids[node]:
                    yield TAU, ("Q", kids[node][a], x, q2)

    def name(key) -> str:
        if key[0] == "P":
            return f"P∥{key[1]}"
        if key[0] == "Q":
            return f"Q({names[key[1]]},{key[2]})∥{key[3]}"
        return f"R({names[key[1]]},{key[2]})∥{key[3]}?{key[4]}"

    return explore(("P", m.initial), successors, name, alphabet)


def check_adaptor_theorem(tree: CodeTree, m: Lts) -> bool:
    """Whether the composed adaptor/SUT process and the contraction of the
    SUT model delay-simulate each other (hidden moves absorbed)."""
    from .simulation import _delay_simulates

    composed = adaptor_composition(tree, m)
    learner_view = split_io(contract(to_map(tree), m))
    return _delay_simulates(composed, learner_view, TAU) and _delay_simulates(
        learner_view, composed, TAU
    )
