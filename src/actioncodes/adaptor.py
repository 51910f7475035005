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

from .codes import CodeMap, CodeTree, _nodes
from .errors import (
    CodeIncomplete,
    NotDeterminate,
    NotWinning,
    SutProtocolError,
)
from .lts import Label, Lts, explore
from .operators import contract

__all__ = [
    "TAU",
    "WinningTable",
    "solve_winning",
    "DeterminacyWitness",
    "is_determinate",
    "is_input_enabled",
    "InProcessSut",
    "ExternalSut",
    "AdaptorSession",
    "split_io",
    "adaptor_composition",
    "check_adaptor_theorem",
]

TAU = Label("τ")


def _require_mealy_code(code: CodeMap) -> None:
    if not all(a.is_mealy for a in code.source):
        raise ValueError("adaptor codes need Mealy labels on the tree")
    if not all(lab.is_mealy for lab, _ in code.entries):
        raise ValueError("adaptor codes need Mealy leaf labels")


class WinningTable:
    """For each tree node and abstract input: the concrete inputs that force
    the play into a leaf carrying that abstract input.

    Built once from the game's per-number tables, keyed by node name, for
    callers that name nodes; a labeled leaf wins its own abstract input with
    no input, ``()``.
    """

    def __init__(self, wins: dict[str, dict[str, tuple[str, ...]]]):
        self._wins = wins

    def winning_inputs(self, node: str, abstract_input: str) -> tuple[str, ...]:
        return self._wins.get(node, {}).get(abstract_input, ())

    def is_winning(self, node: str, abstract_input: str) -> bool:
        return abstract_input in self._wins.get(node, {})


class DeterminacyWitness(NamedTuple):
    node: str
    abstract_input: str
    first_input: str
    second_input: str


Wins = list[dict[str, tuple[str, ...]]]  # per node number: abstract input -> inputs


def _solve(code: CodeMap | CodeTree) -> tuple[Wins, DeterminacyWitness | None]:
    """Evaluate the adaptor game and check determinacy in one bottom-up pass.

    Entry ``n`` of the list maps each abstract input that node ``n`` wins to
    its sorted winning inputs.  A labeled leaf wins exactly the abstract
    input it carries, with ``()``.  An internal node wins an abstract input
    with concrete input i when it has an i-edge and every i-successor wins
    it.  A node is a determinacy conflict when leaves with the same abstract
    input lie below two of its concrete inputs.  Its least conflict starts at
    the least input that reaches the abstract input, so one pass over the
    sorted inputs finds it; the witness is that of the least node name.
    """
    code, name = _nodes(code)
    _require_mealy_code(code)
    # below[n]: the labels whose words pass through node n, none at a leaf
    kids, leaf, below = code._kids, code._leaf, code._below
    wins: Wins = [{}] * len(kids)
    witness = None
    for node in reversed(range(len(kids))):  # a child's number exceeds its parent's
        if leaf[node] is not None:  # labeled nodes are exactly the non-root leaves
            wins[node] = {leaf[node].symbol: ()}
            continue
        children: dict[str, list[int]] = {}
        for a, dst in kids[node].items():
            children.setdefault(a.symbol, []).append(dst)
        first: dict[str, str] = {}  # abstract input -> the least input reaching it
        won: dict[str, list[str]] = {}
        conflicts = []
        for i in sorted(children):
            dsts = children[i]
            for x in {b.symbol for d in dsts for b in below[d] or (leaf[d],)}:
                if first.setdefault(x, i) != i:
                    conflicts.append((first[x], i, x))
            for x in set(wins[dsts[0]]).intersection(*(wins[d] for d in dsts[1:])):
                won.setdefault(x, []).append(i)
        wins[node] = {x: tuple(inputs) for x, inputs in won.items()}
        if conflicts and (witness is None or name(node) < witness.node):
            i1, i2, x = min(conflicts)
            witness = DeterminacyWitness(name(node), x, i1, i2)
    return wins, witness


def solve_winning(code: CodeMap | CodeTree) -> WinningTable:
    """The winning table of the adaptor game over the code, keyed by node name."""
    name = _nodes(code)[1]
    return WinningTable({name(i): wins for i, wins in enumerate(_solve(code)[0])})


def is_determinate(code: CodeMap | CodeTree) -> tuple[bool, DeterminacyWitness | None]:
    """Whether each node offers at most one concrete input per abstract input.

    Fails when two edges with different concrete inputs both lead to
    subtrees containing a leaf with the same abstract input; the witness
    names the node, the shared abstract input, and the two concrete inputs.
    """
    witness = _solve(code)[1]
    return witness is None, witness


def _strategy(code: CodeMap | CodeTree) -> Wins:
    """The per-number win tables of a determinate code: one input per win."""
    wins, witness = _solve(code)
    if witness is not None:
        raise NotDeterminate(witness)
    return wins


def is_input_enabled(m: Lts) -> bool:
    """Every state accepts every input of the alphabet: one pass per out-list."""
    inputs = m.inputs
    return all(inputs <= {a.symbol for a, _ in m.out(q)} for q in m.states)


def _by_input(m: Lts) -> dict[str, dict[str, list[tuple[Label, str]]]]:
    """For each state and input symbol: the state's edges on that input, in
    out-list order.  One pass over the out-lists."""
    index = {}
    for q in m.states:
        index[q] = edges = {}
        for e in m.out(q):
            edges.setdefault(e[0][0], []).append(e)  # e[0][0]: the label's input
    return index


# -- SUT endpoints ----------------------------------------------------------


class InProcessSut:
    """A SUT backend driven by an in-memory Mealy machine.

    The machine must be input enabled.  When a state offers several outputs
    for an input, the choice is resolved by a scripted list of output
    symbols while it lasts, then by a seeded pseudo-random pick, so sessions
    are reproducible.  The machine's edges are indexed by state and input
    once, so an exchange costs the edges on its input, not the state's
    out-degree.
    """

    def __init__(self, machine: Lts, seed: int = 0, script: Sequence[str] | None = None):
        if not all(a.is_mealy for a in machine.alphabet):
            raise ValueError("in-process SUT needs a Mealy machine")
        if not is_input_enabled(machine):
            raise ValueError("in-process SUT machine must be input enabled")
        self.machine = machine
        self._edges = _by_input(machine)
        self._rng = random.Random(seed)
        self._script = deque(script or ())
        self._state = machine.initial
        self._pending: str | None = None

    def send(self, symbol: str) -> None:
        options = self._edges[self._state].get(symbol)
        if options is None:
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
    """Refuse a timeout that is not a number > 0 and at most
    ``threading.TIMEOUT_MAX``: ``select`` and sockets overflow past it, and a
    socket with timeout 0 does not block."""
    from threading import TIMEOUT_MAX

    if not 0 < timeout < float("inf"):  # nan fails both comparisons
        raise ValueError(f"the timeout must be a finite number > 0, got {timeout}")
    if timeout > TIMEOUT_MAX:
        raise ValueError(f"the timeout must be at most {TIMEOUT_MAX:.0f} s, got {timeout}")


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
    return to its initial state and expects no reply; it is no input symbol.
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
        if symbol == "RESET":  # the SUT would reset instead of answering
            raise SutProtocolError("the input symbol 'RESET' is reserved on the wire")
        self._write_line(symbol)

    def _write_line(self, line: str) -> None:
        try:
            self._write((line + "\n").encode("utf-8"))
        except OSError as exc:  # the SUT stopped reading: not a closed stdout
            raise SutProtocolError(f"cannot write to the SUT: {exc}") from exc

    def receive(self) -> str:
        """The next reply line, stripped, as a symbol: ``Label`` is its one judge."""
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
        try:  # not UTF-8 is a ValueError too
            return Label(line.decode("utf-8").strip()).symbol
        except ValueError:
            raise SutProtocolError(f"malformed output symbol {line!r} from the SUT") from None

    def reset(self) -> None:
        self._write_line("RESET")

    def close(self) -> None:
        self._close()

    def __enter__(self) -> "ExternalSut":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the adaptor runtime ----------------------------------------------------


class AdaptorSession:
    """One adaptor in front of one SUT endpoint.

    The code is a map or a tree.  Each abstract input restarts at the root
    of its prefix tree and walks down the numbered nodes: send the unique
    winning concrete input, read the SUT's output, follow the edge of their
    ``Label``, which judges the reply and is the exchange's one record.  The
    transcript holds ``(kind, value)`` events: ``("IN", x)``, ``("SUT",
    label)`` per exchange and ``("OUT", y)``, where y, the output of the
    leaf reached, is returned to the caller.  ``wins[n]`` maps each abstract
    input node n wins to its one input.  ``CodeIncomplete`` names a tree's
    node by its carrier state, a map's by its rendered word.  Not thread-safe.
    """

    def __init__(self, code: CodeMap | CodeTree, sut):
        self.wins = _strategy(code)
        self.code = code
        mapped, self._name = _nodes(code)
        self._kids, self._leaf = mapped._kids, mapped._leaf
        self.sut = sut
        self.transcript: list[tuple] = []

    def apply(self, abstract_input: str) -> str:
        wins, kids, leaf = self.wins, self._kids, self._leaf
        if abstract_input not in wins[0]:
            raise NotWinning(abstract_input)
        self.transcript.append(("IN", abstract_input))
        node = 0  # the root; a node the play reaches wins the input
        while leaf[node] is None:
            (concrete,) = wins[node][abstract_input]
            self.sut.send(concrete)
            label = Label(concrete, self.sut.receive())  # Label judges the reply
            self.transcript.append(("SUT", label))
            child = kids[node].get(label)
            if child is None:
                raise CodeIncomplete(self._name(node), concrete, label.output)
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
    ``!`` so inputs and outputs cannot collide.  A second-phase successor
    costs the edges on its input, read from an index built in one pass.
    """
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("split_io needs a Mealy machine")
    inputs = [(Label(x), x) for x in sorted(m.inputs)]
    by_input = _by_input(m)

    def successors(key):
        if isinstance(key, str):
            for label, x in inputs:
                yield label, (key, x)
        else:
            q, x = key
            for a, dst in by_input[q].get(x, ()):  # q may lack input x
                yield _emission(a.output), dst

    def name(key) -> str:
        return key if isinstance(key, str) else f"{key[0]}?{key[1]}"

    return explore(m.initial, successors, name, _learner_alphabet(m.alphabet))


def adaptor_composition(code: CodeMap | CodeTree, m: Lts) -> Lts:
    """The composed process of an adaptor for the code and a SUT model.

    States pair an adaptor phase with a SUT state: idle at the root of the
    code's prefix tree, or descending towards a leaf for a pending abstract
    input.  Keys hold node numbers; names name a node by its carrier state
    on a tree, by its rendered word (``ε`` at the root) on a map.  Each
    hidden step ``τ`` is one SUT transition: the node's winning concrete
    input with an output whose edge the node has; it costs the SUT state's
    edges on that input, read from an index built in one pass.  Abstract
    inputs and namespaced output emissions stay visible.
    """
    mapped, node_name = _nodes(code)
    _require_mealy_code(mapped)
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("the SUT model must be a Mealy machine")
    wins = _strategy(code)  # a tree's witness names its carrier state
    kids, leaf = mapped._kids, mapped._leaf
    lost = [n for n, b in enumerate(leaf) if b is not None and b.symbol not in wins[0]]
    if lost:  # the least-named leaf
        raise NotWinning(leaf[min(lost, key=node_name)].symbol)
    if not is_input_enabled(m):
        raise ValueError("the SUT model must be input enabled")

    abstract = [(Label(x), x) for x in sorted({a.symbol for a in mapped.target})]
    alphabet = _learner_alphabet(mapped.target)
    by_input = _by_input(m)

    def successors(key):
        if key[0] == "P":
            _, q = key
            for label, x in abstract:
                yield label, ("Q", 0, x, q)
        else:
            _, node, x, q = key
            if leaf[node] is not None:
                yield _emission(leaf[node].output), ("P", q)
            elif inputs := wins[node].get(x):
                # One SUT transition per hidden step; m may lack the input.
                for a, q2 in by_input[q].get(inputs[0], ()):
                    if a in kids[node]:
                        yield TAU, ("Q", kids[node][a], x, q2)

    def name(key) -> str:
        if key[0] == "P":
            return f"P∥{key[1]}"
        return f"Q({node_name(key[1])},{key[2]})∥{key[3]}"

    return explore(("P", m.initial), successors, name, alphabet)


def check_adaptor_theorem(code: CodeMap | CodeTree, m: Lts) -> bool:
    """Whether the composed adaptor/SUT process and the contraction of the
    SUT model delay-simulate each other (hidden moves absorbed)."""
    from .simulation import _simulates

    composed = adaptor_composition(code, m)
    learner_view = split_io(contract(_nodes(code)[0], m))
    return _simulates(composed, learner_view, TAU) and _simulates(learner_view, composed, TAU)
