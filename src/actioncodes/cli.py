"""Command-line interface.

Exit codes: 0 success or PASS, 1 check FAIL, 2 malformed input or validation
error (with a machine-readable ``ERROR`` line on stderr), 3 no winning
strategy for a requested abstract input, 4 the SUT produced an output the
code has no edge for, 130 (128 + SIGINT) the run was interrupted, with one
``ERROR KeyboardInterrupt`` line, 141 (128 + SIGPIPE) stdout was closed before
all output was written, as by ``| head``, and nothing goes to stderr.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

# ``adaptor``, ``generate`` and ``simulation`` are imported by the handlers
# that use them, so a call loads only the modules of its verb.
from .codes import CodeMap, compose, to_map, to_tree
from .documents import (
    DocumentError,
    code_from_document,
    code_to_document,
    dumps,
    loads,
    lts_from_document,
    lts_to_document,
    tree_from_document,
    tree_to_document,
)
from .errors import (
    ActionCodesError,
    CodeIncomplete,
    NotDeterminate,
    NotWinning,
)
from .lts import CompatRel, Label, Lts, is_deterministic
from .operators import concretize, contract, is_icomplete, refine

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_WINNING = 3
EXIT_CODE_INCOMPLETE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def _file(path: str) -> Path:
    """A file argument; an empty one is refused, as ``Path("")`` is ``.``."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty path", path)
    return Path(path)


def _text(path: str | None) -> str:
    """The UTF-8 text of an input file, or of stdin without a path; any
    failure to read it names the path."""
    try:
        if path is not None:
            return _file(path).read_text(encoding="utf-8")
        # Stdin's bytes are decoded here: the locale's decoding may turn a
        # byte that is not UTF-8 into a surrogate.  A text stand-in without
        # bytes underneath (io.StringIO) holds decoded text already.
        stdin = sys.stdin
        if stdin is None:  # fd 0 was closed, as by ``<&-``
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {'<stdin>' if path is None else path}: {exc}") from exc


def _load(argument: str, path: str):
    """Load the document named by a verb argument; the name picks the loader."""
    doc = loads(_text(path))
    if argument in ("code", "inner", "outer"):
        return code_from_document(doc)
    if argument == "tree":
        return tree_from_document(doc)
    return lts_from_document(doc)


def _emit(doc: dict, out: str | None) -> None:
    text = dumps(doc)
    if out is not None:  # an empty path is unusable, not absent
        _file(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _rel(args, code: CodeMap) -> CompatRel:
    return CompatRel.by_name(args.rel, code.source)


def _cmd_gen(args) -> int:
    import string

    from .generate import gen_code, gen_lts, gen_mealy, letters, mealy_alphabet

    if args.what == "lts":
        doc = lts_to_document(
            gen_lts(args.seed, args.states, args.labels, args.deterministic)
        )
    elif args.what == "mealy":
        machine = gen_mealy(
            args.seed,
            args.states,
            args.inputs,
            args.outputs,
            input_enabled=args.input_enabled,
            output_deterministic=args.output_deterministic,
        )
        doc = lts_to_document(machine)
    else:
        source, target = args.labels, args.abstract
        if args.mealy:
            target = [
                Label(x, str(j))
                for x in letters(args.abstract, "abstract symbols", string.ascii_uppercase)
                for j in range(args.outputs)
            ]
            source = mealy_alphabet(args.inputs, args.outputs)
        doc = code_to_document(gen_code(args.seed, source, target, args.abstract, args.maxlen))
    _emit(doc, args.out)
    return EXIT_OK


# -- check verbs -------------------------------------------------------------

# Each check returns ``(ok, rows)``: a row is a tuple whose first item names a
# fact or a witness and whose other items are its values; ``_run_check``
# prints it as one line of words.  The keys of a determinacy witness, each with
# its field, in a ``check determinate`` row and the ``ERROR NotDeterminate`` line:
_DETERMINACY = dict(node="node", input="abstract_input", first="first_input", second="second_input")


def _keyed(record, **fields) -> tuple[str, ...]:
    """``key=value`` words: each key with the value of the ``record`` field it names."""
    return tuple(f"{key}={getattr(record, field)}" for key, field in fields.items())


def _isomorphism(args, m: Lts, n: Lts):
    from .simulation import find_isomorphism_reachable

    mapping = find_isomorphism_reachable(m, n)
    return mapping is not None, [("map", q, p) for q, p in sorted((mapping or {}).items())]


def _simulation(args, left, right):
    from .simulation import find_simulation

    witness = find_simulation(left, right)
    return witness is not None, [("pair", q, p) for q, p in sorted(witness or ())]


def _icomplete(args, code, machine):
    ok, w = is_icomplete(code, _rel(args, code), machine)
    return ok, [] if w is None else [
        ("witness", *_keyed(w, state="state", node="node", enabled="enabled", missing="missing"))
    ]


def _winning(args, code):
    from .adaptor import _solve

    wins = _solve(code)[0][0]  # the root's: abstract input -> winning inputs
    if args.abstract_input is None:
        wanted = sorted({b.symbol for b, _ in code.entries})
    else:  # "" or "a b" is no symbol: Label refuses it
        wanted = [Label(args.abstract_input).symbol]
    rows = [("winning", x, ",".join(wins[x])) if x in wins else ("not-winning", x)
            for x in wanted]
    return all(x in wins for x in wanted), rows


def _determinate(args, code):
    from .adaptor import is_determinate

    ok, w = is_determinate(code)
    return ok, [] if w is None else [("witness", *_keyed(w, **_DETERMINACY))]


def _galois_refinement(args, code, abstract, concrete):
    """Adjunction between refinement and contraction on one instance."""
    from .simulation import _simulates

    left = _simulates(refine(code, abstract), concrete)
    right = _simulates(abstract, contract(code, concrete))
    over_domain = {a for q in abstract.states for a, _ in abstract.out(q)} <= code.domain
    det = is_deterministic(concrete)
    rows = [("refinement-simulated", left), ("contraction-simulated", right),
            ("abstract-over-domain", over_domain), ("concrete-deterministic", det)]
    if over_domain and left and not right:
        rows.append(("violated", "left-to-right"))
    if det and right and not left:
        rows.append(("violated", "right-to-left"))
    return len(rows) == 4, rows  # no violated row


def _galois_concretization(args, code, concrete, abstract):
    """Adjunction between contraction and concretization on one instance."""
    from .simulation import _simulates

    complete, witness = _icomplete(args, code, concrete)
    if not complete:
        return False, [("icomplete", False), *witness]
    left = _simulates(contract(code, concrete), abstract)
    right = _simulates(concrete, concretize(code, _rel(args, code), abstract))
    return left == right, [("icomplete", True), ("contraction-simulated", left),
                           ("concretization-simulated", right)]


def _insertion(args, code, abstract):
    used = {a for q in abstract.states for a, _ in abstract.out(q)}
    if not used <= code.domain:
        return False, [("machine uses labels outside the code domain",)]
    back = contract(code, concretize(code, _rel(args, code), abstract))
    return _isomorphism(args, abstract, back)


def _compose_alpha(args, inner, outer, machine):
    composed = contract(compose(inner, outer), machine)
    stacked = contract(outer, contract(inner, machine))
    return _isomorphism(args, composed, stacked)


def _compose_rho(args, inner, outer, machine):
    letters = {b for _, w in outer.entries for b in w}
    if not letters <= inner.domain:
        return False, [("outer code words use letters outside the inner code domain",)]
    composed = refine(compose(inner, outer), machine)
    stacked = refine(inner, refine(outer, machine))
    return _isomorphism(args, composed, stacked)


def _gamma_noncompose(args, inner, outer, machine):
    """Concretization does not commute with composition: non-isomorphic but
    mutually similar on the given instance."""
    from .simulation import _simulates, find_isomorphism_reachable

    rel_inner = CompatRel.identity(inner.source)
    rel_outer = CompatRel.identity(outer.source)
    composed = concretize(compose(inner, outer), rel_inner, machine)
    stacked = concretize(inner, rel_inner, concretize(outer, rel_outer, machine))
    iso = find_isomorphism_reachable(composed, stacked) is not None
    forward = _simulates(composed, stacked)
    backward = _simulates(stacked, composed)
    return not iso and forward and backward, [
        ("isomorphic", iso), ("simulated-forward", forward), ("simulated-backward", backward)
    ]


def _adaptor_theorem(args, code, machine):
    from .adaptor import check_adaptor_theorem

    return check_adaptor_theorem(code, machine), []


# -- the adaptor verb --------------------------------------------------------


def _symbols(path: str | None) -> list[str]:
    """The non-blank lines of a file, or of stdin without a path, as symbols."""
    return [Label(line.strip()).symbol for line in _text(path).splitlines() if line.strip()]


def _cmd_adaptor(args) -> int:
    import shlex

    from .adaptor import AdaptorSession, ExternalSut, InProcessSut

    code = _load("code", args.code)
    requested = _symbols(args.inputs)

    # The session solves the game once; its SUT is attached only after every
    # requested input is known to be winning.
    session = AdaptorSession(code, None)
    for x in sorted(set(requested)):
        if x not in session.wins[0]:  # the root is node 0
            raise NotWinning(x)

    sut = None
    try:
        if args.sut_file is not None:
            machine = _load("machine", args.sut_file)
            script = None if args.script is None else _symbols(args.script)
            sut = InProcessSut(machine, seed=args.seed, script=script)
        elif args.sut_exec is not None:
            command = shlex.split(args.sut_exec)
            if not command:
                raise ValueError("--sut-exec needs a command")
            sut = ExternalSut.spawn(command, timeout=args.timeout)
        else:
            host, _, port = args.sut_tcp.rpartition(":")
            sut = ExternalSut.connect(host, int(port), timeout=args.timeout)
        sut.reset()

        session.sut = sut
        for x in requested:
            session.apply(x)
            for kind, value in session.transcript:
                print(kind, value)
            session.transcript.clear()  # printed: memory stays flat however long the run
        return EXIT_OK
    finally:
        if isinstance(sut, ExternalSut):
            sut.close()


# -- the verb tables ----------------------------------------------------------

# Each verb takes document arguments, loaded in table order by the loader
# their name picks (see ``_load``); one spelled ``--name`` is a required
# option, the others are positional.  Every function is called with the
# parsed arguments followed by the loaded documents.

_OPTIONS = {
    "--rel": {"default": "identity", "choices": list(CompatRel.NAMED)},
    "--stats": {"action": "store_true"},
    "--out": {"help": "write the result document here instead of stdout"},
    "--for": {"dest": "abstract_input"},
}

# verb: (help, options, documents, function, result serializer)
_OPERATORS = {
    "contract": (
        "contract a machine through a code", ("--stats", "--out"), ("--code", "machine"),
        lambda args, code, machine: contract(code, machine), lts_to_document,
    ),
    "refine": (
        "refine a machine through a code", ("--stats", "--out"), ("--code", "machine"),
        lambda args, code, machine: refine(code, machine), lts_to_document,
    ),
    "concretize": (
        "concretize a machine through a code",
        ("--rel", "--stats", "--out"),
        ("--code", "machine"),
        lambda args, code, machine: concretize(code, _rel(args, code), machine),
        lts_to_document,
    ),
    "compose": (
        "compose two codes (inner then outer)", ("--out",), ("inner", "outer"),
        lambda args, inner, outer: compose(inner, outer), code_to_document,
    ),
    "to-tree": (
        "tree form of a code document", ("--out",), ("code",),
        lambda args, code: to_tree(code), tree_to_document,
    ),
    "to-map": (
        "map form of a tree document", ("--out",), ("tree",),
        lambda args, tree: to_map(tree), code_to_document,
    ),
}

# verb: (help, options, documents, function returning (ok, rows))
_CHECKS = {
    "simulation": (None, (), ("left", "right"), _simulation),
    "isomorphism": (None, (), ("left", "right"), _isomorphism),
    "icomplete": (None, ("--rel",), ("--code", "machine"), _icomplete),
    "winning": (None, ("--for",), ("--code",), _winning),
    "determinate": (None, (), ("--code",), _determinate),
    "galois1": (
        "refinement/contraction adjunction", (), ("--code", "abstract", "concrete"),
        _galois_refinement,
    ),
    "galois2": (
        "contraction/concretization adjunction", ("--rel",),
        ("--code", "concrete", "abstract"), _galois_concretization,
    ),
    "insertion": (None, ("--rel",), ("--code", "abstract"), _insertion),
    "compose-alpha": (None, (), ("inner", "outer", "machine"), _compose_alpha),
    "compose-rho": (None, (), ("inner", "outer", "machine"), _compose_rho),
    "gamma-noncompose": (None, (), ("inner", "outer", "machine"), _gamma_noncompose),
    "adaptor-theorem": (None, (), ("--code", "machine"), _adaptor_theorem),
}


def _documents(args, documents: tuple[str, ...]) -> list:
    names = [argument.lstrip("-") for argument in documents]
    return [_load(name, getattr(args, name)) for name in names]


def _run_operator(args) -> int:
    _, options, documents, function, to_document = _OPERATORS[args.verb]
    result = function(args, *_documents(args, documents))
    _emit(to_document(result), args.out)
    if "--stats" in options and args.stats:
        transitions = sum(len(result.out(q)) for q in result.states)
        print("states", len(result.states), "transitions", transitions, file=sys.stderr)
    return EXIT_OK


def _run_check(args) -> int:
    _, _, documents, function = _CHECKS[args.what]
    ok, rows = function(args, *_documents(args, documents))
    print("PASS" if ok else "FAIL")
    for row in rows:
        print(*row)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------


def _add_verb(sub, verb: str, help_text, options, documents, handler) -> None:
    p = sub.add_parser(verb, **({"help": help_text} if help_text else {}))
    for argument in documents:
        if argument.startswith("--"):
            p.add_argument(argument, required=True)
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    for argument in documents:
        if not argument.startswith("--"):
            p.add_argument(argument)
    p.set_defaults(handler=handler)


_VERBS = (*_OPERATORS, "gen", "check", "adaptor")


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``; without it, the parser of every verb.

    Argparse hands every argument after the verb, and after ``check``'s
    check, to that one subparser, so usage, help and error texts do not
    depend on the others: when ``argv`` names a verb, and for ``check`` a
    check, only that subparser is built.
    """
    verb, what = [*argv[:2], None, None][:2]
    if verb not in _VERBS or (verb == "check" and what not in _CHECKS):
        verb = what = None

    parser = argparse.ArgumentParser(
        prog="actioncodes",
        description="Action codes: contraction, refinement, concretization, "
        "law checking, and a learner/tester adaptor.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for name, (help_text, options, documents, _, _) in _OPERATORS.items():
        if verb in (None, name):
            _add_verb(sub, name, help_text, options, documents, _run_operator)

    if verb in (None, "gen"):
        _add_gen(sub)

    if verb in (None, "check"):
        check = sub.add_parser("check", help="decide a law on given instances")
        checks = check.add_subparsers(dest="what", required=True)
        for name, (help_text, options, documents, _) in _CHECKS.items():
            if what in (None, name):
                _add_verb(checks, name, help_text, options, documents, _run_check)

    if verb in (None, "adaptor"):
        _add_adaptor(sub)

    return parser


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="seeded random machines and codes")
    p.add_argument("what", choices=["lts", "mealy", "code"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--labels", type=int, default=2)
    p.add_argument("--inputs", type=int, default=2)
    p.add_argument("--outputs", type=int, default=2)
    p.add_argument("--abstract", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=3)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--input-enabled", action="store_true")
    p.add_argument("--output-deterministic", action="store_true")
    p.add_argument("--mealy", action="store_true", help="generate a Mealy code")
    p.add_argument("--out", **_OPTIONS["--out"])
    p.set_defaults(handler=_cmd_gen)


def _add_adaptor(sub) -> None:
    p = sub.add_parser("adaptor", help="run an adaptor in front of a SUT")
    p.add_argument("--code", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sut-file", help="in-process SUT from a Mealy document")
    group.add_argument("--sut-exec", help="spawn a SUT process speaking the line protocol")
    group.add_argument("--sut-tcp", help="connect to HOST:PORT speaking the line protocol")
    p.add_argument("--seed", type=int, default=0, help="output choice seed (in-process)")
    p.add_argument("--script", help="file of scripted SUT outputs (in-process)")
    p.add_argument("--inputs", help="abstract inputs, one per line (default stdin)")
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(handler=_cmd_adaptor)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed, as by ``>&-``
        reader, writer = os.pipe()  # output for stdout meets a pipe without a reader
        os.close(reader)
        sys.stdout = open(writer, "w", encoding="utf-8")
    try:
        status = _handle(args)
        sys.stdout.flush()  # here, not at exit, so a closed stdout is caught below
        return status
    except BrokenPipeError:
        # The reader of stdout is gone.  Exit quietly, and let the interpreter's
        # final flush of what is still buffered go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:  # a verb's ``finally`` has closed its SUT child
        print("ERROR KeyboardInterrupt the run was interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process the signal ended


def _handle(args) -> int:
    """Run the verb; an error becomes its exit code and one ``ERROR`` line."""
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # stdout is closed: ``main`` exits without an ERROR line
    except NotWinning as exc:
        print(f"ERROR NotWinning {exc.abstract_input}", file=sys.stderr)
        return EXIT_NOT_WINNING
    except CodeIncomplete as exc:
        words = _keyed(exc, node="node", input="concrete_input", output="observed_output")
        print("ERROR CodeIncomplete", *words, file=sys.stderr)
        return EXIT_CODE_INCOMPLETE
    except NotDeterminate as exc:
        print("ERROR NotDeterminate", *_keyed(exc.witness, **_DETERMINACY), file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ActionCodesError, ValueError, OSError) as exc:
        print(f"ERROR {type(exc).__name__} {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
