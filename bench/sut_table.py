"""A table-driven system under test for the adaptor workloads.

Reads an output-deterministic Mealy document (the canonical JSON the package
writes) into a table ``(state, input) -> (output, next state)`` and speaks
the adaptor line protocol: one input symbol per line in, one output symbol
per line out, and ``RESET`` back to the initial state with no reply.  It uses
only the standard library, so its own cost does not move with the package.

    python3 sut_table.py MACHINE.json stdio   # serve on stdin/stdout
    python3 sut_table.py MACHINE.json tcp     # serve one loopback client;
                                              # prints the port first
"""

from __future__ import annotations

import json
import os
import socket
import sys


def load_table(path: str) -> tuple[str, dict[tuple[str, bytes], tuple[bytes, str]]]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("kind") != "mealy":
        raise SystemExit(f"{path}: not a Mealy machine document")
    table: dict[tuple[str, bytes], tuple[bytes, str]] = {}
    for src, label, dst in doc["transitions"]:
        symbol, _, output = label.partition("/")
        key = (src, symbol.encode("utf-8"))
        if key in table:
            raise SystemExit(f"{path}: state {src} has two outputs for input {symbol}")
        table[key] = ((output + "\n").encode("utf-8"), dst)
    return doc["initial"], table


def serve(lines, write, initial: str, table) -> None:
    state = initial
    for line in lines:
        symbol = line.rstrip(b"\n")
        if symbol == b"RESET":
            state = initial
            continue
        reply, state = table[(state, symbol)]
        write(reply)


def main(argv: list[str]) -> int:
    path, mode = argv
    initial, table = load_table(path)
    if mode == "stdio":
        out = sys.stdout.fileno()
        serve(sys.stdin.buffer, lambda data: os.write(out, data), initial, table)
        return 0
    with socket.create_server(("127.0.0.1", 0)) as server:
        print(server.getsockname()[1], flush=True)
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as lines:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            serve(lines, conn.sendall, initial, table)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
