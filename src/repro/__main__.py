"""GaeaQL command-line interface.

Run a script:              python -m repro script.gql
Interactive session:       python -m repro
Load a checkpoint first:   python -m repro --checkpoint db.ckpt [script.gql]
Save on exit:              python -m repro --save db.ckpt script.gql
Serve over the network:    python -m repro serve --port 7474 [--init setup.gql]

Statements end at a blank line in interactive mode (GaeaQL statements are
multi-line); ``\\q`` quits.  ``serve`` starts the wire-protocol server
(see ``docs/serving.md``); connect with ``repro.client.remote_connect``.
"""

from __future__ import annotations

import argparse
import sys

from .core.persistence import load_kernel, save_kernel
from .errors import GaeaError
from .query.client import Connection, connect
from .query.executor import QueryResult

__all__ = ["main"]


def _render(result: QueryResult) -> str:
    if result.kind == "objects":
        lines = [f"[{result.path}] {len(result.objects)} object(s)"]
        for row in result.objects:
            # projections, aggregates and joins come back as dict rows
            plain = isinstance(row, dict)
            summary = ", ".join(
                f"{key}={value}"
                for key, value in (row if plain else row.values).items()
                if not hasattr(value, "data")
            )
            lines.append(f"  {summary}" if plain else
                         f"  oid {row.oid} ({row.class_name}): {summary}")
        return "\n".join(lines)
    return result.message


def _execute(connection: Connection, source: str, out) -> bool:
    """Run *source* on a cursor; returns False when a statement failed."""
    cursor = connection.cursor()
    try:
        for result in cursor.run(source):
            print(_render(result), file=out)
    except GaeaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return False
    return True


def _repl(connection: Connection) -> None:
    print("Gaea — GaeaQL interactive session "
          "(blank line executes, \\q quits)")
    buffer: list[str] = []
    while True:
        prompt = "gaea> " if not buffer else "  ... "
        try:
            line = input(prompt)
        except EOFError:
            break
        if line.strip() == "\\q":
            break
        if line.strip() == "" and buffer:
            _execute(connection, "\n".join(buffer), sys.stdout)
            buffer = []
        elif line.strip():
            buffer.append(line)
    if buffer:
        _execute(connection, "\n".join(buffer), sys.stdout)


def _serve(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the wire-protocol server."""
    from .server import GaeaServer

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a Gaea kernel over the wire protocol",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7474,
                        help="port to bind (default 7474; 0 = ephemeral)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="load this kernel checkpoint before serving")
    parser.add_argument("--init", metavar="SCRIPT",
                        help="GaeaQL script to run before accepting clients")
    args = parser.parse_args(argv)

    kernel = None
    if args.checkpoint:
        try:
            kernel = load_kernel(args.checkpoint)
        except (GaeaError, OSError) as exc:
            print(f"error: cannot load {args.checkpoint}: {exc}",
                  file=sys.stderr)
            return 2
    server = GaeaServer(kernel=kernel, host=args.host, port=args.port)
    if args.init:
        try:
            with open(args.init) as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.init}: {exc}", file=sys.stderr)
            return 2
        if not _execute(Connection(kernel=server.kernel), source, sys.stdout):
            return 1
    with server:
        print(f"gaea server listening on {server.host}:{server.port} "
              "(Ctrl-C stops)")
        try:
            while True:
                # The accept loop runs in a daemon thread; just sleep.
                import time
                time.sleep(3600)
        except KeyboardInterrupt:
            print("stopping")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GaeaQL interpreter (Gaea scientific DBMS reproduction)",
    )
    parser.add_argument("script", nargs="?",
                        help="GaeaQL script to execute (default: REPL), "
                             "or 'serve' to run the wire server")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="load this kernel checkpoint before running")
    parser.add_argument("--save", metavar="PATH",
                        help="save a kernel checkpoint after running")
    args = parser.parse_args(argv)

    if args.checkpoint:
        try:
            kernel = load_kernel(args.checkpoint)
        except (GaeaError, OSError) as exc:
            print(f"error: cannot load {args.checkpoint}: {exc}",
                  file=sys.stderr)
            return 2
        connection = connect(kernel=kernel)
    else:
        connection = connect()

    ok = True
    if args.script:
        try:
            with open(args.script) as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.script}: {exc}",
                  file=sys.stderr)
            return 2
        ok = _execute(connection, source, sys.stdout)
    else:
        _repl(connection)

    if args.save:
        save_kernel(connection.kernel, args.save)
        print(f"checkpoint saved to {args.save}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
