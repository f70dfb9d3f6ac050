"""Command-line entry points.

Machine-readable records go to stdout as JSON lines; logging goes to
stderr. Exit codes: 0 success, 2 configuration error (also an input file
that a command reads and that is missing, before any stage runs, and online
an artifact that cannot be read: the online commands read no input file), 3
stage failure (offline, also an input file that exists but cannot be read
or parsed), 4 unanswerable question in batch mode. A stdout closed by its reader ends the command
quietly with 0.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .pipeline import (
    SETTINGS,
    ConfigError,
    OnlineSession,
    PipelineConfig,
    StageError,
    load_config,
    run_build_index,
    run_expand,
    run_offline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_UNANSWERED = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per setting, ``--x``/``--no-x`` for a bool."""
    parser.add_argument("--config", type=Path, help="key = value settings file")
    for name, kind in SETTINGS.items():
        flag = name.replace("_", "-")
        if kind is bool:
            group = parser.add_mutually_exclusive_group()
            group.add_argument(f"--{flag}", dest=name, action="store_true", default=None)
            group.add_argument(f"--no-{flag}", dest=name, action="store_false", default=None)
        else:
            parser.add_argument(f"--{flag}", dest=name, type=kind, default=None)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factqa",
        description="Template-based factoid QA over a tab-separated triple store.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build and save the entity index")
    _add_config_flags(p)

    p = sub.add_parser("expand", help="expand predicate paths from corpus entities")
    _add_config_flags(p)

    p = sub.add_parser("pipeline", help="run the whole offline flow")
    _add_config_flags(p)

    p = sub.add_parser("answer", help="answer one or more questions")
    _add_config_flags(p)
    p.add_argument("question", nargs="+")

    p = sub.add_parser("decompose", help="decompose a question without answering")
    _add_config_flags(p)
    p.add_argument("question", nargs="+")

    p = sub.add_parser("repl", help="answer questions from stdin, one per line")
    _add_config_flags(p)

    return parser


def _cmd_answer(config: PipelineConfig, questions: list[str]) -> int:
    session = OnlineSession(config)
    unanswered = False
    for question in questions:
        record = session.answer_record(question)
        _emit(record)
        if record.get("answer") is None:
            unanswered = True
    return EXIT_UNANSWERED if unanswered else EXIT_OK


def _cmd_decompose(config: PipelineConfig, questions: list[str]) -> int:
    session = OnlineSession(config)
    for question in questions:
        _emit(session.decompose_record(question))
    return EXIT_OK


def _cmd_repl(config: PipelineConfig) -> int:
    session = OnlineSession(config)
    if isinstance(sys.stdin, io.TextIOWrapper):
        # in every locale, as in argv, a byte that is not UTF-8 reaches its
        # question as a lone surrogate, not as a decoding error
        sys.stdin.reconfigure(errors="surrogateescape")
    for line in sys.stdin:
        question = line.strip()
        if not question:
            continue
        _emit(session.answer_record(question))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config, {name: getattr(args, name) for name in SETTINGS})
        if args.command == "build-index":
            _emit(run_build_index(config, args.config))
            return EXIT_OK
        if args.command == "expand":
            _emit(run_expand(config, args.config))
            return EXIT_OK
        if args.command == "pipeline":
            _emit(run_offline(config, args.config))
            return EXIT_OK
        if args.command == "answer":
            return _cmd_answer(config, args.question)
        if args.command == "decompose":
            return _cmd_decompose(config, args.question)
        if args.command == "repl":
            return _cmd_repl(config)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        logging.getLogger("factqa").error("%s", exc)
        return EXIT_CONFIG
    except StageError as exc:
        logging.getLogger("factqa").error("%s", exc)
        return EXIT_STAGE
    except BrokenPipeError:
        # the reader asked for nothing more; the interpreter's final flush
        # of what is still buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
