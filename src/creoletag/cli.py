"""Command-line interface.

    creoletag generate --sem spec.json [--lan MQ] [--grammar g.fstag]
    creoletag tables np|tma [--golden file.tsv]
    creoletag specialize --lan HT -o ht.fstag
    creoletag check grammar.fstag
    creoletag recognize --goal NP "sé tab la"

All output is UTF-8 and deterministic: identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 no result / mismatch,
2 validation findings, 3 bad input (a usage error among them), 4 input
nested deeper than the recursion limit lets this build follow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import zip_longest

from .creole import ENV_GRAMMAR, shipped_grammar
from .dsl import load_grammar, serialize
from .errors import (CreoleTagError, DivergentGrammar, GrammarSyntaxError,
                     InvalidSpec, MissingCell, NoAnalysis, NoRealization,
                     UndeclaredAttribute, ValidationError)
from .generate import check_lan, format_table, generate, semspec_from_json, \
    table_np, table_tma

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_FINDINGS = 2
EXIT_BAD_INPUT = 3
EXIT_TOO_DEEP = 4


class _FileError(Exception):
    """A file named on the command line cannot be read or written."""


def _file(path, what, text=None, parse=str):
    """parse() of the text of the file at `path`, or `text` written
    there; a file that cannot be opened, decoded or parsed is bad input."""
    verb = "read" if text is None else "write"
    try:
        with open(path, verb[0], encoding="utf-8") as handle:
            return parse(handle.read()) if text is None else handle.write(text)
    except (OSError, ValueError) as exc:
        raise _FileError("cannot %s %s: %s" % (verb, what, exc)) from None


def _load(path):
    """The grammar at `path` or CREOLETAG_GRAMMAR, else the shipped one."""
    path = path or os.environ.get(ENV_GRAMMAR)
    return load_grammar(_file(path, "grammar")) if path else shipped_grammar()


def cmd_generate(args):
    grammar = _load(args.grammar)
    spec = semspec_from_json(_file(args.sem, "semantic input",
                                   parse=json.loads))
    if args.lan is not None:
        codes = [code.strip() for code in args.lan.split(",")]
        empty = [str(i) for i, code in enumerate(codes, 1) if not code]
        if empty:
            raise InvalidSpec("--lan %r: empty language code at entry %s"
                              % (args.lan, ", ".join(empty)))
        requested = frozenset(codes)
        given = spec.lan or frozenset()
        check_lan(grammar, requested | given)
        if given and not given & requested:
            key = grammar.dialects.index
            raise InvalidSpec("--lan %s shares no dialect with the input's "
                              "lan %s" % (",".join(sorted(requested, key=key)),
                                          ",".join(sorted(given, key=key))))
        spec = replace(spec, lan=given & requested if given else requested)
    try:
        realizations = generate(grammar, spec)
    except NoRealization as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_RESULT
    for real in realizations:  # a grammar without lan has empty sets
        lan = ",".join(sorted(real.lan_set, key=grammar.dialects.index)) or "-"
        line = "%s\t%s" % (" ".join(real.tokens), lan)
        if real.alternatives:
            line += "\t" + " / ".join(" ".join(alt)
                                      for alt in real.alternatives)
        print(line)
    return EXIT_OK


def cmd_tables(args):
    grammar = _load(args.grammar)
    try:
        rows = table_np(grammar) if args.which == "np" else table_tma(grammar)
    except MissingCell as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_RESULT
    text = format_table(grammar, rows)
    if not args.golden:
        sys.stdout.write(text)
        return EXIT_OK
    golden = _file(args.golden, "golden file")
    if text == golden:
        sys.stdout.write(text)
        return EXIT_OK
    _report_diff(text, golden)
    return EXIT_NO_RESULT


def _report_diff(text, golden):
    header = golden.splitlines()[0].split("\t") if golden else []
    for a, b in zip_longest(text.splitlines(), golden.splitlines(),
                            fillvalue=""):
        cells_a, cells_b = a.split("\t"), b.split("\t")
        for j, (va, vb) in enumerate(zip_longest(cells_a, cells_b,
                                                 fillvalue="")):
            if va != vb:
                dialect = header[j] if j < len(header) else "col%d" % j
                print("mismatch at (%s, %s): got %r, want %r"
                      % (cells_b[0] or cells_a[0], dialect, va, vb),
                      file=sys.stderr)


def cmd_specialize(args):
    from .specialize import specialize  # only this command pays its import
    grammar = _load(args.grammar)
    specialized = specialize(grammar, args.lan)
    text = serialize(specialized)
    if args.output:
        _file(args.output, "output", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args):
    text = _file(args.file, "grammar")
    try:
        load_grammar(text)
    except GrammarSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValidationError as exc:
        for finding in exc.findings:
            print(finding)
        return EXIT_FINDINGS
    print("ok")
    return EXIT_OK


def cmd_recognize(args):
    from .recognize import recognize  # only this command pays its import
    grammar = _load(args.grammar)
    try:
        analyses = recognize(grammar, args.tokens, args.goal)
    except NoAnalysis as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_RESULT

    def codes(values, attr="lan"):  # a grammar without lan has empty sets
        return sorted(values, key=grammar.schema.sort_key(attr)) \
            if values else []

    for analysis in analyses:
        record = {
            "tokens": " ".join(analysis.tokens),
            "goal": analysis.goal,
            "lan_set": codes(analysis.lan_set),
            "per_token_lan": [codes(s) for s in analysis.per_token_lan],
            "mixed": analysis.mixed,
            "features": {attr: codes(cell, attr)
                         if isinstance(cell, frozenset) else str(cell)
                         for attr, cell in analysis.features.items()},
        }
        print(json.dumps(record, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="creoletag",
        description="Multidialectal Creole grammar toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="realize a semantic specification")
    p.add_argument("--sem", required=True, help="JSON semantic input")
    p.add_argument("--lan", help="restrict to dialects (comma separated)")
    p.add_argument("--grammar", help="grammar file (default: embedded)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tables", help="regenerate a paradigm table")
    p.add_argument("which", choices=("np", "tma"), help="np or tma")
    p.add_argument("--golden", help="compare byte-for-byte against this file")
    p.add_argument("--grammar", help="grammar file (default: embedded)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("specialize", help="project onto one dialect")
    p.add_argument("--lan", required=True, help="dialect code")
    p.add_argument("-o", "--output", help="output grammar file")
    p.add_argument("--grammar", help="grammar file (default: embedded)")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("check", help="validate a grammar file")
    p.add_argument("file", help="grammar file to validate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recognize", help="analyse a surface string")
    p.add_argument("tokens", help="space-separated surface string")
    p.add_argument("--goal", default="NP", help="NP, S, Pred or N")
    p.set_defaults(func=cmd_recognize)
    p.add_argument("--grammar", help="grammar file (default: embedded)")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return exc.code and EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (InvalidSpec, DivergentGrammar, UndeclaredAttribute,
            GrammarSyntaxError, _FileError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValidationError as exc:
        for finding in exc.findings:
            print(finding, file=sys.stderr)
        return EXIT_FINDINGS
    except CreoleTagError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_RESULT
    except RecursionError:
        print("the input nests deeper than this build follows",
              file=sys.stderr)
        return EXIT_TOO_DEEP


if __name__ == "__main__":
    sys.exit(main())
