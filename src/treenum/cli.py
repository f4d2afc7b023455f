"""Command-line interface.

Commands: validate, enumerate, decode, encode, diff.  Grammar files use
the text format documented in :mod:`treenum.grammar`.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 ok, 1 unreadable or
unparseable grammar file, or a tree too large to build (step budget
exceeded, out of memory or recursion), 2 grammar fails validation, or a
usage error (argparse prints its usage text), 3 malformed index or
s-expression, 4 tree not generated by the grammar.
"""

import argparse
import json
import sys

from .codec import StepBudgetExceeded, _check_args, decode, encode, enumerate_trees
from .grammar import (
    Grammar,
    GrammarSyntaxError,
    InvalidGrammarError,
    SexprSyntaxError,
    TreeNotInGrammarError,
    load_grammar,
    sexpr_to_tree,
    tree_to_sexpr,
    validate,
    write_tree,
    yield_of,
)
from .lz import diff_report, lz_decode

EXIT_OK = 0
EXIT_ERROR = 1  # unreadable/unparseable grammar, or a tree too large to build
EXIT_INVALID_GRAMMAR = 2
EXIT_BAD_INPUT = 3
EXIT_TREE_NOT_IN_GRAMMAR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treenum",
        description="Number the derivation trees of a context-free grammar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the grammar assumptions")
    p.add_argument("grammar")

    p = sub.add_parser("enumerate", help="print trees for consecutive indices")
    p.add_argument("grammar")
    p.add_argument("--from", dest="start_index", default="0", metavar="N",
                   help="first index (default 0)")
    p.add_argument("--count", default="100", metavar="M", help="number of trees (default 100)")
    _add_tree_options(p)
    p.add_argument("--show-index", action="store_true", help="prefix each line with its index")

    p = sub.add_parser("decode", help="print the tree for one index")
    p.add_argument("grammar")
    p.add_argument("index")
    _add_tree_options(p)

    p = sub.add_parser("encode", help="print the index of an s-expression tree")
    p.add_argument("grammar")
    p.add_argument("sexpr", help="tree as s-expression, or - to read stdin")

    p = sub.add_parser("diff", help="indices where the two decoders disagree")
    p.add_argument("grammar")
    p.add_argument("--count", default="100", metavar="M", help="indices to scan (default 100)")
    p.add_argument("--start", default=None, metavar="NT", help="start nonterminal")
    return parser


def _add_tree_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=("a", "b"), default="a",
                   help="a: bijective decoding, b: with subtree back-references")
    p.add_argument("--format", choices=("yield", "sexp", "json"), default="yield")
    p.add_argument("--sep", default="", help="separator between terminals for --format yield")
    p.add_argument("--start", default=None, metavar="NT", help="start nonterminal")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Indices have no size limit, but CPython (3.10.7 and 3.11 on) limits
    # int/str conversions to 4,300 digits: lift that for this call only.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return EXIT_OK
    except StepBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (RecursionError, MemoryError) as err:
        print(f"error: tree too large to process ({type(err).__name__})", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _dispatch(args) -> int:
    grammar = _load(args.grammar)
    if grammar is None:
        return EXIT_ERROR

    if args.command == "validate":
        return _cmd_validate(grammar)

    try:
        validated = validate(grammar)
    except InvalidGrammarError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_GRAMMAR

    start = getattr(args, "start", None) or validated.start
    try:
        _check_args(validated, start, 0)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if args.command == "enumerate":
        return _cmd_enumerate(validated, start, args)
    if args.command == "decode":
        return _cmd_decode(validated, start, args)
    if args.command == "encode":
        return _cmd_encode(validated, args)
    if args.command == "diff":
        return _cmd_diff(validated, start, args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _load(path: str) -> Grammar | None:
    try:
        return load_grammar(path)
    except OSError as err:
        print(f"error: cannot read {path}: {err.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as err:
        print(f"error: cannot read {path}: not UTF-8 text (byte {err.start})", file=sys.stderr)
        return None
    except GrammarSyntaxError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return None


def _cmd_validate(grammar: Grammar) -> int:
    from .grammar import check_grammar

    report = check_grammar(grammar)
    for nt in report.unreachable:
        print(f"warning: {nt} is unreachable from {grammar.start} and was not checked",
              file=sys.stderr)
    bad = {v.nonterminal for v in report.violations}
    for nt in report.checked:
        if nt not in bad:
            print(f"{nt}: ok")
    for v in report.violations:
        print(f"{v.nonterminal}: FAIL {v.check}: {v.message}")
    if report.ok:
        print(f"{len(report.checked)} nonterminals OK")
        return EXIT_OK
    return EXIT_INVALID_GRAMMAR


def _parse_index(text: str) -> int | None:
    if not (text.isascii() and text.isdigit()):
        return None
    return int(text)


def _render(tree, args) -> str:
    if args.format == "yield":
        return yield_of(tree, args.sep)
    if args.format == "sexp":
        return tree_to_sexpr(tree)
    # The text of json.dumps(tree_to_json_obj(tree)), which would recurse
    # once per tree level.
    quote = json.encoder.encode_basestring_ascii
    return write_tree(tree, lambda x: f'{{"nt":{quote(x.nt)},"children":[', quote, ",",
                      lambda x: "]}", "_json")


def _cmd_enumerate(g: Grammar, start: str, args) -> int:
    first = _parse_index(args.start_index)
    count = _parse_index(args.count)
    if first is None or count is None:
        print("error: --from and --count must be non-negative decimal integers",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.algorithm == "a":
        stream = enumerate_trees(g, start, first, count)
    else:
        stream = ((i, lz_decode(g, start, i)) for i in range(first, first + count))
    for i, tree in stream:
        line = _render(tree, args)
        if args.show_index:
            line = f"{i}\t{line}"
        print(line)
    return EXIT_OK


def _cmd_decode(g: Grammar, start: str, args) -> int:
    n = _parse_index(args.index)
    if n is None:
        print(f"error: index must be a non-negative decimal integer, got {args.index!r}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    decoder = decode if args.algorithm == "a" else lz_decode
    print(_render(decoder(g, start, n), args))
    return EXIT_OK


def _cmd_encode(g: Grammar, args) -> int:
    text = sys.stdin.read() if args.sexpr == "-" else args.sexpr
    try:
        tree = sexpr_to_tree(g, text)
    except SexprSyntaxError as err:
        print(f"error: malformed s-expression: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TreeNotInGrammarError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TREE_NOT_IN_GRAMMAR
    print(encode(g, tree))
    return EXIT_OK


def _cmd_diff(g: Grammar, start: str, args) -> int:
    count = _parse_index(args.count)
    if count is None:
        print("error: --count must be a non-negative decimal integer", file=sys.stderr)
        return EXIT_BAD_INPUT
    for i, referencing, plain in diff_report(g, start, count):
        print(f"{i}\t{referencing}\t{plain}")
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
