"""Context-free grammar model, text format, validation, and derivation trees.

Grammar files are plain UTF-8 text: ``#`` starts a comment, blank lines are
skipped, and every other line reads ``LHS -> alt | alt | ...`` with
whitespace-separated symbols inside each alternative.  ``<eps>`` stands for
an empty right-hand side.  A symbol is a nonterminal exactly when it occurs
as some left-hand side; everything else is a terminal.  The start symbol is
the first left-hand side in the file.

Rule lists are normalized so that for every nonterminal the rules with no
nonterminal on the right-hand side come first, keeping source order within
each group.  The integer codecs rely on that layout.

A ``Grammar`` compiles its rules once, in its constructor, into the tables
the codecs read: per nonterminal the rule counts, a shared node for each
terminal rule and the child slots of each nonterminal rule (for
``codec.unfold``), and one dict from a node's label and children to its
rule (for ``encode``, ``sexpr_to_tree``, ``verify_tree`` and
``rule_index_of``).  ``validate`` returns a copy that shares those tables.
The renderers keep their text of each ``enumerate_trees`` memo node on it.

Validation enforces what the codecs require of every nonterminal reachable
from the start symbol:

* productivity: it derives at least one finite tree;
* an infinite tree set: enumeration indexes arbitrarily large numbers;
* zero-termination: repeatedly taking each nonterminal's first rule
  reaches an all-terminal tree, so index 0 decodes to a finite tree.
"""

import copy
from typing import Iterator, NamedTuple, Union

ARROW = "->"
PIPE = "|"
EPSILON = "<eps>"

_RESERVED = (ARROW, PIPE, EPSILON)


class GrammarSyntaxError(Exception):
    """Raised when grammar text cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidGrammarError(Exception):
    """Raised when a grammar fails validation; carries the full report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        details = "; ".join(
            f"{v.nonterminal}: {v.check}: {v.message}" for v in report.violations
        )
        super().__init__(f"grammar failed validation: {details}")


class TreeNotInGrammarError(Exception):
    """Raised when a tree node does not apply any rule of the grammar."""


class SexprSyntaxError(Exception):
    """Raised on malformed s-expression input."""


class Rule(NamedTuple):
    """One production: the right-hand side of a nonterminal's rule."""

    rhs: tuple[str, ...]


class Grammar:
    """A rule table keyed by nonterminal, terminal rules first, and the
    codec tables compiled from it; treat it as immutable.

    ``validated`` is set by :func:`validate`; the codecs refuse grammars
    without it since their termination depends on the validated properties.
    Grammars compare equal on ``(start, rules, validated)`` and are not
    hashable.
    """

    __slots__ = ("start", "rules", "validated", "_checked", "_expand", "_rule_ids")

    def __init__(self, start: str, rules: dict[str, tuple[Rule, ...]], validated: bool = False):
        if start not in rules:
            raise ValueError(f"start symbol {start!r} has no rules")
        self.start = start
        self.rules = rules
        self.validated = validated
        self._checked = frozenset(rules if validated else ())  # where the codecs may start
        # _expand, for codec.unfold: per nonterminal (terminal-rule count t,
        # nonterminal-rule count k, one shared node per terminal rule, per
        # nonterminal rule (rhs, (position, symbol) of each nonterminal)).
        # _rule_ids: the rule table of _rule_hit.
        self._expand = {}
        self._rule_ids = {}
        for nt, alts in rules.items():
            if not alts:
                raise ValueError(f"nonterminal {nt!r} has no rules")
            slots = [tuple((i, s) for i, s in enumerate(r.rhs) if s in rules) for r in alts]
            t = slots.count(())
            if any(slots[:t]):
                raise ValueError(f"rules of {nt!r} are not normalized (terminal rules first)")
            k = len(alts) - t
            self._expand[nt] = (
                t,
                k,
                tuple(DerivationTree(nt, r.rhs) for r in alts[:t]),
                tuple((r.rhs, s) for r, s in zip(alts[t:], slots[t:])),
            )
            for j, (r, s) in enumerate(zip(alts, slots)):
                shape = tuple((x,) if x in rules else x for x in r.rhs)
                self._rule_ids[nt, shape] = (j, len(s), k)

    def __eq__(self, other):
        if not isinstance(other, Grammar):
            return NotImplemented
        return (self.start, self.rules, self.validated) == (other.start, other.rules, other.validated)


class DerivationTree(NamedTuple):
    """A derivation node: a nonterminal label plus ordered children.

    Children are either nested trees or terminal tokens (plain strings).
    Values are immutable and hashable, so structural equality is ``==``.
    ``==``, ``hash`` and ``repr`` give the same values as for plain tuples
    but do not recurse, so they work at any depth.
    """

    nt: str
    children: tuple[Union["DerivationTree", str], ...] = ()

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if x is y:
                    continue
                if isinstance(x, tuple) and isinstance(y, tuple):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        # hash((nt, children)) bottom-up, each child standing in its
        # parent's tuple as a proxy that carries its hash.
        hashes: dict[int, int] = {}
        for x in reversed(list(subtrees(self))):
            kids = tuple([_Hashed(hashes[id(c)]) if isinstance(c, DerivationTree) else c for c in x[1]])
            hashes[id(x)] = hash((x[0], kids))
        return hashes[id(self)]

    def __repr__(self):
        return write_tree(
            self, lambda x: f"DerivationTree(nt={x[0]!r}, children=(", repr, ", ",
            lambda x: ",))" if len(x[1]) == 1 else "))")


class _Shared(DerivationTree):
    """A memo node of an ``enumerate_trees`` stream.  Its ``__dict__`` keeps
    its renderings; ``_replace``, ``copy`` and ``pickle`` give plain nodes."""

    _make = DerivationTree._make

    def __reduce__(self):
        return DerivationTree, (self[0], self[1])


def _reuse(x: _Shared, key: str, add, out: list, stack: list) -> bool:
    """In a render walk: ``add`` x's text under ``key`` to out and return True,
    or push ``(x, len(out))``, the mark that closes x, and return False."""
    got = x.__dict__.get(key)
    if got is None:
        stack.append((x, len(out)))
        return False
    add(got)
    return True


class _Hashed(int):
    """An int whose hash is its value (a child's hash, known already)."""

    __slots__ = ()
    __hash__ = int.__index__


def write_tree(t: DerivationTree, head, leaf, sep: str, tail, key: str = "") -> str:
    """Text of a tree, built without recursing: for each node ``head(node)``,
    its children separated by ``sep`` (terminals written by ``leaf``), then
    ``tail(node)``.  Memo nodes keep their text under a nonempty ``key``."""
    pieces = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            pieces[x[1]:] = ["".join(pieces[x[1]:])]
            x[0].__dict__[key] = pieces[-1]
            continue
        if not isinstance(x, DerivationTree):
            pieces.append(x)
            continue
        if key and type(x) is _Shared and _reuse(x, key, pieces.append, pieces, stack):
            continue
        pieces.append(head(x))
        stack.append(tail(x))
        kids = x[1]
        for i in range(len(kids) - 1, -1, -1):
            c = kids[i]
            stack.append(c if isinstance(c, DerivationTree) else leaf(c))
            if i:
                stack.append(sep)
    return "".join(pieces)


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into an unvalidated, normalized Grammar."""
    table: dict[str, list[Rule]] = {}
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2 or tokens[1] != ARROW:
            raise GrammarSyntaxError(f"expected 'LHS {ARROW} ...'", lineno)
        lhs = tokens[0]
        if lhs in _RESERVED:
            raise GrammarSyntaxError(f"reserved token {lhs!r} cannot be a left-hand side", lineno)
        _check_symbol(lhs, lineno)
        if len(tokens) == 2:
            raise GrammarSyntaxError(f"missing right-hand side (use {EPSILON} for an empty one)", lineno)
        alts: list[list[str]] = [[]]
        for tok in tokens[2:]:
            if tok == PIPE:
                alts.append([])
            elif tok == ARROW:
                raise GrammarSyntaxError(f"{ARROW!r} is not allowed inside a right-hand side", lineno)
            else:
                alts[-1].append(tok)
        for alt in alts:
            if not alt:
                raise GrammarSyntaxError(f"empty alternative (use {EPSILON} explicitly)", lineno)
            if EPSILON in alt:
                if len(alt) != 1:
                    raise GrammarSyntaxError(f"{EPSILON} must be the whole alternative", lineno)
                rhs: tuple[str, ...] = ()
            else:
                for tok in alt:
                    _check_symbol(tok, lineno)
                rhs = tuple(alt)
            if (lhs, rhs) in seen:
                raise GrammarSyntaxError(
                    f"duplicate rule {lhs} {ARROW} {' '.join(rhs) or EPSILON}", lineno
                )
            seen.add((lhs, rhs))
            table.setdefault(lhs, []).append(Rule(rhs))
    if not table:
        raise GrammarSyntaxError("grammar contains no rules")
    # Stable partition: terminal rules first, source order kept in each group.
    normalized = {
        nt: tuple(sorted(rules, key=lambda r: any(s in table for s in r.rhs)))
        for nt, rules in table.items()
    }
    return Grammar(next(iter(table)), normalized)


def _check_symbol(tok: str, lineno: int) -> None:
    # Parentheses would break the s-expression serialization of trees.
    if "(" in tok or ")" in tok:
        raise GrammarSyntaxError(f"symbol {tok!r} may not contain parentheses", lineno)


def load_grammar(path: str) -> Grammar:
    """Read and parse a grammar file."""
    with open(path, encoding="utf-8") as handle:
        return parse_grammar(handle.read())


def format_grammar(g: Grammar) -> str:
    """Render the (normalized) rule table back into the text format."""
    lines = []
    for nt, rules in g.rules.items():
        alts = [" ".join(r.rhs) if r.rhs else EPSILON for r in rules]
        lines.append(f"{nt} {ARROW} " + f" {PIPE} ".join(alts))
    return "\n".join(lines) + "\n"


class Violation(NamedTuple):
    nonterminal: str
    check: str  # "productivity" | "finite-trees" | "zero-termination"
    message: str


class ValidationReport(NamedTuple):
    violations: list[Violation]
    unreachable: list[str]
    checked: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_grammar(g: Grammar) -> ValidationReport:
    """Check every nonterminal reachable from the start symbol.

    Unreachable nonterminals cannot influence enumeration; they are listed
    in the report but not required to pass.
    """
    reachable = {g.start}
    work = [g.start]
    while work:
        v = work.pop()
        for rule in g.rules[v]:
            for sym in rule.rhs:
                if sym in g.rules and sym not in reachable:
                    reachable.add(sym)
                    work.append(sym)

    # Productivity: some rule has only productive symbols.
    productive = _bottoms_out(g, lambda v: g.rules[v])

    # Infinitely many trees: v reaches (in >= 0 steps) a nonterminal on a
    # cycle of the rhs-occurrence graph restricted to productive symbols.
    succ: dict[str, set[str]] = {v: set() for v in g.rules if v in productive}
    for v in succ:
        for rule in g.rules[v]:
            for s in rule.rhs:
                if s in succ:
                    succ[v].add(s)
    descendants: dict[str, set[str]] = {}
    for v in succ:
        seen: set[str] = set()
        work = list(succ[v])
        while work:
            u = work.pop()
            if u in seen:
                continue
            seen.add(u)
            work.extend(succ[u])
        descendants[v] = seen
    on_cycle = {v for v in succ if v in descendants[v]}
    infinite = {v for v in succ if on_cycle & (descendants[v] | {v})}

    # Zero-termination: the first rule of each nonterminal (a terminal rule
    # whenever one exists, thanks to normalization) eventually bottoms out.
    zero_terminates = _bottoms_out(g, lambda v: g.rules[v][:1])

    report = ValidationReport([], [v for v in g.rules if v not in reachable], [])
    for v in g.rules:
        if v not in reachable:
            continue
        report.checked.append(v)
        if v not in productive:
            report.violations.append(
                Violation(v, "productivity", f"{v} cannot derive any finite tree")
            )
        elif v not in infinite:
            report.violations.append(
                Violation(v, "finite-trees", f"{v} derives only finitely many trees")
            )
        if v not in zero_terminates:
            report.violations.append(
                Violation(
                    v,
                    "zero-termination",
                    f"expanding {v} by first rules never reaches an all-terminal tree",
                )
            )
    return report


def _bottoms_out(g: Grammar, rules_of) -> set[str]:
    """Least fixpoint: the nonterminals v with a rule in ``rules_of(v)``
    whose rhs holds only terminals and members of the set."""
    done: set[str] = set()
    changed = True
    while changed:
        changed = False
        for v in g.rules:
            if v not in done and any(all(s not in g.rules or s in done for s in r.rhs) for r in rules_of(v)):
                done.add(v)
                changed = True
    return done


def validate(g: Grammar) -> Grammar:
    """Return a validated copy of g, sharing its tables, or raise
    InvalidGrammarError."""
    report = check_grammar(g)
    if not report.ok:
        raise InvalidGrammarError(report)
    twin = copy.copy(g)
    twin.validated = True
    twin._checked = frozenset(report.checked)
    return twin


def leaves(t: DerivationTree | str) -> list[str]:
    """Terminal tokens of the tree in left-to-right order."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, DerivationTree):
            if type(x) is _Shared and _reuse(x, "_leaves", out.extend, out, stack):
                continue
            stack.extend(reversed(x[1]))
        elif type(x) is tuple:
            x[0]._leaves = tuple(out[x[1]:])
        else:
            out.append(x)
    return out


def yield_of(t: DerivationTree, sep: str = "") -> str:
    """The terminal string of the tree, joined by ``sep``."""
    return sep.join(leaves(t))


def node_count(t: DerivationTree | str) -> int:
    """Size of a tree: nonterminal nodes plus terminal leaves."""
    n = 0
    stack: list[DerivationTree | str] = [t]
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, DerivationTree):
            stack.extend(x.children)
    return n


def subtrees(t: DerivationTree) -> Iterator[DerivationTree]:
    """All nonterminal nodes of t in depth-first preorder."""
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        for c in reversed(x.children):
            if isinstance(c, DerivationTree):
                stack.append(c)


def _rule_hit(g: Grammar, nt: str, kids) -> tuple[int, int, int] | None:
    """(rule index, nonterminals on the rhs, nonterminal rules of nt) of the
    rule that a node nt with children kids applies, or None.

    In the lookup key a token stands for itself and a subtree for the
    1-tuple of its label, so a token "NP" never passes for a child NP, nor
    a child n for a token n.
    """
    return g._rule_ids.get((nt, tuple([c[:1] if isinstance(c, DerivationTree) else c for c in kids])))


def rule_index_of(g: Grammar, node: DerivationTree) -> int:
    """Index (in the normalized rule list) of the rule this node applies."""
    if node.nt not in g.rules:
        raise TreeNotInGrammarError(f"{node.nt!r} is not a nonterminal of the grammar")
    hit = _rule_hit(g, node.nt, node.children)
    if hit is not None:
        return hit[0]
    shape = " ".join(c.nt if isinstance(c, DerivationTree) else c for c in node.children)
    raise TreeNotInGrammarError(
        f"tree not generated by grammar: no rule {node.nt} {ARROW} {shape or EPSILON}"
    )


def verify_tree(g: Grammar, t: DerivationTree) -> None:
    """Raise TreeNotInGrammarError unless every node of t applies some rule."""
    for node in subtrees(t):
        rule_index_of(g, node)


def tree_to_sexpr(t: DerivationTree) -> str:
    """Serialize to ``(S (NP n) (VP v))`` form."""
    pieces: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is str:
            pieces.append(x)
        elif isinstance(x, DerivationTree):
            if type(x) is _Shared and _reuse(x, "_sexp", pieces.append, pieces, stack):
                continue
            pieces.append("(" + x[0])
            stack.append(")")
            stack.extend(reversed(x[1]))
        elif type(x) is tuple:
            pieces[x[1]:] = [" ".join(pieces[x[1]:])]
            x[0]._sexp = pieces[-1]
        else:
            pieces.append(x)
    # Symbols hold no parentheses, so " )" only ever ends a node.
    return " ".join(pieces).replace(" )", ")")


def sexpr_to_tree(g: Grammar, text: str) -> DerivationTree:
    """Parse an s-expression and verify it is a derivation tree of g.

    Each node's rule is looked up when the node closes, but a syntax error
    anywhere in the text is reported before a node that applies no rule.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise SexprSyntaxError("empty input")
    # The open node's label and children; the stack holds its ancestors'.
    label = kids = None
    stack: list = []
    in_grammar = True
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            nxt = next(it, ")")
            if nxt == "(" or nxt == ")":
                raise SexprSyntaxError("expected a node label after '('")
            stack.append((label, kids))
            label, kids = nxt, []
        elif tok == ")":
            if label is None:
                raise SexprSyntaxError("unbalanced ')'")
            node = tuple.__new__(DerivationTree, (label, tuple(kids)))
            if in_grammar and _rule_hit(g, label, node[1]) is None:
                in_grammar = False
            label, kids = stack.pop()
            if label is None:
                break
            kids.append(node)
        elif label is None:
            raise SexprSyntaxError("tree must start with '('")
        else:
            kids.append(tok)
    else:
        raise SexprSyntaxError("unbalanced '(': missing closing ')'")
    if next(it, None) is not None:
        raise SexprSyntaxError("unexpected content after the closing ')'")
    if not in_grammar:
        verify_tree(g, node)  # raises, naming the first bad node in preorder
    return node


def tree_to_json_obj(t: DerivationTree | str):
    """JSON-ready form: {"nt": ..., "children": [...]}, terminals as strings."""
    if isinstance(t, str):
        return t
    root = {"nt": t.nt, "children": []}
    stack = [(t.children, root["children"])]
    while stack:
        children, out = stack.pop()
        for c in children:
            if isinstance(c, str):
                out.append(c)
            else:
                obj = {"nt": c.nt, "children": []}
                out.append(obj)
                stack.append((c.children, obj["children"]))
    return root
