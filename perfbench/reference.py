"""Reference computations that the benchmark checks the program against.

Everything here is written from the definitions, not from ``src/``:

* a grammar file is read into rule lists with the terminal rules first;
* index n of nonterminal v names terminal rule n while n < |T_v|;
  otherwise m = n - |T_v| picks nonterminal rule m mod |N_v| (modular
  pairing), and m div |N_v| is unpacked into one index per nonterminal
  on the right-hand side with the Rosenberg-Strong square-shell pairing
  R(x, y) = max(x, y)^2 + max(x, y) + x - y: the first k - 1 children are
  popped off as the second component, the last takes what remains;
* the back-referencing decoder follows the rules in the docstring of
  ``treenum.lz``, naively: before every expansion it rescans the tree
  built so far.

Trees are ``[label, children]`` lists with terminals as plain strings.
The renderers and the counter also accept the program's own trees, which
have the same shape (a label followed by a sequence of children).
"""

import json
import math

EPSILON = "<eps>"
MIN_TARGET_NODES = 4  # the smallest subtree a back-reference may name


class RefGrammar:
    """Rule lists of one grammar file, terminal rules first."""

    def __init__(self, path):
        table = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                lhs, _, rhs = line.partition("->")
                for alt in rhs.split("|"):
                    symbols = tuple(alt.split())
                    table.setdefault(lhs.strip(), []).append(() if symbols == (EPSILON,) else symbols)
        self.start = next(iter(table))
        self.terminal = {}
        self.nonterminal = {}
        for v, alts in table.items():
            self.terminal[v] = [rhs for rhs in alts if not any(s in table for s in rhs)]
            self.nonterminal[v] = [rhs for rhs in alts if any(s in table for s in rhs)]

    def is_nonterminal(self, symbol):
        return symbol in self.terminal

    def choose(self, v, n):
        """(rhs, child indices) for index n of v; child indices is None for a terminal rule."""
        terminal = self.terminal[v]
        if n < len(terminal):
            return terminal[n], None
        n -= len(terminal)
        rules = self.nonterminal[v]
        rhs = rules[n % len(rules)]
        slots = sum(1 for s in rhs if self.is_nonterminal(s))
        return rhs, unpack(n // len(rules), slots)


def rs_unpair(z):
    """Inverse of the square-shell pairing R(x, y)."""
    m = math.isqrt(z)
    d = z - m * m
    return (d, m) if d < m else (m, m * m + 2 * m - z)


def unpack(rest, k):
    """The k child indices packed into rest."""
    out = []
    for _ in range(k - 1):
        rest, top = rs_unpair(rest)
        out.append(top)
    out.append(rest)
    return out


def decode(g, v, n):
    """The tree that index n names under nonterminal v."""
    root = [v, []]
    work = [(root, n)]
    while work:
        node, n = work.pop()
        rhs, parts = g.choose(node[0], n)
        if parts is None:
            node[1].extend(rhs)
            continue
        parts = iter(parts)
        for s in rhs:
            if g.is_nonterminal(s):
                child = [s, []]
                node[1].append(child)
                work.append((child, next(parts)))
            else:
                node[1].append(s)
    return root


def lz_decode(g, v, n):
    """The back-referencing decoder, rescanning the whole tree at every expansion.

    Index values below the number of candidates name a candidate, the next
    ones name terminal rules, the rest are coded as in ``decode``.  A
    candidate is a finished subtree labeled v with at least
    MIN_TARGET_NODES nodes, found by a preorder walk of the outermost tree
    under construction, the first of structurally equal ones winning.  A
    node joins its parent's children when it is finished, so the nodes on
    the path being expanded are never reachable from the root.
    """
    root = None

    def candidates(label):
        found, seen = [], set()
        stack = [root] if root is not None else []
        while stack:
            node = stack.pop()
            if node is not root and node[0] == label:
                key = sexp(node)
                if key not in seen and count(node)[1] >= MIN_TARGET_NODES:
                    seen.add(key)
                    found.append(node)
            stack.extend(c for c in reversed(node[1]) if not isinstance(c, str))
        return found

    def expand(label, n):
        nonlocal root
        targets = candidates(label)
        if n < len(targets):
            return copy(targets[n])
        rhs, parts = g.choose(label, n - len(targets))
        if parts is None:
            return [label, list(rhs)]
        node = [label, []]
        if root is None:
            root = node
        parts = iter(parts)
        for s in rhs:
            node[1].append(expand(s, next(parts)) if g.is_nonterminal(s) else s)
        return node

    return expand(v, n)


def copy(tree):
    if isinstance(tree, str):
        return tree
    return [tree[0], [copy(c) for c in tree[1]]]


def count(tree):
    """(nonterminal nodes, all nodes including terminal leaves)."""
    inner = total = 0
    stack = [tree]
    while stack:
        x = stack.pop()
        total += 1
        if not isinstance(x, str):
            inner += 1
            stack.extend(x[1])
    return inner, total


def leaves(tree):
    out = []
    stack = [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            stack.extend(reversed(x[1]))
    return out


def yield_of(tree):
    return "".join(leaves(tree))


def sexp(tree):
    """``(S (NP n) (VP v))``: a space before every label and terminal, none before ')'."""
    out = []
    stack = [tree]
    while stack:
        x = stack.pop()
        if x is None:
            out.append(")")
        elif isinstance(x, str):
            out.append(" " + x)
        else:
            out.append(" (" + x[0])
            stack.append(None)
            stack.extend(reversed(x[1]))
    return "".join(out)[1:]


def json_text(tree):
    """Compact JSON of {"nt": label, "children": [...]}, terminals as strings."""

    def obj(x):
        return x if isinstance(x, str) else {"nt": x[0], "children": [obj(c) for c in x[1]]}

    return json.dumps(obj(tree), separators=(",", ":"))


RENDER = {"yield": yield_of, "sexp": sexp, "json": json_text}


def read_table(path):
    """Rows of a tab-separated spec table, keyed by their leading index."""
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            rows[int(fields[0])] = tuple(fields[1:])
    return rows
