"""Decoding with back-references to subtrees built earlier in the same tree.

This variant spends the smallest index values on pointers to previously
finished subtrees of the same nonterminal, then on terminal rules, and
only then falls through to the plain rule coding.  Referencing copies the
target subtree, so occurrences stay independent.  The map is total but no
longer one-to-one: distinct indices can name the same tree.

Children are expanded left to right, and a node joins its parent's
children when it is finished.  The targets of an expansion are therefore
the nodes of the subtrees hanging from the root's finished children, never
the root, the nodes on the path being expanded, or the finished nodes
below a child of the root that is still being expanded.  A target must be
labeled with the nonterminal being expanded and pass the eligibility
predicate.  Targets are listed in depth-first preorder, keeping the first
of structurally equal ones.  The default predicate keeps subtrees of at
least ``MIN_TARGET_NODES`` nodes, under which referencing cannot beat
spelling the subtree out; an always-false one makes this decoder agree
with the plain one everywhere.
"""

from typing import Callable

from .codec import DEFAULT_STEP_BUDGET, _check_args, decode, unfold
from .grammar import DerivationTree, Grammar, node_count, subtrees, yield_of

# Minimum size (nonterminal nodes + terminal leaves) of a referenceable subtree.
MIN_TARGET_NODES = 4


def default_eligibility(t: DerivationTree) -> bool:
    return node_count(t) >= MIN_TARGET_NODES


class TargetTracker:
    """The targets of one tree under construction, per nonterminal.

    Each finished child of the root is walked once.  Structurally equal
    subtrees share an interned id ``(nt, child ids)``, so no tree is hashed.
    """

    def __init__(self, g: Grammar, eligible: Callable[[DerivationTree], bool] = default_eligibility):
        self._nonterminals = g.rules
        # None selects the node counts kept with the structural ids.
        self._eligible = None if eligible is default_eligibility else eligible
        self._targets: dict[str, list[DerivationTree]] = {}
        self._ids: dict[tuple, int] = {}  # (nt, child ids or terminals) -> structural id
        self._sizes: list[int] = []  # structural id -> node count
        self._taken: set[int] = set()  # structural ids already listed
        self._scanned = 0  # root children walked so far

    def targets(self, nt: str) -> list[DerivationTree]:
        """The targets labeled ``nt``, in preorder."""
        return self._targets.get(nt, [])

    def settle(self, root_children) -> None:
        """Walk the root's children finished since the last call; in the
        list, a nonterminal's name holds the slot of an unfinished child."""
        while self._scanned < len(root_children):
            child = root_children[self._scanned]
            if isinstance(child, DerivationTree):
                self._add(child)
            elif child in self._nonterminals:
                return
            self._scanned += 1

    def lookup(self, nt: str, idx: int, root_children):
        """``(copy of target idx, None)``, or ``(None, idx - number of targets)``."""
        self.settle(root_children)
        targets = self._targets.get(nt, ())
        if idx < len(targets):
            return _copy(targets[idx]), None
        return None, idx - len(targets)

    def _add(self, tree: DerivationTree) -> None:
        order = list(subtrees(tree))
        ids, sizes = self._ids, self._sizes
        sid: dict[int, int] = {}  # id(node) -> structural id
        for x in reversed(order):
            key = (x[0], tuple(c if isinstance(c, str) else sid[id(c)] for c in x[1]))
            s = ids.get(key)
            if s is None:
                s = ids[key] = len(sizes)
                sizes.append(1 + sum(1 if isinstance(c, str) else sizes[sid[id(c)]] for c in x[1]))
            sid[id(x)] = s
        for x in order:
            s = sid[id(x)]
            if s in self._taken:
                continue
            if sizes[s] >= MIN_TARGET_NODES if self._eligible is None else self._eligible(x):
                self._taken.add(s)
                self._targets.setdefault(x[0], []).append(x)


def _copy(tree: DerivationTree) -> DerivationTree:
    """A copy of tree with new nodes (terminal tokens are shared)."""
    new = tuple.__new__
    built: dict[int, DerivationTree] = {}
    for x in reversed(list(subtrees(tree))):
        kids = tuple(c if isinstance(c, str) else built[id(c)] for c in x[1])
        built[id(x)] = new(DerivationTree, (x[0], kids))
    return built[id(tree)]


def lz_decode(
    g: Grammar,
    v: str,
    n: int,
    *,
    eligible: Callable[[DerivationTree], bool] = default_eligibility,
    max_steps: int | None = DEFAULT_STEP_BUDGET,
) -> DerivationTree:
    """Decode with back-references; identical to plain decode when no
    subtree is ever referenceable."""
    _check_args(g, v, n)
    return unfold(g, v, n, max_steps, refs=TargetTracker(g, eligible))[0]


def diff_report(
    g: Grammar,
    v: str | None = None,
    upto: int = 0,
    *,
    sep: str = "",
    eligible: Callable[[DerivationTree], bool] = default_eligibility,
) -> list[tuple[int, str, str]]:
    """Indices below ``upto`` where the two decoders disagree on the yield.

    Rows are (index, referencing yield, plain yield), ascending.
    """
    if v is None:
        v = g.start
    rows = []
    for i in range(upto):
        plain = yield_of(decode(g, v, i), sep)
        referencing = yield_of(lz_decode(g, v, i, eligible=eligible), sep)
        if referencing != plain:
            rows.append((i, referencing, plain))
    return rows
