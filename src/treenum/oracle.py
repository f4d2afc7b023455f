"""Exhaustive enumeration of small derivation trees, used as ground truth.

``all_trees`` expands sentential forms breadth-first through the leftmost
unexpanded nonterminal, pruning once a form cannot finish within the node
bound.  It never touches the integer codecs, so it can sit on the other
side of bijection tests from them.
"""

from typing import Callable, NamedTuple, Union

from .codec import _check_args
from .codec import decode as _codec_decode
from .codec import encode as _codec_encode
from .grammar import DerivationTree, Grammar, node_count, rule_index_of, subtrees


class _Hole(NamedTuple):
    """An unexpanded nonterminal occurrence in a partial tree."""

    nt: str


_Partial = Union[DerivationTree, str, _Hole]


def all_trees(g: Grammar, v: str, max_nodes: int, *, max_steps: int = 10_000_000) -> list[DerivationTree]:
    """Every derivation tree rooted at v with at most max_nodes nodes.

    Node counts include terminal leaves.  The result is duplicate-free and
    ordered by (node count, preorder rule-index sequence).
    """
    _check_args(g, v, 0)
    steps = 0
    done: list[DerivationTree] = []
    frontier: list[_Partial] = [_Hole(v)]
    while frontier:
        nxt: list[_Partial] = []
        for t in frontier:
            nt = _leftmost_hole(t)
            if nt is None:
                done.append(t)
                continue
            for rule in g.rules[nt]:
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(f"all_trees exceeded {max_steps} expansions")
                expanded, _ = _expand_leftmost(t, rule.rhs, g)
                # Every hole becomes at least one node.
                if node_count(expanded) <= max_nodes:
                    nxt.append(expanded)
        frontier = nxt
    done.sort(key=lambda t: (node_count(t), _rule_signature(g, t)))
    return done


def _leftmost_hole(t: _Partial) -> str | None:
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, _Hole):
            return x.nt
        if isinstance(x, DerivationTree):
            stack.extend(reversed(x.children))
    return None


def _expand_leftmost(t: _Partial, rhs: tuple[str, ...], g: Grammar):
    if isinstance(t, _Hole):
        children = tuple(_Hole(s) if s in g.rules else s for s in rhs)
        return DerivationTree(t.nt, children), True
    if isinstance(t, str):
        return t, False
    out = []
    hit = False
    for c in t.children:
        if not hit:
            c, hit = _expand_leftmost(c, rhs, g)
        out.append(c)
    return DerivationTree(t.nt, tuple(out)), hit


def _rule_signature(g: Grammar, t: DerivationTree) -> tuple[int, ...]:
    return tuple(rule_index_of(g, node) for node in subtrees(t))


class BijectionReport:
    """Outcome of cross-checking the codecs against the oracle."""

    def __init__(self, tree_count: int = 0, max_index: int = 0):
        self.tree_count = tree_count
        self.max_index = max_index
        self.tree_roundtrip_failures: list[DerivationTree] = []
        self.index_roundtrip_failures: list[int] = []
        self.unreached_trees: list[DerivationTree] = []
        self.unexpected_trees: list[DerivationTree] = []

    def __repr__(self) -> str:
        return f"BijectionReport({self.__dict__})"

    @property
    def ok(self) -> bool:
        return not (
            self.tree_roundtrip_failures
            or self.index_roundtrip_failures
            or self.unreached_trees
            or self.unexpected_trees
        )


def bijection_check(
    g: Grammar,
    v: str,
    max_nodes: int,
    max_index: int,
    *,
    encode_fn: Callable[[Grammar, DerivationTree], int] = _codec_encode,
    decode_fn: Callable[[Grammar, str, int], DerivationTree] = _codec_decode,
) -> BijectionReport:
    """Check both codec directions against the exhaustive enumeration.

    (a) decode(encode(T)) == T for every oracle tree T of <= max_nodes
    nodes; (b) encode(decode(n)) == n for every n <= max_index; (c) the
    small trees among decode(0..max_index) are exactly the oracle set, so
    no tree is skipped and none appears that the oracle missed.  The codec
    functions are injectable so a deliberately broken one can be shown up
    in tests.
    """
    expected = all_trees(g, v, max_nodes)
    report = BijectionReport(len(expected), max_index)

    for t in expected:
        if decode_fn(g, v, encode_fn(g, t)) != t:
            report.tree_roundtrip_failures.append(t)

    decoded_small: set[DerivationTree] = set()
    for n in range(max_index + 1):
        t = decode_fn(g, v, n)
        if encode_fn(g, t) != n:
            report.index_roundtrip_failures.append(n)
        if node_count(t) <= max_nodes:
            decoded_small.add(t)

    expected_set = set(expected)
    report.unreached_trees = [t for t in expected if t not in decoded_small]
    report.unexpected_trees = sorted(
        decoded_small - expected_set, key=lambda t: (node_count(t), _rule_signature(g, t))
    )
    return report
