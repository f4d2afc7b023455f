"""The bijection between natural numbers and derivation trees.

``decode`` maps an index to the tree it names; ``encode`` inverts it
exactly.  For a nonterminal v with terminal rules T_v and remaining rules
N_v (normalized order), index n means:

* n < |T_v|: the single node applying terminal rule n;
* otherwise n - |T_v| is an IntegerizedStack: popping modulo |N_v| picks
  the rule, and splitting the rest yields one index per nonterminal on
  the right-hand side, consumed left to right.

Keeping terminal rules in their own index range is what makes the map
one-to-one: a packed stack value would otherwise collide with the small
indices naming terminal rules.

Both directions walk an explicit stack rather than recursing: an index n
can name a tree whose depth grows linearly in n (unary rule chains), far
past any recursion limit.  Both read the tables each ``Grammar`` compiles
once, with one lookup per node, and do the work of ``intstack`` inline.
"""

import itertools
import math
from typing import Iterator

from .grammar import DerivationTree, Grammar, _rule_hit, _Shared, rule_index_of

DEFAULT_STEP_BUDGET = 1_000_000
_NO_BUDGET = 1 << 62  # stands in for max_steps=None; no tree gets near it

# Each enumerate_trees stream keeps up to MEMO_CAP subtrees of indices below
# MEMO_LIMIT: child indices shrink like a square root, so they recur often.
MEMO_LIMIT = 1024
MEMO_CAP = 50_000
SHARE_LIMIT = 256  # memo subtrees of up to this many expansions keep their renderings


class StepBudgetExceeded(RuntimeError):
    """Decoding performed more expansions than the configured budget.

    With a validated grammar this cannot happen for any finite index that
    names a tree within the budget; it is a hard stop against validator
    bugs and against indices whose trees are too large to materialize.
    """


class DecodeStats:
    """Counts nonterminal expansions (one per decode of a tree node)."""

    def __init__(self, expansions: int = 0):
        self.expansions = expansions


def decode(
    g: Grammar,
    v: str,
    n: int,
    *,
    max_steps: int | None = DEFAULT_STEP_BUDGET,
    stats: DecodeStats | None = None,
) -> DerivationTree:
    """Return the n'th derivation tree rooted at nonterminal v."""
    _check_args(g, v, n)
    tree, steps = unfold(g, v, n, max_steps)
    if stats is not None:
        stats.expansions += steps
    return tree


def unfold(g: Grammar, v: str, n: int, max_steps: int | None, memo=None, refs=None):
    """The decoding core: return (tree for index n of v, expansions made).

    Children are expanded left to right, and each node is built once, when
    its last child is finished.  Optional hooks: ``memo`` maps ``(nt, idx)``
    for idx < MEMO_LIMIT to ``(tree, expansions)``, and a hit is charged its
    expansions; ``refs.lookup(nt, idx, root's child list so far)`` returns
    ``(tree, None)`` for a back-reference or ``(None, index left to decode)``.
    """
    expand = g._expand
    isqrt = math.isqrt
    new = tuple.__new__
    budget = _NO_BUDGET if max_steps is None else max_steps
    hooked = memo is not None or refs is not None
    frames: list = []  # nodes under construction: (nt, idx, kids, todo, slot in parent, steps)
    steps = 0
    nt, idx, slot = v, n, 0
    while True:
        node = None
        if hooked:
            if memo is None:
                node, idx = refs.lookup(nt, idx, frames[0][2] if frames else ())
            elif idx < MEMO_LIMIT:
                hit = memo.get((nt, idx))
                if hit is not None:
                    node, size = hit
                    steps += size - 1
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(
                f"decode exceeded {max_steps} expansions at nonterminal {nt!r}; "
                f"the tree for this index may be too large to materialize"
            )
        if node is None:
            t_count, k, leaves, rules = expand[nt]
            if idx < t_count:
                node = leaves[idx]
            else:
                # IntegerizedStack.modpop and .split, written out inline
                # because this loop dominates enumeration time.
                value = idx - t_count
                rhs, slots = rules[value % k]
                value //= k
                if len(slots) == 1:
                    frames.append((nt, idx, list(rhs), (), slot, steps))
                    (slot, nt), idx = slots[0], value
                    continue
                todo = []
                for pos, sym in slots[:-1]:
                    m = isqrt(value)
                    d = value - m * m
                    if d < m:
                        value, part = d, m
                    else:
                        value, part = m, m * m + 2 * m - value
                    todo.append((pos, sym, part))
                pos, sym = slots[-1]
                todo.append((pos, sym, value))
                todo.reverse()
                frames.append((nt, idx, list(rhs), todo, slot, steps))
                slot, nt, idx = todo.pop()
                continue
        # Climb: store the finished node, then finish every parent whose
        # last child it was.
        while frames:
            frame = frames[-1]
            frame[2][slot] = node
            if frame[3]:
                slot, nt, idx = frame[3].pop()
                break
            frames.pop()
            slot = frame[4]
            if memo is None or frame[1] >= MEMO_LIMIT or len(memo) >= MEMO_CAP:
                node = new(DerivationTree, (frame[0], tuple(frame[2])))
                continue
            size = steps - frame[5] + 1
            node = new(_Shared if size <= SHARE_LIMIT else DerivationTree, (frame[0], tuple(frame[2])))
            memo[frame[0], frame[1]] = (node, size)
        else:
            return node, steps


def encode(g: Grammar, t: DerivationTree) -> int:
    """Return the index that decodes to t (the exact inverse of decode)."""
    if not g.validated:
        raise ValueError("grammar must be validated (call validate first)")
    plan = []  # (rule index, nonterminals on the rhs, nonterminal rules) in preorder
    stack = [t]
    while stack:
        node = stack.pop()
        if not isinstance(node, DerivationTree):
            continue  # a token
        hit = _rule_hit(g, node[0], node[1])
        if hit is None:
            rule_index_of(g, node)  # raises, naming the node
        plan.append(hit)
        stack += node[1]
    values: list[int] = []  # finished nodes' indices, a node's first child deepest
    for j, n_sub, k in reversed(plan):
        if n_sub:
            value = values.pop()
            for _ in range(n_sub - 1):  # intstack.join
                a = values.pop()
                m = value if value > a else a
                value = m * m + m + value - a
            j += k * value
        values.append(j)
    return values[0]


def enumerate_trees(
    g: Grammar,
    v: str | None = None,
    start: int = 0,
    count: int | None = None,
    *,
    max_steps: int | None = DEFAULT_STEP_BUDGET,
) -> Iterator[tuple[int, DerivationTree]]:
    """Yield (index, tree) for index = start, start+1, ...

    ``count`` limits the stream; None streams forever.  The stream keeps a
    bounded memo of small subtrees (see ``MEMO_LIMIT``), shared between its
    trees, so memory use does not grow with the index.  The renderers keep
    their text on memo subtrees of up to ``SHARE_LIMIT`` expansions.
    """
    if v is None:
        v = g.start
    if start < 0:
        raise ValueError("start index must be non-negative")
    if count is not None and count < 0:
        raise ValueError("count must be non-negative")
    if count != 0:
        _check_args(g, v, start)
    indices = itertools.count(start) if count is None else range(start, start + count)
    memo: dict = {}
    for i in indices:
        yield i, unfold(g, v, i, max_steps, memo)[0]


def _check_args(g: Grammar, v: str, n: int) -> None:
    if not g.validated:
        raise ValueError("grammar must be validated (call validate first)")
    if v not in g.rules:
        raise ValueError(f"unknown nonterminal {v!r}")
    if v not in g._checked:
        raise ValueError(f"nonterminal {v!r} is unreachable from {g.start!r} and was not validated")
    if n < 0:
        raise ValueError(f"index must be a non-negative integer (got {n})")
