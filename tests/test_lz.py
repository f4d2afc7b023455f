import random
from dataclasses import dataclass, field

import pytest

from treenum import (
    DerivationTree,
    StepBudgetExceeded,
    decode,
    default_eligibility,
    diff_report,
    lz_decode,
    node_count,
    sexpr_to_tree,
    subtrees,
    rule_index_of,
    tree_to_sexpr,
    yield_of,
)
from treenum import IntegerizedStack
from treenum.lz import TargetTracker
from conftest import expected_ab_diff


def _targets_after(g, trees, nt, **kwargs):
    # The root mid-expansion, with `trees` as its finished children.
    tracker = TargetTracker(g, **kwargs)
    tracker.settle(list(trees))
    return tracker.targets(nt)


def test_no_targets_before_the_root_has_children(textbook):
    tracker = TargetTracker(textbook)
    assert tracker.targets("NP") == []
    tracker.settle(())
    assert tracker.targets("NP") == []
    assert tracker.lookup("NP", 0, ()) == (None, 0)


def test_completed_subtree_becomes_a_target(textbook):
    dan = sexpr_to_tree(textbook, "(NP d (AP a) n)")
    assert _targets_after(textbook, [dan], "NP") == [dan]
    # type must match
    assert _targets_after(textbook, [dan], "VP") == []


def test_small_subtrees_are_not_targets(textbook):
    dn = sexpr_to_tree(textbook, "(NP d n)")  # 3 nodes, below the threshold
    assert node_count(dn) < 4
    assert _targets_after(textbook, [dn], "NP") == []


def test_incomplete_nodes_are_not_targets(textbook):
    # A child of the root still being expanded holds its slot by name; the
    # finished child after it in this list is not reached either.
    dan = sexpr_to_tree(textbook, "(NP d (AP a) n)")
    tracker = TargetTracker(textbook)
    children = ["NP", dan]
    tracker.settle(children)
    assert tracker.targets("NP") == []
    children[0] = dan
    tracker.settle(children)
    assert tracker.targets("NP") == [dan]


def test_targets_in_preorder_with_duplicates_dropped(textbook):
    outer = sexpr_to_tree(textbook, "(NP (NP n) (PP p (NP d (AP a) n)))")
    inner = sexpr_to_tree(textbook, "(NP d (AP a) n)")
    # preorder: the whole subtree comes before the nested one
    assert _targets_after(textbook, [outer], "NP") == [outer, inner]
    # a second structurally equal copy adds nothing
    assert _targets_after(textbook, [outer, inner], "NP") == [outer, inner]


def test_eligibility_predicate_is_injectable(textbook):
    dan = sexpr_to_tree(textbook, "(NP d (AP a) n)")
    assert _targets_after(textbook, [dan], "NP", eligible=lambda t: False) == []
    dn = sexpr_to_tree(textbook, "(NP d n)")
    assert _targets_after(textbook, [dn], "NP", eligible=lambda t: True) == [dn]


def test_lookup_copies_a_target_or_shifts_the_index(textbook):
    dan = sexpr_to_tree(textbook, "(NP d (AP a) n)")
    tracker = TargetTracker(textbook)
    copy, rest = tracker.lookup("NP", 0, [dan])
    assert copy == dan and copy is not dan and rest is None
    assert tracker.lookup("NP", 3, [dan]) == (None, 2)
    assert tracker.lookup("VP", 3, [dan]) == (None, 3)


def test_lz_decode_examples(textbook):
    assert yield_of(lz_decode(textbook, "S", 5)) == "danvdan"
    assert yield_of(lz_decode(textbook, "S", 20)) == "daanvn"
    assert yield_of(lz_decode(textbook, "S", 0)) == "nv"


def test_lz_decode_matches_reference_rows(textbook):
    for i, b_yield, _ in expected_ab_diff()[:12]:
        assert yield_of(lz_decode(textbook, "S", i)) == b_yield


def test_diff_report_first_rows(textbook):
    assert diff_report(textbook, "S", 7) == [
        (5, "danvdan", "danvn"),
        (6, "danvdanv", "danvnv"),
    ]
    assert diff_report(textbook, "S", 0) == []
    assert diff_report(textbook, "S", 5) == []


def test_never_eligible_degenerates_to_plain_decode(textbook):
    for n in range(300):
        assert lz_decode(textbook, "S", n, eligible=lambda t: False) == decode(textbook, "S", n)


def test_referenced_copies_are_independent(textbook):
    # index 42 references the same noun phrase more than once
    t = lz_decode(textbook, "S", 42)
    occurrences = [s for s in subtrees(t) if s.nt == "NP" and yield_of(s) == "daaan"]
    assert len(occurrences) >= 2
    assert all(o == occurrences[0] for o in occurrences)
    for i in range(1, len(occurrences)):
        assert occurrences[i] is not occurrences[0]


def test_lz_outputs_are_valid_trees(textbook):
    for n in range(300):
        for node in subtrees(lz_decode(textbook, "S", n)):
            rule_index_of(textbook, node)


def test_lz_decode_is_not_injective(textbook):
    # distinct indices can build identical trees once references exist
    assert lz_decode(textbook, "S", 101) == lz_decode(textbook, "S", 110)
    # while the plain decoder keeps them apart
    assert decode(textbook, "S", 101) != decode(textbook, "S", 110)
    seen = {}
    collisions = []
    for n in range(1001):
        t = lz_decode(textbook, "S", n)
        if t in seen:
            collisions.append((seen[t], n))
        else:
            seen[t] = n
    assert (101, 110) in collisions


def test_lz_decode_rejects_bad_arguments(textbook):
    with pytest.raises(ValueError):
        lz_decode(textbook, "XP", 0)
    with pytest.raises(ValueError):
        lz_decode(textbook, "S", -1)


def test_default_eligibility_threshold(textbook):
    assert not default_eligibility(sexpr_to_tree(textbook, "(NP d n)"))
    assert default_eligibility(sexpr_to_tree(textbook, "(NP d (AP a) n)"))
    assert default_eligibility(sexpr_to_tree(textbook, "(PP p (NP n))"))


# The recursive decoder that lz_decode replaced, kept as a naive oracle: it
# rescans the whole partial tree before every expansion.  A complete node
# never changes, so its frozen form and s-expression are kept once made.
@dataclass
class _OracleNode:
    nt: str
    children: list = field(default_factory=list)
    complete: bool = False
    frozen: tuple | None = None
    key: str = ""


def _freeze(node):
    if isinstance(node, str):
        return node
    return DerivationTree(node.nt, tuple(_freeze(c) for c in node.children))


def _thaw(t):
    if isinstance(t, str):
        return t
    return _OracleNode(t.nt, [_thaw(c) for c in t.children], complete=True)


def _oracle_targets(nt, root, eligible):
    out, seen = [], set()
    stack = [root] if root is not None else []
    while stack:
        node = stack.pop()
        if node.complete and node.nt == nt:
            if node.frozen is None:
                node.frozen = _freeze(node)
                node.key = tree_to_sexpr(node.frozen)
            if node.key not in seen and eligible(node.frozen):
                seen.add(node.key)
                out.append(node.frozen)
        stack.extend(c for c in reversed(node.children) if isinstance(c, _OracleNode))
    return out


def oracle_lz_decode(g, v, n, eligible=default_eligibility, max_steps=None):
    root = None
    steps = 0

    def expand(nt, idx):
        nonlocal root, steps
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise StepBudgetExceeded(f"lz decode exceeded {max_steps} expansions")
        targets = _oracle_targets(nt, root, eligible)
        if idx < len(targets):
            return _thaw(targets[idx])
        idx -= len(targets)
        rules = g.rules[nt]
        t_count = sum(1 for r in rules if not any(s in g.rules for s in r.rhs))
        if idx < t_count:
            return _OracleNode(nt, list(rules[idx].rhs), complete=True)
        value = idx - t_count
        rule = rules[t_count + value % (len(rules) - t_count)]
        arity = sum(1 for s in rule.rhs if s in g.rules)
        parts = IntegerizedStack(value // (len(rules) - t_count)).split(arity)
        node = _OracleNode(nt)
        if root is None:
            root = node
        for sym in rule.rhs:
            node.children.append(expand(sym, parts.pop(0)) if sym in g.rules else sym)
        node.complete = True
        return node

    return _freeze(expand(v, n))


def test_oracle_reproduces_the_reference_rows(textbook):
    for i, b_yield, _ in expected_ab_diff():
        assert yield_of(oracle_lz_decode(textbook, "S", i)) == b_yield


def test_lz_decode_matches_the_oracle_on_textbook_prefix(textbook):
    for n in range(10_001):
        assert lz_decode(textbook, "S", n) == oracle_lz_decode(textbook, "S", n), n


def test_lz_decode_matches_the_oracle_on_wide_binary_indices(binary):
    rng = random.Random(64256)
    for _ in range(200):
        bits = rng.randint(64, 256)
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert lz_decode(binary, "S", n) == oracle_lz_decode(binary, "S", n), n


def test_lz_decode_matches_the_oracle_with_other_predicates(textbook):
    small = lambda t: node_count(t) >= 2
    for n in range(0, 3000, 7):
        assert lz_decode(textbook, "S", n, eligible=small) == oracle_lz_decode(textbook, "S", n, small)


def test_lz_step_budget_fires_at_the_oracle_index(textbook):
    def first_failure(dec):
        for n in range(10_001):
            try:
                dec(textbook, "S", n, max_steps=50)
            except StepBudgetExceeded:
                return n
        return None

    first = first_failure(oracle_lz_decode)
    assert first is not None
    assert first_failure(lz_decode) == first
