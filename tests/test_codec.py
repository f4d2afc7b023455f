import random

import pytest

from treenum import (
    DecodeStats,
    DerivationTree,
    StepBudgetExceeded,
    decode,
    encode,
    enumerate_trees,
    load_grammar,
    lz_decode,
    parse_grammar,
    rule_index_of,
    sexpr_to_tree,
    subtrees,
    validate,
    yield_of,
)
from treenum.cli import main
from conftest import REPO, expected_enumeration


def test_decode_matches_reference_yields(textbook):
    for i, want in expected_enumeration():
        assert yield_of(decode(textbook, "S", i)) == want


def test_decode_named_examples(textbook):
    assert yield_of(decode(textbook, "S", 0)) == "nv"
    assert yield_of(decode(textbook, "S", 2)) == "dnvn"
    assert yield_of(decode(textbook, "S", 42)) == "daaanvnpn"
    assert yield_of(decode(textbook, "S", 100)) == "daaaaanv"


def test_encode_examples(textbook):
    assert encode(textbook, sexpr_to_tree(textbook, "(S (NP n) (VP v))")) == 0
    assert encode(textbook, DerivationTree("NP", ("d", "n"))) == 1
    t = decode(textbook, "S", 147)
    assert encode(textbook, t) == 147


def test_roundtrip_prefix(textbook, binary, random3):
    for g in (textbook, binary, random3):
        for n in range(1500):
            assert encode(g, decode(g, g.start, n)) == n


def test_decode_injective_over_prefix(textbook):
    seen = {decode(textbook, "S", n) for n in range(10_000)}
    assert len(seen) == 10_000


def test_decoded_trees_are_valid(textbook, random3):
    for g in (textbook, random3):
        for n in range(300):
            for node in subtrees(decode(g, g.start, n)):
                rule_index_of(g, node)  # raises on an invalid node


def _zero_tree(g, v):
    rule = g.rules[v][0]
    children = tuple(
        _zero_tree(g, s) if s in g.rules else s for s in rule.rhs
    )
    return DerivationTree(v, children)


def test_index_zero_takes_first_rules_everywhere(textbook, binary, random3):
    for g in (textbook, binary, random3):
        for v in g.rules:
            assert decode(g, v, 0) == _zero_tree(g, v)


def test_expansions_equal_nonterminal_node_count(textbook):
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(1_000_000)
        stats = DecodeStats()
        t = decode(textbook, "S", n, stats=stats)
        assert stats.expansions == sum(1 for _ in subtrees(t))


def test_enumerate_examples(textbook):
    rows = list(enumerate_trees(textbook, "S", 0, 3))
    assert [(i, yield_of(t)) for i, t in rows] == [(0, "nv"), (1, "dnv"), (2, "dnvn")]
    rows = list(enumerate_trees(textbook, "S", 99, 2))
    assert [yield_of(t) for _, t in rows] == ["nvnpdn", "daaaaanv"]
    assert list(enumerate_trees(textbook, "S", 0, 0)) == []


def test_enumerate_defaults_to_start_symbol(textbook):
    (i, t), = enumerate_trees(textbook, count=1)
    assert i == 0 and t.nt == "S"


def test_step_budget_guard(textbook):
    with pytest.raises(StepBudgetExceeded):
        decode(textbook, "S", 10**9, max_steps=10)
    # generous or disabled budgets decode the same index fine
    a = decode(textbook, "S", 12345)
    assert decode(textbook, "S", 12345, max_steps=None) == a


def test_decode_rejects_bad_arguments(textbook):
    unvalidated = parse_grammar("S -> S S | x")
    with pytest.raises(ValueError):
        decode(unvalidated, "S", 0)
    with pytest.raises(ValueError):
        encode(unvalidated, DerivationTree("S", ("x",)))
    with pytest.raises(ValueError):
        decode(textbook, "XP", 0)
    with pytest.raises(ValueError):
        decode(textbook, "S", -1)


@pytest.mark.parametrize("text", ["S -> x S | x\nT -> y\n", "S -> x S | x\nT -> T y\n"])
def test_unchecked_start_symbol_is_refused(capsys, tmp_path, text):
    # validate never checks T, which is unreachable from S: with T -> y it
    # has no nonterminal rule to divide by, with T -> T y no finite tree.
    g = validate(parse_grammar(text))
    calls = (lambda: decode(g, "T", 1), lambda: next(enumerate_trees(g, "T")),
             lambda: lz_decode(g, "T", 1))
    for call in calls:
        with pytest.raises(ValueError, match="'T' is unreachable from 'S'"):
            call()
    assert yield_of(decode(g, "S", 1)) == "xx"
    path = tmp_path / "g.cfg"
    path.write_text(text)
    assert main(["decode", str(path), "1", "--start", "T"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: nonterminal 'T' is unreachable from 'S' and was not validated\n"


def test_big_index_roundtrip_on_branching_grammars(binary, random3):
    rng = random.Random(5)
    for g in (binary, random3):
        for _ in range(10):
            n = rng.getrandbits(256)
            assert encode(g, decode(g, g.start, n)) == n


def test_memoised_enumeration_equals_decode_on_textbook_prefix(textbook):
    for i, t in enumerate_trees(textbook, "S", 0, 10_001):
        assert t == decode(textbook, "S", i), i
        assert encode(textbook, t) == i


def test_memoised_enumeration_equals_decode_on_logic_window():
    g = validate(load_grammar(str(REPO / "perfbench" / "logic.cfg")))
    start = random.Random(1024).getrandbits(24)
    for i, t in enumerate_trees(g, "F", start, 3000):
        assert t == decode(g, "F", i), i


def test_memoised_enumeration_hits_the_budget_where_decode_does(textbook):
    first = None
    for n in range(10_001):
        try:
            decode(textbook, "S", n, max_steps=50)
        except StepBudgetExceeded:
            first = n
            break
    assert first is not None
    reached = []
    with pytest.raises(StepBudgetExceeded):
        for i, _ in enumerate_trees(textbook, "S", 0, None, max_steps=50):
            reached.append(i)
    assert reached == list(range(first))
