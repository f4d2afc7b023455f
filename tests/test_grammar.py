import os
import subprocess
import sys

import pytest

from treenum import (
    DerivationTree,
    Grammar,
    GrammarSyntaxError,
    InvalidGrammarError,
    Rule,
    SexprSyntaxError,
    TreeNotInGrammarError,
    check_grammar,
    decode,
    encode,
    format_grammar,
    node_count,
    parse_grammar,
    rule_index_of,
    sexpr_to_tree,
    tree_to_json_obj,
    tree_to_sexpr,
    validate,
    verify_tree,
    yield_of,
)
from conftest import REPO


def test_textbook_normalization(textbook):
    np_rules = [r.rhs for r in textbook.rules["NP"]]
    assert np_rules == [("n",), ("d", "n"), ("d", "AP", "n"), ("NP", "PP")]
    assert textbook.start == "S"
    assert tuple(textbook.rules) == ("S", "NP", "AP", "PP", "VP")


def test_single_terminal_rule_grammar():
    g = parse_grammar("S -> x")
    assert g.rules["S"] == (Rule(("x",)),)


def test_stable_partition_reorders_terminal_rules_first():
    g = parse_grammar("S -> S S | x")
    assert [r.rhs for r in g.rules["S"]] == [("x",), ("S", "S")]


def test_hand_built_grammars_are_checked():
    with pytest.raises(ValueError, match="not normalized"):
        Grammar("S", {"S": (Rule(("S", "S")), Rule(("x",)))})
    with pytest.raises(ValueError, match="has no rules"):
        Grammar("S", {"S": (Rule(("x",)),), "T": ()})


def test_validate_shares_the_compiled_tables():
    g = parse_grammar("S -> x | S S")
    v = validate(g)
    assert v.validated and not g.validated
    assert v._expand is g._expand and v._rule_ids is g._rule_ids
    assert v == validate(parse_grammar("S -> x | S S")) and v != g
    with pytest.raises(TypeError):
        hash(v)


def test_start_symbol_is_first_lhs():
    g = parse_grammar("B -> b | b B\nA -> a | a A")
    assert g.start == "B"


def test_same_lhs_lines_append_alternatives():
    g = parse_grammar("S -> x\nS -> S S\nS -> y")
    assert [r.rhs for r in g.rules["S"]] == [("x",), ("y",), ("S", "S")]


def test_comments_and_blank_lines_ignored():
    g = parse_grammar("# heading\n\nS -> x  # trailing\n   \n")
    assert g.rules["S"][0].rhs == ("x",)


def test_epsilon_rule():
    g = parse_grammar("S -> a S | <eps>")
    rules = g.rules["S"]
    assert rules[0].rhs == ()
    assert rules[1].rhs == ("a", "S")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> x\nS - y")
    assert err.value.line == 2
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> x\n\nS -> a | | b")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "S -> x | x",  # duplicate rule
        "S -> a -> b",  # reserved arrow in rhs
        "-> -> x",  # reserved arrow as lhs
        "<eps> -> x",  # reserved epsilon as lhs
        "S -> a <eps> b",  # epsilon not standing alone
        "S ->",  # missing rhs
        "S -> (x)",  # parentheses in symbols
        "",  # no rules at all
        "# only a comment",
    ],
)
def test_rejected_grammar_texts(text):
    with pytest.raises(GrammarSyntaxError):
        parse_grammar(text)


def test_format_parse_roundtrip(textbook):
    text = format_grammar(textbook)
    again = parse_grammar(text)
    assert again.rules == textbook.rules
    assert again.start == textbook.start


def test_validate_accepts_textbook_and_binary(textbook, binary):
    assert textbook.validated and binary.validated
    report = check_grammar(textbook)
    assert report.ok and report.checked == list(textbook.rules)


def test_validate_rejects_finite_language():
    with pytest.raises(InvalidGrammarError) as err:
        validate(parse_grammar("S -> x"))
    violations = err.value.report.violations
    assert [(v.nonterminal, v.check) for v in violations] == [("S", "finite-trees")]


def test_validate_rejects_unproductive_nonterminal():
    report = check_grammar(parse_grammar("S -> S T | x\nT -> T x"))
    checks = {(v.nonterminal, v.check) for v in report.violations}
    assert ("T", "productivity") in checks
    assert ("T", "zero-termination") in checks
    assert not any(v.nonterminal == "S" and v.check == "productivity" for v in report.violations)


def test_validate_rejects_cyclic_first_rule():
    # A is productive and has infinitely many trees, but expanding first
    # rules loops: A has no terminal rule and its first remaining rule
    # starts with A again.
    report = check_grammar(parse_grammar("A -> A b | B b\nB -> b | b B"))
    assert [(v.nonterminal, v.check) for v in report.violations] == [("A", "zero-termination")]


def test_unreachable_nonterminals_reported_but_not_checked():
    report = check_grammar(parse_grammar("S -> x S | x\nT -> y"))
    assert report.ok
    assert report.unreachable == ["T"]
    assert report.checked == ["S"]


def test_yield_of(textbook):
    t = sexpr_to_tree(textbook, "(S (NP n) (VP v))")
    assert yield_of(t) == "nv"
    assert yield_of(sexpr_to_tree(textbook, "(AP a)")) == "a"
    assert yield_of(sexpr_to_tree(textbook, "(S (NP d n) (VP v))"), " ") == "d n v"


def test_sexpr_roundtrip(textbook):
    for text in ("(S (NP n) (VP v))", "(AP a)", "(S (NP d (AP a (AP a)) n) (VP v))"):
        t = sexpr_to_tree(textbook, text)
        assert tree_to_sexpr(t) == text
        assert sexpr_to_tree(textbook, tree_to_sexpr(t)) == t


def test_sexpr_epsilon_roundtrip():
    g = parse_grammar("S -> a S | <eps>")
    t = sexpr_to_tree(g, "(S a (S))")
    assert yield_of(t) == "a"
    assert tree_to_sexpr(t) == "(S a (S))"


@pytest.mark.parametrize(
    "text",
    ["", "x", "(S (NP n)", "(S (NP n)) junk", "()", "(S (NP n) (VP v)))", "((S))"],
)
def test_malformed_sexprs(textbook, text):
    with pytest.raises(SexprSyntaxError):
        sexpr_to_tree(textbook, text)


def test_trees_not_in_grammar(textbook):
    with pytest.raises(TreeNotInGrammarError):
        sexpr_to_tree(textbook, "(S (NP n))")  # no rule S -> NP
    with pytest.raises(TreeNotInGrammarError):
        sexpr_to_tree(textbook, "(X a)")  # unknown nonterminal
    with pytest.raises(TreeNotInGrammarError):
        sexpr_to_tree(textbook, "(S NP (VP v))")  # nonterminal used as a leaf


def test_rule_index_of(textbook):
    assert rule_index_of(textbook, DerivationTree("NP", ("d", "n"))) == 1
    assert rule_index_of(textbook, DerivationTree("VP", ("v",))) == 0
    s = sexpr_to_tree(textbook, "(S (NP n) (VP v))")
    assert rule_index_of(textbook, s) == 0
    with pytest.raises(TreeNotInGrammarError):
        rule_index_of(textbook, DerivationTree("NP", ("n", "n")))


@pytest.mark.parametrize(
    "node",
    [
        DerivationTree("S", ("NP", "VP")),  # leaf tokens naming nonterminals
        DerivationTree("NP", (DerivationTree("n", ()),)),  # a subtree labelled by a terminal
        DerivationTree("NP", (DerivationTree("d", ()), "AP", "n")),  # both, swapped
        DerivationTree("NP", ("d", DerivationTree("AP", ("a",)), DerivationTree("n", ()))),
    ],
)
def test_shape_checks(textbook, node):
    with pytest.raises(TreeNotInGrammarError):
        rule_index_of(textbook, node)
    with pytest.raises(TreeNotInGrammarError):
        verify_tree(textbook, node)
    with pytest.raises(TreeNotInGrammarError):
        encode(textbook, node)
    with pytest.raises(TreeNotInGrammarError):
        sexpr_to_tree(textbook, tree_to_sexpr(node))


def test_list_children_are_accepted(textbook):
    # DerivationTree does not enforce tuple children; a hand-built node
    # with lists must get the same answers as its tuple form.
    listed = DerivationTree("S", [DerivationTree("NP", ["d", "n"]), DerivationTree("VP", ["v"])])
    tupled = sexpr_to_tree(textbook, "(S (NP d n) (VP v))")
    assert rule_index_of(textbook, listed) == rule_index_of(textbook, tupled) == 0
    assert rule_index_of(textbook, listed.children[0]) == 1
    verify_tree(textbook, listed)
    assert encode(textbook, listed) == encode(textbook, tupled)


def as_tuples(t):
    return (t.nt, tuple(as_tuples(c) if isinstance(c, DerivationTree) else c for c in t.children))


def test_hash_and_eq_agree_with_plain_tuples(textbook):
    trees = [decode(textbook, "S", i) for i in range(2_000)]
    for t in trees:
        plain = as_tuples(t)
        assert hash(t) == hash(plain) and t == plain and plain == t
    assert len(set(trees) | {decode(textbook, "S", i) for i in range(1_000, 3_000)}) == 3_000


def test_hash_and_eq_under_a_raised_recursion_limit():
    # Under a raised limit a recursive == or hash (such as the C tuple
    # versions) would overflow the C stack on this tree before Python
    # raised RecursionError.
    script = """
import sys
from treenum import decode, parse_grammar, validate
g = validate(parse_grammar("S -> x | a S\\n"))
t, u = decode(g, "S", 100_000), decode(g, "S", 100_000)
h = hash(t)
sys.setrecursionlimit(10**6)
assert hash(t) == hash(u) == h
assert t == u and not t != u and t != decode(g, "S", 99_999)
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_node_count(textbook):
    assert node_count(sexpr_to_tree(textbook, "(AP a)")) == 2
    assert node_count(sexpr_to_tree(textbook, "(S (NP n) (VP v))")) == 5


def test_tree_to_json_obj(textbook):
    t = sexpr_to_tree(textbook, "(S (NP n) (VP v))")
    assert tree_to_json_obj(t) == {
        "nt": "S",
        "children": [
            {"nt": "NP", "children": ["n"]},
            {"nt": "VP", "children": ["v"]},
        ],
    }
