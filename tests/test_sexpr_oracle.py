"""The table-driven s-expression parser and writer against ports of the
regex parser, the linear-scan verifier and the two-pass writer they replace.

The oracles below keep the earlier code's behaviour: tokens come from a
regular expression, every rule is scanned child by child, and the whole
tree is verified in preorder after it is parsed.  ``sexpr_to_tree`` must
give the same tree or raise the same exception, with the same message, on
every string here, valid or mutated; ``tree_to_sexpr`` must write the same
text.
"""

import random
import re

import pytest

from treenum import (
    DerivationTree,
    SexprSyntaxError,
    TreeNotInGrammarError,
    decode,
    encode,
    enumerate_trees,
    load_grammar,
    parse_grammar,
    sexpr_to_tree,
    subtrees,
    tree_to_sexpr,
    validate,
)
from conftest import REPO

MUTATION_SEED = 20261020


def oracle_rule_index_of(g, node):
    rules = g.rules.get(node.nt)
    if rules is None:
        raise TreeNotInGrammarError(f"{node.nt!r} is not a nonterminal of the grammar")
    for i, rule in enumerate(rules):
        if len(rule.rhs) != len(node.children):
            continue
        for sym, child in zip(rule.rhs, node.children):
            if isinstance(child, DerivationTree):
                if child.nt != sym or sym not in g.rules:
                    break
            elif child != sym or sym in g.rules:
                break
        else:
            return i
    shape = " ".join(c.nt if isinstance(c, DerivationTree) else c for c in node.children)
    raise TreeNotInGrammarError(f"tree not generated by grammar: no rule {node.nt} -> {shape or '<eps>'}")


def oracle_verify_tree(g, t):
    for node in subtrees(t):
        oracle_rule_index_of(g, node)


def oracle_tree_to_sexpr(t):
    close = object()
    pieces = []
    stack = [t]
    while stack:
        x = stack.pop()
        if x is close:
            pieces.append(")")
        elif isinstance(x, DerivationTree):
            pieces.append("(" + x.nt)
            stack.append(close)
            stack.extend(reversed(x.children))
        else:
            pieces.append(x)
    out = []
    for p in pieces:
        if out and p != ")":
            out.append(" ")
        out.append(p)
    return "".join(out)


def oracle_sexpr_to_tree(g, text):
    tokens = re.findall(r"[()]|[^()\s]+", text)
    if not tokens:
        raise SexprSyntaxError("empty input")
    stack = []
    root = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if root is not None:
            raise SexprSyntaxError("unexpected content after the closing ')'")
        if tok == "(":
            if i + 1 >= len(tokens) or tokens[i + 1] in ("(", ")"):
                raise SexprSyntaxError("expected a node label after '('")
            stack.append((tokens[i + 1], []))
            i += 2
        elif tok == ")":
            if not stack:
                raise SexprSyntaxError("unbalanced ')'")
            label, children = stack.pop()
            node = DerivationTree(label, tuple(children))
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
            i += 1
        else:
            if not stack:
                raise SexprSyntaxError("tree must start with '('")
            stack[-1][1].append(tok)
            i += 1
    if root is None:
        raise SexprSyntaxError("unbalanced '(': missing closing ')'")
    oracle_verify_tree(g, root)
    return root


def outcome(parse, g, text):
    try:
        return "tree", parse(g, text)
    except (SexprSyntaxError, TreeNotInGrammarError) as err:
        return type(err).__name__, str(err)


@pytest.fixture(scope="module")
def logic():
    return validate(load_grammar(str(REPO / "perfbench" / "logic.cfg")))


@pytest.fixture(scope="module")
def eps():
    return validate(parse_grammar("S -> <eps> | a S b S | c T\nT -> <eps> | T d | e S f\n"))


def logic_indices():
    rng = random.Random(MUTATION_SEED)
    return [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (64, 128, 256, 512, 1024) for _ in range(40)]


def samples(textbook, logic, eps):
    """(grammar, index, tree) for every tree the differential tests cover."""
    for i, t in enumerate_trees(textbook, "S", 0, 10_001):
        yield textbook, i, t
    for n in logic_indices():
        yield logic, n, decode(logic, "F", n)
    for i, t in enumerate_trees(eps, "S", 0, 2_000):
        yield eps, i, t


def test_writer_parser_and_encode_match_the_oracles(textbook, logic, eps):
    checked = 0
    for g, n, t in samples(textbook, logic, eps):
        text = tree_to_sexpr(t)
        assert text == oracle_tree_to_sexpr(t), n
        back = sexpr_to_tree(g, text)
        assert back == t and back == oracle_sexpr_to_tree(g, text), n
        assert encode(g, back) == n
        checked += 1
    assert checked == 10_001 + 200 + 2_000


def mutate(rng, text, g):
    """One seeded damage to an s-expression, of a kind picked by the seed."""
    tokens = re.findall(r"[()]|[^()\s]+", text)
    kind = rng.randrange(7)
    if kind == 0:  # drop a parenthesis
        spots = [i for i, t in enumerate(tokens) if t in "()"]
        del tokens[rng.choice(spots)]
    elif kind == 1:  # add a parenthesis
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice("()"))
    elif kind == 2:  # swap two tokens
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 3:  # a leaf becomes a nonterminal name
        spots = [i for i, t in enumerate(tokens) if t not in "()" and tokens[i - 1] != "("]
        if spots:
            tokens[rng.choice(spots)] = rng.choice(list(g.rules))
    elif kind == 4:  # a node's label becomes a terminal
        spots = [i for i, t in enumerate(tokens) if i and tokens[i - 1] == "("]
        terminals = sorted({s for rules in g.rules.values() for r in rules for s in r.rhs} - set(g.rules))
        tokens[rng.choice(spots)] = rng.choice(terminals)
    if kind == 5:  # tabs, newlines and no-break spaces between tokens
        return "".join(t + rng.choice(("\t", "\n", "\xa0", " \n ", "")) for t in tokens)
    if kind == 6:  # trailing or leading junk
        return rng.choice(("", "x ", ") ")) + text + rng.choice(("", " x", " (", " )"))
    return " ".join(tokens)


def test_mutated_sexprs_match_the_oracle(textbook, logic, eps):
    rng = random.Random(MUTATION_SEED)
    kinds = {}
    for k, (g, n, t) in enumerate(samples(textbook, logic, eps)):
        if g is textbook and k % 5:
            continue
        text = mutate(rng, tree_to_sexpr(t), g)
        want = outcome(oracle_sexpr_to_tree, g, text)
        assert outcome(sexpr_to_tree, g, text) == want, text
        kinds[want[0]] = kinds.get(want[0], 0) + 1
    # The mutations reach every outcome.
    assert set(kinds) == {"tree", "SexprSyntaxError", "TreeNotInGrammarError"}, kinds


@pytest.mark.parametrize(
    "text",
    ["", " \t\xa0\n", "x", ")", "(", "(S", "(S (NP n)", "(S (NP n)) junk", "(S (NP n)) (", "()",
     "(S (NP n) (VP v)))", "((S))", "(S (NP n) (VP v)) )", "x (S (NP n) (VP v))",
     "(S (NP n))", "(X a)", "(S NP (VP v))", "(S (NP n) (VP v) junk)", "(S (NP n) (v))",
     "(NP d (n) n)", "(NP (d) AP n)", "(S\t(NP\xa0n)\n(VP v))", "(S (NP n) (VP v (NP (X))))"],
)
def test_edge_cases_match_the_oracle(textbook, text):
    assert outcome(sexpr_to_tree, textbook, text) == outcome(oracle_sexpr_to_tree, textbook, text)


def test_syntax_errors_win_over_grammar_errors(textbook):
    # The first node is not in the grammar, but the text is cut short.
    with pytest.raises(SexprSyntaxError):
        sexpr_to_tree(textbook, "(X a) junk")
    with pytest.raises(SexprSyntaxError):
        sexpr_to_tree(textbook, "(S NP VP")
