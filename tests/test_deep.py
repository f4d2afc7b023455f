"""Trees 10^5 levels deep, far past the recursion limit, on ``S -> x | a S``.

Index n of that grammar names the chain a^n x, a tree of depth n + 1.
"""

import pytest

from treenum import (
    DerivationTree,
    decode,
    encode,
    lz_decode,
    parse_grammar,
    sexpr_to_tree,
    tree_to_json_obj,
    tree_to_sexpr,
    validate,
    yield_of,
)

DEPTH = 100_000


def chain_sexpr(n: int) -> str:
    return "(S a " * n + "(S x)" + ")" * n


def count_levels(t) -> int:
    n = 0
    while len(t.children) == 2:
        t = t.children[1]
        n += 1
    return n


@pytest.fixture(scope="module")
def chain():
    return validate(parse_grammar("S -> x | a S\n"))


@pytest.fixture(scope="module")
def deep(chain):
    return decode(chain, "S", DEPTH)


def test_decode_and_encode(chain, deep):
    assert count_levels(deep) == DEPTH
    assert encode(chain, deep) == DEPTH


def test_lz_decode(chain, deep):
    assert lz_decode(chain, "S", DEPTH) == deep


def test_renderers(chain, deep):
    assert yield_of(deep) == "a" * DEPTH + "x"
    text = tree_to_sexpr(deep)
    assert text == chain_sexpr(DEPTH)
    assert sexpr_to_tree(chain, text) == deep


def test_json_obj(deep):
    obj = tree_to_json_obj(deep)
    for _ in range(DEPTH):
        assert obj["nt"] == "S" and obj["children"][0] == "a"
        obj = obj["children"][1]
    assert obj == {"nt": "S", "children": ["x"]}


def test_equality_and_hash(chain, deep):
    other = decode(chain, "S", DEPTH)
    assert other is not deep
    assert other == deep and not other != deep
    assert hash(other) == hash(deep)
    assert deep != decode(chain, "S", DEPTH - 1)
    assert len({deep, other, decode(chain, "S", DEPTH - 1)}) == 2


def test_hash_and_repr_agree_with_tuples_at_moderate_depth(chain):
    # Deep enough to need several levels, shallow enough for the recursive
    # tuple and namedtuple versions to compute their values.
    t = decode(chain, "S", 300)
    nested = ("S", ("x",))
    for _ in range(300):
        nested = ("S", ("a", nested))
    assert t == nested and nested == t
    assert hash(t) == hash(nested)
    assert repr(t) == repr(nested).replace("('S', ", "DerivationTree(nt='S', children=")


def test_repr(deep):
    head = "DerivationTree(nt='S', children=("
    assert repr(deep) == (head + "'a', ") * DEPTH + head + "'x',))" + "))" * DEPTH
    assert repr(DerivationTree("S")) == "DerivationTree(nt='S', children=())"
