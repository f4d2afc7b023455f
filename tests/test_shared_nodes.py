"""Memo nodes of an ``enumerate_trees`` stream keep their renderings.

They must stay invisible: every rendering, ``repr``, ``==``, ``hash``,
``copy`` and ``pickle`` give what the same tree built by ``decode`` gives,
whether the cache on a node is cold or warm.
"""

import copy
import json
import pickle
import sys
import types

from treenum import (
    DerivationTree,
    decode,
    enumerate_trees,
    load_grammar,
    parse_grammar,
    subtrees,
    tree_to_json_obj,
    tree_to_sexpr,
    validate,
    yield_of,
)
from treenum.cli import _render
from treenum.codec import MEMO_LIMIT, SHARE_LIMIT
from conftest import REPO


def dumped(t):
    """json.dumps of the JSON object.  It recurses once per level, so the
    limit is raised for the call; where a fixed C recursion limit stops it
    anyway (Python 3.12 on), the error stands for the text."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return json.dumps(tree_to_json_obj(t))
    except RecursionError:
        return RecursionError
    finally:
        sys.setrecursionlimit(limit)


CLI_JSON = types.SimpleNamespace(format="json", sep="")
RENDERERS = (
    yield_of,
    lambda t: yield_of(t, " "),
    tree_to_sexpr,
    dumped,
    lambda t: _render(t, CLI_JSON),
)


def shared(t):
    return [x for x in subtrees(t) if type(x) is not DerivationTree]


def decoded(g, v):
    return lambda i: [render(decode(g, v, i)) for render in RENDERERS]


def assert_renders_like(want, g, v, start, count):
    """Render each tree of the stream twice, formats in rotating order, and
    compare with ``want(index)``: the first time the tree's new memo nodes
    have nothing cached, the second time they have."""
    seen = 0
    for k, (i, t) in enumerate(enumerate_trees(g, v, start, count)):
        texts = want(i)
        seen += len(shared(t))
        for warm in range(2):
            for j in range(len(RENDERERS)):
                f = (j + k) % len(RENDERERS)
                assert RENDERERS[f](t) == texts[f], (i, warm, f)
    assert seen


def test_textbook_window_renders_like_decode(textbook):
    assert_renders_like(decoded(textbook, "S"), textbook, "S", 0, 10_001)


def test_logic_window_renders_like_decode():
    g = validate(load_grammar(str(REPO / "perfbench" / "logic.cfg")))
    assert_renders_like(decoded(g, "F"), g, "F", 2**130, 300)


def test_epsilon_grammar_renders_like_decode():
    g = validate(parse_grammar("S -> <eps> | a S b S | c T\nT -> <eps> | T d | e S f\n"))
    assert_renders_like(decoded(g, "S"), g, "S", 0, 2_000)


def test_chain_renders_like_decode():
    # Tree i is a^i x.  Past SHARE_LIMIT its top levels are plain nodes over
    # a shared one, and past MEMO_LIMIT its child is not memoised at all.
    g = validate(parse_grammar("S -> x | a S\n"))

    def chain(i):
        return ["a" * i + "x", "a " * i + "x", "(S a " * i + "(S x)" + ")" * i,
                dumped(decode(g, "S", i)),
                '{"nt":"S","children":["a",' * i + '{"nt":"S","children":["x"]}' + "]}" * i]

    for i in (0, 1, SHARE_LIMIT, SHARE_LIMIT + 1, MEMO_LIMIT, 1_500):
        assert chain(i) == decoded(g, "S")(i)
    assert_renders_like(chain, g, "S", 0, 1_501)


def test_hand_built_nodes_render_as_before(textbook):
    hand = DerivationTree("S", ["a", DerivationTree("B", ["b c", DerivationTree("E", [])]), " ",
                                DerivationTree("C", ("d )",))])
    assert [render(hand) for render in RENDERERS] == [
        "ab c d )",
        "a b c   d )",
        "(S a (B b c (E))   (C d)))",
        '{"nt": "S", "children": ["a", {"nt": "B", "children": ["b c", {"nt": "E", "children": []}]},'
        ' " ", {"nt": "C", "children": ["d )"]}]}',
        '{"nt":"S","children":["a",{"nt":"B","children":["b c",{"nt":"E","children":[]}]},'
        '" ",{"nt":"C","children":["d )"]}]}',
    ]
    # Memo nodes inside a hand-built node with list children.
    (_, t), = enumerate_trees(textbook, "S", 500, 1)
    want = decode(textbook, "S", 500)
    for _ in range(2):
        mixed = [render(DerivationTree("X", [t, " y", t[1][0]])) for render in RENDERERS]
        assert mixed == [render(DerivationTree("X", [want, " y", want[1][0]])) for render in RENDERERS]


def test_shared_nodes_look_like_decoded_ones(textbook):
    seen = 0
    for i, t in enumerate_trees(textbook, "S", 0, 2_001):
        want = decode(textbook, "S", i)
        tree_to_sexpr(t), yield_of(t)  # fill the caches first
        seen += len(shared(t))
        assert repr(t) == repr(want)
        assert t == want and not t != want
        assert hash(t) == hash(want)
        for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert twin == want
            assert not shared(twin)
        assert type(copy.copy(t)) is DerivationTree and copy.copy(t) == want
        assert type(t._replace(nt="S")) is DerivationTree
    assert seen


def test_nodes_over_the_share_limit_are_plain():
    g = validate(parse_grammar("S -> x | a S\n"))
    # Tree i is a chain of i + 1 expansions; its subtree of index i - 1 is
    # a memo node of i expansions.
    for i, t in enumerate_trees(g, "S", 2, SHARE_LIMIT + 10):
        assert (type(t[1][1]) is DerivationTree) == (i > SHARE_LIMIT), i
