"""The benchmark's workloads: inputs made from a seed, one timed operation, its checks.

A workload runs in rounds.  Every round holds the same make-up of
operations; only the random indices differ from round to round, and
``round(r)`` gives the same inputs for the same seed.  An input is a tuple
whose first field is its class (``textbook``, ``logic-256b``, ...), which
traced runs use to group spans.  Operations go through ``api``, a
namespace holding the ``treenum`` functions they call, so that traced
runs can wrap them and tests can put wrong ones in their place.
"""

import functools
import json
import random
import types

import reference as ref
import treenum


class Mismatch(Exception):
    """An output that disagrees with the reference or breaks a property of the method."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def short(n):
    """An index as text; the decimal form of a large one would be long or not allowed."""
    return str(n) if n.bit_length() <= 64 else f"0x{n:x}"[:18] + f"... ({n.bit_length()} bits)"


def plain_api():
    return types.SimpleNamespace(
        enumerate_trees=treenum.enumerate_trees,
        decode=treenum.decode,
        encode=treenum.encode,
        lz_decode=treenum.lz_decode,
        yield_of=treenum.yield_of,
        tree_to_sexpr=treenum.tree_to_sexpr,
        tree_to_json_obj=treenum.tree_to_json_obj,
        json_dumps=functools.partial(json.dumps, separators=(",", ":")),
        sexpr_to_tree=treenum.sexpr_to_tree,
    )


class Sink:
    """Takes rendered output like a file would and keeps only its length."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def render(api, fmt, tree):
    if fmt == "yield":
        return api.yield_of(tree)
    if fmt == "sexp":
        return api.tree_to_sexpr(tree)
    return api.json_dumps(api.tree_to_json_obj(tree))


FORMATS = ("yield", "sexp", "json")


def indices(rng, mix, label):
    """Random indices of exactly the given bit lengths, ``count`` of each."""
    return [(f"{label}-{bits}b", rng.getrandbits(bits) | 1 << (bits - 1))
            for bits, count in mix for _ in range(count)]


class Workload:
    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def grammar(self, relpath):
        path = str(self.root / relpath)
        return treenum.validate(treenum.load_grammar(path)), ref.RefGrammar(path)

    def begin_round(self, api):
        pass


class EnumerateTextbook(Workload):
    """Stream trees 0..WINDOW-1 of the textbook grammar, rendered in rotating formats."""

    name = "enumerate-textbook"
    WINDOW = 20_000  # trees in this window average 62 nodes
    grammar_path = "grammars/textbook.cfg"
    setup_argv = ("decode", grammar_path, "0")

    def __init__(self, root, seed, window=WINDOW):
        super().__init__(root, seed)
        self.window = window
        self.g, self.ref = self.grammar(self.grammar_path)
        self.spec = ref.read_table(root / "tests/data/expected_enumeration_0_100.tsv")
        self.sink = Sink()
        self.stream = None
        self.digests = [0] * window
        self.sizes = [0] * window

    def setup_output(self):
        return ref.yield_of(ref.decode(self.ref, "S", 0)) + "\n"

    def round(self, r):
        return [("textbook", i, FORMATS[(i + self.seed) % 3]) for i in range(self.window)]

    def begin_round(self, api):
        self.stream = api.enumerate_trees(self.g, None, 0, self.window)

    def op(self, api, x):
        i, tree = next(self.stream)
        text = render(api, x[2], tree)
        self.sink.write(text)
        self.sink.write("\n")
        return i, text, tree

    def check(self, r, x, out):
        """Compare with the reference; later rounds compare with a digest of round 0's
        reference outputs, since every round decodes the same window."""
        _, n, fmt = x
        i, text, tree = out
        expect(i == n, f"stream gave index {i} where {n} was due")
        got = hash((ref.sexp(tree), text))
        if r:
            expect(got == self.digests[n], f"tree {n} or its {fmt} rendering differs from round 0")
            return self.sizes[n]
        want = ref.decode(self.ref, "S", n)
        expect(ref.sexp(tree) == ref.sexp(want), f"tree {n} differs from the reference decoder")
        expect(text == ref.RENDER[fmt](want), f"{fmt} rendering of tree {n} differs")
        if n in self.spec:
            expect(ref.yield_of(want) == self.spec[n][0], f"tree {n} differs from the enumeration table")
        self.digests[n] = got
        self.sizes[n] = ref.count(want)[1]
        return self.sizes[n]

    def probe_items(self):
        return [("textbook", self.g, "S", i) for i in range(0, self.window, 10)]


class RoundtripWide(Workload):
    """Random 64- to 4096-bit indices of a logic grammar: decode, render, parse, encode."""

    name = "roundtrip-wide"
    # (bits, operations per round): the single 4096-bit index is 2% of a
    # round, so p99 falls inside the 4096-bit group and p50 inside the
    # 128-bit one, away from the edges between groups.
    MIX = ((64, 20), (128, 10), (256, 8), (512, 5), (1024, 3), (2048, 2), (4096, 1))
    REFERENCE_EVERY = 8  # this share of operations is also decoded by the reference
    grammar_path = "perfbench/logic.cfg"
    setup_argv = ("decode", grammar_path, "0")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.g, self.ref = self.grammar(self.grammar_path)

    def setup_output(self):
        return ref.yield_of(ref.decode(self.ref, "F", 0)) + "\n"

    def round(self, r):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        xs = indices(rng, self.MIX, "logic")
        rng.shuffle(xs)
        sample = set(rng.sample(range(len(xs)), len(xs) // self.REFERENCE_EVERY))
        return [(cls, n, k in sample) for k, (cls, n) in enumerate(xs)]

    def op(self, api, x):
        tree = api.decode(self.g, "F", x[1])
        text = api.tree_to_sexpr(tree)
        back = api.sexpr_to_tree(self.g, text)
        return api.encode(self.g, back), text, tree

    def check(self, r, x, out):
        _, n, sampled = x
        m, text, tree = out
        expect(m == n, f"encode(decode({short(n)})) gave {short(m)}")
        if sampled:
            expect(text == ref.sexp(ref.decode(self.ref, "F", n)),
                   f"tree {short(n)} differs from the reference decoder")
        return ref.count(tree)[1]

    def probe_items(self):
        return [(cls, self.g, "F", n) for cls, n, _ in self.round(0)]


class LzBackref(Workload):
    """``lz_decode`` over textbook trees 0..1999 and a minority of large binary-tree indices."""

    name = "lz-backref"
    TEXTBOOK_WINDOW = 2_000
    # (bits, operations per round): 46 of the 2046 operations of a round.
    # The 128-bit group takes ranks 7 to 36 from the slowest, so p99
    # (rank 21) falls in its middle, far above every textbook operation.
    MIX = ((64, 10), (128, 30), (256, 4), (512, 2))
    AB_DIFF_UPTO = 134  # expected_ab_diff_0_133.tsv lists the disagreements below this index
    setup_argv = ("decode", "grammars/textbook.cfg", "0", "--algorithm", "b")

    def __init__(self, root, seed, window=TEXTBOOK_WINDOW, mix=MIX):
        super().__init__(root, seed)
        self.window = window
        self.mix = mix
        self.textbook, self.textbook_ref = self.grammar("grammars/textbook.cfg")
        self.binary, _ = self.grammar("grammars/binary.cfg")
        self.ab_diff = ref.read_table(root / "tests/data/expected_ab_diff_0_133.tsv")

    def setup_output(self):
        return ref.yield_of(ref.lz_decode(self.textbook_ref, "S", 0)) + "\n"

    def round(self, r):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        xs = [("textbook", i) for i in range(self.window)] + indices(rng, self.mix, "binary")
        rng.shuffle(xs)
        return xs

    def grammar_of(self, cls):
        return self.textbook if cls == "textbook" else self.binary

    def op(self, api, x):
        return api.lz_decode(self.grammar_of(x[0]), "S", x[1])

    def check(self, r, x, tree):
        cls, n = x
        if cls == "textbook":
            want = ref.lz_decode(self.textbook_ref, "S", n)
            expect(ref.sexp(tree) == ref.sexp(want), f"lz tree {n} differs from the reference")
            if n < self.AB_DIFF_UPTO:
                plain = ref.yield_of(ref.decode(self.textbook_ref, "S", n))
                row = (ref.yield_of(tree), plain)
                expect(row == self.ab_diff.get(n, (plain, plain)),
                       f"lz tree {n} disagrees with the decoder-diff table")
            return ref.count(want)[1]
        try:
            treenum.verify_tree(self.binary, tree)
        except treenum.TreeNotInGrammarError as err:
            raise Mismatch(f"lz tree of {cls} index {short(n)} is not a tree of the grammar: {err}")
        if r == 0 and cls == "binary-64b":  # costs several lz_decode calls, so one group only
            never = treenum.lz_decode(self.binary, "S", n, eligible=lambda t: False)
            expect(ref.sexp(never) == ref.sexp(treenum.decode(self.binary, "S", n)),
                   f"lz_decode without targets differs from decode at {cls} index {short(n)}")
        return ref.count(tree)[1]

    def probe_items(self):
        return [(cls, self.grammar_of(cls), "S", n) for cls, n in self.round(0)]


WORKLOADS = {w.name: w for w in (EnumerateTextbook, RoundtripWide, LzBackref)}
