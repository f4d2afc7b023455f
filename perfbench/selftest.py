"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that every check rejects a deliberately wrong answer, that the
inputs depend on the seed alone, that every workload runs without a failed
operation, and that the metrics printed are the ones BENCHMARK.json
declares.  The file name keeps them out of the repository's pytest run;
``python3 -m pytest perfbench/selftest.py`` runs them too.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import treenum  # noqa: E402
from harness import run_loop  # noqa: E402
from workloads import WORKLOADS, EnumerateTextbook, LzBackref, RoundtripWide, plain_api  # noqa: E402


def api_with(**overrides):
    api = plain_api()
    for name, fn in overrides.items():
        setattr(api, name, fn)
    return api


def off_by_one_decode(g, v, n, **kwargs):
    return treenum.decode(g, v, n + 1, **kwargs)


def off_by_one_enumerate(g, v=None, start=0, count=None, **kwargs):
    for i in range(start, start + count):
        yield i, off_by_one_decode(g, v or g.start, i)


def mutated(tree):
    """The tree with its rightmost terminal leaf replaced by another symbol."""
    children = list(tree.children)
    last = children[-1]
    if isinstance(last, treenum.DerivationTree):
        children[-1] = mutated(last)
    else:
        children[-1] = "v" if last == "n" else "n"
    return treenum.DerivationTree(tree.nt, tuple(children))


def mutated_lz_decode(g, v, n, **kwargs):
    return mutated(treenum.lz_decode(g, v, n, **kwargs))


def mismatches(wl, api):
    """The first few mismatch messages of one round."""
    return run_loop(wl, api, rounds=1).examples


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_off_by_one_decoder_in_the_stream(self):
        wl = EnumerateTextbook(ROOT, 1, window=300)
        self.assertTrue(mismatches(wl, api_with(enumerate_trees=off_by_one_enumerate)))

    def test_off_by_one_decoder_in_the_round_trip(self):
        wl = RoundtripWide(ROOT, 1)
        self.assertTrue(mismatches(wl, api_with(decode=off_by_one_decode)))

    def test_off_by_one_decoder_seen_by_the_reference_alone(self):
        # Decode off by one but encode consistently: only the sampled
        # comparisons with the reference decoder can notice.
        def shifted_encode(g, t):
            return treenum.encode(g, t) - 1

        wl = RoundtripWide(ROOT, 1)
        found = mismatches(wl, api_with(decode=off_by_one_decode, encode=shifted_encode))
        self.assertTrue(found)
        self.assertTrue(all("reference" in m for m in found))

    def test_wrong_encode(self):
        def wrong_encode(g, t):
            return treenum.encode(g, t) ^ 1

        wl = RoundtripWide(ROOT, 1)
        self.assertTrue(mismatches(wl, api_with(encode=wrong_encode)))

    def test_wrong_rendering(self):
        def wrong_sexpr(t):
            return treenum.tree_to_sexpr(t).replace(") (", ")(")

        wl = EnumerateTextbook(ROOT, 1, window=300)
        self.assertTrue(mismatches(wl, api_with(tree_to_sexpr=wrong_sexpr)))

    def test_mutated_lz_tree(self):
        api = api_with(lz_decode=mutated_lz_decode)
        textbook = mismatches(LzBackref(ROOT, 1, window=150, mix=()), api)
        self.assertTrue(textbook)
        self.assertTrue(all("differs from the reference" in m for m in textbook))
        binary = mismatches(LzBackref(ROOT, 1, window=0, mix=((64, 3),)), api)
        self.assertTrue(binary)
        self.assertTrue(all("not a tree of the grammar" in m for m in binary))

    def test_reference_is_checked_against_the_spec_tables(self):
        wl = LzBackref(ROOT, 1, window=150, mix=())
        wl.ab_diff = {**wl.ab_diff, 7: ("dnv", "dnv")}
        self.assertTrue(any("decoder-diff table" in m for m in mismatches(wl, plain_api())))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            a, b, other = cls(ROOT, 7), cls(ROOT, 7), cls(ROOT, 8)
            for r in (0, 1):
                self.assertEqual(a.round(r), b.round(r), cls.name)
                self.assertNotEqual(a.round(r), other.round(r), cls.name)
            self.assertEqual(a.probe_items(), b.probe_items(), cls.name)


class Workloads(unittest.TestCase):
    def test_no_operation_fails_and_every_output_passes(self):
        for cls in WORKLOADS.values():
            res = run_loop(cls(ROOT, 3), plain_api())
            self.assertEqual(res.failed, 0, cls.name)
            self.assertEqual(res.mismatches, 0, res.examples)
            self.assertGreaterEqual(res.attempted, 1000, cls.name)

    def test_metrics_are_the_declared_ones(self):
        import layers
        from run import end_to_end

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wl = RoundtripWide(ROOT, 1)
        _, metrics = end_to_end(wl, 0.1)
        self.assertEqual(
            {name: unit for name, (_, unit) in metrics.items()},
            {m["name"]: m["unit"] for m in declared["end_to_end"]})
        trace_path = HERE / "out" / "trace-selftest.csv.gz"
        trace_path.parent.mkdir(exist_ok=True)
        _, metrics = layers.traced(wl, 0.1, trace_path)
        self.assertEqual(
            {name: unit for name, (_, unit) in metrics.items()},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


if __name__ == "__main__":
    unittest.main()
