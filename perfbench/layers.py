"""Traced runs: per-layer metrics from spans around the benchmark's calls into treenum.

A traced run of a workload

1. runs rounds untraced for half of ``--seconds``;
2. runs the same rounds again with a span around every call into
   ``treenum`` and around every garbage collection inside an operation;
3. runs probes: fixed batches of calls into the layers that no workload
   calls directly (``pairing``, ``intstack``, ``cli``, loading and
   validating a grammar); the plain pipeline (decode, the three
   renderings, parse, encode) on the workload's own round-0 indices when
   the loop misses one of those calls; and ``lz_decode`` on a small
   ``lz-backref`` round when the loop makes no ``lz`` call;
4. writes the spans to a gzipped CSV file.

A rate such as ``codec.encode_us_per_node`` comes from the loop's spans
when the loop made such calls, and from the probe's spans otherwise.  The
tracing overhead is the share of throughput lost from step 1 to step 2.
"""

import statistics
import types
from contextlib import redirect_stdout
from random import Random
from time import perf_counter

import reference as ref
import treenum
import treenum.cli
from harness import fresh_starts, run_loop
from spans import Tracer
from workloads import FORMATS, LzBackref, Sink, plain_api, render

LAYERS = ("pairing", "intstack", "grammar", "codec", "lz", "cli")
LOOP = ("loop0", "loop")
LOAD_REPEATS = 21
STARTUP_STARTS = 11
PAIRING_CALLS = 5_000
CLI_LINES = 2_000
LZ_PROBE_WINDOW = 500
LZ_PROBE_MIX = ((64, 2), (128, 2), (256, 2), (512, 1))
PLAIN_SPANS = {"codec.decode", "codec.encode", "grammar.sexpr_to_tree", "grammar.yield_of",
               "grammar.tree_to_sexpr", "grammar.tree_to_json_obj"}


def nonterminals_of_result(args, tree):
    return ref.count(tree)[0]


def nodes_of_result(args, tree):
    return ref.count(tree)[1]


def nodes_of_argument(args, result):
    return ref.count(args[-1])[1]


def traced_api(tracer, plain):
    wrap = tracer.wrap
    return types.SimpleNamespace(
        enumerate_trees=tracer.wrap_stream("codec.enumerate_trees", plain.enumerate_trees,
                                           lambda args, item: ref.count(item[1])[0]),
        decode=wrap("codec.decode", plain.decode, nonterminals_of_result),
        encode=wrap("codec.encode", plain.encode, nodes_of_argument),
        lz_decode=wrap("lz.lz_decode", plain.lz_decode, nodes_of_result),
        yield_of=wrap("grammar.yield_of", plain.yield_of, nodes_of_argument),
        tree_to_sexpr=wrap("grammar.tree_to_sexpr", plain.tree_to_sexpr, nodes_of_argument),
        tree_to_json_obj=wrap("grammar.tree_to_json_obj", plain.tree_to_json_obj, nodes_of_argument),
        json_dumps=wrap("json.dumps", plain.json_dumps),
        sexpr_to_tree=wrap("grammar.sexpr_to_tree", plain.sexpr_to_tree, nodes_of_result),
    )


def batch(tracer, cls, name, loop, work):
    """One probe operation holding one span around ``loop()``, which does ``work`` units."""
    op = tracer.begin_op("probe", cls)
    sid = tracer.begin(tracer.name_id(name))
    loop()
    tracer.finish(sid, work)
    tracer.finish(op)


def probes(wl, tracer, api, reached):
    """Run the probes; return the metrics measured directly rather than from spans."""
    grammar_path = str(wl.root / wl.setup_argv[1])
    load = tracer.wrap("grammar.load_grammar", treenum.load_grammar)
    validate = tracer.wrap("grammar.validate", treenum.validate)
    times = []
    for _ in range(LOAD_REPEATS):
        op = tracer.begin_op("probe", "load_validate")
        t0 = perf_counter()
        validate(load(grammar_path))
        times.append(perf_counter() - t0)
        tracer.finish(op)

    # rs_unpair on random indices of the bit lengths roundtrip-wide draws.
    rng = Random(f"pairing:{wl.seed}")
    for bits in (64, 256, 4096):
        values = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(PAIRING_CALLS)]

        def unpair_all(values=values, rs_unpair=treenum.rs_unpair):
            for v in values:
                rs_unpair(v)

        batch(tracer, f"{bits}b", "pairing.rs_unpair", unpair_all, len(values))

    # Split the workload's own indices into three parts each, and join them back.
    values = [item[3] for item in wl.probe_items()]
    parts = []

    def split_all(stack=treenum.IntegerizedStack):
        for v in values:
            parts.append(stack(v).split(3))

    def join_all(join=treenum.join):
        for p in parts:
            join(p)

    batch(tracer, "split3", "intstack.split", split_all, 3 * len(values))
    batch(tracer, "join3", "intstack.join", join_all, 3 * len(values))

    if not PLAIN_SPANS <= reached:
        for cls, g, v, n in wl.probe_items():
            op = tracer.begin_op("probe", cls)
            tree = api.decode(g, v, n)
            texts = {fmt: render(api, fmt, tree) for fmt in FORMATS}
            back = api.sexpr_to_tree(g, texts["sexp"])
            if api.encode(g, back) != n:
                raise AssertionError(f"encode(decode({n})) != {n} in a probe")
            tracer.finish(op)
            tracer.settle()

    if "lz.lz_decode" not in reached:
        lz = LzBackref(wl.root, wl.seed, LZ_PROBE_WINDOW, LZ_PROBE_MIX)
        for cls, n in lz.round(0):
            op = tracer.begin_op("probe", cls)
            api.lz_decode(lz.grammar_of(cls), "S", n)
            tracer.finish(op)
            tracer.settle()

    main = tracer.wrap("cli.main", treenum.cli.main, lambda args, code: CLI_LINES)
    textbook = str(wl.root / "grammars" / "textbook.cfg")
    for fmt in FORMATS:
        op = tracer.begin_op("probe", f"cli-{fmt}")
        with redirect_stdout(Sink()):
            code = main(["enumerate", textbook, "--count", str(CLI_LINES), "--format", fmt])
        tracer.finish(op)
        tracer.settle()
        if code != 0:
            raise AssertionError(f"treenum enumerate --format {fmt} exited {code}")
    return {"grammar.load_validate_ms": (statistics.median(times) * 1e3, "ms")}


def traced(wl, seconds, trace_path):
    """Run ``wl`` untraced, then traced, then the probes; return (loop result, metrics)."""
    plain = plain_api()
    untraced = run_loop(wl, plain, seconds / 2)
    tracer = Tracer()
    api = traced_api(tracer, plain)
    t0 = perf_counter()
    with tracer.gc_spans():
        loop = run_loop(wl, api, rounds=untraced.rounds, tracer=tracer)
    reached = {tracer.names[nid] for nid in set(tracer.name)}
    direct = probes(wl, tracer, api, reached)
    wall = perf_counter() - t0
    startup = fresh_starts(["-c", "import treenum.cli"], "", STARTUP_STARTS)
    totals = tracer.totals()
    tracer.write(trace_path)

    def pick(names, classes=None, phases=LOOP):
        acc = [0, 0.0, 0.0, 0]
        for (name, phase, cls), v in totals.items():
            if name in names and phase in phases and (classes is None or cls in classes):
                acc = [a + b for a, b in zip(acc, v)]
        return acc

    def measured(names, classes=None, phases=LOOP):
        """(spans, seconds, self seconds, work) from the loop, or from the probes
        when the loop made no such call."""
        found = pick(names, classes, phases)
        return found if found[0] else pick(names, classes, ("probe",))

    def per_work(names, scale, classes=None):
        _, secs, _, work = measured(names, classes)
        return secs / work * scale

    def per_span(names, scale, classes=None):
        n, secs, _, _ = measured(names, classes)
        return secs / n * scale

    m = {"cli.startup_ms": (statistics.median(startup) * 1e3, "ms")}
    m.update(direct)
    m["codec.decode_us_per_expansion"] = (
        per_work({"codec.decode", "codec.enumerate_trees"}, 1e6), "us")
    n, _, _, work = measured({"codec.decode", "codec.enumerate_trees"}, phases=("loop0",))
    m["codec.expansions_per_tree"] = (work / n, "count")
    m["codec.encode_us_per_node"] = (per_work({"codec.encode"}, 1e6), "us")
    m["grammar.parse_sexp_us_per_node"] = (per_work({"grammar.sexpr_to_tree"}, 1e6), "us")
    m["intstack.join_us_per_part"] = (per_work({"intstack.join"}, 1e6), "us")
    m["intstack.split_us_per_part"] = (per_work({"intstack.split"}, 1e6), "us")
    m["grammar.render_yield_us_per_node"] = (per_work({"grammar.yield_of"}, 1e6), "us")
    m["grammar.render_sexp_us_per_node"] = (per_work({"grammar.tree_to_sexpr"}, 1e6), "us")
    m["grammar.render_json_us_per_node"] = (
        per_work({"grammar.tree_to_json_obj", "json.dumps"}, 1e6), "us")
    for fmt in FORMATS:
        m[f"cli.enumerate_us_per_line_{fmt}"] = (per_work({"cli.main"}, 1e6, {f"cli-{fmt}"}), "us")
    for bits in (64, 256, 4096):
        m[f"pairing.rs_unpair_ns_{bits}b"] = (per_work({"pairing.rs_unpair"}, 1e9, {f"{bits}b"}), "ns")
    for bits, _ in LzBackref.MIX:
        m[f"lz.ms_per_tree_{bits}b"] = (per_span({"lz.lz_decode"}, 1e3, {f"binary-{bits}b"}), "ms")
    m["lz.us_per_node_textbook"] = (per_work({"lz.lz_decode"}, 1e6, {"textbook"}), "us")
    for layer in LAYERS:
        names = {name for name in tracer.names if name.startswith(layer + ".")}
        m[f"{layer}.self_share"] = (pick(names, phases=LOOP + ("probe",))[2] / wall, "share")
    m["runtime.gc_share"] = (pick({"runtime.gc"})[1] / pick({"bench.op"})[1], "share")
    m["runtime.gc_collections"] = (pick({"runtime.gc"}, phases=("loop0",))[0], "count")
    m["trace.overhead_share"] = (1 - untraced.busy / loop.busy, "share")
    loop.merge(untraced)
    return loop, m
