"""In-memory spans recorded around the benchmark's calls into ``treenum``.

A span is (name, start, end, parent span, operation id, work count).  The
name is ``<layer>.<function>``, the layer being the ``treenum`` module
called.  Spans are kept in flat arrays rather than as objects, so that
recording them gives the garbage collector nothing to track, and are
written out once the run is over.

Spans sit at the benchmark's call sites, so a span's self time includes
whatever the called function does inside ``treenum``, whichever module
that code lives in.
"""

import contextlib
import gc
import gzip
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.ops = []  # per operation id: (phase, class)
        self._open = []
        self._pending = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(len(self.ops) - 1)
        self.work.append(0)
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid, work=0):
        self.end[sid] = perf_counter()
        self._open.pop()
        self.work[sid] = work

    def begin_op(self, phase, cls):
        """Start a new operation: a ``bench.op`` span that the calls inside it nest under."""
        self.ops.append((phase, cls))
        return self.begin(self.name_id("bench.op"))

    def wrap(self, name, fn, work=None):
        """fn with a span around every call; work(args, result) counts what the call did.

        The count is taken by ``settle`` once the operation is over, so
        that counting stays out of the operation's time.
        """
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if work is not None:
                self._pending.append((sid, work, args, result))
            return result

        return traced

    def settle(self):
        """Fill in the work counts of the calls made since the last settle."""
        for sid, work, args, result in self._pending:
            self.work[sid] = work(args, result)
        self._pending.clear()

    def wrap_stream(self, name, fn, work):
        """Like ``wrap`` for a function returning an iterator: one span per item."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                sid = self.begin(nid)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.finish(sid)
                self._pending.append((sid, work, args, item))
                yield item

        return traced

    @contextlib.contextmanager
    def gc_spans(self):
        """Record a ``runtime.gc`` span for every collection that runs inside an operation."""
        inside = []

        def callback(phase, info):
            if phase == "start":
                inside.append(bool(self._open))
                if inside[-1]:
                    self.begin(self._gc)
            elif inside.pop():
                self.finish(self._open[-1])

        self._gc = self.name_id("runtime.gc")
        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    def totals(self):
        """{(name, phase, class): [spans, seconds, self seconds, work]} over all spans."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        out = {}
        for sid in range(n):
            dur = end[sid] - start[sid]
            key = (self.names[self.name[sid]], *self.ops[self.op[sid]])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0, 0.0, 0.0, 0]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[sid]
            acc[3] += self.work[sid]
        return out

    def write(self, path):
        """Gzipped CSV, one line per span; times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,name,start_us,end_us,parent,op,phase,class,work\n")
            for sid in range(len(self.name)):
                phase, cls = self.ops[self.op[sid]]
                out.write(
                    f"{sid},{self.names[self.name[sid]]},{(self.start[sid] - t0) * 1e6:.3f},"
                    f"{(self.end[sid] - t0) * 1e6:.3f},{self.parent[sid]},{self.op[sid]},"
                    f"{phase},{cls},{self.work[sid]}\n"
                )
