"""Run one matroidc CLI command with per-layer spans recorded from outside.

    PYTHONPATH=src python3 bench/tracer.py OUT.json <matroidc arguments>

Wrappers are installed from this file around each layer's entry points, as
bound in the modules that call them; nothing under src/ is edited.  A span
is [name, parent span, start, end].  Spans stay in memory and are written to
OUT.json when the command ends, with parent links as indices and times as
integer microseconds after the tracer started.  Generators
are timed per `next()`, not at creation.  Counts come from call wrappers and
from `canonical._canon.cache_info()` deltas.  `summarize` turns a trace into
the per-layer metrics that run.py reports.

The command's exit code is passed through.  A hook whose target no longer
exists is skipped and listed under "missing" rather than failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

LAYERS = ("enumerate", "canonical", "matroid", "complexes", "classes", "linalg", "hopf")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # counts are also updated from rank threads

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def parent(self, st):
        """Innermost open span; a worker thread's first span is adopted by
        the main thread's open span, which is blocked waiting for it."""
        if st:
            return st[-1]
        if st is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def call(self, name, fn, args, kwargs=None):
        st = self.stack()
        span = [name, self.parent(st), clock(), None]
        self.spans.append(span)
        st.append(span)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[3] = clock()
            st.pop()

    def spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def spanned_gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,))
                except StopIteration:
                    return
                yield item

        return wrapper

    def patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        setattr(owner, attr, make(orig))
        return orig

    def dump(self, path: str, extra: dict) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        names: dict[str, int] = {}
        rows = []
        base = extra["t_start"]
        for name, parent, t0, t1 in self.spans:
            ni = names.setdefault(name, len(names))
            pi = -1 if parent is None else index[id(parent)]
            t1 = t0 if t1 is None else t1
            rows.append([ni, pi, round((t0 - base) * 1e6), round((t1 - base) * 1e6)])
        doc = dict(extra, names=list(names), spans=rows, counts=self.counts,
                   missing=self.missing)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(rec: Recorder):
    """Wrap every layer boundary; return the original `_canon` for cache stats."""
    from matroidc import canonical, classes, cli, complexes, enumerate as enum
    from matroidc import hopf, linalg, matroid

    # canonical: every public entry point goes through the cached _canon.
    canon = canonical._canon
    seen: set = set()
    reps: set = set()

    def canon_wrapper(m):
        hit = m in seen
        searches = rec.counts.get("search_calls", 0)
        st = rec.stack()
        span = ["canonical.canon", rec.parent(st), clock(), None]
        rec.spans.append(span)
        st.append(span)
        try:
            res = canon(m)
        finally:
            span[3] = clock()
            st.pop()
        if hit:
            rec.add("canonical.lookup_s", span[3] - span[2])
        else:
            seen.add(m)
            if rec.counts.get("search_calls", 0) != searches and (m.n, m.bases) in reps:
                rec.add("canonical.redundant")
            reps.add((res.key.n, res.key.masks))
        return res

    rec.patch(canonical, "_canon", lambda orig: canon_wrapper)

    def search_after(args, result):
        rec.add("search_calls")

    rec.patch(canonical, "_search",
              lambda f: rec.spanned("canonical.search", f, search_after))

    # enumerate: generation, parsing, and the candidates it canonicalises.
    got_n: set = set()

    def enum_after(args, result):
        if args[0] not in got_n:
            got_n.add(args[0])
            rec.add("enumerate.classes", len(result))

    wrapped = rec.patch(enum, "enumerate_all",
                        lambda f: rec.spanned("enumerate.enumerate_all", f, enum_after))
    if wrapped is not None:
        cli.enumerate_all = enum.enumerate_all

    def count_children(f):
        @functools.wraps(f)
        def wrapper(m):
            parent = rec.parent(rec.stack())
            if parent is not None and parent[0] == "enumerate.enumerate_all":
                rec.add("enumerate.children")
            return f(m)

        return wrapper

    rec.patch(enum, "canonical_key", count_children)
    rec.patch(enum, "_exchange_families",
              lambda f: rec.spanned_gen("enumerate.backtrack", f))
    for name in ("parse_mtrd", "parse_f2db"):
        rec.patch(enum, name, lambda f: rec.spanned("enumerate.parse", f))
    rec.patch(enum, "from_bases", lambda f: rec.spanned("matroid.from_bases", f))

    # matroid: property predicates as complexes looks them up.
    tags = getattr(complexes, "PROPERTY_TAGS", None)
    if tags is None:
        rec.missing.append("complexes.PROPERTY_TAGS")
    else:
        for tag, f in list(tags.items()):
            tags[tag] = rec.spanned("matroid.predicate", f)

    def count_evals(f):
        @functools.wraps(f)
        def wrapper(*args):
            before = f.cache_info().misses
            result = f(*args)
            rec.add("matroid.predicate_evals", f.cache_info().misses - before)
            return result

        return wrapper

    rec.patch(matroid, "_property_by_key", count_evals)

    def count_minors(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            for m in f(*args, **kwargs):
                rec.add("matroid.minors_tested")
                yield m

        return wrapper

    rec.patch(matroid.Matroid, "minors", count_minors)

    # complexes: bases, matrices, homology.
    def basis_after(args, result):
        rec.maximum("complexes.max_dim", len(result.keys))

    for owner in (complexes, hopf):
        rec.patch(owner, "chain_basis",
                  lambda f: rec.spanned("complexes.chain_basis", f, basis_after))
    for owner in (complexes, hopf):
        rec.patch(owner, "apply_differential",
                  lambda f: rec.spanned("complexes.apply_differential", f))
    for name in ("differential_matrix", "homology_table", "dims_table"):
        rec.patch(complexes, name, lambda f, n=name: rec.spanned(f"complexes.{n}", f))

    # classes: normalisation; a call made while a boundary is being built
    # is one boundary term.
    boundary = ("complexes.differential_matrix", "complexes.apply_differential")

    def normalize_wrap(f):
        @functools.wraps(f)
        def wrapper(m):
            parent = rec.parent(rec.stack())
            if parent is not None and parent[0] in boundary:
                rec.add("complexes.boundary_terms")
            return rec.call("classes.normalize", f, (m,))

        return wrapper

    for owner in (classes, complexes, hopf):
        rec.patch(owner, "normalize", normalize_wrap)

    # linalg: ranks, including the exact confirmations homology_table makes.
    def nnz_after(args, result):
        mat = args[-1]
        rec.maximum("linalg.max_nnz", len(getattr(mat, "entries", ())))

    rec.patch(linalg.RankPolicy, "rank",
              lambda f: rec.spanned("linalg.rank", f, nnz_after))
    for owner in (linalg, complexes):
        rec.patch(owner, "rank_exact",
                  lambda f: rec.spanned("linalg.rank_exact", f, nnz_after))
    rec.patch(linalg, "rank_modular",
              lambda f: rec.spanned("linalg.rank_modular", f, lambda a, r: nnz_after(a[:1], r)))

    # hopf: product, coproduct and the identity checkers cli calls.
    rec.patch(hopf, "star", lambda f: rec.spanned("hopf.star", f))
    rec.patch(hopf, "coproduct", lambda f: rec.spanned("hopf.coproduct", f))
    for name in dir(hopf):
        if name.startswith("verify_") or name == "connected_dim_check":
            rec.patch(hopf, name, lambda f: rec.spanned("hopf.verify", f))
    return canon


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    t_start = clock()
    rec = Recorder()
    from matroidc import cli

    canon = install(rec)
    info0 = canon.cache_info()
    t_main = clock()
    try:
        code = rec.call("cli.main", cli.main, (args,))
    finally:
        info1 = canon.cache_info()
        sys.stdout.flush()
        rec.dump(out, {
            "t_start": t_start,
            "t_main": t_main,
            "cache_hits": info1.hits - info0.hits,
            "cache_misses": info1.misses - info0.misses,
        })
    return code


# -- analysis (runs in run.py, not in the traced child) ----------------------


def _self_times(spans):
    """Duration minus the union of child intervals, per span."""
    children: dict[int, list] = {}
    for i, (_, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end, t0), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append(t1 - t0 - covered)
    return out


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(trace: dict, wall: float, spawn: float) -> dict[str, float]:
    """Per-layer metrics from one traced child.

    `wall` is the child's wall time seen by its launcher and `spawn` the
    launcher's clock at spawn, so startup (interpreter, imports) is measured.
    """
    names = trace["names"]
    base = trace["t_start"]
    spans = [(n, p, base + t0 / 1e6, base + t1 / 1e6) for n, p, t0, t1 in trace["spans"]]
    counts = trace["counts"]
    selfs = _self_times(spans)
    name_of = [names[s[0]] for s in spans]

    def dur(i):
        return spans[i][3] - spans[i][2]

    def outer(prefix, i):
        p = spans[i][1]
        return p < 0 or not name_of[p].startswith(prefix)

    def total(pred, values):
        return sum(v for i, v in enumerate(values) if pred(i))

    durs = [dur(i) for i in range(len(spans))]
    named = lambda *ns: (lambda i: name_of[i] in ns)  # noqa: E731
    layer_self = {layer: 0.0 for layer in LAYERS + ("cli",)}
    for i, v in enumerate(selfs):
        layer = name_of[i].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + v

    searches = [durs[i] for i in range(len(spans)) if name_of[i] == "canonical.search"]
    hits, misses = trace["cache_hits"], trace["cache_misses"]
    children = counts.get("enumerate.children", 0)
    root = [i for i in range(len(spans)) if name_of[i] == "cli.main"]
    root_t0 = spans[root[0]][2] if root else trace["t_main"]
    root_t1 = spans[root[0]][3] if root else trace["t_main"]
    startup = root_t0 - spawn
    exit_s = (spawn + wall) - root_t1
    m = {
        "enumerate.busy_s": total(lambda i: name_of[i].startswith("enumerate.")
                                  and name_of[i] != "enumerate.parse"
                                  and outer("enumerate.", i), durs),
        "enumerate.self_s": total(lambda i: name_of[i].startswith("enumerate.")
                                  and name_of[i] != "enumerate.parse", selfs),
        "enumerate.backtrack_s": total(named("enumerate.backtrack"), durs),
        "enumerate.children": children,
        "enumerate.classes": counts.get("enumerate.classes", 0),
        "enumerate.useful_ratio": counts.get("enumerate.classes", 0) / children if children else 0.0,
        "enumerate.parse_s": total(named("enumerate.parse"), durs),
        "enumerate.parse_self_s": total(named("enumerate.parse"), selfs),
        "enumerate.records": sum(
            1 for i in range(len(spans))
            if name_of[i] == "matroid.from_bases" and spans[i][1] >= 0
            and name_of[spans[i][1]] == "enumerate.parse"
        ),
        "canonical.calls": hits + misses,
        "canonical.searches": len(searches),
        "canonical.search_s": sum(searches),
        "canonical.search_ms_p50": 1000 * _pct(searches, 0.50),
        "canonical.search_ms_p99": 1000 * _pct(searches, 0.99),
        "canonical.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "canonical.lookup_s": counts.get("canonical.lookup_s", 0.0),
        "canonical.redundant_ratio": counts.get("canonical.redundant", 0) / len(searches) if searches else 0.0,
        "matroid.predicate_s": total(lambda i: name_of[i] == "matroid.predicate"
                                     and outer("matroid.predicate", i), durs),
        "matroid.predicate_self_s": total(named("matroid.predicate"), selfs),
        "matroid.predicate_calls": sum(1 for n in name_of if n == "matroid.predicate"),
        "matroid.predicate_evals": counts.get("matroid.predicate_evals", 0),
        "matroid.minors_tested": counts.get("matroid.minors_tested", 0),
        "matroid.exchange_check_s": total(named("matroid.from_bases"), durs),
        "complexes.chain_basis_self_s": total(named("complexes.chain_basis"), selfs),
        "complexes.matrix_self_s": total(named("complexes.differential_matrix",
                                               "complexes.apply_differential"), selfs),
        "complexes.boundary_terms": counts.get("complexes.boundary_terms", 0),
        "complexes.max_dim": counts.get("complexes.max_dim", 0),
        "classes.normalize_calls": sum(1 for n in name_of if n == "classes.normalize"),
        "classes.normalize_s": total(named("classes.normalize"), durs),
        "linalg.rank_calls": sum(
            1 for i in range(len(spans))
            if name_of[i].startswith("linalg.") and outer("linalg.", i)
        ),
        "linalg.rank_s": total(lambda i: name_of[i].startswith("linalg.")
                               and outer("linalg.", i), durs),
        "linalg.exact_ranks": sum(1 for n in name_of if n == "linalg.rank_exact"),
        "linalg.max_nnz": counts.get("linalg.max_nnz", 0),
        "hopf.star_calls": sum(1 for n in name_of if n == "hopf.star"),
        "hopf.star_s": total(lambda i: name_of[i] == "hopf.star" and outer("hopf.star", i), durs),
        "hopf.coproduct_calls": sum(1 for n in name_of if n == "hopf.coproduct"),
        "hopf.coproduct_s": total(named("hopf.coproduct"), durs),
        "hopf.self_s": layer_self["hopf"],
        "trace.wall_s": wall,
        "trace.startup_s": startup,
        "trace.cli_self_s": layer_self["cli"],
        "trace.exit_s": exit_s,
        "trace.spans": len(spans),
        "trace.hooks_missing": len(trace["missing"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
