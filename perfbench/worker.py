"""Benchmark child process: import wodkit, build one workload, time its operations.

perfbench/run.py starts this file with src/ on PYTHONPATH.  The child
prints "ready" once wodkit is imported, the inputs are built and one
untimed warm-up operation is done; that line ends a set-up sample.  Unless
--setup-only is given it then runs whole rounds of operations until
--seconds have passed and at least --min-ops operations are done.  It
prints one JSON line per operation, [round, traced, wall ms, output,
error], and a last JSON object with the op count, RSS and layer totals.  The
parent checks the outputs; this process never sees the oracle, so its peak
RSS is wodkit's alone.

--traced-rounds alternate|all wraps the public functions of every wodkit
module (Tracer) during every other round or during all rounds; the
untraced rounds of an alternating run give the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

import wodkit  # noqa: E402
from wodkit import cli, fixtures, gf2, graph, perfect_code, search, solvers, wod  # noqa: E402

MODULES = (gf2, graph, wod, solvers, perfect_code, search, cli, fixtures)


class Tracer:
    """Spans around every public function of the wodkit modules.

    install() swaps each public function for a timing wrapper in every
    wodkit namespace that binds it, so calls between modules are seen
    too; uninstall() puts the originals back.  A span is (name, start ns,
    end ns, index of the enclosing span or -1, graph order or -1).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[int] = []
        self._wrappers: dict[int, tuple[types.FunctionType, types.FunctionType]] = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: types.FunctionType) -> types.FunctionType:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                order = getattr(args[0], "n", -1) if args else -1
                spans[idx] = (name, t0, t1, parent, order)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for ns in (wodkit,) + MODULES:
            for attr, val in list(vars(ns).items()):
                pair = self._wrappers.get(id(val))
                if pair is not None and pair[0] is val:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, pair[1])

    def uninstall(self) -> None:
        for ns, attr, val in self._patched:
            setattr(ns, attr, val)
        self._patched.clear()

    def layers(self) -> dict[str, dict]:
        """Per function: calls, total and self ms, median ms, sum of 2^order."""
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        acc: dict[str, dict] = {}
        for i, (name, t0, t1, _, order) in enumerate(self.spans):
            a = acc.setdefault(name, {"durations": [], "self_ns": 0, "pow2_order": 0})
            a["durations"].append(t1 - t0)
            a["self_ns"] += t1 - t0 - child_ns[i]
            if order >= 0:
                a["pow2_order"] += 1 << order
        return {
            name: {
                "calls": len(a["durations"]),
                "total_ms": sum(a["durations"]) / 1e6,
                "self_ms": a["self_ns"] / 1e6,
                "median_ms": statistics.median(a["durations"]) / 1e6,
                "pow2_order": a["pow2_order"],
            }
            for name, a in sorted(acc.items())
        }


class SearchN18:
    """One op: one trial of search.sample_and_measure on a seeded G(18, 1/2)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        search.sample_and_measure(corpus.SEARCH_N, 1, corpus.WARMUP_SEED)

    def round(self, rnd: int) -> list:
        base = corpus.search_base_seed(self.seed, rnd)

        def op():
            (r,) = search.sample_and_measure(corpus.SEARCH_N, 1, base)
            return [rnd, r.seed, r.n, r.kappa, r.kappa_prime, r.kappa_q, r.ratio]

        return [op]


class ExactN24:
    """One op: solvers.kappa_q on one graph of the fixed order-24 corpus."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        entries = json.loads((HERE / "oracle_cache.json").read_text())["exact-n24"]
        self.graphs = [graph.parse_graph6(e["g6"]) for e in entries]

    def warm_up(self) -> None:
        solvers.kappa_q(self.graphs[0])

    def round(self, rnd: int) -> list:
        def op_for(i):
            def op():
                r = solvers.kappa_q(self.graphs[i])
                return [i, r.value, r.kappa.value, r.kappa.witness.mask,
                        r.kappa_prime.value, r.kappa_prime.witness.mask]
            return op

        return [op_for(i) for i in corpus.round_order(len(self.graphs), self.seed, rnd)]


class CertifyN48:
    """One op: parse a G(48, 1/2) from graph6, then answer its queries.

    A query is is_wod(B), then wod_certificate(B), then, when that finds
    none, non_wod_certificate(B).
    """

    def __init__(self, seed: int) -> None:
        self.inputs = corpus.certify_inputs(seed)
        self.warm = corpus.certify_inputs(corpus.WARMUP_SEED, graphs=1)[0]

    @staticmethod
    def _answer(g6: str, queries: list[int]) -> list:
        g = graph.parse_graph6(g6)
        out = []
        for mask in queries:
            b = graph.VertexSet(mask, g.n)
            w = wod.is_wod(g, b)
            c = wod.wod_certificate(g, b)
            d = wod.non_wod_certificate(g, b) if c is None else None
            out.append([w, -1 if c is None else c.mask, -1 if d is None else d.mask])
        return out

    def warm_up(self) -> None:
        self._answer(*self.warm)

    def round(self, rnd: int) -> list:
        def op_for(i):
            return lambda: [i, self._answer(*self.inputs[i])]

        return [op_for(i) for i in range(len(self.inputs))]


WORKLOADS = {"search-n18": SearchN18, "exact-n24": ExactN24, "certify-n48": CertifyN48}


def run_rounds(wl, first_round: int, seconds: float, min_ops: int, traced_rounds: str,
               tracer, emit):
    """Whole rounds until both limits are met; emit() gets each op's record.

    Records leave the process as they are made, so its memory does not
    grow with the number of operations.  Returns (ops, elapsed seconds).
    """
    ops = 0
    t_start = time.perf_counter()
    rnd = first_round
    while True:
        traced = traced_rounds == "all" or (traced_rounds == "alternate" and rnd % 2 == 1)
        if traced:
            tracer.install()
        for op in wl.round(rnd):
            t0 = time.perf_counter()
            try:
                out, err = op(), None
            except Exception as exc:  # one failed operation must not end the run
                out, err = None, f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1e3
            emit([rnd, traced, ms, out, err])
            ops += 1
        if traced:
            tracer.uninstall()
        rnd += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and ops >= min_ops:
            return ops, elapsed


def cli_main_times(argvs: list[list[str]], tracer) -> list:
    """Run each argv through wodkit.cli.main in this process, traced."""
    out = []
    for argv in argvs:
        sink = io.StringIO()
        tracer.install()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1e3
        tracer.uninstall()
        out.append([rc, ms])
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["cli-main"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--first-round", type=int, default=0)
    p.add_argument("--traced-rounds", choices=("none", "alternate", "all"), default="none")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the raw spans to this gzipped JSON file")
    args = p.parse_args()

    tracer = Tracer() if args.traced_rounds != "none" else None
    if args.workload == "cli-main":
        result = {"main": cli_main_times(json.loads(sys.stdin.read()), tracer)}
    else:
        wl = WORKLOADS[args.workload](args.seed)
        wl.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        def emit(record):
            print(json.dumps(record, separators=(",", ":")))

        ops, elapsed = run_rounds(wl, args.first_round, args.seconds, args.min_ops,
                                  args.traced_rounds, tracer, emit)
        result = {"ops": ops, "elapsed_s": elapsed}
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.layers()
        if args.spans:
            import gzip  # only traced runs need it; kept out of measured set-up

            with gzip.open(args.spans, "wt") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
