"""wodkit benchmark: four workloads, timed end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports wodkit from src/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (BENCHMARK.json "end_to_end"), with --trace 1 the
per-layer ones ("per_layer").  Each run also writes
perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json with the machine,
the set-up samples, the op counts and, for traced runs, the tracing
overhead and every traced function's totals.

This process never imports wodkit.  It starts at most one child at a
time: worker.py for the in-process workloads, and for cli-small the
`python -m wodkit` processes themselves.  It checks every output against
oracle.py in this process, so the oracle's tables never count towards
the measured peak RSS.  README.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402

# a run is this many segments, each a fresh set-up and a share of the timed
# phase, so the set-up samples spread over the whole run
SEGMENTS = 10
CHILD_TIMEOUT_S = 150.0
SLICE_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    tail_pct: int  # op_tail_ms is this nearest-rank percentile
    min_ops: int   # a run goes on past --seconds until it has this many ops


WORKLOADS = {
    "search-n18": Workload(95, 200),
    "exact-n24": Workload(95, 200),
    "cli-small": Workload(75, 40),
    "certify-n48": Workload(95, 200),
}

# where a per-layer metric comes from when the traced workload never calls it
OWNER = {
    "solvers": "exact-n24",
    "search": "search-n18",
    "graph.random_graph": "search-n18",
    "graph": "certify-n48",
    "wod": "certify-n48",
    "gf2": "certify-n48",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # bytecode must be written once, so that set-up never compiles wodkit
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # wodkit makes no BLAS calls; numpy's BLAS thread pool would only add
    # thread start-up that depends on whether the other core is free
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(argv: list[str], stdin: bytes | None = None) -> subprocess.Popen:
    p = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if stdin is not None:
        p.stdin.write(stdin)
        p.stdin.close()
    return p


def reap(p: subprocess.Popen) -> tuple[int, int]:
    """Wait for p without Popen.wait, to get its own peak RSS: (rc, KiB)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss


def run_process(argv: list[str], stdin: bytes | None = None):
    """(rc, stdout, stderr, wall ms, peak RSS KiB) of one child, start to exit."""
    t0 = time.perf_counter()
    p = spawn(argv, stdin)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        err = p.stderr.read()
        rc, rss = reap(p)
    finally:
        timer.cancel()
    return rc, out.decode(), err.decode(), (time.perf_counter() - t0) * 1e3, rss


def worker_argv(name: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), *extra]


def prime_worker(name: str, seed: int) -> None:
    """An untimed --setup-only worker, which writes the bytecode caches."""
    rc, out, err, _, _ = run_process(worker_argv(name, seed, "--setup-only"))
    if rc != 0 or out.strip() != "ready":
        raise BenchError(f"{name} worker set-up failed (exit {rc}):\n{err}")


@dataclass
class Phase:
    """Op records [round, traced, ms, output, error] of one timed phase.

    error is None unless the operation raised or exited non-zero.  A
    cli-small record holds, in place of the output, the problem run.py
    found in it (None when it matched the oracle).
    """

    records: list
    elapsed_s: float
    rss_kb: int = 0
    layers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def worker_phase(name: str, seed: int, seconds: float, min_ops: int, traced_rounds: str,
                 first_round: int = 0, spans: Path | None = None) -> tuple[float, Phase]:
    """Run a worker through set-up and its timed phase: (set-up s, phase)."""
    argv = worker_argv(name, seed, "--seconds", str(seconds), "--min-ops", str(min_ops),
                       "--traced-rounds", traced_rounds, "--first-round", str(first_round))
    if spans is not None:
        argv += ["--spans", str(spans)]
    t0 = time.perf_counter()
    p = spawn(argv)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        first = p.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = p.stdout.read().splitlines()
        err = p.stderr.read().decode()
        p.wait()
    finally:
        timer.cancel()
    if p.returncode != 0 or first.strip() != b"ready" or not rest:
        raise BenchError(f"{name} worker failed (exit {p.returncode}):\n{err}")
    final = json.loads(rest[-1])
    records = [json.loads(line) for line in rest[:-1]]
    if final["ops"] != len(records):
        raise BenchError(f"{name} worker reported {final['ops']} ops, sent {len(records)}")
    return setup_s, Phase(records, final["elapsed_s"], final["rss_kb"],
                          final.get("layers", {}))


# ---------------------------------------------------------------- checks

def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def cached(entry: dict) -> tuple[int, int, int, int]:
    """An oracle_cache.json entry in the order oracle.extremes returns."""
    return (entry["kappa"], entry["kappa_witness"], entry["kappa_prime"],
            entry["kappa_prime_witness"])


def in_bounds(adj, k: int, kp: int) -> bool:
    (klo, khi), (kplo, kphi) = oracle.degree_bounds(adj)
    return klo <= k <= khi and kplo <= kp <= kphi


class SearchCheck:
    def __init__(self, seed: int, cache: dict) -> None:
        self.seed = seed

    def graph(self, out):
        base = corpus.search_base_seed(self.seed, out[0])
        ts = corpus.trial_seed(base, 0)
        return ts, corpus.gnp_half(corpus.SEARCH_N, ts)

    def problem(self, out) -> str | None:
        rnd, seed, n, k, kp, kq, ratio = out
        ts, adj = self.graph(out)
        ek, _, ekp, _ = oracle.extremes(adj)
        ekq = max(ek, n - ekp)
        if (seed, n, k, kp, kq, ratio) != (ts, corpus.SEARCH_N, ek, ekp, ekq, ekq / n):
            return f"op {rnd}: got {out[1:]}, oracle {(ts, corpus.SEARCH_N, ek, ekp, ekq)}"
        if not in_bounds(adj, k, kp):
            return f"op {rnd}: values outside the degree bounds"
        return None

    def kappa_at_bound(self, out) -> bool:
        return out[3] == oracle.degree_bounds(self.graph(out)[1])[0][1]


class ExactCheck:
    def __init__(self, seed: int, cache: dict) -> None:
        self.entries = cache["exact-n24"]
        self.adj = [corpus.from_graph6(e["g6"]) for e in self.entries]

    def problem(self, out) -> str | None:
        i, kq, k, km, kp, kpm = out
        e = self.entries[i]
        want = cached(e)
        if (k, km, kp, kpm) != want or kq != max(k, corpus.EXACT_N - kp):
            return f"{e['name']}: got {out[1:]}, oracle {want}"
        if not in_bounds(self.adj[i], k, kp):
            return f"{e['name']}: values outside the degree bounds"
        return None

    def kappa_at_bound(self, out) -> bool:
        return out[2] == oracle.degree_bounds(self.adj[out[0]])[0][1]


class CertifyCheck:
    """Each query: exactly one certificate, valid by parity, and is_wod agrees."""

    def __init__(self, seed: int, cache: dict) -> None:
        self.inputs = [(corpus.from_graph6(g6), qs) for g6, qs in corpus.certify_inputs(seed)]

    def problem(self, out) -> str | None:
        i, answers = out
        adj, queries = self.inputs[i]
        if len(answers) != len(queries):
            return f"graph {i}: {len(answers)} answers to {len(queries)} queries"
        for b, (w, c, d) in zip(queries, answers):
            if c >= 0:
                ok = w is True and d < 0 and oracle.wod_certificate_ok(adj, b, c)
            else:
                ok = w is False and d >= 0 and oracle.non_wod_certificate_ok(adj, b, d)
            if not ok:
                return f"graph {i}, B={bits(b)}: is_wod={w} C={c} D={d} fails the parity check"
        return None

    @staticmethod
    def hits(out) -> tuple[int, int]:
        return sum(1 for _, c, _ in out[1] if c >= 0), len(out[1])


CHECKS = {"search-n18": SearchCheck, "exact-n24": ExactCheck, "certify-n48": CertifyCheck}


# ---------------------------------------------------------------- cli-small

@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]   # after `python -m wodkit`
    expected: dict          # stdout JSON; "version" is checked apart


def cli_compute(g6: str, adj, answer) -> CliOp:
    k, km, kp, kpm = answer
    kb, kpb = oracle.degree_bounds(adj)
    n = len(adj)
    expected = {
        "command": "compute", "graph6": g6, "n": n,
        "results": {
            "bounds": {"kappa": list(kb), "kappa_prime": list(kpb)},
            "kappa": {"bounds": list(kb), "value": k, "witness": bits(km),
                      "wod_set": bits(oracle.odd_of(adj, km) & ~km)},
            "kappa_prime": {"bounds": list(kpb), "value": kp, "witness": bits(kpm),
                            "non_wod_set": bits(oracle.odd_of(adj, kpm) | kpm)},
            "kappa_q": {"value": max(k, n - kp)},
        },
    }
    return CliOp(("compute", "--graph", g6, "--no-timing"), expected)


def cli_verify(g6: str, kind: str, b: int, witness: int) -> CliOp:
    cert = json.dumps({"kind": kind, "b": bits(b), "witness": bits(witness)})
    return CliOp(("verify", "--graph", g6, "--certificate", cert),
                 {"kind": kind, "valid": True})


def cli_round(seed: int, rnd: int, fixtures: list[dict]) -> list[CliOp]:
    """compute and verify on one fixed graph and one seeded random graph."""
    order = corpus.round_order(len(fixtures), seed, rnd // len(fixtures))
    e = fixtures[order[rnd % len(fixtures)]]
    fa = corpus.from_graph6(e["g6"])
    f_ans = cached(e)
    ra = corpus.cli_random_graph(seed, rnd)
    r6 = corpus.to_graph6(ra)
    r_ans = oracle.extremes(ra)
    c = f_ans[1]
    d = r_ans[3]
    return [
        cli_compute(e["g6"], fa, f_ans),
        cli_compute(r6, ra, r_ans),
        cli_verify(e["g6"], "WOD", oracle.odd_of(fa, c) & ~c, c),
        cli_verify(r6, "NON_WOD", oracle.odd_of(ra, d) | d, d),
    ]


def cli_problem(op: CliOp, rc: int, stdout: str, stderr: str) -> str | None:
    if rc != 0:
        return f"wodkit {' '.join(op.argv[:3])}: exit {rc}: {stderr.strip()}"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return f"wodkit {' '.join(op.argv[:3])}: output is not JSON"
    if op.argv[0] == "compute":
        if not isinstance(got.pop("version", None), str):
            return f"wodkit compute {op.argv[2]}: no version"
        res = got.get("results", {})
        k = res.get("kappa", {}).get("value")
        kp = res.get("kappa_prime", {}).get("value")
        adj = corpus.from_graph6(op.argv[2])
        if not (isinstance(k, int) and isinstance(kp, int) and in_bounds(adj, k, kp)):
            return f"wodkit compute {op.argv[2]}: values outside the degree bounds"
    if got != op.expected:
        return f"wodkit {' '.join(op.argv[:3])}: got {got}, oracle {op.expected}"
    return None


def cli_argv(op: CliOp) -> list[str]:
    return [sys.executable, "-m", "wodkit", *op.argv]


def cli_setup(seed: int, fixtures: list[dict], first_round: int = 0) -> float:
    """One set-up sample: build the first round's inputs, then run one
    untimed `compute` on the first fixed graph, whatever the seed."""
    t0 = time.perf_counter()
    cli_round(seed, first_round, fixtures)
    e = fixtures[0]
    op = cli_compute(e["g6"], corpus.from_graph6(e["g6"]), cached(e))
    rc, out, err, _, _ = run_process(cli_argv(op))
    if cli_problem(op, rc, out, err):
        raise BenchError(f"cli-small warm-up failed: {cli_problem(op, rc, out, err)}")
    return time.perf_counter() - t0


def cli_phase(seed: int, seconds: float, min_ops: int, traced_rounds: str,
              fixtures: list[dict], first_round: int = 0) -> Phase:
    """Whole rounds of CLI processes; a traced round also times a bare
    interpreter and a bare `import wodkit`, and keeps its argvs for
    the in-process cli.main pass."""
    records = []
    rss = 0
    extra = {"interpreter_ms": [], "import_ms": [], "traced_argv": []}
    t_start = time.perf_counter()
    rnd = first_round
    while True:
        traced = traced_rounds == "all" or (traced_rounds == "alternate" and rnd % 2 == 1)
        ops = cli_round(seed, rnd, fixtures)
        for op in ops:
            rc, out, err, ms, op_rss = run_process(cli_argv(op))
            rss = max(rss, op_rss)
            problem = cli_problem(op, rc, out, err)
            failed = rc != 0
            records.append([rnd, traced, ms, None if failed else problem,
                            f"exit {rc}: {err.strip()}" if failed else None])
        if traced:
            for key, code in (("interpreter_ms", "pass"), ("import_ms", "import wodkit")):
                rc, _, err, ms, _ = run_process([sys.executable, "-c", code])
                if rc != 0:
                    raise BenchError(f"python -c {code!r} failed:\n{err}")
                extra[key].append(ms)
            extra["traced_argv"] += [list(op.argv) for op in ops]
        rnd += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and len(records) >= min_ops:
            return Phase(records, elapsed, rss, extra=extra)


def cli_main_pass(argvs: list[list[str]],
                  spans: Path | None = None) -> tuple[list[float], dict]:
    """Time each argv through wodkit.cli.main inside one traced worker."""
    argv = worker_argv("cli-main", 0, "--traced-rounds", "all")
    if spans is not None:
        argv += ["--spans", str(spans)]
    rc, out, err, _, _ = run_process(argv, stdin=json.dumps(argvs).encode())
    if rc != 0:
        raise BenchError(f"cli-main worker failed (exit {rc}):\n{err}")
    res = json.loads(out.splitlines()[-1])
    if any(code != 0 for code, _ in res["main"]):
        raise BenchError("wodkit.cli.main returned non-zero in process")
    return [ms for _, ms in res["main"]], res["layers"]


# ---------------------------------------------------------------- runs

def percentile(xs: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    s = sorted(xs)
    rank = math.ceil(pct / 100 * len(s))
    return s[rank - 1], len(s) - rank


def run_phase(name: str, seed: int, seconds: float, min_ops: int, traced_rounds: str,
              cache: dict, first_round: int = 0,
              spans: Path | None = None) -> tuple[float, Phase]:
    """Set up the workload, then run its timed phase: (set-up s, phase)."""
    if name == "cli-small":
        fixtures = cache["cli-small"]
        setup_s = cli_setup(seed, fixtures, first_round)
        return setup_s, cli_phase(seed, seconds, min_ops, traced_rounds, fixtures,
                                  first_round)
    return worker_phase(name, seed, seconds, min_ops, traced_rounds, first_round, spans)


def check_phase(name: str, seed: int, phase: Phase, cache: dict) -> list[str]:
    """Problems in the outputs of the ops that did not fail."""
    if name == "cli-small":
        return [r[3] for r in phase.records if r[3]]
    check = CHECKS[name](seed, cache)
    problems = [check.problem(r[3]) for r in phase.records if r[4] is None]
    return [p for p in problems if p]


def end_to_end(name: str, seed: int, seconds: float, cache: dict) -> dict:
    """The end-to-end metrics of one untraced run.

    An untimed set-up first fills the bytecode and page caches, so no
    sample depends on what an earlier run left behind.  Then SEGMENTS
    fresh set-ups each time their own share of the timed phase; the
    rounds continue from one segment to the next.
    """
    wl = WORKLOADS[name]
    if name == "cli-small":
        cli_setup(seed, cache["cli-small"])
    else:
        prime_worker(name, seed)
    samples, records, elapsed, rss = [], [], 0.0, 0
    for k in range(SEGMENTS):
        last = k == SEGMENTS - 1
        share = max(seconds * (k + 1) / SEGMENTS - elapsed, 0.0)
        need = max(wl.min_ops - len(records), 1) if last else 1
        first = records[-1][0] + 1 if records else 0
        setup_s, part = run_phase(name, seed, share, need, "none", cache, first)
        samples.append(setup_s)
        records += part.records
        elapsed += part.elapsed_s
        rss = max(rss, part.rss_kb)
    phase = Phase(records, elapsed, rss)
    ms = [r[2] for r in phase.records]
    tail, beyond = percentile(ms, wl.tail_pct)
    if beyond < 10:
        raise BenchError(f"only {beyond} samples above p{wl.tail_pct}")
    problems = check_phase(name, seed, phase, cache)
    return {
        "attempted": len(phase.records),
        "failed": sum(1 for r in phase.records if r[4] is not None),
        "problems": problems,
        "metrics": {
            "ops_per_s": (len(ms) / phase.elapsed_s, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (tail, "ms"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (phase.rss_kb / 1024, "MB"),
        },
        "details": {
            "setup_samples_s": samples,
            "tail_percentile": wl.tail_pct,
            "samples": len(ms),
            "samples_above_tail": beyond,
            "timed_seconds": phase.elapsed_s,
        },
    }


LAYER_FUNCTIONS = ("solvers.kappa", "solvers.kappa_prime", "solvers.kappa_q",
                   "search.sample_and_measure", "graph.random_graph", "graph.parse_graph6",
                   "graph.cut_matrix", "wod.is_wod", "wod.wod_certificate",
                   "wod.non_wod_certificate", "gf2.solve")


def owner_of(fn: str) -> str:
    return OWNER.get(fn) or OWNER[fn.split(".", 1)[0]]


def traced(name: str, seed: int, seconds: float, cache: dict, tag: str) -> dict:
    """Per-layer metrics of the named workload.

    Its rounds alternate between traced and untraced, which gives the
    tracing overhead.  A layer function the workload never calls is
    measured on a short fully traced slice of the workload that owns it
    (OWNER), so every traced run reports every per-layer metric.
    """
    wl = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"SPANS_{tag}.json.gz"
    _, main_phase = run_phase(name, seed, seconds, wl.min_ops, "alternate", cache,
                              spans=spans)
    phases = {name: main_phase}
    on = [r[2] for r in main_phase.records if r[1]]
    off = [r[2] for r in main_phase.records if not r[1]]
    overhead_pct = 100 * (statistics.median(on) / statistics.median(off) - 1)

    if name == "cli-small":
        main_phase.extra["main_ms"], main_phase.layers = cli_main_pass(
            main_phase.extra["traced_argv"], spans)
    source = {fn: name if fn in main_phase.layers else owner_of(fn) for fn in LAYER_FUNCTIONS}
    # the cli.* metrics come from cli-small processes, never from spans
    source["cli"] = "cli-small"
    for other in sorted(set(source.values()) - {name}):
        _, phases[other] = run_phase(other, seed, SLICE_SECONDS, 1, "all", cache)
        if other == "cli-small":
            extra = phases[other].extra
            extra["main_ms"], phases[other].layers = cli_main_pass(extra["traced_argv"])

    def layer(fn: str) -> dict:
        return phases[source[fn]].layers[fn]

    def traced_outputs(fn: str) -> list:
        return [r[3] for r in phases[source[fn]].records if r[1] and r[4] is None]

    m = {}
    for fn in ("solvers.kappa", "solvers.kappa_prime", "solvers.kappa_q",
               "search.sample_and_measure", "graph.random_graph"):
        m[f"{fn}.ms"] = (layer(fn)["median_ms"], "ms")
    # nominal work: 2^n masks for kappa, the 2^(n-1) odd masks for kappa'
    for fn, share in (("solvers.kappa", 1), ("solvers.kappa_prime", 2)):
        m[f"{fn}.masks_per_s"] = (layer(fn)["pow2_order"] / share
                                  / (layer(fn)["total_ms"] / 1e3), "masks/s")
    check = CHECKS[source["solvers.kappa_q"]](seed, cache)
    m["solvers.kappa.early_exit_ops"] = (
        sum(1 for out in traced_outputs("solvers.kappa_q") if check.kappa_at_bound(out)),
        "count")
    cli = phases["cli-small"]
    m["cli.process_ms"] = (statistics.median(r[2] for r in cli.records), "ms")
    for key in ("interpreter_ms", "import_ms", "main_ms"):
        m[f"cli.{key}"] = (statistics.median(cli.extra[key]), "ms")
    for fn in ("graph.parse_graph6", "graph.cut_matrix", "wod.is_wod",
               "wod.wod_certificate", "wod.non_wod_certificate", "gf2.solve"):
        m[f"{fn}.us"] = (layer(fn)["median_ms"] * 1e3, "us")
    m["gf2.solve.calls_per_op"] = (
        layer("gf2.solve")["calls"] / len(traced_outputs("gf2.solve")), "calls/op")
    hits, calls = map(sum, zip(*(CertifyCheck.hits(out)
                                 for out in traced_outputs("wod.wod_certificate"))))
    m["wod.wod_certificate.hit_ratio"] = (hits / calls, "ratio")

    problems, counts = [], {}
    for wl_name, phase in phases.items():
        problems += check_phase(wl_name, seed, phase, cache)
        counts[wl_name] = {"attempted": len(phase.records),
                           "failed": sum(1 for r in phase.records if r[4] is not None)}
    return {
        "attempted": sum(c["attempted"] for c in counts.values()),
        "failed": sum(c["failed"] for c in counts.values()),
        "problems": problems,
        "metrics": m,
        "details": {
            "ops_by_workload": counts,
            "tracing_overhead_pct": overhead_pct,
            "tracing_overhead_base": f"median op ms of {len(on)} traced against "
                                     f"{len(off)} untraced ops of {name}",
            "layer_sources": source,
            "layers": {w: ph.layers for w, ph in phases.items()},
        },
    }


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        if not (ROOT / "src" / "wodkit" / "__init__.py").is_file():
            raise BenchError(f"no wodkit sources under {ROOT / 'src'}; "
                             "run from a checkout of the repository")
        cache = oracle.load_cache()
        tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        if args.trace:
            res = traced(args.workload, args.seed, args.seconds, cache, tag)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, cache)
    except (BenchError, RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in res["problems"][:20]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    RESULTS.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), **result,
              "problems": res["problems"], **res["details"]}
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
