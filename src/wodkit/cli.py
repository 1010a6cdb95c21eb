"""Command-line surface: compute, verify, generate, and search.

Graphs travel as graph6 strings, structured results as JSON with sorted
keys and ascending vertex arrays.  Exit codes: 0 success or valid
certificate, 1 invalid certificate, 2 input error, 3 enumeration cap
exceeded.  The --no-timing flag suppresses wall-clock fields so repeated
runs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from . import __version__
from .fixtures import FIXTURE_NAMES, named_fixture
from .graph import (
    Graph,
    VertexSet,
    complement,
    complete_multipartite,
    odd_neighborhood,
    parse_graph6,
    power,
    random_graph,
    write_graph6,
)
from .solvers import (
    DEFAULT_CAP,
    CapExceededError,
    ExtremalResult,
    Quantity,
    _kappa_pair,
    kappa,
    kappa_bounds,
    kappa_prime,
    kappa_prime_bounds,
)
from .search import sample_and_measure
from .wod import (
    verify_non_wod_certificate,
    verify_wod_certificate,
)

__all__ = ["main", "build_parser"]


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.gpq is not None:
        parts = args.gpq.split(",")
        if len(parts) != 2:
            raise ValueError(f"--gpq expects P,Q, got {args.gpq!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"--gpq expects two integers, got {args.gpq!r}") from None
        return complete_multipartite(p, q)
    if args.graph is not None:
        return parse_graph6(args.graph)
    if args.file is not None:
        with open(args.file, "r", encoding="ascii") as fh:
            return parse_graph6(fh.read())
    data = sys.stdin.read()
    if not data.strip():
        raise ValueError("no graph supplied: use --graph, --file, --gpq, or stdin")
    return parse_graph6(data)


def _witness_payload(g: Graph, res: ExtremalResult) -> dict[str, Any]:
    witness, value = res.witness, res.value
    odd = odd_neighborhood(g, witness)
    if res.quantity is Quantity.KAPPA:
        dominated = odd - witness
        if len(dominated) != value or not verify_wod_certificate(g, dominated, witness):
            raise RuntimeError("internal error: kappa witness failed verification")
        extra = {"wod_set": dominated.to_sorted_list()}
    else:
        covered = VertexSet(witness.mask | odd.mask, g.n)
        if len(covered) != value or not verify_non_wod_certificate(g, covered, witness):
            raise RuntimeError("internal error: kappa' witness failed verification")
        extra = {"non_wod_set": covered.to_sorted_list()}
    return {
        "value": value,
        "witness": witness.to_sorted_list(),
        "bounds": list(res.bounds_used),
        **extra,
    }


def _cmd_compute(args: argparse.Namespace) -> int:
    # kappa_prime and the bounds take no workers, so check them here for all
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    g = _read_graph(args)
    quantities = ("kappa", "kappa_prime", "kappa_q", "bounds")
    want = {q for q in quantities if getattr(args, q)}
    if args.all or not want:
        want = set(quantities)
    if "kappa_q" in want:
        want |= {"kappa", "kappa_prime"}
    t0 = time.perf_counter()
    results: dict[str, Any] = {}
    if "bounds" in want:
        results["bounds"] = {
            "kappa": list(kappa_bounds(g)),
            "kappa_prime": list(kappa_prime_bounds(g)),
        }
    k_res = kp_res = None
    if {"kappa", "kappa_prime"} <= want:
        # one plan and one run for both, as in kappa_q: kappa() runs the
        # solve and leaves kappa' for kappa_prime().  _kappa_pair rather
        # than kappa_q keeps compute's calls to kappa() and kappa_prime()
        # as they were, which perfbench's traced cli-small run relies on
        k_res, kp_res = _kappa_pair(
            g, cap=args.cap, engine=args.engine, workers=args.workers
        )
    elif "kappa" in want:
        k_res = kappa(g, cap=args.cap, engine=args.engine, workers=args.workers)
    elif "kappa_prime" in want:
        kp_res = kappa_prime(g, cap=args.cap, engine=args.engine)
    for res in (k_res, kp_res):
        if res is not None:
            results[res.quantity.value] = _witness_payload(g, res)
    if "kappa_q" in want:
        results["kappa_q"] = {"value": max(k_res.value, g.n - kp_res.value)}
    envelope: dict[str, Any] = {
        "command": "compute",
        "version": __version__,
        "graph6": write_graph6(g),
        "n": g.n,
        "results": results,
    }
    if not args.no_timing:
        envelope["timing"] = {"seconds": time.perf_counter() - t0}
    print(json.dumps(envelope, sort_keys=True, indent=2))
    return 0


def _load_certificate(args: argparse.Namespace) -> dict[str, Any]:
    if args.certificate_file:
        with open(args.certificate_file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = args.certificate
    try:
        cert = json.loads(raw)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None
    if not isinstance(cert, dict):
        raise ValueError("certificate must be a JSON object")
    for key in ("kind", "b", "witness"):
        if key not in cert:
            raise ValueError(f"certificate missing key {key!r}")
    if cert["kind"] not in ("WOD", "NON_WOD"):
        raise ValueError(f"certificate kind must be WOD or NON_WOD, got {cert['kind']!r}")
    for key in ("b", "witness"):
        if not isinstance(cert[key], list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in cert[key]
        ):
            raise ValueError(f"certificate field {key!r} must be a list of integers")
    return cert


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    cert = _load_certificate(args)
    b = VertexSet.from_indices(g.n, cert["b"])
    witness = VertexSet.from_indices(g.n, cert["witness"])
    if cert["kind"] == "WOD":
        valid = verify_wod_certificate(g, b, witness)
        detail = "C disjoint from B with B inside Odd(C)"
    else:
        valid = verify_non_wod_certificate(g, b, witness)
        detail = "odd D inside B with Odd(D) inside B"
    print(json.dumps({"kind": cert["kind"], "valid": valid}, sort_keys=True))
    if valid:
        return 0
    print(f"invalid {cert['kind']} certificate: requires {detail}", file=sys.stderr)
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    if family == "gpq":
        graphs = [complete_multipartite(args.p, args.q)]
    elif family == "power":
        graphs = [power(parse_graph6(args.g6), args.r)]
    elif family == "complement":
        graphs = [complement(parse_graph6(args.g6))]
    elif family == "random":
        graphs = [random_graph(args.n, args.seed)]
    elif family == "fixture":
        graphs = named_fixture(args.name)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown family {family!r}")
    for g in graphs:
        print(write_graph6(g))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import statistics

    # NaN fails both comparisons, so this also keeps NaN out of the JSON
    if not 0 <= args.threshold <= 1:
        raise ValueError(f"threshold must be a ratio in [0, 1], got {args.threshold}")
    reports = sample_and_measure(args.n, args.trials, args.seed, cap=args.cap)
    below = 0
    for rep in reports:
        if rep.kappa_q < args.threshold * args.n:
            below += 1
        line = {name: getattr(rep, name) for name in rep._fields}
        if args.no_timing:
            del line["elapsed"]
        print(json.dumps(line, sort_keys=True, separators=(",", ":")))
    ratios = [rep.ratio for rep in reports]
    summary = {
        "summary": {
            "trials": len(reports),
            "n": args.n,
            "threshold_ratio": args.threshold,
            "below_threshold": below,
            "fraction": below / len(reports) if reports else None,
            "min_ratio": min(ratios) if ratios else None,
            "median_ratio": statistics.median(ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None,
        }
    }
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return 0


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--graph", help="graph6 string")
    src.add_argument("--file", help="path to a graph6 file")
    src.add_argument("--gpq", metavar="P,Q",
                     help="complete multipartite graph with q parts of size p")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wodkit",
        description="Exact weak odd domination toolkit for small graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="exact quantities for one graph")
    _add_graph_source(p_compute)
    p_compute.add_argument("--kappa", action="store_true",
                           help="largest WOD set size")
    p_compute.add_argument("--kappa-prime", dest="kappa_prime", action="store_true",
                           help="smallest non-WOD set size")
    p_compute.add_argument("--kappa-q", dest="kappa_q", action="store_true",
                           help="max(kappa, n - kappa')")
    p_compute.add_argument("--bounds", action="store_true",
                           help="degree-based brackets only")
    p_compute.add_argument("--all", action="store_true",
                           help="everything above (default when no flag given)")
    p_compute.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="enumeration cap on the order (default %(default)s)")
    p_compute.add_argument("--engine", choices=("auto", "pure", "numpy"),
                           default="auto", help="subset scan implementation")
    p_compute.add_argument("--workers", type=int, default=None,
                           help="parallel worker processes for the kappa scan")
    p_compute.add_argument("--no-timing", dest="no_timing", action="store_true",
                           help="omit wall-clock fields for byte-stable output")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="check a WOD/non-WOD certificate")
    _add_graph_source(p_verify)
    cert = p_verify.add_mutually_exclusive_group(required=True)
    cert.add_argument("--certificate",
                      help='JSON object {"kind","b","witness"}')
    cert.add_argument("--certificate-file", dest="certificate_file",
                      help="path to a certificate JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    p_generate = sub.add_parser("generate", help="emit graph6 for a family")
    gen_sub = p_generate.add_subparsers(dest="family", required=True)
    g_gpq = gen_sub.add_parser("gpq", help="complete multipartite G_{p,q}")
    g_gpq.add_argument("p", type=int)
    g_gpq.add_argument("q", type=int)
    g_pow = gen_sub.add_parser("power", help="disjoint copies of a graph")
    g_pow.add_argument("g6")
    g_pow.add_argument("r", type=int)
    g_comp = gen_sub.add_parser("complement", help="complement of a graph")
    g_comp.add_argument("g6")
    g_rand = gen_sub.add_parser("random", help="seeded G(n, 1/2)")
    g_rand.add_argument("n", type=int)
    g_rand.add_argument("seed", type=int)
    g_fix = gen_sub.add_parser("fixture", help="named reference graph(s)")
    g_fix.add_argument("name", help=", ".join(FIXTURE_NAMES))
    p_generate.set_defaults(func=_cmd_generate)

    p_search = sub.add_parser("search", help="measure kappa_Q over random graphs")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--trials", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("--threshold", type=float, default=0.811,
                          help="ratio for the summary count (default %(default)s)")
    p_search.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_search.add_argument("--no-timing", dest="no_timing", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
