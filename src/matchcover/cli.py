"""Command-line interface.

One subcommand per library operation, each a handler in one table.
Exit codes: 0 success, 1 the analysis came back negative (not an
r-graph, bound unmet, no double cover, membership failure), 2 usage or
input error, 3 a configured cap was exhausted, 4 an internal error (the
traceback goes to stderr).  A graph comes from exactly one of --gen,
--input or --corpus.  JSON reports follow one schema for every
subcommand: command, graph {n, m, source}, params, result, certificates,
and a machine-parsable exit_reason; rationals are reduced 'p/q' strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .bounds import (
    TABLE_KS,
    TABLE_RS,
    approx_decimal,
    bound_table,
    format_fraction,
    geometric_bound,
    product_bound,
    small_k_bound,
)
from .cover import FAST, MODES, audits_pass, greedy_cover, require_cover_input
from .errors import (
    CapExceededError,
    EdgeListError,
    GeneratorError,
    MembershipFailure,
    NoPerfectMatchingError,
    NotRegularError,
    NotRGraphError,
    UncoverableEdgeError,
)
from .exact import bf_double_cover, excessive_index, m_exact
from .fractional import decompose, multicoloring, uniform
from .generators import from_spec, generator_names
from .matching import PM_CAP
from .multigraph import Multigraph, parse_edge_list, serialize
from .oddcuts import SCAN_LIMIT, is_r_graph


def _json_default(obj):
    """JSON form of the exact values in certificates: 'p/q' and sorted sets."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _audit_text(families) -> str:
    if families is None:
        return f"audit: skipped (n above the scan limit {SCAN_LIMIT})"
    parts = []
    for f in families:
        if f.status == "vacuous":
            parts.append(f"{f.cardinality}-cuts: none exist")
        elif f.status == "not-checked":
            parts.append(
                f"{f.cardinality}-cuts: {f.num_cuts} seen, no clause"
                + (f", max total {f.worst}" if f.worst is not None else "")
            )
        elif f.status == "satisfied":
            parts.append(f"{f.cardinality}-cuts: {f.clause} ok ({f.num_cuts} cuts)")
        else:
            parts.append(
                f"{f.cardinality}-cuts: VIOLATED {f.clause}, total {f.worst} "
                f"on {{{', '.join(map(str, sorted(f.witness)))}}}"
            )
    return "audit: " + "; ".join(parts)


class _Failure(Exception):
    """Internal carrier of a failed run's exit code, machine reason and the
    result, certificates and text its report still shows."""

    def __init__(self, code: int, reason: str, result: dict | None = None,
                 certs: list | None = None, text: list[str] | None = None):
        super().__init__(reason)
        self.code = code
        self.reason = reason
        self.result = result or {}
        self.certs = certs
        self.text = text or []


# First match wins: every package error is a ValueError, so usage comes last.
_EXITS = (
    (EdgeListError, 2, "edge-list"),
    (GeneratorError, 2, "generator"),
    (NotRGraphError, 1, "not-r-graph"),
    (NotRegularError, 1, "not-regular"),
    (UncoverableEdgeError, 1, "uncoverable-edge"),
    (NoPerfectMatchingError, 1, "no-perfect-matching"),
    (MembershipFailure, 1, "membership"),
    (CapExceededError, 3, "cap"),
    ((ValueError, OSError), 2, "usage"),
)


def _classify(exc: Exception) -> _Failure:
    """Exit code and reason for any exception a run raises; an unknown one
    is an internal error, reported with its traceback on stderr."""
    if isinstance(exc, _Failure):
        return exc
    for types, code, prefix in _EXITS:
        if isinstance(exc, types):
            result = None
            if isinstance(exc, NotRGraphError) and exc.witness is not None:
                result = {"witness": exc.witness, "cut_value": exc.value}
            elif isinstance(exc, UncoverableEdgeError):
                result = {"edge": exc.edge_id}
            return _Failure(code, f"{prefix}: {exc}", result)
    traceback.print_exception(type(exc), exc, exc.__traceback__)
    return _Failure(4, f"internal: {type(exc).__name__}: {exc}")


def _cap(text: str) -> int:
    """Argument type of --pm-cap: an integer, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache  # parsing leaves the parser unchanged, so main() builds it once
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="matchcover",
        description="Cover the edges of an r-graph with k perfect matchings, "
        "with exact rational certificates.",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    # Option groups shared by subcommands, each declared once; a subcommand
    # lists its groups in the order its help shows them.
    r, k, mode, graph, pm_cap, exact = (argparse.ArgumentParser(add_help=False)
                                        for _ in range(6))
    r.add_argument("-r", type=int, required=True)
    k.add_argument("-k", type=int, required=True)
    mode.add_argument("--mode", choices=MODES, default=FAST)
    graph.add_argument("--gen", metavar="NAME[:P1,P2]",
                       help=f"generator spec; one of: {', '.join(generator_names())}")
    graph.add_argument("--input", metavar="FILE", help="edge-list file")
    graph.add_argument("--corpus", metavar="DIR", help="run over every edge-list file in DIR")
    graph.add_argument("--seed", type=int, default=None, help="seed for random generators")
    pm_cap.add_argument("--pm-cap", type=_cap, default=PM_CAP,
                        help=f"max perfect matchings to enumerate (default {PM_CAP})")
    exact.add_argument("-k", type=int, default=None)
    exact.add_argument("--excessive", action="store_true",
                       help="also compute the minimum full-cover size")

    sp = sub.add_parser("gen", help="emit a generated graph as edge-list text")
    sp.add_argument("--gen", metavar="NAME[:P1,P2]", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sub.add_parser("check", help="test the odd-cut condition (is this an r-graph)",
                   parents=[r, graph])
    sub.add_parser("cover", help="greedy k-matching cover with certificates",
                   parents=[r, k, mode, graph])
    sub.add_parser("exact", help="exact best k-cover fraction / excessive index",
                   parents=[exact, graph, pm_cap])
    sp = sub.add_parser("bounds", help="coverage-fraction lower bounds")
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("--table", action="store_true",
                    help=f"print the full bound table (r={','.join(map(str, TABLE_RS))}; "
                    f"k={TABLE_KS[0]}..{TABLE_KS[-1]})")
    sub.add_parser("decompose", help="convex decomposition of the uniform vector",
                   parents=[r, graph])
    sub.add_parser("multicolor", help="p-fold cover by r*p perfect matchings",
                   parents=[r, graph])
    sub.add_parser("bf-search", help="exhaustive search for a double cover "
                   "by 2r perfect matchings", parents=[r, graph, pm_cap])
    sub.add_parser("audit", help="run a cover and audit the small odd-cut families",
                   parents=[r, k, mode, graph])
    return p


def _load_graph(args) -> tuple[Multigraph | None, str | None]:
    """The graph named by the graph options and its source, or (None, None)
    when the subcommand has none.  A --corpus that reaches here was not run
    as a corpus: it comes with --gen, --input or --seed, or is no directory."""
    if not hasattr(args, "gen"):
        return None, None
    gen, inp = args.gen, getattr(args, "input", None)
    if args.seed is not None and gen is None:
        raise _Failure(2, "usage: --seed feeds a generator and needs --gen")
    corpus = getattr(args, "corpus", None)
    if corpus and (gen is not None or inp is not None):
        raise _Failure(2, "usage: --corpus cannot be combined with --gen or --input")
    if corpus:
        raise _Failure(2, f"usage: corpus directory not found: {corpus}")
    if (gen is None) == (inp is None):
        raise _Failure(2, "usage: exactly one of --gen or --input is required")
    if gen is not None:
        return from_spec(gen, seed=args.seed), f"gen:{gen}"
    return parse_edge_list(Path(inp).read_text()), f"file:{inp}"


def _params_json(args) -> dict:
    keys = ("r", "k", "mode", "pm_cap", "seed", "excessive")
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _cmd_gen(g: Multigraph, args):
    text = serialize(g)
    return {"edge_list": text}, None, [text.rstrip("\n")]


def _cmd_check(g: Multigraph, args):
    ok, cut = is_r_graph(g, args.r)
    if cut is None:
        return {"r_graph": True}, None, ["r-graph: yes (empty graph)"]
    value = format_fraction(cut.value)
    result = {"r_graph": ok, "min_odd_cut": value, "witness": sorted(cut.witness)}
    if ok:
        return result, None, [f"r-graph: yes (min odd cut {value})"]
    text = [
        f"r-graph: no (odd cut of value {value} < {args.r}; "
        f"witness {{{', '.join(map(str, sorted(cut.witness)))}}})"
    ]
    raise _Failure(1, f"not-r-graph: min odd cut {value} < {args.r}", result, text=text)


def _cover_text(rep) -> list[str]:
    lines = [f"mode {rep.mode}, r={rep.r}, k={rep.k}"]
    for c in rep.certificates:
        flags = []
        if c.stalled:
            flags.append("stalled")
        if c.membership_verified is False:
            flags.append("membership-failed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"step {c.step}: level {c.level} "
            f"predicted {format_fraction(c.predicted_gain)} "
            f"actual {c.actual_gain} covered {c.covered_after}{suffix}"
        )
        lines.append("  " + _audit_text(c.audit))
    verdict = "yes" if rep.bound_met else "NO"
    lines.append(
        f"covered {len(rep.state.covered)}/{rep.state.graph.m} = "
        f"{format_fraction(rep.fraction)} "
        f"(bound {format_fraction(rep.bound)}: {verdict})"
    )
    return lines


def _cmd_cover(g: Multigraph, args):
    rep = greedy_cover(g, args.r, args.k, mode=args.mode)
    certs = [asdict(c) for c in rep.certificates]
    result = {
        "matchings": [list(m.edge_ids) for m in rep.matchings],
        "covered": len(rep.state.covered),
        "fraction": format_fraction(rep.fraction),
        "bound": format_fraction(rep.bound),
        "bound_met": rep.bound_met,
        "all_l1": rep.all_l1,
    }
    text = _cover_text(rep)
    if not rep.bound_met:
        raise _Failure(1, f"bound-unmet: {result['fraction']} < {result['bound']}",
                       result, certs, text)
    return result, certs, text


def _decimal(f: Fraction) -> str:
    """f as a decimal marked '=' when exact and '~' when rounded."""
    dec, exact = approx_decimal(f)
    return ("=" if exact else "~") + dec


def _cmd_exact(g: Multigraph, args):
    if args.k is None and not args.excessive:
        raise _Failure(2, "usage: exact needs -k and/or --excessive")
    result = {}
    text = []
    if args.k is not None:
        cov = m_exact(g, args.k, pm_cap=args.pm_cap)
        result["k"] = args.k
        result["fraction"] = format_fraction(cov.fraction)
        result["witness_indices"] = list(cov.witness_indices)
        result["matchings"] = [list(m.edge_ids) for m in cov.matchings]
        result["pm_count"] = cov.pm_count
        text.append(
            f"best {args.k}-cover fraction: {result['fraction']} ({_decimal(cov.fraction)}) "
            f"over {cov.pm_count} matchings; witness indices {result['witness_indices']}"
        )
    if args.excessive:
        ei = excessive_index(g, pm_cap=args.pm_cap)
        result["excessive_index"] = ei.value
        result["excessive_witness"] = list(ei.witness_indices)
        text.append(
            f"excessive index: {ei.value} (witness indices {list(ei.witness_indices)})"
        )
    return result, None, text


def _cmd_bounds(_g, args):
    if args.table:
        rows, cells = [], {}
        for r, k, b in bound_table():
            dec, exact = approx_decimal(b)
            rows.append({"r": r, "k": k, "bound": format_fraction(b),
                         "decimal": dec, "exact": exact})
            cells.setdefault(r, []).append(f"k={k}: {format_fraction(b)} ({_decimal(b)})")
        text = [f"r={r}:  " + "; ".join(c) for r, c in cells.items()]
        return {"table": rows}, None, text
    if args.r is None or args.k is None:
        raise _Failure(2, "usage: bounds needs --table or both -r and -k")
    bounds = {"product": product_bound(args.r, args.k),
              "geometric": geometric_bound(args.r, args.k)}
    if args.k <= 2 * args.r - 1:
        bounds["small_k"] = small_k_bound(args.r, args.k)
    result = {"r": args.r, "k": args.k}
    text = []
    for name, b in bounds.items():
        result[name] = format_fraction(b)
        label = name.replace("_", "-")
        text.append(f"{label} bound: {result[name]} ({_decimal(b)})")
    return result, None, text


def _cmd_decompose(g: Multigraph, args):
    w = uniform(g, args.r)
    dec = decompose(g, w)
    result = {
        "terms": [
            {"coefficient": format_fraction(c), "matching": list(m.edge_ids)}
            for m, c in dec.terms
        ],
        "num_terms": len(dec.terms),
        "coefficients_sum": format_fraction(dec.coefficients_sum()),
    }
    text = [f"decomposed the uniform vector into {len(dec.terms)} matchings "
            "(reconstruction verified exactly)"]
    for m, c in dec.terms:
        text.append(f"  {format_fraction(c)} * edges {list(m.edge_ids)}")
    return result, None, text


def _cmd_multicolor(g: Multigraph, args):
    mc = multicoloring(g, args.r)
    result = {
        "p": mc.p,
        "num_matchings": len(mc.matchings),
        "matchings": [list(m.edge_ids) for m in mc.matchings],
    }
    text = [
        f"p = {mc.p}: {len(mc.matchings)} matchings "
        f"(= {args.r}*{mc.p}) cover every edge exactly {mc.p} times"
    ]
    return result, None, text


def _cmd_bf_search(g: Multigraph, args):
    res = bf_double_cover(g, args.r, cap=args.pm_cap)
    cover = {"matchings": [list(m.edge_ids) for m in res.matchings]} if res.found else {}
    result = {"found": res.found, **cover, "pm_count": res.pm_count, "nodes": res.nodes}
    if res.found:
        return result, None, [f"double cover found: {len(res.matchings)} matchings "
                              f"(2*{args.r}), every edge exactly twice"]
    raise _Failure(
        1,
        f"no-double-cover: exhausted {res.pm_count} matchings ({res.nodes} nodes)",
        {**result, "exhausted": True},
        text=[f"no double cover: search space fully explored "
              f"({res.pm_count} matchings, {res.nodes} nodes)"],
    )


def _cmd_audit(g: Multigraph, args):
    if g.n > SCAN_LIMIT:  # refuse before covering, once the graph is checked
        require_cover_input(g, args.r, args.k, args.mode)
        raise CapExceededError(
            f"audit needs an exhaustive scan; n = {g.n} exceeds the scan limit {SCAN_LIMIT}"
        )
    rep = greedy_cover(g, args.r, args.k, mode=args.mode)
    fams = rep.certificates[-1].audit
    result = {"audit": [asdict(f) for f in fams], "mode": args.mode,
              "fraction": format_fraction(rep.fraction)}
    text = [_audit_text(fams)]
    if not audits_pass(fams):
        raise _Failure(1, "audit-violation: some cut family broke its clause",
                       result, text=text)
    return result, None, text


# Each handler returns (result, certificates, text); a negative answer raises _Failure.
_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "cover": _cmd_cover,
    "exact": _cmd_exact,
    "bounds": _cmd_bounds,
    "decompose": _cmd_decompose,
    "multicolor": _cmd_multicolor,
    "bf-search": _cmd_bf_search,
    "audit": _cmd_audit,
}

_OUTCOMES = {0: "ok", 1: "negative", 2: "error", 3: "capped", 4: "error"}


def _emit(args, report: dict, text: list[str], error: str | None = None):
    """Print the report.  A reader that closed the pipe gets nothing more:
    stdout then goes to devnull, so the exit flush stays quiet and the
    run keeps its own exit code."""
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, default=_json_default))
        else:
            for line in text:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.format == "text" and error is not None:
        print(f"error: {error}", file=sys.stderr)


def _run(args, load, meta=None) -> tuple[int, dict, list[str]]:
    """Load the graph, run the subcommand's handler and classify any failure.

    `load` returns (graph, source) as `_load_graph` does; `meta` is the
    graph entry of the report when loading fails.
    """
    try:
        g, source = load()
        if g is not None:
            meta = {"n": g.n, "m": g.m, "source": source}
        result, certs, text = _COMMANDS[args.command](g, args)
        code, reason = 0, "ok"
    except Exception as exc:  # noqa: BLE001 - every failure maps to an exit code
        fail = _classify(exc)
        code, reason, result, certs, text = (fail.code, fail.reason, fail.result,
                                             fail.certs, fail.text)
    report = {
        "command": args.command,
        "graph": meta,
        "params": _params_json(args),
        "result": result,
        "certificates": certs or [],
        "exit_reason": reason,
    }
    return code, report, text


def _run_corpus(args, directory: Path) -> int:
    files = sorted(
        f for f in directory.iterdir() if f.is_file() and not f.name.startswith(".")
    )
    worst = 0
    reports = []
    all_text = []
    counts = {"ok": 0, "negative": 0, "error": 0, "capped": 0}
    for f in files:
        source = f"file:{f}"
        code, rep, text = _run(args, lambda: (parse_edge_list(f.read_text()), source),
                               {"n": None, "m": None, "source": source})
        reports.append(rep)
        all_text.append(f"== {f.name} ==")
        all_text.extend(text)
        if code != 0:
            all_text.append(f"  ({rep['exit_reason']})")
        counts[_OUTCOMES[code]] += 1
        worst = max(worst, code)
    all_text.append(
        f"corpus: {len(files)} files, {counts['ok']} ok, "
        f"{counts['negative']} negative, {counts['error']} errors, "
        f"{counts['capped']} capped"
    )
    batch = {
        "command": args.command,
        "corpus": str(directory),
        "params": _params_json(args),
        "reports": reports,
        "summary": {"files": len(files), **counts},
        "exit_reason": "ok" if worst == 0 else f"corpus-worst-exit: {worst}",
    }
    _emit(args, batch, all_text)
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    corpus = getattr(args, "corpus", None)
    if corpus and (args.gen, args.input, args.seed) == (None,) * 3 and Path(corpus).is_dir():
        return _run_corpus(args, Path(corpus))
    code, report, text = _run(args, lambda: _load_graph(args))
    _emit(args, report, text, report["exit_reason"] if code else None)
    return code


if __name__ == "__main__":
    sys.exit(main())
