"""Command-line front end.

One verb per concept cluster:

    prefarg arguments  base.kb --query "p"      enumerate the universe
    prefarg extensions base.kb                  acceptance classes and extensions
    prefarg extensions graph.af --format json   same, from an abstract framework
    prefarg accept     base.kb --query "p"      verdict for one conclusion
    prefarg coherence  base.kb                  subbases and correspondence report
    prefarg graph      base.kb --query "p"      DOT attack graph
    prefarg check      graph.af                 run the invariant suite

Every subcommand takes --kind, --query, --format and --cap.
extensions, accept, graph and check also take --defeat and --pref;
extensions and accept take --mode; only extensions takes --semantics.
Any other flag is a usage error.

Input kind is inferred from the file suffix (.kb or .af) unless --kind
says otherwise. Abstract framework files carry their own defeat and
preference relations, so --defeat, --pref and --query are rejected for
them. main applies the input rules in this order; the first one broken
decides the exit code and the message:

 1. --cap is at least 0;
 2. --format dot is only for graph, and 3. graph takes no --format json;
 4. the input kind comes from --kind or the suffix, before any read;
 5. the file is read (a missing, unreadable or non-UTF-8 file is exit 1);
 6. a .kb is parsed; an .af first rejects --defeat, --pref and --query;
 7. arguments, accept and coherence need a knowledge base;
 8. accept needs --query;
 9. --query is parsed;
10. a .kb's universe is built: more beliefs than --cap, or more than 24
    distinct atoms, exits 2 with one "prefarg: error:" line;
11. check refuses input of either kind above --cap arguments (exit 2);
12. the framework is built for extensions, accept, graph and check.

A formula, in a .kb line or in --query, nested more than 100 levels deep
is a parse error. Exit codes: 0 success, 1 usage or parse error, 2
enumeration cap exceeded, 3 invariant failure from check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .arguments import DEFAULT_CAP, build_universe, check_cap, universe_to_json
from .coherence import check_correspondence, correspondence_to_json, ref_to_json, subbase_to_json
from .errors import CapExceededError, PrefArgError
from .formulas import parse_formula, render
from .framework import PreferenceRelation, build_framework, parse_abstract_framework
from .kb import parse_kb
from .semantics import evaluate, report_to_json, self_check


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The parser for every subcommand, built on the first call of a process.

    argparse keeps no state between parse_args calls, so later calls of
    main share it; building it costs more than a small .af input does.
    """
    parser = _Parser(prog="prefarg", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in (
        ("arguments", "enumerate the argument universe of a knowledge base", ()),
        ("extensions", "compute acceptance classes and extensions",
         ("--defeat", "--pref", "--mode", "--semantics")),
        ("accept", "decide whether a query conclusion is accepted",
         ("--defeat", "--pref", "--mode")),
        ("coherence", "enumerate preferred subbases and cross-check extensions", ()),
        ("graph", "emit the attack graph in DOT format", ("--defeat", "--pref")),
        ("check", "run the semantic invariant suite on the input", ("--defeat", "--pref")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a .kb or .af file")
        p.add_argument("--kind", choices=("kb", "af"), help="override the inferred input kind")
        if "--defeat" in flags:
            p.add_argument("--defeat", choices=("rebut", "undercut"), default=None,
                           help="defeat relation for knowledge bases (default undercut)")
        if "--pref" in flags:
            p.add_argument("--pref", choices=("certainty", "none"), default=None,
                           help="preference for knowledge bases (default certainty)")
        if "--mode" in flags:
            p.add_argument("--mode", choices=("weak", "strict"), default="weak",
                           help="conflict-free test: attack edges or all defeat edges")
        p.add_argument("--query", default=None, metavar="FORMULA",
                       help="query conclusion (knowledge bases only)")
        p.add_argument("--format", choices=("text", "json", "dot"), default="text",
                       dest="fmt", help="output format")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="enumeration cap on arguments and beliefs")
        if "--semantics" in flags:
            p.add_argument("--semantics", choices=("grounded", "complete", "stable", "all"),
                           default="all", help="which extension families to report")
    return parser


def _usage(args, message: str) -> int:
    sys.stderr.write(f"prefarg {args.command}: error: {message}\n")
    return 1


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _ids(ids) -> str:
    return "{" + ", ".join(ids) + "}"


def cmd_arguments(args, universe, fw) -> int:
    if args.fmt == "json":
        _emit(_dumps(universe_to_json(universe)))
    else:
        _emit("".join(a.describe() + "\n" for a in universe.arguments))
    return 0


def _extension_payload(args, report) -> dict:
    payload = report_to_json(report)
    if args.semantics == "all":
        return payload
    keep = ["mode", "capped", "iterations", "class_r", "class_r_pref"]
    keep += {
        "grounded": ["grounded", "greatest_fixed_point"],
        "complete": ["complete", "unique_complete"],
        "stable": ["stable"],
    }[args.semantics]
    return {k: payload[k] for k in payload if k in keep}


def _extension_text(args, report) -> str:
    lines = [f"mode: {report.mode}", f"capped: {'yes' if report.capped else 'no'}"]
    lines.append(f"class_r: {_ids(report.class_r)}")
    lines.append(f"class_r_pref: {_ids(report.class_r_pref)}")
    sel = args.semantics
    if sel in ("grounded", "all"):
        lines.append(f"grounded: {_ids(report.grounded)} ({report.iterations} iterations)")
        lines.append(f"greatest_fixed_point: {_ids(report.greatest_fixed_point)}")
    if sel in ("complete", "all"):
        lines.append(f"complete ({len(report.complete)}):")
        lines += [f"  {_ids(e)}" for e in report.complete]
        lines.append(f"unique_complete: {'yes' if report.unique_complete else 'no'}")
    if sel in ("stable", "all"):
        lines.append(f"stable ({len(report.stable)}):")
        lines += [f"  {_ids(e)}" for e in report.stable]
    return "".join(line + "\n" for line in lines)


def cmd_extensions(args, universe, fw) -> int:
    report = evaluate(fw, args.mode, args.cap)
    if args.fmt == "json":
        _emit(_dumps(_extension_payload(args, report)))
    else:
        _emit(_extension_text(args, report))
    return 0


def cmd_accept(args, universe, fw) -> int:
    query = universe.query
    report = evaluate(fw, args.mode, args.cap)
    grounded = set(report.grounded)
    stable = [set(e) for e in report.stable]
    rows = []
    for a in universe.arguments:
        if a.conclusion != query:
            continue
        rows.append({
            "id": a.id,
            "argument": a.describe(),
            "in_class_r": a.id in report.class_r,
            "in_class_r_pref": a.id in report.class_r_pref,
            "in_grounded": a.id in grounded,
            "in_stable": [a.id in e for e in stable],
        })
    accepted = any(r["in_grounded"] for r in rows)
    credulous = None if report.capped else any(any(r["in_stable"]) for r in rows)
    if args.fmt == "json":
        _emit(_dumps({
            "query": render(query),
            "accepted": accepted,
            "credulous_stable": credulous,
            "capped": report.capped,
            "arguments": rows,
            "stable": [list(e) for e in report.stable],
        }))
    else:
        lines = [f"query: {render(query)}"]
        for r in rows:
            marks = ", ".join(
                name for name, hit in (
                    ("class_r", r["in_class_r"]),
                    ("class_r_pref", r["in_class_r_pref"]),
                    ("grounded", r["in_grounded"]),
                ) if hit
            ) or "none"
            stable_note = f"{sum(r['in_stable'])}/{len(stable)} stable"
            lines.append(f"{r['argument']}  [{marks}; {stable_note}]")
        if not rows:
            lines.append("no argument concludes the query")
        lines.append(f"verdict: {'accepted' if accepted else 'not accepted'}")
        _emit("".join(line + "\n" for line in lines))
    return 0


def cmd_coherence(args, universe, fw) -> int:
    kb = universe.kb
    report = check_correspondence(universe, args.cap)
    common = sorted(report.intersection)
    if args.fmt == "json":
        _emit(_dumps({
            "subbases": [subbase_to_json(kb, sb) for sb in report.subbases],
            "intersection": [ref_to_json(kb, r) for r in common],
            "correspondence": correspondence_to_json(report),
        }))
    else:
        lines = [f"subbases ({len(report.subbases)}):"]
        for sb in report.subbases:
            lines.append("  {" + ", ".join(render(f) for f in sb.formulas(kb)) + "}")
        lines.append(
            "intersection: {"
            + ", ".join(render(kb.resolve(r)) for r in common) + "}"
        )
        for c in report.clauses:
            lines.append(f"{c.name}: {c.status}  {c.detail}")
            if c.counterexample:
                lines.append(f"  counterexample: {json.dumps(c.counterexample)}")
        _emit("".join(line + "\n" for line in lines))
    return 0


def cmd_graph(args, universe, fw) -> int:
    attacks = set(fw.attacks)
    lines = ["digraph framework {", "  rankdir=LR;"]
    for a in fw.arguments:
        label = a.id if a.level is None else f"{a.id} @{a.level}"
        lines.append(f'  "{a.id}" [label="{label}"];')
    for x, y in fw.defeats:
        style = "" if (x, y) in attacks else " [style=dashed]"
        lines.append(f'  "{x}" -> "{y}"{style};')
    lines.append("}")
    _emit("".join(line + "\n" for line in lines))
    return 0


def cmd_check(args, universe, fw) -> int:
    """Run self_check, plus check_correspondence for a .kb; exit 3 on a failed law."""
    clauses = None if universe is None else check_correspondence(universe, args.cap)
    report = self_check(fw)
    ok = report.ok and (clauses is None or clauses.ok)
    if args.fmt == "json":
        payload = {
            "ok": ok,
            "results": [
                {"name": r.name, "status": r.status, "detail": r.detail}
                for r in report.results
            ],
            "fgf": {
                "checked": report.fgf_checked,
                "mismatches": report.fgf_mismatches,
                "f_fixed_point_mismatches": report.fgf_f_fixed_point_mismatches,
                "g_fixed_point_mismatches": report.fgf_g_fixed_point_mismatches,
            },
        }
        if clauses is not None:
            payload["correspondence"] = correspondence_to_json(clauses)
        _emit(_dumps(payload))
    else:
        lines = []
        for r in report.results:
            lines.append(f"{r.name}: {r.status}" + (f"  {r.detail}" if r.detail else ""))
        lines.append(
            f"interchange tally: {report.fgf_mismatches}/{report.fgf_checked} subsets, "
            f"{report.fgf_f_fixed_point_mismatches} at f_step fixed points, "
            f"{report.fgf_g_fixed_point_mismatches} at g_step fixed points"
        )
        if clauses is not None:
            for c in clauses.clauses:
                lines.append(f"{c.name}: {c.status}  {c.detail}")
        lines.append("self_check: " + ("ok" if ok else "FAILED"))
        _emit("".join(line + "\n" for line in lines))
    return 0 if ok else 3


_COMMANDS = {
    "arguments": cmd_arguments,
    "extensions": cmd_extensions,
    "accept": cmd_accept,
    "coherence": cmd_coherence,
    "graph": cmd_graph,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    """Apply the input rules in order, build what the command reads, then run it.

    This is the one place that turns an input into objects: the file is
    parsed here, a .kb's universe is built once, and the framework once
    for the commands that read one. Each cmd_* only computes and prints.
    """
    args = _build_parser().parse_args(argv)
    if args.cap < 0:
        return _usage(args, f"--cap must be at least 0, got {args.cap}")
    if args.fmt == "dot" and args.command != "graph":
        return _usage(args, "--format dot only applies to the graph subcommand")
    if args.fmt == "json" and args.command == "graph":
        return _usage(args, "the graph subcommand writes DOT, use --format dot")
    suffix = Path(args.input).suffix
    kind = args.kind or {".kb": "kb", ".af": "af"}.get(suffix)
    if kind is None:
        return _usage(args, f"cannot infer input kind from {suffix!r}, pass --kind")
    universe = fw = None
    try:
        text = Path(args.input).read_text(encoding="utf-8")
        if kind == "af":
            for flag in ("defeat", "pref", "query"):
                if getattr(args, flag, None) is not None:
                    return _usage(args, f"--{flag} does not apply to abstract framework input")
            fw = parse_abstract_framework(text)
            if args.command in ("arguments", "accept", "coherence"):
                return _usage(args, f"the {args.command} subcommand needs a knowledge base")
        else:
            kb = parse_kb(text)
            if args.command == "accept" and args.query is None:
                return _usage(args, "the accept subcommand needs --query")
            query = None if args.query is None else parse_formula(args.query)
            universe = build_universe(kb, query, args.cap)
        if args.command == "check":
            check_cap((universe or fw).arguments, "arguments", args.cap)
        if universe is not None and args.command in ("extensions", "accept", "graph", "check"):
            pref = PreferenceRelation.none() if args.pref == "none" else None
            fw = build_framework(universe, args.defeat or "undercut", pref)
        return _COMMANDS[args.command](args, universe, fw)
    except CapExceededError as exc:
        sys.stderr.write(f"prefarg: error: {exc}\n")
        return 2
    except (PrefArgError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"prefarg: error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
