"""Command-line front end.

One verb per concept cluster:

    prefarg arguments  base.kb --query "p"      enumerate the universe
    prefarg extensions base.kb                  acceptance classes and extensions
    prefarg extensions graph.af --format json   same, from an abstract framework
    prefarg accept     base.kb --query "p"      verdict for one conclusion
    prefarg coherence  base.kb                  subbases and correspondence report
    prefarg graph      base.kb --query "p"      DOT attack graph
    prefarg check      graph.af                 run the invariant suite

The library returns report objects; this module alone shapes them into
JSON and text. extensions, accept, coherence and check each
build one JSON-ready report, which --format json prints and --format
text renders, reading nothing else. arguments prints Argument.describe()
lines (or the universe as JSON) and graph prints DOT.

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

from .arguments import DEFAULT_CAP, build_universe, check_cap
from .coherence import check_correspondence
from .errors import CapExceededError, PrefArgError
from .formulas import parse_formula, render
from .framework import _bits, build_framework, parse_abstract_framework
from .kb import parse_kb
from .semantics import evaluate, self_check


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


def _write(args, report: dict, view) -> None:
    """Print a command's one report: as JSON, or as the text lines view(report) renders."""
    if args.fmt == "json":
        _emit(_dumps(report))
    else:
        _emit("".join(line + "\n" for line in view(report)))


def cmd_arguments(args, universe, fw) -> int:
    if args.fmt == "json":
        _emit(_dumps([
            {
                "id": a.id,
                "support": [render(f) for f in a.support_formulas],
                "conclusion": render(a.conclusion),
                "level": a.level,
            }
            for a in universe.arguments
        ]))
    else:
        _emit("".join(a.describe() + "\n" for a in universe.arguments))
    return 0


# the report keys each --semantics family keeps besides the classes
_FAMILIES = {"grounded": ("grounded", "greatest_fixed_point"),
             "complete": ("complete", "unique_complete"), "stable": ("stable",)}


def _extension_lines(report: dict) -> list[str]:
    lines = [
        f"mode: {report['mode']}", f"capped: {'yes' if report['capped'] else 'no'}",
        f"class_r: {_ids(report['class_r'])}", f"class_r_pref: {_ids(report['class_r_pref'])}",
    ]
    if "grounded" in report:
        lines.append(f"grounded: {_ids(report['grounded'])} ({report['iterations']} iterations)")
        lines.append(f"greatest_fixed_point: {_ids(report['greatest_fixed_point'])}")
    if "complete" in report:
        lines.append(f"complete ({len(report['complete'])}):")
        lines += [f"  {_ids(e)}" for e in report["complete"]]
        lines.append(f"unique_complete: {'yes' if report['unique_complete'] else 'no'}")
    if "stable" in report:
        lines.append(f"stable ({len(report['stable'])}):")
        lines += [f"  {_ids(e)}" for e in report["stable"]]
    return lines


def cmd_extensions(args, universe, fw) -> int:
    ext = evaluate(fw, args.mode, args.cap)
    report = {
        "mode": ext.mode,
        "capped": ext.capped,
        "iterations": ext.iterations,
        "unique_complete": ext.unique_complete,
        "class_r": list(ext.class_r),
        "class_r_pref": list(ext.class_r_pref),
        "grounded": list(ext.grounded),
        "greatest_fixed_point": list(ext.greatest_fixed_point),
        "complete": [list(e) for e in ext.complete],
        "stable": [list(e) for e in ext.stable],
    }
    if args.semantics != "all":
        keep = ("mode", "capped", "iterations", "class_r", "class_r_pref") + _FAMILIES[args.semantics]
        report = {k: v for k, v in report.items() if k in keep}
    _write(args, report, _extension_lines)
    return 0


def _accept_lines(report: dict) -> list[str]:
    lines = [f"query: {report['query']}"]
    for r in report["arguments"]:
        marks = ", ".join(
            k.removeprefix("in_") for k in ("in_class_r", "in_class_r_pref", "in_grounded") if r[k]
        ) or "none"
        stable_note = f"{sum(r['in_stable'])}/{len(report['stable'])} stable"
        lines.append(f"{r['argument']}  [{marks}; {stable_note}]")
    if not report["arguments"]:
        lines.append("no argument concludes the query")
    lines.append(f"verdict: {'accepted' if report['accepted'] else 'not accepted'}")
    return lines


def cmd_accept(args, universe, fw) -> int:
    report = evaluate(fw, args.mode, args.cap)
    # Every conclusion is one of the candidate objects, so the query's own
    # candidate picks its rows; an equivalent candidate keeps its own.
    query = universe.candidates[universe.candidates.index(universe.query)]
    rows = [
        {
            "id": a.id,
            "argument": a.describe(),
            "in_class_r": a.id in report.class_r,
            "in_class_r_pref": a.id in report.class_r_pref,
            "in_grounded": a.id in report.grounded,
            "in_stable": [a.id in e for e in report.stable],
        }
        for a in universe.arguments if a.conclusion is query
    ]
    _write(args, {
        "query": render(universe.query),
        "accepted": any(r["in_grounded"] for r in rows),
        "credulous_stable": None if report.capped else any(any(r["in_stable"]) for r in rows),
        "capped": report.capped,
        "arguments": rows,
        "stable": [list(e) for e in report.stable],
    }, _accept_lines)
    return 0


def _ref(kb, ref) -> dict:
    return {"stratum": ref.stratum, "position": ref.position, "formula": render(kb.resolve(ref))}


def _part(kb, value):
    """A counterexample part as JSON: refs as formula text, id sets as sorted lists."""
    if isinstance(value, tuple):
        return [render(kb.resolve(r)) for r in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return sorted(sorted(ids) for ids in value)


def _correspondence(kb, report) -> dict:
    """The correspondence block of coherence and check: the verdict and every clause."""
    return {
        "ok": report.ok,
        "clauses": [
            {
                "name": c.name,
                "status": c.status,
                "detail": c.detail,
                "counterexample": c.counterexample and {
                    name: _part(kb, value) for name, value in c.counterexample.items()
                },
            }
            for c in report.clauses
        ],
    }


def _clause_line(clause: dict) -> str:
    return f"{clause['name']}: {clause['status']}  {clause['detail']}"


def _coherence_lines(report: dict) -> list[str]:
    lines = [f"subbases ({len(report['subbases'])}):"]
    for sb in report["subbases"]:
        lines.append("  {" + ", ".join(r["formula"] for r in sb) + "}")
    lines.append("intersection: {" + ", ".join(r["formula"] for r in report["intersection"]) + "}")
    for c in report["correspondence"]["clauses"]:
        lines.append(_clause_line(c))
        if c["counterexample"]:
            lines.append(f"  counterexample: {json.dumps(c['counterexample'])}")
    return lines


def cmd_coherence(args, universe, fw) -> int:
    report = check_correspondence(universe, args.cap)
    _write(args, {
        "subbases": [[_ref(universe.kb, r) for r in sb.refs] for sb in report.subbases],
        "intersection": [_ref(universe.kb, r) for r in sorted(report.intersection)],
        "correspondence": _correspondence(universe.kb, report),
    }, _coherence_lines)
    return 0


def cmd_graph(args, universe, fw) -> int:
    ids = fw.ids
    lines = ["digraph framework {", "  rankdir=LR;"]
    for a in fw.arguments:
        label = a.id if a.level is None else f"{a.id} @{a.level}"
        lines.append(f'  "{a.id}" [label="{label}"];')
    for i, (targets, kept) in enumerate(zip(fw.defeat_targets_mask, fw.attack_targets_mask)):
        for j in _bits(targets):
            style = "" if kept >> j & 1 else " [style=dashed]"
            lines.append(f'  "{ids[i]}" -> "{ids[j]}"{style};')
    lines.append("}")
    _emit("".join(line + "\n" for line in lines))
    return 0


def _check_lines(report: dict) -> list[str]:
    lines = [
        f"{r['name']}: {r['status']}" + (f"  {r['detail']}" if r["detail"] else "")
        for r in report["results"]
    ]
    fgf = report["fgf"]
    lines.append(
        f"interchange tally: {fgf['mismatches']}/{fgf['checked']} subsets, "
        f"{fgf['f_fixed_point_mismatches']} at f_step fixed points, "
        f"{fgf['g_fixed_point_mismatches']} at g_step fixed points"
    )
    if "correspondence" in report:
        lines += [_clause_line(c) for c in report["correspondence"]["clauses"]]
    lines.append("self_check: " + ("ok" if report["ok"] else "FAILED"))
    return lines


def cmd_check(args, universe, fw) -> int:
    """Run self_check, plus check_correspondence for a .kb; exit 3 on a failed law."""
    clauses = None if universe is None else check_correspondence(universe, args.cap)
    checks = self_check(fw)
    report = {
        "ok": checks.ok and (clauses is None or clauses.ok),
        "results": [
            {"name": r.name, "status": r.status, "detail": r.detail}
            for r in checks.results
        ],
        "fgf": {
            "checked": checks.fgf_checked,
            "mismatches": checks.fgf_mismatches,
            "f_fixed_point_mismatches": checks.fgf_f_fixed_point_mismatches,
            "g_fixed_point_mismatches": checks.fgf_g_fixed_point_mismatches,
        },
    }
    if clauses is not None:
        report["correspondence"] = _correspondence(universe.kb, clauses)
    _write(args, report, _check_lines)
    return 0 if report["ok"] else 3


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
            fw = build_framework(universe, args.defeat or "undercut", args.pref or "certainty")
        return _COMMANDS[args.command](args, universe, fw)
    except CapExceededError as exc:
        sys.stderr.write(f"prefarg: error: {exc}\n")
        return 2
    except (PrefArgError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"prefarg: error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
