"""Command-line driver.

    python3 scripts/frugal_analyze [paths...]          # analyze src/
    python3 scripts/frugal_analyze --checks atomics-relaxed tests/x.cc
    python3 scripts/frugal_analyze --explain lock-rank
    python3 scripts/frugal_analyze --list-checks
    python3 scripts/frugal_analyze --format=sarif > findings.sarif

Exit codes: 0 clean (or suppressed-only), 1 unsuppressed diagnostics,
2 usage / infrastructure error. Info-severity diagnostics
(analyzer-ambiguous) print only with --verbose and never affect the
exit code or the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

from . import __version__
from .checks import CHECK_IDS, EXPLAIN, CheckConfig, run_checks
from .diagnostics import Baseline, Diagnostic
from .facts import ProjectFacts
from .frontend_internal import parse_file
from .project import HOT_FUNCTIONS
from .summaries import RESOLUTION_KINDS

SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frugal_analyze",
        description="Frugal's project-specific static analysis suite.")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze "
                         "(default: <src-root>)")
    ap.add_argument("--src-root", default=None,
                    help="root the module layout is resolved against "
                         "(default: <repo>/src)")
    ap.add_argument("--baseline", default=None,
                    help="suppression baseline file (default: "
                         "scripts/frugal_analyze/baseline.txt)")
    ap.add_argument("--no-baseline", action="store_true")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline with current findings")
    ap.add_argument("--hot", action="append", default=None,
                    metavar="NAME",
                    help="replace the hot-function list (repeatable)")
    ap.add_argument("--checks", default=None,
                    help="comma-separated subset of checks to run")
    ap.add_argument("--explain", metavar="CHECK-ID",
                    help="describe a check and how to fix/exempt it")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--format", choices=("text", "sarif"),
                    default="text",
                    help="findings output format (default text; sarif "
                         "emits a SARIF 2.1.0 document on stdout)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print info-severity diagnostics "
                         "(analyzer-ambiguous) and call-resolution "
                         "statistics")
    ap.add_argument("-q", "--quiet", action="store_true")
    ap.add_argument("--version", action="version",
                    version=f"frugal_analyze {__version__}")
    return ap


def collect_sources(paths: List[str], src_root: str,
                    repo: str) -> Dict[str, str]:
    """Returns {key: absolute path}. A file under `src_root` is keyed by
    its src-root-relative path (what the module checks resolve against);
    any other file by its path relative to `repo`, so two files that
    share a basename stay distinct."""
    out: Dict[str, str] = {}
    roots = paths or [src_root]
    for root in roots:
        root = os.path.abspath(root)
        if os.path.isfile(root):
            _add_source(out, root, src_root, repo)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    _add_source(out, os.path.join(dirpath, name),
                                src_root, repo)
    return out


def _add_source(out: Dict[str, str], abs_path: str, src_root: str,
                repo: str) -> None:
    rel = os.path.relpath(abs_path, src_root)
    if rel.startswith(".."):
        rel = os.path.relpath(abs_path, repo)
    out[rel.replace(os.sep, "/")] = abs_path


def _parse_sources(sources: Dict[str, str]) -> ProjectFacts:
    project = ProjectFacts()
    for rel, abs_path in sources.items():
        try:
            with open(abs_path, "rb") as f:
                content = f.read()
        except OSError as e:
            print(f"frugal_analyze: cannot read {abs_path}: {e}",
                  file=sys.stderr)
            continue
        project.files[rel] = parse_file(
            rel, content.decode("utf-8", errors="replace"))
    return project


def _sarif_doc(diags: List[Diagnostic]) -> dict:
    """SARIF 2.1.0 document over the given diagnostics."""
    rules = [{"id": cid,
              "shortDescription": {
                  "text": EXPLAIN[cid].splitlines()[0]},
              "fullDescription": {"text": EXPLAIN[cid]}}
             for cid in CHECK_IDS]
    results = []
    for d in diags:
        text = d.message
        if d.notes:
            text += "".join(f"\n  note: {n}" for n in d.notes)
        results.append({
            "ruleId": d.check,
            "level": "note" if d.severity == "info" else "error",
            "message": {"text": text},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": d.path},
                    "region": {"startLine": max(1, d.line)},
                },
            }],
            "partialFingerprints": {"frugalAnalyzeKey/v1": d.key()},
        })
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "frugal_analyze",
                                "version": __version__,
                                "informationUri":
                                    "DESIGN.md#11-static-analysis",
                                "rules": rules}},
            "results": results,
        }],
    }


def main(argv: List[str]) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid in CHECK_IDS:
            first = EXPLAIN[cid].splitlines()[0]
            print(f"  {cid:16} {first}")
        return 0
    if args.explain:
        if args.explain not in EXPLAIN:
            print(f"unknown check '{args.explain}'; known: "
                  f"{', '.join(CHECK_IDS)}", file=sys.stderr)
            return 2
        print(f"{args.explain}\n{'-' * len(args.explain)}")
        print(EXPLAIN[args.explain])
        return 0

    repo = _repo_root()
    src_root = os.path.abspath(args.src_root or
                               os.path.join(repo, "src"))
    baseline_path = args.baseline or os.path.join(
        repo, "scripts", "frugal_analyze", "baseline.txt")

    checks = tuple(c.strip() for c in args.checks.split(",")) \
        if args.checks else CHECK_IDS
    unknown = set(checks) - set(CHECK_IDS)
    if unknown:
        print(f"frugal_analyze: unknown checks: "
              f"{', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    sources = collect_sources(args.paths, src_root, repo)
    if not sources:
        print("frugal_analyze: no sources found", file=sys.stderr)
        return 2

    cfg = CheckConfig(hot=tuple(args.hot) if args.hot else HOT_FUNCTIONS,
                      checks=checks)
    stats: Dict[str, int] = {}
    diags = run_checks(_parse_sources(sources), cfg, stats_out=stats)
    errors = [d for d in diags if d.severity != "info"]
    infos = [d for d in diags if d.severity == "info"]

    if args.write_baseline:
        with open(baseline_path, "w", encoding="utf-8") as f:
            f.write("# frugal_analyze suppression baseline.\n"
                    "# One `path:check-id:token` per line; every entry "
                    "must carry a\n# justifying comment. The goal state "
                    "is an empty file.\n")
            for d in errors:
                f.write(d.key() + "\n")
        print(f"wrote {len(errors)} baseline entries to "
              f"{baseline_path}")
        return 0

    baseline = Baseline() if args.no_baseline \
        else Baseline.load(baseline_path)
    unsuppressed, suppressed, stale = baseline.split(errors)

    if args.format == "sarif":
        shown = unsuppressed + (infos if args.verbose else [])
        json.dump(_sarif_doc(shown), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for d in unsuppressed:
            print(d.render())
        if args.verbose:
            for d in infos:
                print(d.render())
    if stale and not args.quiet:
        for key in stale:
            print(f"frugal_analyze: stale baseline entry: {key}",
                  file=sys.stderr)
    if args.verbose:
        counts = " ".join(f"{k}={stats.get(k, 0)}"
                          for k in RESOLUTION_KINDS)
        print(f"frugal_analyze: call resolutions: {counts}",
              file=sys.stderr)
    if not args.quiet:
        msg = f"frugal_analyze: {len(unsuppressed)} finding(s)"
        if suppressed:
            msg += f", {len(suppressed)} baseline-suppressed"
        if infos and not args.verbose:
            msg += (f" ({len(infos)} ambiguous resolution(s); "
                    f"--verbose to list)")
        print(msg, file=sys.stderr)
    return 1 if unsuppressed else 0
