#!/usr/bin/env python3
"""Test driver for scripts/frugal_analyze (ctest label: analyze).

Seven suites:

1. Fixture TUs under tests/analyze/fixtures/: one known-bad snippet per
   check plus all-clean trees. Expected findings are written *in* the
   fixtures as `// EXPECT:<check-id>` markers on the exact line the
   diagnostic must anchor to; the driver asserts the analyzer's finding
   set equals the marker set (nothing missing, nothing extra) and that
   the eleven check ids are collectively covered. The `deep` /
   `deepclean` trees exercise the v2 call-graph summaries: transitive
   rank inversion, CV wait below a Spinlock section, publication
   pairing, and recursion cycles the fixpoint must survive.
2. Call-path notes: the deep findings must carry the full chain as
   `note:` continuation lines down to the bottom frame.
3. The LOCK_RANKS table in frugal_analyze.project cross-checked against
   the enumerators in src/common/lock_rank.h.
4. `--format=sarif` emits valid SARIF 2.1.0 with one result per finding.
5. `--checks atomics-relaxed` over files outside src/ given by path (how
   check.sh lints tests/, bench/ and examples/): a bad file fails, a
   clean one passes, two files sharing a basename are both analyzed,
   and a digit separator (`10'000`) hides nothing after it.
6. CLI surface: --explain and --list-checks.
7. Every HOT_FUNCTIONS entry in frugal_analyze.project still names a
   function in src/, matched as `hotpath-alloc` matches it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(TESTS))
SCRIPTS = os.path.join(REPO, "scripts")
FIXTURES = os.path.join(TESTS, "fixtures")
ANALYZER = os.path.join(SCRIPTS, "frugal_analyze")

sys.path.insert(0, SCRIPTS)

from frugal_analyze.checks import CHECK_IDS  # noqa: E402
from frugal_analyze.cli import collect_sources  # noqa: E402
from frugal_analyze.frontend_internal import parse_file  # noqa: E402
from frugal_analyze.project import HOT_FUNCTIONS, LOCK_RANKS  # noqa: E402

EXPECT_RE = re.compile(r"EXPECT:([\w-]+)")
DIAG_RE = re.compile(r"^(.*?):(\d+): ([\w-]+): ")

failures = []


def check(cond, label):
    print(f"  {'ok  ' if cond else 'FAIL'} {label}")
    if not cond:
        failures.append(label)


def expected_findings(root):
    """(src-relative path, line, check-id) triples from EXPECT markers."""
    out = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, text in enumerate(f, 1):
                    for m in EXPECT_RE.finditer(text):
                        out.add((rel, lineno, m.group(1)))
    return out


def run_analyzer(src_root, *extra):
    cmd = [sys.executable, ANALYZER, "--no-baseline",
           "--src-root", src_root, src_root, *extra]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_findings(stdout):
    out = set()
    for line in stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            out.add((m.group(1), int(m.group(2)), m.group(3)))
    return out


def test_fixtures():
    print("== fixture TUs ==")
    covered = set()
    for name, extra, want_exit in (
            ("layering", (), 1),
            ("bad", ("--hot", "FixtureHotLoop"), 1),
            ("clean", ("--hot", "FixtureHotLoop"), 0),
            ("deep", (), 1),
            ("deepclean", (), 0)):
        src = os.path.join(FIXTURES, name, "src")
        proc = run_analyzer(src, *extra)
        want = expected_findings(src)
        got = parse_findings(proc.stdout)
        covered |= {c for _, _, c in want}
        check(proc.returncode == want_exit,
              f"{name}: exit code {proc.returncode} == {want_exit}")
        check(got == want, f"{name}: findings == EXPECT markers "
                           f"({len(want)} expected)")
        for f in sorted(want - got):
            print(f"    missing: {f}")
        for f in sorted(got - want):
            print(f"    surplus: {f}")
    check(covered == set(CHECK_IDS),
          f"fixtures cover every check id ({', '.join(sorted(covered))})")


def test_deep_call_path():
    """The transitive findings must carry the full chain as notes."""
    print("== deep-chain call paths ==")
    proc = run_analyzer(os.path.join(FIXTURES, "deep", "src"))
    out = proc.stdout
    check("note: calls mid_.HopOne while holding row_lock_" in out,
          "lock-rank-deep head note names the held lock")
    for hop in ("note: at pq/deep_rank.h:42: calls mid_.HopTwo",
                "note: at pq/deep_rank.h:30: calls bottom_.AcquireEntry",
                "note: at pq/deep_rank.h:18: "
                "acquires entry_lock_ (LockRank::kGEntry)"):
        check(hop in out, f"lock-rank-deep trace hop: {hop[9:]}")
    check("3 frame(s) deep" in out,
          "lock-rank-deep reports the chain depth")
    check("note: at pq/deep_wait.h:14: cv-wait" in out,
          "spin-blocking trace bottoms out at the CV wait")
    check("note: at runtime/publish_pair.cc:39: load by 'SeqReader'"
          in out, "atomic-publish names the mispaired reader")


def test_sarif_output():
    print("== SARIF output ==")
    src = os.path.join(FIXTURES, "bad", "src")
    proc = run_analyzer(src, "--hot", "FixtureHotLoop",
                        "--format", "sarif")
    check(proc.returncode == 1, "sarif run keeps the exit code")
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        doc = None
    check(doc is not None, "sarif output parses as JSON")
    if doc is None:
        return
    check(doc.get("version") == "2.1.0", "sarif version 2.1.0")
    runs = doc.get("runs") or [{}]
    results = runs[0].get("results", [])
    want = expected_findings(src)
    check(len(results) == len(want),
          f"one sarif result per finding ({len(results)})")
    rules = {r["id"] for r in
             runs[0].get("tool", {}).get("driver", {}).get("rules", [])}
    check(set(CHECK_IDS) <= rules, "sarif rules table covers all checks")
    check(all(r.get("ruleId") in rules and
              r.get("partialFingerprints", {}).get("frugalAnalyzeKey/v1")
              for r in results),
          "results carry ruleIds and stable fingerprints")


def test_lock_ranks_in_sync():
    print("== LOCK_RANKS vs src/common/lock_rank.h ==")
    path = os.path.join(REPO, "src", "common", "lock_rank.h")
    with open(path, encoding="utf-8") as f:
        declared = dict(re.findall(r"(k\w+)\s*=\s*(\d+)", f.read()))
    for name, val in sorted(LOCK_RANKS.items()):
        check(declared.get(name) == str(val),
              f"LockRank::{name} == {val}")
    check(set(declared) == set(LOCK_RANKS),
          "no enumerator missing from either side")


def test_hot_functions_defined():
    """A HOT_FUNCTIONS entry that names no function guards nothing."""
    print("== HOT_FUNCTIONS vs src/ ==")
    src = os.path.join(REPO, "src")
    names = set()
    for rel, path in collect_sources([src], src, REPO).items():
        with open(path, encoding="utf-8") as f:
            for fn in parse_file(rel, f.read()).functions:
                names.update((fn.qualified(), fn.name))
    stale = [entry for entry in HOT_FUNCTIONS if entry not in names]
    check(not stale, f"every HOT_FUNCTIONS entry names a function in "
                     f"src/ ({len(HOT_FUNCTIONS)} entries)")
    for entry in stale:
        print(f"    stale: {entry}")


def run_relaxed(*paths):
    """The analyzer as check.sh runs it over tests/, bench/, examples/."""
    return subprocess.run([sys.executable, ANALYZER, "--no-baseline",
                           "--checks", "atomics-relaxed", *paths],
                          capture_output=True, text=True)


def repo_key(path):
    return os.path.relpath(path, REPO).replace(os.sep, "/")


def test_relaxed_outside_src():
    print("== atomics-relaxed over files outside src/ ==")
    bad = os.path.join(FIXTURES, "bad", "src", "pq",
                       "unjustified_relaxed.cc")
    proc = run_relaxed(bad)
    check(proc.returncode == 1, "unjustified relaxed load: exit 1")
    check(parse_findings(proc.stdout) ==
          {(repo_key(bad), 8, "atomics-relaxed")},
          "finding keyed by the repo-relative path")
    clean = os.path.join(FIXTURES, "clean", "src", "pq", "all_clean.cc")
    check(run_relaxed(clean).returncode == 0, "clean fixture: exit 0")

    tmp = tempfile.mkdtemp(prefix="frugal_analyze_outside_")
    try:
        def write(rel, text):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            return path

        def peek(order):
            return ("#include <atomic>\n"
                    "inline int Peek(const std::atomic<int> &v) "
                    f"{{ return v.load(std::memory_order_{order}); }}\n")

        # Files outside --src-root that share a basename stay distinct.
        pair = [write("a/util.h", peek("relaxed")),
                write("b/util.h", peek("acquire"))]
        want = {(repo_key(pair[0]), 2, "atomics-relaxed")}
        for label, paths in (("a b", pair), ("b a", pair[::-1])):
            proc = run_relaxed(*paths)
            check(proc.returncode == 1 and
                  parse_findings(proc.stdout) == want,
                  f"same-basename files, order {label}: a/util.h:2 "
                  f"reported")

        # A C++14 digit separator opens no char literal, so the lines
        # after it stay visible.
        sep = write("sep.cc", "constexpr int kLimit = 10'000;\n" +
                    peek("relaxed"))
        proc = run_relaxed(sep)
        check(parse_findings(proc.stdout) ==
              {(repo_key(sep), 3, "atomics-relaxed")},
              "relaxed load after a digit separator reported")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_cli_surface():
    print("== CLI surface ==")
    ex = subprocess.run([sys.executable, ANALYZER, "--explain",
                         "lock-rank"], capture_output=True, text=True)
    check(ex.returncode == 0 and "lock-rank" in ex.stdout,
          "--explain lock-rank")
    bogus = subprocess.run([sys.executable, ANALYZER, "--explain",
                            "bogus"], capture_output=True, text=True)
    check(bogus.returncode == 2, "--explain bogus exits 2 (usage)")
    ls = subprocess.run([sys.executable, ANALYZER, "--list-checks"],
                        capture_output=True, text=True)
    check(ls.returncode == 0 and
          all(cid in ls.stdout for cid in CHECK_IDS),
          "--list-checks names every check")


def main():
    test_fixtures()
    test_deep_call_path()
    test_lock_ranks_in_sync()
    test_hot_functions_defined()
    test_sarif_output()
    test_relaxed_outside_src()
    test_cli_surface()
    if failures:
        print(f"\n{len(failures)} analyze subtest(s) FAILED")
        return 1
    print("\nall analyze subtests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
