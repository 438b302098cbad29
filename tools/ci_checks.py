#!/usr/bin/env python3
"""Unified entry point for the repo's scripted CI checks.

One command — `python3 tools/ci_checks.py --all` — runs every check that
applies, so CI jobs and local pre-push runs can't drift apart by each
wiring up a different subset. Individual checks stay standalone scripts
with their own CLIs (this wrapper shells out to them); pass check names
to run a subset.

Checks:
  determinism-lint           tools/lint_determinism.py over src/
  determinism-lint-selftest  the lint's own fixture unit tests
  workspace-clean            `git status --porcelain` is empty
  bench-schema               tools/check_bench_schema.py; repeat
                             --bench-json PATH to validate several
                             BENCH_serving.json files in one run
  loopback-smoke             tools/loopback_smoke.py against the daemon
                             binary given via --er-served (it also runs
                             tools/check_metrics_export.py on the
                             daemon's final metrics dump)

With --all, artifact-dependent checks (bench-schema, loopback-smoke) are
skipped with a note when their input path was not given; naming a check
explicitly makes its inputs required. Exit 0 = all ran checks passed,
1 = at least one failed, 2 = usage error.
"""
import argparse
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent

CHECKS = ["determinism-lint", "determinism-lint-selftest",
          "workspace-clean", "bench-schema", "loopback-smoke"]


def usage_error(message):
    print(f"ci_checks: {message}", file=sys.stderr)
    sys.exit(2)


def build_commands(name, args):
    """-> (list of argv, skip_reason). Empty list + reason when inputs are
    absent; raises SystemExit(2) when an explicitly requested check lacks
    them."""
    if name == "determinism-lint":
        return ([[sys.executable, str(TOOLS / "lint_determinism.py"),
                  "--root", str(ROOT)]], None)
    if name == "determinism-lint-selftest":
        return ([[sys.executable, str(TOOLS / "test_lint_determinism.py")]],
                None)
    if name == "workspace-clean":
        return ([["git", "-C", str(ROOT), "status", "--porcelain"]], None)
    if name == "bench-schema":
        if not args.bench_json:
            if args.explicit:
                usage_error("bench-schema needs --bench-json")
            return ([], "no --bench-json given")
        return ([[sys.executable, str(TOOLS / "check_bench_schema.py"), path]
                 for path in args.bench_json], None)
    if name == "loopback-smoke":
        if not args.er_served:
            if args.explicit:
                usage_error("loopback-smoke needs --er-served")
            return ([], "no --er-served given")
        return ([[sys.executable, str(TOOLS / "loopback_smoke.py"),
                  args.er_served]], None)
    raise AssertionError(name)


def run_check(name, args):
    argvs, skip_reason = build_commands(name, args)
    if not argvs:
        print(f"  SKIP {name}: {skip_reason}")
        return None
    check_ok = True
    for argv in argvs:
        proc = subprocess.run(argv, capture_output=True, text=True)
        failed = proc.returncode != 0
        if name == "workspace-clean" and proc.stdout.strip():
            # porcelain output means a dirty tree even though git exits 0.
            failed = True
        if failed:
            check_ok = False
            for stream in (proc.stdout, proc.stderr):
                if stream.strip():
                    sys.stderr.write(stream if stream.endswith("\n")
                                     else stream + "\n")
    print(f"  {'PASS' if check_ok else 'FAIL'} {name}"
          + (f" ({len(argvs)} artifacts)" if len(argvs) > 1 else ""))
    return check_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="run the repo's scripted CI checks")
    ap.add_argument("checks", nargs="*", metavar="check",
                    help=f"checks to run: {', '.join(CHECKS)} "
                         "(default with --all: every applicable one)")
    ap.add_argument("--all", action="store_true",
                    help="run every check whose inputs are available")
    ap.add_argument("--bench-json", action="append",
                    help="BENCH_serving.json path (bench-schema); "
                    "repeatable")
    ap.add_argument("--er-served", help="er_served binary path "
                    "(loopback-smoke)")
    args = ap.parse_args(argv)

    if args.all and args.checks:
        ap.error("give either --all or explicit check names, not both")
    if not args.all and not args.checks:
        ap.error("nothing to do: pass --all or check names")
    unknown = [c for c in args.checks if c not in CHECKS]
    if unknown:
        ap.error(f"unknown check(s) {unknown}; choose from {CHECKS}")
    args.explicit = bool(args.checks)
    selected = args.checks or CHECKS

    print(f"ci_checks: running {len(selected)} check(s)")
    results = {name: run_check(name, args) for name in selected}
    failed = [n for n, ok in results.items() if ok is False]
    ran = sum(1 for ok in results.values() if ok is not None)
    skipped = len(selected) - ran
    verdict = "FAILED" if failed else "OK"
    print(f"ci_checks: {ran} ran, {skipped} skipped, "
          f"{len(failed)} failed — {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
