#!/usr/bin/env python3
"""Dead-link and dead-test check for the repository's Markdown docs.

    check_md_links.py [ROOT [GTEST_BINARY...]]

Scans every tracked *.md file for inline links and validates the relative
ones (external http(s)/mailto links and pure #anchors are skipped; an
anchor on a relative link is stripped before the existence check). With
test binaries given, a backticked `Suite.Case` or `Suite.*` in README.md
or docs/*.md must also name a test some binary lists under
--gtest_list_tests (ROADMAP.md and CHANGES.md are history and stay
unchecked). Exits nonzero listing every dead link and test, so CI fails
when a doc points at a file that moved or a test that is gone. Stdlib
only.
"""

import glob
import os
import re
import subprocess
import sys

# [text](target) — target captured up to the first unescaped ')'; images
# (![alt](target)) match the same pattern one character in.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {".git", "build", ".claude", ".bench_build"}
TEST_RE = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Z][A-Za-z0-9_]*|\*)`")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def listed_tests(binaries):
    """(suite, case) pairs the binaries list; parameter and instance
    prefixes (Inst/Suite.Case/0) are dropped."""
    tests = set()
    for binary in binaries:
        out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        suite = None
        for line in out.splitlines():
            if line.startswith("  ") and suite:
                tests.add((suite, line.split()[0].split("/")[0]))
            elif line.strip():
                name = line.split()[0].rstrip(".")
                suite = [p for p in name.split("/") if not p.isdigit()][-1]
    return tests


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    tests = listed_tests(sys.argv[2:])
    suites = {s for s, _ in tests}
    cited = {os.path.join(root, "README.md")} | set(
        glob.glob(os.path.join(root, "docs", "*.md")))
    dead = []
    checked = cites = 0
    for path in sorted(md_files(root)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            checked += 1
            if not os.path.exists(resolved):
                line = text[: match.start()].count("\n") + 1
                dead.append(f"{path}:{line}: dead link -> {match.group(1)}")
        if not tests or path not in cited:
            continue
        for match in TEST_RE.finditer(text):
            suite, case = match.groups()
            cites += 1
            if (suite, case) not in tests and \
                    not (case == "*" and suite in suites):
                line = text[: match.start()].count("\n") + 1
                dead.append(f"{path}:{line}: no test {suite}.{case}")
    for entry in dead:
        print(entry, file=sys.stderr)
    print(f"checked {checked} relative links and {cites} test citations, "
          f"{len(dead)} dead")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
