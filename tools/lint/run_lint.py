#!/usr/bin/env python3
"""Repo-specific lint wall for the IPSO codebase.

Implements the repo's own rules in pure Python so they run in any
environment with a Python interpreter, and *drives* clang-tidy /
clang-query when those tools are present (they are not baked into the
dev container; CI installs them). The Python rules are therefore the
authoritative gate; the clang tools add AST-level precision on top.

Rules (all scoped to library code under src/ — tests, benches and
examples may use the banned constructs as assertions):

  expected-unchecked-value   no `.value()` on Expected/optional in src/;
                             branch on has_value() and surface a named
                             error instead (core/expected.h documents the
                             contract).
  raw-number-parse           std::stod/stof/atof/strtod only inside the
                             trace/ parsing layer (plus the checked Spark
                             event-log parser, allowlisted explicitly):
                             everything else must consume parsed values
                             through a domain-typed or Expected boundary.
  unseeded-rng               no rand()/srand()/std::random_device in the
                             simulator: sim runs must be reproducible from
                             the experiment seed alone.
  naked-double-model-param   no `double alpha|beta|gamma|delta|eta` in
                             parameter position in core/serve headers; use
                             the domain types (core/domain.h). Struct
                             fields stay double deliberately (wire/fit
                             compatibility) and do not match.
  nolint-audit               every NOLINT must name its check —
                             NOLINT(check-name) — and carry a trailing
                             justification; bare NOLINTs fail the wall.
  raw-socket-io              no raw ::send/::recv (or the msg/to variants)
                             outside src/serve/transport.cpp: every socket
                             byte moves through the audited transport seam
                             (short writes, EINTR, SIGPIPE handled once).
                             Scoped to src/, tools/ and bench/ — the CLI
                             and the load bench must consume serve::Client,
                             not sockets.
  raw-file-io                no raw file I/O (fopen/fwrite family, global
                             ::open/::pread/::pwrite/::fsync and friends)
                             outside src/store/io.cpp: durability ordering
                             (fsync-before-rename, EINTR, short writes) is
                             audited once, at the store's I/O seam. Console
                             stdio (printf/fputs) is not file I/O and does
                             not match; qualified names like
                             AppendFile::open don't either.
  naked-std-mutex            no raw std::mutex / std::shared_mutex /
                             std::condition_variable / std::lock_guard /
                             std::unique_lock (and friends) outside
                             src/core/sync.h: all locking goes through the
                             ipso::sync wrappers so clang Thread Safety
                             Analysis sees every acquisition. Unlike most
                             rules this one covers tests and benches too —
                             an unannotated mutex anywhere is invisible to
                             the analysis.
  guarded-by-audit           every ipso::sync::Mutex member in src/ must
                             guard at least one field (IPSO_GUARDED_BY /
                             IPSO_PT_GUARDED_BY naming it in the same
                             file) or carry an explicit
                             NOLINT(guarded-by-audit): reason on its
                             declaration line. A mutex that guards nothing
                             is either dead weight or undocumented
                             discipline; both deserve a sentence.

Usage:
  tools/lint/run_lint.py                 # run the Python rules
  tools/lint/run_lint.py --self-test     # prove every rule fires on the
                                         # seeded violations in selftest/
  tools/lint/run_lint.py --clang-tidy -p build    # + clang-tidy (cached)
  tools/lint/run_lint.py --clang-query -p build   # + clang-query rules

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SELFTEST = Path(__file__).resolve().parent / "selftest"


# --------------------------------------------------------------------------
# Source text preparation: rules must not fire on comments or string
# literals, so both are blanked (preserving line numbers) before matching.
# The nolint-audit rule is the exception — NOLINT lives *in* comments — and
# runs on the raw text.
# --------------------------------------------------------------------------

_COMMENT_OR_STRING = re.compile(
    r"""
      //[^\n]*                      # line comment
    | /\*.*?\*/                     # block comment
    | "(?:\\.|[^"\\\n])*"           # string literal
    | '(?:\\.|[^'\\\n])'            # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


def strip_comments_and_strings(text: str) -> str:
    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return _COMMENT_OR_STRING.sub(blank, text)


@dataclass
class Finding:
    rule: str
    path: Path
    line: int
    text: str

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO) if self.path.is_relative_to(REPO) \
            else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.text.strip()}"


@dataclass
class Rule:
    name: str
    pattern: re.Pattern
    include: list[str]              # glob patterns relative to the repo root
    exclude: list[str] = field(default_factory=list)
    raw_text: bool = False          # match before comment/string stripping
    why: str = ""

    def files(self) -> list[Path]:
        out: set[Path] = set()
        for pat in self.include:
            out.update(REPO.glob(pat))
        for pat in self.exclude:
            out.difference_update(REPO.glob(pat))
        return sorted(p for p in out if p.is_file()
                      and SELFTEST not in p.parents)

    def check_text(self, path: Path, text: str) -> list[Finding]:
        searchable = text if self.raw_text else strip_comments_and_strings(text)
        findings = []
        for m in self.pattern.finditer(searchable):
            line_no = searchable.count("\n", 0, m.start()) + 1
            line = text.splitlines()[line_no - 1] if text else ""
            findings.append(Finding(self.name, path, line_no, line))
        return findings

    def run(self) -> list[Finding]:
        findings = []
        for path in self.files():
            findings.extend(self.check_text(path, path.read_text()))
        return findings


# NOLINT audit: a suppression is acceptable only as NOLINT(check-name) (or
# NOLINTNEXTLINE(check-name)) followed by a ':' and justification text on
# the same line. Anything else — bare NOLINT, empty parens, no reason —
# fails. Implemented as a negative match: find NOLINT tokens NOT followed
# by "(<check>): <reason>".
_NOLINT_OK = re.compile(r"NOLINT(NEXTLINE)?\([a-zA-Z0-9.,_-]+\)\s*:\s*\S")
_NOLINT_ANY = re.compile(r"NOLINT\w*")


# Guarded-by audit: for every sync::Mutex *member* declaration,
# the same file must annotate at least one field IPSO_GUARDED_BY /
# IPSO_PT_GUARDED_BY with exactly that mutex name, or the declaration line
# must carry NOLINT(guarded-by-audit): reason (the nolint-audit rule then
# enforces that the reason is real). References (`sync::Mutex&` parameters)
# are not declarations and do not match.
class GuardedByAuditRule(Rule):
    def check_text(self, path: Path, text: str) -> list[Finding]:
        searchable = strip_comments_and_strings(text)
        raw_lines = text.splitlines()
        findings = []
        for m in self.pattern.finditer(searchable):
            name = m.group(1)
            guarded = re.compile(
                r"IPSO_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name)
                + r"\s*\)")
            if guarded.search(searchable):
                continue
            line_no = searchable.count("\n", 0, m.start()) + 1
            window = raw_lines[max(0, line_no - 2):line_no + 1]
            if any("NOLINT(guarded-by-audit):" in ln for ln in window):
                continue
            line = raw_lines[line_no - 1] if raw_lines else ""
            findings.append(Finding(self.name, path, line_no, line))
        return findings


class NolintAuditRule(Rule):
    def check_text(self, path: Path, text: str) -> list[Finding]:
        findings = []
        for i, line in enumerate(text.splitlines(), start=1):
            for m in _NOLINT_ANY.finditer(line):
                ok = _NOLINT_OK.match(line, m.start())
                if not ok:
                    findings.append(Finding(self.name, path, i, line))
        return findings


RULES: list[Rule] = [
    Rule(
        name="expected-unchecked-value",
        pattern=re.compile(r"\.value\(\)"),
        include=["src/**/*.cpp", "src/**/*.h"],
        why="branch on has_value() and return a named error in library code",
    ),
    Rule(
        name="raw-number-parse",
        pattern=re.compile(r"\bstd::sto[df]\b|\bstd::strto[df]\b"
                           r"|\batof\s*\(|\bstrtod\s*\("),
        include=["src/**/*.cpp", "src/**/*.h"],
        exclude=["src/trace/**/*", "src/spark/eventlog.cpp"],
        why="parse numbers only in trace/ (or the checked event-log parser)",
    ),
    Rule(
        name="unseeded-rng",
        pattern=re.compile(r"\brand\s*\(\s*\)|\bsrand\s*\("
                           r"|\bstd::random_device\b"),
        include=["src/sim/**/*.cpp", "src/sim/**/*.h"],
        why="sim results must be reproducible from the experiment seed",
    ),
    Rule(
        name="naked-double-model-param",
        pattern=re.compile(r"\bdouble\s+(alpha|beta|gamma|delta|eta)\s*[,)]"),
        include=["src/core/*.h", "src/serve/*.h"],
        why="use the domain types from core/domain.h in new signatures",
    ),
    Rule(
        name="raw-socket-io",
        pattern=re.compile(r"::\s*(send|recv)(to|from|msg)?\s*\("),
        include=["src/**/*.cpp", "src/**/*.h", "tools/*.cpp",
                 "bench/*.cpp"],
        exclude=["src/serve/transport.cpp"],
        why="socket I/O goes through the serve::net transport seam "
            "(transport.cpp is the one audited syscall site)",
    ),
    Rule(
        name="raw-file-io",
        # The lookbehind restricts ::open & co. to *global-scope* calls:
        # qualified names (AppendFile::open, DiskTier::open) must not match.
        pattern=re.compile(
            r"\b(fopen|fdopen|freopen|fwrite|fread)\s*\("
            r"|(?<![A-Za-z0-9_>])::\s*"
            r"(open|openat|creat|pread|pwrite|fsync|fdatasync|ftruncate)"
            r"\s*\("),
        include=["src/**/*.cpp", "src/**/*.h", "tools/*.cpp",
                 "bench/*.cpp"],
        exclude=["src/store/io.cpp"],
        why="file I/O goes through the store's io seam (io.cpp is the one "
            "audited site for fsync ordering, EINTR and short writes)",
    ),
    Rule(
        name="naked-std-mutex",
        pattern=re.compile(
            r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
            r"|shared_mutex|shared_timed_mutex|condition_variable"
            r"|condition_variable_any|lock_guard|unique_lock|shared_lock"
            r"|scoped_lock)\b"),
        include=["src/**/*.cpp", "src/**/*.h", "tests/*.cpp", "bench/*.cpp",
                 "examples/*.cpp", "tools/*.cpp"],
        exclude=["src/core/sync.h"],
        why="use the ipso::sync wrappers (core/sync.h) so clang thread "
            "safety analysis sees the acquisition; sync.h is the one "
            "audited site wrapping the std types",
    ),
    GuardedByAuditRule(
        name="guarded-by-audit",
        pattern=re.compile(r"(?:ipso::)?sync::Mutex\s+(\w+)"),
        include=["src/**/*.cpp", "src/**/*.h"],
        exclude=["src/core/sync.h"],
        why="a mutex member must guard at least one IPSO_GUARDED_BY field "
            "or justify itself with NOLINT(guarded-by-audit): reason",
    ),
    NolintAuditRule(
        name="nolint-audit",
        pattern=_NOLINT_ANY,
        include=["src/**/*.cpp", "src/**/*.h", "tests/*.cpp",
                 "bench/*.cpp", "examples/*.cpp", "tools/*.cpp"],
        raw_text=True,
        why="suppressions must name the check and justify themselves",
    ),
]


def run_python_rules() -> int:
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.run())
    for f in findings:
        print(f)
    if findings:
        print(f"run_lint: {len(findings)} finding(s)")
        return 1
    print(f"run_lint: clean ({len(RULES)} rules)")
    return 0


# --------------------------------------------------------------------------
# Self-test: every rule must fire on its seeded violation file, and the
# out-of-domain constexpr literal must actually fail to compile (and
# compile again under -DIPSO_CONTRACTS_OFF). A lint wall that cannot
# demonstrate its own failure mode is indistinguishable from one that
# matches nothing.
# --------------------------------------------------------------------------

SEEDED = {
    "expected-unchecked-value": "unchecked_value.cpp",
    "raw-number-parse": "raw_parse.cpp",
    "unseeded-rng": "unseeded_rng.cpp",
    "naked-double-model-param": "naked_double.h",
    "raw-socket-io": "raw_socket.cpp",
    "raw-file-io": "raw_file.cpp",
    "nolint-audit": "bare_nolint.cpp",
    "naked-std-mutex": "naked_std_mutex.cpp",
    "guarded-by-audit": "unguarded_mutex.cpp",
}

# Thread-safety flags the CI leg builds the whole tree with; the self-test
# proves they reject the seeded violations on a single TU.
TSA_FLAGS = ["-Wthread-safety", "-Wthread-safety-beta", "-Werror"]


def self_test() -> int:
    failures = 0
    by_name = {r.name: r for r in RULES}
    for name, filename in SEEDED.items():
        path = SELFTEST / filename
        rule = by_name[name]
        hits = rule.check_text(path, path.read_text())
        status = "fires" if hits else "DOES NOT FIRE"
        print(f"self-test: {name} on selftest/{filename}: {status} "
              f"({len(hits)} hit(s))")
        if not hits:
            failures += 1

    # Negative control: a compliant NOLINT must NOT trip the audit.
    audit = by_name["nolint-audit"]
    ok_line = "x = 1; // NOLINT(bugprone-foo): justified because reasons\n"
    if audit.check_text(SELFTEST / "inline", ok_line):
        print("self-test: nolint-audit FALSELY fires on a justified NOLINT")
        failures += 1

    # Negative control: a mutex member with a guarded field, and one with a
    # justified NOLINT, must NOT trip the guarded-by audit.
    guard_rule = by_name["guarded-by-audit"]
    ok_member = (
        "class C {\n"
        "  sync::Mutex mu_;\n"
        "  int x_ IPSO_GUARDED_BY(mu_);\n"
        "  sync::Mutex order_mu_;  "
        "// NOLINT(guarded-by-audit): ordering-only lock\n"
        "  void f(sync::Mutex& ref);\n"  # reference param: not a member
        "};\n")
    if guard_rule.check_text(SELFTEST / "inline", ok_member):
        print("self-test: guarded-by-audit FALSELY fires on a guarded or "
              "justified mutex member")
        failures += 1

    # The thread-safety seeds must compile cleanly WITHOUT the analysis
    # flags on any compiler (the gcc no-op macro path), and clang with
    # -Wthread-safety* -Werror must reject both: the unguarded write and
    # the lock-order inversion. clang is not in every dev container; the
    # static rejection is then CI's job and we say so instead of failing.
    tsa_seeds = ["tsa_unguarded_write.cpp", "tsa_lock_order.cpp"]
    base_flags = ["-std=c++20", "-fsyntax-only", f"-I{REPO / 'src'}"]
    anycxx = shutil.which("g++") or shutil.which("clang++") \
        or shutil.which("c++")
    if anycxx:
        for seed in tsa_seeds:
            r = subprocess.run([anycxx] + base_flags + [str(SELFTEST / seed)],
                               capture_output=True, text=True)
            ok = r.returncode == 0
            print(f"self-test: {seed} no-op-macro compile: "
                  f"{'accepted' if ok else 'REJECTED (BUG)'}")
            if not ok:
                print(r.stderr, file=sys.stderr)
                failures += 1
    clangxx = shutil.which("clang++")
    if clangxx:
        for seed in tsa_seeds:
            r = subprocess.run(
                [clangxx] + base_flags + TSA_FLAGS + [str(SELFTEST / seed)],
                capture_output=True, text=True)
            rejected = r.returncode != 0
            print(f"self-test: {seed} -Wthread-safety compile: "
                  f"{'rejected' if rejected else 'ACCEPTED (BUG)'}")
            if not rejected:
                failures += 1
    else:
        print("self-test: clang++ not on PATH; skipping the thread-safety "
              "rejection check (the CI thread-safety leg enforces it)")

    # Compile-time rejection of out-of-domain literals: the seeded file must
    # fail to compile with contracts enabled and succeed with them off.
    gxx = shutil.which("g++") or shutil.which("c++")
    if gxx:
        src = SELFTEST / "out_of_domain_literal.cpp"
        base = [gxx, "-std=c++20", "-fsyntax-only", f"-I{REPO / 'src'}",
                str(src)]
        on = subprocess.run(base, capture_output=True, text=True)
        off = subprocess.run(base + ["-DIPSO_CONTRACTS_OFF"],
                             capture_output=True, text=True)
        print(f"self-test: constexpr Delta{{1.5}} contracts-ON compile: "
              f"{'rejected' if on.returncode != 0 else 'ACCEPTED (BUG)'}")
        print(f"self-test: constexpr Delta{{1.5}} contracts-OFF compile: "
              f"{'accepted' if off.returncode == 0 else 'REJECTED (BUG)'}")
        if on.returncode == 0 or off.returncode != 0:
            failures += 1
    else:
        print("self-test: no C++ compiler found; skipping the constexpr "
              "rejection check")

    if failures:
        print(f"self-test: {failures} FAILURE(S)")
        return 1
    print("self-test: all rules demonstrate their failure mode")
    return 0


# --------------------------------------------------------------------------
# clang tooling drivers. Both gate on availability: the dev container does
# not ship clang, so absence is a skip (exit 0 with a notice), not a
# failure — CI installs the tools and gets the full wall.
# --------------------------------------------------------------------------

def compile_db_sources(build_dir: Path) -> list[Path]:
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        return []
    entries = json.loads(db.read_text())
    out = []
    for e in entries:
        p = Path(e["file"])
        if not p.is_absolute():
            p = Path(e["directory"]) / p
        p = p.resolve()
        # Wall library code only; third-party and generated files stay out.
        if (REPO / "src") in p.parents and p.suffix == ".cpp":
            out.append(p)
    return sorted(set(out))


def tidy_cache_key(tidy: str, path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(REPO / ".clang-tidy").read_bytes())
    h.update(tidy.encode())            # tool path stands in for its version
    h.update(path.read_bytes())
    # Headers are the common invalidation source; hash the ones this TU
    # plausibly includes (cheap over-approximation: every repo header).
    for hdr in sorted((REPO / "src").rglob("*.h")):
        h.update(hdr.read_bytes())
    return h.hexdigest()


def run_clang_tidy(build_dir: Path) -> int:
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("run_lint: clang-tidy not on PATH; skipping (declarative "
              "config in .clang-tidy still applies in CI)")
        return 0
    sources = compile_db_sources(build_dir)
    if not sources:
        print(f"run_lint: no compile_commands.json under {build_dir}; "
              "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON")
        return 2
    cache_path = build_dir / ".tidy_cache.json"
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    failures = 0
    for src in sources:
        key = tidy_cache_key(tidy, src)
        if cache.get(str(src)) == key:
            continue
        r = subprocess.run([tidy, "-p", str(build_dir), "--quiet", str(src)],
                           capture_output=True, text=True)
        if r.returncode != 0:
            print(r.stdout)
            print(r.stderr, file=sys.stderr)
            failures += 1
        else:
            cache[str(src)] = key      # only clean results are cached
    cache_path.write_text(json.dumps(cache))
    if failures:
        print(f"run_lint: clang-tidy: {failures} file(s) with findings")
        return 1
    print(f"run_lint: clang-tidy clean ({len(sources)} files)")
    return 0


def run_clang_query(build_dir: Path) -> int:
    query = shutil.which("clang-query")
    if query is None:
        print("run_lint: clang-query not on PATH; skipping (the Python "
              "rules above cover the same invariants textually)")
        return 0
    sources = compile_db_sources(build_dir)
    if not sources:
        print(f"run_lint: no compile_commands.json under {build_dir}")
        return 2
    failures = 0
    for rule_file in sorted((Path(__file__).parent / "rules").glob("*.query")):
        r = subprocess.run(
            [query, "-f", str(rule_file), "-p", str(build_dir)]
            + [str(s) for s in sources],
            capture_output=True, text=True)
        # clang-query reports "N matches." per file; any match is a finding.
        matches = sum(int(m) for m in
                      re.findall(r"^(\d+) matches?\.$", r.stdout, re.M))
        if matches:
            print(r.stdout)
            print(f"run_lint: {rule_file.name}: {matches} match(es)")
            failures += 1
    if failures:
        return 1
    print("run_lint: clang-query clean")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on the seeded violations")
    ap.add_argument("--clang-tidy", action="store_true",
                    help="also run clang-tidy over the compilation database")
    ap.add_argument("--clang-query", action="store_true",
                    help="also run the clang-query rules")
    ap.add_argument("-p", "--build-dir", type=Path, default=REPO / "build",
                    help="build dir holding compile_commands.json")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    status = run_python_rules()
    if args.clang_tidy:
        status = max(status, run_clang_tidy(args.build_dir))
    if args.clang_query:
        status = max(status, run_clang_query(args.build_dir))
    return status


if __name__ == "__main__":
    sys.exit(main())
