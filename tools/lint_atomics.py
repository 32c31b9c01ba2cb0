#!/usr/bin/env python3
"""Atomics-protocol lint: every lock-free primitive in src/ must be
inventoried, tagged with the protocol it implements, and mirrored in the
DESIGN.md section 10 protocol table — the atomics twin of the section 5c
lock-hierarchy table.

What it checks
--------------

1. TAG COVERAGE.  Every `std::atomic<...>` declaration (and every
   policy-templated `Atomic<...>` member in spsc_ring.hpp) must carry a
   machine-readable tag on the line directly above it:

       // atomic-protocol: kind=<kind> pairs=<site>

   <kind> names the protocol from the closed taxonomy below; <site>
   names the code location(s) the operation pairs with (the reader of a
   publication, the scraper of a counter, the other half of a Dekker
   handshake).  An untagged atomic is an error: if the author cannot say
   what protocol it implements, it does not belong in the tree.

       publication    release store / acquire load handoff of a data block
       counter        relaxed monotonic accumulator; read by a scraper
       gauge          relaxed last-write-wins (or CAS-max) level value
       flag           one-way or settable boolean; pairs with a predicate
       spsc-index     SPSC ring head/tail index (release/acquire pair)
       dekker-waiters waiter registration half of a Dekker sleep/wake
       config         rarely-written tuning knob, relaxed read on hot path

2. RAW-PRIMITIVE BAN.  `std::mutex`, `std::condition_variable`,
   `std::thread`, and raw `std::atomic_thread_fence` are forbidden
   outside the explicit allowlist (the util/ wrappers that exist
   precisely so everything else goes through an annotated or
   inventoried type).  Use util::Mutex / util::CondVar / util::Thread.

3. EXPLICIT ORDERING.  Every atomic member-function op must spell out
   its std::memory_order; `++`/`--`/compound-assignment/plain `=` on an
   inventoried atomic are flagged (they are implicit seq_cst and
   invisible to grep-based ordering review).

4. TABLE PARITY.  The inventory (file, variable, kind, pairs) and the
   named fence sites must exactly match the DESIGN.md section 10 table.
   Run `tools/lint_atomics.py --dump-table` to regenerate the table
   after an intentional change.

compile_commands.json (from any CMake configure) drives TU discovery so
a .cpp dropped from the build cannot silently escape; all src/ headers
are scanned unconditionally.  src/util/mc/ (the model checker's own
shims) and src/util/atomics_policy.hpp (the indirection layer the
checker swaps) are exempt from tagging — they implement the machinery,
not a protocol.

Run from anywhere:  python3 tools/lint_atomics.py [--repo DIR]
Exit code 0 = clean, 1 = protocol violation (details printed),
2 = setup/extraction failure (missing compdb, unparseable table).

--self-test seeds one violation of every class through the same code
paths and fails loudly if any goes undetected — the lint proves its own
non-vacuity on every CI run, like the model checker's mutation mode.
"""

import argparse
import json
import os
import re
import sys

FAIL_VIOLATION = 1
FAIL_SETUP = 2

KINDS = {
    "publication",
    "counter",
    "gauge",
    "flag",
    "spsc-index",
    "dekker-waiters",
    "config",
}

# Files implementing the concurrency machinery itself; their atomics are
# the shims every protocol is built from, not protocol instances.
EXEMPT_PREFIXES = ("src/util/mc/",)
EXEMPT_FILES = {"src/util/atomics_policy.hpp"}

# The only files allowed to name raw standard threading primitives.
# Everything else must use the util/ wrappers so locks are annotated
# (thread-safety analysis + lockdep) and threads are kernel-named.
RAW_ALLOWLIST = {
    "src/util/thread_annotations.hpp",  # util::Mutex/CondVar wrap the raw types
    "src/util/lockdep.cpp",             # deliberately-raw mutex (no recursion)
    "src/util/thread.hpp",              # util::Thread wraps std::thread
    "src/util/cpu.cpp",                 # std::thread::hardware_concurrency()
}

RAW_PATTERNS = [
    (re.compile(r"\bstd::mutex\b"), "std::mutex (use util::Mutex)"),
    (re.compile(r"\bstd::recursive_mutex\b"), "std::recursive_mutex"),
    (re.compile(r"\bstd::shared_mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::condition_variable\b"),
     "std::condition_variable (use util::CondVar)"),
    (re.compile(r"\bstd::thread\b"), "std::thread (use util::Thread)"),
    (re.compile(r"\bstd::atomic_thread_fence\b"),
     "std::atomic_thread_fence (use the atomics-policy fence hook)"),
]

ATOMIC_DECL_RE = re.compile(
    r"(?:\bstd::atomic<|\bP::template Atomic<|\btemplate Atomic<)")
TAG_RE = re.compile(
    r"//\s*atomic-protocol:\s*kind=([A-Za-z0-9_-]+)\s+pairs=(\S+)")
# Last identifier before an optional brace-init and the terminating ';'.
DECL_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\{[^{}]*\})?\s*;")
OP_RE = re.compile(
    r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
FENCE_SITE_RE = re.compile(r'P::fence\(\s*std::memory_order_\w+,\s*"([^"]+)"')


class Lint:
    def __init__(self):
        self.errors = []
        self.inventory = []   # (relpath, name, kind, pairs)
        self.fence_sites = []  # (relpath, site)

    def error(self, relpath, lineno, msg):
        self.errors.append(f"{relpath}:{lineno}: {msg}")


def strip_comment(line):
    """Code portion of a physical line (string-literal '//' is not used
    anywhere in src/ in a way that matters to these patterns)."""
    i = line.find("//")
    return line if i < 0 else line[:i]


def is_exempt(relpath):
    return relpath in EXEMPT_FILES or any(
        relpath.startswith(p) for p in EXEMPT_PREFIXES)


def scan_file(lint, relpath, text):
    lines = text.split("\n")
    atomic_names = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        lineno = i + 1

        # -- raw-primitive ban ------------------------------------------
        if relpath not in RAW_ALLOWLIST and not is_exempt(relpath):
            for pat, what in RAW_PATTERNS:
                if pat.search(code):
                    lint.error(relpath, lineno, f"raw {what} is forbidden "
                               "outside the util/ wrappers")

        # -- fence sites ------------------------------------------------
        m = FENCE_SITE_RE.search(code)
        if m and not is_exempt(relpath):
            lint.fence_sites.append((relpath, m.group(1)))

        # -- declaration inventory + tag requirement --------------------
        dm = ATOMIC_DECL_RE.search(code)
        if dm and not is_exempt(relpath):
            if re.search(r"\busing\s+\w+\s*=", code):
                continue  # policy alias, not a declaration
            if "(" in code[:dm.start()]:
                continue  # function parameter, not a member declaration
            # Join continuation lines until the statement terminates.
            stmt, j = code, i
            while ";" not in stmt and j + 1 < len(lines):
                j += 1
                stmt += " " + strip_comment(lines[j])
            nm = DECL_NAME_RE.search(stmt)
            name = nm.group(1) if nm else "<unparsed>"
            tag = TAG_RE.search(lines[i - 1]) if i > 0 else None
            if not tag:
                lint.error(relpath, lineno,
                           f"std::atomic '{name}' has no atomic-protocol "
                           "tag on the preceding line")
                continue
            kind, pairs = tag.group(1), tag.group(2)
            if kind not in KINDS:
                lint.error(relpath, lineno,
                           f"unknown protocol kind '{kind}' for '{name}' "
                           f"(taxonomy: {', '.join(sorted(KINDS))})")
            lint.inventory.append((relpath, name, kind, pairs))
            atomic_names.append(name)

    # -- explicit-ordering checks (second pass: statement-joined) -------
    if is_exempt(relpath):
        return
    joined = []  # (start_lineno, stmt) with comments stripped
    buf, start = "", 0
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if not buf:
            start = i + 1
        buf += code + " "
        if ";" in code or "{" in code or "}" in code:
            joined.append((start, buf))
            buf = ""
    if buf:
        joined.append((start, buf))

    for start, stmt in joined:
        for m in OP_RE.finditer(stmt):
            args = _call_args(stmt, m.end() - 1)
            op = m.group(1)
            if args is None:
                continue  # spans a statement boundary; next TU pass sees it
            if "memory_order" not in args:
                lint.error(relpath, start,
                           f".{op}() without an explicit std::memory_order "
                           "(implicit seq_cst)")
    return atomic_names


def _call_args(stmt, open_paren):
    """Text between a '(' at open_paren and its matching ')'."""
    depth = 0
    for k in range(open_paren, len(stmt)):
        if stmt[k] == "(":
            depth += 1
        elif stmt[k] == ")":
            depth -= 1
            if depth == 0:
                return stmt[open_paren + 1:k]
    return None


def scan_operator_forms(lint, module_files, atomic_names_by_file):
    """Flags ++/--/compound-assign/plain = on inventoried atomics.

    Scoped to the declaring file (the only place the name is
    unambiguously the atomic): a same-named plain member in another
    file — a Snapshot struct mirroring its shard's counter names —
    cannot false-positive.  Member access on a different object
    (`out.count += ...`) and typed declarations (`int count = 0;`) are
    likewise skipped."""
    for relpath, names in atomic_names_by_file.items():
        if is_exempt(relpath) or not names:
            continue
        pat = re.compile(
            r"(^|.)\s*\b(" + "|".join(re.escape(n) for n in sorted(set(names)))
            + r")\s*(\+\+|--|[-+|&^]=|=[^=])")
        for i, raw in enumerate(module_files[relpath].split("\n")):
            code = strip_comment(raw)
            if ATOMIC_DECL_RE.search(code):
                continue  # the declaration's own brace-init
            for m in pat.finditer(code):
                before = code[:m.start(2)].rstrip()
                if before.endswith(".") or before.endswith("->"):
                    continue  # a member of some other object
                if re.search(r"[\w>\]]$", before):
                    continue  # typed declaration of a same-named plain var
                lint.error(relpath, i + 1,
                           f"operator form '{m.group(3).strip()}' on atomic "
                           f"'{m.group(2)}' is implicit seq_cst; use an "
                           "explicit-order member function")


# --------------------------------------------------------------------------
# DESIGN.md section 10 table parity.

TABLE_ROW_RE = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*`([^`]+)`\s*\|\s*([a-z-]+)\s*\|\s*`([^`]+)`\s*\|")
FENCE_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*`([^`]+)`\s*\|[^|]*\|\s*$")


def parse_design_table(design_text):
    """Extracts (atomics rows, fence rows) from the section 10 tables."""
    m = re.search(r"^## 10\. .*$", design_text, re.M)
    if not m:
        return None, None
    end = re.search(r"^## 11\. ", design_text[m.end():], re.M)
    section = design_text[m.end():m.end() + end.start()] if end \
        else design_text[m.end():]
    atomics, fences = [], []
    for line in section.split("\n"):
        am = TABLE_ROW_RE.match(line)
        if am:
            atomics.append((am.group(1), am.group(2), am.group(3),
                            am.group(4)))
            continue
        fm = FENCE_ROW_RE.match(line)
        if fm:
            fences.append((fm.group(1), fm.group(2)))
    return atomics, fences


def dump_table(lint):
    print("| File | Variable | Kind | Pairs with |")
    print("| --- | --- | --- | --- |")
    for relpath, name, kind, pairs in sorted(lint.inventory):
        print(f"| `{relpath}` | `{name}` | {kind} | `{pairs}` |")
    print()
    print("| File | Fence site | Order |")
    print("| --- | --- | --- |")
    for relpath, site in sorted(set(lint.fence_sites)):
        print(f"| `{relpath}` | `{site}` | seq_cst |")


def check_table(lint, design_text):
    table, fence_table = parse_design_table(design_text)
    if table is None:
        lint.errors.append(
            "DESIGN.md: no '## 10.' section found for the protocol table")
        return
    want = sorted(set(lint.inventory))
    got = sorted(set(table))
    if want != got:
        missing = [r for r in want if r not in got]
        stale = [r for r in got if r not in want]
        for r in missing:
            lint.errors.append(
                f"DESIGN.md section 10 table is missing {r[0]}:{r[1]} "
                f"(kind={r[2]} pairs={r[3]}) — run --dump-table")
        for r in stale:
            lint.errors.append(
                f"DESIGN.md section 10 table has stale row {r[0]}:{r[1]} "
                f"(kind={r[2]}) — run --dump-table")
    want_f = sorted(set(lint.fence_sites))
    got_f = sorted(set(fence_table or []))
    if want_f != got_f:
        lint.errors.append(
            f"DESIGN.md section 10 fence table mismatch: code has {want_f}, "
            f"table has {got_f} — run --dump-table")


# --------------------------------------------------------------------------
# File discovery.

def discover_files(repo, compdb_path):
    """src/ TUs from compile_commands.json + every src/ header on disk."""
    if not os.path.exists(compdb_path):
        print(f"lint_atomics: SETUP FAILURE: {compdb_path} not found; "
              "configure cmake first (cmake -B build -S .)", file=sys.stderr)
        sys.exit(FAIL_SETUP)
    with open(compdb_path, encoding="utf-8") as f:
        compdb = json.load(f)
    files = {}
    compdb_cpps = set()
    for entry in compdb:
        ap = os.path.abspath(os.path.join(entry.get("directory", ""),
                                          entry["file"]))
        rel = os.path.relpath(ap, repo)
        if rel.startswith("src" + os.sep):
            compdb_cpps.add(rel)
    on_disk_cpps = set()
    for root, _dirs, names in os.walk(os.path.join(repo, "src")):
        for n in names:
            rel = os.path.relpath(os.path.join(root, n), repo)
            if n.endswith(".hpp"):
                files[rel] = None
            elif n.endswith(".cpp"):
                on_disk_cpps.add(rel)
    escaped = on_disk_cpps - compdb_cpps
    if escaped:
        print("lint_atomics: SETUP FAILURE: src/ TUs absent from "
              f"compile_commands.json (dropped from the build?): "
              f"{sorted(escaped)}", file=sys.stderr)
        sys.exit(FAIL_SETUP)
    for rel in on_disk_cpps:
        files[rel] = None
    for rel in files:
        with open(os.path.join(repo, rel), encoding="utf-8") as f:
            files[rel] = f.read()
    return files


def run(files, design_text):
    lint = Lint()
    atomic_names_by_file = {}
    for relpath in sorted(files):
        names = scan_file(lint, relpath, files[relpath])
        if names:
            atomic_names_by_file[relpath] = names
    scan_operator_forms(lint, files, atomic_names_by_file)
    if design_text is not None:
        check_table(lint, design_text)
    return lint


# --------------------------------------------------------------------------
# Self-test: seed one violation of every class and require detection.

SELF_TEST_CASES = [
    ("untagged atomic",
     {"src/fake/a.hpp": "class X {\n  std::atomic<int> v_{0};\n};\n"},
     "no atomic-protocol tag"),
    ("unknown kind",
     {"src/fake/a.hpp":
      "// atomic-protocol: kind=vibes pairs=nowhere\n"
      "std::atomic<int> v_{0};\n"},
     "unknown protocol kind"),
    ("raw mutex outside util",
     {"src/fake/a.cpp": "#include <mutex>\nstd::mutex m;\n"},
     "raw std::mutex"),
    ("raw thread outside util",
     {"src/fake/a.cpp": "std::thread t;\n"},
     "raw std::thread"),
    ("raw fence outside policy",
     {"src/fake/a.cpp": "void f() { std::atomic_thread_fence("
      "std::memory_order_seq_cst); }\n"},
     "raw std::atomic_thread_fence"),
    ("implicit seq_cst load",
     {"src/fake/a.cpp":
      "// atomic-protocol: kind=flag pairs=x\n"
      "std::atomic<bool> f_{false};\nbool g() { return f_.load(); }\n"},
     "without an explicit std::memory_order"),
    ("implicit seq_cst multi-line store",
     {"src/fake/a.cpp":
      "// atomic-protocol: kind=counter pairs=x\n"
      "std::atomic<int> c_{0};\nvoid g() {\n  c_.store(\n      42);\n}\n"},
     "without an explicit std::memory_order"),
    ("operator form on atomic",
     {"src/fake/a.hpp":
      "// atomic-protocol: kind=counter pairs=x\n"
      "std::atomic<int> n_{0};\nvoid bump() { n_++; }\n"},
     "operator form"),
]


def self_test(real_files, design_text):
    failures = []
    for label, seeded, expect in SELF_TEST_CASES:
        files = dict(real_files)
        files.update(seeded)
        lint = run(files, None)
        if not any(expect in e for e in lint.errors):
            failures.append(
                f"  seeded '{label}' went UNDETECTED (expected an error "
                f"containing {expect!r}); got: {lint.errors or '<clean>'}")
    # Table parity must also fail loudly: drop one real inventory row.
    lint = run(real_files, design_text)
    if lint.inventory:
        mutated = re.sub(
            r"^\|\s*`" + re.escape(lint.inventory[0][0]) + r"`.*\n",
            "", design_text, count=1, flags=re.M)
        lint2 = run(real_files, mutated)
        if not any("table" in e for e in lint2.errors):
            failures.append("  seeded table-row removal went UNDETECTED")
    if failures:
        print("lint_atomics: SELF-TEST FAILURE (the lint is vacuous):",
              file=sys.stderr)
        for f in failures:
            print(f, file=sys.stderr)
        sys.exit(FAIL_VIOLATION)
    print(f"lint_atomics: self-test ok "
          f"({len(SELF_TEST_CASES) + 1} seeded violations all detected)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json "
                    "(default: <repo>/build/compile_commands.json)")
    ap.add_argument("--dump-table", action="store_true",
                    help="print the DESIGN.md section 10 tables and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="seed violations and require the lint catch them")
    args = ap.parse_args()

    repo = os.path.abspath(
        args.repo or os.path.join(os.path.dirname(__file__), ".."))
    compdb = args.compile_commands or os.path.join(
        repo, "build", "compile_commands.json")
    files = discover_files(repo, compdb)
    with open(os.path.join(repo, "DESIGN.md"), encoding="utf-8") as f:
        design_text = f.read()

    if args.self_test:
        self_test(files, design_text)
        return

    lint = run(files, None if args.dump_table else design_text)
    if args.dump_table:
        dump_table(lint)
        return
    if lint.errors:
        print(f"lint_atomics: {len(lint.errors)} violation(s):",
              file=sys.stderr)
        for e in lint.errors:
            print("  " + e, file=sys.stderr)
        sys.exit(FAIL_VIOLATION)
    print(f"lint_atomics: ok ({len(lint.inventory)} tagged atomics, "
          f"{len(set(lint.fence_sites))} named fence sites, "
          "0 raw primitives outside util/)")


if __name__ == "__main__":
    main()
