#!/usr/bin/env python3
"""avdb-lint: repo-specific static rules the compiler can't enforce.

Run as a ctest (label `lint`) so violations fail the build farm, or by hand:

    python3 tools/avdb_lint.py --root .            # lint the tree
    python3 tools/avdb_lint.py --root . --self-test  # rule fixtures

Rules (see DESIGN.md §10 "Static correctness model"):

  wallclock          No std::chrono::{system,steady,high_resolution}_clock,
                     sleep_for/sleep_until/usleep/nanosleep, gettimeofday,
                     clock_gettime in library/test code. All delay must be
                     charged in virtual time (base/virtual_clock) so
                     schedules are deterministic and fault traces replay.
  naked-new          No raw `new` / malloc-family calls outside
                     src/base/buffer* . A `new` immediately owned by a
                     unique_ptr/shared_ptr constructor (the private-ctor
                     factory idiom) is allowed.
  check-in-hot-path  No AVDB_CHECK / AVDB_DCHECK in the streaming hot-path
                     layers (src/storage, src/net, src/codec): data-
                     dependent failures there must surface as Status, not
                     abort the process. Constructor preconditions and
                     encode-side self-checks are allowlisted individually.
  layer-cycle        `#include "dir/…"` across src/ layers must follow the
                     layer DAG (base → time → media → codec|sched →
                     storage|net → activity → cluster → db →
                     hyper|vworld). An include into a higher or sibling
                     layer is a cycle.
  void-cast-call     No `(void)call(...)` in src/: a void-cast of a call is
                     an invisible status drop. Use AVDB_IGNORE_STATUS with
                     a justification instead.
  metric-prefix      Instrument-name string literals in src/ must follow
                     `avdb_<layer>_<metric>` where `<layer>` is the layer
                     (include-DAG directory) of the defining file, so a
                     metric's name always says which layer owns it.
  plane-copy         No per-frame byte-plane copies in the codec/activity
                     hot paths (src/codec, src/activity): the copying
                     frame accessors (ExtractPlane / ExtractPlaneInto /
                     SetPlane) and by-value `std::vector<uint8_t>`
                     temporaries allocate per frame. Use PlaneView /
                     PlaneSpan over the frame's planar storage, or lease
                     scratch from BufferPool (BytesLease / AcquireBuffer).
  naked-retry        No hand-rolled retry loops around device reads or
                     channel transfers in src/cluster or src/storage: a
                     `for`/`while` whose body calls ->Read / ->ReadRange /
                     ->Transfer / ->TransferWithDeadline / ->ServeRead
                     must drive the loop through RetryState, so every
                     retry charges virtual time, honors the deadline
                     budget, and applies the configured backoff+jitter.
                     A naked loop retries for free and forever.
  direct-replica-write
                     No MediaStore::Put/Delete called directly from
                     src/cluster/: every replica mutation must ride
                     ServerNode's serving arms (ServeWrite / ServeDelete /
                     ApplyRepair) so it is fault-injected, priced in
                     virtual time, and journaled exactly once. A direct
                     store write from the cluster layer bypasses the
                     quorum/repair path and silently diverges replicas.
                     The serving arms themselves are allowlisted.
  double-count       No obs::Counter* or obs::Gauge* member in a class that
                     declares `struct Stats`: such a class already counts
                     in its own Stats cells, and a pushed instrument beside
                     them counts each fact twice. Attach the cells to the
                     registry with obs::Attachment instead.

Suppressions live in tools/avdb_lint_allowlist.json — machine-readable,
justification required, stale entries are themselves errors. Never silence
a rule inline. The allowlist is SHARED with tools/avdb_analyze.py (the
semantic whole-tree analyzer): each tool applies and staleness-checks only
the entries for its own rules and leaves the other tool's entries alone;
an entry naming a rule neither tool implements is an error in both.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

# Rule-name registry for the shared allowlist. avdb_lint owns LINT_RULES;
# avdb_analyze (which imports this module) owns ANALYZE_RULES and asserts
# at startup that the rules it implements match this list.
LINT_RULES = frozenset({
    "wallclock", "naked-new", "check-in-hot-path", "layer-cycle",
    "void-cast-call", "metric-prefix", "plane-copy", "naked-retry",
    "direct-replica-write", "double-count",
})
ANALYZE_RULES = frozenset({
    "lock-order", "lock-foreign-call", "lease-escape",
    "budget-propagation", "determinism",
})

# Layer ranks: an #include may only point at a strictly lower rank (or the
# same directory). Keep in sync with DESIGN.md §10.
LAYER_RANK = {
    "base": 0,
    "time": 1,
    "obs": 2,
    "media": 2,
    "codec": 3,
    "sched": 3,
    "storage": 4,
    "net": 4,
    "activity": 5,
    "cluster": 6,
    "db": 7,
    "hyper": 8,
    "vworld": 8,
}

HOT_PATH_DIRS = ("src/storage/", "src/net/", "src/codec/")
PLANE_COPY_DIRS = ("src/codec/", "src/activity/")
NAKED_RETRY_DIRS = ("src/cluster/", "src/storage/")
# How far a retryable call may sit below its loop header, and how far above
# the header a RetryState declaration still governs the loop.
NAKED_RETRY_WINDOW = 12
NAKED_RETRY_LOOKBACK = 4

WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:system|steady|high_resolution)_clock"
    r"|\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\s*\("
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
)
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `new (addr)` placement ok
ALLOC_RE = re.compile(r"\b(?:malloc|calloc|realloc|free)\s*\(")
SMART_PTR_CONTEXT_RE = re.compile(r"(?:unique_ptr|shared_ptr)\s*<[^;{}]*\(\s*$")
CHECK_RE = re.compile(r"\bAVDB_D?CHECK\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
VOID_CAST_CALL_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:.]*(?:->\w+)*\s*\(")
# An instrument name inside a string literal: "avdb_<layer>_..."
METRIC_LITERAL_RE = re.compile(r'"(avdb_([a-z0-9]+)_[a-z0-9_]+)')
PLANE_ACCESSOR_RE = re.compile(
    r"\b(?:ExtractPlane|ExtractPlaneInto|SetPlane)\s*\(")
# A by-value byte-plane object; reference/rvalue-reference types are fine
# (borrowing, not allocating).
PLANE_TEMP_RE = re.compile(r"std::vector<uint8_t>\s*(?!&)")
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
# Exact retryable-operation names only: parsing helpers (ReadU32, ReadBytes,
# ReadString, …) loop legitimately over a buffer and must not match.
RETRYABLE_CALL_RE = re.compile(
    r"->\s*(?:Read|ReadRange|Transfer|TransferWithDeadline|ServeRead"
    r"|ServeWrite)\s*\(")
RETRY_STATE_RE = re.compile(r"\bRetryState\b")

DIRECT_WRITE_DIRS = ("src/cluster/",)
# A MediaStore mutation through any store-named receiver: `store_->Put(`,
# `store().Delete(`, `target_store.Put(`, … Reads (Lookup/ReadRange) are
# fine; only the mutating verbs divert around the quorum/repair path.
DIRECT_REPLICA_WRITE_RE = re.compile(
    r"(?:\bstore\(\)\s*\.|\bstore_\s*(?:->|\.)|_store\s*(?:\.|->))"
    r"\s*(?:Put|Delete)\s*\(")

# A class/struct head that opens its body on this line: `class X {`,
# `struct X final : public Y {`.
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;(){]*\{")
STATS_DECL_RE = re.compile(r"\bstruct\s+Stats\b")
PUSHED_MEMBER_RE = re.compile(r"\bobs::(?:Counter|Gauge)\s*\*\s*\w+")

SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")


class Violation:
    def __init__(self, rule, path, line_no, text):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.text = text.strip()

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.text}"


def strip_comments_and_strings(lines):
    """Returns lines with //, /* */ comments and string/char literals blanked
    so rule regexes don't fire on prose. #include lines are kept verbatim
    (the include rule needs the quoted path)."""
    out = []
    in_block = False
    for raw in lines:
        if INCLUDE_RE.match(raw):
            out.append(raw)
            continue
        res = []
        i = 0
        n = len(raw)
        quote = None  # "'" or '"' while inside a literal
        while i < n:
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if quote:
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
                i += 1
                continue
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                res.append(c)
                i += 1
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def layer_of(rel_path):
    parts = rel_path.split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return None


def lint_file(rel_path, lines):
    """Runs every applicable rule; returns a list of Violations."""
    violations = []
    stripped = strip_comments_and_strings(lines)
    in_src = rel_path.startswith("src/")
    layer = layer_of(rel_path)
    is_buffer_code = in_src and os.path.basename(rel_path).startswith("buffer")
    in_hot_path = any(rel_path.startswith(d) for d in HOT_PATH_DIRS)
    in_plane_hot_path = any(rel_path.startswith(d) for d in PLANE_COPY_DIRS)
    in_retry_dirs = any(rel_path.startswith(d) for d in NAKED_RETRY_DIRS)
    in_direct_write_dirs = any(
        rel_path.startswith(d) for d in DIRECT_WRITE_DIRS)

    for idx, line in enumerate(stripped, start=1):
        m = INCLUDE_RE.match(line)
        if m and layer is not None:
            target = m.group(1).split("/")[0]
            if target in LAYER_RANK and target != layer:
                if LAYER_RANK[target] >= LAYER_RANK[layer]:
                    violations.append(Violation(
                        "layer-cycle", rel_path, idx,
                        f'#include "{m.group(1)}" from layer {layer!r} '
                        f"(rank {LAYER_RANK[layer]}) into layer {target!r} "
                        f"(rank {LAYER_RANK[target]}) breaks the layer DAG"))
            continue

        if WALLCLOCK_RE.search(line):
            violations.append(Violation(
                "wallclock", rel_path, idx, lines[idx - 1]))

        # Preprocessor lines cannot allocate; without this, `#include <new>`
        # (needed for placement new) trips the word-match below.
        if in_src and not is_buffer_code and not line.startswith("#"):
            if NEW_RE.search(line):
                # The private-ctor factory idiom wraps `new` in a smart-
                # pointer constructor, often split across lines; look back
                # through the joined statement prefix for `…_ptr<…>(`.
                prefix = " ".join(stripped[max(0, idx - 3):idx])
                head = prefix[:prefix.rfind("new")] if "new" in prefix else prefix
                if not SMART_PTR_CONTEXT_RE.search(head.rstrip()):
                    violations.append(Violation(
                        "naked-new", rel_path, idx, lines[idx - 1]))
            if ALLOC_RE.search(line):
                violations.append(Violation(
                    "naked-new", rel_path, idx, lines[idx - 1]))

        if in_hot_path and CHECK_RE.search(line):
            violations.append(Violation(
                "check-in-hot-path", rel_path, idx, lines[idx - 1]))

        if in_plane_hot_path and (PLANE_ACCESSOR_RE.search(line)
                                  or PLANE_TEMP_RE.search(line)):
            violations.append(Violation(
                "plane-copy", rel_path, idx, lines[idx - 1]))

        if in_retry_dirs and LOOP_HEAD_RE.search(line):
            # A loop whose body (the next NAKED_RETRY_WINDOW lines) issues a
            # retryable device/channel call is a retry loop; it must be
            # driven by a RetryState declared just above or inside it.
            body = stripped[idx - 1:idx - 1 + NAKED_RETRY_WINDOW]
            context = stripped[max(0, idx - 1 - NAKED_RETRY_LOOKBACK):
                               idx - 1 + NAKED_RETRY_WINDOW]
            call = next((b for b in body if RETRYABLE_CALL_RE.search(b)),
                        None)
            if (call is not None
                    and not any(RETRY_STATE_RE.search(c) for c in context)):
                violations.append(Violation(
                    "naked-retry", rel_path, idx,
                    f"loop retries `{call.strip()}` without RetryState: "
                    "unbudgeted, unjittered retry"))

        if in_direct_write_dirs and DIRECT_REPLICA_WRITE_RE.search(line):
            violations.append(Violation(
                "direct-replica-write", rel_path, idx, lines[idx - 1]))

        if in_src and VOID_CAST_CALL_RE.search(line):
            violations.append(Violation(
                "void-cast-call", rel_path, idx, lines[idx - 1]))

        # metric-prefix scans the *raw* line: string literals are blanked in
        # the stripped copy, and the instrument names live in literals.
        if layer is not None:
            raw = lines[idx - 1]
            comment_at = raw.find("//")
            for m in METRIC_LITERAL_RE.finditer(raw):
                if 0 <= comment_at < m.start():
                    continue  # mention in a comment, not a definition
                if m.group(2) != layer:
                    violations.append(Violation(
                        "metric-prefix", rel_path, idx,
                        f'instrument "{m.group(1)}" claims layer '
                        f"{m.group(2)!r} but is defined in layer {layer!r}"))

    if in_src:
        violations.extend(double_count_violations(rel_path, stripped, lines))
    return violations


def double_count_violations(rel_path, stripped, lines):
    """Counter/Gauge pointer members of classes that declare `struct Stats`.
    Tracks brace depth line by line; a member or Stats declaration belongs
    to the innermost class whose body is open at that depth."""
    violations = []
    scopes = []  # one entry per open brace: a class record or None
    for idx, line in enumerate(stripped, start=1):
        owner = next((s for s in reversed(scopes) if s is not None), None)
        at_class_depth = bool(scopes) and scopes[-1] is not None
        if owner is not None and at_class_depth:
            if STATS_DECL_RE.search(line):
                owner["stats"] = True
            if PUSHED_MEMBER_RE.search(line):
                owner["members"].append(idx)
        head = CLASS_HEAD_RE.search(line)
        for pos, c in enumerate(line):
            if c == "{":
                is_class = head is not None and pos == line.find(
                    "{", head.start())
                scopes.append({"name": head.group(1), "stats": False,
                               "members": []} if is_class else None)
            elif c == "}" and scopes:
                closed = scopes.pop()
                if closed is not None and closed["stats"]:
                    for member in closed["members"]:
                        violations.append(Violation(
                            "double-count", rel_path, member,
                            f"{closed['name']} declares struct Stats but "
                            f"also holds `{lines[member - 1].strip()}`: "
                            "attach the Stats cells instead"))
    return violations


def iter_source_files(root):
    scan_dirs = ("src", "tests", "bench", "examples")
    for top in scan_dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in ("build",)]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def load_allowlist(root):
    path = os.path.join(root, "tools", "avdb_lint_allowlist.json")
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    entries = data["entries"]
    errors = []
    known = LINT_RULES | ANALYZE_RULES
    for i, e in enumerate(entries):
        for key in ("rule", "file", "pattern", "justification"):
            if not e.get(key):
                errors.append(
                    f"allowlist entry #{i} missing non-empty {key!r}: {e}")
        if e.get("rule") and e["rule"] not in known:
            errors.append(
                f"allowlist entry #{i} names unknown rule {e['rule']!r} "
                f"(neither avdb-lint nor avdb-analyze implements it)")
        e["_used"] = False
        e["_re"] = re.compile(e.get("pattern") or r"(?!)")
    return entries, errors


def apply_allowlist(violations, entries, own_rules=LINT_RULES):
    """Suppresses violations matched by an allowlist entry. Only entries for
    `own_rules` participate: the shared file also carries the other tool's
    entries, which must be neither applied nor reported stale here."""
    own = [e for e in entries if e.get("rule") in own_rules]
    kept = []
    for v in violations:
        suppressed = False
        for e in own:
            if (e["rule"] == v.rule
                    and fnmatch.fnmatch(v.path, e["file"])
                    and e["_re"].search(v.text)):
                e["_used"] = True
                suppressed = True
                break
        if not suppressed:
            kept.append(v)
    stale = [e for e in own if not e["_used"]]
    return kept, stale


def run_lint(root):
    entries, errors = load_allowlist(root)
    violations = []
    for rel in iter_source_files(root):
        if "/lint_fixtures/" in rel or "/compile_fail/" in rel:
            continue
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            lines = f.read().splitlines()
        violations.extend(lint_file(rel, lines))
    kept, stale = apply_allowlist(violations, entries, LINT_RULES)
    for v in kept:
        print(v)
    for e in stale:
        errors.append(
            f"stale allowlist entry (matched nothing — remove it): "
            f"rule={e['rule']} file={e['file']} pattern={e['pattern']}")
    for err in errors:
        print(f"avdb-lint: error: {err}")
    if kept or errors:
        print(f"avdb-lint: {len(kept)} violation(s), {len(errors)} error(s)")
        return 1
    print("avdb-lint: clean")
    return 0


FIXTURE_AS_RE = re.compile(r"//\s*lint-fixture-as:\s*(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([\w,-]+)")


def run_self_test(root):
    """Every fixture under tools/lint_fixtures/fail must trip exactly the
    rules its `// lint-expect:` header names (checked as-if at its
    `// lint-fixture-as:` path); every fixture under pass/ must be clean."""
    fixture_root = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    checked = 0
    for kind in ("fail", "pass"):
        kind_dir = os.path.join(fixture_root, kind)
        for name in sorted(os.listdir(kind_dir)):
            if not name.endswith(SOURCE_EXTS):
                continue
            checked += 1
            with open(os.path.join(kind_dir, name), encoding="utf-8") as f:
                lines = f.read().splitlines()
            header = "\n".join(lines[:5])
            as_m = FIXTURE_AS_RE.search(header)
            rel = as_m.group(1) if as_m else f"src/base/{name}"
            got = sorted({v.rule for v in lint_file(rel, lines)})
            if kind == "pass":
                want = []
            else:
                exp_m = FIXTURE_EXPECT_RE.search(header)
                if not exp_m:
                    failures.append(f"{kind}/{name}: missing // lint-expect:")
                    continue
                want = sorted(exp_m.group(1).split(","))
            if got != want:
                failures.append(
                    f"{kind}/{name} (as {rel}): expected rules {want}, "
                    f"got {got}")
    for f in failures:
        print(f"avdb-lint self-test: FAIL {f}")
    if failures:
        return 1
    print(f"avdb-lint self-test: {checked} fixtures ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/, tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rule engine against the fixtures")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root)
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
