#!/usr/bin/env python3
"""Guards the Dash batch engines' bucket prefetches against the optimiser.

GCC 12 at -O2/-O3 deleted every call of Segment::PrefetchProbe while the
prefetch helpers wrapped __builtin_prefetch, so the Dash-EH and Dash-LH
batch engines prefetched directory entries and segment headers but never a
bucket. This check disassembles optimised binaries and fails unless every
out-of-line copy of DashEH/DashLH PrefetchGroup and AmacMultiSearch reaches
a bucket prefetch: a call (or tail jump) to a Segment::PrefetchProbe that
itself prefetches, or PrefetchProbe's inlined PrefetchRange loop (a
prefetch whose address then advances by one 64-byte line and loops back).
It also fails if __builtin_prefetch is named anywhere in the sources
outside src/util/prefetch.h.

Usage:
  tests/prefetch_codegen_test.py [--objdump objdump] [--source-root DIR]
                                 BINARY [BINARY...]

Run it on Release builds (bench_batch, bench_suite); ctest registers it
for Release configurations.
"""

import argparse
import os
import re
import subprocess
import sys

ROOTS = [
    (table, engine)
    for table in ("DashEH", "DashLH")
    for engine in ("PrefetchGroup", "AmacMultiSearch")
]
SOURCE_DIRS = ("src", "tests", "bench", "bench_suite", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")
ALLOWED_BUILTIN = os.path.join("src", "util", "prefetch.h")

FUNC_RE = re.compile(r"^([0-9a-f]+) <(.*)>:$")
INSN_RE = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
TARGET_RE = re.compile(r"^([0-9a-f]+) <(.*)>$")


def disassemble(objdump, binary):
    """Returns {symbol: [(addr, mnemonic, operands)]}, demangled."""
    out = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", binary],
                         check=True, capture_output=True, text=True).stdout
    funcs = {}
    body = None
    for line in out.splitlines():
        m = FUNC_RE.match(line)
        if m:
            body = funcs.setdefault(m.group(2), [])
            continue
        m = INSN_RE.match(line)
        if m and body is not None:
            body.append((int(m.group(1), 16), m.group(2), m.group(3)))
    return funcs


def branch_target(operands):
    m = TARGET_RE.match(operands.strip())
    return (int(m.group(1), 16), m.group(2)) if m else (None, None)


def is_prefetch(mnemonic):
    return mnemonic.startswith("prefetch")


def steps_one_line(mnemonic, operands):
    """`add $0x40,%reg`, or the same step written as a subtraction."""
    return ((mnemonic == "add" and operands.startswith("$0x40,%")) or
            (mnemonic == "sub" and
             operands.startswith("$0xffffffffffffffc0,%")))


def has_range_loop(body):
    """A prefetch followed, within a few instructions, by a one-line
    address step and a conditional jump back to or before the prefetch."""
    for i, (addr, mnem, _) in enumerate(body):
        if not is_prefetch(mnem):
            continue
        stepped = False
        for _, m2, ops2 in body[i + 1:i + 6]:
            if steps_one_line(m2, ops2):
                stepped = True
            elif stepped and m2.startswith("j") and m2 != "jmp":
                target, _ = branch_target(ops2)
                if target is not None and target <= addr:
                    return True
    return False


def probe_helpers(funcs):
    return {name for name, body in funcs.items()
            if name.startswith("dash::Segment::PrefetchProbe(")
            and any(is_prefetch(m) for _, m, _ in body)}


def reaches_bucket_prefetch(body, helpers):
    for _, mnem, ops in body:
        if mnem.startswith(("call", "jmp")):
            _, name = branch_target(ops)
            if name in helpers:
                return "call"
    return "inlined" if has_range_loop(body) else None


def check_binary(objdump, binary):
    funcs = disassemble(objdump, binary)
    helpers = probe_helpers(funcs)
    failures = []
    for table, engine in ROOTS:
        pattern = re.compile(
            r"^dash::%s<[^()]*>::%s\(" % (table, engine))
        copies = [name for name in funcs
                  if pattern.match(name) and "[clone .cold]" not in name]
        if not copies:
            failures.append(f"{table}::{engine}: no out-of-line copy in "
                            f"{binary} (inlined away? extend the roots)")
            continue
        for name in copies:
            how = reaches_bucket_prefetch(funcs[name], helpers)
            short = name.split("(")[0]
            if how is None:
                failures.append(f"{short}: no bucket prefetch ({name})")
            else:
                print(f"ok  {short}: bucket prefetch ({how})")
    calls = sum(1 for body in funcs.values() for _, m, ops in body
                if m.startswith(("call", "jmp"))
                and branch_target(ops)[1] in helpers)
    print(f"{binary}: {calls} call sites of Segment::PrefetchProbe")
    return failures


def check_sources(root):
    failures = []
    for top in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for f in files:
                if not f.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, f)
                rel = os.path.relpath(path, root)
                if rel == ALLOWED_BUILTIN:
                    continue
                with open(path, encoding="utf-8", errors="replace") as fh:
                    for n, line in enumerate(fh, 1):
                        if "__builtin_prefetch" in line:
                            failures.append(
                                f"{rel}:{n}: __builtin_prefetch outside "
                                f"{ALLOWED_BUILTIN} (use util::Prefetch*)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("--source-root",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))))
    ap.add_argument("binaries", nargs="+")
    args = ap.parse_args()
    failures = check_sources(args.source_root)
    for binary in args.binaries:
        failures += check_binary(args.objdump, binary)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
