#!/usr/bin/env python3
"""Fails when a src/ header is reachable from no shipped surface.

The shipped surfaces are the programs under examples/, bench/ and
perfbench/. Starting from every file there, the check follows quoted
#include lines (resolved against src/, the repository root, then the
including file's directory). Reaching src/<module>/<name>.h also reaches
src/<module>/<name>.cc, so a library's own dependencies count once its
header is used. tests/ is not scanned: a module that only its unit test
includes is dead code that CI keeps compiling.

Exit 0 when every src/<module>/<name>.h is reached; otherwise exit 1 and
print each unreached header (relative to src/), one per line.

  python3 ci/check_reachable.py [REPO_ROOT]   # default: this script's repo
  python3 ci/check_reachable.py --self-test
"""

import os
import re
import sys
import tempfile

SURFACES = ("examples", "bench", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(directory):
    for dirpath, _, filenames in os.walk(directory):
        for filename in sorted(filenames):
            if filename.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, filename)


def resolve(root, including_file, target):
    for base in (os.path.join(root, "src"), root,
                 os.path.dirname(including_file)):
        candidate = os.path.normpath(os.path.join(base, target))
        if os.path.isfile(candidate):
            return candidate
    return None


def unreachable_headers(root):
    """Returns the src/<module>/<name>.h paths (relative to src/) that no
    shipped surface reaches, sorted."""
    src = os.path.join(root, "src")
    headers = set()
    for module in sorted(os.listdir(src)):
        module_dir = os.path.join(src, module)
        if not os.path.isdir(module_dir):
            continue
        for name in os.listdir(module_dir):
            if name.endswith(".h"):
                headers.add(os.path.normpath(os.path.join(module_dir, name)))

    pending = []
    for surface in SURFACES:
        pending.extend(source_files(os.path.join(root, surface)))
    seen = set(os.path.normpath(path) for path in pending)
    while pending:
        path = pending.pop()
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        for target in INCLUDE.findall(text):
            resolved = resolve(root, path, target)
            if resolved is None:
                continue
            reached = [resolved]
            if resolved in headers:
                implementation = resolved[:-len(".h")] + ".cc"
                if os.path.isfile(implementation):
                    reached.append(implementation)
            for item in reached:
                if item not in seen:
                    seen.add(item)
                    pending.append(item)
    return sorted(os.path.relpath(header, src) for header in headers
                  if header not in seen)


def self_test():
    def write(root, path, text=""):
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(text)

    with tempfile.TemporaryDirectory() as root:
        write(root, "examples/main.cpp", '#include "core/used.h"\n')
        write(root, "bench/bench_x.cc", '#include "bench/common.h"\n')
        write(root, "bench/common.h", '#include "geom/via_bench.h"\n')
        write(root, "src/core/used.h")
        # Reached only through used.cc, the implementation of a used header.
        write(root, "src/core/used.cc",
              '#include "core/used.h"\n#include "data/helper.h"\n')
        write(root, "src/data/helper.h")
        write(root, "src/geom/via_bench.h")
        # Dead: its own .cc and a test include it, nothing shipped does.
        write(root, "src/index/dead.h")
        write(root, "src/index/dead.cc",
              '#include "index/dead.h"\n#include "index/dead_dep.h"\n')
        # Dead too: only the dead module's implementation includes it.
        write(root, "src/index/dead_dep.h")
        write(root, "tests/dead_test.cc", '#include "index/dead.h"\n')
        found = unreachable_headers(root)
        expected = ["index/dead.h", "index/dead_dep.h"]
        if found != expected:
            print(f"FAIL self-test: expected {expected}, got {found}")
            sys.exit(1)
    print("PASS self-test")


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    if len(sys.argv) > 2:
        print(__doc__.strip())
        sys.exit(2)
    root = (sys.argv[1] if len(sys.argv) == 2 else
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"FAIL: no src/ directory under {root}")
        sys.exit(1)
    dead = unreachable_headers(root)
    if dead:
        print(f"FAIL: {len(dead)} src/ header(s) reachable from no "
              f"program under {', '.join(SURFACES)}:")
        for header in dead:
            print(header)
        sys.exit(1)
    print("PASS: every src/ header is reachable from a shipped program")


if __name__ == "__main__":
    main()
