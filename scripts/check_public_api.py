#!/usr/bin/env python3
"""Fails when a public function or module of the workspace has no caller.

Usage:
    python3 scripts/check_public_api.py

Two checks, one rule: a name counts as used when it appears, as a whole
word outside a `//` comment, in some `.rs` file under `crates/`, `tests/`,
`examples/` or `perfbench/src/` other than the file that defines it and
its crate's `lib.rs` (which only re-exports). A `$crate::`-qualified
path in a `macro_rules!` body counts as a use too: the macro expands it
in the crates that invoke it.

- Functions: every `pub fn`, `pub const fn` and `pub unsafe fn` in
  `crates/*/src` must be used. A function only its own file calls is
  private or `pub(crate)`; one only its own tests call goes into them.
- Modules: every module file in `crates/*/src` must have at least one
  top-level public item (`pub fn`, `struct`, `enum`, `trait`, `type`,
  `const` or `static`) that is used. This catches a module whose public
  methods are all named like methods elsewhere (`new`, `read`, ...),
  which the per-function check cannot tell apart. A module finding is
  named by the module's file stem.

Every finding must be on scripts/public_api_allowlist.txt, one
`name path reason` entry per line (a line starting with `#` is a
comment), or the script exits nonzero naming the item and its file. An
allowlist entry that no longer matches a finding (the name gained a
caller, or is gone) fails too, so the list cannot rot.
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SEARCH_DIRS = ["crates", "tests", "examples", os.path.join("perfbench", "src")]
ALLOWLIST = os.path.join(ROOT, "scripts", "public_api_allowlist.txt")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MACRO_PATH = re.compile(r"\$crate::(?:[A-Za-z_][A-Za-z0-9_]*::)*([A-Za-z_][A-Za-z0-9_]*)")
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+|const\s+unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
TOP_ITEM = re.compile(
    r"^pub\s+(?:(?:const\s+|unsafe\s+)*fn|struct|enum|trait|type|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)"
)


def rust_files():
    for top in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def code_lines(text):
    """Each line with any `//` comment cut off (string contents are kept)."""
    for line in text.splitlines():
        yield line.split("//", 1)[0]


def crate_lib(path):
    """`crates/<c>/src/lib.rs` for a file of that crate's sources, else None."""
    parts = path.split(os.sep)
    if len(parts) >= 4 and parts[0] == "crates" and parts[2] == "src":
        return os.path.join(*parts[:3], "lib.rs")
    return None


def main() -> int:
    files = list(rust_files())
    idents = {}
    sources = {}
    macro_paths = set()
    for path in files:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            lines = list(code_lines(f.read()))
        sources[path] = lines
        code = "\n".join(lines)
        idents[path] = set(IDENT.findall(code))
        macro_paths.update(MACRO_PATH.findall(code))

    def used_outside(name, path):
        if name in macro_paths:
            return True
        lib = crate_lib(path)
        return any(name in ids for p, ids in idents.items() if p not in (path, lib))

    findings = {}
    fn_count = 0
    module_count = 0
    for path in files:
        lib = crate_lib(path)
        if lib is None or os.sep + "bin" + os.sep in path:
            continue
        top_items = []
        for line in sources[path]:
            m = PUB_FN.match(line)
            if m:
                fn_count += 1
                if not used_outside(m.group(1), path):
                    findings[(m.group(1), path)] = "pub fn with no caller outside its file"
            m = TOP_ITEM.match(line)
            if m:
                top_items.append(m.group(1))
        if path == lib or not top_items:
            continue
        module_count += 1
        if not any(used_outside(name, path) for name in top_items):
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem == "mod":
                stem = os.path.basename(os.path.dirname(path))
            findings[(stem, path)] = (
                "module whose public items are all unused outside it: "
                + ", ".join(top_items)
            )

    allowed = {}
    with open(ALLOWLIST, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(None, 2)
            if len(fields) < 3:
                print(f"{ALLOWLIST}:{number}: want `name path reason`", file=sys.stderr)
                return 1
            allowed[(fields[0], os.path.normpath(fields[1]))] = fields[2]

    errors = []
    allowlisted = 0
    for (name, path), what in sorted(findings.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if (name, path) in allowed:
            allowlisted += 1
        else:
            errors.append(f"{path}: `{name}`: {what}")
    for name, path in sorted(allowed):
        if (name, path) not in findings:
            errors.append(
                f"{ALLOWLIST}: stale entry `{name} {path}`: it has a caller now, "
                "or no longer exists"
            )
    for e in errors:
        print(f"public API: {e}", file=sys.stderr)
    print(
        f"public API: {fn_count} pub fns and {module_count} modules scanned, "
        f"{allowlisted} allowlisted, {len(errors)} errors"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
