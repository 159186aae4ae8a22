#!/usr/bin/env python3
"""Help-vs-docs drift gate.

Every tool's --help and the flag tables in docs/OPERATIONS.md must agree
-- bidirectionally. A flag added to a tool but not documented fails; a
documented flag the tool no longer accepts fails too. --help itself is
exempt (tables do not list it).

Extraction is structural on both sides, so prose mentioning a flag never
confuses the comparison:

  * from --help output: only lines inside a "...flags:" (C++) or
    "options:" (argparse) section whose first token starts with --;
    every --flag token on such a line counts (so "--k K  --c C  --d D"
    yields all three);
  * from OPERATIONS.md: only the first cell of rows in the tool's own
    "### `tool` flags" table. netcons_campaign / netcons_worker
    additionally own the shared "### Campaign spec flags" table (one
    parser in the code, one table in the docs).

Usage: test_help_matches_docs.py REPO_ROOT NETCONS_RUN NETCONS_CAMPAIGN \
           NETCONS_MERGE NETCONS_REPORT NETCONS_TOP NETCONS_WORKER \
           NETCONS_SERVE

Exit status: 0 on agreement, 1 on drift (each mismatch printed).
Stdlib only -- CI runners need nothing installed.
"""

import pathlib
import re
import subprocess
import sys

FLAG = re.compile(r"--[a-z][a-z0-9-]*")
SECTION_END = re.compile(r"^#{1,3}\s")

# Tools that parse the shared campaign-spec flag set (campaign::spec_cli).
SPEC_TOOLS = {"netcons_campaign", "netcons_worker"}


def help_flags(command):
    """Flags a tool's --help advertises, from its flag-list lines only."""
    result = subprocess.run(command + ["--help"], capture_output=True, text=True)
    if result.returncode != 0:
        raise AssertionError(
            f"{command} --help exited {result.returncode}: {result.stderr}")
    flags = set()
    in_flags = False
    for line in result.stdout.splitlines():
        stripped = line.strip()
        if stripped.endswith("flags:") or stripped in ("options:",
                                                       "optional arguments:"):
            in_flags = True
            continue
        if in_flags and re.match(r"^\s+--", line):
            flags |= set(FLAG.findall(line))
    if not in_flags:
        raise AssertionError(f"{command}: no flags:/options: section in --help")
    flags.discard("--help")
    return flags


def docs_tables(operations_md):
    """{heading-name: set of flags} from every '### ... flags' table."""
    tables = {}
    current = None
    for line in operations_md.splitlines():
        heading = re.match(r"^### (.+?) flags\s*$", line)
        if heading:
            current = heading.group(1).strip().strip("`")
            tables[current] = set()
            continue
        if current is None:
            continue
        if SECTION_END.match(line):
            current = None
            continue
        if line.startswith("|"):
            # Split on unescaped pipes only: cells contain literal \|.
            first_cell = re.split(r"(?<!\\)\|", line)[1]
            tables[current] |= set(FLAG.findall(first_cell))
    return tables


def main():
    if len(sys.argv) != 9:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1])
    binaries = sys.argv[2:9]
    operations = (root / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    tables = docs_tables(operations)
    spec_table = tables.get("Campaign spec", set())
    if not spec_table:
        print("docs/OPERATIONS.md: no 'Campaign spec flags' table",
              file=sys.stderr)
        return 1

    commands = {pathlib.Path(path).name: [path] for path in binaries}
    commands["orchestrate_shards.py"] = [
        sys.executable, str(root / "tools" / "orchestrate_shards.py")]
    commands["plot_report.py"] = [
        sys.executable, str(root / "tools" / "plot_report.py")]

    failures = []
    for tool, command in sorted(commands.items()):
        if tool not in tables:
            failures.append(f"{tool}: no '### `{tool}` flags' table in "
                            "docs/OPERATIONS.md")
            continue
        documented = set(tables[tool])
        if tool in SPEC_TOOLS:
            documented |= spec_table
        advertised = help_flags(command)
        for flag in sorted(advertised - documented):
            failures.append(f"{tool}: {flag} is in --help but missing from "
                            "docs/OPERATIONS.md")
        for flag in sorted(documented - advertised):
            failures.append(f"{tool}: {flag} is documented in "
                            "docs/OPERATIONS.md but absent from --help")

    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"help-vs-docs: {len(failures)} mismatch(es)", file=sys.stderr)
        return 1
    print(f"help-vs-docs: {len(commands)} tools agree with docs/OPERATIONS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
