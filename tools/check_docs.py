#!/usr/bin/env python3
"""Docs-tree health gate: dead links and schema coverage.

Two checks over README.md and docs/*.md:

1. Every relative markdown link resolves: the target file exists, and when
   the link carries a #fragment, a heading in the target actually slugs to
   that anchor (GitHub slugging: lowercase, punctuation dropped, spaces to
   hyphens). External links (http/https/mailto) are not touched -- this
   gate must pass offline.

2. Every schema name the code can emit is documented: any string matching
   netcons-<name>-v<N> in src/ or tools/ must appear in
   docs/FILE_FORMATS.md. (tests/ are excluded on purpose: they may mint
   fake versions to exercise mismatch errors.)

3. Every schema name the docs *talk about* is documented too: a
   netcons-<name>-v<N> mentioned in README.md or any docs/*.md (other
   than FILE_FORMATS.md itself) must appear in docs/FILE_FORMATS.md --
   prose must not reference a format the formats reference has dropped
   or never defined.

Usage: check_docs.py [REPO_ROOT]        (default: the script's repo)

Exit status: 0 clean, 1 findings (each printed as file:line: message).
Stdlib only -- CI runners need nothing installed.
"""

import pathlib
import re
import sys

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SCHEMA = re.compile(r"netcons-[a-z0-9][a-z0-9-]*-v[0-9]+")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
EXTERNAL = ("http://", "https://", "mailto:")


def slug(heading):
    """GitHub's anchor slug for a heading line (backticks stripped)."""
    text = heading.strip().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE).lower()
    return text.replace(" ", "-")


def anchors(markdown):
    return {slug(m.group(1)) for m in HEADING.finditer(markdown)}


def check_links(doc_paths):
    findings = []
    texts = {path: path.read_text(encoding="utf-8") for path in doc_paths}
    for path, text in texts.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in LINK.finditer(line):
                target = match.group(1)
                if target.startswith(EXTERNAL):
                    continue
                file_part, _, fragment = target.partition("#")
                resolved = (path.parent / file_part).resolve() if file_part else path
                if file_part and not resolved.exists():
                    findings.append(f"{path}:{lineno}: dead link -> {target}")
                    continue
                if fragment:
                    if resolved.suffix != ".md" or not resolved.is_file():
                        continue  # anchors are only checkable in markdown
                    content = texts.get(resolved)
                    if content is None:
                        content = resolved.read_text(encoding="utf-8")
                    if fragment not in anchors(content):
                        findings.append(
                            f"{path}:{lineno}: dead anchor -> {target}")
    return findings


def check_schema_coverage(root, formats_doc):
    findings = []
    emitted = set()
    self_path = pathlib.Path(__file__).resolve()
    for top in ("src", "tools"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".py"):
                continue
            if path.resolve() == self_path:  # this docstring names a fake v99
                continue
            emitted |= set(SCHEMA.findall(path.read_text(encoding="utf-8")))
    documented = set(SCHEMA.findall(formats_doc.read_text(encoding="utf-8")))
    for name in sorted(emitted - documented):
        findings.append(
            f"{formats_doc}: schema {name} is emitted by src/ or tools/ "
            "but never mentioned in docs/FILE_FORMATS.md")
    return findings


def check_schema_mentions(doc_paths, formats_doc):
    """Schema names the prose docs mention but FILE_FORMATS.md does not."""
    findings = []
    documented = set(SCHEMA.findall(formats_doc.read_text(encoding="utf-8")))
    for path in doc_paths:
        if path.resolve() == formats_doc.resolve():
            continue
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in SCHEMA.findall(line):
                if name not in documented:
                    findings.append(
                        f"{path}:{lineno}: schema {name} is referenced but "
                        "not documented in docs/FILE_FORMATS.md")
    return findings


def main():
    root = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1
        else pathlib.Path(__file__).resolve().parent.parent)
    docs = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    formats = root / "docs" / "FILE_FORMATS.md"
    for required in [readme, formats]:
        if not required.exists():
            print(f"missing required file: {required}", file=sys.stderr)
            return 1

    findings = check_links([readme] + docs)
    findings += check_schema_coverage(root, formats)
    findings += check_schema_mentions([readme] + docs, formats)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"check_docs: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {1 + len(docs)} documents clean "
          "(links resolve, schemas covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
