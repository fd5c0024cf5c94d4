#!/usr/bin/env python3
"""Verify internal documentation links.

Scans README.md and docs/*.md for inline markdown links and checks
that every relative target resolves to a file in the repo and that
every #anchor (in-page or cross-page) matches a heading in the
target file, using GitHub's heading-slug rules. External links
(http/https/mailto) are ignored. Also checks that every markdown
file name mentioned under src/, bench/, tests/, examples/ and
tools/ names a file: a path from the repo root or from the
mentioning file's directory, or the bare name of a markdown file in
the repo. Exits non-zero listing every broken link or mention, so
CI fails when a doc rots.

Usage: python3 tools/check_docs_links.py [repo_root]
"""

import os
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
MD_NAME_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")
CODE_DIRS = ("src", "bench", "tests", "examples", "tools")


def heading_slugs(path):
    """GitHub-style slugs of every heading in a markdown file."""
    slugs = set()
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if CODE_FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            text = m.group(1).strip()
            # Drop markdown formatting and inline code, then apply
            # the github slug rules: lowercase, strip punctuation,
            # spaces and hyphens become hyphens.
            text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
            text = text.replace("`", "")
            slug = "".join(
                c for c in text.lower() if c.isalnum() or c in " -_"
            )
            slugs.add(slug.replace(" ", "-"))
    return slugs


def doc_files(root):
    files = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        files.append(readme)
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return files


def check(root):
    errors = []
    slug_cache = {}

    def slugs_of(path):
        if path not in slug_cache:
            slug_cache[path] = heading_slugs(path)
        return slug_cache[path]

    for src in doc_files(root):
        in_fence = False
        with open(src, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if CODE_FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(line):
                    if target.startswith(
                        ("http://", "https://", "mailto:")
                    ):
                        continue
                    where = "%s:%d" % (
                        os.path.relpath(src, root),
                        lineno,
                    )
                    path_part, _, anchor = target.partition("#")
                    if path_part:
                        dest = os.path.normpath(
                            os.path.join(
                                os.path.dirname(src), path_part
                            )
                        )
                        if not os.path.exists(dest):
                            errors.append(
                                "%s: broken link '%s' (no such "
                                "file)" % (where, target)
                            )
                            continue
                    else:
                        dest = src
                    if anchor:
                        if not dest.endswith(".md"):
                            errors.append(
                                "%s: anchor on non-markdown "
                                "target '%s'" % (where, target)
                            )
                        elif anchor not in slugs_of(dest):
                            errors.append(
                                "%s: broken anchor '%s' (no such "
                                "heading in %s)"
                                % (
                                    where,
                                    target,
                                    os.path.relpath(dest, root),
                                )
                            )
    return errors


def walk_files(top):
    """Files under @p top, skipping hidden and build directories."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith((".", "build"))
        )
        for name in sorted(filenames):
            yield dirpath, name


def check_code_mentions(root):
    """Every markdown file name the code mentions must name a file."""
    known = {n for _, n in walk_files(root) if n.endswith(".md")}
    errors = []
    for top in CODE_DIRS:
        for dirpath, name in walk_files(os.path.join(root, top)):
            path = os.path.join(dirpath, name)
            try:
                with open(path, encoding="utf-8") as f:
                    lines = f.readlines()
            except (OSError, UnicodeDecodeError):
                continue  # binary fixtures
            for lineno, line in enumerate(lines, 1):
                for ref in MD_NAME_RE.findall(line):
                    if ("/" not in ref and ref in known) or any(
                        os.path.isfile(os.path.join(base, ref))
                        for base in (root, dirpath)
                    ):
                        continue
                    errors.append(
                        "%s:%d: '%s' names no file"
                        % (os.path.relpath(path, root), lineno, ref)
                    )
    return errors


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = doc_files(root)
    if not files:
        print("no documentation files found under", root)
        return 1
    errors = check(root) + check_code_mentions(root)
    for e in errors:
        print("ERROR:", e)
    print(
        "%d doc file(s) and the code's markdown mentions checked, "
        "%d broken link(s)" % (len(files), len(errors))
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
