"""Net ``src/`` line count of this checkout against a base revision.

Run from the repository root (``make loc BASE=<rev>``)::

    python3 benchmarks/loc.py --base HEAD~1

It prints the count two ways:

* **all lines**: the lines added and removed under ``src/``, as
  ``git diff --numstat BASE`` reports them;
* **code lines**: the change in lines that carry code, counted with
  :mod:`tokenize` in every changed Python file, so blank lines,
  comments and docstrings count for nothing.

Both compare BASE with the working tree, which includes uncommitted
edits; a new file counts once ``git add`` has put it in the index.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import tokenize
from pathlib import Path
from typing import Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry code.

    A line counts when a token of a statement touches it.  Blank and
    comment-only lines carry no such token, and a statement that is
    nothing but a string (a docstring) does not count at all.
    """
    lines = set()
    statement = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(part.type == tokenize.STRING for part in statement):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def all_lines(base: str, path: str = "src") -> Tuple[int, int]:
    """``(added, removed)`` lines under ``path`` from BASE to the working tree."""
    added = removed = 0
    for row in _git("diff", "--numstat", "--no-renames", base, "--", path).splitlines():
        plus, minus, _ = row.split("\t", 2)
        if plus != "-":  # a binary file has no line count
            added, removed = added + int(plus), removed + int(minus)
    return added, removed


def net_code_lines(base: str, path: str = "src") -> int:
    """The change in code lines of the Python files under ``path``."""
    net = 0
    for name in _git("diff", "--name-only", "--no-renames", base, "--", path).splitlines():
        if not name.endswith(".py"):
            continue
        before = subprocess.run(
            ["git", "show", f"{base}:{name}"], cwd=ROOT, capture_output=True, text=True
        )
        after = ROOT / name
        net += code_lines(after.read_text()) if after.exists() else 0
        net -= code_lines(before.stdout) if before.returncode == 0 else 0
    return net


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    added, removed = all_lines(args.base)
    print(f"src/ all lines:  +{added} -{removed} (net {added - removed:+d})")
    print(f"src/ code lines: net {net_code_lines(args.base):+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
