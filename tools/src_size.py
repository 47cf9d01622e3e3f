"""Size of the permsplit sources: lines, code lines and tokens per module.

Run from anywhere as ``python3 tools/src_size.py``; it reads every module of
``src/permsplit`` next to this script and prints one row per module and a
total.  Code lines leave out docstrings, comments and blank lines.  Tokens
are ``tokenize`` tokens without comments, docstrings and layout tokens
(NEWLINE, NL, INDENT, DEDENT, ENCODING, ENDMARKER).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permsplit"

LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def measure(text: str) -> tuple[int, int, int]:
    """(lines, code lines, tokens) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(text))
    code_lines, tokens = set(), 0
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        tokens += 1
        code_lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code_lines), tokens


def main() -> None:
    rows = [(path.stem, *measure(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<12} {'lines':>6} {'code':>6} {'tokens':>7}")
    for name, lines, code, tokens in rows:
        print(f"{name:<12} {lines:>6,} {code:>6,} {tokens:>7,}")


if __name__ == "__main__":
    main()
