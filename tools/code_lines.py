"""Count the code lines of Python source files.

A line counts when it holds a Python token other than a comment, a
module, class or function docstring, or whitespace (line breaks and
indentation included); a token that spans lines counts each of them.
Prints one count per file and the total; a directory stands for the
`.py` files under it, in sorted order:

    python3 tools/code_lines.py src/scanpath_diffusion
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: comments, line breaks, indentation, file markers
BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: bytes) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in BLANK or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def source_files(paths: list[str]):
    """The files that paths name, each directory walked for its `.py` files."""
    for path in paths:
        if Path(path).is_dir():
            yield from map(str, sorted(Path(path).rglob("*.py")))
        else:
            yield path


def main(paths: list[str]) -> None:
    total = 0
    for path in source_files(paths):
        with open(path, "rb") as fh:
            count = code_lines(fh.read())
        print(f"{count:6,d}  {path}")
        total += count
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
