"""Print the code-only lines of each module of src/divisorlab, and their total.

A line counts when a token on it is neither a comment, nor layout (blank
lines, newlines, indents), nor part of a docstring: a statement that is a
string alone.  Tokens come from the standard tokenize module, so a string
or bracket that spans lines counts every line it covers.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the src/divisorlab beside this script's directory.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    statement = []  # the tokens of the logical line so far, layout left out
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):  # not a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "divisorlab"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20s} {n:6,d}")
    print(f"{'total':20s} {total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
