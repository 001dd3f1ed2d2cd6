import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

# a comment
def f(x):
    """A function docstring."""
    y = (x +  # a trailing comment
         1)

    return "a string in code"
'''
    # def, the two lines of y and the return
    assert code_lines.code_lines(source) == 4
