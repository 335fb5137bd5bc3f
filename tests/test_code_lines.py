"""The code-line counter's rules, on a small synthetic module."""

import textwrap

from code_lines import PACKAGE, code_lines

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # A comment line.
    import math  # a trailing comment keeps its line

    MESSAGE = """a string that is not a docstring
    counts on every line"""


    class Shape:
        """Class docstring."""

        def area(self):
            """Function docstring,

            with a blank line inside."""
            "a second string statement is not a docstring"
            return math.pi


    async def wait():
        \'\'\'Async docstring.\'\'\'
        return (1,
                2)
''')


def test_rules_on_a_synthetic_module():
    # import, MESSAGE (2 lines), class, def, the second string, return,
    # async def, return (2 lines).
    assert code_lines(SOURCE) == 10


def test_docstring_only_module_has_no_code():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules and all(code_lines(path.read_text()) > 0 for path in modules)
