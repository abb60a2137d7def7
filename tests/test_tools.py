import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERLEAVE = ROOT / "tools" / "interleave.py"

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Lines 5, 8, 11, 13, 17-20, 23, 25 and 26 are code: eleven.  Blank lines, comments
# and the module, class, function and async-function docstrings are not; the
# class attribute's literal, both lines of the multi-line statement and of the
# multi-line return literal, and the bare string after a docstring are.
SYNTHETIC = '''"""Module docstring,
over two lines."""

# a comment
import os


class Box:
    """Class docstring."""

    label = "a literal string counts"

    def size(self):
        """Function docstring,
        over two lines."""
        # a comment line
        total = (1 +
                 2)
        return """a multi-line
literal counts"""


async def run():
    """Async docstring."""
    "a bare string that is no docstring"
    return os.sep
'''


def interleave(*argv):
    return subprocess.run([sys.executable, str(INTERLEAVE), *map(str, argv)],
                          capture_output=True, text=True, timeout=60)


def test_interleave_times_a_tree_against_itself():
    done = interleave(ROOT, ROOT, "--calls", 4, "--", "oracle-check", "--grid-step", "0.25")
    assert (done.returncode, done.stderr) == (0, "")
    assert re.fullmatch(
        r"parent \d+\.\d{3} ms  change \d+\.\d{3} ms  change/parent \d+\.\d{3}"
        r"  change won [0-4] of 4 calls \(\d+\.\d %\)\n",
        done.stdout,
    )


def test_interleave_refuses_an_absolute_package_import(tmp_path):
    # a renamed copy would run the installed package's code for this import
    package = tmp_path / "src" / "ebrsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("from ebrsim import core\n")
    done = interleave(ROOT, tmp_path, "--calls", 1, "--", "oracle-check")
    assert done.returncode == 1
    assert done.stderr == f"interleave: absolute ebrsim imports in {tmp_path}: {package / 'cli.py'}:1\n"


def test_code_lines_counts_a_module_by_hand():
    assert code_lines.code_lines(SYNTHETIC) == 11


def test_code_lines_main_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("# one comment\n\nx = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "a.py                11\n"
        "b.py                 1\n"
        "total               12\n"
    )
