import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERLEAVE = ROOT / "tools" / "interleave.py"


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
