"""Time two trees' ``ebrsim`` CLI against each other in one process, call by call.

    python tools/interleave.py PARENT_DIR CHANGE_DIR [--calls N] -- ARGV...

Each tree's ``src/ebrsim`` is copied into a temporary directory under its
own package name, ``ebrsim_parent`` and ``ebrsim_change``, so both import
into one interpreter and share its numpy, its heap and its layout.  A
renamed copy works only if every intra-package import is relative: a
module that imports ``ebrsim`` by name would run the other package's code,
so the tool refuses such a tree.  Each side's ``cli.main(ARGV)`` runs once
as a warm-up, then ``N`` rounds call both, the side that goes first
swapping each round; stdout and stderr go to buffers that are dropped.
The summary line gives each side's median call time, their ratio (change
over parent) and the share of rounds the change was faster in.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")


def absolute_imports(package: Path) -> list[str]:
    """``file:line`` of every import of ``ebrsim`` by name in the package's modules."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "ebrsim" or name.startswith("ebrsim.") for name in names):
                found.append(f"{path}:{node.lineno}")
    return found


def load_cli(tree: Path, name: str, into: Path):
    """The ``cli`` module of ``tree``'s package, imported as ``<name>.cli`` from a copy."""
    source = tree / "src" / "ebrsim"
    if not (source / "cli.py").is_file():
        raise SystemExit(f"interleave: no src/ebrsim/cli.py under {tree}")
    found = absolute_imports(source)
    if found:
        raise SystemExit(f"interleave: absolute ebrsim imports in {tree}: {', '.join(found)}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def call(cli, argv: list[str]) -> tuple[float, int, str]:
    """Seconds one ``cli.main(argv)`` takes, its exit status and its stderr; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        status = cli.main(argv)
        return perf_counter() - start, status, err.getvalue()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        usage="%(prog)s PARENT_DIR CHANGE_DIR [--calls N] -- ARGV...",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--calls", type=int, default=100, help="rounds of one call per side")
    args = parser.parse_args(argv[:cut])
    cli_argv = argv[cut + 1:]
    if not cli_argv or args.calls < 1:
        parser.error("give --calls of at least 1 and the CLI arguments after --")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            clis = [load_cli(tree, f"ebrsim_{side}", Path(tmp))
                    for tree, side in zip((args.parent, args.change), SIDES)]
        finally:
            sys.path.remove(tmp)
        # the warm-up: both sides must finish the command, with one exit status
        warm = [call(cli, cli_argv) for cli in clis]
        statuses = [status for _, status, _ in warm]
        if statuses[0] != statuses[1] or 2 in statuses:
            errors = "".join(err for _, _, err in warm)
            raise SystemExit(f"interleave: exit statuses parent {statuses[0]}, "
                             f"change {statuses[1]}\n{errors}")
        times: list[list[float]] = [[], []]
        for k in range(args.calls):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[side].append(call(clis[side], cli_argv)[0])
    parent, change = (statistics.median(t) * 1e3 for t in times)
    won = sum(c < p for p, c in zip(*times))
    print(f"parent {parent:.3f} ms  change {change:.3f} ms  change/parent {change / parent:.3f}"
          f"  change won {won} of {args.calls} calls ({100 * won / args.calls:.1f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
