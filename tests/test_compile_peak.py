"""No module of the package needs more memory to compile than cli.py.

A process that cannot write bytecode (PYTHONDONTWRITEBYTECODE=1) compiles
each module it imports from source.  cli.py is compiled first, before the
process has grown, so its compile does not set the process's peak RSS; a
module compiled later, on top of what the command has already loaded, can.
So no module's compile may need more transient memory than cli.py's: a
module that grows past it is split, as the stabiliser chain was split from
congruence.py.  The measure is the tracemalloc peak of compile() on the
source, which does not depend on the host.
"""

import tracemalloc
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arithgroups"


def compile_peak(path):
    """The tracemalloc peak of compile() on path's source, in bytes.

    The least of two compiles: the first compile in a process may also fill
    the interpreter's own caches.
    """
    source = path.read_text(encoding="utf-8")
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@pytest.fixture(scope="module")
def cli_peak():
    return compile_peak(PACKAGE / "cli.py")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_compiles_with_a_higher_peak_than_cli(path, cli_peak):
    assert compile_peak(path) <= cli_peak
