"""Fuzz the CLI contract over the cached commands and `cong image`.

For any aliases, small 2x2 and 3x3 generator files (singular and malformed
ones included), small --pmax/--cap/--maxlen/--bound/--mod values and either
--format:

- the exit code is 0, 1 or 2, and stderr never holds a traceback;
- `density check` and `lubotzky scan` on a 3x3 group exit 1 with
  UnsupportedDimension;
- a run with no cache, a cold run into a fresh cache directory and a warm run
  from it give the same stdout, stderr and exit code.
"""

import contextlib
import io
import os
import tempfile
import traceback

import pytest

from arithgroups.catalog import field_aliases, group_aliases, load_group
from arithgroups.cli import dispatch
from arithgroups.errors import DomainError, UsageError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ENTRIES = ("0", "1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3")
MALFORMED = (
    "\n",                                   # no matrix
    "1 a\n0 1\n",                           # a token that is not a rational
    "1/0 1\n0 1\n",                         # a zero denominator
    "1 1\n0\n",                             # ragged rows
    "1 1\n0 1\n\n1 0 0\n0 1 0\n0 0 1\n",    # generators of mixed sizes
)


def _matrix_text(n, entries):
    return "".join(" ".join(entries[i * n:(i + 1) * n]) + "\n" for i in range(n))


def _unitriangular(n, entries):
    """Entries above the diagonal from the draw, 1 on it, 0 below: det 1."""
    return [entries[i * n + j] if j > i else "1" if i == j else "0"
            for i in range(n) for j in range(n)]


def matrix_files(n):
    matrix = st.lists(st.sampled_from(ENTRIES), min_size=n * n, max_size=n * n)
    if n == 3:      # most random 3x3 matrices are singular mod S: draw det-1 ones too
        matrix = st.one_of(matrix, matrix.map(lambda e: _unitriangular(3, e)))
    return st.lists(matrix, min_size=1, max_size=2).map(
        lambda ms: "\n".join(_matrix_text(n, e) for e in ms))


generator_files = st.one_of(matrix_files(2), matrix_files(3), st.sampled_from(MALFORMED))
# a group is an alias, or None for the generated file
groups = st.one_of(st.sampled_from(group_aliases()), st.none())
pmaxes = st.integers(1, 13).map(str)          # --pmax 1 is a usage error
limits = st.integers(1, 2000).map(str)         # --cap and --bound


@st.composite
def commands(draw):
    group = draw(groups)
    kind = draw(st.sampled_from(
        ("cong-scan", "cong-image", "oneforall", "lubotzky", "density", "chebotarev")))
    if kind == "cong-scan":
        argv = ["cong", "scan", "--group", group, "--pmax", draw(pmaxes),
                "--cap", draw(limits)]
    elif kind == "cong-image":
        argv = ["cong", "image", "--group", group, "--mod", str(draw(st.integers(1, 30))),
                "--cap", draw(limits)]
    elif kind == "oneforall":
        argv = ["cong", "oneforall", "--group", group, "--group", draw(st.sampled_from(group_aliases())),
                "--pmax", draw(pmaxes), "--cap", draw(limits), "--bad", "2"]
    elif kind == "lubotzky":
        argv = ["lubotzky", "scan", "--group", group, "--pmax", draw(pmaxes),
                "--cap", draw(limits)]
    elif kind == "density":
        argv = ["density", "check", "--group", group, "--maxlen", draw(st.integers(1, 3).map(str))]
    else:
        argv = ["nf", "chebotarev", "--field", draw(st.sampled_from(field_aliases())),
                "--bound", draw(limits)]
    return argv + ["--format", draw(st.sampled_from(("json", "text")))]


def run_cli(argv):
    """(exit code, stdout bytes, stderr text) of one in-process CLI run."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except Exception:
            code = None
            traceback.print_exc()
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def group_size(spec):
    """n of the group a --group argument names, or None when it does not load."""
    try:
        return load_group(spec).n
    except (DomainError, UsageError):
        return None


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(commands(), generator_files)
def test_cli_contract_holds_with_and_without_the_cache(argv, gens_text):
    with tempfile.TemporaryDirectory() as work:
        gfile = os.path.join(work, "drawn.gens")
        with open(gfile, "w", encoding="utf-8") as fh:
            fh.write(gens_text)
        argv = [gfile if a is None else a for a in argv]
        uncached = run_cli(argv)
        code, _, err = uncached
        n = group_size(argv[3]) if argv[2] == "--group" else None
        hypothesis.event(f"{argv[0]} {argv[1]}, n={n}: exit {code}")
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        pmax_ok = "--pmax" not in argv or argv[argv.index("--pmax") + 1] != "1"
        if argv[0] in ("density", "lubotzky") and n == 3 and pmax_ok:
            assert code == 1 and err.startswith("error UnsupportedDimension:"), err
        cached = argv + ["--cache-dir", os.path.join(work, "cache")]
        assert run_cli(cached) == uncached        # cold: computes and stores
        assert run_cli(cached) == uncached        # warm: reads what was stored
