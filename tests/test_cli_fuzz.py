"""Fuzz the CLI contract over the cached commands and `cong image`.

For any aliases, small 2x2, 3x3 and 4x4 generator files (singular and
malformed ones included), small --pmax/--cap/--maxlen/--bound/--mod values,
valid and malformed --bad sets and --config files, and either --format:

- the exit code is 0, 1 or 2, and stderr never holds a traceback;
- a malformed --bad set or config file is a usage error (exit 2);
- otherwise `density check` and `lubotzky scan` on a group with n >= 3 exit 1
  with UnsupportedDimension;
- a run with no cache, a cold run into a fresh cache directory and a warm run
  from it give the same stdout, stderr and exit code;
- with --out (every command but `cong image`), the file holds exactly the
  bytes the run prints without it, with no cache, cold and warm, and an --out
  path that cannot be written is a usage error.  A cached scan reads its
  groups as exact rows and builds them only on a miss, so all three runs are
  checked.

And for `nf chebotarev`, `nf factor` and `nf signature` over valid and
malformed --catalog files, whose fields of degree 3 and 4 send primes through
the batched Frobenius test, one of them with an abelian certificate:

- a malformed catalog, a forged certificate among them, is a usage error
  (exit 2), a reducible minimal polynomial the domain error ReducibleMinPoly
  (exit 1);
- a scan counts the same split primes as `is_split`, prime by prime, and
  `nf factor` and `nf signature` report the catalog field's factorization
  and signature;
- --out behaves as above.
"""

import contextlib
import io
import json
import os
import tempfile
import traceback

import pytest

from arithgroups.catalog import (
    field_aliases,
    group_aliases,
    load_field,
    load_group,
    read_field_catalog,
)
from arithgroups.cli import dispatch
from arithgroups.errors import DomainError, UsageError
from arithgroups.ideals import factor_prime
from arithgroups.numberfield import is_split
from arithgroups.primes import primes_upto

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
    elif n == 4:    # det 1 only, so that the chain runs at n = 4
        matrix = matrix.map(lambda e: _unitriangular(4, e))
    return st.lists(matrix, min_size=1, max_size=2).map(
        lambda ms: "\n".join(_matrix_text(n, e) for e in ms))


generator_files = st.one_of(matrix_files(2), matrix_files(3), matrix_files(4),
                            st.sampled_from(MALFORMED))
# a group is an alias, or None for the generated file
groups = st.one_of(st.sampled_from(group_aliases()), st.none())
pmaxes = st.integers(1, 13).map(str)          # --pmax 1 is a usage error
limits = st.integers(1, 2000).map(str)         # --cap and --bound
GOOD_BAD_SETS = ("2", "2,3", "3,5,7")
MALFORMED_BAD_SETS = ("x", "2,,3", "", "1.5")
GOOD_CONFIGS = ("pmax=7\n", "# scan settings\n\ncap=500\n", "format=text\n", "maxlen = 2\nexp=1\n")
# lines that do not parse; a value such as format=yaml can be overridden by an option
MALFORMED_CONFIGS = ("pmx=7\n", "pmax\n", "=7\n", "cap=abc\n")
# a config is None (no --config) or its file's text
configs = st.one_of(st.none(), st.sampled_from(GOOD_CONFIGS + MALFORMED_CONFIGS))
# an --out path under the work directory; the second names a missing directory
out_files = st.sampled_from(("report.out", os.path.join("missing", "report.out")))


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
                "--pmax", draw(pmaxes), "--cap", draw(limits),
                "--bad", draw(st.sampled_from(GOOD_BAD_SETS + MALFORMED_BAD_SETS))]
    elif kind == "lubotzky":
        argv = ["lubotzky", "scan", "--group", group, "--pmax", draw(pmaxes),
                "--cap", draw(limits)]
    elif kind == "density":
        argv = ["density", "check", "--group", group, "--maxlen", draw(st.integers(1, 3).map(str))]
    else:
        argv = ["nf", "chebotarev", "--field", draw(st.sampled_from(field_aliases())),
                "--bound", draw(limits)]
    out = None if kind == "cong-image" else draw(st.one_of(st.none(), out_files))
    return argv + ["--format", draw(st.sampled_from(("json", "text")))], out


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


def assert_out_file_holds_the_printed_bytes(argv, printed, work, out):
    """Run argv with --out, with no cache, cold and warm, against the run that printed."""
    code, stdout, _ = printed
    path = os.path.join(work, out)
    written = argv + ["--out", path]
    cached = written + ["--cache-dir", os.path.join(work, "out-cache")]
    for args in (written, cached, cached):        # no cache, cold, warm
        result = run_cli(args)
        if code != 0:
            assert result == printed
        elif os.path.isdir(os.path.dirname(path)):
            assert result == (0, b"", "")
            with open(path, "rb") as fh:
                assert fh.read() == stdout
            os.remove(path)
        else:
            assert result[:2] == (2, b"")
            assert result[2].startswith(f"usage error: cannot write output file {path}")


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(commands(), generator_files, configs)
def test_cli_contract_holds_with_and_without_the_cache(command, gens_text, config_text):
    argv, out = command
    with tempfile.TemporaryDirectory() as work:
        gfile = os.path.join(work, "drawn.gens")
        with open(gfile, "w", encoding="utf-8") as fh:
            fh.write(gens_text)
        argv = [gfile if a is None else a for a in argv]
        if config_text is not None:
            cfile = os.path.join(work, "drawn.conf")
            with open(cfile, "w", encoding="utf-8") as fh:
                fh.write(config_text)
            argv += ["--config", cfile]
        uncached = run_cli(argv)
        code, _, err = uncached
        n = group_size(argv[3]) if argv[2] == "--group" else None
        hypothesis.event(f"{argv[0]} {argv[1]}, n={n}: exit {code}")
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        malformed = (config_text in MALFORMED_CONFIGS
                     or "--bad" in argv and argv[argv.index("--bad") + 1] in MALFORMED_BAD_SETS)
        if malformed:
            assert code == 2, err
        pmax_ok = "--pmax" not in argv or argv[argv.index("--pmax") + 1] != "1"
        if argv[0] in ("density", "lubotzky") and (n or 0) >= 3 and pmax_ok and not malformed:
            assert code == 1 and err.startswith("error UnsupportedDimension:"), err
        cached = argv + ["--cache-dir", os.path.join(work, "cache")]
        assert run_cli(cached) == uncached        # cold: computes and stores
        assert run_cli(cached) == uncached        # warm: reads what was stored
        if out is not None:
            assert_out_file_holds_the_printed_bytes(argv, uncached, work, out)


# catalog records by name; the cubics and quartics leave primes to the Frobenius test
CATALOG_RECORDS = {
    "gauss": "name=gauss\nminpoly=1,0,1\ngalois=true\nmaximal=true\n",
    "cbrt3": "name=cbrt3\nminpoly=-3,0,0,1\n",
    "cyclic7": "name=cyclic7\nminpoly=-1,-2,1,1\ngalois=yes\n",   # disc 49, a square
    "plastic": "name=plastic\nminpoly=-1,-1,0,1\n",
    "qrt2": "name=qrt2\nminpoly=-2,0,0,0,1\n",
    "quartic229": "name=quartic229\nminpoly=1,1,0,0,1\nmaximal=1\n",
    # cyclic7 with its automorphisms x, x^2 - 2, 1 - x - x^2: one Frobenius test per class mod 49
    "abelian7": "name=abelian7\nminpoly=-1,-2,1,1\nautomorphisms=0,1;-2,0,1;1,-1,-1\n",
}
MALFORMED_RECORDS = {
    "nopoly": "name=nopoly\ngalois=true\n",
    "frac": "name=frac\nminpoly=1/2,0,1\n",
    "nonmonic": "name=nonmonic\nminpoly=-2,0,2\n",
    "flag": "name=flag\nminpoly=-2,0,1\ngalois=maybe\n",
    "": "minpoly=-2,0,1\n",                        # no name=
    "forged": "name=forged\nminpoly=-2,0,0,1\nautomorphisms=0,1;0,0,1;-1,0,1\n",  # x^3 - 2 is not Galois
    "badcert": "name=badcert\nminpoly=1,0,1\nautomorphisms=0,1;0,i\n",
}
REDUCIBLE_RECORDS = {"split": "name=split\nminpoly=-1,0,1\n"}
ALL_RECORDS = {**CATALOG_RECORDS, **MALFORMED_RECORDS, **REDUCIBLE_RECORDS}


@st.composite
def catalogs(draw):
    """(catalog record names, --field).

    The catalog has 1 to 3 valid records, and in a third of the draws one
    malformed or reducible record at a drawn position.
    """
    names = list(dict.fromkeys(draw(st.lists(st.sampled_from(sorted(CATALOG_RECORDS)),
                                             min_size=1, max_size=3))))
    bad = draw(st.sampled_from([None, None] + sorted(MALFORMED_RECORDS) + sorted(REDUCIBLE_RECORDS)))
    if bad is not None:
        names.insert(draw(st.integers(0, len(names))), bad)
    field = draw(st.one_of(st.sampled_from(names), st.sampled_from(field_aliases() + ["nosuch"])))
    return names, field


@st.composite
def chebotarev_runs(draw):
    """(catalog record names, --field, --bound, --format, --out)."""
    names, field = draw(catalogs())
    bound = str(draw(st.integers(1, 2000)))
    fmt = draw(st.sampled_from(("json", "text")))
    return names, field, bound, fmt, draw(out_files)


def write_catalog(work, names):
    catalog = os.path.join(work, "fields.cat")
    with open(catalog, "w", encoding="utf-8") as fh:
        fh.write("\n".join(ALL_RECORDS[name] for name in names))
    return catalog


def assert_catalog_exit(names, field, catalog, code, err):
    """Records are read in order, and the first bad one ends the run."""
    assert code in (0, 1, 2) and "Traceback" not in err, err
    bad = next((name for name in names if name not in CATALOG_RECORDS), None)
    if bad in MALFORMED_RECORDS:
        assert code == 2 and err.startswith(f"usage error: {catalog}: field "), err
    elif bad in REDUCIBLE_RECORDS:
        assert code == 1 and err.startswith("error ReducibleMinPoly:"), err
    elif field == "nosuch":
        assert code == 2 and err.startswith("usage error: "), err
    else:
        assert code == 0, err


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chebotarev_runs())
@hypothesis.example((["cyclic7"], "cyclic7", "2000", "json", "report.out"))
@hypothesis.example((["qrt2", "plastic"], "qrt2", "1999", "text", "report.out"))
def test_chebotarev_catalog_and_out_file(run):
    names, field, bound, fmt, out = run
    with tempfile.TemporaryDirectory() as work:
        catalog = write_catalog(work, names)
        argv = ["nf", "chebotarev", "--field", field, "--bound", bound,
                "--catalog", catalog, "--format", fmt]
        printed = run_cli(argv)
        code, stdout, err = printed
        hypothesis.event(f"exit {code}")
        assert_catalog_exit(names, field, catalog, code, err)
        if code == 0 and field in names and fmt == "json":
            K = read_field_catalog(catalog)[field]
            unramified = [p for p in primes_upto(int(bound)) if K.disc % p]
            assert json.loads(stdout)["split"] == sum(is_split(K, p) for p in unramified)
        assert_out_file_holds_the_printed_bytes(argv, printed, work, out)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(catalogs(), st.sampled_from(("factor", "signature")),
                  st.sampled_from(primes_upto(50)))
@hypothesis.example((["abelian7", "forged"], "abelian7"), "factor", 13)
def test_factor_and_signature_read_the_catalog(catalog_draw, command, prime):
    names, field = catalog_draw
    with tempfile.TemporaryDirectory() as work:
        catalog = write_catalog(work, names)
        argv = ["nf", command, "--field", field, "--catalog", catalog]
        if command == "factor":
            argv += ["--prime", str(prime)]
        code, stdout, err = run_cli(argv)
        hypothesis.event(f"nf {command}: exit {code}")
        assert_catalog_exit(names, field, catalog, code, err)
        if code != 0:
            return
        K = load_field(field, catalog)
        payload = json.loads(stdout)
        assert (payload["field"], payload["degree"]) == (K.name, K.degree)
        if command == "factor":
            fac = factor_prime(K, prime)
            assert payload["factors"] == [
                {"e": f.e, "f": f.f, "poly": [int(c) for c in f.factor_poly.coeffs]}
                for f in fac.factors]
        else:
            assert (payload["real_embeddings"], payload["complex_pairs"]) == K.signature
