"""The CLI imports only what a command runs.

`arithgroups --version` and a warm cache hit parse argv, read the group's rows
and read the cached bytes; neither may load a compute module, the matrix
layer or json.  Neither `--version` nor any cached run, miss or hit, loads
hashlib or OpenSSL's _hashlib: keys are hashed with CPython's built-in
sha256.  Neither `--version`, nor a warm hit on a built-in group or field,
nor a cold `cong`, `density check` or `lubotzky scan` command on a built-in
group or on a generator file of integers loads fractions (or the decimal
module it imports): over Q the matrix layer eliminates fraction-free and
divides once, at the end.  Nor does a cold `nf` command on a built-in field
or on a catalog field whose minimal polynomial and certificate are integral:
the resultant and the Sturm chain are computed over Z, and the Chebotarev
ratios are strings.  A command on a generator file with an entry such as 1/2
does, and so may a density verdict on integers whose printed common line has
such an entry, with the bytes it always printed, and a certificate with a
coefficient such as -4/2.  No `group lie` or `group reduce` command on a
built-in presentation, nor `group ros` over any built-in field, loads it
either: the polynomials keep int coefficients, each span and kernel is one
fraction-free elimination for all its targets, and the functionals of a
restriction of scalars are its integer kernel vectors.  Nor does `padic
eval` of an integer.  No command loads
dataclasses, the number-field commands load no matrix layer and `density
check` loads no congruence code.
Checking a minimal polynomial, to reject it or to build its field, loads no
padics.  Neither `density check` nor `lubotzky scan` loads the polynomial
presentation layer (groups and mpoly): the density verdict works on a
constant basis of sl_2.  Only a command that counts an image order loads the
stabiliser chain.
Each case runs the CLI in a fresh interpreter, as a user does, and lists the
modules loaded when it exits.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arithgroups

# the tree this run imports, so that a run with PYTHONPATH pointing at another
# tree checks that tree in its subprocesses as well as in-process
SRC = Path(arithgroups.__file__).resolve().parent.parent

COMPUTE_MODULES = {
    "arithgroups.abelian",
    "arithgroups.chain",
    "arithgroups.closure",
    "arithgroups.congruence",
    "arithgroups.density",
    "arithgroups.groups",
    "arithgroups.ideals",
    "arithgroups.mpoly",
    "arithgroups.numberfield",
    "arithgroups.padics",
    "arithgroups.poly",
}
# what a warm hit or --version has no use for, beyond the compute modules
MATRIX_LAYER = {"arithgroups.matrix", "arithgroups.rings", "arithgroups.primes", "json"}
# what no run without a non-integral rational in its input has a use for
RATIONALS = {"fractions", "decimal"}
# generator files read in cases below: integer tokens with signs and leading
# zeros (Sanov's group), and the same shape with non-integral entries
INTEGERS = "1 +2\n-0 1\n\n1 0\n0002 1\n"
HALVES = "1 1/2\n0 1\n\n1 0\n-2/4 1\n"
# a unipotent whose one eigenline is spanned by (1/2, 1), alone and with a
# second generator that moves that line
HALF_LINE = "3 -1\n4 -1\n"
HALF_LINE_MOVED = HALF_LINE + "\n1 1\n0 1\n"
# field catalogs: a certified cubic with integer certificate coefficients, an
# uncertified cubic, and the certified cubic with one coefficient written -4/2
CUBICS = ("name=abelian7\nminpoly=-1,-2,1,1\nautomorphisms=0,1;-2,0,1;1,-1,-1\ngalois=true\n\n"
          "name=plain\nminpoly=3,1,0,1\n")
HALF_CERTIFICATE = "name=abelian7\nminpoly=-1,-2,1,1\nautomorphisms=0,1;-4/2,0,1;1,-1,-1\n"
# what no run has a use for: keys are hashed without OpenSSL
HASHLIB = {"hashlib", "_hashlib"}

# Runs the CLI as `python -m arithgroups.cli ARGS` would, and at exit writes
# the names of the loaded modules, one a line, to the file named by the first
# argument.  It imports nothing the CLI might load.
LISTING_MAIN = """
import atexit, runpy, sys

listing = sys.argv.pop(1)

def dump():
    with open(listing, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))

atexit.register(dump)
runpy.run_module("arithgroups.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *argv, returncode=0):
    listing = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ARITHGROUPS_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", LISTING_MAIN, str(listing), *argv],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr.decode()
    return proc.stdout, set(listing.read_text(encoding="utf-8").split("\n"))


def test_version_loads_no_compute_module(tmp_path):
    out, modules = loaded_modules(tmp_path, "--version")
    assert out.strip() != b""
    assert "arithgroups.catalog" in modules      # the parser names the aliases
    assert not modules & (COMPUTE_MODULES | MATRIX_LAYER | RATIONALS)
    assert not modules & HASHLIB


def assert_warm_hit_loads_no_compute_module(tmp_path, argv, computing_module):
    cold_out, cold_modules = loaded_modules(tmp_path, *argv)
    assert computing_module in cold_modules      # the miss computed the scan
    assert not cold_modules & HASHLIB
    warm_out, warm_modules = loaded_modules(tmp_path, *argv)
    assert warm_out == cold_out
    assert {"arithgroups.catalog", "arithgroups.report"} <= warm_modules
    assert not warm_modules & (COMPUTE_MODULES | MATRIX_LAYER)
    assert not warm_modules & HASHLIB
    return warm_modules


def test_warm_cache_hit_loads_no_compute_module(tmp_path):
    argv = ("cong", "scan", "--group", "sanov", "--pmax", "31",
            "--cache-dir", str(tmp_path / "cache"))
    modules = assert_warm_hit_loads_no_compute_module(tmp_path, argv, "arithgroups.congruence")
    assert not modules & RATIONALS


@pytest.mark.parametrize("argv, computing_module", [
    (("cong", "oneforall", "--group", "sanov", "--group", "transvection", "--pmax", "7",
      "--bad", "2"), "arithgroups.congruence"),
    (("density", "check", "--group", "sanov", "--format", "text"), "arithgroups.density"),
    (("lubotzky", "scan", "--group", "sl2z", "--pmax", "7"), "arithgroups.density"),
], ids=["oneforall", "density-text", "lubotzky"])
def test_warm_hit_on_a_builtin_group_loads_no_fractions(tmp_path, argv, computing_module):
    # built-in rows hold ints, so neither the cache key nor the hit needs a Fraction
    argv += ("--cache-dir", str(tmp_path / "cache"))
    modules = assert_warm_hit_loads_no_compute_module(tmp_path, argv, computing_module)
    assert not modules & RATIONALS


@pytest.mark.parametrize("argv, computing_module", [
    (("cong", "oneforall", "--group", "sanov", "--group", "{file}", "--pmax", "7"),
     "arithgroups.congruence"),
    (("density", "check", "--group", "{file}", "--format", "text"), "arithgroups.density"),
    (("lubotzky", "scan", "--group", "{file}", "--pmax", "7"), "arithgroups.density"),
], ids=["oneforall", "density-text", "lubotzky"])
def test_warm_hit_on_a_generator_file_builds_no_group(tmp_path, argv, computing_module):
    # the file is read as exact rows; only a miss builds the group from them
    gens = tmp_path / "halves.gens"
    gens.write_text(HALVES, encoding="utf-8")
    argv = [str(gens) if a == "{file}" else a for a in argv]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    assert_warm_hit_loads_no_compute_module(tmp_path, argv, computing_module)


def test_warm_chebotarev_hit_on_a_field_alias_loads_no_compute_module(tmp_path):
    # the cache key comes from the alias's catalog record, not from a built field
    argv = ("nf", "chebotarev", "--field", "qi", "--bound", "10000",
            "--cache-dir", str(tmp_path / "cache"))
    modules = assert_warm_hit_loads_no_compute_module(tmp_path, argv, "arithgroups.numberfield")
    assert not modules & RATIONALS


@pytest.mark.parametrize("argv", [
    ("cong", "scan", "--group", "sl2z", "--pmax", "13"),
    ("lubotzky", "scan", "--group", "sanov", "--pmax", "13"),
    ("density", "check", "--group", "sanov"),
    ("nf", "chebotarev", "--field", "zeta5", "--bound", "1000"),
], ids=["cong-scan", "lubotzky-scan", "density-check", "nf-chebotarev"])
def test_cold_command_loads_no_dataclasses(tmp_path, argv):
    _, modules = loaded_modules(tmp_path, *argv, "--cache-dir", str(tmp_path / "cache"))
    assert "arithgroups.report" in modules and "json" in modules    # it rendered a report
    assert "dataclasses" not in modules
    assert not modules & HASHLIB


@pytest.mark.parametrize("argv", [
    ("nf", "chebotarev", "--field", "zeta5", "--bound", "1000"),
    ("nf", "factor", "--field", "qcbrt2", "--prime", "5"),
    ("nf", "signature", "--field", "qsqrt2"),
], ids=["chebotarev", "factor", "signature"])
def test_cold_number_field_command_loads_no_matrix_layer(tmp_path, argv):
    # only regular_representation, which no nf command runs, builds a Mat;
    # and a built-in field is built and used without a Fraction
    _, modules = loaded_modules(tmp_path, *argv)
    assert "arithgroups.numberfield" in modules
    assert "arithgroups.matrix" not in modules
    assert not modules & RATIONALS


@pytest.mark.parametrize("minpoly, returncode", [
    ("-1,0,1", 1),          # x^2 - 1: rejected by its rational root
    ("1,0,0,0,1", 0),       # x^4 + 1: reducible mod every prime, built by the factor search
], ids=["x2-1", "x4+1"])
def test_min_poly_check_loads_no_padics(tmp_path, minpoly, returncode):
    # the integer roots are read off the factor search's own Hensel lift
    catalog = tmp_path / "fields.catalog"
    catalog.write_text(f"name=k\nminpoly={minpoly}\n", encoding="utf-8")
    _, modules = loaded_modules(tmp_path, "nf", "signature", "--field", "k",
                                "--catalog", str(catalog), returncode=returncode)
    assert "arithgroups.numberfield" in modules
    assert "arithgroups.padics" not in modules


@pytest.mark.parametrize("argv, catalog, loads_ideals", [
    (("nf", "chebotarev", "--field", "qi", "--bound", "100000"), None, False),
    (("nf", "chebotarev", "--field", "qsqrt2", "--bound", "100000"), None, False),
    (("nf", "chebotarev", "--field", "qcbrt2", "--bound", "100000"), None, False),
    (("nf", "chebotarev", "--field", "zeta5", "--bound", "100000"), None, False),
    (("nf", "factor", "--field", "qcbrt2", "--prime", "5"), None, True),
    (("nf", "signature", "--field", "k"), "name=k\nminpoly=1,0,0,0,1\n", True),
], ids=["chebotarev-qi", "chebotarev-qsqrt2", "chebotarev-qcbrt2", "chebotarev-zeta5",
        "factor", "x4+1"])
def test_only_factoring_loads_the_ideal_layer(tmp_path, argv, catalog, loads_ideals):
    # a scan decides splitting by the character and the Frobenius test; x^4 + 1
    # is reducible mod every prime, so only the factor search proves it irreducible
    if catalog is not None:
        path = tmp_path / "fields.catalog"
        path.write_text(catalog, encoding="utf-8")
        argv += ("--catalog", str(path))
    _, modules = loaded_modules(tmp_path, *argv)
    assert "arithgroups.numberfield" in modules
    assert ("arithgroups.ideals" in modules) == loads_ideals


def test_cold_density_check_loads_no_congruence_code(tmp_path):
    # the verdict runs no closure: congruence is imported by the functions that close groups
    _, modules = loaded_modules(tmp_path, "density", "check", "--group", "sanov",
                                "--cache-dir", str(tmp_path / "cache"))
    assert "arithgroups.density" in modules
    assert not modules & {"arithgroups.congruence", "arithgroups.closure"}


@pytest.mark.parametrize("argv", [
    ("density", "check", "--group", "sanov"),
    ("lubotzky", "scan", "--group", "sanov", "--pmax", "31"),
], ids=["density-check", "lubotzky-scan"])
def test_cold_dichotomy_command_loads_no_presentation_layer(tmp_path, argv):
    # the verdict's Ad action runs on a constant sl_2 basis, not one derived from det = 1
    _, modules = loaded_modules(tmp_path, *argv)
    assert "arithgroups.density" in modules
    assert not modules & {"arithgroups.groups", "arithgroups.mpoly"}


@pytest.mark.parametrize("argv", [
    ("cong", "scan", "--group", "sl2z", "--pmax", "13"),
    ("cong", "image", "--group", "sanov", "--mod", "25"),
    ("lubotzky", "scan", "--group", "sanov", "--pmax", "13"),
], ids=["cong-scan", "cong-image", "lubotzky-scan"])
def test_cold_scan_loads_no_closure_engine(tmp_path, argv):
    # the stabiliser chain counts every image; only bfs_closure_flat imports closure
    _, modules = loaded_modules(tmp_path, *argv)
    assert "arithgroups.congruence" in modules
    assert "arithgroups.closure" not in modules


@pytest.mark.parametrize("argv, counts", [
    (("density", "check", "--group", "sanov"), False),
    (("cong", "index", "--size", "2", "--mod", "12"), False),
    (("cong", "image", "--group", "sanov", "--mod", "25"), True),
], ids=["density-check", "cong-index", "cong-image"])
def test_only_a_counted_image_loads_the_chain(tmp_path, argv, counts):
    # congruence imports the chain inside filtration_closure, its one caller
    _, modules = loaded_modules(tmp_path, *argv)
    assert ("arithgroups.chain" in modules) == counts


@pytest.mark.parametrize("argv, gens", [
    (("cong", "scan", "--group", "sl2z", "--pmax", "13", "--cache-dir", "{cache}"), None),
    (("cong", "scan", "--group", "{file}", "--pmax", "13", "--cache-dir", "{cache}"), INTEGERS),
    (("cong", "image", "--group", "sanov", "--mod", "25"), None),
    (("cong", "image", "--group", "transvection", "--mod", "65537"), None),
    (("cong", "image", "--group", "{file}", "--mod", "12"), INTEGERS),
    (("cong", "oneforall", "--group", "sanov", "--group", "transvection", "--pmax", "7",
      "--bad", "2", "--cache-dir", "{cache}"), None),
    (("cong", "oneforall", "--group", "{file}", "--group", "sl2z", "--pmax", "7",
      "--cache-dir", "{cache}"), INTEGERS),
    (("cong", "index", "--size", "2", "--mod", "12"), None),
    (("cong", "scan", "--group", "{file}", "--pmax", "13"), HALVES),
    (("cong", "image", "--group", "{file}", "--mod", "9"), HALVES),
], ids=["scan-sl2z", "scan-file", "image-sanov", "image-transvection", "image-file",
        "oneforall", "oneforall-file", "index", "scan-halves", "image-halves"])
def test_only_a_non_integral_entry_loads_fractions(tmp_path, argv, gens):
    # integral values stay ints through the catalog, the matrix layer and the reduction mod m
    path = tmp_path / "words.gens"
    if gens is not None:
        path.write_text(gens, encoding="utf-8")
    subs = {"{file}": str(path), "{cache}": str(tmp_path / "cache")}
    _, modules = loaded_modules(tmp_path, *(subs.get(a, a) for a in argv))
    assert "arithgroups.congruence" in modules
    if gens == HALVES:
        assert "fractions" in modules
    else:
        assert not modules & RATIONALS


@pytest.mark.parametrize("argv", [
    ("group", "lie", "--preset", "sl2"),
    ("group", "lie", "--preset", "so3"),
    ("group", "lie", "--preset", "sp2"),
    ("group", "reduce", "--preset", "sl2", "--prime", "5"),
    ("group", "ros", "--field", "qi", "--preset", "mult"),
    ("group", "ros", "--field", "qi", "--preset", "sl2"),
    ("group", "ros", "--field", "qsqrt2", "--preset", "mult"),
    ("group", "ros", "--field", "qcbrt2", "--preset", "sl2"),
], ids=["lie-sl2", "lie-so3", "lie-sp2", "reduce-sl2", "ros-qi-mult", "ros-qi-sl2",
        "ros-qsqrt2-mult", "ros-qcbrt2-sl2"])
def test_group_command_on_a_preset_loads_no_fractions(tmp_path, argv):
    # canonical rationals are read through their numerators and denominators,
    # so an integral presentation and its tangent space make no Fraction
    out, modules = loaded_modules(tmp_path, *argv)
    assert out.strip() != b""
    assert {"arithgroups.groups", "arithgroups.mpoly"} <= modules
    assert not modules & RATIONALS


@pytest.mark.parametrize("value, printed, loads_fractions", [
    ("-7", "-7/1", False),
    ("-7/2", "-7/2", True),
])
def test_padic_eval_of_an_integer_loads_no_fractions(tmp_path, value, printed, loads_fractions):
    # an integer --value is read as an int, whose numerator and denominator
    # padics reads as it reads a Fraction's, and printed as a/b all the same
    out, modules = loaded_modules(tmp_path, "padic", "eval", "--prime", "7", "--prec", "4",
                                  f"--value={value}")
    assert f'"value": "{printed}"'.encode() in out
    assert bool(modules & RATIONALS) == loads_fractions


DICHOTOMY_COMMANDS = {
    "density": ("density", "check", "--group", "{group}"),
    "lubotzky": ("lubotzky", "scan", "--group", "{group}", "--pmax", "7"),
}


def dichotomy_run(tmp_path, command, group, gens=None):
    if gens is not None:
        group = tmp_path / "words.gens"
        group.write_text(gens, encoding="utf-8")
    argv = [str(group) if a == "{group}" else a for a in DICHOTOMY_COMMANDS[command]]
    return loaded_modules(tmp_path, *argv)


@pytest.mark.parametrize("command", sorted(DICHOTOMY_COMMANDS))
@pytest.mark.parametrize("group, gens", [
    ("sanov", None),
    ("sl2z", None),
    ("transvection", None),
    ("triangular", None),
    (None, INTEGERS),
    (None, HALF_LINE_MOVED),
], ids=["sanov", "sl2z", "transvection", "triangular", "integers-file", "moved-line-file"])
def test_cold_dichotomy_command_on_integers_loads_no_fractions(tmp_path, command, group, gens):
    # traces, eigenvalues and the span stay ints; a rejected line is tested on integers
    _, modules = dichotomy_run(tmp_path, command, group, gens)
    assert "arithgroups.density" in modules
    assert not modules & RATIONALS


@pytest.mark.parametrize("command", sorted(DICHOTOMY_COMMANDS))
def test_cold_dichotomy_command_on_halves_loads_fractions(tmp_path, command):
    _, modules = dichotomy_run(tmp_path, command, None, HALVES)
    assert RATIONALS <= modules


@pytest.mark.parametrize("command, digest", [
    ("density", "8cd8320b0873c793cddad1d40545bb506bbd964d9a9e6b789902034c5e7e1132"),
    ("lubotzky", "4e7175d402b2d7912eb5713ab609bd1e01bcec9d5b9f108d16e92e70e1d7cef6"),
])
def test_common_line_with_a_half_prints_its_bytes(tmp_path, command, digest):
    # the NOT_DENSE line is ["1/2", 1]: the one Fraction the verdict makes
    out, _ = dichotomy_run(tmp_path, command, None, HALF_LINE)
    assert b'"1/2"' in out
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("field, catalog", [
    ("qi", None),
    ("qsqrt2", None),
    ("qcbrt2", None),
    ("zeta5", None),
    ("abelian7", CUBICS),
    ("plain", CUBICS),
], ids=["qi", "qsqrt2", "qcbrt2", "zeta5", "catalog-certified", "catalog-plain"])
def test_cold_chebotarev_loads_no_fractions(tmp_path, field, catalog):
    # the discriminant is a sub-resultant over Z, the Sturm chain is built
    # from signed pseudo-remainders, and the report's fractions are strings
    argv = ["nf", "chebotarev", "--field", field, "--bound", "100000"]
    if catalog is not None:
        path = tmp_path / "fields.catalog"
        path.write_text(catalog, encoding="utf-8")
        argv += ["--catalog", str(path)]
    out, modules = loaded_modules(tmp_path, *argv)
    assert b'"ratio": "' in out
    assert "arithgroups.numberfield" in modules
    assert not modules & RATIONALS


def test_cold_chebotarev_on_a_rational_certificate_loads_fractions(tmp_path):
    path = tmp_path / "fields.catalog"
    path.write_text(HALF_CERTIFICATE, encoding="utf-8")
    out, modules = loaded_modules(tmp_path, "nf", "chebotarev", "--field", "abelian7",
                                  "--catalog", str(path), "--bound", "1000")
    assert b'"split": 55' in out
    assert "fractions" in modules
