import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from arithgroups import cli
from arithgroups.catalog import group_aliases, load_group, read_group
from arithgroups.cli import dispatch
from arithgroups.report import ScanCache

GOLDEN = Path(__file__).parent / "golden"


def run(capfd, *argv):
    code = dispatch(list(argv))
    out, err = capfd.readouterr()
    return code, out, err


def test_nf_factor_qi_5(capfd):
    code, out, _ = run(capfd, "nf", "factor", "--field", "qi", "--prime", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [
        {"e": 1, "f": 1, "poly": [2, 1]},
        {"e": 1, "f": 1, "poly": [3, 1]},
    ]
    assert payload["verified"] is True


def test_usage_error_negative_prime(capfd):
    code, _, err = run(capfd, "nf", "factor", "--field", "qi", "--prime", "-1")
    assert code == 2


def test_usage_error_unknown_field(capfd):
    code, _, err = run(capfd, "nf", "factor", "--field", "nosuch", "--prime", "5")
    assert code == 2
    assert "nosuch" in err


def test_domain_error_exit_code_and_name(capfd):
    code, _, err = run(capfd, "cong", "image", "--group", "sl2z", "--mod", "31",
                       "--cap", "10")
    assert code == 1
    assert "Truncated" in err


def test_cong_image_sanov_mod_4(capfd):
    code, out, _ = run(capfd, "cong", "image", "--group", "sanov", "--mod", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["surjective"] is False
    assert payload["target_order"] == 48


def test_cong_index(capfd):
    code, out, _ = run(capfd, "cong", "index", "--size", "2", "--mod", "5")
    assert code == 0
    assert json.loads(out)["index"] == 120


def test_scan_reports_are_deterministic(capfd):
    code1, out1, _ = run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "13")
    code2, out2, _ = run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "13")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"group", "S", "records", "exceptional_primes"}
    assert payload["exceptional_primes"] == [2]


def test_text_format_renders_table(capfd):
    code, out, _ = run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "7",
                       "--format", "text")
    assert code == 0
    assert "[records]" in out and "surjective" in out


def test_golden_sanov_scan(capfd):
    code, out, _ = run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "31")
    assert code == 0
    assert out.encode() == (GOLDEN / "sanov_scan_p31.json").read_bytes()


@pytest.mark.parametrize("argv, golden, digest", [
    (("density", "check", "--group", "sanov"), "sanov_density.json",
     "4ffd00c8590e6c1a652fda998261e89ddc16ccc95f5b6e6ccf6c150a715f5d95"),
    (("density", "check", "--group", "triangular"), "triangular_density.json", None),
    (("lubotzky", "scan", "--group", "sanov", "--pmax", "31"), "sanov_lubotzky_p31.json",
     "1d29a1e9a14f81f361e3408efc8a08de321759980492b297b8629c9f82b3bf97"),
], ids=["density-sanov", "density-triangular", "lubotzky-sanov"])
def test_golden_dichotomy(capfd, argv, golden, digest):
    # the sanov files are the outputs whose digests perfbench/workloads.json pins
    expected = (GOLDEN / golden).read_bytes()
    assert digest is None or hashlib.sha256(expected).hexdigest() == digest
    code, out, _ = run(capfd, *argv)
    assert code == 0
    assert out.encode() == expected


@pytest.mark.parametrize("argv, digest", [
    (("density", "check", "--group", "sanov", "--format", "text"),
     "fb2063bd18c4fbc8513e95917feff012b65b069b40f309a621d389f4e5096e2a"),
    (("lubotzky", "scan", "--group", "sanov", "--pmax", "13", "--format", "text"),
     "a9676e6c9c0a5145bd75f6f3be8d24774272ec3f8086e6103fa1a49ef9b2e40d"),
], ids=["density-sanov", "lubotzky-sanov"])
def test_text_report_prints_an_integral_witness_trace_as_a_fraction(capfd, argv, digest):
    # the verdict's trace is the int 2; the report keeps the "2/1" a Fraction printed
    code, out, _ = run(capfd, *argv)
    assert code == 0
    assert '"trace": "2/1"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NOT_DENSE_GROUPS = {
    "rot": "0 -1\n1 0\n",                      # discriminant -4
    "frac": "1/2 3\n-1/3 2\n",                  # discriminant -7/4; the witness shows "-1/2"
    "commuting": "2 1\n1 1\n\n3 2\n2 1\n",      # discriminant 5, and the pair commutes
}


@pytest.mark.parametrize("name, fmt, golden", [
    ("rot", "json", "rot_density.json"),
    ("frac", "json", "frac_density.json"),
    ("frac", "text", "frac_density.txt"),
    ("commuting", "json", "commuting_density.json"),
])
def test_golden_quadratic_not_dense_witness(capfd, tmp_path, name, fmt, golden):
    # the common line is defined only over a quadratic field
    path = tmp_path / f"{name}.gens"
    path.write_text(NOT_DENSE_GROUPS[name])
    code, out, _ = run(capfd, "density", "check", "--group", str(path), "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_golden_ad_span_closes_short(capfd, tmp_path):
    # the normaliser of a split torus: the Ad-span stops growing at dimension 5,
    # so the report pins stabilization_length for a span that is not full
    path = tmp_path / "torus_normaliser.gens"
    path.write_text("2 1\n1 1\n\n0 -1\n1 0\n")
    code, out, _ = run(capfd, "density", "check", "--group", str(path), "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN / "torus_normaliser_density.json").read_bytes()


def test_golden_qi_chebotarev(capfd):
    code, out, _ = run(capfd, "nf", "chebotarev", "--field", "qi", "--bound", "10000")
    assert code == 0
    assert out.encode() == (GOLDEN / "qi_chebotarev_1e4.json").read_bytes()


@pytest.mark.parametrize("field", ["qsqrt2", "qcbrt2", "zeta5"])
def test_golden_chebotarev_1e5(capfd, field):
    # pinned before the per-class character table; the scan must not move a byte
    code, out, _ = run(capfd, "nf", "chebotarev", "--field", field, "--bound", "100000")
    assert code == 0
    assert out.encode() == (GOLDEN / f"{field}_chebotarev_1e5.json").read_bytes()


def test_golden_zeta5_chebotarev_1e6(capfd):
    # pinned before the per-class Frobenius verdict of certified abelian fields
    code, out, _ = run(capfd, "nf", "chebotarev", "--field", "zeta5", "--bound", "1000000")
    assert code == 0
    assert out.encode() == (GOLDEN / "zeta5_chebotarev_1e6.json").read_bytes()


def test_golden_sl2_lie(capfd):
    code, out, _ = run(capfd, "group", "lie", "--preset", "sl2")
    assert code == 0
    assert out.encode() == (GOLDEN / "sl2_lie.json").read_bytes()


def test_cache_coherence(capfd, tmp_path):
    import random

    rng = random.Random(99)
    cache = tmp_path / "cache"
    fresh = {}
    for _ in range(20):
        pmax = rng.choice([5, 7, 11, 13])
        code, out, _ = run(capfd, "cong", "scan", "--group", "sanov",
                           "--pmax", str(pmax), "--cache-dir", str(cache))
        assert code == 0
        if pmax not in fresh:
            # uncached reference run for this parameter set
            code, ref, _ = run(capfd, "cong", "scan", "--group", "sanov",
                               "--pmax", str(pmax))
            assert code == 0
            fresh[pmax] = ref
        assert out == fresh[pmax]
    entries = list(cache.iterdir())
    assert len(entries) == len(fresh)
    assert all(e.suffix == ".bin" for e in entries)


def test_cache_distinguishes_parameters(capfd, tmp_path):
    cache = tmp_path / "cache"
    run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "13",
        "--cache-dir", str(cache))
    run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "11",
        "--cache-dir", str(cache))
    assert len(list(cache.iterdir())) == 2


def test_cache_key_tracks_source_digest(capfd, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    argv = ("cong", "scan", "--group", "sanov", "--pmax", "7", "--cache-dir", str(cache))
    assert run(capfd, *argv)[0] == 0
    assert run(capfd, *argv)[0] == 0
    assert len(list(cache.iterdir())) == 1      # the second run hit
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    assert run(capfd, *argv)[0] == 0
    assert len(list(cache.iterdir())) == 2      # a changed digest missed


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """A copy of the package's sources, which cli.source_digest then reads."""
    copy = tmp_path / "arithgroups"
    shutil.copytree(Path(cli.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    return copy


def test_source_digest_covers_the_kernel_source(package_copy):
    before = cli.source_digest.__wrapped__()
    with open(package_copy / "closure.py", "a", encoding="utf-8") as fh:
        fh.write("# an edit to the closure engine\n")
    assert cli.source_digest.__wrapped__() != before


# the keys hashlib.sha256 forms for these inputs: a changed key would orphan
# every entry a user has cached
PINNED_KEYS = [
    (("cong-scan:json", "sanov|31"),
     "f297fd1b1bc7bdb4fec0392d765f8375539de1b4903c15858cf1e495a0722274"),
    (("x", b"\x00\xff"),
     "86eb45b89d746b67853eafdba754a61e00d84088c78fb25c9144fc11d16077de"),
]


def test_cache_keys_are_pinned(tmp_path):
    cache = ScanCache(str(tmp_path), "0.1+abc")
    for args, key in PINNED_KEYS:
        assert cache.key(*args) == key


def test_source_digest_is_hashlib_sha256_of_the_framed_sources(package_copy):
    expected = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package_copy) if f.endswith(".py")):
        expected.update(name.encode() + b"\x00" + (package_copy / name).read_bytes() + b"\x00")
    assert cli.source_digest.__wrapped__() == expected.hexdigest()


# Hides the built-in sha256 modules, so report.sha256 falls back to hashlib,
# and prints the pinned keys and the source digest.
FALLBACK_MAIN = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from arithgroups import cli
from arithgroups.report import ScanCache
cache = ScanCache(sys.argv[1], "0.1+abc")
print(cache.key("cong-scan:json", "sanov|31"))
print(cache.key("x", b"\\x00\\xff"))
print(cli.source_digest())
print("hashlib" in sys.modules)
"""


def test_hashlib_fallback_gives_the_same_keys(tmp_path):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FALLBACK_MAIN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *keys, digest, used_hashlib = proc.stdout.split()
    assert keys == [key for _, key in PINNED_KEYS]
    assert digest == cli.source_digest()
    assert used_hashlib == "True"


def test_cache_env_var(capfd, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("ARITHGROUPS_CACHE_DIR", str(cache))
    code, out, _ = run(capfd, "density", "check", "--group", "triangular")
    assert code == 0
    assert cache.exists() and list(cache.iterdir())


def test_config_file(capfd, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("pmax=7\nformat=text\n")
    code, out, _ = run(capfd, "cong", "scan", "--group", "sanov", "--config", str(cfg))
    assert code == 0
    assert "[records]" in out
    assert " 11 " not in out       # pmax from config cuts the scan at 7


def test_config_validation(capfd, tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("format=yaml\n")
    code, _, err = run(capfd, "cong", "scan", "--group", "sanov", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("text, line", [
    ("pmx=7\n", 1),                 # a misspelt key would otherwise run the default pmax
    ("# comment\n\npmax\n", 3),     # no '='
    ("format=text\ncap=abc\n", 2),  # not an integer
    ("maxlen=0\n", 1),              # --maxlen 0 is a usage error too
    ("pmax=1\n", 1),                # range checks name the line too
    ("cap=5\npmax=10000000000\n", 2),
    ("# report\nformat=xml\n", 2),
], ids=["unknown-key", "no-equals", "not-an-integer", "not-positive",
        "pmax-below-2", "pmax-above-1e6", "unknown-format"])
def test_malformed_config_line_is_a_usage_error(capfd, tmp_path, text, line):
    cfg = tmp_path / "typo.conf"
    cfg.write_text(text)
    code, out, err = run(capfd, "cong", "scan", "--group", "sanov", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: config file {cfg} line {line}: "), err
    assert "Traceback" not in err


def test_group_file_loading(capfd, tmp_path):
    gfile = tmp_path / "halfgroup.gens"
    gfile.write_text("1 1/2\n0 1\n\n1 0\n1 1\n")
    code, out, _ = run(capfd, "cong", "scan", "--group", str(gfile), "--pmax", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["S"] == [2]
    assert [r["m"] for r in payload["records"]] == [3, 5, 7]   # 2 is skipped


def test_density_and_lubotzky_cli(capfd):
    code, out, _ = run(capfd, "density", "check", "--group", "sanov")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "DENSE_EVIDENCE"
    assert payload["ad_span_dim"] == 9

    code, out, _ = run(capfd, "lubotzky", "scan", "--group", "sanov", "--pmax", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["verdict"] == "DENSE_EVIDENCE"
    by_p = {r["p"]: r for r in payload["records"]}
    assert by_p[5]["psl_quotient_order"] == 60
    assert by_p[7]["psl_quotient_order"] == 168


def test_group_ros_and_presentation_roundtrip(capfd, tmp_path):
    pres_file = tmp_path / "ros.pres"
    code, out, _ = run(capfd, "group", "ros", "--field", "qsqrt2",
                       "--preset", "mult", "--write-presentation", str(pres_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["linear_family_equations"] == 2
    code, out, _ = run(capfd, "group", "lie", "--file", str(pres_file))
    assert code == 0
    lie = json.loads(out)
    assert lie["dimension"] == 2      # the restriction of G_x has dimension d


def test_group_lie_on_a_non_group_presentation_names_the_bracket(capfd, tmp_path):
    # x12 = x21 at the identity: the symmetric matrices, whose bracket
    # [E11, E12 + E21] = E12 - E21 is not symmetric
    pres = _user_file(tmp_path, "sym.pres", "n=2\nlabel=symmetric\npoly=0,1,0,0:1 0,0,1,0:-1\n")
    code, out, err = run(capfd, "group", "lie", "--file", str(pres))
    assert (code, out) == (1, "")
    assert err == ("error BracketNotClosed: [b0, b1] lies outside the span: "
                   "the input is not a group presentation\n")


def test_group_reduce_cli(capfd):
    code, out, _ = run(capfd, "group", "reduce", "--preset", "sl2", "--prime", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["good_reduction"] is True


def test_padic_cli(capfd):
    code, out, _ = run(capfd, "padic", "lift", "--coeffs", "1,0,1", "--prime", "5",
                       "--root", "2", "--prec", "2")
    assert code == 0
    assert json.loads(out)["lifted_residue"] == 7

    code, out, _ = run(capfd, "padic", "eval", "--prime", "5", "--prec", "3",
                       "--value", "7")
    assert code == 0
    assert json.loads(out)["unit_digits"] == [2, 1, 0]


def test_padic_lift_of_a_non_root_is_a_domain_error(capfd):
    code, _, err = run(capfd, "padic", "lift", "--coeffs", "1,0,1", "--prime", "5",
                       "--root", "1", "--prec", "5")
    assert code == 1
    assert "error NotARoot:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("padic", "eval", "--value", "1/0", "--prime", "5", "--prec", "3"),
    ("padic", "lift", "--coeffs", "1,a", "--prime", "5", "--root", "1", "--prec", "5"),
])
def test_padic_malformed_number_is_a_usage_error(capfd, argv):
    code, _, err = run(capfd, *argv)
    assert code == 2
    assert "error: argument --" in err and "Traceback" not in err


def test_nf_signature_cli(capfd):
    code, out, _ = run(capfd, "nf", "signature", "--field", "qcbrt2")
    assert code == 0
    payload = json.loads(out)
    assert payload["real_embeddings"] == 1 and payload["complex_pairs"] == 1


def test_oneforall_cli(capfd):
    code, out, _ = run(capfd, "cong", "oneforall", "--group", "sanov",
                       "--group", "transvection", "--pmax", "13", "--bad", "2")
    assert code == 0
    payload = json.loads(out)
    rows = {r["label"]: r for r in payload["rows"]}
    assert rows["sanov"]["witnesses_implication"] is True
    assert rows["transvection"]["witnesses_implication"] is False


@pytest.mark.parametrize("bad", ["x", "2,,3"])
def test_oneforall_malformed_bad_set_is_a_usage_error(capfd, bad):
    code, out, err = run(capfd, "cong", "oneforall", "--group", "sanov", "--pmax", "7", "--bad", bad)
    assert code == 2 and out == ""
    assert "argument --bad: expected comma-separated integers" in err
    assert "Traceback" not in err


def test_oneforall_omitted_bad_set_is_empty(capfd):
    code, out, _ = run(capfd, "cong", "oneforall", "--group", "sanov", "--pmax", "7")
    assert code == 0
    assert json.loads(out)["bad_set"] == []


def test_catalog_file_flag(capfd, tmp_path):
    cat = tmp_path / "fields.catalog"
    cat.write_text(
        "name=qsqrt3\nminpoly=-3,0,1\ngalois=true\nmaximal=true\n"
    )
    code, out, _ = run(capfd, "nf", "factor", "--field", "qsqrt3",
                       "--catalog", str(cat), "--prime", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_e_f"] == 2


def test_nf_chebotarev_cache_key_includes_galois(capfd, tmp_path):
    # two catalogs give one field name and min poly, and differ only in the galois flag
    cache = tmp_path / "cache"
    runs = []
    for flag in ("true", "false"):
        cat = tmp_path / f"galois-{flag}.catalog"
        cat.write_text(f"name=g\nminpoly=1,0,1\ngalois={flag}\n")
        argv = ("nf", "chebotarev", "--field", "g", "--catalog", str(cat), "--bound", "1000")
        uncached = run(capfd, *argv)
        assert uncached[0] == 0
        assert json.loads(uncached[1])["sample_only"] is (flag == "false")
        runs.append((argv, uncached))
    for _ in ("cold", "warm"):
        for argv, uncached in runs:
            assert run(capfd, *argv, "--cache-dir", str(cache)) == uncached


def test_oneforall_cache_key_includes_cap(capfd, tmp_path):
    cache = tmp_path / "cache"
    capped = ("cong", "oneforall", "--group", "sanov", "--pmax", "13", "--cap", "100",
              "--cache-dir", str(cache))
    cold, _, err = run(capfd, *capped)
    assert cold == 1 and "Truncated" in err
    code, _, _ = run(capfd, "cong", "oneforall", "--group", "sanov", "--pmax", "13",
                     "--cache-dir", str(cache))
    assert code == 0                 # the uncapped report is now cached
    warm, _, err = run(capfd, *capped)
    assert warm == cold and "Truncated" in err


@pytest.mark.parametrize("argv", [
    ("cong", "index", "--size", "5", "--mod", "7"),
    ("cong", "index", "--mod", "2000000"),
    ("cong", "image", "--group", "sanov", "--mod", "1"),
])
def test_argument_range_is_a_usage_error(capfd, argv):
    code, _, err = run(capfd, *argv)
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.fixture
def no_sieve(monkeypatch):
    """Fail any scan that gets as far as sieving its primes."""
    from arithgroups import congruence, density, numberfield

    def refuse(n):
        raise AssertionError(f"sieve of {n} allocated")

    for module, sieve in ((congruence, "primes_upto"), (density, "primes_upto"),
                          (numberfield, "iter_primes"), (numberfield, "count_primes_by_class")):
        monkeypatch.setattr(module, sieve, refuse)


@pytest.mark.parametrize("argv, message", [
    (("nf", "chebotarev", "--field", "qi", "--bound", "10000000000"), "bound must be <= 10^8"),
    (("nf", "chebotarev", "--field", "qi", "--bound", "100000001"), "bound must be <= 10^8"),
    (("cong", "scan", "--group", "sl2z", "--pmax", "10000000000"), "pmax must be <= 10^6"),
    (("cong", "scan", "--group", "sl2z", "--pmax", "1000001"), "pmax must be <= 10^6"),
    (("cong", "oneforall", "--group", "sanov", "--pmax", "1000001"), "pmax must be <= 10^6"),
    (("lubotzky", "scan", "--group", "sanov", "--pmax", "1000001"), "pmax must be <= 10^6"),
])
def test_huge_scan_range_is_a_usage_error(capfd, no_sieve, argv, message):
    code, out, err = run(capfd, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: " + message), err


def test_huge_pmax_in_config_is_a_usage_error(capfd, no_sieve, tmp_path):
    cfg = tmp_path / "big.conf"
    cfg.write_text("pmax=10000000000\n")
    code, out, err = run(capfd, "cong", "scan", "--group", "sl2z", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: config file {cfg} line 1: pmax must be <= 10^6"), err


def test_scan_range_limits_are_inclusive(monkeypatch):
    from arithgroups import numberfield
    from arithgroups.catalog import builtin_field

    assert cli.RunConfig(pmax=cli.MAX_PMAX).validate().pmax == 10 ** 6
    monkeypatch.setattr(numberfield, "iter_primes", lambda n: iter(()))
    monkeypatch.setattr(numberfield, "count_primes_by_class", lambda n, modulus: [])
    rep = numberfield.chebotarev_scan(builtin_field("qi"), numberfield.MAX_BOUND)
    assert (rep.bound, rep.total) == (10 ** 8, 0)


def test_lubotzky_scan_rejects_non_sl2_group(capfd, tmp_path):
    gfile = tmp_path / "sl3.gens"
    gfile.write_text("1 1 0\n0 1 0\n0 0 1\n\n1 0 0\n0 1 1\n0 0 1\n")
    code, _, err = run(capfd, "lubotzky", "scan", "--group", str(gfile), "--pmax", "5")
    assert code == 1
    assert "error UnsupportedDimension:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("group", "reduce", "--preset", "nosuch", "--prime", "5"),
    ("group", "lie", "--preset", "nosuch"),
    ("group", "ros", "--field", "qi", "--preset", "nosuch"),
])
def test_unknown_preset_is_a_usage_error(capfd, argv):
    code, _, err = run(capfd, *argv)
    assert code == 2
    assert "invalid choice: 'nosuch'" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "\n",                                   # empty: one blank line
    "1 a\n0 1\n",                           # a token that is not a rational
    "1 1\n0\n",                             # ragged rows
    "1 1\n0 1\n\n1 0 0\n0 1 0\n0 0 1\n",    # generators of mixed sizes
], ids=["empty", "bad-token", "ragged", "mixed-sizes"])
def test_malformed_generator_file_is_a_usage_error(capfd, tmp_path, text):
    gfile = tmp_path / "bad.gens"
    gfile.write_text(text)
    code, out, err = run(capfd, "cong", "image", "--group", str(gfile), "--mod", "5")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(gfile) in err and "Traceback" not in err


def test_unreadable_generator_file_is_a_usage_error(capfd, tmp_path):
    (tmp_path / "dir.gens").mkdir()
    (tmp_path / "latin1.gens").write_bytes(b"\xff 1\n0 1\n")
    for gfile in (tmp_path / "dir.gens", tmp_path / "latin1.gens"):
        code, _, err = run(capfd, "cong", "image", "--group", str(gfile), "--mod", "5")
        assert code == 2
        assert err.startswith("usage error:") and str(gfile) in err and "Traceback" not in err


def _user_file(tmp_path, name, text):
    """tmp_path/name holding text; a directory for "<dir>", nothing for "<missing>"."""
    path = tmp_path / name
    if text == "<dir>":
        path.mkdir()
    elif text != "<missing>":
        path.write_text(text)
    return path


@pytest.mark.parametrize("text", [
    "name=bad\nminpoly=1,a\n",
    "name=bad\nminpoly=1,0,2\n",
    "name=bad\nminpoly=1,0,1\ngalois=maybe\n",
    "<dir>",
    "<missing>",
], ids=["bad-coefficient", "not-monic", "bad-boolean", "directory", "missing"])
def test_malformed_field_catalog_is_a_usage_error(capfd, tmp_path, text):
    cat = _user_file(tmp_path, "bad.cat", text)
    code, out, err = run(capfd, "nf", "signature", "--field", "bad", "--catalog", str(cat))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(cat) in err and "Traceback" not in err


def test_reducible_catalog_field_stays_a_domain_error(capfd, tmp_path):
    cat = _user_file(tmp_path, "red.cat", "name=red\nminpoly=-1,0,1\n")
    code, _, err = run(capfd, "nf", "signature", "--field", "red", "--catalog", str(cat))
    assert code == 1
    assert err.startswith("error ReducibleMinPoly:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["group", "lie"],
    ["group", "reduce", "--prime", "3"],
    ["group", "ros", "--field", "qi"],
], ids=["lie", "reduce", "ros"])
@pytest.mark.parametrize("text", [
    "n=1\npoly=1,0:abc\n",
    "poly=1:1\nn=1\n",
    "n=0\n",
    "<missing>",
], ids=["bad-poly", "poly-before-n", "size-zero", "missing"])
def test_malformed_presentation_file_is_a_usage_error(capfd, tmp_path, argv, text):
    pres = _user_file(tmp_path, "bad.pres", text)
    code, out, err = run(capfd, *argv, "--file", str(pres))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(pres) in err and "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (["cong", "scan", "--group", "sanov", "--pmax", "5", "--out"], "<dir>"),
    (["group", "ros", "--field", "qi", "--preset", "mult", "--write-presentation"], "<dir>"),
    (["cong", "scan", "--group", "sanov", "--pmax", "5", "--cache-dir"], "a file\n"),
], ids=["out-directory", "presentation-directory", "cache-dir-file"])
def test_unwritable_output_path_is_a_usage_error(capfd, tmp_path, argv, text):
    path = _user_file(tmp_path, "taken", text)
    code, out, err = run(capfd, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(path) in err and "Traceback" not in err


def test_cong_image_checks_the_range_before_closing(capfd):
    code, _, err = run(capfd, "cong", "image", "--group", "sanov", "--mod", "2000000",
                       "--cap", "10")
    assert code == 2
    assert err.startswith("usage error:") and "Truncated" not in err


def test_cong_image_cap_bounds_the_closure_mod_the_radical(capfd):
    code, out, _ = run(capfd, "cong", "image", "--group", "sl2z", "--mod", "121",
                       "--cap", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["image_order"] == 1756920 and payload["surjective"] is True
    code, _, err = run(capfd, "cong", "image", "--group", "sl2z", "--mod", "121",
                       "--cap", "1000")
    assert code == 1
    assert "error Truncated: closure mod 11 exceeded the cap 1000" in err


def _raise_permission_error(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


@pytest.mark.parametrize("module, attr", [
    (tempfile, "mkstemp"),
    (os, "replace"),
], ids=["temp-file", "rename"])
def test_unwritable_cache_directory_is_a_usage_error(capfd, tmp_path, monkeypatch, module, attr):
    # root may write into a read-only directory, so the failing call is patched in
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(module, attr, _raise_permission_error)
    code, out, err = run(capfd, "cong", "scan", "--group", "sanov", "--pmax", "5",
                         "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(cache) in err and "Traceback" not in err
    assert list(cache.iterdir()) == []          # the temporary file is gone too


def test_unreadable_cache_entry_is_a_usage_error(capfd, tmp_path):
    cache = tmp_path / "cache"
    argv = ("cong", "scan", "--group", "sanov", "--pmax", "5", "--cache-dir", str(cache))
    assert run(capfd, *argv)[0] == 0
    [entry] = cache.iterdir()
    entry.unlink()
    entry.mkdir()                               # the entry's path is now a directory
    code, out, err = run(capfd, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(cache) in err and "Traceback" not in err


def test_singular_generator_file_fails_on_every_run_and_caches_nothing(capfd, tmp_path):
    gfile = tmp_path / "singular.gens"
    gfile.write_text("1 1\n1 1\n")
    cache = tmp_path / "cache"
    for _ in range(2):
        code, out, err = run(capfd, "cong", "scan", "--group", str(gfile), "--pmax", "7",
                             "--cache-dir", str(cache))
        assert code == 1 and out == ""
        assert err.startswith("error NotInvertible:") and "Traceback" not in err
    assert not cache.exists() or list(cache.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["cong", "scan", "--group", "{file}", "--pmax", "7"],
    ["cong", "oneforall", "--group", "sanov", "--group", "{file}", "--pmax", "7"],
    ["cong", "oneforall", "--group", "{file}", "--group", "nosuch", "--pmax", "7"],
    ["density", "check", "--group", "{file}"],
    ["lubotzky", "scan", "--group", "{file}", "--pmax", "7"],
], ids=["cong-scan", "oneforall", "oneforall-then-unknown", "density", "lubotzky"])
def test_singular_group_error_wins_over_a_cache_error(capfd, tmp_path, argv):
    # a hit builds no group, so a cache that cannot be used must not hide
    # the domain error that the uncached run reports
    gfile = _user_file(tmp_path, "singular.gens", "1 1\n1 1\n")
    argv = [str(gfile) if a == "{file}" else a for a in argv]
    uncached = run(capfd, *argv)
    assert uncached[0] == 1 and uncached[1] == ""
    assert uncached[2].startswith("error NotInvertible:")
    taken = _user_file(tmp_path, "taken", "a file\n")
    assert run(capfd, *argv, "--cache-dir", str(taken)) == uncached


def _canonical_from_built_group(G):
    """The cache-key text as it was formed from a built SIntegerGroup."""
    gens = ";".join(",".join(str(Fraction(x)) for x in g.flat()) for g in G.gens)
    return f"{G.label}|n={G.n}|{gens}"


@pytest.mark.parametrize("spec", group_aliases() + ["{file}"])
def test_group_canonical_of_the_rows_keeps_the_cache_keys(tmp_path, spec):
    if spec == "{file}":
        spec = str(_user_file(tmp_path, "halves.gens", "2/4 -3/6\n0 2\n\n1 0\n4/2 1\n"))
    label, rows = read_group(spec)
    assert cli._group_canonical(label, rows) == _canonical_from_built_group(load_group(spec))


PARSER_ARGVS = (
    [["--help"]]
    + [[group, "--help"] for group in cli.COMMANDS]
    + [[group, sub, "--help"] for group, (_, subs) in cli.COMMANDS.items() for sub in subs]
    + [
        [],                                                       # no group
        ["bogus"],                                                # unknown group
        ["cong", "bogus"],                                        # unknown subcommand
        ["cong"],                                                 # group with no subcommand
        ["cong", "scan"],                                         # missing required option
        ["cong", "scan", "--grou"],                               # abbreviated option, no value
        ["cong", "image", "--grou", "sanov"],                     # abbreviated, then --mod missing
        ["cong", "scan", "--group", "sanov", "--pmax", "x"],      # bad type= value
        ["cong", "index", "--mod", "4", "extra"],                 # trailing extra argument
        ["--", "cong", "index", "--mod", "4"],                    # -- before the group
        ["cong", "--", "index", "--mod", "4"],
        ["--bogus", "cong", "index", "--mod", "4"],
        ["-5", "cong", "index"],                                  # argparse reads -5 as a positional
        ["cong", "-5", "index"],
        ["group", "lie", "--preset", "nope"],
        ["padic", "eval", "--prime", "5", "--prec", "3", "--value", "1/0"],
        ["cong", "index", "--mo", "6"],                           # abbreviation that parses
        ["density", "-h", "check"],
        ["--version"],
    ]
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_parser_for_the_named_subcommand_agrees_with_the_full_parser(capfd, monkeypatch, argv):
    named = run(capfd, *argv)
    build_in_full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: build_in_full())
    assert run(capfd, *argv) == named


def test_build_parser_gives_options_only_to_the_named_subcommand(capfd):
    parser = cli.build_parser(["cong", "scan", "--group", "sanov"])
    assert parser.parse_args(["cong", "scan", "--group", "sanov"]).func is cli.cmd_cong_scan
    with pytest.raises(SystemExit):
        parser.parse_args(["cong", "index", "--mod", "4"])     # index is named, not built
    assert "unrecognized arguments: --mod 4" in capfd.readouterr().err
    full = cli.build_parser()
    assert full.parse_args(["cong", "index", "--mod", "4"]).func is cli.cmd_cong_index
