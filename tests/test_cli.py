import json
import os
import shutil
from pathlib import Path

import pytest

from arithgroups import cli
from arithgroups.cli import dispatch

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


def test_golden_qi_chebotarev(capfd):
    code, out, _ = run(capfd, "nf", "chebotarev", "--field", "qi", "--bound", "10000")
    assert code == 0
    assert out.encode() == (GOLDEN / "qi_chebotarev_1e4.json").read_bytes()


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


def test_source_digest_covers_the_kernel_source(tmp_path, monkeypatch):
    copy = tmp_path / "arithgroups"
    shutil.copytree(Path(cli.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    before = cli.source_digest.__wrapped__()
    with open(copy / "_closure.c", "a", encoding="utf-8") as fh:
        fh.write("/* an edit to the kernel */\n")
    assert cli.source_digest.__wrapped__() != before


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
