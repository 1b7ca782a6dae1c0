"""Command-line front end.

Exit codes: 0 success, 1 domain error (the module error name is serialized
verbatim), 2 usage error.  Reports are byte-stable: JSON with sorted keys and
canonically ordered arrays, or a fixed-width text table via --format text.
"""

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .catalog import field_aliases, group_aliases, load_field, load_group
from .congruence import (
    DEFAULT_CAP,
    exact_image_record,
    one_for_all_scan,
    principal_congruence_index,
    strong_approx_scan,
)
from .density import CRITERION_NOTE, density_verdict, lubotzky_scan
from .errors import DomainError, UsageError
from .groups import (
    form_group,
    mult_group,
    reduce_mod_p,
    restriction_of_scalars,
    sl_group,
    tangent_space_at_identity,
    unitriangular_group,
    write_presentation,
    read_presentation,
)
from .matrix import Mat
from .numberfield import chebotarev_scan, factor_prime
from .padics import PadicInt, PadicNumber, hensel_lift, vp
from .report import ScanCache, jsonable, render_report
from .rings import QQ


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def int_list_arg(text):
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text}")


def rational_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact rational a/b with b != 0, got {text}")


def prime_arg(text):
    from .primes import is_prime

    value = int(text)
    if value < 2 or not is_prime(value):
        raise argparse.ArgumentTypeError(f"expected a prime, got {text}")
    return value


@dataclass
class RunConfig:
    pmax: int = 31
    exp: int = 1
    cap: int = DEFAULT_CAP
    maxlen: int = 8
    catalog: str = None
    fmt: str = "json"
    cache_dir: str = None

    def validate(self):
        if self.pmax < 2:
            raise ValueError("pmax must be >= 2")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.fmt not in ("json", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")
        return self


def load_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def build_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        values = load_config_file(args.config)
        for key in ("pmax", "exp", "cap", "maxlen"):
            if key in values:
                setattr(cfg, key, int(values[key]))
        if "format" in values:
            cfg.fmt = values["format"]
        if "catalog" in values:
            cfg.catalog = values["catalog"]
        if "cache_dir" in values:
            cfg.cache_dir = values["cache_dir"]
    env_cache = os.environ.get("ARITHGROUPS_CACHE_DIR")
    if env_cache:
        cfg.cache_dir = cfg.cache_dir or env_cache
    for key, attr in (
        ("pmax", "pmax"), ("exp", "exp"), ("cap", "cap"), ("maxlen", "maxlen"),
        ("format", "fmt"), ("catalog", "catalog"), ("cache_dir", "cache_dir"),
    ):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            setattr(cfg, attr, val)
    return cfg.validate()


def _group_canonical(G):
    gens = ";".join(
        ",".join(str(Fraction(x)) for x in g.flat()) for g in G.gens
    )
    return f"{G.label}|n={G.n}|{gens}"


_PRESETS = {
    "sl2": lambda: sl_group(2),
    "sl3": lambda: sl_group(3),
    "sl4": lambda: sl_group(4),
    "sl5": lambda: sl_group(5),
    "mult": mult_group,
    "unitriangular2": lambda: unitriangular_group(2),
    "unitriangular3": lambda: unitriangular_group(3),
    "sp2": lambda: form_group(Mat(QQ, [[0, 1], [-1, 0]])),
    "so2": lambda: form_group(Mat(QQ, [[1, 0], [0, 1]])),
    "so3": lambda: form_group(Mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
}


def _resolve_presentation(args):
    if getattr(args, "file", None):
        return read_presentation(args.file)
    return _PRESETS[args.preset]()


def write_output(data, out_path):
    """Write rendered report bytes to out_path, or to stdout when it is None."""
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def emit(payload, cfg, out_path=None):
    write_output(render_report(payload, cfg.fmt), out_path)


@functools.cache
def source_digest():
    """sha256 of the package's own .py and .c sources, so a code change misses old entries."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(package) if f.endswith((".py", ".c"))):
        digest.update(name.encode() + b"\x00")
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def cached_scan(cfg, operation, canonical_input, compute, out_path=None):
    """Run a pure scan through the content-addressed cache when enabled."""
    if not cfg.cache_dir:
        emit(compute(), cfg, out_path)
        return
    cache = ScanCache(cfg.cache_dir, f"{__version__}+{source_digest()}")
    key = cache.key(operation + ":" + cfg.fmt, canonical_input)
    data = cache.get(key)
    if data is None:
        data = render_report(compute(), cfg.fmt)
        cache.put(key, data)
    write_output(data, out_path)


def cmd_nf_factor(args, cfg):
    K = load_field(args.field, cfg.catalog)
    fac = factor_prime(K, args.prime)
    payload = {
        "field": K.name,
        "prime": args.prime,
        "degree": K.degree,
        "verified": fac.verified,
        "factors": [
            {"e": f.e, "f": f.f, "poly": [int(c) for c in f.factor_poly.coeffs]}
            for f in fac.factors
        ],
        "sum_e_f": sum(f.e * f.f for f in fac.factors),
    }
    emit(payload, cfg)


def cmd_nf_chebotarev(args, cfg):
    K = load_field(args.field, cfg.catalog)

    def compute():
        return jsonable(chebotarev_scan(K, args.bound))

    canonical = f"{K.name}|{','.join(str(c) for c in K.min_poly.coeffs)}|X={args.bound}"
    cached_scan(cfg, "nf-chebotarev", canonical, compute, args.out)


def cmd_nf_signature(args, cfg):
    K = load_field(args.field, cfg.catalog)
    s, t = K.signature
    payload = {
        "field": K.name,
        "degree": K.degree,
        "disc": K.disc,
        "real_embeddings": s,
        "complex_pairs": t,
        "galois": K.galois,
    }
    emit(payload, cfg)


def cmd_padic_lift(args, cfg):
    coeffs = args.coeffs
    r = hensel_lift(coeffs, args.root, args.prime, args.prec)
    x = PadicInt.from_int(r, args.prime, args.prec)
    payload = {
        "prime": args.prime,
        "precision": args.prec,
        "poly": coeffs,
        "root_mod_p": args.root % args.prime,
        "lifted_residue": r,
        "digits": list(x.digits),
        "rendered": x.render(),
    }
    emit(payload, cfg)


def cmd_padic_eval(args, cfg):
    value = args.value
    t = vp(value, args.prime)
    num = PadicNumber.from_rational(value, args.prime, args.prec)
    payload = {
        "prime": args.prime,
        "precision": args.prec,
        "value": value,
        "valuation": "inf" if num.is_zero() else int(t),
        "unit_digits": None if num.is_zero() else list(num.unit.digits),
        "rendered": "0" if num.is_zero() else (
            num.unit.render() if t == 0 else f"{args.prime}^{int(t)} * ({num.unit.render()})"
        ),
    }
    emit(payload, cfg)


def cmd_group_lie(args, cfg):
    pres = _resolve_presentation(args)
    L = tangent_space_at_identity(pres)
    payload = {
        "group": pres.label,
        "n": pres.n,
        "dimension": L.dim,
        "basis": [[x for x in b.flat()] for b in L.basis],
        "traces": [b.trace() for b in L.basis],
        "structure_constants": [
            [list(L.structure[i][j]) for j in range(L.dim)] for i in range(L.dim)
        ],
    }
    emit(payload, cfg, getattr(args, "out", None))


def cmd_group_ros(args, cfg):
    K = load_field(args.field, cfg.catalog)
    base = _resolve_presentation(args)
    ros = restriction_of_scalars(base, K)
    if getattr(args, "write_presentation", None):
        write_presentation(ros.presentation, args.write_presentation)
    payload = {
        "base": base.label,
        "field": K.name,
        "n": ros.presentation.n,
        "variables": ros.presentation.n ** 2,
        "matrix_family_equations": len(ros.family_matrix),
        "linear_family_equations": len(ros.family_linear),
        "polys": [P.encode() for P in ros.presentation.polys],
    }
    emit(payload, cfg, getattr(args, "out", None))


def cmd_group_reduce(args, cfg):
    pres = _resolve_presentation(args)
    red = reduce_mod_p(pres, args.prime)
    payload = {
        "group": pres.label,
        "prime": args.prime,
        "good_reduction": red.good_reduction,
        "polys": [P.encode() for P in red.polys],
    }
    emit(payload, cfg)


def _scan_payload(report):
    payload = jsonable(report)
    del payload["prime_bound"], payload["exponent"]
    return payload


def cmd_cong_scan(args, cfg):
    G = load_group(args.group)

    def compute():
        return _scan_payload(strong_approx_scan(G, cfg.pmax, cfg.exp, cfg.cap))

    canonical = f"{_group_canonical(G)}|P={cfg.pmax}|k={cfg.exp}|cap={cfg.cap}"
    cached_scan(cfg, "cong-scan", canonical, compute, args.out)


def cmd_cong_image(args, cfg):
    G = load_group(args.group)
    rec = exact_image_record(G, args.mod, cfg.cap)
    emit({"group": G.label, **jsonable(rec)}, cfg)


def cmd_cong_index(args, cfg):
    payload = {
        "n": args.size,
        "m": args.mod,
        "index": principal_congruence_index(args.size, args.mod),
    }
    emit(payload, cfg)


def cmd_cong_oneforall(args, cfg):
    sets = []
    for spec in args.group:
        G = load_group(spec)
        sets.append((G.label, G))
    bad = frozenset(int(x) for x in args.bad.split(",")) if args.bad else frozenset()

    def compute():
        rows = one_for_all_scan(2, sets, cfg.pmax, bad_set=bad, cap=cfg.cap)
        return {"pmax": cfg.pmax, "bad_set": sorted(bad), "rows": jsonable(rows)}

    canonical = (
        "|".join(_group_canonical(G) for _, G in sets)
        + f"|P={cfg.pmax}|bad={sorted(bad)}|cap={cfg.cap}"
    )
    cached_scan(cfg, "cong-oneforall", canonical, compute, args.out)


def _verdict_payload(v):
    return {**jsonable(v), "criterion": CRITERION_NOTE}


def cmd_density_check(args, cfg):
    G = load_group(args.group)

    def compute():
        v = density_verdict(G, max_word_len=cfg.maxlen)
        return {"group": G.label, **_verdict_payload(v)}

    canonical = f"{_group_canonical(G)}|maxlen={cfg.maxlen}"
    cached_scan(cfg, "density-check", canonical, compute, args.out)


def cmd_lubotzky_scan(args, cfg):
    G = load_group(args.group)

    def compute():
        rep = lubotzky_scan(G, cfg.pmax, cap=cfg.cap)
        payload = jsonable(rep)
        payload["pmax"] = payload.pop("prime_bound")
        payload["verdict"] = _verdict_payload(rep.verdict)
        return payload

    canonical = f"{_group_canonical(G)}|P={cfg.pmax}|cap={cfg.cap}"
    cached_scan(cfg, "lubotzky-scan", canonical, compute, args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arithgroups",
        description="exact-arithmetic scans for congruence images, prime splitting, "
        "p-adic lifting, and Lie algebras of matrix groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=None)
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--cache-dir", dest="cache_dir", default=None)
    common.add_argument("--catalog", default=None, help="field catalog file")

    top = parser.add_subparsers(dest="command", required=True)

    nf = top.add_parser("nf", help="number field operations").add_subparsers(
        dest="sub", required=True)
    p = nf.add_parser("factor", parents=[common])
    p.add_argument("--field", required=True, help=f"alias ({', '.join(field_aliases())}) or catalog name")
    p.add_argument("--prime", type=prime_arg, required=True)
    p.set_defaults(func=cmd_nf_factor)
    p = nf.add_parser("chebotarev", parents=[common])
    p.add_argument("--field", required=True)
    p.add_argument("--bound", type=positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nf_chebotarev)
    p = nf.add_parser("signature", parents=[common])
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_nf_signature)

    padic = top.add_parser("padic", help="p-adic arithmetic").add_subparsers(
        dest="sub", required=True)
    p = padic.add_parser("lift", parents=[common])
    p.add_argument("--coeffs", type=int_list_arg, required=True,
                   help="integer coefficients, constant first")
    p.add_argument("--prime", type=prime_arg, required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--prec", type=positive_int, required=True)
    p.set_defaults(func=cmd_padic_lift)
    p = padic.add_parser("eval", parents=[common])
    p.add_argument("--prime", type=prime_arg, required=True)
    p.add_argument("--prec", type=positive_int, required=True)
    p.add_argument("--value", type=rational_arg, required=True, help="exact rational a/b")
    p.set_defaults(func=cmd_padic_eval)

    group = top.add_parser("group", help="algebraic group presentations").add_subparsers(
        dest="sub", required=True)
    p = group.add_parser("lie", parents=[common])
    p.add_argument("--preset", default="sl2", choices=sorted(_PRESETS))
    p.add_argument("--file", default=None, help="presentation interchange file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_group_lie)
    p = group.add_parser("ros", parents=[common])
    p.add_argument("--field", required=True)
    p.add_argument("--preset", default="mult", choices=sorted(_PRESETS))
    p.add_argument("--file", default=None)
    p.add_argument("--write-presentation", default=None,
                   help="also write the result in the interchange format")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_group_ros)
    p = group.add_parser("reduce", parents=[common])
    p.add_argument("--preset", default="sl2", choices=sorted(_PRESETS))
    p.add_argument("--file", default=None)
    p.add_argument("--prime", type=prime_arg, required=True)
    p.set_defaults(func=cmd_group_reduce)

    cong = top.add_parser("cong", help="congruence image scans").add_subparsers(
        dest="sub", required=True)
    p = cong.add_parser("scan", parents=[common])
    p.add_argument("--group", required=True, help=f"alias ({', '.join(group_aliases())}) or generator file")
    p.add_argument("--pmax", type=positive_int, default=None)
    p.add_argument("--exp", type=positive_int, default=None)
    p.add_argument("--cap", type=positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cong_scan)
    p = cong.add_parser("image", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--mod", type=positive_int, required=True)
    p.add_argument("--cap", type=positive_int, default=None)
    p.set_defaults(func=cmd_cong_image)
    p = cong.add_parser("index", parents=[common])
    p.add_argument("--size", type=positive_int, default=2, help="matrix size n")
    p.add_argument("--mod", type=positive_int, required=True)
    p.set_defaults(func=cmd_cong_index)
    p = cong.add_parser("oneforall", parents=[common])
    p.add_argument("--group", action="append", required=True,
                   help="repeatable: alias or generator file")
    p.add_argument("--pmax", type=positive_int, default=None)
    p.add_argument("--cap", type=positive_int, default=None)
    p.add_argument("--bad", default=None, help="comma-separated bad prime set")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cong_oneforall)

    density = top.add_parser("density", help="Zariski-density evidence").add_subparsers(
        dest="sub", required=True)
    p = density.add_parser("check", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--maxlen", type=positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density_check)

    lub = top.add_parser("lubotzky", help="dichotomy scans").add_subparsers(
        dest="sub", required=True)
    p = lub.add_parser("scan", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--pmax", type=positive_int, default=None)
    p.add_argument("--cap", type=positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lubotzky_scan)

    return parser


def dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        args.func(args, cfg)
    except DomainError as exc:
        print(f"error {exc.name}: {exc}", file=sys.stderr)
        return 1
    except (KeyError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
