"""Command-line front end.

Exit codes: 0 success, 1 domain error (the module error name is serialized
verbatim), 2 usage error.  Reports are byte-stable: JSON with sorted keys and
canonically ordered arrays, or a fixed-width text table via --format text.

Each command imports the compute modules it runs inside its own function (for a
cached scan, inside the compute() it hands to cached_scan), so that
`--version` and a cache hit load only argv parsing, the catalog and the cache.
A cached scan reads its groups as exact rows and builds them inside compute(),
so a hit loads no matrix layer either.  Nor do `--version`, a hit on a
built-in group or field, a `cong`, `density` or `lubotzky` command on an
integral group, or a `padic eval` of an integer import fractions: a built-in
group's rows, a generator file's integer tokens and an integer --value are
ints, and the matrix layer keeps integral values as ints, so none of them
makes a Fraction, unless a NOT_DENSE line it prints has a non-integral entry.

Every subcommand is one entry of the COMMANDS table.  dispatch builds the
parser for the subcommand argv names only; build_parser() with no argv builds
them all, with the same help and usage errors.
"""

import argparse
import functools
import os
import sys

from . import __version__
from .catalog import (
    DEFAULT_CAP,
    SIntegerGroup,
    _rational_token,
    field_aliases,
    group_aliases,
    load_field,
    load_group,
    read_group,
    resolve_field,
)
from .errors import DomainError, OutOfRange, UsageError, read_user_file, write_user_file
from .report import ScanCache, jsonable, render_report, sha256


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
        return _rational_token(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact rational a/b with b != 0, got {text}")


def prime_arg(text):
    from .primes import is_prime

    value = int(text)
    if value < 2 or not is_prime(value):
        raise argparse.ArgumentTypeError(f"expected a prime, got {text}")
    return value


# the largest pmax: order_sl's modulus range, so every prime of a scan has a target order
MAX_PMAX = 10 ** 6


class RunConfig:
    def __init__(self, pmax=31, exp=1, cap=DEFAULT_CAP, maxlen=8, catalog=None,
                 fmt="json", cache_dir=None):
        self.pmax = pmax
        self.exp = exp
        self.cap = cap
        self.maxlen = maxlen
        self.catalog = catalog
        self.fmt = fmt
        self.cache_dir = cache_dir

    def validate(self):
        for attr in ("pmax", "cap", "fmt"):
            check_setting(attr, getattr(self, attr))
        return self


def check_setting(attr, value):
    """ValueError when a value of a RunConfig attribute is out of range."""
    if attr == "pmax" and value < 2:
        raise ValueError("pmax must be >= 2")
    if attr == "pmax" and value > MAX_PMAX:
        raise OutOfRange(f"pmax must be <= 10^6, got {value}")
    if attr == "cap" and value < 1:
        raise ValueError("cap must be >= 1")
    if attr == "fmt" and value not in ("json", "text"):
        raise ValueError(f"unknown format {value!r}")


# config file key (and argparse dest of the option) -> RunConfig attribute
CONFIG_KEYS = {"pmax": "pmax", "exp": "exp", "cap": "cap", "maxlen": "maxlen",
               "format": "fmt", "catalog": "catalog", "cache_dir": "cache_dir"}
INT_CONFIG_KEYS = ("pmax", "exp", "cap", "maxlen")


def load_config_file(path):
    """The key=value pairs of a config file; UsageError naming the file and line otherwise."""
    values = {}
    for number, raw in enumerate(read_user_file(path, "config file"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (x.strip() for x in line.partition("="))
        where = f"config file {path} line {number}"
        if not eq or key not in CONFIG_KEYS:
            raise UsageError(f"{where}: expected key=value with key one of "
                             f"{', '.join(CONFIG_KEYS)}, got {line!r}")
        if key in INT_CONFIG_KEYS:
            try:
                val = positive_int(val)
            except (ValueError, argparse.ArgumentTypeError):
                raise UsageError(f"{where}: {key} must be a positive integer, got {val!r}") from None
        try:
            check_setting(CONFIG_KEYS[key], val)
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
        values[key] = val
    return values


def build_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in load_config_file(args.config).items():
            setattr(cfg, CONFIG_KEYS[key], val)
    env_cache = os.environ.get("ARITHGROUPS_CACHE_DIR")
    if env_cache:
        cfg.cache_dir = cfg.cache_dir or env_cache
    for key, attr in CONFIG_KEYS.items():
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, attr, val)
    return cfg.validate()


def _group_canonical(label, rows):
    """The cache-key text of the group read_group returned as (label, rows)."""
    # rows hold ints or Fractions, so str(x) is the text str(Fraction(x)) would give
    gens = ";".join(",".join(str(x) for row in g for x in row) for g in rows)
    return f"{label}|n={len(rows[0])}|{gens}"


def _build_groups(groups):
    """Build each (label, rows) group in turn, for the domain error one of them raises."""
    for label, rows in groups:
        SIntegerGroup(rows, label)


def _form_preset(gram):
    def build(groups):
        from .matrix import Mat
        from .rings import QQ

        return groups.form_group(Mat(QQ, gram))

    return build


# each preset builds its presentation from the groups module it is given
_PRESETS = {
    "sl2": lambda groups: groups.sl_group(2),
    "sl3": lambda groups: groups.sl_group(3),
    "sl4": lambda groups: groups.sl_group(4),
    "sl5": lambda groups: groups.sl_group(5),
    "mult": lambda groups: groups.mult_group(),
    "unitriangular2": lambda groups: groups.unitriangular_group(2),
    "unitriangular3": lambda groups: groups.unitriangular_group(3),
    "sp2": _form_preset([[0, 1], [-1, 0]]),
    "so2": _form_preset([[1, 0], [0, 1]]),
    "so3": _form_preset([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}


def _resolve_presentation(args):
    from . import groups

    if getattr(args, "file", None):
        return groups.read_presentation(args.file)
    return _PRESETS[args.preset](groups)


def write_output(data, out_path):
    """Write rendered report bytes to out_path, or to stdout when it is None."""
    if out_path:
        write_user_file(out_path, data, "output file")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def emit(payload, cfg, out_path=None):
    write_output(render_report(payload, cfg.fmt), out_path)


@functools.cache
def source_digest():
    """sha256 of the package's own .py sources, so a code change misses old entries."""
    digest = sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        digest.update(name.encode() + b"\x00")
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def cached_scan(cfg, operation, canonical_input, compute, out_path=None, groups=()):
    """Run a pure scan through the content-addressed cache when enabled.

    groups are the (label, rows) that compute() builds.  A hit builds none of
    them: an entry is written only after a run that built them.  When the
    cache cannot be set up or read, they are built before its usage error is
    raised, so that a group's domain error wins, as on an uncached run.
    """
    if not cfg.cache_dir:
        emit(compute(), cfg, out_path)
        return
    try:
        cache = ScanCache(cfg.cache_dir, f"{__version__}+{source_digest()}")
        key = cache.key(operation + ":" + cfg.fmt, canonical_input)
        data = cache.get(key)
    except UsageError:
        _build_groups(groups)
        raise
    if data is None:
        data = render_report(compute(), cfg.fmt)
        cache.put(key, data)
    write_output(data, out_path)


def cmd_nf_factor(args, cfg):
    from .ideals import factor_prime

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
    name, coeffs, galois, build = resolve_field(args.field, cfg.catalog)

    def compute():
        from .numberfield import chebotarev_scan

        return jsonable(chebotarev_scan(build(), args.bound))

    # the galois flag sets the report's sample_only, so it is part of the key
    canonical = f"{name}|{','.join(str(c) for c in coeffs)}|galois={galois}|X={args.bound}"
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
    from .padics import PadicInt, hensel_lift

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
    from .padics import PadicNumber, vp

    value = args.value
    t = vp(value, args.prime)
    num = PadicNumber.from_rational(value, args.prime, args.prec)
    payload = {
        "prime": args.prime,
        "precision": args.prec,
        "value": f"{value.numerator}/{value.denominator}",
        "valuation": "inf" if num.is_zero() else int(t),
        "unit_digits": None if num.is_zero() else list(num.unit.digits),
        "rendered": "0" if num.is_zero() else (
            num.unit.render() if t == 0 else f"{args.prime}^{int(t)} * ({num.unit.render()})"
        ),
    }
    emit(payload, cfg)


def cmd_group_lie(args, cfg):
    from .groups import tangent_space_at_identity

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
    from .groups import restriction_of_scalars, write_presentation

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
    from .groups import reduce_mod_p

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
    label, rows = read_group(args.group)

    def compute():
        from .congruence import strong_approx_scan

        G = SIntegerGroup(rows, label)
        return _scan_payload(strong_approx_scan(G, cfg.pmax, cfg.exp, cfg.cap))

    canonical = f"{_group_canonical(label, rows)}|P={cfg.pmax}|k={cfg.exp}|cap={cfg.cap}"
    cached_scan(cfg, "cong-scan", canonical, compute, args.out, [(label, rows)])


def cmd_cong_image(args, cfg):
    from .congruence import exact_image_record

    G = load_group(args.group)
    rec = exact_image_record(G, args.mod, cfg.cap)
    emit({"group": G.label, **jsonable(rec)}, cfg)


def cmd_cong_index(args, cfg):
    from .congruence import principal_congruence_index

    payload = {
        "n": args.size,
        "m": args.mod,
        "index": principal_congruence_index(args.size, args.mod),
    }
    emit(payload, cfg)


def cmd_cong_oneforall(args, cfg):
    groups = []
    for spec in args.group:
        try:
            groups.append(read_group(spec))
        except (KeyError, UsageError):
            _build_groups(groups)       # an earlier group's domain error comes first
            raise
    bad = frozenset(args.bad or ())

    def compute():
        from .congruence import one_for_all_scan

        # every group is built before the first scan, so its domain error wins over a Truncated
        sets = [(label, SIntegerGroup(rows, label)) for label, rows in groups]
        table = one_for_all_scan(sets, cfg.pmax, bad_set=bad, cap=cfg.cap)
        return {"pmax": cfg.pmax, "bad_set": sorted(bad), "rows": jsonable(table)}

    canonical = (
        "|".join(_group_canonical(label, rows) for label, rows in groups)
        + f"|P={cfg.pmax}|bad={sorted(bad)}|cap={cfg.cap}"
    )
    cached_scan(cfg, "cong-oneforall", canonical, compute, args.out, groups)


def _verdict_payload(v):
    from .density import CRITERION_NOTE

    payload = {**jsonable(v), "criterion": CRITERION_NOTE}
    if v.infinite_order_witness is not None:
        # the trace prints as a/b even when it is an int
        t = v.infinite_order_witness["trace"]
        payload["infinite_order_witness"]["trace"] = f"{t.numerator}/{t.denominator}"
    return payload


def cmd_density_check(args, cfg):
    label, rows = read_group(args.group)

    def compute():
        from .density import density_verdict

        v = density_verdict(SIntegerGroup(rows, label), max_word_len=cfg.maxlen)
        return {"group": label, **_verdict_payload(v)}

    canonical = f"{_group_canonical(label, rows)}|maxlen={cfg.maxlen}"
    cached_scan(cfg, "density-check", canonical, compute, args.out, [(label, rows)])


def cmd_lubotzky_scan(args, cfg):
    label, rows = read_group(args.group)

    def compute():
        from .density import lubotzky_scan

        rep = lubotzky_scan(SIntegerGroup(rows, label), cfg.pmax, cap=cfg.cap)
        payload = jsonable(rep)
        payload["pmax"] = payload.pop("prime_bound")
        payload["verdict"] = _verdict_payload(rep.verdict)
        return payload

    canonical = f"{_group_canonical(label, rows)}|P={cfg.pmax}|cap={cfg.cap}"
    cached_scan(cfg, "lubotzky-scan", canonical, compute, args.out, [(label, rows)])


# options every subcommand takes, before its own; each option is (flag, add_argument keywords)
SHARED_OPTIONS = [
    ("--format", dict(choices=("json", "text"), default=None)),
    ("--config", dict(default=None, help="key=value config file")),
    ("--cache-dir", dict(dest="cache_dir", default=None)),
    ("--catalog", dict(default=None, help="field catalog file")),
]

# command group -> (help, {subcommand: (command function, its options)})
COMMANDS = {
    "nf": ("number field operations", {
        "factor": (cmd_nf_factor, [
            ("--field", dict(required=True,
                             help=f"alias ({', '.join(field_aliases())}) or catalog name")),
            ("--prime", dict(type=prime_arg, required=True)),
        ]),
        "chebotarev": (cmd_nf_chebotarev, [
            ("--field", dict(required=True)),
            ("--bound", dict(type=positive_int, required=True)),
            ("--out", dict(default=None)),
        ]),
        "signature": (cmd_nf_signature, [
            ("--field", dict(required=True)),
        ]),
    }),
    "padic": ("p-adic arithmetic", {
        "lift": (cmd_padic_lift, [
            ("--coeffs", dict(type=int_list_arg, required=True,
                              help="integer coefficients, constant first")),
            ("--prime", dict(type=prime_arg, required=True)),
            ("--root", dict(type=int, required=True)),
            ("--prec", dict(type=positive_int, required=True)),
        ]),
        "eval": (cmd_padic_eval, [
            ("--prime", dict(type=prime_arg, required=True)),
            ("--prec", dict(type=positive_int, required=True)),
            ("--value", dict(type=rational_arg, required=True, help="exact rational a/b")),
        ]),
    }),
    "group": ("algebraic group presentations", {
        "lie": (cmd_group_lie, [
            ("--preset", dict(default="sl2", choices=sorted(_PRESETS))),
            ("--file", dict(default=None, help="presentation interchange file")),
            ("--out", dict(default=None)),
        ]),
        "ros": (cmd_group_ros, [
            ("--field", dict(required=True)),
            ("--preset", dict(default="mult", choices=sorted(_PRESETS))),
            ("--file", dict(default=None)),
            ("--write-presentation", dict(default=None,
                                          help="also write the result in the interchange format")),
            ("--out", dict(default=None)),
        ]),
        "reduce": (cmd_group_reduce, [
            ("--preset", dict(default="sl2", choices=sorted(_PRESETS))),
            ("--file", dict(default=None)),
            ("--prime", dict(type=prime_arg, required=True)),
        ]),
    }),
    "cong": ("congruence image scans", {
        "scan": (cmd_cong_scan, [
            ("--group", dict(required=True,
                             help=f"alias ({', '.join(group_aliases())}) or generator file")),
            ("--pmax", dict(type=positive_int, default=None)),
            ("--exp", dict(type=positive_int, default=None)),
            ("--cap", dict(type=positive_int, default=None)),
            ("--out", dict(default=None)),
        ]),
        "image": (cmd_cong_image, [
            ("--group", dict(required=True)),
            ("--mod", dict(type=positive_int, required=True)),
            ("--cap", dict(type=positive_int, default=None)),
        ]),
        "index": (cmd_cong_index, [
            ("--size", dict(type=positive_int, default=2, help="matrix size n")),
            ("--mod", dict(type=positive_int, required=True)),
        ]),
        "oneforall": (cmd_cong_oneforall, [
            ("--group", dict(action="append", required=True,
                             help="repeatable: alias or generator file")),
            ("--pmax", dict(type=positive_int, default=None)),
            ("--cap", dict(type=positive_int, default=None)),
            ("--bad", dict(type=int_list_arg, default=None, help="comma-separated bad prime set")),
            ("--out", dict(default=None)),
        ]),
    }),
    "density": ("Zariski-density evidence", {
        "check": (cmd_density_check, [
            ("--group", dict(required=True)),
            ("--maxlen", dict(type=positive_int, default=None)),
            ("--out", dict(default=None)),
        ]),
    }),
    "lubotzky": ("dichotomy scans", {
        "scan": (cmd_lubotzky_scan, [
            ("--group", dict(required=True)),
            ("--pmax", dict(type=positive_int, default=None)),
            ("--cap", dict(type=positive_int, default=None)),
            ("--out", dict(default=None)),
        ]),
    }),
}


def build_parser(argv=None):
    """The argument parser, in full, or for the one subcommand argv names.

    argv names its command group by its first token that does not start with
    '-', and the subcommand by its second: neither the top level nor a group
    has an option that takes a value, so these are the tokens argparse picks,
    unless it first takes a token such as '-5' as a name, which names no
    command and fails the same way with either parser.  Every group is added
    with its help, and the named group with all its subcommand names, so help
    and usage errors read as from the full parser; only the named subcommand
    gets its options.
    """
    named = None if argv is None else tuple(a for a in argv if not a.startswith("-"))[:2]
    parser = argparse.ArgumentParser(
        prog="arithgroups",
        description="exact-arithmetic scans for congruence images, prime splitting, "
        "p-adic lifting, and Lie algebras of matrix groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)
    for group, (help_text, subcommands) in COMMANDS.items():
        group_parser = top.add_parser(group, help=help_text)
        if named is not None and named[:1] != (group,):
            continue
        subs = group_parser.add_subparsers(dest="sub", required=True)
        for sub, (func, options) in subcommands.items():
            p = subs.add_parser(sub)
            if named is not None and named != (group, sub):
                continue
            for flag, kwargs in SHARED_OPTIONS + options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


def dispatch(argv):
    parser = build_parser(argv)
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
