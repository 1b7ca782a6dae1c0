"""Built-in field and group aliases, the on-disk catalog formats and SIntegerGroup.

Field catalog records are line-oriented key=value blocks separated by blank
lines; generator files hold one matrix per block with exact rational entries.

This module is on the path of every CLI command, a cache hit included, so it
imports no compute module, not the matrix layer and not fractions at load
time: numberfield is imported by the functions that build a field, matrix,
rings and primes by those that build a group, and fractions only for a
rational that is not an integer: the integer tokens of a generator file and
of an abelian certificate are read as ints.  read_group gives a group's exact
rows without building it.
"""

from .errors import NotInvertible, UsageError, read_user_file

DEFAULT_CAP = 2 * 10 ** 6


class SIntegerGroup:
    """A finitely generated subgroup of GL_n(Z_S) given by its generators."""

    def __init__(self, gens, label="group"):
        from .matrix import Mat
        from .primes import prime_support
        from .rings import QQ

        mats = []
        for g in gens:
            mats.append(g if isinstance(g, Mat) else Mat(QQ, g))
        if not mats:
            raise ValueError("need at least one generator")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ValueError("generators must share one size")
        support = set()
        for g in mats:
            for row in g.rows:
                for x in row:
                    support |= prime_support(x.denominator)
        for g in mats:
            d = g.det()
            if d == 0:
                raise NotInvertible(f"generator of {label} is singular")
            if not (prime_support(d.numerator) | prime_support(d.denominator)) <= support:
                raise NotInvertible(
                    f"generator determinant {d} is not a unit in Z_S with S={sorted(support)}"
                )
        self.label = label
        self.n = n
        self.gens = tuple(mats)
        self.S = frozenset(support)

    def __repr__(self):
        return f"SIntegerGroup({self.label}, n={self.n}, S={sorted(self.S)})"

_BUILTIN_FIELD_RECORDS = {
    # name: (min poly, constant first; galois; power basis maximal;
    #        abelian certificate, see NumberField)
    "qi": ((1, 0, 1), True, True, None),
    "qsqrt2": ((-2, 0, 1), True, True, None),
    "qcbrt2": ((-2, 0, 0, 1), False, True, None),
    # x -> x^j for j = 1, 2, 3, 4, with x^4 = -1 - x - x^2 - x^3
    "zeta5": ((1, 1, 1, 1, 1), True, True, ((0, 1), (0, 0, 1), (0, 0, 0, 1), (-1, -1, -1, -1))),
}

_BUILTIN_GROUPS = {
    "sl2z": [[[1, 1], [0, 1]], [[0, -1], [1, 0]]],
    "sanov": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
    "triangular": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]],
    "transvection": [[[1, 1], [0, 1]]],
}


def builtin_field(name):
    from .numberfield import NumberField

    coeffs, galois, maximal, automorphisms = _BUILTIN_FIELD_RECORDS[name]
    return NumberField(coeffs, name=name, galois=galois, power_basis_maximal=maximal,
                       automorphisms=automorphisms)


def field_aliases():
    return sorted(_BUILTIN_FIELD_RECORDS)


def group_aliases():
    return sorted(_BUILTIN_GROUPS)


def builtin_group(name):
    return SIntegerGroup(_BUILTIN_GROUPS[name], label=name)


def resolve_field(spec, catalog_path=None):
    """(name, min-poly coefficients, galois flag, build) for a field alias or catalog name.

    A catalog file is read, and its fields built and so validated, first.  A
    built-in alias is built only when build() is called, so a caller that
    needs just the name, coefficients and flag (a cache key) loads no
    numberfield.
    """
    if catalog_path:
        catalog = read_field_catalog(catalog_path)
        if spec in catalog:
            K = catalog[spec]
            return K.name, K.min_poly.coeffs, K.galois, lambda: K
    if spec in _BUILTIN_FIELD_RECORDS:
        coeffs, galois = _BUILTIN_FIELD_RECORDS[spec][:2]
        return spec, coeffs, galois, lambda: builtin_field(spec)
    raise KeyError(f"unknown field {spec!r}; aliases: {', '.join(field_aliases())}")


def load_field(spec, catalog_path=None):
    """Resolve a field alias or read it from a catalog file."""
    return resolve_field(spec, catalog_path)[3]()


def read_group(spec):
    """(label, rows) of a group alias or generator file, without building the group.

    rows holds one matrix per generator as lists of exact int or Fraction
    entries.  A malformed file raises UsageError and an unknown name KeyError;
    only SIntegerGroup(rows, label) raises the group's domain errors.
    """
    if spec in _BUILTIN_GROUPS:
        return spec, _BUILTIN_GROUPS[spec]
    import os

    if os.path.exists(spec):
        return os.path.splitext(os.path.basename(spec))[0], read_generator_file(spec)
    raise KeyError(f"unknown group {spec!r}; aliases: {', '.join(group_aliases())}")


def load_group(spec):
    """Resolve a group alias or read generators from a file."""
    label, rows = read_group(spec)
    return SIntegerGroup(rows, label)


def read_field_catalog(path):
    """Parse a key=value field catalog; records separated by blank lines.

    A record that does not describe a field (a missing key, a non-integer or
    non-monic minpoly, a flag that is not a boolean, a malformed abelian
    certificate or one that fails NumberField's check) raises UsageError
    naming the file; a reducible minpoly stays the domain error
    ReducibleMinPoly.  The optional automorphisms= key holds the certificate:
    polynomials separated by ';', their rational coefficients, constant
    first, by ','.
    """
    from .numberfield import NumberField

    fields = {}
    record = {}

    def flush():
        if not record:
            return
        try:
            name = record["name"]
            coeffs = tuple(int(c) for c in record["minpoly"].split(","))
            fields[name] = NumberField(
                coeffs,
                name=name,
                galois=_parse_bool(record.get("galois", "false")),
                power_basis_maximal=_parse_bool(record.get("maximal", "false")),
                automorphisms=(_parse_automorphisms(record["automorphisms"])
                               if "automorphisms" in record else None),
            )
        except KeyError as exc:
            raise UsageError(f"{path}: field record without {exc.args[0]}=") from None
        except ValueError as exc:
            raise UsageError(f"{path}: field {record['name']!r}: {exc}") from None

    for raw in read_user_file(path, "field catalog"):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line:
                flush()
                record = {}
            continue
        key, _, val = line.partition("=")
        record[key.strip()] = val.strip()
    flush()
    return fields


def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_automorphisms(text):
    try:
        return tuple(tuple(_rational_token(c) for c in r.split(",")) for r in text.split(";"))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"automorphisms: not ';'-separated lists of rationals: {text!r}") from None


def _rational_token(tok):
    # int accepts more than [+-]?[0-9]+ (underscores, non-ASCII digits), so
    # every other token goes to Fraction, whose grammar the file format and
    # padic eval's --value keep
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if digits.isascii() and digits.isdigit():
        return int(tok)
    from fractions import Fraction

    return Fraction(tok)


def read_generator_file(path):
    """One matrix per block, rows of whitespace-separated rationals 'a/b'.

    Returns the matrices as lists of rows of exact rationals: an int for an
    ASCII integer literal [+-]?[0-9]+, a Fraction for any other token Fraction
    accepts.  A file that is not a list of square matrices of one size raises
    UsageError naming the file.
    """
    blocks = [[]]
    for lineno, raw in enumerate(read_user_file(path, "generator file"), 1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        try:
            blocks[-1].append([_rational_token(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{path}:{lineno}: not a row of rationals a/b: {line!r}") from None
    blocks = [b for b in blocks if b]
    if not blocks:
        raise UsageError(f"no matrices found in {path}")
    n = len(blocks[0])
    for i, b in enumerate(blocks, 1):
        if any(len(row) != len(b) for row in b):
            raise UsageError(f"{path}: matrix {i} is not square")
        if len(b) != n:
            raise UsageError(f"{path}: matrix {i} is {len(b)}x{len(b)}, matrix 1 is {n}x{n}")
    return blocks

