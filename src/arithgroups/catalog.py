"""Built-in field and group aliases plus the on-disk catalog formats.

Field catalog records are line-oriented key=value blocks separated by blank
lines; generator files hold one matrix per block with exact rational entries.
"""

from fractions import Fraction

from .congruence import SIntegerGroup
from .errors import UsageError, read_user_file
from .matrix import Mat
from .numberfield import NumberField
from .rings import QQ

_BUILTIN_FIELD_RECORDS = {
    # name: (min poly, constant first; galois; power basis maximal)
    "qi": ((1, 0, 1), True, True),
    "qsqrt2": ((-2, 0, 1), True, True),
    "qcbrt2": ((-2, 0, 0, 1), False, True),
    "zeta5": ((1, 1, 1, 1, 1), True, True),
}

_BUILTIN_GROUPS = {
    "sl2z": [[[1, 1], [0, 1]], [[0, -1], [1, 0]]],
    "sanov": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
    "triangular": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]],
    "transvection": [[[1, 1], [0, 1]]],
}


def builtin_field(name):
    coeffs, galois, maximal = _BUILTIN_FIELD_RECORDS[name]
    return NumberField(coeffs, name=name, galois=galois, power_basis_maximal=maximal)


def field_aliases():
    return sorted(_BUILTIN_FIELD_RECORDS)


def group_aliases():
    return sorted(_BUILTIN_GROUPS)


def builtin_group(name):
    gens = [Mat(QQ, rows) for rows in _BUILTIN_GROUPS[name]]
    return SIntegerGroup(gens, label=name)


def load_field(spec, catalog_path=None):
    """Resolve a field alias or read it from a catalog file."""
    if catalog_path:
        catalog = read_field_catalog(catalog_path)
        if spec in catalog:
            return catalog[spec]
    if spec in _BUILTIN_FIELD_RECORDS:
        return builtin_field(spec)
    raise KeyError(f"unknown field {spec!r}; aliases: {', '.join(field_aliases())}")


def load_group(spec):
    """Resolve a group alias or read generators from a file."""
    if spec in _BUILTIN_GROUPS:
        return builtin_group(spec)
    import os

    if os.path.exists(spec):
        label = os.path.splitext(os.path.basename(spec))[0]
        return SIntegerGroup(read_generator_file(spec), label=label)
    raise KeyError(f"unknown group {spec!r}; aliases: {', '.join(group_aliases())}")


def read_field_catalog(path):
    """Parse a key=value field catalog; records separated by blank lines.

    A record that does not describe a field (a missing key, a non-integer or
    non-monic minpoly, a flag that is not a boolean) raises UsageError naming
    the file; a reducible minpoly stays the domain error ReducibleMinPoly.
    """
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


def read_generator_file(path):
    """One matrix per block, rows of whitespace-separated rationals 'a/b'.

    A file that is not a list of square matrices of one size raises
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
            blocks[-1].append([Fraction(tok) for tok in line.split()])
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
    return [Mat(QQ, b) for b in blocks]


def write_generator_file(gens, path):
    blocks = []
    for g in gens:
        blocks.append("\n".join(
            " ".join(str(Fraction(x)) for x in row) for row in g.rows
        ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")
