"""Byte-stable report rendering and a content-addressed result cache.

JSON reports sort keys and keep arrays in canonical (ascending) order as
produced by the scan functions, so identical inputs render identical bytes.
Rationals serialize as exact "a/b" strings.

A cache hit reads its bytes back without rendering, so json is imported only
where a report is rendered and tempfile where an entry is written.  Keys are
hashed with CPython's built-in sha256, not hashlib, whose OpenSSL start-up
costs a cached command more than the hashing does.  fractions is not
imported at all: a Fraction is told by its denominator.
"""

import os

from .errors import UsageError

_sha256_new = None


def sha256():
    """A new sha256 hash object from CPython's built-in module, resolved once.

    _sha2 (3.12+) or _sha256 (3.10, 3.11), as random.py does; hashlib only on
    a build without them.  Each gives the same digest.
    """
    global _sha256_new
    if _sha256_new is None:
        try:
            from _sha2 import sha256 as new
        except ImportError:
            try:
                from _sha256 import sha256 as new
            except ImportError:
                from hashlib import sha256 as new
        _sha256_new = new
    return _sha256_new()


def jsonable(obj):
    """Recursively convert report objects to JSON-compatible structures."""
    if hasattr(obj, "_asdict"):  # a record, before the tuple it also is
        return {k: jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "denominator"):  # a Fraction: ints, which also have one, returned above
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "coeffs"):  # polynomials render as coefficient lists
        return [jsonable(c) for c in obj.coeffs]
    return str(obj)


def render_json(payload):
    import json

    return (json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n").encode()


def render_text(payload):
    """Fixed-width text rendering: scalars as key: value, record lists as tables."""
    data = jsonable(payload)
    lines = []
    tables = []
    for key in sorted(data):
        val = data[key]
        if isinstance(val, list) and val and all(isinstance(r, dict) for r in val):
            tables.append((key, val))
        else:
            lines.append(f"{key}: {_scalar(val)}")
    for key, rows in tables:
        lines.append("")
        lines.append(f"[{key}]")
        cols = sorted({c for r in rows for c in r})
        widths = {
            c: max(len(c), max(len(_scalar(r.get(c))) for r in rows)) for c in cols
        }
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        lines.append("  ".join("-" * widths[c] for c in cols))
        for r in rows:
            lines.append("  ".join(_scalar(r.get(c)).ljust(widths[c]) for c in cols))
    return ("\n".join(lines) + "\n").encode()


def _scalar(v):
    import json

    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    if isinstance(v, list):
        return json.dumps(v)
    if v is None:
        return "-"
    return str(v)


def render_report(payload, fmt):
    if fmt == "json":
        return render_json(payload)
    if fmt == "text":
        return render_text(payload)
    raise ValueError(f"unknown format {fmt!r}")


class ScanCache:
    """Content-addressed file cache; hits return byte-identical payloads."""

    def __init__(self, directory, version):
        self.directory = directory
        self.version = version
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot use cache directory {directory}: {exc}") from None

    def key(self, operation, canonical_input):
        digest = sha256()
        digest.update(self.version.encode())
        digest.update(b"\x00")
        digest.update(operation.encode())
        digest.update(b"\x00")
        digest.update(canonical_input.encode() if isinstance(canonical_input, str)
                      else canonical_input)
        return digest.hexdigest()

    def path(self, key):
        return os.path.join(self.directory, key + ".bin")

    def get(self, key):
        try:
            with open(self.path(key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise UsageError(f"cannot read cache directory {self.directory}: {exc}") from None

    def put(self, key, payload):
        """Store payload under key; UsageError naming the directory when it cannot be written."""
        import tempfile

        # write-temp-then-rename keeps concurrent writers atomic
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self.path(key))
        except OSError as exc:
            raise UsageError(f"cannot write to cache directory {self.directory}: {exc}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
