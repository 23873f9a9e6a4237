"""Exact results in a plain form, with their digests and bit-lengths.

A job's results are library objects (series, matrices, arrays, sequences)
or the captured output of a CLI process.  ``plain`` turns each into nested
lists and dicts of ``Fraction`` and ``str`` through the public attributes
of the library types, so a digest depends on the values alone and not on
how a later version of the library stores them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from expriordan.orthopoly import Recurrence
from expriordan.production import JacobiParams, ZAPair
from expriordan.riordan import ExpRiordan, TriMatrix
from expriordan.series import Series

# An integer or p/q in text output (as in "-3/4" or "3x^2"), not part of a
# float such as "1.5" or "1e-05", nor of a name such as "c0".
_RATIONAL_TEXT = re.compile(r"(?<![\w.\-])-?\d+(?:/\d+)?(?![\d.eE])")


@dataclass(frozen=True)
class ChildResult:
    """What one CLI process left: its exit status, its output (stdout and
    stderr together), its peak resident memory."""

    status: int
    stdout: str
    peak_rss_kb: int


def plain(obj):
    """The value of a result as nested lists/dicts of Fraction and str."""
    if isinstance(obj, (int, Fraction)):
        return Fraction(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Series):
        return [obj[i] for i in range(obj.order + 1)]
    if isinstance(obj, TriMatrix):
        return [[obj.entry(i, j) for j in range(obj.dim)] for i in range(obj.dim)]
    if isinstance(obj, ExpRiordan):
        return {"g": plain(obj.g), "f": plain(obj.f), "matrix": plain(obj.matrix)}
    if isinstance(obj, ZAPair):
        return {"z": plain(obj.z), "a": plain(obj.a)}
    if isinstance(obj, JacobiParams):
        return [obj.alpha, obj.beta, obj.gamma, obj.delta]
    if isinstance(obj, Recurrence):
        return {"b": plain(obj.b), "lambda": plain(obj.lam)}
    if isinstance(obj, ChildResult):
        # The peak memory is a measurement, not part of the result.
        return {"status": Fraction(obj.status), "stdout": obj.stdout}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    raise TypeError(f"no plain form for {type(obj).__name__}")


def _text(p) -> str:
    if isinstance(p, Fraction):
        return str(p)
    if p is None:
        return "null"
    if isinstance(p, str):
        return repr(p)
    if isinstance(p, dict):
        return "{" + ",".join(f"{k}:{_text(p[k])}" for k in sorted(p)) + "}"
    return "[" + ",".join(_text(v) for v in p) + "]"


def digest(results: dict) -> str:
    """A short hash of the exact values of a job's results."""
    return hashlib.sha256(_text(plain(results)).encode()).hexdigest()[:20]


def _bits(p) -> int:
    if isinstance(p, Fraction):
        return max(p.numerator.bit_length(), p.denominator.bit_length())
    if p is None:
        return 0
    if isinstance(p, str):
        return max((_bits(Fraction(t)) for t in _RATIONAL_TEXT.findall(p)), default=0)
    values = p.values() if isinstance(p, dict) else p
    return max((_bits(v) for v in values), default=0)


def max_bits(obj) -> int:
    """Largest numerator or denominator bit-length in a result.

    Text results (CLI output, rationals serialized as strings) count the
    integers and ``p/q`` tokens they contain.
    """
    return _bits(plain(obj))
