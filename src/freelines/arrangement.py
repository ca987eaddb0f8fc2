"""Exact line arrangements in the projective plane and their lattice invariants.

Lines are integer-coprime linear forms a*x + b*y + c*z, sign-normalized so that
the first nonzero coefficient is positive: one canonical representative per
projective class, which makes hashing and deduplication trivial. Everything in
this module is integer or rational arithmetic; there is no floating point.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isfinite, isqrt


class ZeroForm(ValueError):
    """All three coefficients of a would-be linear form are zero."""


class DuplicateLine(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"lines {i} and {j} are the same projective line")
        self.i = i
        self.j = j


def _normalize_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    for v in (a, b, c):
        if v:
            if v < 0:
                a, b, c = -a, -b, -c
            break
    return a, b, c


@dataclass(frozen=True, order=True)
class Line:
    """Canonical integer form of a projective line a*x + b*y + c*z = 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if (self.a, self.b, self.c) != _normalize_triple(self.a, self.b, self.c):
            raise ValueError(f"non-canonical line coefficients {(self.a, self.b, self.c)}")

    @property
    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def evaluate(self, point: tuple[int, int, int]) -> int:
        x, y, z = point
        return self.a * x + self.b * y + self.c * z

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}:{self.c}]"


RationalLike = int | float | str | Fraction

# Fraction multiplies by 10**exponent before anything can look at the result,
# so "1e999999999" would build a billion-digit integer. Text with a decimal
# exponent may expand to at most this many digits, which stays below the
# 4300 digits that Python converts back to a string.
MAX_DECIMAL_DIGITS = 4000
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def _bounded_decimal(text: str, what: str) -> str:
    """text, unless its decimal exponent expands it past MAX_DECIMAL_DIGITS digits."""
    m = _DECIMAL_EXPONENT.search(text)
    if m is not None:
        exponent = m.group(1).replace("_", "").lstrip("0")
        mantissa_digits = sum(ch.isdigit() for ch in text[: m.start()])
        if len(exponent) > 5 or mantissa_digits + int(exponent or 0) > MAX_DECIMAL_DIGITS:
            raise ValueError(f"{what}: {text!r} expands to more than {MAX_DECIMAL_DIGITS} digits")
    return text


# Coefficients are mostly plain integers, which int() parses without
# Fraction's general-literal regex; everything else goes to Fraction.
_PLAIN_INTEGER = re.compile(r"-?[0-9]+\Z")


def _as_fraction(v, what: str = "coefficient") -> int | Fraction:
    """The rational a JSON value stands for: an int for an integer, else a Fraction.

    Text reads as Fraction reads it, within the decimal-exponent bound, and a
    finite float by its shortest decimal text, so 0.1 is 1/10. Anything else,
    booleans and non-finite numbers included, raises ValueError naming what.
    """
    if isinstance(v, str):
        if _PLAIN_INTEGER.match(v):
            return int(v)
        v = _bounded_decimal(v, what)
    elif isinstance(v, bool):
        raise ValueError(f"{what}: {v!r} is a boolean, not a number")
    elif isinstance(v, int):
        return v
    elif isinstance(v, float) and isfinite(v):
        v = repr(v)
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ValueError(f"{what}: {v!r} is not a rational number: {exc}") from exc


def canonicalize_line(a: RationalLike, b: RationalLike, c: RationalLike) -> Line:
    """Canonical representative of the projective class of a*x + b*y + c*z.

    Accepts integers, Fractions or "p/q" strings; clears denominators, divides
    by the gcd and sign-normalizes. Raises ZeroForm on the zero triple.
    """
    fa, fb, fc = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    if fa == 0 and fb == 0 and fc == 0:
        raise ZeroForm("the zero form does not define a line")
    lcm = 1
    for f in (fa, fb, fc):
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ia, ib, ic = int(fa * lcm), int(fb * lcm), int(fc * lcm)
    return Line(*_normalize_triple(ia, ib, ic))


@dataclass(frozen=True)
class Arrangement:
    """Ordered tuple of pairwise distinct canonical lines."""

    lines: tuple[Line, ...]

    def __post_init__(self):
        # distinct lines make Q squarefree, which Saito's criterion needs
        seen: dict[Line, int] = {}
        for i, line in enumerate(self.lines):
            if line in seen:
                raise DuplicateLine(seen[line], i)
            seen[line] = i

    @property
    def n(self) -> int:
        return len(self.lines)

    def contains(self, line: Line) -> bool:
        return line in self.lines

    def extended(self, line: Line) -> "Arrangement":
        return build_arrangement(list(self.lines) + [line])


def build_arrangement(lines: list[Line] | tuple[Line, ...]) -> Arrangement:
    """Build an arrangement, preserving order; Arrangement rejects duplicates."""
    if not lines:
        raise ValueError("an arrangement needs at least one line")
    return Arrangement(tuple(lines))


def arrangement_hash(arr: Arrangement) -> str:
    """sha256 over the sorted canonical coefficient triples.

    Sorting makes the hash independent of listing order; the defining
    polynomial, the lattice and freeness are all order-independent.
    """
    payload = ";".join(f"{a},{b},{c}" for a, b, c in sorted((l.a, l.b, l.c) for l in arr.lines))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Intersection lattice summary
# ---------------------------------------------------------------------------


def _cross(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, int, int]:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def intersection_point(l1: Line, l2: Line) -> tuple[int, int, int]:
    """Canonical integer coordinates of the meet of two distinct lines."""
    return _normalize_triple(*_cross(l1.coeffs, l2.coeffs))


@dataclass(frozen=True, slots=True)
class IntersectionPoint:
    """A point of the lattice: canonical coordinates, and bit k of mask set when line k passes through it."""

    x: int
    y: int
    z: int
    mask: int

    @property
    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    @property
    def incident_lines(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.mask.bit_length()) if self.mask >> k & 1)

    @property
    def multiplicity(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class LatticeSummary:
    """Multiplicity data of the intersection lattice and every answer read off it.

    t maps each multiplicity m >= 2 to the number of m-fold points, b2 is
    sum (m_p - 1), and pair_count_check records the double-counting identity
    sum C(m,2) t_m = C(n,2). exponents are the integer roots (d1, d2) of
    t^2 - (n-1)t + (b2 - n + 1), whose discriminant is discriminant, or None
    with no_exponent_reason saying why. line_points gives |A^H| and m(X).
    """

    n: int
    points: tuple[IntersectionPoint, ...]
    t: dict[int, int]
    b2: int
    pair_count_check: bool
    discriminant: int
    exponents: CandidateExponents | None
    no_exponent_reason: str | None

    @property
    def max_multiplicity(self) -> int:
        return max(self.t, default=0)

    def line_points(self) -> list[list[int]]:
        """Per line k, the masks of the points on it, in point order.

        The list's length is |A^H| for H = line k, and a mask's bit count
        less one is m(X), the number of other lines through that point X.
        """
        on: list[list[int]] = [[] for _ in range(self.n)]
        for p in self.points:
            for k in p.incident_lines:
                on[k].append(p.mask)
        return on


@lru_cache(maxsize=4096)
def intersection_summary(arr: Arrangement) -> LatticeSummary:
    """Group all pairwise intersections by canonical point, then decide the exponents once.

    O(n^2) pair enumeration with hash-map grouping, each point's lines kept
    as one bitmask; points in sorted coordinate order, exact throughout.
    """
    groups: dict[tuple[int, int, int], int] = {}
    lines = arr.lines
    n = len(lines)
    for i in range(n):
        for j in range(i + 1, n):
            pt = intersection_point(lines[i], lines[j])
            groups[pt] = groups.get(pt, 0) | 1 << i | 1 << j
    points = tuple(IntersectionPoint(*coords, mask) for coords, mask in sorted(groups.items()))
    t: dict[int, int] = {}
    for p in points:
        t[p.multiplicity] = t.get(p.multiplicity, 0) + 1
    b2 = sum(p.multiplicity - 1 for p in points)
    check = sum(comb(m, 2) * cnt for m, cnt in t.items()) == comb(n, 2)
    delta = (n - 1) ** 2 - 4 * (b2 - n + 1)
    r = isqrt(max(delta, 0))
    exps, reason = None, None
    if delta < 0:
        reason = "delta-negative"
    elif r * r != delta:
        reason = "delta-not-square"
    elif (n - 1 - r) // 2 < 1:
        reason = "nonpositive-root"  # pencils
    else:
        exps = CandidateExponents((n - 1 - r) // 2, (n - 1 + r) // 2, delta)
    return LatticeSummary(n, points, dict(sorted(t.items())), b2, check, delta, exps, reason)


# ---------------------------------------------------------------------------
# Candidate exponents, characteristic polynomial, Tjurina number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateExponents:
    d1: int
    d2: int
    discriminant: int

    def __post_init__(self):
        if not 1 <= self.d1 <= self.d2:
            raise ValueError(f"exponents must satisfy 1 <= d1 <= d2, got ({self.d1}, {self.d2})")
        if self.discriminant != (self.d2 - self.d1) ** 2:
            raise ValueError(f"discriminant {self.discriminant} is not (d2 - d1)^2 = {(self.d2 - self.d1) ** 2}")


def discriminant(arr: Arrangement) -> int:
    return intersection_summary(arr).discriminant


def candidate_exponents(arr: Arrangement) -> CandidateExponents | None:
    """Integer roots (d1, d2) of t^2 - (n-1)t + (b2 - n + 1), if they exist; see no_exponent_reason."""
    return intersection_summary(arr).exponents


def no_exponent_reason(arr: Arrangement) -> str | None:
    """Why candidate exponents do not exist, or None when they do."""
    return intersection_summary(arr).no_exponent_reason


@dataclass(frozen=True)
class CharPoly:
    """Cubic characteristic polynomial and its reduced quadratic factor.

    cubic holds (1, -n, b2, -(b2 - n + 1)); quadratic holds
    (1, -(n-1), b2 - n + 1); cubic = (t - 1) * quadratic and chi(1) = 0.
    """

    cubic: tuple[int, int, int, int]
    quadratic: tuple[int, int, int]

    def eval_cubic(self, t: int) -> int:
        c3, c2, c1, c0 = self.cubic
        return ((c3 * t + c2) * t + c1) * t + c0


def characteristic_polynomial(arr: Arrangement) -> CharPoly:
    s = intersection_summary(arr)
    n, b2 = arr.n, s.b2
    return CharPoly(
        cubic=(1, -n, b2, -(b2 - n + 1)),
        quadratic=(1, -(n - 1), b2 - n + 1),
    )


def tjurina(arr: Arrangement) -> int:
    """Total Tjurina number n(n-1) - b2, cross-checked against sum (m_p - 1)^2."""
    s = intersection_summary(arr)
    n = arr.n
    tau = n * (n - 1) - s.b2
    if tau != sum((p.multiplicity - 1) ** 2 for p in s.points):
        raise RuntimeError(f"Tjurina number {tau} disagrees with sum (m_p - 1)^2")
    exps = s.exponents
    if exps is not None and tau != (n - 1) ** 2 - exps.d1 * exps.d2:
        raise RuntimeError(f"Tjurina number {tau} disagrees with (n - 1)^2 - d1*d2")
    return tau


# ---------------------------------------------------------------------------
# JSON arrangement files: {"lines": [[aStr, bStr, cStr], ...]}
# ---------------------------------------------------------------------------


def arrangement_to_json(arr: Arrangement) -> dict:
    return {"lines": [[str(l.a), str(l.b), str(l.c)] for l in arr.lines]}


def arrangement_from_json(data: dict) -> Arrangement:
    if not isinstance(data, dict) or "lines" not in data:
        raise ValueError("arrangement file needs a 'lines' key")
    raw = data["lines"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("'lines' must be a nonempty list")
    lines = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"line entry {entry!r} is not a coefficient triple")
        lines.append(canonicalize_line(*entry))
    return build_arrangement(lines)


def write_arrangement(path, arr: Arrangement) -> None:
    """Write the arrangement's JSON; an arrangement that cannot be written leaves no file."""
    write_json({path: arrangement_to_json(arr)})


def write_json(files: dict) -> None:
    """Write each {path: data} entry as indented JSON, rendering every text before any file is opened.

    So a value that cannot be rendered leaves no file behind, not an empty
    or a partial one.
    """
    texts = {path: json.dumps(data, indent=2) + "\n" for path, data in files.items()}
    for path, text in texts.items():
        with open(path, "w") as fh:
            fh.write(text)


def json_object(data, what: str) -> dict:
    """data, when it is a JSON object; ValueError naming what otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def json_entry(data: dict, key: str, what: str):
    """data[key]; ValueError naming what when the key is missing."""
    if key not in data:
        raise ValueError(f"{what}: missing key {key!r}")
    return data[key]


def read_json(path, parse):
    """parse applied to the JSON value in the file at path; a bad file raises ValueError naming path.

    A bad file is one that does not decode or that parse refuses with
    ValueError. A nesting too deep for the decoder is one too: json.load
    raises RecursionError on it, which is not a ValueError.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def read_arrangement(path) -> Arrangement:
    """The arrangement in the JSON file at path; a bad file raises ValueError naming path."""
    return read_json(path, arrangement_from_json)
