"""Reference arrangements used across the test suite and the docs.

free_13/free_19/free_20 are verified free arrangements with known
multiplicity profiles and exponents (6,6), (7,11) and (9,10). free_16 is an
inductively free (16; 7, 8) arrangement, hash prefix e8968cae13d1, on which a
deletion descent that never undoes a step stalls in its listed line order.
The smaller constructions (coordinate triangle, near-pencils) have classical
hand-checkable behavior. disjoint_pencils builds the non-free mutants that
the refutation tests and benchmark use.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement, build_arrangement, canonicalize_line

F = Fraction


def boolean_arrangement() -> Arrangement:
    """The coordinate triangle {x, y, z}: free with exponents (1, 1)."""
    return build_arrangement([
        canonicalize_line(1, 0, 0),
        canonicalize_line(0, 1, 0),
        canonicalize_line(0, 0, 1),
    ])


def near_pencil(n: int) -> Arrangement:
    """n - 1 lines through [0:0:1] plus z = 0; free with exponents (1, n-2).

    For n = 5 this is {x, y, x-y, x+y, z}; larger n add x - k*y slopes.
    """
    if n < 3:
        raise ValueError("a near-pencil needs at least 3 lines")
    lines = [canonicalize_line(1, 0, 0), canonicalize_line(0, 1, 0)]
    k = 1
    signs = [-1, 1]
    while len(lines) < n - 1:
        lines.append(canonicalize_line(1, signs[len(lines) % 2] * k, 0))
        if len(lines) % 2 == 0:
            k += 1
    lines.append(canonicalize_line(0, 0, 1))
    return build_arrangement(lines)


def _from_table(rows) -> Arrangement:
    return build_arrangement([canonicalize_line(a, b, c) for a, b, c in rows])


def free_13() -> Arrangement:
    """13 lines, multiplicity profile t=(14,6,6,1), b2=48, exponents (6,6)."""
    return _from_table([
        (1, 5, -3),
        (1, F(3, 2), F(-3, 2)),
        (1, 5, 2),
        (1, 4, 1),
        (1, 5, 1),
        (1, F(137, 33), F(13, 33)),
        (1, F(237, 53), 1),
        (1, F(249, 61), F(41, 61)),
        (1, 5, F(13, 9)),
        (1, F(337, 73), F(93, 73)),
        (1, F(22, 3), F(13, 3)),
        (1, F(349, 81), 1),
        (1, F(181, 39), 1),
    ])


def free_16() -> Arrangement:
    """16 lines, profile t=(22,9,6,2,1), b2=71, exponents (7,8); inductively free."""
    return _from_table([
        (0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, -3, -2), (1, -2, 0),
        (1, -1, -2), (1, -1, -1), (1, -1, 0), (1, -1, 2), (1, 0, -2), (1, 0, 0), (1, 0, 1), (1, 1, 0),
    ])


def free_19() -> Arrangement:
    """19 lines, profile t=(24,12,6,6,1), b2=95, exponents (7,11)."""
    return _from_table([
        (1, -1, F(-5, 2)),
        (1, 0, F(4, 3)),
        (1, 0, F(3, 2)),
        (1, 1, 3),
        (1, F(1, 14), F(45, 28)),
        (1, F(-1, 14), F(17, 14)),
        (1, 0, F(79, 56)),
        (1, F(1, 29), F(85, 58)),
        (1, F(1, 42), F(31, 21)),
        (1, 0, F(119, 86)),
        (1, F(2, 43), F(65, 43)),
        (1, F(1, 44), F(125, 88)),
        (1, 0, F(1, 4)),
        (1, F(1, 16), F(23, 16)),
        (1, F(2, 15), F(17, 10)),
        (0, 1, F(11, 4)),
        (1, F(1, 15), F(91, 60)),
        (1, F(2, 45), F(131, 90)),
        (1, F(3, 44), F(17, 11)),
    ])


def free_20() -> Arrangement:
    """20 lines, profile t=(38,14,5,2,4), b2=109, exponents (9,10)."""
    return _from_table([
        (1, -1, F(-5, 2)),
        (1, 0, F(4, 3)),
        (1, 0, F(3, 2)),
        (1, 1, 3),
        (1, F(1, 14), F(45, 28)),
        (1, F(-1, 14), F(17, 14)),
        (1, 0, F(79, 56)),
        (1, F(1, 29), F(85, 58)),
        (1, F(1, 42), F(31, 21)),
        (1, 0, F(119, 86)),
        (1, F(2, 43), F(65, 43)),
        (1, F(1, 44), F(125, 88)),
        (1, F(-2, 41), F(107, 82)),
        (1, F(2, 15), F(17, 10)),
        (1, F(1, 57), F(82, 57)),
        (1, F(-1, 42), F(113, 84)),
        (0, 1, F(11, 4)),
        (1, F(2, 45), F(131, 90)),
        (1, F(-1, 27), F(73, 54)),
        (1, F(1, 15), F(91, 60)),
    ])


def disjoint_pencils(k: int, m: int) -> Arrangement:
    """k lines through [0:0:1] plus m through [1:0:0], sharing no line.

    disjoint_pencils(5, 2) mutates the 7-line two-pencil: same n, same
    b2 = 15 and candidate exponents (3, 3), but not free. (9, 4), (10, 5),
    (11, 5), (13, 6) and (13, 7), the verify-refute benchmark's inputs, also
    have candidate exponents and are not free.
    """
    rows = [(1, 0, 0)] + [(1, -i, 0) for i in range(1, k)] + [(0, 1, -j) for j in range(1, m + 1)]
    return _from_table(rows)


def generic_four() -> Arrangement:
    """{x, y, z, x+y+z}: six double points, b2 = 6, no candidate exponents."""
    return build_arrangement([
        canonicalize_line(1, 0, 0),
        canonicalize_line(0, 1, 0),
        canonicalize_line(0, 0, 1),
        canonicalize_line(1, 1, 1),
    ])
