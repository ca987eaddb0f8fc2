#!/usr/bin/env python3
"""Certify one two-pencil arrangement per admissible exponent cell, n <= n_max.

Prints one line per cell with the multiplicity profile and re-check verdict,
and a final summary. All certificates are exact and re-derived from scratch.
With out_dir, each cell's arrangement and certificate are written together:
a cell that cannot be written leaves neither file.

Usage: python scripts/coverage_sweep.py [n_max] [out_dir]
"""

import argparse
import os
import sys
import time

from freelines.arrangement import arrangement_to_json, intersection_summary, write_json
from freelines.certify import certificate_to_json, check_certificate
from freelines.search import construct_certified


def main(n_max: int = 20, out_dir: str | None = None) -> int:
    t0 = time.time()
    cells = 0
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for n in range(3, n_max + 1):
        for d1 in range(1, (n - 1) // 2 + 1):
            d2 = n - 1 - d1
            disc = construct_certified(d1, d2)
            ok, failing = check_certificate(disc.arrangement, disc.certificate)
            s = intersection_summary(disc.arrangement)
            print(f"n={n:2d} ({d1:2d},{d2:2d})  b2={s.b2:3d}  t={dict(s.t)}  "
                  f"recheck={'ok' if ok else failing}")
            if not ok:
                return 1
            if out_dir:
                base = os.path.join(out_dir, f"two_pencil_{d1}x{d2}")
                write_json({
                    base + ".json": arrangement_to_json(disc.arrangement),
                    base + ".cert.json": certificate_to_json(disc.certificate),
                })
            cells += 1
    print(f"{cells} cells certified in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n_max", nargs="?", type=int, default=20, help="largest number of lines (default 20)")
    parser.add_argument("out_dir", nargs="?", help="directory for the arrangement and certificate files")
    args = parser.parse_args()
    sys.exit(main(args.n_max, args.out_dir))
