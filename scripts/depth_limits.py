#!/usr/bin/env python3
"""Depth profiles of iterated kernels against their infinite-depth limits.

One representative parameter set per qualitative behavior: critical and
supercritical saturate at 1, the subcritical and affine families flatten to
their fixed point q off the diagonal.  Output: depth_profiles.csv with
columns (label, depth, rho, value, limit).
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

import numpy as np

from thetakernels.kernels import PureKernel, kernel_at_rho, kernel_limit
from thetakernels.pgf import make_theta_pgf

PROFILES = {
    "critical": dict(theta=1.0, a=1.0, c=1.0),
    "supercritical": dict(theta=0.5, a=1.5, c=0.3),
    "subcritical": dict(theta=0.5, a=0.5, q=0.3),
    "zero_family": dict(theta=0.0, a=0.5, q=0.4),
    "negative_theta": dict(theta=-0.5, a=0.5, q=0.3),
    "affine": dict(theta=-1.0, a=0.9, q=0.25),
}

RHO_GRID = (-0.5, 0.0, 0.5, 0.9, 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    parser.add_argument("--max-depth", type=int, default=64)
    args = parser.parse_args(argv)
    if args.max_depth < 1:
        parser.error("--max-depth must be at least 1")
    args.out_dir.mkdir(parents=True, exist_ok=True)

    # The powers of two below --max-depth, then --max-depth itself.
    depths = [1 << k for k in range((args.max_depth - 1).bit_length())] + [args.max_depth]
    grid = np.array(RHO_GRID)
    target = args.out_dir / "depth_profiles.csv"
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["label", "depth", "rho", "value", "limit"])
        for label, params in PROFILES.items():
            f = make_theta_pgf(**params)
            limits = kernel_limit(PureKernel(f, 1), grid)
            for depth in depths:
                values = kernel_at_rho(PureKernel(f, depth), grid)
                for rho, value, limit in zip(grid, values, limits):
                    writer.writerow([label, depth, repr(float(rho)),
                                     repr(float(value)), repr(float(limit))])
            final = kernel_at_rho(PureKernel(f, depths[-1]), grid)
            print(f"{label}: max |K_n - limit| at n={depths[-1]} is "
                  f"{float(np.max(np.abs(final - limits))):.3e}")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
