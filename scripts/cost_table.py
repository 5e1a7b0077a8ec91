"""Print compute reduction tables for the shipped architecture profiles.

For each profile, estimates prefill FLOPs at several dropped-token
fractions on a visual-token-dominated workload and reports the savings
against the dense baseline. Run:

    python3 scripts/cost_table.py
"""

from __future__ import annotations

import argparse
import dataclasses

from evprune.costmodel import (WorkloadSpec, compare, estimate, load_shipped_profile,
                               shipped_profile_names)
from evprune.errors import integer, real


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--image-size", type=integer, default=392, help="square image edge, pixels")
    ap.add_argument("--text-tokens", type=integer, default=59)
    ap.add_argument("--decode", type=integer, default=0)
    ap.add_argument("--dropped", type=real, nargs="+", default=[0.3, 0.5, 0.7])
    args = ap.parse_args()

    for name in shipped_profile_names():
        profile = load_shipped_profile(name)
        work = WorkloadSpec(image_height=args.image_size, image_width=args.image_size,
                            tau=0.0, text_tokens=args.text_tokens,
                            decode_tokens=args.decode)
        dense = estimate(profile, work)
        print(f"{name}  ({args.image_size}x{args.image_size}, "
              f"{args.text_tokens} text tokens, {args.decode} decode steps)")
        print(f"  dense: {dense.flops / 1e12:.2f} TFLOPs, "
              f"{dense.visual_tokens_dense} visual tokens "
              f"-> {dense.merged_tokens} merged")
        for drop in args.dropped:
            sparse = estimate(profile, dataclasses.replace(work, tau=drop))
            red = compare(dense, sparse)
            print(f"  dropped {drop:>4.0%}: {sparse.flops / 1e12:.2f} TFLOPs  "
                  f"(-{red:.1f}% FLOPs, -{red:.1f}% MACs)")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
