#!/usr/bin/env python3
"""Figure 13 end to end: lifetime of the five erase schemes.

Cycles five block sets — one per scheme — to failure and prints the
average-MRBER trajectories and lifetimes, the paper's headline lifetime
result (AERO +43 %, AEROcons +30 %, DPES +26 %, i-ISPE -25 % vs the
5.3K-cycle Baseline).

Each scheme's block set cycles independently, so the campaign fans out
across worker processes with ``--workers`` (identical results either
way). Scheme keys resolve through the plugin registry, so
``--schemes`` accepts any registered scheme. The equivalent shell
command is::

    python -m repro compare --blocks 48 --step 50 --seed 1

Run:  python examples/lifetime_comparison.py
      python examples/lifetime_comparison.py --workers 5
      python examples/lifetime_comparison.py --engine object   # pre-kernel path
"""

import argparse

from repro import SCHEME_KEYS
from repro.analysis.tables import format_table
from repro.harness import ProcessExecutor, ThreadExecutor
from repro.kernels import ENGINES
from repro.lifetime import compare_schemes
from repro.nand.chip_types import TLC_3D_48L


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="workers, one scheme each (default: serial)",
    )
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="process",
        help="worker kind when --workers > 1 (default: process)",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="vectorized batch kernels when available (auto), or force "
             "one execution path",
    )
    parser.add_argument(
        "--schemes", default=",".join(SCHEME_KEYS),
        help="comma-separated scheme keys (first is the baseline)",
    )
    args = parser.parse_args()
    scheme_keys = tuple(key for key in args.schemes.split(",") if key)
    if not scheme_keys:
        parser.error("--schemes needs at least one scheme key")
    executor = None
    if args.workers > 1:
        executor_cls = (
            ThreadExecutor if args.executor == "thread" else ProcessExecutor
        )
        executor = executor_cls(args.workers)

    print("Cycling five 48-block sets to failure (this takes a few seconds)...\n")
    comparison = compare_schemes(
        TLC_3D_48L, scheme_keys=scheme_keys, block_count=48, step=50,
        seed=1, executor=executor, engine=args.engine,
    )

    base = comparison.curves[scheme_keys[0]].lifetime_pec
    rows = []
    for key in scheme_keys:
        curve = comparison.curves[key]
        if key == scheme_keys[0] or base is None:
            delta = "--"
        elif curve.lifetime_pec is None:
            delta = "never crossed"
        else:
            delta = f"{curve.lifetime_pec / base - 1:+.1%}"
        rows.append(
            [
                key,
                curve.lifetime_pec if curve.lifetime_pec is not None else ">max",
                delta,
                round(curve.mrber_at(250), 1),
                round(curve.mrber_at(2000), 1),
                round(curve.mrber_at(4000), 1),
            ]
        )
    print(
        format_table(
            ["scheme", "lifetime (PEC)", "vs baseline",
             "MRBER@0.25K", "MRBER@2K", "MRBER@4K"],
            rows,
            title="SSD lifetime under 1-year retention (requirement: 63 bits/KiB)",
        )
    )
    print()
    print("Reading the table like the paper's Figure 13:")
    print(" * AERO pays extra raw bit errors up front (aggressive under-")
    print("   erasure spends the ECC margin) but its gentler erases slow")
    print("   wear so much that it outlives everything else.")
    print(" * i-ISPE's loop skipping misfires on 3D chips: erase failures")
    print("   escalate the voltage ladder and *shorten* lifetime.")


if __name__ == "__main__":
    main()
