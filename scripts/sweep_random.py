#!/usr/bin/env python3
"""Randomized sweep: generate seeded presentations and cross-check every
oracle pair we have (closed vs transfer coproducts, the retract's closed
forms vs its zigzag oracle on the full and on each truncated bar complex,
coherence suites, dimension vs graded dimension, double dual vs gr where the
construction applies).  Prints one line per seed and a totals row; exits
nonzero on any mismatch."""

import argparse
import sys

from toupie import (
    BarSDR,
    ExtAlgebra,
    TorCoalgebra,
    algebra_table,
    build_groebner,
    coalgebra_table,
    double_dual,
    gr_algebra,
    hypotheses_check,
    ideal_equal,
    random_presentation,
    stasheff_algebra_defects,
    stasheff_coalgebra_defects,
)


def check_seed(seed: int, arity: int) -> list:
    problems = []
    pres = random_presentation(seed)
    gd = build_groebner(pres)
    tor = TorCoalgebra(gd)
    for chain in tor.all_chains():
        for n in range(2, arity + 1):
            if tor.closed_delta(n, chain) != tor.transfer_delta(n, chain):
                problems.append(f"delta_{n} mismatch at {chain}")
    if tor.sdr.verify():
        problems.append("retract violation on the full bar complex")
    top = max(tor.sdr.complex.cells_by_degree)
    for d in range(1, top):
        if BarSDR(gd, d + 1).verify(d):
            problems.append(f"retract violation at degree <= {d} on the complex cut at {d + 1}")
    ext = ExtAlgebra(tor)
    ctab = coalgebra_table(tor, arity)
    atab = algebra_table(ext, arity)
    if stasheff_coalgebra_defects(ctab, tor.all_chains(), arity):
        problems.append("coalgebra coherence defect")
    tuples = {n: ext.composable_tuples(n) for n in range(2, arity + 1)}
    if stasheff_algebra_defects(atab, tuples, arity):
        problems.append("algebra coherence defect")

    graded = gr_algebra(pres)
    if build_groebner(graded).dim != gd.dim:
        problems.append("dim(gr) != dim")
    if hypotheses_check(gd):
        if not ideal_equal(double_dual(pres), graded):
            problems.append("double dual disagrees with gr")
        status = "dual-checked"
    else:
        status = "dual-skipped"
    label = "ok" if not problems else "FAIL"
    arrows = len(pres.quiver.arrows)
    print(f"seed {seed:4d}  arrows {arrows:2d}  dim {gd.dim:3d}  {status:13s} {label}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds, starting at 0")
    parser.add_argument("--arity", type=int, default=4, help="coproduct/product arity bound")
    args = parser.parse_args()

    failures = 0
    for seed in range(args.seeds):
        problems = check_seed(seed, args.arity)
        for p in problems:
            print(f"  !! {p}")
        failures += bool(problems)
    print(f"{args.seeds} seeds, {failures} with failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
