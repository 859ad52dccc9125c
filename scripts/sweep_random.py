#!/usr/bin/env python3
"""Randomized sweep: generate seeded presentations and cross-check every
oracle pair we have (closed vs transfer coproducts, the retract's closed
forms vs its zigzag oracle on the whole bar complex and up to each degree,
coherence suites, dimension vs graded dimension, double dual vs gr where the
construction applies), and that every coefficient of the tables, of the
retract's p/i/h and of the Anick projection and differential is exact (`int`
or `Fraction`, never float).  Prints one line per seed and a totals row; exits
nonzero on any mismatch."""

import argparse
import sys
from fractions import Fraction

from toupie import (
    BarSDR,
    ExtAlgebra,
    TorCoalgebra,
    algebra_table,
    bar_words,
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
from toupie.anick import AnickResolution


def exactness_problems(tor, ctab, atab) -> list:
    """One line per coefficient that is not an `int` or a `Fraction`: in the
    tables, in p/h/i on every cell of the bar complex, and in the Anick
    projection on every word and differential on every chain."""
    cx = tor.sdr.complex
    res = AnickResolution(tor.gd)
    words = bar_words(tor.gd)
    cells = [c for ws in words.values() for c in ws]
    sums = [(f"coalgebra table at {k!r}", v) for layer in ctab.values() for k, v in layer.items()]
    sums += [(f"algebra table at {k!r}", v) for layer in atab.values() for k, v in layer.items()]
    for c in cells:
        sums += [(f"p at {c!r}", cx.p(c)), (f"h at {c!r}", cx.h(c))]
        if cx.status(c) == "critical":
            sums.append((f"i at {c!r}", cx.i(c)))
    # Anick's projection takes words: degree 0 holds the vertices
    sums += [(f"Anick p at {c!r}", res.p(c)) for d in words if d for c in words[d]]
    for d in range(tor.cg.max_chain_degree() + 1):
        sums += [(f"Anick differential at {c!r}", res.differential(c)) for c in tor.cg.chains(d)]
    return [
        f"inexact coefficient {c!r} in {label}"
        for label, fs in sums
        for c in fs.terms.values()
        if type(c) not in (int, Fraction)
    ]


def check_seed(seed: int, arity: int) -> list:
    problems = []
    pres = random_presentation(seed)
    gd = build_groebner(pres)
    tor = TorCoalgebra(gd)
    for chain in tor.all_chains():
        for n in range(2, arity + 1):
            if tor.closed_delta(n, chain) != tor.transfer_delta(n, chain):
                problems.append(f"delta_{n} mismatch at {chain}")
    everything = tor.sdr.verify()
    if everything:
        problems.append("retract violation on the whole bar complex")
    degree = {repr(w): k for k, ws in bar_words(gd).items() for w in ws}
    for d in range(1, max(degree.values())):
        # each violation message ends "at <cell>"
        expected = [v for v in everything if degree[v.split(" at ", 1)[1]] <= d]
        if BarSDR(gd).verify(d) != expected:
            problems.append(f"verify({d}) disagrees with the whole check restricted to degree <= {d}")
    ext = ExtAlgebra(tor)
    ctab = coalgebra_table(tor, arity)
    atab = algebra_table(ext, arity)
    if stasheff_coalgebra_defects(ctab, tor.all_chains(), arity):
        problems.append("coalgebra coherence defect")
    if stasheff_algebra_defects(atab, tor.all_chains(), arity):
        problems.append("algebra coherence defect")
    problems += exactness_problems(tor, ctab, atab)

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds, starting at 0")
    parser.add_argument("--arity", type=int, default=4, help="coproduct/product arity bound")
    args = parser.parse_args(argv)

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
