#!/usr/bin/env python3
"""Walk the three-branch running example end to end: basis, coproducts,
products, and the three dual presentations."""

import argparse

from toupie import (
    ExtAlgebra,
    FormalSum,
    Presentation,
    Quiver,
    TorCoalgebra,
    algebra_table,
    betti_numbers,
    build_groebner,
    double_dual,
    gr_algebra,
    ideal_equal,
    yoneda_presentation,
)


def running_example() -> Presentation:
    q = Quiver(
        ("0", "a12", "a23", "b12", "c12", "w"),
        (
            ("a1", "0", "a12"),
            ("a2", "a12", "a23"),
            ("a3", "a23", "w"),
            ("b1", "0", "b12"),
            ("b2", "b12", "w"),
            ("c1", "0", "c12"),
            ("c2", "c12", "w"),
        ),
    )
    rels = (
        FormalSum({q.path("a1", "a2", "a3"): 1, q.path("c1", "c2"): -1}),
        FormalSum({q.path("b1", "b2"): 1, q.path("c1", "c2"): -1}),
    )
    return Presentation(q, rels, order=("a1", "b1", "c1"))


def fmt_chain(word) -> str:
    return "(" + ", ".join(str(p) for p in word) + ")"


def fmt_sum(fs, fmt_key) -> str:
    if fs.is_zero:
        return "0"
    return " + ".join(f"{c}*{fmt_key(k)}" for k, c in fs.items())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arity", type=int, default=5, help="operation arity bound")
    args = parser.parse_args(argv)

    pres = running_example()
    gd = build_groebner(pres)
    print("== rewriting system")
    print("monomial tips:", [str(t) for t in gd.mono_tips])
    for tip, rel in gd.nonmono_rows:
        print(f"tip {tip}  from  {fmt_sum(rel, str)}")
    print("basis dimension:", gd.dim)
    print("betti numbers:", betti_numbers(gd, 3))

    tor = TorCoalgebra(gd)
    print("\n== reduced coproducts (closed form)")
    for chain in tor.all_chains():
        for n in range(2, args.arity + 1):
            v = tor.closed_delta(n, chain)
            if not v.is_zero:
                print(f"delta_{n} {fmt_chain(chain)} = {fmt_sum(v, lambda ws: ' x '.join(fmt_chain(w) for w in ws))}")

    ext = ExtAlgebra(tor)
    print("\n== nonzero products on dual chains")
    table = algebra_table(ext, args.arity)
    for n in range(2, args.arity + 1):
        for tup, v in table[n].items():
            lhs = ", ".join(fmt_chain(w) for w in tup)
            print(f"m_{n}({lhs}) = {fmt_sum(v, fmt_chain)}")

    print("\n== dual presentations")
    for label, alg in (
        ("gr", gr_algebra(pres)),
        ("yoneda dual", yoneda_presentation(pres)),
        ("double dual", double_dual(pres)),
    ):
        rels = ";  ".join(fmt_sum(r, str) for r in alg.relations)
        print(f"{label}: relations {rels}")
    print("double dual generates the same ideal as gr:", ideal_equal(double_dual(pres), gr_algebra(pres)))


if __name__ == "__main__":
    main()
