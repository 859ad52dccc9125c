"""Seeded random presentations for the property suites.

Draws a quiver with a handful of parallel branches and sprinkles monomial
subpath relations and full-rank combinations of whole branches over it.  Every
draw is validated by actually building the rewriting data; degenerate draws
(rank drops after reduction, no admissible relation material) are retried.
`fixed_violators` returns small presentations that each break one hypothesis
of the double-dual construction, for the refusal paths.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

from . import presentation, rewriting
from .presentation import FormalSum, Presentation, Quiver
from .rewriting import GroebnerData

__all__ = ["GeneratorConfig", "random_presentation", "random_groebner", "fixed_violators"]


@dataclass(frozen=True)
class GeneratorConfig:
    min_branches: int = 2
    max_branches: int = 5
    max_branch_length: int = 4
    max_nonmono: int = 3
    mono_probability: float = 0.35
    coeff_pool: tuple = (-2, -1, -1, 1, 1, 2, 3)


def _draw_quiver(rng: random.Random, cfg: GeneratorConfig):
    b = rng.randint(cfg.min_branches, cfg.max_branches)
    lengths = [rng.randint(1, cfg.max_branch_length) for _ in range(b)]
    if all(l < 2 for l in lengths):
        lengths[rng.randrange(b)] = rng.randint(2, cfg.max_branch_length)
    vertices = ["0", "w"]
    arrows = []
    for i, length in enumerate(lengths):
        tag = string.ascii_lowercase[i]
        inner = [f"{tag}{j}" for j in range(1, length)]
        vertices.extend(inner)
        stops = ["0"] + inner + ["w"]
        arrows.extend((f"{tag}{j + 1}", stops[j], stops[j + 1]) for j in range(length))
    return Quiver(vertices, arrows), lengths


def _draw_relations(rng: random.Random, cfg: GeneratorConfig, q: Quiver):
    branches = presentation.branches_of(q)
    eligible = [p for p in branches if len(p) >= 2]
    rels = []
    # whole-branch combinations, coefficient rows kept at full rank
    if len(eligible) >= 2:
        k = rng.randint(0, min(cfg.max_nonmono, len(eligible) - 1))
        rows = []
        for _ in range(k):
            row = [Fraction(0)] * len(eligible)
            picks = rng.sample(range(len(eligible)), rng.randint(2, len(eligible)))
            for j in picks:
                row[j] = Fraction(rng.choice(cfg.coeff_pool))
            rows.append(row)
        rows, _ = rewriting.rref(rows)
        for row in rows:
            rels.append(FormalSum((p, c) for p, c in zip(eligible, row) if c))
    # monomial subpaths
    seen = set()
    for p in branches:
        if len(p) >= 2 and rng.random() < cfg.mono_probability:
            i = rng.randrange(0, len(p) - 1)
            j = rng.randrange(i + 2, len(p) + 1)
            sub = p.slice(i, j)
            if sub not in seen:
                seen.add(sub)
                rels.append(FormalSum.lift(sub))
    return rels, branches


def random_presentation(seed: int, cfg: GeneratorConfig = GeneratorConfig()) -> Presentation:
    """A valid presentation drawn from the seed; retries internally on degenerate draws."""
    rng = random.Random(seed)
    for _ in range(64):
        q, _ = _draw_quiver(rng, cfg)
        rels, branches = _draw_relations(rng, cfg, q)
        if not rels:
            continue
        order = [p.arrows[0].name for p in branches]
        rng.shuffle(order)
        pres = Presentation(q, tuple(rels), order=tuple(order))
        try:
            rewriting.build_groebner(pres)
        except ValueError:
            continue
        return pres
    raise RuntimeError(f"no valid presentation for seed {seed}")


def random_groebner(seed: int, cfg: GeneratorConfig = GeneratorConfig()) -> GroebnerData:
    return rewriting.build_groebner(random_presentation(seed, cfg))


def fixed_violators() -> list[tuple[str, Presentation]]:
    """Presentations that each break one hypothesis of the double-dual construction."""
    out = []

    q = Quiver(
        ["0", "v1", "v2", "w"],
        [("d1", "0", "v1"), ("d2", "v1", "v2"), ("d3", "v2", "w")],
    )
    out.append(
        ("cubic monomial relation", Presentation(q, (FormalSum.lift(q.path("d1", "d2", "d3")),)))
    )

    q = Quiver(
        ["0", "a1v", "a2v", "b1v", "b2v", "c1v", "w"],
        [
            ("a1", "0", "a1v"),
            ("a2", "a1v", "a2v"),
            ("a3", "a2v", "w"),
            ("b1", "0", "b1v"),
            ("b2", "b1v", "b2v"),
            ("b3", "b2v", "w"),
            ("c1", "0", "c1v"),
            ("c2", "c1v", "w"),
        ],
    )
    rel1 = FormalSum({q.path("a1", "a2", "a3"): Fraction(1), q.path("c1", "c2"): Fraction(-1)})
    rel2 = FormalSum({q.path("b1", "b2", "b3"): Fraction(1), q.path("c1", "c2"): Fraction(-1)})
    out.append(
        (
            "two non-quadratic tips in one linked component",
            Presentation(q, (rel1, rel2), order=("a1", "b1", "c1")),
        )
    )

    q = Quiver(
        ["0", "v1", "v2", "v3", "w"],
        [
            ("d1", "0", "v1"),
            ("d2", "v1", "v2"),
            ("d3", "v2", "v3"),
            ("d4", "v3", "w"),
        ],
    )
    out.append(
        (
            "quartic monomial relation",
            Presentation(q, (FormalSum.lift(q.path("d1", "d2", "d3", "d4")),)),
        )
    )

    # a lone relation with no quadratic block: its graded replacement is cubic,
    # out of reach of any quadratic dual presentation
    q = Quiver(
        ["0", "a1v", "a2v", "b1v", "b2v", "w"],
        [
            ("a1", "0", "a1v"),
            ("a2", "a1v", "a2v"),
            ("a3", "a2v", "w"),
            ("b1", "0", "b1v"),
            ("b2", "b1v", "b2v"),
            ("b3", "b2v", "w"),
        ],
    )
    rel = FormalSum({q.path("a1", "a2", "a3"): Fraction(1), q.path("b1", "b2", "b3"): Fraction(1)})
    out.append(
        (
            "non-monomial relation without a quadratic block",
            Presentation(q, (rel,), order=("a1", "b1")),
        )
    )
    return out
