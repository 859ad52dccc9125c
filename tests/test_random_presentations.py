from tests.conftest import fixed_violators
from toupie.ainf import TorCoalgebra
from toupie.presentation import branches_of
from toupie.random_presentations import GeneratorConfig, random_presentation
from toupie.rewriting import build_groebner


def test_deterministic_per_seed():
    for seed in (0, 7, 13):
        a = random_presentation(seed)
        b = random_presentation(seed)
        assert [ar.name for ar in a.quiver.arrows] == [ar.name for ar in b.quiver.arrows]
        assert a.relations == b.relations
        assert a.order == b.order


def test_draws_respect_config_bounds():
    cfg = GeneratorConfig()
    for seed in range(25):
        pres = random_presentation(seed, cfg)
        branches = branches_of(pres.quiver)
        assert cfg.min_branches <= len(branches) <= cfg.max_branches
        assert all(1 <= len(p) <= cfg.max_branch_length for p in branches)
        assert pres.relations
        build_groebner(pres)  # every draw is admissible


def test_draws_vary():
    shapes = {
        tuple(sorted(len(p) for p in branches_of(random_presentation(s).quiver)))
        for s in range(20)
    }
    assert len(shapes) >= 5


def test_coproducts_agree_on_random_draws():
    for seed in (1, 4, 11):
        tor = TorCoalgebra(build_groebner(random_presentation(seed)))
        for chain in tor.all_chains():
            for n in (2, 3, 4):
                assert tor.closed_delta(n, chain) == tor.transfer_delta(n, chain)


def test_fixed_violators_build():
    violators = fixed_violators()
    assert len(violators) == 4
    assert len({label for label, _ in violators}) == 4
    degrees = []
    for _, pres in violators:
        gd = build_groebner(pres)
        degrees.append(sorted(len(t) for t in gd.tips))
    assert degrees == [[3], [3, 3], [4], [3]]
