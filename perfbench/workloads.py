"""Input generators, job lists and output digests for the four workloads.

Every workload is a list of jobs; a job is one CLI invocation on one input.
An input is built in a canonical form and then relabelled from the workload
seed: vertex and arrow names are replaced by random names whose sorted order
matches the canonical one, so every name-based tie-break in the program picks
the same branch and the same term order.  The work done is the same as on the
canonical input, and the report maps back to the canonical report by undoing
the renaming; its digest is then compared with the one recorded for the
canonical input (`expected.json`, written by `record.py`).

`random-mix` also draws its inputs from the seed: it takes one presentation
from each of 40 cost strata of a recorded pool of 200 `random_presentation`
draws, so different seeds run different presentations at a steady total cost.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
import string
from dataclasses import dataclass

MIX_POOL = 200
MIX_DRAWS = 40
MIX_CONFIG = {"max_branches": 6, "max_branch_length": 4, "max_nonmono": 4}
MIX_FLAGS = ("--degree", "4", "--arity", "4")
WIDE_BRANCHES, WIDE_RELATIONS, WIDE_MATRIX_SEED = 32, 24, 20240112
WIDE_COEFFS = (-3, -2, -1, 1, 2, 3)

COMMANDS = (
    "validate",
    "branches",
    "tips",
    "chains",
    "betti",
    "resolution-check",
    "sdr-check",
    "tor-coalgebra",
    "ext-products",
    "stasheff",
    "yoneda",
    "gr",
    "double-dual",
    "oracle-diff",
)
# commands whose report is itself a consistency check: they must say "ok"
SELF_CHECKS = frozenset({"sdr-check", "oracle-diff", "stasheff", "resolution-check"})
# command -> untraced per-group time metric
GROUPS = {
    "validate": "intake_s",
    "branches": "intake_s",
    "tips": "intake_s",
    "chains": "chains_s",
    "betti": "chains_s",
    "resolution-check": "resolution_check_s",
    "sdr-check": "sdr_check_s",
    "tor-coalgebra": "tor_coalgebra_s",
    "ext-products": "ext_products_s",
    "stasheff": "stasheff_s",
    "oracle-diff": "oracle_diff_s",
    "yoneda": "dual_s",
    "gr": "dual_s",
    "double-dual": "dual_s",
}

_NAME = re.compile(r"\b[AV][A-Z0-9]{7}\b")
_NAME_CHARS = string.ascii_uppercase + string.digits


@dataclass(frozen=True)
class Job:
    input_id: str
    args: tuple  # command followed by its flags

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        return " ".join(self.args)


# ---------------------------------------------------------------------------
# canonical inputs


def _branch(verts: list, arrows: list, tag: str, length: int, source="0", sink="w"):
    inner = [f"{tag}{j:02d}" for j in range(1, length)]
    verts.extend(inner)
    stops = [source] + inner + [sink]
    names = [f"{tag}{j + 1:02d}" for j in range(length)]
    arrows.extend({"name": n, "src": s, "dst": d} for n, s, d in zip(names, stops, stops[1:]))
    return names


def line(length: int, k: int) -> dict:
    """One branch of `length` arrows with a length-k monomial relation at every position."""
    verts, arrows = ["0", "w"], []
    names = _branch(verts, arrows, "x", length)
    rels = [[{"coeff": "1", "path": names[i : i + k]}] for i in range(length - k + 1)]
    return {"vertices": verts, "arrows": arrows, "relations": rels}


def plain_beside_quadratic(length: int) -> dict:
    """A relation-free branch beside two length-2 branches tied by one quadratic relation."""
    verts, arrows = ["0", "w"], []
    _branch(verts, arrows, "p", length)
    b = _branch(verts, arrows, "b", 2)
    c = _branch(verts, arrows, "c", 2)
    rel = [{"coeff": "1", "path": b}, {"coeff": "-2", "path": c}]
    return {"vertices": verts, "arrows": arrows, "relations": [rel], "order": [b[0], c[0]]}


def wide() -> dict:
    """Parallel length-2 branches with dense non-monomial relations (fixed matrix)."""
    rng = random.Random(WIDE_MATRIX_SEED)
    verts, arrows, paths = ["0", "w"], [], []
    for i in range(WIDE_BRANCHES):
        paths.append(_branch(verts, arrows, f"y{i:02d}_", 2))
    rels = [
        [{"coeff": str(rng.choice(WIDE_COEFFS)), "path": p} for p in paths]
        for _ in range(WIDE_RELATIONS)
    ]
    return {"vertices": verts, "arrows": arrows, "relations": rels}


def mix_draw(toupie, pool_seed: int) -> dict:
    cfg = toupie.GeneratorConfig(**MIX_CONFIG)
    return toupie.cli.presentation_payload(toupie.random_presentation(pool_seed, cfg))


# ---------------------------------------------------------------------------
# workloads

_LINE_AINF = (
    ("line-10-2", ("--arity", "4")),
    ("line-10-3", ("--arity", "4")),
    ("line-12-7", ("--degree", "3")),
)
_LINE_AINF_COMMANDS = ("chains", "betti", "resolution-check", "tor-coalgebra", "ext-products", "stasheff")
_BAR_SDR_INPUTS = ("plain-8", "line-10-3")


def _fixed_input(input_id: str) -> dict:
    if input_id == "plain-8":
        return plain_beside_quadratic(8)
    if input_id == "wide-32x24":
        return wide()
    _, length, k = input_id.split("-")
    return line(int(length), int(k))


def jobs_for(workload: str, input_ids=()) -> list[Job]:
    """The job list; `input_ids` names the random-mix draws."""
    if workload == "line-ainf":
        return [Job(i, (c,) + flags) for i, flags in _LINE_AINF for c in _LINE_AINF_COMMANDS]
    if workload == "bar-sdr":
        return [
            Job(i, (c, "--degree", d))
            for i in _BAR_SDR_INPUTS
            for c in ("sdr-check", "oracle-diff")
            for d in ("1", "2")
        ]
    if workload == "wide-dual":
        return [Job("wide-32x24", (c,)) for c in ("validate", "tips", "gr", "yoneda", "double-dual")]
    return [Job(i, (c,) + MIX_FLAGS) for i in input_ids for c in COMMANDS]


WORKLOADS = ("line-ainf", "bar-sdr", "wide-dual", "random-mix")


def mix_pick(by_cost: list, rng: random.Random) -> list[int]:
    """One pool seed from each cost stratum, in seeded order."""
    per = len(by_cost) // MIX_DRAWS
    picks = [rng.choice(by_cost[i * per : (i + 1) * per]) for i in range(MIX_DRAWS)]
    rng.shuffle(picks)
    return picks


def canonical_inputs(toupie, workload: str, rng: random.Random | None, by_cost=None) -> dict:
    """input id -> canonical presentation dict.  random-mix needs `rng` and the
    recorded cost order of its pool; with `rng=None` it yields the whole pool."""
    if workload == "random-mix":
        seeds = range(MIX_POOL) if rng is None else mix_pick(by_cost, rng)
        return {f"draw-{s:03d}": mix_draw(toupie, s) for s in seeds}
    ids = dict.fromkeys(j.input_id for j in jobs_for(workload))
    return {i: _fixed_input(i) for i in ids}


# ---------------------------------------------------------------------------
# relabelling and digests


def relabel(data: dict, rng: random.Random) -> tuple[dict, dict]:
    """Rename vertices and arrows order-preservingly; returns (input, new -> old)."""

    def fresh(names, tag):
        canon = sorted(set(names))
        new = set()
        while len(new) < len(canon):
            new.add(tag + "".join(rng.choices(_NAME_CHARS, k=7)))
        return dict(zip(canon, sorted(new)))

    vmap = fresh(data["vertices"], "V")
    amap = fresh([a["name"] for a in data["arrows"]], "A")
    out = {
        "vertices": [vmap[v] for v in data["vertices"]],
        "arrows": [
            {"name": amap[a["name"]], "src": vmap[a["src"]], "dst": vmap[a["dst"]]}
            for a in data["arrows"]
        ],
        "relations": [
            [{"coeff": t["coeff"], "path": [amap[n] for n in t["path"]]} for t in rel]
            for rel in data["relations"]
        ],
    }
    if "order" in data:
        out["order"] = [amap[n] for n in data["order"]]
    inverse = {new: old for old, new in vmap.items()}
    inverse.update((new, old) for old, new in amap.items())
    return out, inverse


def _restore(obj, inverse: dict):
    if isinstance(obj, str):
        return _NAME.sub(lambda m: inverse.get(m.group(0), m.group(0)), obj) if inverse else obj
    if isinstance(obj, list):
        return [_restore(x, inverse) for x in obj]
    if isinstance(obj, dict):
        return {_restore(k, inverse): _restore(v, inverse) for k, v in obj.items()}
    return obj


def report_digest(stdout: str, inverse: dict) -> tuple[str, str]:
    """(status, digest) of a JSON report: only `status` and `result` are hashed,
    after mapping relabelled names back, so the input's file name and sha256
    (which the report embeds) do not enter the digest."""
    report = json.loads(stdout)
    core = _restore({"status": report["status"], "result": report["result"]}, inverse)
    blob = json.dumps(core, sort_keys=True, separators=(",", ":")).encode()
    return report["status"], hashlib.sha256(blob).hexdigest()[:16]
