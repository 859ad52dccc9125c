"""Command-line front end.

Reads a presentation from a JSON file, runs one computation or consistency
check, and prints a deterministic report in text or JSON form.  Exit status:
0 for a clean run, 1 when a check finds a violation or a dual construction is
refused, 2 for usage or input errors.

Input schema::

    {
      "vertices": ["0", "m", "w"],
      "arrows": [{"name": "a1", "src": "0", "dst": "m"}, ...],
      "relations": [[{"coeff": "1", "path": ["a1", "a2"]},
                     {"coeff": "-1/2", "path": ["b1", "b2"]}], ...],
      "order": ["a1", "b1"]
    }

`order` is optional and ranks branches of equal length by first arrow: each
entry is the first arrow of a branch, listed once.
Coefficients are exact rationals written as ``"n"`` or ``"n/d"``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import __version__
# every job parses with this module; `_run` and each command import what they run
from .presentation import Arrow, FormalSum, Path, Presentation, Quiver

_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_TOP_KEYS = {"vertices", "arrows", "relations", "order"}
_ARROW_KEYS = {"name", "src", "dst"}
_TERM_KEYS = {"coeff", "path"}


class InputError(Exception):
    """Malformed input file or job description; maps to exit status 2."""


# ---------------------------------------------------------------------------
# input parsing


def _error(fmt: str, *args) -> InputError:
    # built only once a check has failed, so valid input formats no message
    return InputError(fmt.format(*args))


def parse_presentation(data, where: str = "input") -> Presentation:
    """Build a Presentation from decoded JSON, annotating errors with the
    path of the offending element (e.g. ``file.json.relations[1][0].coeff``).

    Each check tests the exact JSON type first and falls back to `isinstance`,
    so subclasses of str, dict and list pass as before."""
    if type(data) is not dict and not isinstance(data, dict):
        raise _error("{}: expected a JSON object", where)
    if not data.keys() <= _TOP_KEYS:
        raise _error("{}: unknown keys {}", where, sorted(set(data) - _TOP_KEYS))
    for key in ("vertices", "arrows", "relations"):
        if key not in data:
            raise _error("{}: missing key {!r}", where, key)

    verts = data["vertices"]
    if not ((type(verts) is list or isinstance(verts, list)) and verts):
        raise _error("{}.vertices: expected a nonempty list", where)
    for i, v in enumerate(verts):
        if type(v) is not str and not isinstance(v, str):
            raise _error("{}.vertices[{}]: expected a string", where, i)
    vert_set = set(verts)
    if len(vert_set) != len(verts):
        raise _error("{}.vertices: duplicate vertex names", where)

    raw_arrows = data["arrows"]
    if type(raw_arrows) is not list and not isinstance(raw_arrows, list):
        raise _error("{}.arrows: expected a list", where)
    by_name = {}
    for i, item in enumerate(raw_arrows):
        if type(item) is not dict and not isinstance(item, dict):
            raise _error("{}.arrows[{}]: expected an object", where, i)
        if item.keys() != _ARROW_KEYS:
            extra = sorted(set(item) - _ARROW_KEYS)
            if extra:
                raise _error("{}.arrows[{}]: unknown keys {}", where, i, extra)
        name, src, dst = item.get("name"), item.get("src"), item.get("dst")
        if not (type(name) is str and type(src) is str and type(dst) is str):
            for key in ("name", "src", "dst"):
                if not isinstance(item.get(key), str):
                    if key not in item:
                        raise _error("{}.arrows[{}]: missing key {!r}", where, i, key)
                    raise _error("{}.arrows[{}].{}: expected a string", where, i, key)
        if src not in vert_set:
            raise _error("{}.arrows[{}].src: unknown vertex {!r}", where, i, src)
        if dst not in vert_set:
            raise _error("{}.arrows[{}].dst: unknown vertex {!r}", where, i, dst)
        if name in by_name:
            raise _error("{}.arrows[{}].name: duplicate arrow name {!r}", where, i, name)
        by_name[name] = Arrow(name, src, dst)
    quiver = Quiver(tuple(verts), tuple(by_name.values()))

    raw_rels = data["relations"]
    if type(raw_rels) is not list and not isinstance(raw_rels, list):
        raise _error("{}.relations: expected a list", where)
    relations = []
    for i, terms in enumerate(raw_rels):
        if not ((type(terms) is list or isinstance(terms, list)) and terms):
            raise _error("{}.relations[{}]: expected a nonempty list of terms", where, i)
        rel = FormalSum()
        for j, term in enumerate(terms):
            if type(term) is not dict and not isinstance(term, dict):
                raise _error("{}.relations[{}][{}]: expected an object", where, i, j)
            if term.keys() != _TERM_KEYS:
                extra = sorted(set(term) - _TERM_KEYS)
                if extra:
                    raise _error("{}.relations[{}][{}]: unknown keys {}", where, i, j, extra)
                for key in ("coeff", "path"):
                    if key not in term:
                        raise _error("{}.relations[{}][{}]: missing key {!r}", where, i, j, key)
            coeff = term["coeff"]
            if not ((type(coeff) is str or isinstance(coeff, str)) and _RATIONAL.fullmatch(coeff)):
                raise _error(
                    '{}.relations[{}][{}].coeff: expected an exact rational written "n" or "n/d"',
                    where, i, j,
                )
            names = term["path"]
            if not ((type(names) is list or isinstance(names, list)) and names):
                raise _error(
                    "{}.relations[{}][{}].path: expected a nonempty list of arrow names", where, i, j
                )
            try:
                arrs = tuple([by_name[nm] for nm in names])
                path = Path(arrs[0].src, arrs)
            except (KeyError, TypeError):
                for k, nm in enumerate(names):
                    if not isinstance(nm, str):
                        raise _error(
                            "{}.relations[{}][{}].path[{}]: expected a string", where, i, j, k
                        )
                    if nm not in by_name:
                        raise _error(
                            "{}.relations[{}][{}].path[{}]: unknown arrow {!r}", where, i, j, k, nm
                        )
                raise  # not reached: a failed lookup fails one of the checks
            except ValueError as err:
                raise InputError(f"{where}.relations[{i}][{j}].path: {err}") from err
            # `_RATIONAL` has checked the string, so both give the same exact
            # rational, unless it has more digits than the runtime converts
            try:
                c = Fraction(coeff) if "/" in coeff else int(coeff)
            except ValueError as err:
                raise _error(
                    "{}.relations[{}][{}].coeff: more than {} digits",
                    where, i, j, sys.get_int_max_str_digits(),
                ) from err
            rel.add_term(path, c)
        if not rel.terms:
            raise _error("{}.relations[{}]: terms cancel to zero", where, i)
        relations.append(rel)

    order = data.get("order", [])
    if type(order) is not list and not isinstance(order, list):
        raise _error("{}.order: expected a list", where)
    try:
        return Presentation(quiver, tuple(relations), order=tuple(order))
    except ValueError as err:  # a bad `order` entry, located as "order[i]: ..."
        raise InputError(f"{where}.{err}") from err


# ---------------------------------------------------------------------------
# serialization


def relation_payload(rel: FormalSum) -> list:
    return [{"coeff": str(c), "path": list(p.names)} for p, c in rel.items()]


def presentation_payload(pres) -> dict:
    """Schema-shaped dict for a Presentation or a derived presentation; the
    output can be fed back through ``parse_presentation`` unchanged."""
    q = pres.quiver
    out = {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "src": a.src, "dst": a.dst} for a in q.arrows],
        "relations": [relation_payload(r) for r in pres.relations],
    }
    if pres.order:
        out["order"] = list(pres.order)
    return out


def chain_payload(word) -> list:
    return [list(letter.names) for letter in word]


class _ChainPayloads(dict):
    """chain word -> `chain_payload(word)`, built on first use.  A command makes
    one per job, so a chain that recurs in its report is one shared list, which
    the writer writes once per indent; the store, and the paths its words hold,
    are freed when the command returns."""

    def __missing__(self, word):
        got = self[word] = chain_payload(word)
        return got


def _tensor_terms(fs: FormalSum, payloads: _ChainPayloads) -> list:
    return [
        {"coeff": str(c), "factors": [payloads[w] for w in key]}
        for key, c in fs.items()
    ]


def _chain_terms(fs: FormalSum, payloads: _ChainPayloads) -> list:
    return [{"coeff": str(c), "chain": payloads[w]} for w, c in fs.items()]


def build_report(job: argparse.Namespace, digest: str, status: str, result: dict) -> dict:
    return {
        "tool": {"name": "toupie", "version": __version__},
        "command": job.command,
        "input": {"path": job.input, "sha256": digest},
        "parameters": {"degree": job.degree, "arity": job.arity},
        "status": status,
        "result": result,
    }


_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str, memo: dict) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` continued at `indent`, in one
    pass: str-keyed dicts, lists, str, int, bool and None are written here, any
    other value by `json.dumps` with its lines shifted.  Containers are built
    with one join and one f-string each, so a large report is copied once per
    nesting level, not once per `+`.

    `memo` keeps the text of each list of string lists (a chain payload) by its
    id and indent.  Nothing edits the tree while it is written, so one object
    at one indent always gives the same text, and a shared payload is written
    once per indent.  The ids stay valid while the caller holds the tree."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        head = value[0]
        if type(head) is str:
            try:
                return f"[\n{inner}{sep.join(map(_quote, value))}\n{indent}]"
            except TypeError:  # not every element is a string
                pass
        elif type(head) is list and head and type(head[0]) is str:
            key = (id(value), indent)
            text = memo.get(key)
            if text is None:
                body = sep.join([_json(x, inner, memo) for x in value])
                text = memo[key] = f"[\n{inner}{body}\n{indent}]"
            return text
        return f"[\n{inner}{sep.join([_json(x, inner, memo) for x in value])}\n{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        items = sorted(value.items())
        # a str key compares only with str keys, so one str key means all are
        if type(items[0][0]) is str:
            inner = indent + "  "
            body = (",\n" + inner).join(
                [
                    f"{_quote(k)}: {_quote(v) if type(v) is str else _json(v, inner, memo)}"
                    for k, v in items
                ]
            )
            return f"{{\n{inner}{body}\n{indent}}}"
    elif kind is int:
        return int.__repr__(value)
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report, "", {}) + "\n"
    params = report["parameters"]
    lines = [
        "toupie " + report["tool"]["version"],
        "command: " + report["command"],
        "input: {} sha256={}".format(report["input"]["path"], report["input"]["sha256"]),
        "parameters: " + " ".join(f"{k}={params[k]}" for k in sorted(params)),
        "status: " + report["status"],
    ]
    result = report["result"]
    for key in sorted(result):
        lines.append(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(job: argparse.Namespace, pres: Presentation, gd):
    from .presentation import branches_of
    branches = branches_of(pres.quiver)
    result = {
        "source": branches[0].source,
        "sink": branches[0].target,
        "vertices": len(pres.quiver.vertices),
        "arrows": len(pres.quiver.arrows),
        "branch_lengths": sorted([len(b.arrows) for b in branches], reverse=True),
        "relations": {"monomial": len(gd.mono_tips), "nonmonomial": len(gd.nonmono_rows)},
        "dimension": gd.dim,
    }
    return "ok", result


def cmd_branches(job: argparse.Namespace, pres: Presentation, gd):
    from .rewriting import classify_branches
    rows = [
        {"arrows": list(b.names), "length": len(b), "classes": [cls]}
        for b, cls in classify_branches(gd).items()
    ]
    return "ok", {"branches": rows}


def cmd_tips(job: argparse.Namespace, pres: Presentation, gd):
    result = {
        "monomial": [list(t.names) for t in gd.mono_tips],
        "nonmonomial": [
            {"tip": list(t.names), "relation": relation_payload(rel)}
            for t, rel in gd.nonmono_rows
        ],
        "dimension": gd.dim,
    }
    return "ok", result


def cmd_chains(job: argparse.Namespace, pres: Presentation, gd):
    from .chains import ChainGraph
    cg = ChainGraph(gd)
    by_degree, counts = {}, []
    for d in range(job.degree + 1):
        layer = cg.chains(d)
        counts.append(len(layer))
        by_degree[str(d)] = [chain_payload(w) for w in layer]
        if not layer:
            break
    return "ok", {"counts": counts, "by_degree": by_degree}


def cmd_betti(job: argparse.Namespace, pres: Presentation, gd):
    from .anick import betti_numbers
    # a d-chain spans at least d + 1 arrows of one branch, so no chain has a
    # degree at or above the arrow count: past it every rank is zero
    ranks = betti_numbers(gd, min(job.degree, len(gd.quiver.arrows) + 1))
    # chains nest, so past the first empty degree every rank stays zero
    while len(ranks) > 1 and ranks[-1] == 0 and ranks[-2] == 0:
        ranks.pop()
    return "ok", {"betti": ranks}


def cmd_resolution_check(job: argparse.Namespace, pres: Presentation, gd):
    from .anick import AnickResolution, betti_numbers
    rep = AnickResolution(gd).check(job.degree)
    ok = rep["square_zero"] and rep["augmented"] and rep["minimal"]
    result = {
        "max_degree": job.degree,
        "square_zero": rep["square_zero"],
        "augmented": rep["augmented"],
        "minimal": rep["minimal"],
        "betti": betti_numbers(gd, job.degree),
        "violations": rep["violations"],
    }
    return ("ok" if ok else "violation"), result


def cmd_sdr_check(job: argparse.Namespace, pres: Presentation, gd):
    from .morse import BarSDR
    bad = BarSDR(gd).verify(job.degree)
    return ("ok" if not bad else "violation"), {
        "max_degree": job.degree,
        "violations": bad,
    }


def cmd_tor_coalgebra(job: argparse.Namespace, pres: Presentation, gd):
    from .ainf import TorCoalgebra, coalgebra_table
    table = coalgebra_table(TorCoalgebra(gd), job.arity)
    payloads = _ChainPayloads()
    out = {
        str(n): [
            {"chain": payloads[chain], "terms": _tensor_terms(fs, payloads)}
            for chain, fs in table[n].items()
        ]
        for n in range(2, job.arity + 1)
    }
    return "ok", {"coproducts": out}


def _product_rows(table: dict, n_max: int) -> dict:
    payloads = _ChainPayloads()
    return {
        str(n): [
            {"args": [payloads[w] for w in tup], "terms": _chain_terms(fs, payloads)}
            for tup, fs in table[n].items()
        ]
        for n in range(2, n_max + 1)
    }


def cmd_ext_products(job: argparse.Namespace, pres: Presentation, gd):
    from .ainf import ExtAlgebra, TorCoalgebra, algebra_table
    table = algebra_table(ExtAlgebra(TorCoalgebra(gd)), job.arity)
    return "ok", {"products": _product_rows(table, job.arity)}


def _stasheff_payload(gd, arity: int, payloads: _ChainPayloads) -> dict:
    from .ainf import ExtAlgebra, TorCoalgebra, algebra_table, coalgebra_table
    from .ainf import stasheff_algebra_defects, stasheff_coalgebra_defects
    tor = TorCoalgebra(gd)
    ext = ExtAlgebra(tor)
    ctab = coalgebra_table(tor, arity)
    atab = algebra_table(ext, arity)
    chains = tor.all_chains()
    cbad = stasheff_coalgebra_defects(ctab, chains, arity)
    abad = stasheff_algebra_defects(atab, chains, arity)
    return {
        "coalgebra_defects": [
            {"arity": n, "chain": payloads[c], "defect": _tensor_terms(fs, payloads)}
            for n, c, fs in cbad
        ],
        "algebra_defects": [
            {"arity": n, "args": [payloads[w] for w in tup], "defect": _chain_terms(fs, payloads)}
            for n, tup, fs in abad
        ],
    }


def cmd_stasheff(job: argparse.Namespace, pres: Presentation, gd):
    payload = _stasheff_payload(gd, job.arity, _ChainPayloads())
    clean = not payload["coalgebra_defects"] and not payload["algebra_defects"]
    return ("ok" if clean else "violation"), {"input": payload}


def _refusal_payload(gd, err, job: argparse.Namespace) -> dict:
    """Refusals still ship the operation tables so the structure that broke
    the construction stays inspectable."""
    from .ainf import ExtAlgebra, TorCoalgebra, algebra_table
    table = algebra_table(ExtAlgebra(TorCoalgebra(gd)), job.arity)
    return {"reasons": list(err.reasons), "products": _product_rows(table, job.arity)}


def cmd_yoneda(job: argparse.Namespace, pres: Presentation, gd):
    from .duality import HypothesesError, yoneda_presentation
    try:
        dual = yoneda_presentation(pres)
    except HypothesesError as err:
        return "refused", _refusal_payload(gd, err, job)
    return "ok", {
        "provenance": "yoneda",
        "presentation": presentation_payload(dual),
    }


def cmd_gr(job: argparse.Namespace, pres: Presentation, gd):
    from .duality import gr_algebra
    from .rewriting import build_groebner
    graded = gr_algebra(pres)
    gdim = build_groebner(graded).dim
    result = {
        "provenance": "gr",
        "presentation": presentation_payload(graded),
        "dimension": {"input": gd.dim, "gr": gdim},
    }
    return ("ok" if gdim == gd.dim else "violation"), result


def cmd_double_dual(job: argparse.Namespace, pres: Presentation, gd):
    from .duality import HypothesesError, double_dual, gr_algebra, ideal_equal
    try:
        dd = double_dual(pres)
    except HypothesesError as err:
        return "refused", _refusal_payload(gd, err, job)
    graded = gr_algebra(pres)
    eq = ideal_equal(dd, graded)
    result = {
        "matches_gr": eq,
        "presentation": presentation_payload(dd),
        "gr_presentation": presentation_payload(graded),
    }
    return ("ok" if eq else "violation"), result


def cmd_oracle_diff(job: argparse.Namespace, pres: Presentation, gd):
    from .ainf import TorCoalgebra
    tor, payloads = TorCoalgebra(gd), _ChainPayloads()
    chains = tor.all_chains()
    mismatches = []
    for n in range(2, job.arity + 1):
        for chain in chains:
            closed = tor.closed_delta(n, chain)
            transfer = tor.transfer_delta(n, chain)
            if closed != transfer:
                mismatches.append(
                    {
                        "arity": n,
                        "chain": payloads[chain],
                        "closed": _tensor_terms(closed, payloads),
                        "transfer": _tensor_terms(transfer, payloads),
                    }
                )
    sdr_bad = tor.sdr.verify(job.degree)
    result = {
        "chains_checked": len(chains),
        "coproduct_mismatches": mismatches,
        "sdr_violations": sdr_bad,
    }
    return ("ok" if not mismatches and not sdr_bad else "violation"), {"input": result}


_HANDLERS = {
    "validate": cmd_validate,
    "branches": cmd_branches,
    "tips": cmd_tips,
    "chains": cmd_chains,
    "betti": cmd_betti,
    "resolution-check": cmd_resolution_check,
    "sdr-check": cmd_sdr_check,
    "tor-coalgebra": cmd_tor_coalgebra,
    "ext-products": cmd_ext_products,
    "stasheff": cmd_stasheff,
    "yoneda": cmd_yoneda,
    "gr": cmd_gr,
    "double-dual": cmd_double_dual,
    "oracle-diff": cmd_oracle_diff,
}
_COMMAND_NAMES = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# driver


def _check_golden(path_str: str, out_bytes: bytes) -> int:
    import difflib
    try:
        try:
            with open(path_str, "rb") as fh:
                want = fh.read()
        except FileNotFoundError:
            want = None
            with open(path_str, "wb") as fh:
                fh.write(out_bytes)
    except OSError as err:
        # a missing directory, a directory in place of the file, or a file
        # named as a directory (a trailing slash)
        raise InputError(f"{path_str}: {err.strerror or err}") from err
    if want is None:
        print(f"toupie: golden file written: {path_str}", file=sys.stderr)
        return 0
    if want == out_bytes:
        return 0
    diff = difflib.unified_diff(
        want.decode("utf-8", "replace").splitlines(keepends=True),
        out_bytes.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=path_str,
        tofile="current",
    )
    sys.stderr.writelines(diff)
    print(f"toupie: report differs from golden file {path_str}", file=sys.stderr)
    return 1


def _run(job: argparse.Namespace) -> int:
    try:
        with open(job.input, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"{job.input}: {err.strerror or err}") from err
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise InputError(f"{job.input}: not UTF-8 ({err})") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{job.input}:{err.lineno}:{err.colno}: {err.msg}") from err
    pres = parse_presentation(data, where=job.input)

    from . import rewriting
    try:
        # the one reduction of the job, read through the module so a patch reaches it
        gd = rewriting.build_groebner(pres)
        status, result = _HANDLERS[job.command](job, pres, gd)
    except ValueError as err:
        # domain checks (toupie shape, relations not of branch form, ...) land here
        status, result = "violation", {"reason": str(err)}

    report = build_report(job, digest, status, result)
    out = render_report(report, job.format)
    sys.stdout.write(out)
    code = 0 if status == "ok" else 1
    if job.golden is not None:
        code = max(code, _check_golden(job.golden, out.encode("utf-8")))
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first `main` call and reused by every later one (one per job
    # in a batch)
    parser = argparse.ArgumentParser(
        prog="toupie",
        description="Exact homological computations for single-source, single-sink quiver presentations.",
    )
    parser.add_argument("command", metavar="COMMAND", help="one of: " + ", ".join(_COMMAND_NAMES))
    parser.add_argument("input", metavar="INPUT", help="presentation JSON file")
    parser.add_argument(
        "--degree", type=int, default=5, help="homological degree bound (default 5)"
    )
    parser.add_argument("--arity", type=int, default=5, help="operation arity bound (default 5)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format (default text)"
    )
    parser.add_argument(
        "--golden", help="golden report file: compare byte-for-byte, write it if absent"
    )
    return parser


def main(argv=None) -> int:
    job = _parser().parse_args(argv)
    try:
        if job.command not in _HANDLERS:
            raise InputError(f"unknown command {job.command!r}")
        if job.degree < 1:
            raise InputError("degree bound must be >= 1")
        if job.arity < 1:
            raise InputError("arity bound must be >= 1")
        return _run(job)
    except InputError as err:
        print(f"toupie: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
