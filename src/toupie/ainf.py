"""Higher coproducts on chains and the dual higher products.

The chains carry a minimal coalgebra model of the bar complex: a family of
higher coproducts transferred through the matching homotopy.  Two
implementations live side by side: `transfer_delta` evaluates the recursive
transfer formula with the zigzag maps (the oracle), while `closed_delta` cuts
the supporting paths into chains directly and is cached once per arity
(`coproduct_layer`).  The higher products on dual chains (`ExtAlgebra.m`) are
the signed transpose of that layer, `closed_m` their one-term cross-check, and
`stasheff_*_defects` verify the coherence identities on materialized tables.

Conventions (fixed once, used everywhere):
  * a word of k letters has degree k; the homotopy has degree +1;
  * deconcatenation carries no signs; the transfer recursion weights the
    (s, t)-split by (-1)^(s(t+1)) and moving the t-side operator past the
    left factor u costs (-1)^((t-1)|u|);
  * cut formula sign: N = r1 + sum_i (n-i) r_i over block degrees r_i;
  * pairing sign: N' = sum_{i>=2} (|c1|+...+|c_{i-1}|)|f_i|;
  * product prefactor: (-1)^(n(|f1|+...+|fn|)).
"""
from __future__ import annotations

from itertools import product

from .chains import ChainGraph, underlying_path
from .morse import BarSDR
from .presentation import FormalSum, compose
from .rewriting import GroebnerData

__all__ = [
    "TorCoalgebra",
    "ExtAlgebra",
    "coalgebra_table",
    "algebra_table",
    "stasheff_coalgebra_defects",
    "stasheff_algebra_defects",
]


class TorCoalgebra:
    """Higher coproducts Delta_n on the chains of a presentation.

    Output keys are n-tuples of chain words.  `transfer_delta` is the zigzag
    evaluation; `closed_delta` the direct cut formula.  The two agree on every
    chain (see the test suite), which is the point of having both.  `top`
    truncates the bar complex (see `BarSDR`); the transfer of a chain word
    of degree d needs `top` > d.
    """

    def __init__(self, gd: GroebnerData, top: int | None = None):
        self.gd = gd
        self.sdr = BarSDR(gd, top)
        self.cg: ChainGraph = self.sdr.cg
        self._bar_memo: dict = {}
        self._transfer_memo: dict = {}
        self._layers: dict = {}

    def all_chains(self) -> list:
        return [c for d in range(self.cg.max_chain_degree() + 1) for c in self.cg.chains(d)]

    def coproduct_layer(self, n: int) -> dict:
        """{chain: Delta_n(chain)} by `closed_delta`, zero values dropped; built once per arity."""
        if n not in self._layers:
            deltas = ((c, self.closed_delta(n, c)) for c in self.all_chains())
            self._layers[n] = {c: v for c, v in deltas if v}
        return self._layers[n]

    # -- transfer (oracle) -------------------------------------------------

    def _delta_h(self, s: int, word) -> FormalSum:
        # Delta_s after the homotopy, with the s = 1 factor acting as the identity
        if s == 1:
            return FormalSum.lift((word,))
        return self.sdr.complex.h(word).map_terms(lambda w: self._delta_bar(s, w))

    def _delta_bar(self, n: int, word) -> FormalSum:
        """n-fold coproduct on the bar complex, pushed through the homotopy."""
        key = (n, word)
        got = self._bar_memo.get(key)
        if got is not None:
            return got
        out = FormalSum()
        if n == 1:
            out.add_term((word,), 1)
        else:
            for i in range(1, len(word)):
                u, v = word[:i], word[i:]
                for s in range(1, n):
                    t = n - s
                    left = self._delta_h(s, u)
                    if left.is_zero:
                        continue
                    right = self._delta_h(t, v)
                    sign = (-1) ** (s * (t + 1) + (t - 1) * i)
                    for lk, lc in left.terms.items():
                        for rk, rc in right.terms.items():
                            out.add_term(lk + rk, sign * lc * rc)
        self._bar_memo[key] = out
        return out

    def transfer_delta(self, n: int, chain) -> FormalSum:
        """Delta_n(chain) through the zigzag: include, coproduct, project each slot."""
        chain = tuple(chain)
        key = (n, chain)
        got = self._transfer_memo.get(key)
        if got is not None:
            return got
        top = self.sdr.top
        if top is not None and len(chain) >= top:
            # i, h and p on a word of degree d read cells of degree d + 1
            raise ValueError(f"chain of degree {len(chain)} needs cells past the top degree {top}")
        out = FormalSum()
        if n >= 2:
            cx = self.sdr.complex
            for w, c in cx.i(chain).terms.items():
                for tw, tc in self._delta_bar(n, w).terms.items():
                    # the projection has degree 0: expand slotwise, no signs
                    for combo in product(*(cx.p(x).terms.items() for x in tw)):
                        coeff = c * tc
                        for _, pc in combo:
                            coeff *= pc
                        out.add_term(tuple(k for k, _ in combo), coeff)
        self._transfer_memo[key] = out
        return out

    # -- closed form ---------------------------------------------------------

    def closed_delta(self, n: int, chain) -> FormalSum:
        """Cut the supporting paths of a chain into n chains of matching total degree.

        A 1-chain is supported on its whole defining relation, so the cuts run
        over every path in that relation's support (tail paths land in other
        branches and decompose into arrows).  A higher chain is supported on
        its underlying path alone; each block of a cut must parse as a chain,
        block degrees must sum to one less than the chain's degree, and the
        term is signed by N = r1 + sum_{i<n} (n-i) r_i.
        """
        chain = tuple(chain)
        out = FormalSum()
        r = len(chain) - 1
        if n < 2 or r < 1:
            return out
        path = underlying_path(chain)
        support = self.gd.tip_inverse(path) if r == 1 else FormalSum.lift(path)
        for q, cq in support.terms.items():
            for blocks in self.cg.decompositions((q,), n, r - 1):
                degs = [len(b) - 1 for b in blocks]
                n_exp = degs[0] + sum((n - 1 - j) * degs[j] for j in range(n - 1))
                out.add_term(blocks, cq * (-1) ** n_exp)
        return out


class ExtAlgebra:
    """Higher products on dual chains, dual to the higher coproducts.

    A dual basis element is keyed by its chain word; degree = letter count.
    `layer(n)` is the signed transpose of the cached coproduct layer of arity
    n and `m` a lookup in it; `closed_m` is the independent one-term closed
    form used to cross-check signs.
    """

    def __init__(self, tor: TorCoalgebra):
        self.tor = tor
        self.cg = tor.cg
        self.gd = tor.gd
        self._layers: dict = {}

    @staticmethod
    def pairing_sign(duals) -> int:
        """(-1)^N' for pairing the dual tuple with the equal tensor word of chains."""
        n_exp = 0
        acc = 0
        for i, f in enumerate(duals):
            if i:
                n_exp += acc * len(f)
            acc += len(f)
        return (-1) ** n_exp

    @staticmethod
    def transpose(n: int, coproducts: dict) -> dict:
        """{chain: Delta_n(chain)} -> {dual tuple: m_n(tuple)}, signed by the product
        prefactor times the pairing sign.  Every word of Delta_n(gamma) has total
        degree |gamma| + n - 2, so gamma is exactly the chain m_n pairs it against.
        """
        out: dict = {}
        for gamma, delta in coproducts.items():
            for word, c in delta.terms.items():
                sign = (-1) ** (n * sum(len(f) for f in word)) * ExtAlgebra.pairing_sign(word)
                out.setdefault(word, FormalSum()).add_term(gamma, sign * c)
        return out

    def layer(self, n: int) -> dict:
        """{dual tuple: m_n(tuple)} over the nonzero products of arity n; built once
        and shared, so read it without editing (`m` hands out copies)."""
        if n not in self._layers:
            self._layers[n] = self.transpose(n, self.tor.coproduct_layer(n))
        return self._layers[n]

    def m(self, duals) -> FormalSum:
        """m_n(f1 ... fn): a combination of dual chains, keyed by their chains."""
        duals = tuple(tuple(f) for f in duals)
        n = len(duals)
        if n < 2:
            return FormalSum()
        got = self.layer(n).get(duals)
        # a copy, so callers that edit the value leave the cached layer intact
        return FormalSum(got.terms) if got else FormalSum()

    def closed_m(self, duals) -> FormalSum:
        """One-term product formula on composable tuples, for cross-checking.

        All-arrow tuples sweep the relations containing the concatenated path
        (sign (-1)^(n(n+1)/2), coefficient from the relation); otherwise the
        concatenation must parse as a chain of the matching degree and the
        value is that chain's dual with sign (-1)^M.
        """
        duals = tuple(tuple(f) for f in duals)
        n = len(duals)
        out = FormalSum()
        if n < 2:
            return out
        for f, g in zip(duals, duals[1:]):
            if underlying_path(f).target != underlying_path(g).source:
                return out
        concat = underlying_path(duals[0])
        for f in duals[1:]:
            concat = compose(concat, underlying_path(f))
        degs = [len(f) - 1 for f in duals]
        if not any(degs):
            # every factor an arrow: the products live on the relations
            sign = (-1) ** (n * (n + 1) // 2)
            for t in self.gd.tips:
                c = self.gd.tip_inverse(t).coeff(concat)
                if c:
                    out.add_term(self.cg.parse(t), sign * c)
            return out
        gamma = self.cg.parse(concat)
        if gamma is None or len(gamma) != sum(degs) + 2:
            return out
        m_exp = (
            degs[0]
            + sum((n + i + 2) * degs[i] for i in range(n))
            + sum(degs[i] * degs[j] for i in range(n) for j in range(i + 1, n))
            + n * (n + 1) // 2
        )
        out.add_term(gamma, (-1) ** m_exp)
        return out


def coalgebra_table(tor: TorCoalgebra, n_max: int) -> dict:
    """arity -> {chain: Delta_n(chain)} with zero values dropped (arity 1 is empty);
    a copy of the cached layers, so editing the table leaves `tor` intact."""
    table: dict = {1: {}}
    for n in range(2, n_max + 1):
        table[n] = {c: FormalSum(v.terms) for c, v in tor.coproduct_layer(n).items()}
    return table


def algebra_table(ext: ExtAlgebra, n_max: int) -> dict:
    """arity -> {dual tuple: m_n value} with zero values dropped (arity 1 is empty).

    Rows are the keys of the transposed layer, ordered by the positions of their
    chains in `all_chains`: the nested order of the composable tuples.
    """
    index = {c: i for i, c in enumerate(ext.tor.all_chains())}
    table: dict = {1: {}}
    for n in range(2, n_max + 1):
        rows = sorted(ext.layer(n), key=lambda t: [index[c] for c in t])
        table[n] = {t: ext.m(t) for t in rows}
    return table


def _table_get(table: dict, arity: int, key) -> FormalSum:
    return table.get(arity, {}).get(key) or FormalSum()


def stasheff_coalgebra_defects(table: dict, chains, n_max: int) -> list:
    """Coherence of the coproduct table: for each chain and n <= n_max, the signed
    sum of (id^r x Delta_s x id^t) Delta_{r+1+t} must vanish.  Returns (n, chain,
    defect) triples; reads only the table, so corrupted tables report honestly.
    """
    bad = []
    for n in range(2, n_max + 1):
        for gamma in chains:
            total = FormalSum()
            for s in range(2, n):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    outer = _table_get(table, r + 1 + t, gamma)
                    sign = (-1) ** (r + s * t)
                    for word, c in outer.terms.items():
                        koszul = (-1) ** (s * sum(len(word[j]) for j in range(r)))
                        for inner, c2 in _table_get(table, s, word[r]).terms.items():
                            total.add_term(
                                word[:r] + inner + word[r + 1 :], sign * koszul * c * c2
                            )
            if total:
                bad.append((n, gamma, total))
    return bad


def stasheff_algebra_defects(table: dict, chains, n_max: int) -> list:
    """Coherence of the product table: for each tuple of n <= n_max chains, the
    signed sum of m_{r+1+t}(id^r x m_s x id^t) must vanish.  Returns (n, tuple,
    defect) triples ordered by n, then by the positions of the tuple's chains
    in `chains` (the nested composable order).

    Each defect is built from the table's nonzero entries: every outer key K,
    slot r and inner key W with K[r] in m_s(W) adds one term to the tuple
    K[:r] + W + K[r+1:].  Reads only the table, so corrupted tables report
    honestly, a key that is not composable included.
    """
    # value index per inner arity: gamma -> [(W, c)] for every gamma in m_s(W)
    by_value: dict = {}
    for s in range(2, n_max):
        index = by_value[s] = {}
        for word, fs in table.get(s, {}).items():
            for gamma, c in fs.terms.items():
                index.setdefault(gamma, []).append((word, c))
    totals: dict = {}
    for a in range(2, n_max):
        for key, outer in table.get(a, {}).items():
            pre = 0  # total degree of key[:r]
            for r, gamma in enumerate(key):
                t = a - 1 - r
                for s in range(2, n_max + 2 - a):
                    sign = -1 if (r + s * (t + pre)) & 1 else 1
                    for word, c in by_value[s].get(gamma, ()):
                        tup = key[:r] + word + key[r + 1 :]
                        total = totals.get(tup)
                        if total is None:
                            total = totals[tup] = FormalSum()
                        total.add_scaled(outer, sign * c)
                pre += len(gamma)
    pos = {c: i for i, c in enumerate(chains)}
    return sorted(
        ((len(tup), tup, total) for tup, total in totals.items() if total),
        key=lambda row: (row[0], [pos.get(c, len(pos)) for c in row[1]]),
    )
