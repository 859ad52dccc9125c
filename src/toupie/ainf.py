"""Higher coproducts on chains and the dual higher products.

The chains carry a minimal coalgebra model of the bar complex: a family of
higher coproducts transferred through the matching homotopy.  Two
implementations live side by side: `transfer_delta` evaluates the recursive
transfer formula with the zigzag maps (the oracle), projecting each tensor
slot where the recursion makes it (`TorCoalgebra._delta_bar`), while
`closed_delta` cuts the supporting paths into chains directly and is cached
once per arity (`coproduct_layer`).  The higher products on dual chains
(`ExtAlgebra.m`) are the signed transpose of that layer, and
`stasheff_*_defects` verify the coherence identities on materialized tables,
each built from the table's nonzero entries.

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

from .chains import ChainGraph
from .morse import BarSDR
from .presentation import FormalSum
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
    chain (see the test suite), which is the point of having both.
    """

    def __init__(self, gd: GroebnerData):
        self.gd = gd
        self.sdr = BarSDR(gd)
        self.cg: ChainGraph = self.sdr.cg
        self._bar_memo: dict = {}
        self._layers: dict = {}
        self._all_chains = None

    def all_chains(self) -> list:
        """Every chain, by degree; built once and shared, so read it without editing."""
        if self._all_chains is None:
            cg = self.cg
            self._all_chains = [c for d in range(cg.max_chain_degree() + 1) for c in cg.chains(d)]
        return self._all_chains

    def coproduct_layer(self, n: int) -> dict:
        """{chain: Delta_n(chain)} by `closed_delta`, zero values dropped; built once per arity."""
        if n not in self._layers:
            deltas = ((c, self.closed_delta(n, c)) for c in self.all_chains())
            self._layers[n] = {c: v for c, v in deltas if v}
        return self._layers[n]

    # -- transfer (oracle) -------------------------------------------------

    def _delta_h(self, s: int, word) -> FormalSum:
        """Delta_s after the homotopy, each slot projected; stored in `_bar_memo` under (s, word).

        The s = 1 factor is the projection p(word) as 1-slot tuples (see
        `_delta_bar` for why that is exact).
        """
        cx = self.sdr.complex
        if s == 1:
            got = FormalSum(((k,), c) for k, c in cx.p(word).terms.items())
        else:
            got = cx.h(word).map_terms(lambda w: self._delta_bar(s, w))
        self._bar_memo[s, word] = got
        return got

    def _delta_bar(self, n: int, word) -> FormalSum:
        """n-fold coproduct (n >= 2) on the bar complex, pushed through the homotopy,
        with the projection p applied slotwise.

        Every slot of a term is the word u of some s = 1 factor, and the sign of
        an (s, t)-split reads only s, t and the split's letter count, never a
        slot; p has degree 0, so projecting each slot at its s = 1 factor equals
        projecting the finished tensor slotwise, and a zero p(u) prunes the
        branch before it is built.
        """
        memo = self._bar_memo
        out = FormalSum()
        for i in range(1, len(word)):
            u, v = word[:i], word[i:]
            for s in range(1, n):
                t = n - s
                left = memo.get((s, u))
                if left is None:
                    left = self._delta_h(s, u)
                if left.is_zero:
                    continue
                right = memo.get((t, v))
                if right is None:
                    right = self._delta_h(t, v)
                sign = (-1) ** (s * (t + 1) + (t - 1) * i)
                for lk, lc in left.terms.items():
                    for rk, rc in right.terms.items():
                        out.add_term(lk + rk, sign * lc * rc)
        return out

    def transfer_delta(self, n: int, chain) -> FormalSum:
        """Delta_n(chain) through the zigzag: include, then the projected coproduct."""
        return self.sdr.complex.i(tuple(chain)).map_terms(lambda w: self._delta_bar(n, w))

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
        path = self.cg.path(chain)
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
    n and `m` a lookup in it.
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
        got = self.layer(len(duals)).get(duals)
        # a copy, so callers that edit the value leave the cached layer intact
        return got.scale(1) if got else FormalSum()


def coalgebra_table(tor: TorCoalgebra, n_max: int) -> dict:
    """arity -> {chain: Delta_n(chain)} with zero values dropped (arity 1 is empty);
    a copy of the cached layers, so editing the table leaves `tor` intact."""
    table: dict = {1: {}}
    for n in range(2, n_max + 1):
        table[n] = {c: v.scale(1) for c, v in tor.coproduct_layer(n).items()}
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


def stasheff_coalgebra_defects(table: dict, chains, n_max: int) -> list:
    """Coherence of the coproduct table: for each chain and n <= n_max, the signed
    sum of (id^r x Delta_s x id^t) Delta_{r+1+t} must vanish.  Returns (n, chain,
    defect) triples ordered by n, then by the chain's position in `chains`.

    Each defect is built from the table's nonzero entries: every chain gamma
    of `chains` with outer value Delta_a(gamma), word K in it, slot r and word
    W in Delta_s(K[r]) adds one term K[:r] + W + K[r+1:] to (a - 1 + s, gamma).
    Reads only the table, so corrupted tables report honestly.
    """
    pos = {c: i for i, c in enumerate(chains)}
    totals: dict = {}
    for a in range(2, n_max):
        inner_arities = [(s, table.get(s, {})) for s in range(2, n_max + 2 - a)]
        for gamma, outer in table.get(a, {}).items():
            if gamma not in pos:
                continue
            for word, c in outer.terms.items():
                pre = 0  # total degree of word[:r]
                for r, x in enumerate(word):
                    t = a - 1 - r
                    for s, row in inner_arities:
                        inner = row.get(x)
                        if not inner:
                            continue
                        key = (a - 1 + s, pos[gamma])
                        total = totals.get(key)
                        if total is None:
                            total = totals[key] = FormalSum()
                        sign = -c if (r + s * (t + pre)) & 1 else c
                        for w, c2 in inner.terms.items():
                            total.add_term(word[:r] + w + word[r + 1 :], sign * c2)
                        if not total.terms:
                            del totals[key]
                    pre += len(x)
    return [(n, chains[i], totals[n, i]) for n, i in sorted(totals)]


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
                        # a sum that cancels is dropped at once (every sum does
                        # on a clean table) and starts afresh if reached again
                        total.add_scaled(outer, sign * c)
                        if not total.terms:
                            del totals[tup]
                pre += len(gamma)
    pos = {c: i for i, c in enumerate(chains)}
    return sorted(
        ((len(tup), tup, total) for tup, total in totals.items()),
        key=lambda row: (row[0], [pos.get(c, len(pos)) for c in row[1]]),
    )
