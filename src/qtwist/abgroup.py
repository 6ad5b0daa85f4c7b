"""Finite abelian groups, homomorphisms and T-valued bicharacters.

A group is a product of cyclic factors Z/n_1 x ... x Z/n_r; elements are
integer tuples of residues, listed lexicographically.  Each group caches
integer index tables in that order (digits, add_table, neg_table), so
array code works on element positions instead of tuples.  A bicharacter on
G x H is stored exactly as an integer exponent matrix M with
M[i][j] in [0, gcd(n_i, m_j)), evaluating to

    chi(a, b) = prod_ij exp(2 pi i a_i M[i][j] b_j / gcd(n_i, m_j)).

Every bicharacter of a finite abelian pair has this normal form, so
enumeration and pullback are exact integer computations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "FinAbGroup",
    "GroupHom",
    "Bicharacter",
    "evaluate",
    "dual_bicharacter",
    "enumerate_bicharacters",
    "pullback",
    "dual_group",
    "pairing_value",
    "pairing_table",
    "regular_bicharacter",
    "hom_h_to_dual_g",
    "hom_g_to_dual_h",
]


@dataclass(frozen=True)
class FinAbGroup:
    """Direct sum of cyclic groups, cycles = (n_1, ..., n_r)."""

    cycles: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycles or any(int(n) < 1 for n in self.cycles):
            raise ValueError(f"cycle orders must be positive, got {self.cycles}")
        object.__setattr__(self, "cycles", tuple(int(n) for n in self.cycles))

    @property
    def order(self) -> int:
        return math.prod(self.cycles)

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic order of residue vectors."""
        return list(itertools.product(*(range(n) for n in self.cycles)))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, g) -> tuple[int, ...]:
        g = tuple(int(x) for x in g)
        if len(g) != self.rank:
            raise ValueError(f"element {g} has wrong rank for cycles {self.cycles}")
        return tuple(x % n for x, n in zip(g, self.cycles))

    def add(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(self.reduce(g), self.reduce(h), self.cycles))

    def neg(self, g) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(self.reduce(g), self.cycles))

    def index(self, g) -> int:
        """Position of g in elements() (lexicographic ranking)."""
        g = self.reduce(g)
        idx = 0
        for a, n in zip(g, self.cycles):
            idx = idx * n + a
        return idx

    def generators(self) -> list[tuple[int, ...]]:
        eye = np.eye(self.rank, dtype=int)
        return [tuple(row) for row in eye]

    # index tables over elements() positions, read-only and shared by every
    # group with the same cycles

    @property
    def digits(self) -> np.ndarray:
        """(order, rank) residues of elements(), row x the element at x."""
        return _index_tables(self.cycles)[0]

    @property
    def add_table(self) -> np.ndarray:
        """(order, order) positions: add_table[x, y] = index(g_x + g_y)."""
        return _index_tables(self.cycles)[1]

    @property
    def neg_table(self) -> np.ndarray:
        """(order,) positions: neg_table[x] = index(-g_x)."""
        return _index_tables(self.cycles)[2]


@functools.lru_cache(maxsize=64)
def _index_tables(cycles: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, add_table, neg_table) of the group with these cycles."""
    order = math.prod(cycles)
    digits = np.stack(np.unravel_index(np.arange(order), cycles), axis=1)
    total = (digits[:, None, :] + digits[None, :, :]) % cycles
    add = np.ravel_multi_index(tuple(np.moveaxis(total, 2, 0)), cycles)
    neg = np.ravel_multi_index(tuple(((-digits) % cycles).T), cycles)
    for t in (digits, add, neg):
        t.flags.writeable = False
    return digits, add, neg


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism source -> target given by an integer matrix on residues."""

    source: FinAbGroup
    target: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]  # shape (target.rank, source.rank)

    def __post_init__(self) -> None:
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if len(m) != self.target.rank or any(len(r) != self.source.rank for r in m):
            raise ValueError("hom matrix shape must be (target.rank, source.rank)")
        for k, mk in enumerate(self.target.cycles):
            for i, ni in enumerate(self.source.cycles):
                if (ni * m[k][i]) % mk != 0:
                    raise ValueError(
                        f"not a homomorphism: {ni} * M[{k}][{i}] != 0 mod {mk}"
                    )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, group: FinAbGroup) -> "GroupHom":
        eye = tuple(tuple(int(i == j) for j in range(group.rank)) for i in range(group.rank))
        return cls(group, group, eye)

    def apply(self, g) -> tuple[int, ...]:
        g = self.source.reduce(g)
        return self.target.reduce(
            tuple(sum(row[i] * g[i] for i in range(self.source.rank)) for row in self.matrix)
        )

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other (source of the result is other.source)."""
        if other.target != self.source:
            raise ValueError("hom composition mismatch")
        prod = tuple(
            tuple(
                sum(self.matrix[k][i] * other.matrix[i][j] for i in range(self.source.rank))
                for j in range(other.source.rank)
            )
            for k in range(self.target.rank)
        )
        return GroupHom(other.source, self.target, prod)

    def is_injective(self) -> bool:
        seen = {self.apply(g) for g in self.source.elements()}
        return len(seen) == self.source.order

    def is_surjective(self) -> bool:
        return len({self.apply(g) for g in self.source.elements()}) == self.target.order


@dataclass(frozen=True)
class Bicharacter:
    """Bicharacter on group_g x group_h in exponent-matrix normal form."""

    group_g: FinAbGroup
    group_h: FinAbGroup
    exponents: tuple[tuple[int, ...], ...]  # shape (g.rank, h.rank)

    def __post_init__(self) -> None:
        m = tuple(tuple(int(x) for x in row) for row in self.exponents)
        if len(m) != self.group_g.rank or any(len(r) != self.group_h.rank for r in m):
            raise ValueError("exponent matrix shape must be (g.rank, h.rank)")
        fixed = []
        for i, ni in enumerate(self.group_g.cycles):
            row = []
            for j, mj in enumerate(self.group_h.cycles):
                row.append(m[i][j] % math.gcd(ni, mj))
            fixed.append(tuple(row))
        object.__setattr__(self, "exponents", tuple(fixed))
        # the phase is num / L turns, L the lcm of the gcd(n_i, m_j), with
        # num = sum_ij a_i M[i][j] (L / gcd(n_i, m_j)) b_j
        gcds = [[math.gcd(ni, mj) for mj in self.group_h.cycles] for ni in self.group_g.cycles]
        lcm = math.lcm(*(g for row in gcds for g in row))
        weights = tuple(
            tuple(e * (lcm // g) for e, g in zip(erow, grow))
            for erow, grow in zip(fixed, gcds)
        )
        object.__setattr__(self, "_turns", (lcm, weights))

    @classmethod
    def trivial(cls, group_g: FinAbGroup, group_h: FinAbGroup) -> "Bicharacter":
        zero = tuple((0,) * group_h.rank for _ in range(group_g.rank))
        return cls(group_g, group_h, zero)

    def is_trivial(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.exponents)

    def _numerator(self, a, b) -> int:
        a = self.group_g.reduce(a)
        b = self.group_h.reduce(b)
        lcm, weights = self._turns
        num = sum(ai * w * bj for ai, row in zip(a, weights) for w, bj in zip(row, b))
        return num % lcm

    def angle(self, a, b) -> Fraction:
        """Exact phase in turns (value = exp(2 pi i angle)), reduced mod 1."""
        return Fraction(self._numerator(a, b), self._turns[0])

    def value(self, a, b) -> complex:
        # int / int is correctly rounded, so this is float(angle) bit for bit
        return complex(np.exp(2j * np.pi * (self._numerator(a, b) / self._turns[0])))

    def value_table(self) -> np.ndarray:
        """Matrix of values over elements() x elements() orderings.

        The numerators of value() for all pairs at once, as one integer
        product of the digit tables with the weights; each entry equals
        value() bit for bit.  Formed once per bicharacter and read-only.
        """
        return self._values

    @functools.cached_property
    def _values(self) -> np.ndarray:
        lcm, weights = self._turns
        num = (self.group_g.digits @ np.array(weights, dtype=np.int64)) @ self.group_h.digits.T
        table = np.exp(2j * np.pi * ((num % lcm) / lcm))
        table.flags.writeable = False
        return table

    def as_diagonal(self) -> np.ndarray:
        """Unitary in the function algebras of G and H: diagonal on l2(G x H)."""
        return np.diag(self.value_table().reshape(-1))

    def dual(self) -> "Bicharacter":
        return dual_bicharacter(self)


def evaluate(chi: Bicharacter, a, b) -> complex:
    return chi.value(a, b)


def dual_bicharacter(chi: Bicharacter) -> Bicharacter:
    """Flip-and-conjugate: chi_hat(b, a) = conj(chi(a, b))."""
    m = tuple(
        tuple(-chi.exponents[i][j] for i in range(chi.group_g.rank))
        for j in range(chi.group_h.rank)
    )
    return Bicharacter(chi.group_h, chi.group_g, m)


def enumerate_bicharacters(group_g: FinAbGroup, group_h: FinAbGroup):
    """All bicharacters on G x H; there are prod_ij gcd(n_i, m_j) of them."""
    gcds = [
        math.gcd(ni, mj) for ni in group_g.cycles for mj in group_h.cycles
    ]
    for flat in itertools.product(*(range(g) for g in gcds)):
        rows = tuple(
            tuple(flat[i * group_h.rank + j] for j in range(group_h.rank))
            for i in range(group_g.rank)
        )
        yield Bicharacter(group_g, group_h, rows)


def pullback(chi2: Bicharacter, f: GroupHom, g: GroupHom) -> Bicharacter:
    """Bicharacter (a, b) |-> chi2(f(a), g(b)), in exact normal form."""
    if f.target != chi2.group_g or g.target != chi2.group_h:
        raise ValueError("homs must land in the factor groups of chi2")
    G, H = f.source, g.source
    rows = []
    for i, ni in enumerate(G.cycles):
        row = []
        for j, mj in enumerate(H.cycles):
            a = f.apply(tuple(int(i == t) for t in range(G.rank)))
            b = g.apply(tuple(int(j == t) for t in range(H.rank)))
            r = chi2.angle(a, b)
            d = math.gcd(ni, mj)
            scaled = r * d
            if scaled.denominator != 1:
                raise RuntimeError("pullback angle is not a gcd-th root of unity")
            row.append(int(scaled) % d)
        rows.append(tuple(row))
    return Bicharacter(G, H, tuple(rows))


# ---------------------------------------------------------------------------
# Pontryagin dual conventions


def dual_group(group: FinAbGroup) -> FinAbGroup:
    """Dual group, modeled on the same cycle tuple.

    The pairing is <g, p> = prod_i exp(2 pi i g_i p_i / n_i); see
    pairing_value.
    """
    return FinAbGroup(group.cycles)


def pairing_value(group: FinAbGroup, g, p) -> complex:
    g = group.reduce(g)
    p = group.reduce(p)
    ang = sum(Fraction(a * b, n) for a, b, n in zip(g, p, group.cycles)) % 1
    return complex(np.exp(2j * np.pi * float(ang)))


def pairing_table(group: FinAbGroup) -> np.ndarray:
    """pairing_value over elements() x elements() of the dual, bit for bit.

    The angle sum_i g_i p_i / n_i is the integer numerator
    sum_i g_i p_i (L / n_i) mod L over L = lcm(n_i), for every pair at once.
    """
    lcm = math.lcm(*group.cycles)
    weights = np.array([lcm // n for n in group.cycles], dtype=np.int64)
    num = ((group.digits * weights) @ group.digits.T) % lcm
    return np.exp(2j * np.pi * (num / lcm))


def regular_bicharacter(group: FinAbGroup) -> Bicharacter:
    """Classical form of the reduced bicharacter of the group algebra of G.

    Defined on G x dual(G) with value <g, p>^{-1}; this is the unique sign
    for which the regular pair (translations, multiplication by characters)
    on l2(G) satisfies the Weyl orientation used throughout this package.
    One bicharacter per group, with its value_table, is shared by every
    caller; _regular_bicharacter.cache_clear() drops it.
    """
    return _regular_bicharacter(group)


@functools.lru_cache(maxsize=64)
def _regular_bicharacter(group: FinAbGroup) -> Bicharacter:
    dg = dual_group(group)
    rows = tuple(
        tuple((-(int(i == j))) % math.gcd(ni, nj) for j, nj in enumerate(dg.cycles))
        for i, ni in enumerate(group.cycles)
    )
    return Bicharacter(group, dg, rows)


def hom_h_to_dual_g(chi: Bicharacter) -> GroupHom:
    """The hom H -> dual(G) induced by chi.

    Satisfies pullback(regular_bicharacter(G), id_G, this) == chi.
    """
    G, H = chi.group_g, chi.group_h
    rows = tuple(
        tuple(
            (-chi.exponents[i][j] * (G.cycles[i] // math.gcd(G.cycles[i], H.cycles[j])))
            % G.cycles[i]
            for j in range(H.rank)
        )
        for i in range(G.rank)
    )
    return GroupHom(H, dual_group(G), rows)


def hom_g_to_dual_h(chi: Bicharacter) -> GroupHom:
    """The hom G -> dual(H) induced by chi.

    Satisfies pullback(regular_bicharacter(dual role of H), this, id_H) == chi,
    where the target bicharacter is regular_bicharacter on (dual(H), H).
    """
    G, H = chi.group_g, chi.group_h
    rows = tuple(
        tuple(
            (-chi.exponents[i][j] * (H.cycles[j] // math.gcd(G.cycles[i], H.cycles[j])))
            % H.cycles[j]
            for i in range(G.rank)
        )
        for j in range(H.rank)
    )
    return GroupHom(G, dual_group(H), rows)
