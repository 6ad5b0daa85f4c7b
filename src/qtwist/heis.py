"""Weyl pairs for a bicharacter on a pair of finite abelian groups.

A chi-Heisenberg pair is a pair of unitary representations, U of G and
V of H on one space, obeying U_g V_h = chi(g,h) V_h U_g; the anti
variant carries the scalar on the other side.  These relations are the
only way the twist enters the twisted tensor product, so everything
here is certified numerically: representation axioms at construction,
the Weyl relation on all element pairs, and the three-leg operator form
of the same identity as an independent cross-check.  The canonical pair
is H's regular pair pulled back along the hom G -> dual(H) that chi
induces, so it is read off that pair, certified term by term once per
group (regular_pair).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .abgroup import Bicharacter, FinAbGroup, dual_group, hom_g_to_dual_h, pairing_table
from .matspan import DEFAULT_TOL, Frame, Tolerance, cmatrix, frame, read_only
from .qgroup import QuantumGroupModel, build_model, indicators, translations

__all__ = [
    "RepPair",
    "RegularPair",
    "regular_pair",
    "rep_pair",
    "is_heisenberg",
    "is_anti_heisenberg",
    "canonical_heisenberg",
    "composite_heisenberg",
    "amplify_pair",
    "conjugate_pair",
    "swap_pair",
    "commutation_check",
    "heisenberg_leg_residual",
    "anti_heisenberg_leg_residual",
    "pentagon_pair_residual",
]


@dataclass
class RepPair:
    """Unitary representations U of G and V of H on a common space.

    A pair read off H's regular pair (canonical_heisenberg) also carries
    chi, the bicharacter it was built for, weyl_residual, its Weyl
    residual for chi, regular, the shared RegularPair, and characters,
    the position in dual_group(H).elements() of p(g) for each g in
    G.elements(), so that U_g is regular.U[p(g)].  Any other pair has None
    there.  weyl_frame(tol) is the frame of the pair's own Weyl monomials.
    """

    group_g: FinAbGroup
    group_h: FinAbGroup
    space_dim: int
    U: dict
    V: dict
    report: dict = field(default_factory=dict)
    chi: Bicharacter | None = None
    weyl_residual: float | None = None
    regular: RegularPair | None = None
    characters: np.ndarray | None = None
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weyl_frame(self, tol: Tolerance = DEFAULT_TOL) -> Frame:
        """matspan.frame of the Weyl monomials U_g V_h, g-major, formed
        once per tolerance and held on the pair."""
        if tol not in self._frames:
            us, vs = _stack(self.group_g, self.U), _stack(self.group_h, self.V)
            t_mats = np.matmul(us[:, None], vs[None, :]).reshape(-1, *us.shape[1:])
            self._frames[tol] = frame(t_mats, tol)
        return self._frames[tol]


def _stack(group: FinAbGroup, rep: dict) -> np.ndarray:
    """(order, d, d) stack of a family's matrices in elements() order."""
    return np.stack([rep[g] for g in group.elements()])


def _norms(diff: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (k, d, d) stack."""
    return np.linalg.norm(diff.reshape(diff.shape[0], -1), axis=1)


def _rep_norms(group: FinAbGroup, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unitary, homomorphism) defects of a (|G|, d, d) family stack in
    elements() order: ||U_g U_g* - 1|| for every g and
    ||U_{g+h} - U_g U_h|| for every (g, h).

    The pairs (g, h) are taken one left element g at a time, over the
    stack of all h: rep[g + h] - rep[g] rep[h] is formed for every h at
    once, so a (|G|, d, d) array is the largest held.
    """
    unitary = _norms(stack @ stack.conj().transpose(0, 2, 1) - np.eye(stack.shape[1]))
    hom = np.stack([_norms(stack[group.add_table[x]] - m @ stack) for x, m in enumerate(stack)])
    return unitary, hom


def _rep_residual(group: FinAbGroup, rep: dict) -> float:
    """Worst unitarity / homomorphism defect of one family (_rep_norms)."""
    unitary, hom = _rep_norms(group, _stack(group, rep))
    return max(float(np.max(unitary)), float(np.max(hom)))


def rep_pair(
    group_g: FinAbGroup,
    group_h: FinAbGroup,
    U: dict,
    V: dict,
    tol: Tolerance = DEFAULT_TOL,
) -> RepPair:
    """Bundle two families into a certified pair; raises if either family
    is not a unitary representation."""
    U = {group_g.reduce(g): cmatrix(m) for g, m in U.items()}
    V = {group_h.reduce(h): cmatrix(m) for h, m in V.items()}
    if set(U) != set(group_g.elements()):
        raise ValueError("U must be defined on every element of G")
    if set(V) != set(group_h.elements()):
        raise ValueError("V must be defined on every element of H")
    dims = {m.shape[0] for m in U.values()} | {m.shape[0] for m in V.values()}
    if len(dims) != 1:
        raise ValueError("all representing matrices must act on one space")
    dim = dims.pop()
    ru = _rep_residual(group_g, U)
    rv = _rep_residual(group_h, V)
    report = {"u_representation": ru, "v_representation": rv}
    report["passed"] = max(ru, rv) <= tol.eps_eq * max(1.0, dim)
    if not report["passed"]:
        raise ValueError(f"families are not unitary representations: {report}")
    return RepPair(
        group_g=group_g,
        group_h=group_h,
        space_dim=dim,
        U=U,
        V=V,
        report=report,
    )


def _check_compatible(p: RepPair, chi: Bicharacter) -> None:
    if chi.group_g != p.group_g or chi.group_h != p.group_h:
        raise ValueError("bicharacter groups must match the pair")


def _twisted_norms(us: np.ndarray, vs: np.ndarray, phases, anti: bool = False) -> np.ndarray:
    """||U_g V_h - phases[g, h] V_h U_g|| for every (g, h), or
    ||V_h U_g - phases[g, h] U_g V_h|| when anti, for stacks us and vs;
    one left element g at a time, formed for the stack of all V_h at once."""
    out = np.empty((us.shape[0], vs.shape[0]))
    for x, (u, row) in enumerate(zip(us, phases)):
        uv, vu = u @ vs, vs @ u
        if anti:
            uv, vu = vu, uv
        out[x] = _norms(uv - row[:, None, None] * vu)
    return out


def _twisted_commutator(us: np.ndarray, vs: np.ndarray, phases, anti: bool = False) -> float:
    """The worst of _twisted_norms."""
    return float(np.max(_twisted_norms(us, vs, phases, anti), initial=0.0))


def _weyl_residual(p: RepPair, chi: Bicharacter, anti: bool) -> float:
    """Worst Weyl defect of the pair over all (g, h), phases chi(g, h)."""
    _check_compatible(p, chi)
    us, vs = _stack(p.group_g, p.U), _stack(p.group_h, p.V)
    return _twisted_commutator(us, vs, chi.value_table(), anti)


def is_heisenberg(
    p: RepPair, chi: Bicharacter, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Weyl relation U_g V_h = chi(g,h) V_h U_g; returns (ok, max residual)."""
    worst = _weyl_residual(p, chi, anti=False)
    return worst <= tol.eps_eq * max(1.0, p.space_dim), worst


def is_anti_heisenberg(
    p: RepPair, chi: Bicharacter, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Flipped relation V_h U_g = chi(g,h) U_g V_h; returns (ok, residual)."""
    worst = _weyl_residual(p, chi, anti=True)
    return worst <= tol.eps_eq * max(1.0, p.space_dim), worst


@dataclass(frozen=True)
class RegularPair:
    """H's regular pair on l2(H), certified term by term, shared and read-only.

    U[p] = diag(<., p>) for p in dual_group(H).elements(), the columns of
    pairing_table(H), and V = translations(H).  unitary[p] is
    ||U_p U_p* - 1||, homomorphism[p, q] is ||U_{p+q} - U_p U_q||,
    v_residual is V's worst such defect, and weyl[p, h] is
    ||U_p V_h - <h, p> V_h U_p||: the norms that rep_pair (_rep_norms)
    and is_heisenberg take, term by term, so a pair pulled back along a hom
    G -> dual(H) reads its residuals off these tables.  leg, the
    matspan.frame of the |H|^2 monomials U_p V_h, p-major (U_p is
    generator (p, 0), V_h generator (0, h)), is formed on first read.
    """

    group: FinAbGroup
    tol: Tolerance
    U: np.ndarray
    V: Mapping
    unitary: np.ndarray
    homomorphism: np.ndarray
    weyl: np.ndarray
    v_residual: float

    @functools.cached_property
    def leg(self) -> Frame:
        n = self.group.order
        vs = np.stack(list(self.V.values()))
        return frame(np.matmul(self.U[:, None], vs[None, :]).reshape(-1, n, n), self.tol)


def regular_pair(group: FinAbGroup, tol: Tolerance = DEFAULT_TOL) -> RegularPair:
    """The regular pair of a group, one per (group, tolerance), shared by
    every caller; _regular_pair.cache_clear() drops it."""
    return _regular_pair(group, tol)


@functools.lru_cache(maxsize=64)
def _regular_pair(group: FinAbGroup, tol: Tolerance) -> RegularPair:
    n = group.order
    dual = dual_group(group)
    phases = pairing_table(group)
    us = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    us[:, idx, idx] = phases.T
    lam = translations(group)
    unitary, homomorphism = _rep_norms(dual, us)
    weyl = _twisted_norms(us, np.stack(list(lam.values())), phases.T)
    read_only(us, unitary, homomorphism, weyl)
    return RegularPair(
        group, tol, us, lam, unitary, homomorphism, weyl, _rep_residual(group, lam)
    )


def canonical_heisenberg(chi: Bicharacter, tol: Tolerance = DEFAULT_TOL) -> RepPair:
    """Clock-and-shift normal form on l2(H), read off H's regular pair.

    chi(g, .) is the character <., p(g)> for p(g) = -hom_g_to_dual_h(chi)(g),
    so U_g = regular_pair(H).U[p(g)] multiplies pointwise by
    k |-> chi(g,k) and V_h translates by h: U_g V_h picks up exactly
    chi(g,h) when moved past V_h.  The representation and Weyl residuals
    are the regular pair's term tables gathered over p(g), the same norms
    of the same matrices that rep_pair and is_heisenberg take.
    """
    G, H = chi.group_g, chi.group_h
    reg = regular_pair(H, tol)
    hom, dual = hom_g_to_dual_h(chi), dual_group(H)
    images = np.array([hom.apply(g) for g in G.elements()], dtype=np.intp).reshape(G.order, -1)
    p = dual.neg_table[np.ravel_multi_index(tuple(images.T), dual.cycles)]
    ru = max(float(np.max(reg.unitary[p])), float(np.max(reg.homomorphism[np.ix_(p, p)])))
    rv = reg.v_residual
    report = {"u_representation": ru, "v_representation": rv}
    report["passed"] = max(ru, rv) <= tol.eps_eq * max(1.0, H.order)
    if not report["passed"]:
        raise ValueError(f"families are not unitary representations: {report}")
    return RepPair(
        group_g=G,
        group_h=H,
        space_dim=H.order,
        U={g: reg.U[x] for g, x in zip(G.elements(), p)},
        V=dict(reg.V),
        report=report,
        chi=chi,
        weyl_residual=float(np.max(reg.weyl[p])),
        regular=reg,
        characters=p,
    )


def composite_heisenberg(chi: Bicharacter, tol: Tolerance = DEFAULT_TOL) -> RepPair:
    """The same relation realized on l2(G) (x) l2(H).

    U_g = lambda_g (x) (multiplication by chi(g, .)), V_h = 1 (x)
    (translation by h).  Lives on a different space than the canonical
    pair, which makes it a useful independent witness.
    """
    G, H = chi.group_g, chi.group_h
    lam_g, lam_h = translations(G), translations(H)
    eye_g = np.eye(G.order, dtype=np.complex128)
    table = chi.value_table()
    U = {g: np.kron(lam_g[g], np.diag(table[x])) for x, g in enumerate(G.elements())}
    V = {h: np.kron(eye_g, lam_h[h]) for h in H.elements()}
    return rep_pair(G, H, U, V, tol)


def amplify_pair(p: RepPair, extra_dim: int, tol: Tolerance = DEFAULT_TOL) -> RepPair:
    """Tensor both families with the identity on an extra leg."""
    if extra_dim < 1:
        raise ValueError("extra dimension must be positive")
    eye = np.eye(extra_dim, dtype=np.complex128)
    U = {g: np.kron(m, eye) for g, m in p.U.items()}
    V = {h: np.kron(m, eye) for h, m in p.V.items()}
    return rep_pair(p.group_g, p.group_h, U, V, tol)


def conjugate_pair(p: RepPair, tol: Tolerance = DEFAULT_TOL) -> RepPair:
    """Entrywise conjugate of both families.

    Conjugating the Weyl relation flips chi to its conjugate, so this
    swaps Heisenberg with anti-Heisenberg for the same chi.
    """
    U = {g: m.conj() for g, m in p.U.items()}
    V = {h: m.conj() for h, m in p.V.items()}
    return rep_pair(p.group_g, p.group_h, U, V, tol)


def swap_pair(p: RepPair, tol: Tolerance = DEFAULT_TOL) -> RepPair:
    """Exchange the two families: (V, U) over (H, G).

    p is chi-Heisenberg exactly when the swap is Heisenberg for the
    dual bicharacter.
    """
    return rep_pair(p.group_h, p.group_g, p.V, p.U, tol)


def _doubled_family(
    rep1: dict, rep2: dict, model: QuantumGroupModel
) -> dict:
    """Images of Delta(lambda_g) under the product of two representations.

    Expands the comultiplication in the lambda_a (x) lambda_b frame and
    substitutes rep1 for the first leg, rep2 for the second.
    """
    group = model.group
    lam = np.stack(list(translations(group).values()))
    n = group.order
    r1, r2 = _stack(group, rep1), _stack(group, rep2)
    dim = r1.shape[1] * r2.shape[1]
    out = {}
    for x, g in enumerate(group.elements()):
        m4 = model.comultiplication(lam[x]).reshape(n, n, n, n)
        # c[a, b] = <lambda_a (x) lambda_b, Delta(lambda_g)> / n^2 for all
        # (a, b), and the sum of c[a, b] rep1[a] (x) rep2[b] over c above 1e-14
        c = np.einsum("bkl,akl->ab", lam.conj(), np.einsum("aij,ikjl->akl", lam.conj(), m4))
        c /= n * n
        c[np.abs(c) <= 1e-14] = 0.0
        acc = np.einsum("ab,aij,bkl->ikjl", c, r1, r2, optimize=True)
        out[g] = acc.reshape(dim, dim)
    return out


def commutation_check(
    p1: RepPair,
    p2: RepPair,
    model_g: QuantumGroupModel | None = None,
    model_h: QuantumGroupModel | None = None,
) -> float:
    """Max commutator norm between the doubled G and H families.

    The doubled families are the images of the comultiplied generators:
    g acts by U_g (x) U'_g and h by V_h (x) V'_h, both obtained by
    pushing Delta(lambda) through the product representation.  When p1
    is chi-Heisenberg and p2 is chi-anti-Heisenberg the two scalars
    cancel and the commutators vanish.
    """
    if p1.group_g != p2.group_g or p1.group_h != p2.group_h:
        raise ValueError("pairs must share both groups")
    model_g = model_g if model_g is not None else build_model(p1.group_g)
    model_h = model_h if model_h is not None else build_model(p1.group_h)
    us = _stack(p1.group_g, _doubled_family(p1.U, p2.U, model_g))
    vs = _stack(p1.group_h, _doubled_family(p1.V, p2.V, model_h))
    return _twisted_commutator(us, vs, np.ones((us.shape[0], vs.shape[0])))


def _leg_operators(p: RepPair, chi: Bicharacter):
    """Three-leg matrices on l2(G) (x) l2(H) (x) K for the operator form."""
    _check_compatible(p, chi)
    G, H = chi.group_g, chi.group_h
    ind_g, ind_h = indicators(G), indicators(H)
    eye_g = np.eye(G.order, dtype=np.complex128)
    eye_h = np.eye(H.order, dtype=np.complex128)
    eye_k = np.eye(p.space_dim, dtype=np.complex128)
    w1u = sum(
        np.kron(np.kron(ind_g[g], eye_h), p.U[g]) for g in G.elements()
    )
    w2v = sum(
        np.kron(np.kron(eye_g, ind_h[h]), p.V[h]) for h in H.elements()
    )
    chi12 = np.kron(chi.as_diagonal(), eye_k)
    return w1u, w2v, chi12


def heisenberg_leg_residual(p: RepPair, chi: Bicharacter) -> float:
    """Operator form of the Heisenberg relation in three legs.

    Assembles W1U = sum 1_g (x) 1 (x) U_g and W2V = sum 1 (x) 1_h (x) V_h
    and returns the norm of W1U W2V - W2V W1U chi12.  Evaluating at the
    point (g,h) of the first two legs recovers the scalar relation, so
    this residual vanishes exactly for Heisenberg pairs.
    """
    w1u, w2v, chi12 = _leg_operators(p, chi)
    return float(np.linalg.norm(w1u @ w2v - w2v @ w1u @ chi12))


def anti_heisenberg_leg_residual(p: RepPair, chi: Bicharacter) -> float:
    """Operator form of the anti relation: W2V W1U - chi12 W1U W2V."""
    w1u, w2v, chi12 = _leg_operators(p, chi)
    return float(np.linalg.norm(w2v @ w1u - chi12 @ (w1u @ w2v)))


def pentagon_pair_residual(model: QuantumGroupModel) -> float:
    """The regular pair read as a three-leg Heisenberg identity.

    With pi the translations and pihat the indicator functions both
    acting on the middle leg, the identity
    W_{pihat,3} W_{1,pi} = W_{1,pi} W_13 W_{pihat,3} is the pentagon
    equation of the model's multiplicative unitary.
    """
    group = model.group
    n = group.order
    lam, ind = translations(group), indicators(group)
    eye = np.eye(n, dtype=np.complex128)
    w_1pi = sum(np.kron(np.kron(ind[g], lam[g]), eye) for g in group.elements())
    w_pihat3 = sum(np.kron(np.kron(eye, ind[g]), lam[g]) for g in group.elements())
    w_13 = sum(np.kron(np.kron(ind[g], eye), lam[g]) for g in group.elements())
    return float(np.linalg.norm(w_pihat3 @ w_1pi - w_1pi @ w_13 @ w_pihat3))
