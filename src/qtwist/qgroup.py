"""Multiplicative-unitary model of a finite abelian group on l2(G).

W acts on l2(G) (x) l2(G) by delta_g (x) delta_h |-> delta_g (x) delta_{g+h}.
Its first-leg slices span the translation algebra A = span{lambda_g}, its
second-leg slices the diagonal function algebra; the comultiplications on
both sides are recovered by conjugation, Delta(x) = W (x (x) 1) W*.  The
defining identities (pentagon, slice spans, comultiplication equations,
coassociativity, Podles density, antipode flip) are certified numerically
at build time and the residuals kept on the model report.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .abgroup import Bicharacter, FinAbGroup
from .matspan import (
    DEFAULT_TOL,
    AlgebraBasis,
    Tolerance,
    multiplicative_closure,
    orthonormal_rows,
    read_only,
    span_basis,
    subspace_equal,
)

__all__ = [
    "QuantumGroupModel",
    "CoactionFrame",
    "build_model",
    "translations",
    "indicators",
    "dual_model",
    "verify_bicharacter_equations",
]

MAX_MODEL_ORDER = 16
_FULL_CHECK_ORDER = 8  # dense three-leg identities only up to this order


def translations(group: FinAbGroup) -> Mapping[tuple[int, ...], np.ndarray]:
    """Left regular representation g -> lambda_g on l2(G).

    lambda_g sends e_h to e_{g+h}: row add_table[g, h] of column h is 1.
    One read-only mapping of read-only matrices per group, shared by every
    caller; _translations.cache_clear() drops it.
    """
    return _translations(group)


@functools.lru_cache(maxsize=64)
def _translations(group: FinAbGroup) -> Mapping[tuple[int, ...], np.ndarray]:
    n = group.order
    stack = np.zeros((n, n, n), dtype=np.complex128)
    cols = np.arange(n)
    stack[cols[:, None], group.add_table, cols[None, :]] = 1.0
    read_only(stack)
    return MappingProxyType(dict(zip(group.elements(), stack)))


def indicators(group: FinAbGroup) -> dict[tuple[int, ...], np.ndarray]:
    """Diagonal indicator projections 1_g on l2(G)."""
    n = group.order
    stack = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    stack[idx, idx, idx] = 1.0
    return dict(zip(group.elements(), stack))


def _w_permutation(group: FinAbGroup) -> np.ndarray:
    """W as an index map on the product basis: x -> image basis index."""
    n = group.order
    # delta_g (x) delta_h -> delta_g (x) delta_{g+h}
    return (np.arange(n)[:, None] * n + group.add_table).reshape(-1).astype(np.int64)


def _perm_matrix(perm: np.ndarray) -> np.ndarray:
    m = np.zeros((perm.size, perm.size), dtype=np.complex128)
    m[perm, np.arange(perm.size)] = 1.0
    return m


def _perm_on_legs(perm: np.ndarray, n: int, legs: tuple[int, int]) -> np.ndarray:
    """Lift a permutation of the (n x n)-basis to three legs of size n."""
    a, b = legs
    idx = np.indices((n, n, n)).reshape(3, -1)
    pair = perm[idx[a] * n + idx[b]]
    img = idx.copy()
    img[a] = pair // n
    img[b] = pair % n
    return img[0] * n * n + img[1] * n + img[2]


def _lift_two_leg(mat: np.ndarray, n: int, legs: tuple[int, int]) -> np.ndarray:
    """Place a matrix on l2(G)^2 onto two of three legs, identity elsewhere."""
    m4 = mat.reshape(n, n, n, n)
    eye = np.eye(n)
    a, b = legs
    if (a, b) == (0, 1):
        out = np.einsum("acxz,by->abcxyz", m4, eye)
        return out.transpose(0, 2, 1, 3, 5, 4).reshape(n**3, n**3)
    if (a, b) == (1, 2):
        out = np.einsum("bcyz,ax->abcxyz", m4, eye)
        return out.reshape(n**3, n**3)
    if (a, b) == (0, 2):
        out = np.einsum("acxz,by->abcxyz", m4, eye)
        return out.reshape(n**3, n**3)
    raise ValueError(f"unsupported leg pair {legs}")


@dataclass(frozen=True)
class CoactionFrame:
    """The group-only data of the coaction checks (coact.coaction_checks).

    b_g is the model's distinguished basis: the translations lambda_g for
    build_model's model.  qa holds an orthonormal basis of span{b_g} as
    rows, and b_g = sum_s to_qa[s, g] qa_s.  Delta(qa_s) = sum dco[s, a, b]
    qa_a (x) qa_b up to the residual d_res[s], its Frobenius distance from
    A (x) A.  right[g, s, a] and left[g, s, a] expand qa_s b_g and b_g qa_s
    in the qa_a.  Every array is read-only.
    """

    qa: np.ndarray
    to_qa: np.ndarray
    dco: np.ndarray
    d_res: np.ndarray
    right: np.ndarray
    left: np.ndarray


@dataclass
class QuantumGroupModel:
    """Concrete quantum-group data attached to a finite abelian group.

    basis / hat_basis are the distinguished spanning families of the
    algebra leg and the function-algebra leg: translations and indicators
    for the primal model, swapped (with an index flip) for the dual model.
    coproduct_kind records the combinatorial form the comultiplication must
    take on the distinguished basis: "grouplike" for Delta(b_g) = b_g (x) b_g,
    "convolution" for Delta(b_g) = sum over a + b = g of b_a (x) b_b.
    """

    group: FinAbGroup
    W: np.ndarray
    basis: Mapping[tuple[int, ...], np.ndarray]
    hat_basis: Mapping[tuple[int, ...], np.ndarray]
    algebra: AlgebraBasis
    hat_algebra: AlgebraBasis
    coproduct_kind: str = "grouplike"
    report: dict = field(default_factory=dict)
    _coaction: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return self.group.order

    def coaction_frame(self, tol: Tolerance = DEFAULT_TOL) -> CoactionFrame:
        """The model's CoactionFrame, formed once per tolerance and read by
        every coaction check; _build_cached.cache_clear() drops build_model's
        model with its frames."""
        if tol in self._coaction:
            return self._coaction[tol]
        na, basis = self.order, list(self.basis.values())
        lams = np.stack([b.reshape(-1) for b in basis])
        qa = orthonormal_rows(lams, tol.eps_rank)
        qa3, qa_h = qa.reshape(-1, na, na), qa.conj().T
        # Delta(qa_s) as (A-entries x A-entries) matrices, |G|^5 entries not kept
        delta = np.stack([self.comultiplication(q) for q in qa3])
        delta = delta.reshape(-1, na, na, na, na).transpose(0, 1, 3, 2, 4)
        delta = delta.reshape(-1, na * na, na * na)
        dco = qa.conj() @ delta @ qa_h
        d_res = np.linalg.norm(delta - qa.T @ dco @ qa, axis=(1, 2))
        right = np.stack([qa3 @ b for b in basis]).reshape(na, -1, na * na) @ qa_h
        left = np.stack([b @ qa3 for b in basis]).reshape(na, -1, na * na) @ qa_h
        to_qa = qa.conj() @ lams.T
        read_only(qa, to_qa, dco, d_res, right, left)
        self._coaction[tol] = CoactionFrame(qa, to_qa, dco, d_res, right, left)
        return self._coaction[tol]

    def coefficients(self, x: np.ndarray) -> tuple[dict, float]:
        """Expand x in the distinguished basis; returns (coeffs, residual)."""
        coeffs = {}
        rec = np.zeros_like(x, dtype=np.complex128)
        for g, b in self.basis.items():
            c = np.vdot(b, x) / np.vdot(b, b)
            coeffs[g] = complex(c)
            rec = rec + c * b
        return coeffs, float(np.linalg.norm(np.asarray(x, dtype=np.complex128) - rec))

    def _require_member(self, x: np.ndarray, tol: Tolerance) -> dict:
        coeffs, res = self.coefficients(x)
        if res > tol.eps_eq * max(1.0, float(np.linalg.norm(x))):
            raise ValueError("input is not in the algebra leg of the model")
        return coeffs

    def comultiplication(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Delta(x) = W (x (x) 1) W*, for x in the algebra leg."""
        self._require_member(x, tol)
        eye = np.eye(self.order, dtype=np.complex128)
        return self.W @ np.kron(x, eye) @ self.W.conj().T

    def unitary_antipode(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Coefficientwise flip b_g -> b_{-g} on the distinguished basis."""
        coeffs = self._require_member(x, tol)
        out = np.zeros_like(np.asarray(x, dtype=np.complex128))
        for g, c in coeffs.items():
            out = out + c * self.basis[self.group.neg(g)]
        return out


def _swap_matrix(n: int) -> np.ndarray:
    s = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            s[b * n + a, a * n + b] = 1.0
    return s


def _expand_two_leg(mat: np.ndarray, basis: dict, group: FinAbGroup) -> dict:
    """Coefficients of a matrix on l2(G)^2 in the basis (x) basis family."""
    coeffs = {}
    for a, ba in basis.items():
        for b, bb in basis.items():
            e = np.kron(ba, bb)
            coeffs[(a, b)] = complex(np.vdot(e, mat) / np.vdot(e, e))
    return coeffs


def _expected_coproduct(model: QuantumGroupModel, g) -> np.ndarray:
    """Combinatorial coproduct of a distinguished basis element."""
    group = model.group
    if model.coproduct_kind == "grouplike":
        return np.kron(model.basis[g], model.basis[g])
    if model.coproduct_kind == "convolution":
        return sum(
            np.kron(model.basis[a], model.basis[group.add(g, group.neg(a))])
            for a in group.elements()
        )
    raise ValueError(f"unknown coproduct kind {model.coproduct_kind!r}")


def _certify(model: QuantumGroupModel, tol: Tolerance) -> dict:
    group, W = model.group, model.W
    n = group.order
    rep: dict = {}
    eye = np.eye(n, dtype=np.complex128)
    rep["unitary"] = float(np.linalg.norm(W @ W.conj().T - np.eye(n * n)))

    # pentagon W23 W12 = W12 W13 W23, exactly, on index permutations
    perm = np.argmax(np.abs(W), axis=0).astype(np.int64)
    p12 = _perm_on_legs(perm, n, (0, 1))
    p13 = _perm_on_legs(perm, n, (0, 2))
    p23 = _perm_on_legs(perm, n, (1, 2))
    rep["pentagon"] = 0.0 if np.array_equal(p23[p12], p12[p13[p23]]) else 1.0

    # leg slices recover the two algebras
    w4 = W.reshape(n, n, n, n)
    first = [w4[u, :, v, :] for u in range(n) for v in range(n)]
    second = [w4[:, u, :, v] for u in range(n) for v in range(n)]
    alg = span_basis(list(model.basis.values()), tol)
    hat = span_basis(list(model.hat_basis.values()), tol)
    rep["first_leg_slices_span_algebra"] = subspace_equal(span_basis(first, tol), alg, tol)
    rep["second_leg_slices_span_functions"] = subspace_equal(span_basis(second, tol), hat, tol)

    # coefficient form W = sum_g hat_basis_g (x) basis_g
    rebuilt = sum(np.kron(model.hat_basis[g], model.basis[g]) for g in group.elements())
    rep["reduced_bicharacter_form"] = float(np.linalg.norm(W - rebuilt))

    deltas = {g: model.comultiplication(model.basis[g]) for g in group.elements()}
    rep["comult_matches_table"] = max(
        float(np.linalg.norm(deltas[g] - _expected_coproduct(model, g)))
        for g in group.elements()
    )

    if n <= _FULL_CHECK_ORDER:
        w12 = _lift_two_leg(W, n, (0, 1))
        w13 = _lift_two_leg(W, n, (0, 2))
        w23 = _lift_two_leg(W, n, (1, 2))
        rep["pentagon_matrix"] = float(np.linalg.norm(w23 @ w12 - w12 @ w13 @ w23))
        # (id (x) Delta)W = W_12 W_13 with the first leg in the hat algebra
        lhs3 = sum(np.kron(model.hat_basis[g], deltas[g]) for g in group.elements())
        rep["comult_w_equation"] = float(np.linalg.norm(lhs3 - w12 @ w13))
        # coassociativity through the conjugation formula on both sides
        coassoc = 0.0
        for g in group.elements():
            y = deltas[g]
            coassoc = max(
                coassoc,
                float(
                    np.linalg.norm(
                        w12 @ _lift_two_leg(y, n, (0, 2)) @ w12.conj().T
                        - w23 @ np.kron(y, eye) @ w23.conj().T
                    )
                ),
            )
        rep["coassociativity"] = coassoc

    podles = span_basis(
        [deltas[g] @ np.kron(eye, model.basis[h]) for g in group.elements() for h in group.elements()],
        tol,
    )
    rep["podles_dim"] = podles.dim
    rep["podles_ok"] = podles.dim == alg.dim * alg.dim

    # unitary antipode: involutive and flips the comultiplication
    rep["antipode_involutive"] = max(
        float(
            np.linalg.norm(
                model.unitary_antipode(model.unitary_antipode(model.basis[g])) - model.basis[g]
            )
        )
        for g in group.elements()
    )
    flip = 0.0
    for g in group.elements():
        lhs = model.comultiplication(model.unitary_antipode(model.basis[g]))
        coeffs = _expand_two_leg(deltas[g], model.basis, group)
        rhs = np.zeros_like(lhs)
        for (a, b), c in coeffs.items():
            rhs = rhs + c * np.kron(
                model.basis[group.neg(b)], model.basis[group.neg(a)]
            )
        flip = max(flip, float(np.linalg.norm(lhs - rhs)))
    rep["antipode_flips_comult"] = flip

    resid = [v for k, v in rep.items() if isinstance(v, float)]
    rep["max_residual"] = max(resid)
    rep["passed"] = rep["max_residual"] <= tol.eps_eq and all(
        v for k, v in rep.items() if isinstance(v, bool) and k != "passed"
    )
    return rep


@functools.lru_cache(maxsize=None)
def _build_cached(cycles: tuple[int, ...]) -> QuantumGroupModel:
    group = FinAbGroup(cycles)
    if group.order > MAX_MODEL_ORDER:
        raise ValueError(
            f"group order {group.order} exceeds the tested bound {MAX_MODEL_ORDER}"
        )
    tol = DEFAULT_TOL
    W = _perm_matrix(_w_permutation(group))
    lam = translations(group)
    ind = indicators(group)
    model = QuantumGroupModel(
        group=group,
        W=W,
        basis=lam,
        hat_basis=ind,
        algebra=multiplicative_closure(list(lam.values()), tol),
        hat_algebra=multiplicative_closure(list(ind.values()), tol),
    )
    model.report = _certify(model, tol)
    if not model.report["passed"]:
        raise RuntimeError(f"model certification failed: {model.report}")
    return model


def build_model(group: FinAbGroup) -> QuantumGroupModel:
    """Build and certify the multiplicative-unitary model for a group.

    Certification always runs at the default thresholds.
    """
    return _build_cached(group.cycles)


def dual_model(model: QuantumGroupModel) -> QuantumGroupModel:
    """Dual data: the two legs of W swap roles.

    The multiplicative unitary becomes W-hat = Sigma W* Sigma, the hat
    basis picks up an index flip (W-hat = sum_g b_{-g} (x) hat-b_g), and the
    coproduct table toggles between grouplike and convolution.  Applying
    the construction twice returns the original W.
    """
    group = model.group
    n = model.order
    swap = _swap_matrix(n)
    what = swap @ model.W.conj().T @ swap
    dual = QuantumGroupModel(
        group=group,
        W=what,
        basis=model.hat_basis,
        hat_basis={g: model.basis[group.neg(g)] for g in group.elements()},
        algebra=model.hat_algebra,
        hat_algebra=model.algebra,
        coproduct_kind=(
            "convolution" if model.coproduct_kind == "grouplike" else "grouplike"
        ),
    )
    dual.report = _certify(dual, DEFAULT_TOL)
    if not dual.report["passed"]:
        raise RuntimeError(f"dual model certification failed: {dual.report}")
    return dual


def verify_bicharacter_equations(
    chi: np.ndarray | Bicharacter,
    model_g: QuantumGroupModel,
    model_h: QuantumGroupModel,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Check the two leg equations of a candidate bicharacter matrix.

    chi must be unitary, diagonal over l2(G) (x) l2(H), and multiplicative
    in each leg: value(a+b, h) = value(a, h) value(b, h) and symmetrically.
    Every operator in the two defining identities is diagonal here, so the
    matrix identities reduce exactly to these value equations.
    """
    G, H = model_g.group, model_h.group
    if isinstance(chi, Bicharacter):
        chi = chi.as_diagonal()
    chi = np.asarray(chi, dtype=np.complex128)
    ng, nh = G.order, H.order
    if chi.shape != (ng * nh, ng * nh):
        raise ValueError("chi must act on l2(G) (x) l2(H)")
    off = float(np.linalg.norm(chi - np.diag(np.diag(chi))))
    vals = np.diag(chi).reshape(ng, nh)
    unit = float(np.max(np.abs(np.abs(vals) - 1.0)))
    # value(a+b, h) - value(a, h) value(b, h) over all (a, b, h), and the
    # same in the second leg, through the groups' add tables
    first = float(np.max(np.abs(vals[G.add_table] - vals[:, None, :] * vals[None, :, :])))
    second = float(
        np.max(np.abs(vals[:, H.add_table] - vals[:, :, None] * vals[:, None, :]))
    )
    worst = max(off, unit, first, second)
    return {
        "off_diagonal": off,
        "unitary": unit,
        "first_leg": first,
        "second_leg": second,
        "max_residual": worst,
        "passed": worst <= tol.eps_eq,
    }
