"""Almost complex structures on the target, the f-structure on the domain,
PHWC/PHH defect measures and the horizontal divergence of the f-structure.

Every function here takes the point context, a ``maps.LocalGeometry`` (phi,
a point or a batch, and a metric), and reads phi's J, ``phi.J``; what a
check reads is kept there, read-only, and computed once:

- J and dJ at phi(p), one jet evaluation per point kept in the source
  geometry (``target_j_and_derivs``), are read by F, dF and ``phwc_defect``;
- F = L J(phi) A and its exact derivative dF depend on the metric only
  through the horizontal lift L, which a biconformal change keeps, so they
  are kept in the source geometry (``LocalGeometry.source``);
- nabla F (``nabla_f``), ``phwc_defect``, ``phwc_metric_defect`` and
  ``f_divergence_horizontal`` are kept in the geometry of their own metric
  (one value per point of a batch; a Frobenius norm is one dot product of
  the matrix's entries).

The horizontal quantities (``f_divergence_horizontal``, ``phh_defect``,
``phwc_metric_defect``) read a frame {f_a} of H only through
sum_a f_a f_a^T = P_H g^-1 P_H^T, so they contract over the rows of
``LocalGeometry.horizontal_factor``, whose R^T R is that matrix, and no
check builds a frame.  ``adapted_frame`` builds {e_i, F e_i} on each call for
the tests; it stays here until the benchmark's tracer stops naming it.  It
and both traces raise ``FrameError`` on every call where PHWC fails."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .jets import reject
from .manifold import (ChartedRiemannianManifold, act_first, contract, dot,
                       jet_matrix_and_derivs, matvec, per_k, sum_terms)
from .maps import (FrameError, LocalGeometry, check_submersion, differential,
                   mean_curvature_vertical, ortho_split)

PHWC_TOL = 1e-6


class AlmostComplexStructureField:
    """Matrix field J on the target chart with J^2 = -I, compatible with h."""

    def __init__(self, target: ChartedRiemannianManifold, component_fn):
        self.target = target
        self.fn = component_fn  # callable(coords) -> (2n, 2n) nested sequence

    def matrix_and_derivs(self, q):
        """(J, dJ) at q with dJ[..., c, a, b] = d_c J^a_b, exact by AD."""
        return jet_matrix_and_derivs(self.fn, q)


def f_structure(geo: LocalGeometry) -> np.ndarray:
    """The f-structure on the domain, in chart basis: the horizontal lift of
    J composed with dphi.  Kills the vertical distribution, acts as the
    induced complex structure on the horizontal one, and is smooth in p
    (no frame choice involved)."""
    geo = geo.source
    return geo.field("F", lambda: (
        geo.projector_and_lift[1] @ geo.target_j_and_derivs[0]
        @ check_submersion(geo)))


def _frobenius(a):
    flat = a.reshape(a.shape[:-2] + (1, -1))
    return np.sqrt(flat @ flat.mT)[..., 0, 0]


def phwc_defect(geo: LocalGeometry):
    """Frobenius norm of [dphi o dphi*, J] plus the scale used for a relative
    reading.  Defined for any map (no submersion requirement)."""
    def compute():
        a = differential(geo)
        op = a @ geo.ginv @ a.mT @ geo.h  # dphi o dphi^*
        jq = geo.target_j_and_derivs[0]
        comm = op @ jq - jq @ op
        return _frobenius(comm), _frobenius(op)

    return geo.field("phwc_defect", compute)


def phwc_metric_defect(geo: LocalGeometry):
    """Frobenius norm of R (F^T g F - g) R^T, g(F X, F Y) - g(X, Y) over the
    rows of the horizontal factor R; the same over every orthonormal frame
    of H, whose vectors are unit: the natural scale is 1."""
    def compute():
        g = geo.g
        r = geo.horizontal_factor
        fr = r @ f_structure(geo).mT  # row a: F r_a
        return _frobenius(fr @ g @ fr.mT - r @ g @ r.mT), 1.0

    return geo.field("phwc_metric_defect", compute)


class AdaptedFrame(NamedTuple):
    """Orthonormal frame {e_1..e_n, F e_1..F e_n, e_{2n+1}..e_m}."""
    e: np.ndarray         # (n, m)
    fe: np.ndarray        # (n, m)
    vertical: np.ndarray  # (m - 2n, m)

    @property
    def horizontal(self) -> np.ndarray:
        """All 2n horizontal vectors in the order {e_i} then {F e_i}."""
        return np.vstack([self.e, self.fe])


def _require_phwc(geo):
    """Raise ``FrameError`` where phi is not PHWC at the point of ``geo``:
    the pairs {e, F e} of an adapted frame, and the horizontal traces of
    nabla F, are only meaningful where F is metric compatible on H."""
    md, _ = phwc_metric_defect(geo)
    reject(md > PHWC_TOL, FrameError, "the PHWC condition fails: metric "
           "compatibility defect %g > %g at %s", md, PHWC_TOL, geo.p)


def adapted_frame(geo: LocalGeometry, seed_order=None) -> AdaptedFrame:
    """An adapted orthonormal frame, built on each call: Gram-Schmidt of the
    horizontal frame of ``ortho_split`` (in ``seed_order``, if given) into
    pairs {e_i, F e_i}, at one point.  Requires metric compatibility of the
    induced horizontal structure (the PHWC condition), which is what makes
    the {e, F e} pairs orthonormal."""
    _require_phwc(geo)
    g = geo.g
    split = ortho_split(geo)
    f = f_structure(geo)
    seeds = split.horizontal_frame if seed_order is None \
        else split.horizontal_frame[list(seed_order)]
    e_vecs, fe_vecs = [], []
    for seed in seeds:
        v = np.array(seed, dtype=float)
        for b in e_vecs + fe_vecs:
            v = v - (b @ g @ v) * b
        norm2 = v @ g @ v
        if norm2 <= 0.3 ** 2:
            continue
        e = v / np.sqrt(norm2)
        fe = f @ e
        e_vecs.append(e)
        fe_vecs.append(fe / np.sqrt(fe @ g @ fe))
        if len(e_vecs) == geo.phi.n:
            break
    if len(e_vecs) < geo.phi.n:
        raise FrameError("could not assemble %d adapted pairs" % geo.phi.n)
    return AdaptedFrame(np.array(e_vecs), np.array(fe_vecs),
                        split.vertical_frame)


def d_f_structure(geo: LocalGeometry) -> np.ndarray:
    """Coordinate derivatives dF[..., i, k, j] = d_i F^k_j of the f-structure
    F = L J A, exact:

    d_i F = d_i L J A + L (d_c J A^c_i) A + L J d_i A."""
    geo = geo.source

    def compute():
        a, da = check_submersion(geo), geo.map_jets[2]
        lift = geo.projector_and_lift[1]
        d_lift = geo.projector_and_lift_derivs[1]
        jq, dj = geo.target_j_and_derivs
        dj_along = act_first(a.mT, dj)  # d_i of J at phi
        return (d_lift @ per_k(jq @ a) + per_k(lift) @ dj_along @ per_k(a)
                + per_k(lift @ jq) @ da)

    return geo.field("dF", compute)


def nabla_f_operator(f: np.ndarray, df: np.ndarray,
                     gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of the f-structure as a (..., i, k, j) array:

    (nabla_i F)^k_j = d_i F^k_j + Gamma^k_il F^l_j - F^k_l Gamma^l_ij

    so that (nabla_X F)Y = X^i Y^j nabla[..., i, :, j]."""
    return df + (gamma @ per_k(f) - act_first(f, gamma)).swapaxes(-3, -2)


def nabla_f(geo: LocalGeometry):
    """nabla F at the point of ``geo`` from its metric's Gamma, kept (the
    horizontal traces read it on the PHWC condition)."""
    return geo.field("nabla_F", lambda: nabla_f_operator(
        f_structure(geo), d_f_structure(geo), geo.christoffel))


def f_divergence_horizontal(geo: LocalGeometry) -> np.ndarray:
    """F applied to the horizontal trace of nabla F:

    F sum_a (nabla_{f_a} F)(f_a)

    over an orthonormal frame {f_a} of the horizontal distribution (an
    adapted frame {e_i, F e_i} is one; here the horizontal factor's rows);
    horizontal for PHWC maps and zero for PHH ones.  Kept."""
    def compute():
        r = geo.horizontal_factor
        _require_phwc(geo)
        total = contract(nabla_f(geo).swapaxes(-3, -2), r.mT @ r)
        return matvec(f_structure(geo), total)

    return geo.field("f_divergence", compute)


def phh_defect(geo: LocalGeometry):
    """Size of the horizontal part of (nabla_X F)Y over horizontal X, Y.

    The Frobenius norm over an orthonormal frame {f_a} of the horizontal
    distribution (the horizontal factor's rows),
    sqrt(sum_ab |H((nabla_{f_a} F) f_b)|^2), which does not depend on the
    frame (the max over frame pairs would); zero exactly when the map is
    PHH.  The scale is the same norm without H, at least 1."""
    r = geo.horizontal_factor
    _require_phwc(geo)
    pairs = act_first(r, nabla_f(geo)) @ per_k(r.mT)  # [a, k, b]
    horizontal = per_k(geo.projector_and_lift[0]) @ pairs

    def norm2(x):  # sum over a, b of g(x[a, :, b], x[a, :, b])
        gx = per_k(geo.g) @ x
        return dot(x.reshape(x.shape[:-3] + (-1,)),
                   gx.reshape(x.shape[:-3] + (-1,)))

    total, scale = norm2(horizontal), norm2(pairs)
    return np.sqrt(total), np.maximum(np.sqrt(scale), 1.0)


def tension_via_f_structure(geo: LocalGeometry) -> np.ndarray:
    """Tension field through the f-structure route:

    tau = -dphi( F div_H F + (m - 2n) mu^V )

    Only meaningful for PHWC maps (``f_divergence_horizontal`` requires
    it)."""
    phi = geo.phi
    terms = {"F div_H F": f_divergence_horizontal(geo)}
    if phi.m > phi.two_n:
        terms["(m - 2n) mu^V"] = ((phi.m - phi.two_n)
                                  * mean_curvature_vertical(geo))
    return -matvec(differential(geo), sum_terms(terms))
