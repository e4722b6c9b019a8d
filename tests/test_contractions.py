"""The tensor contractions of a run against the ``np.einsum`` they stand for.

Each kernel is fed random, non-symmetric inputs (a symmetric Gamma or g
would hide a swapped index) of every shape the bundled scenarios use, as a
batch of B rows; it must match the einsum to 1e-13 relative, and each row
must equal the kernel at that row alone bit for bit.  The kernels inside
``maps.LocalGeometry`` and ``hermitian`` read their inputs from a geometry
whose fields are set to those arrays.
"""

import numpy as np
import pytest

from phmorph import hermitian
from phmorph.jets import Jet2
from phmorph.manifold import (act_first, contract, euclidean_space,
                              levi_civita, matvec, outer, per_k, read_only)
from phmorph.maps import LocalGeometry, SmoothMap
from phmorph.scenarios import constant_J

B = 5
SHAPES = [(3, 2), (4, 2), (6, 4)]  # (m, 2n): hopf, the 4-2 and 6-4 maps


def close(got, want):
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-13 * scale


def rows_equal(batch, one_point):
    """``batch`` (an array or a tuple of arrays over B rows) equals
    ``one_point(i)`` at each row i, bit for bit."""
    for i in range(B):
        row = one_point(i)
        if isinstance(batch, tuple):
            assert all(np.array_equal(b[i], r) for b, r in zip(batch, row))
        else:
            assert np.array_equal(batch[i], row)


def inputs(m, two_n, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal((B,) + shape)

    a, s = draw(two_n, m), draw(m, m)
    return {
        "ginv": draw(m, m), "christoffel": draw(m, m, m),
        "target_christoffel": draw(two_n, two_n, two_n),
        "map_jets": (draw(two_n), a, draw(m, two_n, m)),
        "_certified_differential": (a, np.full(B, np.inf)),  # certified
        "projector_and_lift": (draw(m, m), draw(m, two_n)),
        "projector_and_lift_derivs": (draw(m, m, m), draw(m, m, two_n)),
        "_lift_factors": (draw(two_n, m), draw(m, two_n),
                          draw(two_n, two_n)),
        # g positive: the PHH defect is a norm
        "metric_and_derivs": (s @ s.mT + np.eye(m), draw(m, m, m)),
        "horizontal_factor": draw(two_n, m),
        "target_j_and_derivs": (draw(two_n, two_n),
                                draw(two_n, two_n, two_n)),
        "F": draw(m, m), "dF": draw(m, m, m),
        "phwc_metric_defect": (np.zeros(B), np.ones(B)),  # PHWC
    }


def geometry(m, two_n, fields, row=None, computes=None):
    """A geometry of a map R^m -> R^2n whose fields are ``fields`` (at
    ``row``, or over the batch) but the one the kernel ``computes``: no
    component of the map and no J is evaluated."""
    target = euclidean_space(two_n)
    phi = SmoothMap(euclidean_space(m), target, None, constant_J(target))
    pick = (lambda a: a) if row is None else (lambda a: a[row])
    geo = LocalGeometry(phi, pick(np.zeros((B, m))))
    for key, value in fields.items():
        if key == computes:
            continue
        value = tuple(map(pick, value)) if isinstance(value, tuple) \
            else pick(value)
        geo._fields[(None, key)] = read_only(value)
    return geo


def check_kernel(m, two_n, read, oracle, computes=None):
    """``read(geo)`` on the batch equals the old einsum on the same arrays,
    ``oracle(fields)``, and, row by row, ``read`` at one row."""
    fields = inputs(m, two_n, seed=m * 10 + two_n)
    got = read(geometry(m, two_n, fields, computes=computes))
    want = oracle(fields)
    for got_part, want_part in zip(got, want) if isinstance(got, tuple) \
            else [(got, want)]:
        close(got_part, want_part)
    rows_equal(got, lambda i: read(geometry(m, two_n, fields, i, computes)))


# ---- the old contractions, as einsum ---------------------------------------

def old_tension(f):
    ginv, gamma, gamma_n = f["ginv"], f["christoffel"], f[
        "target_christoffel"]
    _, a, da = f["map_jets"]
    return (np.einsum("...ij,...iaj->...a", ginv, da)
            - np.einsum("...ij,...kij,...ak->...a", ginv, gamma, a)
            + np.einsum("...ij,...abc,...bi,...cj->...a", ginv, gamma_n, a,
                        a))


def old_mean_curvature(f):
    ph, dph = f["projector_and_lift"][0], f["projector_and_lift_derivs"][0]
    m = ph.shape[-1]
    pv = np.eye(m) - ph
    t = pv @ f["ginv"] @ pv.mT
    total = (np.einsum("...kij,...ij->...k", f["christoffel"], t)
             - np.einsum("...ib,...ikb->...k", t, dph))
    return matvec(ph, total) / (m - f["map_jets"][1].shape[-2])


def old_projector_derivs(f):
    a, adjoint, minv = f["_lift_factors"]
    lift, da = f["projector_and_lift"][1], f["map_jets"][2]
    ginv, dg = f["ginv"], f["metric_and_derivs"][1]
    dginv = -np.einsum("...ij,...kjl,...lm->...kim", ginv, dg, ginv)
    d_adjoint = dginv @ per_k(a.mT) + per_k(ginv) @ da.mT
    d_gram = da @ per_k(adjoint) + per_k(a) @ d_adjoint
    d_lift = (d_adjoint - per_k(lift) @ d_gram) @ per_k(minv)
    return d_lift @ per_k(a) + per_k(lift) @ da, d_lift


def old_d_f_structure(f):
    a, da = f["map_jets"][1], f["map_jets"][2]
    lift, d_lift = f["projector_and_lift"][1], f[
        "projector_and_lift_derivs"][1]
    jq, dj = f["target_j_and_derivs"]
    dj_along = np.einsum("...cab,...ci->...iab", dj, a)
    return (d_lift @ per_k(jq @ a) + per_k(lift) @ dj_along @ per_k(a)
            + per_k(lift @ jq) @ da)


def old_nabla_f(f, df, gamma):
    return (df + np.einsum("...kil,...lj->...ikj", gamma, f)
            - np.einsum("...kl,...lij->...ikj", f, gamma))


def old_f_divergence(f):
    r = f["horizontal_factor"]
    nab = old_nabla_f(f["F"], f["dF"], f["christoffel"])
    total = np.einsum("...ai,...ikj,...aj->...k", r, nab, r)
    return matvec(f["F"], total)


def old_phh_defect(f):
    r, g = f["horizontal_factor"], f["metric_and_derivs"][0]
    nab = old_nabla_f(f["F"], f["dF"], f["christoffel"])
    pairs = np.einsum("...ai,...ikj,...bj->...abk", r, nab, r)
    horizontal = pairs @ per_k(f["projector_and_lift"][0].mT)
    total = np.einsum("...abk,...kl,...abl->...", horizontal, g, horizontal)
    scale = np.einsum("...abk,...kl,...abl->...", pairs, g, pairs)
    return np.sqrt(total), np.maximum(np.sqrt(scale), 1.0)


# ---- the kernels -------------------------------------------------------------

@pytest.mark.parametrize("m, two_n", SHAPES)
def test_tension_field(m, two_n):
    check_kernel(m, two_n, lambda geo: geo.tension_field, old_tension)


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_mean_curvature_vertical(m, two_n):
    check_kernel(m, two_n, lambda geo: geo.mean_curvature_vertical,
                 old_mean_curvature)


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_projector_and_lift_derivs(m, two_n):
    check_kernel(m, two_n, lambda geo: geo.projector_and_lift_derivs,
                 old_projector_derivs, "projector_and_lift_derivs")


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_d_f_structure(m, two_n):
    check_kernel(m, two_n, lambda geo: hermitian.d_f_structure(geo),
                 old_d_f_structure, "dF")


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_f_divergence_horizontal(m, two_n):
    check_kernel(m, two_n,
                 lambda geo: hermitian.f_divergence_horizontal(geo),
                 old_f_divergence)


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_phh_defect(m, two_n):
    check_kernel(m, two_n, lambda geo: hermitian.phh_defect(geo),
                 old_phh_defect)


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_laplacian_and_covariant_derivative(m, two_n):
    fields = inputs(m, two_n, seed=m + 2)
    rng = np.random.default_rng(m)
    value, grad, hess = (rng.standard_normal((B,) + s)
                         for s in ((), (m,), (m, m)))
    x, y, dy = (rng.standard_normal((B, m)) for _ in range(3))
    ginv, gamma = fields["ginv"], fields["christoffel"]

    def read(geo, i=slice(None)):
        return np.concatenate([
            geo.laplacian(Jet2(value[i], grad[i], hess[i]))[..., None],
            geo.covariant_derivative(x[i], y[i], dy[i])], axis=-1)

    got = read(geometry(m, two_n, fields))
    close(got[..., 0],
          np.einsum("...ij,...ij->...", ginv, hess)
          - np.einsum("...ij,...kij,...k->...", ginv, gamma, grad))
    close(got[..., 1:],
          dy + np.einsum("...kij,...i,...j->...k", gamma, x, y))
    rows_equal(got, lambda i: read(geometry(m, two_n, fields, i), i))


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_manifold_helpers_and_the_laws_bilinears(m, two_n):
    rng = np.random.default_rng(m + two_n)
    t, u = rng.standard_normal((2, B, m, m, m))
    s, a = rng.standard_normal((2, B, m, m))
    x, y = rng.standard_normal((2, B, m))
    r = rng.standard_normal((B, two_n, m))
    cases = [  # (kernel, the einsum it stands for, its arguments)
        (contract, "...kij,...ij->...k", (t, s)),
        (act_first, "...pi,...ikj->...pkj", (r, t)),
        (act_first, "...pi,...ikj->...pkj", (a, t)),
        # covariant derivative and Koszul sides: Gamma^k_ij X^i Y^j
        (lambda t, x, y: contract(t, outer(x, y)),
         "...kij,...i,...j->...k", (t, x, y)),
        # phh-covariant sides and dV: X^i (nabla_i F)^k_j Y^j
        (lambda t, x, y: contract(t.swapaxes(-3, -2), outer(x, y)),
         "...ikj,...i,...j->...k", (t, x, y)),
        (hermitian.nabla_f_operator, None, (s, u, t)),
    ]
    for kernel, spec, args in cases:
        got = kernel(*args)
        want = (old_nabla_f(*args) if spec is None
                else np.einsum(spec, *args))
        close(got, want)
        rows_equal(got, lambda i: kernel(*(arg[i] for arg in args)))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_levi_civita(m):
    rng = np.random.default_rng(m)
    ginv = rng.standard_normal((B, m, m))
    dg = rng.standard_normal((B, m, m, m))
    got = levi_civita(ginv, dg)
    bracket = (dg + dg.swapaxes(-3, -2)
               - dg.swapaxes(-3, -2).swapaxes(-2, -1))
    close(got, 0.5 * np.einsum("...kl,...ijl->...kij", ginv, bracket))
    rows_equal(got, lambda i: levi_civita(ginv[i], dg[i]))


@pytest.mark.parametrize("m, two_n", SHAPES)
def test_frobenius_is_the_norm_of_each_matrix(m, two_n):
    a = np.random.default_rng(m).standard_normal((B, two_n, m))
    assert np.array_equal(hermitian._frobenius(a),
                          [np.linalg.norm(x) for x in a])
    rows_equal(hermitian._frobenius(a), lambda i: hermitian._frobenius(a[i]))
