"""Whittle-Matern kernel layer.

The reproducing kernel of the Sobolev space W_2^m(R^d) is, up to norm
equivalence,

    K(x, y) = phi_nu(||x - y|| / scale),   phi_mu(r) = r^mu K_mu(r),

with nu = m - d/2 and K_mu the modified Bessel function of the second kind.
Everything in this module reduces to the phi stack: from the derivative
identity d/dr(r^mu K_mu(r)) = -r^mu K_{mu-1}(r) one gets closed forms for the
Laplacian applied to one or both kernel arguments,

    Delta_y K          = (t^2 phi_{nu-2}(t) - d phi_{nu-1}(t)) / scale^2,
    Delta_x Delta_y K  = (t^4 phi_{nu-4}(t) - 2(d+2) t^2 phi_{nu-3}(t)
                          + d(d+2) phi_{nu-2}(t)) / scale^4,

with t = ||x - y|| / scale.  Negative orders use K_{-mu} = K_mu; the terms
with a t^2 or t^4 prefactor stay finite at t = 0 for every valid smoothness
(nu > 2).  Each evaluator comes in two forms: a radial entry point
(radial_kernel, radial_laplacian, radial_bilaplacian) that takes scaled radii
t, and a point form (kernel_value, laplacian_y, bilaplacian) that computes
t = ||x - y|| / scale with scaled_distance and calls it.  All of them
broadcast and are pure elementwise functions of t, so concurrent use is safe
and equal radii give equal values, bit for bit; callers may evaluate each
distinct radius once and reuse the value.

One Bessel stack serves every evaluator (`_phi_terms`).  For integer nu
(every even d, so the shipped d = 2) the orders |nu - k| are integers, and
the stack takes K_0 and K_1 from a seed pair and climbs to every higher
order with the upward recurrence K_{n+1} = K_{n-1} + (2n/t) K_n
(DLMF 10.29.1; stable upward for K).  The factor 2n/t is accumulated as
rz, rz + rz, ... with rz = 2/t.  Non-integer orders (odd d) call kv once
per order.  Two seed pairs serve two kinds of value:

- Dual inner products (the radial forms by default, so also the point forms)
  seed with AMOS kv(0, t) and kv(1, t), two kv calls per evaluation.  The
  recurrence above is the arithmetic of the AMOS routine behind scipy's kv,
  which computes K_n from the same two seeds the same way, so wherever kv
  does not rescale against underflow (t up to about 664.87) every stack
  entry equals kv(n, t) bit for bit and these evaluators return exactly
  what per-order kv calls return (tests/test_kernels.py holds them to
  that).  Forming 2n/t or n*(2/t) directly rounds differently: from K_4 on
  it is an ulp off for about a fifth of the radii.  These values fill the
  Gram columns, where mirror-symmetric candidates tie in residual power and
  the last bit settles the pick, so their bits are kept.  Above t = 664.87
  the kv seeds themselves are off by up to 5.7e-14 relative, and from
  t = 697.9 on they are 0; radii in the unit disk reach that far only for
  scale < 1/300.
- Representer rows (functionals.riesz_value and representer_rows: the
  build's grid pass, the extended rule's rows at its interior points and
  the basis values) seed with Cephes k0(t) and k1(t) (`cephes=True`): each
  seed costs about 60 ns a radius against about 200 ns for a kv call.
  Cephes is slightly more accurate than kv against 40-digit mpmath, and
  stays so up to t = 705, past where kv fails; the rows agree with the
  kv-seeded values to roundoff, not bit for bit.  No standard-mode pick
  reads them; the extended rule compares the delta powers they give at its
  interior points with the candidates' residual powers.

SciPy loads on the first Bessel call, not when this module is imported: a
`solve` from stored basis values evaluates the kernel only at t = 0 (for
K(x, x)), where the analytic limit needs no Bessel function, so it and
`report` run on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this scaled radius r^mu K_mu(r) is replaced by its analytic limit:
# the removable singularity is the only regime where the product cancels.
_LIMIT_RADIUS = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Smoothness m, space dimension d and length scale of the kernel.

    Continuity of the operator functionals delta_x . Delta requires
    m > 2 + d/2, which keeps the derived order nu = m - d/2 above 2.
    """

    m: int
    d: int
    scale: float = 1.0

    def __post_init__(self):
        if int(self.m) != self.m:
            raise ValueError(f"smoothness m must be an integer, got {self.m!r}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension d must be a positive integer, got {self.d!r}")
        if not self.m > 2 + self.d / 2:
            raise ValueError(
                f"need smoothness m > 2 + d/2 = {2 + self.d / 2:g}, got m={self.m}"
            )
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")

    @property
    def nu(self) -> float:
        return self.m - self.d / 2


@dataclass(frozen=True)
class RadialStack:
    """phi values at a single scaled radius for orders nu, nu-1, ..., nu-4.

    Entries with order <= 0 diverge at radius 0; they carry a singular flag
    and are only meaningful under an r^2 or r^4 prefactor, which is how the
    Laplacian formulas consume them (the prefactor vanishes at 0).
    """

    radius: float
    orders: tuple[float, ...]
    values: np.ndarray
    singular: np.ndarray


def kv(order, t):
    """scipy.special.kv(order, t); SciPy loads on the first call.

    Looked up as a module global at every call, so a test can count calls;
    k0 and k1 likewise.
    """
    from scipy.special import kv as scipy_kv
    return scipy_kv(order, t)


def k0(t):
    """scipy.special.k0(t), Cephes's K_0."""
    from scipy.special import k0 as scipy_k0
    return scipy_k0(t)


def k1(t):
    """scipy.special.k1(t), Cephes's K_1."""
    from scipy.special import k1 as scipy_k1
    return scipy_k1(t)


def bessel_k(order: float, r):
    """Modified Bessel function of the second kind, K_order(r).

    Requires order >= 0 (map negative orders through K_{-mu} = K_mu first)
    and strictly positive r, since K diverges at the origin; limits of
    r^mu K_mu products are taken in radial_stack, not here.
    """
    if order < 0:
        raise ValueError("bessel_k needs order >= 0; use K_{-mu} = K_mu first")
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k needs r > 0")
    out = kv(order, arr)
    return float(out) if np.ndim(r) == 0 else out


def _phi_limit(mu: float) -> float:
    # lim_{r -> 0} r^mu K_mu(r) for mu > 0
    return 2.0 ** (mu - 1.0) * math.gamma(mu)


def _bessel_orders(orders, t: np.ndarray, cephes: bool = False) -> list[np.ndarray]:
    """[K_o(t) for o in orders], for orders o >= 0 and t > 0.

    Any non-integer order is one kv call per order.  Otherwise K_0 and K_1
    come from kv, or from Cephes k0 and k1 when `cephes` is set, and every
    higher order from the recurrence K_{n+1} = ck K_n + K_{n-1} with ck
    accumulated as rz, rz + rz, ... (rz = 2/t): kv's own arithmetic, so from
    kv seeds each value equals kv(n, t) bit for bit wherever kv does not
    rescale against underflow.  An empty t (every radius below
    _LIMIT_RADIUS) makes no call.
    """
    if t.size == 0:
        return [t.copy() for _ in orders]
    if not all(float(o).is_integer() for o in orders):
        return [kv(o, t) for o in orders]
    stack = [k0(t), k1(t)] if cephes else [kv(0, t), kv(1, t)]
    rz = 2.0 / t
    ck = rz
    for _ in range(int(max(orders)) - 1):
        stack.append(ck * stack[-1] + stack[-2])
        ck = ck + rz
    return [stack[int(o)] for o in orders]


def _phi_terms(t: np.ndarray, terms, cephes: bool = False) -> list[np.ndarray]:
    """[t^power phi_mu(t) for (power, mu) in terms], elementwise over t >= 0,
    with every K_|mu| taken from one _bessel_orders call (Cephes seeds when
    `cephes` is set).

    Below _LIMIT_RADIUS a term takes its t -> 0 limit: 0 when power > 0
    (every Laplacian term has power + 2 min(mu, 0) > 0, so the prefactor
    wins), else 2^(mu-1) Gamma(mu) for mu > 0 and +inf for mu <= 0.
    """
    big = t >= _LIMIT_RADIUS
    tt = t[big]
    bessel = _bessel_orders([abs(mu) for _, mu in terms], tt, cephes)
    out = []
    for (power, mu), k in zip(terms, bessel):
        v = np.empty_like(t)
        v[~big] = 0.0 if power else (_phi_limit(mu) if mu > 0 else np.inf)
        v[big] = tt ** (power + mu) * k
        out.append(v)
    return out


def distance(x, y) -> np.ndarray:
    """||x - y|| over the trailing coordinate axis.

    The squared coordinates are summed in order, which is how
    np.linalg.norm(x - y, axis=-1) sums them, so the bits are the same; a
    sum per coordinate avoids norm's reduction over rows of length d, which
    costs several times more, and subtracting one coordinate at a time
    avoids forming the strided difference array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("points must have the same number of coordinates")
    return np.sqrt(sum((x[..., i] - y[..., i]) ** 2 for i in range(x.shape[-1])))


def scaled_distance(spec: KernelSpec, x, y) -> np.ndarray:
    """t = ||x - y|| / scale over the trailing coordinate axis (see distance)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != spec.d or y.shape[-1] != spec.d:
        raise ValueError(f"points must have {spec.d} coordinates")
    return distance(x, y) / spec.scale


def radial_stack(spec: KernelSpec, r: float) -> RadialStack:
    """phi_mu(r/scale) for mu = nu, nu-1, ..., nu-4, with K_{-mu} = K_mu.

    Total on r >= 0: at radius 0 the positive orders take their analytic
    limit 2^(mu-1) Gamma(mu) and the rest are flagged singular.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    t = float(r) / spec.scale
    orders = tuple(spec.nu - k for k in range(5))
    terms = _phi_terms(np.array([t]), [(0, mu) for mu in orders])
    values = np.array([v[0] for v in terms])
    singular = np.array([t < _LIMIT_RADIUS and mu <= 0 for mu in orders])
    return RadialStack(radius=t, orders=orders, values=values, singular=singular)


def radial_kernel(spec: KernelSpec, t, *, cephes: bool = False):
    """phi_nu(t), the kernel at scaled radius t = ||x - y|| / scale; the
    Bessel stack is seeded with Cephes k0/k1 when `cephes` is set, else
    with kv."""
    t = np.asarray(t, dtype=float)
    (v,) = _phi_terms(np.atleast_1d(t), [(0, spec.nu)], cephes)
    return float(v[0]) if t.ndim == 0 else v


def radial_laplacian(spec: KernelSpec, t, *, cephes: bool = False):
    """Delta_y K at scaled radius t, seeded as in radial_kernel."""
    t = np.asarray(t, dtype=float)
    nu, d = spec.nu, spec.d
    a, b = _phi_terms(np.atleast_1d(t), [(2, nu - 2), (0, nu - 1)], cephes)
    v = (a - d * b) / spec.scale**2
    return float(v[0]) if t.ndim == 0 else v


def radial_bilaplacian(spec: KernelSpec, t):
    """Delta_x Delta_y K at scaled radius t: the radial Laplacian reduction
    applied twice.

    Finite at t = 0 for every valid spec, where it equals
    d(d+2) phi_{nu-2}(0) / scale^4.
    """
    t = np.asarray(t, dtype=float)
    nu, d = spec.nu, spec.d
    a, b, c = _phi_terms(np.atleast_1d(t), [(4, nu - 4), (2, nu - 3), (0, nu - 2)])
    v = (a - 2.0 * (d + 2) * b + d * (d + 2) * c) / spec.scale**4
    return float(v[0]) if t.ndim == 0 else v


def kernel_value(spec: KernelSpec, x, y):
    """K(x, y) = phi_nu(||x - y|| / scale); symmetric, broadcasts over points."""
    return radial_kernel(spec, scaled_distance(spec, x, y))


def laplacian_y(spec: KernelSpec, x, y):
    """Delta_y K(x, y); equals Delta_x K(x, y) by radial symmetry."""
    return radial_laplacian(spec, scaled_distance(spec, x, y))


def bilaplacian(spec: KernelSpec, x, y):
    """Delta_x Delta_y K(x, y); finite at x = y."""
    return radial_bilaplacian(spec, scaled_distance(spec, x, y))
