"""Dual-space functionals: boundary deltas and operator deltas.

A functional is a point evaluation delta_z (kind "B", placed on the boundary)
or a point evaluation composed with the Laplacian, delta_x . Delta (kind "D",
placed anywhere in the closed domain).  Inner products in the dual space are
computed by applying each functional to one argument of the kernel,
(lam, mu) = lam^x mu^y K(x, y), which reduces to the kernel value, the single
Laplacian or the double Laplacian depending on the kind pair.

A candidate set (FunctionalSet) is stored as two packed arrays, the points
and the operator-delta mask, which are all the column, power and selection
code reads; a Functional object is built from them only when a caller asks
for one entry.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kernels import (
    KernelSpec,
    radial_bilaplacian,
    radial_kernel,
    radial_laplacian,
    scaled_distance,
)

BOUNDARY_DELTA = "B"
DOMAIN_OP_DELTA = "D"

# (lam, mu) = lam^x mu^y K applies one Laplacian per operator delta in the
# pair, so the number of operator deltas (0, 1 or 2) indexes the radial form.
_RADIAL_BY_DELTAS = (radial_kernel, radial_laplacian, radial_bilaplacian)


@dataclass(frozen=True)
class Functional:
    kind: str
    point: tuple[float, ...]
    index: int

    def __post_init__(self):
        if self.kind not in (BOUNDARY_DELTA, DOMAIN_OP_DELTA):
            raise ValueError(f"unknown functional kind {self.kind!r}")


def boundary_delta(point, index: int) -> Functional:
    return Functional(BOUNDARY_DELTA, tuple(float(c) for c in point), index)


def domain_op_delta(point, index: int) -> Functional:
    return Functional(DOMAIN_OP_DELTA, tuple(float(c) for c in point), index)


class FunctionalSet(Sequence):
    """A finite, fixed candidate set, held as packed arrays.

    `points` (n, d) and `domain_mask` (n, True for an operator delta) are
    the whole state, and are read-only.  Indexing builds the Functional of
    one entry, with its position as its index; a slice gives a list of them.
    FunctionalSet(entries) packs a list of functionals, which must be indexed
    contiguously from 0 in list order; `from_arrays` takes the arrays
    directly.
    """

    def __init__(self, entries: Sequence[Functional]):
        for i, f in enumerate(entries):
            if f.index != i:
                raise ValueError(f"entry {i} carries index {f.index}; must be contiguous")
        self._pack(np.array([f.point for f in entries], dtype=float),
                   np.array([f.kind == DOMAIN_OP_DELTA for f in entries], dtype=bool))

    @classmethod
    def from_arrays(cls, points, domain_mask) -> FunctionalSet:
        """The set whose entry i has point points[i] and is an operator delta
        where domain_mask[i] holds."""
        fset = cls.__new__(cls)
        fset._pack(np.array(points, dtype=float), np.array(domain_mask, dtype=bool))
        return fset

    def _pack(self, points: np.ndarray, domain_mask: np.ndarray) -> None:
        n = len(points)
        if n == 0:
            raise ValueError("functional set must be nonempty")
        if points.ndim != 2 or domain_mask.shape != (n,):
            raise ValueError(f"points {points.shape} and domain_mask "
                             f"{domain_mask.shape} do not describe one set")
        self.points = points
        self.domain_mask = domain_mask
        # the extended rule reads this every step
        self.boundary_indices = np.flatnonzero(~domain_mask)
        for a in (points, domain_mask, self.boundary_indices):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"functional index {i} is outside a set of {n}")
        i %= n
        kind = DOMAIN_OP_DELTA if self.domain_mask[i] else BOUNDARY_DELTA
        return Functional(kind, tuple(self.points[i].tolist()), i)

    @property
    def counts(self) -> tuple[int, int]:
        """(number of operator deltas, number of boundary deltas)."""
        nb = len(self.boundary_indices)
        return len(self) - nb, nb


def disk_functional_set(geometry) -> FunctionalSet:
    """Operator deltas on all domain candidates, then boundary deltas on the
    boundary candidates, indexed contiguously in that order."""
    nd, nb = len(geometry.domain_points), len(geometry.boundary_points)
    return FunctionalSet.from_arrays(
        np.concatenate([geometry.domain_points, geometry.boundary_points]),
        np.arange(nd + nb) < nd,
    )


def dual_inner(a: Functional, b: Functional, spec: KernelSpec) -> float:
    """(a, b) in the dual space; symmetric in its arguments."""
    deltas = (a.kind == DOMAIN_OP_DELTA) + (b.kind == DOMAIN_OP_DELTA)
    return _RADIAL_BY_DELTAS[deltas](spec, scaled_distance(spec, a.point, b.point))


class BilaplacianTable:
    """Bilaplacian values for one kernel spec, keyed by the exact scaled
    radius.

    Operator-delta pairs repeat the same few radii from column to column, and
    the bilaplacian is a pure function of the radius, so a table that lives
    across columns evaluates each distinct radius once and gathers it after
    that; the values are exactly those of a direct evaluation.

    The radii's float bits are the keys of an open-addressing hash table
    with linear probing, kept at most a quarter full so that nearly every
    key is found in its first slot.  At full scale a lookup costs a fifth of
    a binary search over the sorted radii.
    """

    _EMPTY = np.uint64(2**64 - 1)  # a NaN bit pattern, so never a radius
    _MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing
    _INITIAL_CAPACITY = 1024  # slots; a power of two, doubled as needed

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._size = 0
        self._allocate(self._INITIAL_CAPACITY)

    def __len__(self) -> int:
        return self._size

    def _allocate(self, capacity: int) -> None:
        self._keys = np.full(capacity, self._EMPTY)
        self._values = np.empty(capacity)
        self._shift = np.uint64(65 - capacity.bit_length())  # 64 - log2(capacity)

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Where each key is stored, or else the empty slot that ends its
        probe sequence."""
        mask = len(self._keys) - 1
        # the top bits of the wrapped uint64 product pick the home slot
        slot = (keys * self._MULTIPLIER >> self._shift).astype(np.intp)
        held = self._keys[slot]
        todo = np.flatnonzero((held != keys) & (held != self._EMPTY))
        while todo.size:
            slot[todo] = (slot[todo] + 1) & mask
            held = self._keys[slot[todo]]
            todo = todo[(held != keys[todo]) & (held != self._EMPTY)]
        return slot

    def _insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store distinct keys that the table does not hold yet."""
        if 4 * (self._size + len(keys)) > len(self._keys):
            held = self._keys != self._EMPTY
            keys = np.concatenate([self._keys[held], keys])
            values = np.concatenate([self._values[held], values])
            capacity = len(self._keys)
            while 4 * len(keys) > capacity:
                capacity *= 2
            self._allocate(capacity)
            self._size = 0
        todo = np.arange(len(keys))
        while todo.size:
            slot = self._slots(keys[todo])
            _, first = np.unique(slot, return_index=True)  # one key per free slot
            self._keys[slot[first]] = keys[todo[first]]
            self._values[slot[first]] = values[todo[first]]
            todo = np.delete(todo, first)
        self._size += len(keys)

    def lookup(self, t: np.ndarray) -> np.ndarray:
        """Bilaplacian values at the 1-D scaled radii t.  Radii the table
        does not hold yet are evaluated, once each, and added to it."""
        t = np.ascontiguousarray(t, dtype=float)
        keys = t.view(np.uint64)
        slot = self._slots(keys)
        out = self._values[slot]
        miss = self._keys[slot] != keys
        if miss.any():
            new, inverse = np.unique(t[miss], return_inverse=True)
            values = radial_bilaplacian(self.spec, new)
            out[miss] = values[inverse]
            self._insert(new.view(np.uint64), values)
        return out


def dual_inner_column(f: Functional, fset: FunctionalSet, spec: KernelSpec,
                      table: BilaplacianTable | None = None,
                      distances: np.ndarray | None = None) -> np.ndarray:
    """(lam, f) for every lam in the set, as one vector over set order.

    (lam, f) depends only on the kinds and on the scaled distance
    t = ||lam - f|| / scale, and the kernel evaluators are pure functions of
    t, so the result is exactly the per-candidate one.  Operator-delta pairs
    go through `table`, which a greedy run keeps across all its columns so
    that each of their radii is evaluated once per run (a fresh table when
    None); the pairs with a boundary delta, whose radii rarely repeat, are
    evaluated directly.  `distances`, when given, is
    kernels.distance(fset.points, f.point), which a caller that needs it
    anyway can pass in instead of having it computed twice.
    """
    if table is None:
        table = BilaplacianTable(spec)
    elif table.spec != spec:
        raise ValueError(f"table holds values for {table.spec}, not {spec}")
    t = (scaled_distance(spec, fset.points, f.point) if distances is None
         else distances / spec.scale)
    dm = fset.domain_mask
    bm = ~dm
    out = np.empty(len(fset))
    if f.kind == DOMAIN_OP_DELTA:
        out[dm] = table.lookup(t[dm])
        out[bm] = radial_laplacian(spec, t[bm])
    else:
        out[dm] = radial_laplacian(spec, t[dm])
        out[bm] = radial_kernel(spec, t[bm])
    return out


def self_inner_column(fset: FunctionalSet, spec: KernelSpec) -> np.ndarray:
    """(lam, lam) for every lam in the set: the radial form at t = 0, since
    the kernel is translation invariant, and a pair (lam, lam) holds two
    operator deltas where lam is one."""
    at_zero = np.array([radial(spec, 0.0) for radial in _RADIAL_BY_DELTAS])
    return at_zero[2 * fset.domain_mask]


def gram(functionals: Sequence[Functional], spec: KernelSpec) -> np.ndarray:
    """Dense symmetric Gram matrix of dual inner products; entry (i, j) is
    dual_inner(functionals[i], functionals[j]) bit for bit."""
    pts = np.array([f.point for f in functionals], dtype=float)
    ops = np.array([f.kind == DOMAIN_OP_DELTA for f in functionals], dtype=int)
    t = scaled_distance(spec, pts[:, None, :], pts[None, :, :])
    deltas = ops[:, None] + ops[None, :]
    G = np.empty(t.shape)
    for n, radial in enumerate(_RADIAL_BY_DELTAS):
        pair = deltas == n
        G[pair] = radial(spec, t[pair])
    return G


def riesz_value(f: Functional, x, spec: KernelSpec):
    """Riesz representer v_f evaluated at x; broadcasts over point arrays.

    The Bessel stack is seeded with Cephes k0/k1, about three times cheaper
    per radius than the kv seeds of the dual inner products, so v_f(x)
    equals dual_inner(f, delta_x) to roundoff, not bit for bit.  The
    extended rule's rows over its interior points at each build step
    (engine.run) and the collocation oracle read it; grid rows come from
    representer_rows, which gives the same bits.  No standard-mode pick
    reads either.
    """
    t = scaled_distance(spec, x, f.point)
    return _RADIAL_BY_DELTAS[f.kind == DOMAIN_OP_DELTA](spec, t, cephes=True)


def representer_rows(centers: np.ndarray, operator_delta: bool, x,
                     spec: KernelSpec) -> np.ndarray:
    """Representer rows of several functionals of one kind, from one call of
    their radial form: row i is v_f(x) for the functional f at centers[i]
    (an operator delta when operator_delta holds, else a boundary delta),
    equal to riesz_value(f, x) bit for bit, since the radial forms are
    elementwise in the scaled radius.  centers is (g, d), x is (P, d)."""
    t = scaled_distance(spec, x, np.asarray(centers)[:, None, :])
    return _RADIAL_BY_DELTAS[operator_delta](spec, t, cephes=True)


# ---------------------------------------------------------------------------
# analytic test solutions


@dataclass(frozen=True)
class GaussianBump:
    """u(x) = exp(-shape * ||x - center||^2), smooth everywhere."""

    center: tuple[float, ...]
    shape: float = 1.0

    def value(self, x):
        r2 = _sq_dist(x, self.center)
        return np.exp(-self.shape * r2)

    def laplacian(self, x):
        c = self.shape
        d = len(self.center)
        r2 = _sq_dist(x, self.center)
        return (4.0 * c * c * r2 - 2.0 * d * c) * np.exp(-c * r2)


@dataclass(frozen=True)
class PowerCusp:
    """u(x) = ||x - center||^exponent, with a derivative singularity at the
    center; the Laplacian is exponent*(exponent+d-2) r^(exponent-2)."""

    center: tuple[float, ...]
    exponent: float = 2.5

    def value(self, x):
        return np.sqrt(_sq_dist(x, self.center)) ** self.exponent

    def laplacian(self, x):
        b = self.exponent
        d = len(self.center)
        r = np.sqrt(_sq_dist(x, self.center))
        if b < 2.0 and np.any(r == 0.0):
            raise ValueError("cusp Laplacian is singular at the center for exponent < 2")
        if b == 2.0:
            return np.full_like(r, 2.0 * d)
        return b * (b + d - 2.0) * r ** (b - 2.0)


def _sq_dist(x, center):
    diff = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    return (diff**2).sum(axis=-1)


def apply_to_solution(f: Functional, solution) -> float:
    """lam(u): the solution value for boundary deltas, its Laplacian for
    operator deltas."""
    x = np.asarray(f.point, dtype=float)
    v = solution.value(x) if f.kind == BOUNDARY_DELTA else solution.laplacian(x)
    return float(v)


def data_vector(fset: FunctionalSet, indices, solution) -> np.ndarray:
    """lam_j(u) for the given functional indices, vectorized."""
    idx = np.asarray(indices, dtype=int)
    pts = fset.points[idx]
    dm = fset.domain_mask[idx]
    out = np.empty(len(idx))
    if dm.any():
        out[dm] = solution.laplacian(pts[dm])
    if (~dm).any():
        out[~dm] = solution.value(pts[~dm])
    return out


# ---------------------------------------------------------------------------
# text serialization: one record per line, kind tag then coordinates


def write_functionals(path, entries: Sequence[Functional]) -> None:
    """Dump functionals as 'B|D x1 ... xd' lines."""
    with open(path, "w") as fh:
        for f in entries:
            coords = " ".join(format(c, ".17g") for c in f.point)
            fh.write(f"{f.kind} {coords}\n")


def read_functionals(path) -> list[Functional]:
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            kind, coords = parts[0], tuple(float(c) for c in parts[1:])
            entries.append(Functional(kind, coords, len(entries)))
    return entries
