"""Exact trivariate polynomial arithmetic on the unit cube.

Coefficient arrays indexed by (i,j,k) for x^i y^j z^k, held in extended
precision so the verified identities come out well below the 1e-12
targets.  Inner products over the cube contract coefficient arrays
against the separable kernel 1/(i+j+1) per axis instead of forming the
product polynomial, which keeps the rounding error near machine level.
Nothing here touches the mesh machinery.
"""

import numpy as np

_DTYPE = np.longdouble


def _conv3(a, b):
    """Direct 3D convolution preserving extended precision."""
    out = np.zeros(
        (
            a.shape[0] + b.shape[0] - 1,
            a.shape[1] + b.shape[1] - 1,
            a.shape[2] + b.shape[2] - 1,
        ),
        dtype=_DTYPE,
    )
    small, big = (a, b) if a.size <= b.size else (b, a)
    for i, j, k in np.argwhere(small != 0):
        out[
            i : i + big.shape[0], j : j + big.shape[1], k : k + big.shape[2]
        ] += small[i, j, k] * big
    return out


def _pair_kernel(n, m):
    i = np.arange(n, dtype=_DTYPE)[:, None]
    j = np.arange(m, dtype=_DTYPE)[None, :]
    return 1.0 / (i + j + 1.0)


class Poly3:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.atleast_3d(np.asarray(coeffs, dtype=_DTYPE))

    @classmethod
    def zero(cls):
        return cls(np.zeros((1, 1, 1)))

    @classmethod
    def constant(cls, value):
        return cls(np.full((1, 1, 1), value, dtype=_DTYPE))

    @classmethod
    def monomial(cls, i, j, k, coeff=1.0):
        c = np.zeros((i + 1, j + 1, k + 1), dtype=_DTYPE)
        c[i, j, k] = coeff
        return cls(c)

    @classmethod
    def coordinate(cls, axis):
        return cls.monomial(*(1 if a == axis else 0 for a in range(3)))

    @property
    def degree(self):
        nz = np.nonzero(self.c)
        if len(nz[0]) == 0:
            return 0
        return int(max(i + j + k for i, j, k in zip(*nz)))

    def __add__(self, other):
        other = other if isinstance(other, Poly3) else Poly3.constant(other)
        sa, sb = self.c.shape, other.c.shape
        shape = tuple(max(a, b) for a, b in zip(sa, sb))
        out = np.zeros(shape, dtype=_DTYPE)
        out[: sa[0], : sa[1], : sa[2]] += self.c
        out[: sb[0], : sb[1], : sb[2]] += other.c
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly3(-self.c)

    def __sub__(self, other):
        other = other if isinstance(other, Poly3) else Poly3.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly3):
            return Poly3(_conv3(self.c, other.c))
        return Poly3(self.c * _DTYPE(other))

    __rmul__ = __mul__

    def diff(self, axis):
        n = self.c.shape[axis]
        if n == 1:
            return Poly3.zero()
        sl = [slice(None)] * 3
        sl[axis] = slice(1, None)
        c = np.moveaxis(self.c[tuple(sl)].copy(), axis, 0)
        c *= np.arange(1, n, dtype=_DTYPE).reshape(-1, 1, 1)
        return Poly3(np.moveaxis(c, 0, axis))

    def integral_cube(self):
        """Exact integral over the unit cube."""
        i, j, k = np.ogrid[
            1 : self.c.shape[0] + 1, 1 : self.c.shape[1] + 1, 1 : self.c.shape[2] + 1
        ]
        return float(np.sum(self.c / (i * j * k).astype(_DTYPE)))

    def pair(self, other):
        """Exact cube integral of self * other via kernel contraction."""
        a, b = self.c, other.c
        t = np.einsum("abc,ax->xbc", a, _pair_kernel(a.shape[0], b.shape[0]))
        t = np.einsum("xbc,by->xyc", t, _pair_kernel(a.shape[1], b.shape[1]))
        t = np.einsum("xyc,cz->xyz", t, _pair_kernel(a.shape[2], b.shape[2]))
        return float(np.sum(t * b))

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vx = np.vander(pts[:, 0], self.c.shape[0], increasing=True)
        vy = np.vander(pts[:, 1], self.c.shape[1], increasing=True)
        vz = np.vander(pts[:, 2], self.c.shape[2], increasing=True)
        return np.einsum(
            "ijk,ni,nj,nk->n", self.c.astype(float), vx, vy, vz
        )

    def is_zero(self, tol=0.0):
        return bool(np.all(np.abs(self.c) <= tol))


def bubble():
    """x(1-x) y(1-y) z(1-z): vanishes on the whole cube boundary."""
    x, y, z = (Poly3.coordinate(a) for a in range(3))
    return (x - x * x) * (y - y * y) * (z - z * z)


def random_poly(rng, degree):
    """Dense random polynomial with total degree <= degree, coeffs in [-1,1]."""
    n = degree + 1
    c = rng.uniform(-1.0, 1.0, size=(n, n, n))
    i, j, k = np.ogrid[0:n, 0:n, 0:n]
    c[i + j + k > degree] = 0.0
    return Poly3(c)


class PolyField:
    """Vector of polynomials, optionally multiplied by the cube bubble."""

    def __init__(self, components, bubble_flag=False):
        comps = [p if isinstance(p, Poly3) else Poly3.constant(p) for p in components]
        if bubble_flag:
            b = bubble()
            comps = [b * p for p in comps]
        self.components = comps
        self.bubble_flag = bubble_flag

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @property
    def degree(self):
        return max(p.degree for p in self.components)

    def jacobian(self):
        """J[i][j] = d component_i / d x_j."""
        return [[p.diff(j) for j in range(3)] for p in self.components]

    def value(self, pts):
        return np.column_stack([p(pts) for p in self.components])

    @classmethod
    def random(cls, rng, degree, ncomp=3, bubble_flag=False):
        return cls([random_poly(rng, degree) for _ in range(ncomp)], bubble_flag)


def dot_integral(a, b):
    """Exact cube integral of the pointwise product (lists or matrices)."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return float(sum(pa.pair(pb) for pa, pb in zip(a.ravel(), b.ravel())))


def norm_sq(a):
    return dot_integral(a, a)
