"""Hamilton quaternion scalars and their similarity classes.

A quaternion is stored as four floats over the basis (1, i, j, k) with
i^2 = j^2 = k^2 = ijk = -1.  Internally much of the package works with the
complex-pair form q = a + b*j (a = w + x*i, b = y + z*i), which is what the
complex adjoint of a matrix is built from.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateInput

DEFAULT_TOL = 1e-9


class Quaternion:
    """A real quaternion w + x*i + y*j + z*k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_complex_pair(cls, a, b=0j):
        """Build w + x*i + y*j + z*k from q = a + b*j with a, b complex."""
        a = complex(a)
        b = complex(b)
        return cls(a.real, a.imag, b.real, b.imag)

    @classmethod
    def from_scalar(cls, value):
        """Coerce a real/complex scalar or Quaternion into a Quaternion."""
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag, 0.0, 0.0)
        return cls(float(value), 0.0, 0.0, 0.0)

    def complex_pair(self):
        """Return (a, b) with self = a + b*j."""
        return complex(self.w, self.x), complex(self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self, tol: float = DEFAULT_TOL) -> "Quaternion":
        n2 = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        if math.sqrt(n2) <= tol:
            raise DegenerateInput("cannot invert a (near-)zero quaternion")
        c = self.conj()
        return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)

    def __add__(self, other):
        other = Quaternion.from_scalar(other)
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = Quaternion.from_scalar(other)
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return Quaternion.from_scalar(other) - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        other = Quaternion.from_scalar(other)
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __rmul__(self, other):
        return Quaternion.from_scalar(other) * self

    def __truediv__(self, other):
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return self * (1.0 / float(other))

    def __eq__(self, other):
        if not isinstance(other, (Quaternion, int, float, complex)):
            return NotImplemented
        other = Quaternion.from_scalar(other)
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def isclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        other = Quaternion.from_scalar(other)
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    def to_list(self):
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_list(cls, values):
        w, x, y, z = values
        return cls(w, x, y, z)

    def __repr__(self):
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class ClassRep(NamedTuple):
    """Unique complex representative (re, im) of a similarity class, im >= 0.

    Two quaternions are similar over H exactly when their representatives
    coincide; the representative of w + x*i + y*j + z*k is
    (w, sqrt(x^2 + y^2 + z^2)).
    """

    re: float
    im: float

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def modulus(self) -> float:
        return math.hypot(self.re, self.im)

    def angle(self) -> float:
        """Principal angle in [0, pi] (atan2 with im >= 0)."""
        return math.atan2(self.im, self.re)

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        """True when the class lies on the real axis, within 1e3 * tol * max(1, |λ|)."""
        return self.im <= 1e3 * tol * max(1.0, self.modulus())

    def is_unit(self, tol: float = DEFAULT_TOL) -> bool:
        """True when |λ| = 1, within 1e3 * tol * max(1, |λ|)."""
        m = self.modulus()
        return abs(m - 1.0) <= 1e3 * tol * max(1.0, m)

    def isclose(self, other: "ClassRep", tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.modulus(), other.modulus())
        return abs(self.re - other.re) <= tol * scale and abs(self.im - other.im) <= tol * scale

    def inverse_class(self) -> "ClassRep":
        inv = 1.0 / self.as_complex()
        return ClassRep(inv.real, abs(inv.imag))

    def negated_inverse_class(self) -> "ClassRep":
        ninv = -1.0 / self.as_complex()
        return ClassRep(ninv.real, abs(ninv.imag))

