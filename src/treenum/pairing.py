"""Pairing functions on the naturals and the binary-tree codec built on them.

Three bijections are provided, each with its exact inverse:

* ``cantor_pair``:  N x N -> N along anti-diagonals.
* ``rs_pair``:      N x N -> N along square shells (Rosenberg-Strong).
      R(x, y) = max(x, y)^2 + max(x, y) + x - y
* ``mod_pair``:     {0..k-1} x N -> N via x + k*y, for fixed k >= 1.

All arithmetic is exact; inputs of any magnitude are supported.  The
square-shell pairing additionally satisfies R(x, y) >= max(x, y), which is
what makes the recursive tree codecs in this package terminate.

``phi_decode``/``phi_encode`` use ``rs_pair`` to identify every natural
number with a finite binary tree: 0 is the leaf, and n + 1 carries the pair
of its two subtree numbers.
"""

import math


def isqrt(z: int) -> int:
    """Exact integer square root: the s with s*s <= z < (s+1)*(s+1)."""
    if z < 0:
        raise ValueError("isqrt requires a non-negative integer")
    return math.isqrt(z)


def cantor_pair(x: int, y: int) -> int:
    """Anti-diagonal pairing (x + y)(x + y + 1)/2 + y."""
    _require_natural(x, "x")
    _require_natural(y, "y")
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of ``cantor_pair``: cantor_pair(*cantor_unpair(z)) == z."""
    _require_natural(z, "z")
    # w recovers the anti-diagonal x + y exactly.
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def rs_pair(x: int, y: int) -> int:
    """Square-shell pairing max(x,y)^2 + max(x,y) + x - y."""
    _require_natural(x, "x")
    _require_natural(y, "y")
    m = x if x > y else y
    return m * m + m + x - y


def rs_unpair(z: int) -> tuple[int, int]:
    """Inverse of ``rs_pair``.

    With m = isqrt(z): the pair is (z - m^2, m) while z - m^2 < m, and
    (m, m^2 + 2m - z) otherwise.  Both components are <= m.
    """
    _require_natural(z, "z")
    m = math.isqrt(z)
    d = z - m * m
    if d < m:
        return d, m
    return m, m * m + 2 * m - z


def mod_pair(k: int, x: int, y: int) -> int:
    """Pair a bounded choice x in {0..k-1} with an arbitrary natural y."""
    if k <= 0:
        raise ValueError("modulus k must be >= 1")
    _require_natural(x, "x")
    _require_natural(y, "y")
    if x >= k:
        raise ValueError(f"x must be < k (got x={x}, k={k})")
    return x + k * y


def mod_unpair(k: int, z: int) -> tuple[int, int]:
    """Inverse of ``mod_pair``: returns (z mod k, z div k)."""
    if k <= 0:
        raise ValueError("modulus k must be >= 1")
    _require_natural(z, "z")
    return z % k, z // k


class BinaryTree:
    """A finite binary tree: either a leaf or an internal node with two children."""

    __slots__ = ("left", "right")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("internal nodes need exactly two children")
        self.left = left
        self.right = right

    def __eq__(self, other):
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return "•"
        return f"⟨{self.left!r},{self.right!r}⟩"


LEAF = BinaryTree()


def phi_decode(n: int) -> BinaryTree:
    """The n'th binary tree: 0 is the leaf, n+1 pairs the two subtree numbers.

    Total and bijective.  Terminates because both components of
    rs_unpair(n - 1) are strictly smaller than n.
    """
    _require_natural(n, "n")
    if n == 0:
        return LEAF
    x, y = rs_unpair(n - 1)
    return BinaryTree(phi_decode(x), phi_decode(y))


def phi_encode(t: BinaryTree) -> int:
    """Inverse of ``phi_decode``: the position of t in the tree enumeration."""
    if t.is_leaf:
        return 0
    return rs_pair(phi_encode(t.left), phi_encode(t.right)) + 1


def _require_natural(v: int, name: str) -> None:
    if v < 0:
        raise ValueError(f"{name} must be a non-negative integer (got {v})")
