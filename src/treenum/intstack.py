"""A stack of naturals stored inside a single natural.

The representation is the number itself: ``pop`` unpairs it with the
square-shell pairing and returns one component, ``push`` pairs the value
back on.  ``modpop``/``modpush`` do the same with the modular pairing,
which is how a bounded choice (such as a grammar-rule index) is packed
next to unbounded payload.  An empty stack is the number 0, and popping
it yields 0 while leaving it empty.  The codec inlines ``split`` and
``join`` in both directions; these stay as the reference that
``test_intstack_property_suite`` pins.
"""

from .pairing import rs_pair, rs_unpair


class IntegerizedStack:
    """Mutable stack-of-naturals view of one natural number."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        if value < 0:
            raise ValueError("stack value must be a non-negative integer")
        self.value = value

    def pop(self) -> int:
        """Remove and return the top entry; popping 0 returns 0 and keeps 0."""
        self.value, ret = rs_unpair(self.value)
        return ret

    def push(self, a: int) -> None:
        """Inverse of ``pop``: a following pop returns ``a`` and restores the value."""
        if a < 0:
            raise ValueError("pushed value must be a non-negative integer")
        self.value = rs_pair(self.value, a)

    def modpop(self, k: int) -> int:
        """Remove and return the top entry modulo k (k >= 1)."""
        if k <= 0:
            raise ValueError("modulus k must be >= 1")
        ret = self.value % k
        self.value //= k
        return ret

    def modpush(self, k: int, a: int) -> None:
        """Inverse of ``modpop``: requires 0 <= a < k."""
        if k <= 0:
            raise ValueError("modulus k must be >= 1")
        if not 0 <= a < k:
            raise ValueError(f"pushed value must be in 0..{k - 1} (got {a})")
        self.value = a + k * self.value

    def split(self, n: int) -> list[int]:
        """Read the value as exactly n packed entries; the stack is 0 afterwards.

        The first n - 1 entries are popped; the n'th is whatever remains.
        """
        if n <= 0:
            raise ValueError("split needs n >= 1")
        out = [self.pop() for _ in range(n - 1)]
        out.append(self.value)
        self.value = 0
        return out

    def __repr__(self) -> str:
        return f"IntegerizedStack({self.value})"


def join(parts: list[int]) -> int:
    """Pack entries into one natural so that split(len(parts)) returns them.

    The last entry seeds the value; earlier entries are pushed on in
    reverse so the first entry ends up on top.
    """
    if not parts:
        raise ValueError("join needs at least one entry")
    value = parts[-1]
    if value < 0:
        raise ValueError("entries must be non-negative integers")
    for a in reversed(parts[:-1]):
        value = rs_pair(value, a)
    return value
