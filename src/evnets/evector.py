"""Per-coordinate resolution vectors, with no numpy, so that the bound
calculators and the command line's parser load without it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ParamError

__all__ = ["EVector"]


@dataclass(frozen=True)
class EVector:
    """Per-coordinate resolution multiples e = (e_1, ..., e_s), every entry >= 1.

    Coordinate i only admits digit depths that are multiples of e_i. The
    classical single-resolution setting is e = (1, ..., 1).
    """

    e: tuple[int, ...]

    def __post_init__(self):
        e = tuple(int(v) for v in self.e)
        if len(e) == 0:
            raise ParamError("e-vector must have at least one entry")
        if any(v < 1 for v in e):
            raise ParamError(f"e-vector entries must be >= 1, got {e}")
        object.__setattr__(self, "e", e)

    @classmethod
    def coerce(cls, e: "EVector | Sequence[int]") -> "EVector":
        return e if isinstance(e, EVector) else cls(tuple(e))

    @property
    def s(self) -> int:
        return len(self.e)

    @property
    def is_sorted(self) -> bool:
        """True when e_1 <= ... <= e_s; bound formulas require sorted input."""
        return all(a <= b for a, b in zip(self.e, self.e[1:]))

    def sorted(self) -> tuple["EVector", tuple[int, ...]]:
        """Sorted copy plus the coordinate permutation producing it (stable)."""
        perm = tuple(sorted(range(len(self.e)), key=lambda i: (self.e[i], i)))
        return EVector(tuple(self.e[i] for i in perm)), perm

    def __iter__(self):
        return iter(self.e)

    def __len__(self) -> int:
        return len(self.e)

    def __getitem__(self, i):
        return self.e[i]
