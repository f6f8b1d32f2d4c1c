"""Deterministic supply of fresh values for name-creation variables.

A fresh variable must bind to a value that is globally new: outside the
active domain of the database and not carried by any token.  The supply is
organized as one deterministic stream per data type; policies differ only
in how many candidates from the stream a single firing may branch over.

* ``recycling`` — exactly one candidate, the first stream value not in
  use.  Values freed later become available again, which keeps state
  spaces of bounded systems finite.
* ``bounded(k)`` — the first ``k`` unused stream values, as alternative
  bindings.
* ``unbounded`` — conceptually the whole unused stream.  Single firings
  are fine, but exhaustive exploration is refused up front because the
  branching is infinite.
"""

from __future__ import annotations

from decimal import Decimal

from .record import Record
from .relational import ContractError, DataType, Value, ValidationError, make_value

__all__ = ["FreshPolicy", "RECYCLING", "BOUNDED", "UNBOUNDED", "stream_value"]

RECYCLING = "recycling"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"


def stream_value(dtype: DataType, index: int) -> Value:
    """The ``index``-th (1-based) element of the type's fresh stream."""
    if index < 1:
        raise ContractError("stream positions are 1-based")
    if dtype.kind == "int":
        return make_value(dtype, index)
    if dtype.kind == "real":
        return make_value(dtype, Decimal(index))
    return make_value(dtype, f"v{index}")


class FreshPolicy(Record):
    mode: str = RECYCLING
    width: int = 1  # only meaningful for bounded

    def __post_init__(self):
        if self.mode not in (RECYCLING, BOUNDED, UNBOUNDED):
            raise ValidationError(f"unknown freshness mode {self.mode!r}")
        if self.mode == BOUNDED and self.width < 1:
            raise ValidationError("bounded freshness needs a positive width")

    @property
    def finite_branching(self) -> bool:
        return self.mode != UNBOUNDED

    def candidates(self, dtype: DataType, used: set) -> list:
        """Candidate fresh values for one variable of ``dtype``, given the
        set of values currently in use (active domain plus token payloads).
        Deterministic: depends only on ``used``, not on history."""
        want = self.width if self.mode == BOUNDED else 1
        out = []
        index = 1
        # `used` is finite, so the scan terminates.
        while len(out) < want:
            v = stream_value(dtype, index)
            if v not in used:
                out.append(v)
            index += 1
        return out

    def describe(self) -> str:
        if self.mode == BOUNDED:
            return f"bounded:{self.width}"
        return self.mode

    @staticmethod
    def parse(text: str) -> "FreshPolicy":
        text = text.strip()
        if text == RECYCLING:
            return FreshPolicy(RECYCLING)
        if text == UNBOUNDED:
            return FreshPolicy(UNBOUNDED)
        if text.startswith("bounded"):
            sep = text[len("bounded"):]
            width = sep[1:].strip()
            if sep[:1] in (":", " ") and width.isascii() and width.isdigit():
                return FreshPolicy(BOUNDED, int(width))
        raise ValidationError(
            f"cannot parse freshness policy {text!r}; expected "
            f"'recycling', 'unbounded' or 'bounded:<k>'"
        )
