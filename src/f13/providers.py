"""The analytic DerivativeProvider.

AnalyticLineProvider serves fields that vary along a single frame direction
with analytic derivative evaluators (the closed-form families; homogeneous
cosmologies with direction 0).  It is read-only and safe for concurrent
queries.  Gridded data is checked through the finite-difference jets of
``f13 residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import ConnectionState

__all__ = ["FieldLine", "AnalyticLineProvider"]


@dataclass(frozen=True)
class FieldLine:
    """A scalar field on the provider's line: value plus optional slopes."""

    value: Callable
    slope: Callable | None = None
    curvature: Callable | None = None


class AnalyticLineProvider:
    """Fields of one coordinate, e_dir = F(x) d/dx, other derivatives zero."""

    def __init__(
        self,
        fields: Mapping[str, FieldLine],
        connection: Callable,
        direction: int = 3,
        F: Callable = lambda x: 1.0,
        F_slope: Callable | None = None,
    ):
        if direction not in range(4):
            raise ValueError("direction must be a frame index 0..3")
        self._fields = dict(fields)
        self._connection = connection
        self._dir = direction
        self._F = F
        self._F_slope = F_slope

    def _line(self, field: str) -> FieldLine:
        try:
            return self._fields[field]
        except KeyError:
            raise ValueError(f"provider has no field {field!r}") from None

    def value(self, point, field):
        return float(self._line(field).value(point))

    def derivative(self, point, field, a):
        if a != self._dir:
            return 0.0
        line = self._line(field)
        if line.slope is None:
            raise ValueError(f"field {field!r} has no slope evaluator")
        return float(self._F(point)) * float(line.slope(point))

    def second_derivative(self, point, field, a, b):
        # e_b(field) is again a function of the line coordinate alone, so
        # only the (dir, dir) pair survives
        if a != self._dir or b != self._dir:
            return 0.0
        line = self._line(field)
        if line.slope is None or line.curvature is None or self._F_slope is None:
            raise ValueError(
                f"second derivatives need slope, curvature and F' for {field!r}"
            )
        F = float(self._F(point))
        return F * (
            float(self._F_slope(point)) * float(line.slope(point))
            + F * float(line.curvature(point))
        )

    def connection(self, point) -> ConnectionState:
        return self._connection(point)
