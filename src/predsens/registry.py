"""Named builtin stacks shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import casestudies
from .bilevel import as_system_stack
from .model import Array, SystemStack, linear_stack


@dataclass(frozen=True)
class BuiltinStack:
    factory: Callable[[], SystemStack]
    default_x0: tuple[float, ...]
    equilibrium: tuple[float, ...]


def _r2() -> SystemStack:
    return linear_stack([1, 1], [[[[1.0]], [[-2.0]]], [[[0.5]], [[-0.5]]]])


def _tracking() -> SystemStack:
    return linear_stack([1, 1], [[[[-1.0]], [[0.0]]], [[[1.0]], [[-1.0]]]])


def _linear3() -> SystemStack:
    return linear_stack([1, 1, 1], [
        [[[-1.0]], [[1.0]], [[1.0]]],
        [[[1.0]], [[-2.0]], [[1.0]]],
        [[[1.0]], [[1.0]], [[-3.0]]],
    ])


def _cascade() -> SystemStack:
    return casestudies.cascade_stack(casestudies.CascadeParams(), x1_ref=1.0)


def _rlc() -> SystemStack:
    return casestudies.rlc_stack(casestudies.RlcParams())


def _bilevel_example() -> SystemStack:
    return as_system_stack(casestudies.bilevel_example_problem())


BUILTIN_STACKS: dict[str, BuiltinStack] = {
    "r2": BuiltinStack(_r2, (1.0, 0.0), (0.0, 0.0)),
    "tracking": BuiltinStack(_tracking, (1.0, 1.0), (0.0, 0.0)),
    "linear3": BuiltinStack(_linear3, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    "cascade": BuiltinStack(_cascade, (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    "rlc": BuiltinStack(_rlc, tuple([0.0] * 8),
                        tuple(casestudies.rlc_equilibrium(casestudies.RlcParams()))),
    "bilevel-example": BuiltinStack(_bilevel_example, (2.0, 2.0), (0.0, 0.0)),
}


def get_stack(name: str) -> SystemStack:
    try:
        return BUILTIN_STACKS[name].factory()
    except KeyError:
        raise KeyError(f"unknown builtin stack {name!r}; "
                       f"choose from {sorted(BUILTIN_STACKS)}") from None


def default_x0(name: str) -> Array:
    return np.asarray(BUILTIN_STACKS[name].default_x0, dtype=float)


def equilibrium(name: str) -> Array:
    return np.asarray(BUILTIN_STACKS[name].equilibrium, dtype=float)
