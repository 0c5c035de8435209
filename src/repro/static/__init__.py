"""Static enumeration tier (tier 0 of the tiered checker).

Decides race and OOB queries over the engine's one execution record
by exhaustive evaluation over the bounded thread box, pair by pair and
without a solver. A guard that reads input or havoc'd values over a
pure offset is enumerated through its UF-free projection, which can
only prove a pair race-free. A pair outside the decidable fragment —
symbolic scalar inputs, input or havoc'd reads in an address, a
colliding projected guard, domains past the caps — falls back to the
solver on its own; a record that is not enumerable at all
(divergent flows, atomics, assertions, budgets, ...) is solved
throughout. Exact in both directions: an enumerated verdict is the one
the solver would give (the differential suite in ``tests/static/``
enforces exactly that).
"""
from .checker import StaticAdjudicator, StaticUnknown
from .tier import prescreen, run_static_tier, static_reason

__all__ = [
    "StaticAdjudicator", "StaticUnknown", "prescreen", "run_static_tier",
    "static_reason",
]
