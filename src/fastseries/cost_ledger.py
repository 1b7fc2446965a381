"""Deterministic accounting of DFT events and scalar work, with stage reports.

Unit convention: relative to a block size ``k``, a DFT event of order ``q*k``
costs ``q`` units, so one unit is one order-k transform.  Multiplication in
the transform model costs six units of the doubled length, so totals can also
be read in multiplication units by dividing by six.  High-level stage budgets
are quoted per ``m/k``, i.e. in units of a hypothetical order-m transform.

A ledger is an explicitly passed recording context; nothing here is global.
Recording is meant to happen on a single thread per ledger.  A stage
entered through ``CostLedger.stage`` shows in the reports even when it
records no event.  ``ledger=None`` counts nothing, at every layer: the
algorithms record only through ``in_stage``, ``tally`` and ``record_dfts``
below, so a report needs a ``CostLedger`` handed in at the top.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

# Stage constants the algorithms are expected to approach for large m/k.
EXPECTED_STAGE_UNITS: dict[str, float] = {
    "exp.stage1": 13.0,
    "exp.log": 6.0,
    "exp.final": 4.0,
    "pow.s.first": 10.5,
    "pow.s.second": 10.0,
    "pow.f": 10.0,
    "pow.log": 6.0,
    "pow.final": 4.0,
}

# Stages excluded from main-term budget checks (baseline prefix computations).
BOOTSTRAP_PREFIX = "bootstrap."

# Label used for the boundary inverse inside the block middle product.  It is
# tagged separately because an order-2k inverse would suffice there; reports
# show both readings.
BOUNDARY_INVERSE_LABEL = "u-boundary"


@dataclass(frozen=True)
class DftEvent:
    order: int
    stage: str
    label: str


@dataclass
class StageBudget:
    """Measured units for one stage next to the constant it should approach."""

    stage: str
    expected: float | None
    units: Fraction
    per_mk: float
    events: int


class CostLedger:
    """Append-only record of DFT events plus coarse scalar-operation counters."""

    def __init__(self):
        self.events: list[DftEvent] = []
        self.scalar: dict[str, int] = {}
        self._stage_stack: list[str] = []
        self._touched: list[str] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, tag: str):
        """Scope all events recorded inside to the given stage tag."""
        self._stage_stack.append(tag)
        if tag not in self._touched:
            self._touched.append(tag)
        try:
            yield self
        finally:
            self._stage_stack.pop()

    def record_dfts(self, orders, count: int, label: str | None = None):
        """Record ``count`` repetitions of the event group ``orders`` (one
        event per order, in that order) under the current stage, as
        ``count`` separate transforms of one batch would have."""
        stage = self._stage_stack[-1] if self._stage_stack else ""
        group = [DftEvent(int(order), stage, label or "") for order in orders]
        self.events.extend(group * int(count))

    def add_scalar(self, kind: str, count: int):
        self.scalar[kind] = self.scalar.get(kind, 0) + int(count)

    # -- aggregation ---------------------------------------------------------

    def _select(self, stage: str | None, label: str | None) -> list[DftEvent]:
        """Events of the given stage and label (any when None)."""
        return [ev for ev in self.events
                if (stage is None or ev.stage == stage) and (label is None or ev.label == label)]

    def units_for(self, k: int, stage: str | None = None, label: str | None = None) -> Fraction:
        """Total units relative to block size k over matching events."""
        return Fraction(sum(ev.order for ev in self._select(stage, label)), k)

    def units_by_stage(self, k: int) -> dict[str, Fraction]:
        tags = dict.fromkeys([ev.stage for ev in self.events] + self._touched)
        return {tag: self.units_for(k, stage=tag) for tag in tags}

    def units_total(self, k: int, include_bootstrap: bool = True) -> Fraction:
        return Fraction(sum(ev.order for ev in self.events
                            if include_bootstrap or not ev.stage.startswith(BOOTSTRAP_PREFIX)), k)

    def event_count(self, stage: str | None = None, label: str | None = None) -> int:
        return len(self._select(stage, label))


def in_stage(ledger, tag: str | None):
    """The ledger's own ``stage(tag)``; a context changing nothing without a
    ledger or a tag."""
    return contextlib.nullcontext() if ledger is None or tag is None else ledger.stage(tag)


def tally(ledger, **counts):
    """Add the scalar counts, in argument order; nothing without a ledger."""
    if ledger is not None:
        for kind, count in counts.items():
            ledger.add_scalar(kind, count)


def record_dfts(ledger, orders, count, label):
    """``ledger.record_dfts``; nothing without a ledger."""
    if ledger is not None:
        ledger.record_dfts(orders, count, label=label)


def stage_table(ledger: CostLedger, plan) -> list[StageBudget]:
    """Per-stage measured units normalized by m/k, next to the expected constants."""
    mk = plan.ratio
    rows = []
    for tag, units in sorted(ledger.units_by_stage(plan.k).items()):
        rows.append(
            StageBudget(
                stage=tag,
                expected=EXPECTED_STAGE_UNITS.get(tag),
                units=units,
                per_mk=float(units / mk),
                events=ledger.event_count(stage=tag),
            )
        )
    return rows


def main_term_units(ledger: CostLedger, k: int) -> Fraction:
    """Units excluding bootstrap stages (the baseline prefix work)."""
    return ledger.units_total(k, include_bootstrap=False)


def _fmt(x) -> str:
    return format(float(x), ".6g")


def report_text(ledger: CostLedger, plan) -> str:
    """Human-readable budget table: one stage per line."""
    mk = plan.ratio
    lines = [
        f"plan k={plan.k} n={plan.n} m={plan.m} target={plan.target} m/k={_fmt(mk)}",
        f"{'stage':<16} {'expected':>9} {'per-mk':>9} {'units':>9} {'events':>7}",
    ]
    for row in stage_table(ledger, plan):
        exp = _fmt(row.expected) if row.expected is not None else "-"
        lines.append(
            f"{row.stage:<16} {exp:>9} {_fmt(row.per_mk):>9} {_fmt(row.units):>9} {row.events:>7}"
        )
    main = main_term_units(ledger, plan.k)
    lines.append(f"total (main term) units={_fmt(main)} per-mk={_fmt(main / mk)}")
    bnd = ledger.units_for(plan.k, label=BOUNDARY_INVERSE_LABEL)
    if bnd:
        lines.append(
            f"boundary inverses counted at 3 units = {_fmt(bnd)}; at 2k they would be {_fmt(bnd * Fraction(2, 3))}"
        )
    for kind in sorted(ledger.scalar):
        lines.append(f"scalar {kind}={ledger.scalar[kind]}")
    return "\n".join(lines) + "\n"


def report_kv(ledger: CostLedger, plan) -> str:
    """Machine-readable key=value form of the same report."""
    mk = plan.ratio
    lines = [
        f"plan.k={plan.k}",
        f"plan.n={plan.n}",
        f"plan.m={plan.m}",
        f"plan.target={plan.target}",
        f"plan.mk={_fmt(mk)}",
    ]
    for row in stage_table(ledger, plan):
        tag = row.stage
        if row.expected is not None:
            lines.append(f"stage.{tag}.expected={_fmt(row.expected)}")
        lines.append(f"stage.{tag}.units={_fmt(row.units)}")
        lines.append(f"stage.{tag}.per_mk={_fmt(row.per_mk)}")
        lines.append(f"stage.{tag}.events={row.events}")
    main = main_term_units(ledger, plan.k)
    lines.append(f"total.main.units={_fmt(main)}")
    lines.append(f"total.main.per_mk={_fmt(main / mk)}")
    bnd = ledger.units_for(plan.k, label=BOUNDARY_INVERSE_LABEL)
    lines.append(f"note.boundary_inverse.units={_fmt(bnd)}")
    lines.append(f"note.boundary_inverse.units_if_2k={_fmt(bnd * Fraction(2, 3))}")
    for kind in sorted(ledger.scalar):
        lines.append(f"scalar.{kind}={ledger.scalar[kind]}")
    return "\n".join(lines) + "\n"
