"""Runtime invariant checking: a sanitizer sink for the paper's rules.

:class:`InvariantSink` attaches to the event bus like any other sink and
validates, per quantum, the scheduling contract the paper specifies:

* **no-third-core** — a swap exchanges exactly the two threads' cores
  ("simply manipulates thread-to-core affinity mappings", §III-E): each
  destination must be the partner's previous core.
* **cooldown** — "Dike does not swap a thread in consecutive quanta"
  (§III-D): a tid may not appear in swaps of adjacent quanta.
* **swap-budget** — at most ``swapSize`` threads migrate per quantum
  (§III-F); the budget follows :class:`~repro.obs.events.OptimizerStep`
  re-tunings.
* **profit-arithmetic** — every :class:`~repro.obs.events.ProfitEvaluated`
  must satisfy Eqns 1–3: ``profit = CoreBW(dest) − rate − overhead`` per
  member and ``totalProfit = profit_l + profit_h``.
* **permutation** — quantum-to-quantum placement must be explained by the
  recorded swaps and arrivals alone: threads present in consecutive
  quanta sit exactly where the previous assignment (permuted by the
  executed swaps) puts them.

Violations are recorded (``violations``/``summary()``) or raised
immediately (``strict=True``) as :class:`InvariantError`.  Not every rule
applies to every policy — DIO swaps everything each interval (no cooldown,
no budget) and CFS issues unilateral ``Move`` actions that legitimately
break the permutation rule — so the checked subset is selectable via
``rules=`` and :meth:`InvariantSink.for_policy` encodes the per-policy
contract the campaign layer attaches continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.events import (
    ArrivalPlaced,
    Event,
    OptimizerStep,
    ProfitEvaluated,
    QuantumEnd,
    SwapExecuted,
)

__all__ = [
    "InvariantViolation",
    "InvariantError",
    "InvariantSink",
    "RULES",
]

#: Every rule the sink can report, for summaries and tests.
RULES = (
    "no-third-core",
    "cooldown",
    "swap-budget",
    "profit-arithmetic",
    "permutation",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken rule, anchored to the quantum where it was detected."""

    quantum: int
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[q={self.quantum}] {self.rule}: {self.message}"


class InvariantError(Exception):
    """Raised in strict mode on the first violation."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class InvariantSink:
    """Stateful per-quantum validator of the scheduling contract.

    Parameters
    ----------
    swap_size:
        Initial swap budget in *threads* per quantum (the paper's
        ``swapSize``, default 8); updated by ``OptimizerStep`` events.
        ``None`` disables the budget rule (e.g. for DIO, which swaps
        everything by design).
    strict:
        Raise :class:`InvariantError` on the first violation instead of
        recording it.
    profit_tolerance:
        Relative tolerance of the Eqn 1–3 arithmetic re-derivation.
    rules:
        The subset of :data:`RULES` to enforce (default: all).  Use
        :meth:`for_policy` to get the subset that encodes a given
        policy's contract.
    """

    def __init__(
        self,
        swap_size: int | None = 8,
        strict: bool = False,
        profit_tolerance: float = 1e-6,
        rules: Sequence[str] | None = None,
    ) -> None:
        self.rules = tuple(rules) if rules is not None else RULES
        unknown = set(self.rules) - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown invariant rules {sorted(unknown)}; known: {RULES}"
            )
        self.swap_size = swap_size
        self.strict = strict
        self.profit_tolerance = profit_tolerance
        self.violations: list[InvariantViolation] = []
        self.n_events = 0
        #: tid -> vcore as of the last known placement
        self._placement: dict[int, int] = {}
        #: tid -> quantum of that thread's most recent swap
        self._last_swap_quantum: dict[int, int] = {}
        #: threads swapped per quantum index (for the budget rule)
        self._swapped_in_quantum: dict[int, set[int]] = {}
        self._have_placement = False

    @classmethod
    def for_policy(
        cls,
        policy: str,
        swap_size: int | None = None,
        strict: bool = False,
    ) -> "InvariantSink":
        """The sink encoding ``policy``'s contract.

        The contract is the resolved :class:`~repro.policies.PolicySpec`'s
        ``invariants`` tuple; unknown policy names raise
        :class:`~repro.policies.UnknownPolicyError` — a typo'd ``--policy``
        must fail loudly, not run with a silently weakened contract.

        ``swap_size`` overrides the initial budget for Dike-family
        policies (the paper's default 8 otherwise); non-Dike policies
        have no budget rule, so their budget is always ``None``.
        """
        from repro.policies import REGISTRY  # lazy: avoids import cycle

        rules = REGISTRY.get(policy).invariants
        budget: int | None = None
        if "swap-budget" in rules:
            budget = swap_size if swap_size is not None else 8
        return cls(swap_size=budget, strict=strict, rules=rules)

    # ------------------------------------------------------------ sink API

    def accept(self, event: Event) -> None:
        self.n_events += 1
        if isinstance(event, QuantumEnd):
            self._check_quantum_end(event)
        elif isinstance(event, SwapExecuted):
            self._check_swap(event)
        elif isinstance(event, ProfitEvaluated):
            self._check_profit(event)
        elif isinstance(event, OptimizerStep):
            if self.swap_size is not None:
                self.swap_size = event.new_swap_size
        elif isinstance(event, ArrivalPlaced):
            for tid, vcore in zip(event.tids, event.vcores):
                self._placement[tid] = vcore

    # ------------------------------------------------------------- checks

    def _check_quantum_end(self, event: QuantumEnd) -> None:
        if self._have_placement and "permutation" in self.rules:
            # Placement must equal the previous assignment permuted by the
            # swaps/arrivals recorded since (finished threads drop out).
            for tid, vcore in event.assignments.items():
                expected = self._placement.get(tid)
                if expected is not None and expected != vcore:
                    self._report(
                        event.quantum,
                        "permutation",
                        f"t{tid} on vcore {vcore} but no recorded action "
                        f"moved it from vcore {expected}",
                    )
        self._placement = dict(event.assignments)
        self._have_placement = True

    def _check_swap(self, event: SwapExecuted) -> None:
        prev_a = self._placement.get(event.tid_a)
        prev_b = self._placement.get(event.tid_b)
        if "no-third-core" in self.rules and (
            prev_a is not None and prev_b is not None and not (
                event.vcore_a == prev_b and event.vcore_b == prev_a
            )
        ):
            self._report(
                event.quantum,
                "no-third-core",
                f"swap t{event.tid_a}(v{prev_a})<->t{event.tid_b}(v{prev_b}) "
                f"landed on (v{event.vcore_a}, v{event.vcore_b}) — a swap "
                "must exchange exactly the pair's cores",
            )
        for tid in (event.tid_a, event.tid_b):
            last = self._last_swap_quantum.get(tid)
            if (
                "cooldown" in self.rules
                and last is not None
                and event.quantum - last == 1
            ):
                self._report(
                    event.quantum,
                    "cooldown",
                    f"t{tid} swapped in consecutive quanta "
                    f"({last} and {event.quantum})",
                )
            self._last_swap_quantum[tid] = event.quantum
        swapped = self._swapped_in_quantum.setdefault(event.quantum, set())
        swapped.update((event.tid_a, event.tid_b))
        if (
            "swap-budget" in self.rules
            and self.swap_size is not None
            and len(swapped) > self.swap_size
        ):
            self._report(
                event.quantum,
                "swap-budget",
                f"{len(swapped)} threads migrated in quantum "
                f"{event.quantum}, budget is swapSize={self.swap_size}",
            )
        # Apply the swap so subsequent checks see the new placement.
        self._placement[event.tid_a] = event.vcore_a
        self._placement[event.tid_b] = event.vcore_b
        # Only the current boundary's budget set is live; drop older ones.
        for q in [q for q in self._swapped_in_quantum if q < event.quantum]:
            del self._swapped_in_quantum[q]

    def _check_profit(self, event: ProfitEvaluated) -> None:
        if "profit-arithmetic" not in self.rules:
            return
        tol = self.profit_tolerance

        def off(actual: float, expected: float) -> bool:
            scale = max(abs(actual), abs(expected), 1.0)
            return abs(actual - expected) > tol * scale

        checks = (
            ("profit_l", event.profit_l,
             event.bw_dest_l - event.rate_l - event.overhead_l),
            ("profit_h", event.profit_h,
             event.bw_dest_h - event.rate_h - event.overhead_h),
            ("total_profit", event.total_profit,
             event.profit_l + event.profit_h),
        )
        for name, actual, expected in checks:
            if off(actual, expected):
                self._report(
                    event.quantum,
                    "profit-arithmetic",
                    f"pair ⟨t{event.t_l}, t{event.t_h}⟩: {name}={actual!r} "
                    f"inconsistent with Eqns 1–3 (expected {expected!r})",
                )

    # ------------------------------------------------------------ reports

    def _report(self, quantum: int, rule: str, message: str) -> None:
        violation = InvariantViolation(quantum=quantum, rule=rule, message=message)
        if self.strict:
            raise InvariantError(violation)
        self.violations.append(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, int]:
        """Violation count per active rule (zeros included)."""
        out = {rule: 0 for rule in self.rules}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def report(self) -> dict[str, object]:
        """JSON-able digest for ``RunResult.info["invariants"]`` and
        campaign telemetry: total + per-rule counts + events checked."""
        return {
            "total": len(self.violations),
            "checked": self.n_events,
            "rules": list(self.rules),
            "by_rule": self.summary(),
        }
