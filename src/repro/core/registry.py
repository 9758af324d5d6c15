"""Pluggable mechanism registry: allocation mechanisms as strategy objects.

Historically every consumer of "a mechanism" kept its own hard-coded
name table — the dynamic controller's if/elif chain, the CLI's static
``choices`` tuples, the shard coordinator's ``ref``-only gate.  Adding a
mechanism meant touching all of them in lock-step.  This module makes
mechanisms first-class: each is a :class:`Mechanism` strategy object
with a uniform ``solve(problem, context) -> Allocation`` interface,
capability flags, optional *persistent per-agent state* carried across
epochs, and serializable state for checkpoint/restore — registered by
name in one :class:`MechanismRegistry` that the controller, the serve
tier, the shard coordinator, and the CLI all resolve through.

Capability flags (class attributes, filterable via
:meth:`MechanismRegistry.names`):

``fast_path``
    Closed form, O(N·R); the controller counts these under
    ``repro_solver_fast_path_total``.
``warm_startable``
    SLSQP-backed; accepts the previous epoch's enforced shares as a
    warm start (``repro_solver_warm_starts_total{outcome=hit|miss}``).
``stateful``
    Carries per-agent state across epochs; the controller calls
    :meth:`Mechanism.observe` after enforcement and
    :meth:`Mechanism.forget_agent` on departure.
``controller``
    Usable by the closed-loop controller (``repro dynamic`` /
    ``repro serve``).
``one_shot``
    Meaningful as a single static solve (``repro allocate`` /
    ``repro cosim``); stateful mechanisms that need history opt out.
``hierarchical``
    Composes with the Eq. 13 capacity split, so the shard coordinator
    may run it inside cells (``repro serve --cells N``).

The :class:`CreditMechanism` is the temporal-fairness extension from
the REF authors' follow-up (*Credit Fairness: Online Fairness In
Shared Resource Pools*): agents bank credit when an epoch gives them
less than their ``C/N`` entitlement and spend it to bias later epochs,
so sharing incentives hold over *horizons* (windows of epochs) even
where a single epoch violates them.  See ``docs/mechanisms.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

import numpy as np

from ..obs import MetricsRegistry, Series
from .mechanism import (
    Allocation,
    AllocationProblem,
    proportional_elasticity,
    proportional_split,
)

__all__ = [
    "Mechanism",
    "MechanismRegistry",
    "SolveContext",
    "CreditMechanism",
    "MECHANISM_REGISTRY",
    "register_mechanism",
    "create_mechanism",
    "mechanism_names",
    "cli_mechanism_names",
    "controller_mechanism_names",
    "hierarchical_mechanism_names",
]

#: Event tuples returned by :meth:`Mechanism.observe`:
#: ``(kind, agent_or_None, detail)``.
ObserveEvent = Tuple[str, Optional[str], str]


@dataclass
class SolveContext:
    """Per-epoch inputs a mechanism may consume beyond the problem.

    ``warm_shares`` is the previous epoch's enforced ``(N, R)`` share
    matrix when the agent set is unchanged (else ``None``); ``metrics``
    is the caller's registry for solver telemetry.  One-shot callers
    (the CLI) pass no context at all.
    """

    epoch: int = 0
    warm_shares: Optional[np.ndarray] = None
    metrics: Optional[MetricsRegistry] = None


_FAST_PATH = Series(
    "counter",
    "repro_solver_fast_path_total",
    "Epoch allocations served by a closed-form mechanism.",
    ("mechanism",),
)
_WARM_STARTS = Series(
    "counter",
    "repro_solver_warm_starts_total",
    "SLSQP epoch solves by warm-start availability.",
    ("mechanism", "outcome"),
)


class Mechanism:
    """Base strategy object: one allocation mechanism, registered by name."""

    name: ClassVar[str] = ""
    #: Legend label in the paper's Figs. 13-14 (empty when not plotted).
    label: ClassVar[str] = ""
    fast_path: ClassVar[bool] = False
    warm_startable: ClassVar[bool] = False
    stateful: ClassVar[bool] = False
    controller: ClassVar[bool] = True
    one_shot: ClassVar[bool] = True
    hierarchical: ClassVar[bool] = False

    def solve(
        self, problem: AllocationProblem, context: Optional[SolveContext] = None
    ) -> Allocation:
        """Allocate; counts solver telemetry when the context carries metrics.

        The counting contract predates the registry and is relied on by
        dashboards and tests: closed-form solves increment
        ``repro_solver_fast_path_total{mechanism}``, SLSQP solves
        increment ``repro_solver_warm_starts_total{mechanism,outcome}``.
        """
        ctx = context if context is not None else SolveContext()
        if ctx.metrics is not None:
            if self.fast_path:
                ctx.metrics.child(_FAST_PATH, self.name).inc()
            elif self.warm_startable:
                outcome = "hit" if ctx.warm_shares is not None else "miss"
                ctx.metrics.child(_WARM_STARTS, self.name, outcome).inc()
        return self._solve(problem, ctx)

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        raise NotImplementedError

    # -- persistent state hooks (no-ops for stateless mechanisms) --------

    def observe(
        self,
        enforced: Allocation,
        epoch: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Tuple[ObserveEvent, ...]:
        """Feed back the epoch's *enforced* allocation; returns event tuples."""
        return ()

    def forget_agent(self, name: str) -> None:
        """Drop any per-agent state for a departed agent."""

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot for checkpoint/restore."""
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""


class MechanismRegistry:
    """Name -> :class:`Mechanism` subclass registry with flag filtering."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[Mechanism]] = {}

    def register(self, cls: Type[Mechanism]) -> Type[Mechanism]:
        """Class decorator: register ``cls`` under ``cls.name``."""
        if not cls.name:
            raise ValueError(f"{cls.__name__} must set a non-empty name")
        if cls.name in self._classes:
            raise ValueError(f"duplicate mechanism name {cls.name!r}")
        self._classes[cls.name] = cls
        return cls

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> Type[Mechanism]:
        try:
            return self._classes[name]
        except KeyError:
            raise ValueError(
                f"unknown mechanism {name!r}; expected one of "
                f"{sorted(self._classes)}"
            ) from None

    def create(self, name: str, **kwargs) -> Mechanism:
        """Instantiate a registered mechanism by name."""
        return self.get(name)(**kwargs)

    def names(self, **flags: bool) -> Tuple[str, ...]:
        """Sorted mechanism names whose capability flags match ``flags``.

        ``names(controller=True)`` lists everything the closed-loop
        controller may run; ``names()`` lists every registered name.
        """
        return tuple(
            sorted(
                name
                for name, cls in self._classes.items()
                if all(getattr(cls, flag) == wanted for flag, wanted in flags.items())
            )
        )


#: The process-wide registry every consumer resolves through.
MECHANISM_REGISTRY = MechanismRegistry()

register_mechanism = MECHANISM_REGISTRY.register


def create_mechanism(name: str, **kwargs) -> Mechanism:
    """Instantiate a mechanism from the process-wide registry."""
    return MECHANISM_REGISTRY.create(name, **kwargs)


def mechanism_names(**flags: bool) -> Tuple[str, ...]:
    """Registered mechanism names, optionally filtered by capability flags."""
    return MECHANISM_REGISTRY.names(**flags)


def cli_mechanism_names() -> Tuple[str, ...]:
    """Mechanisms meaningful as one-shot solves (``repro allocate``)."""
    return MECHANISM_REGISTRY.names(one_shot=True)


def controller_mechanism_names() -> Tuple[str, ...]:
    """Mechanisms the closed-loop controller accepts (``repro dynamic``)."""
    return MECHANISM_REGISTRY.names(controller=True)


def hierarchical_mechanism_names() -> Tuple[str, ...]:
    """Controller mechanisms that compose with the Eq. 13 capacity split."""
    return MECHANISM_REGISTRY.names(controller=True, hierarchical=True)


# ---------------------------------------------------------------------------
# The ported mechanisms.  Heavy solver imports stay inside _solve so that
# importing the registry (e.g. from the CLI's lazy choices) never drags
# SciPy in, and repro.core never imports repro.optimize at module level.
# ---------------------------------------------------------------------------


@register_mechanism
class RefMechanism(Mechanism):
    """Proportional elasticity (Eq. 13): the paper's closed form."""

    name = "ref"
    label = "Proportional Elasticity w/ Fairness"
    fast_path = True
    hierarchical = True

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        return proportional_elasticity(problem)


@register_mechanism
class MaxWelfareUnfairMechanism(Mechanism):
    """Unconstrained Nash-welfare optimum (closed form on raw elasticities)."""

    name = "max-welfare-unfair"
    label = "Max Welfare w/o Fairness"
    fast_path = True

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        from ..optimize.mechanisms import max_nash_welfare

        return max_nash_welfare(problem, fair=False)


@register_mechanism
class MaxWelfareFairMechanism(Mechanism):
    """Nash welfare subject to SI/EF/PE (Eq. 11), via log-space SLSQP."""

    name = "max-welfare-fair"
    label = "Max Welfare w/ Fairness"
    warm_startable = True

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        from ..optimize.mechanisms import max_nash_welfare

        return max_nash_welfare(
            problem,
            fair=True,
            initial_shares=context.warm_shares,
            stop_on_first_success=context.warm_shares is not None,
            metrics=context.metrics,
        )


@register_mechanism
class EqualSlowdownMechanism(Mechanism):
    """Max-min weighted utility (the equal-slowdown status quo, §4.5)."""

    name = "equal-slowdown"
    label = "Equal Slowdown w/o Fairness"
    warm_startable = True

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        from ..optimize.mechanisms import equal_slowdown

        return equal_slowdown(
            problem,
            initial_shares=context.warm_shares,
            stop_on_first_success=context.warm_shares is not None,
            metrics=context.metrics,
        )


@register_mechanism
class DrfMechanism(Mechanism):
    """Dominant-resource fairness on elasticity-derived demand vectors."""

    name = "drf"
    controller = False  # allocate-only: no epoch loop semantics

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        from ..optimize.drf import drf_allocation

        return drf_allocation(problem)


@register_mechanism
class EqualSplitFallbackMechanism(Mechanism):
    """The always-feasible last resort (``C / N`` to everyone).

    Not user-selectable (``controller=False``, ``one_shot=False``): the
    controller instantiates it directly when the configured mechanism
    raises.  The allocation keeps the historical ``equal_split_fallback``
    tag so event consumers and dashboards are unaffected.
    """

    name = "equal-split-fallback"
    controller = False
    one_shot = False

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        shares = np.tile(problem.equal_split, (problem.n_agents, 1))
        return Allocation(
            problem=problem, shares=shares, mechanism="equal_split_fallback"
        )


@register_mechanism
class CreditMechanism(Mechanism):
    """Credit-based temporal fairness on top of the Eq. 13 closed form.

    Every epoch each agent's *credit balance* per resource moves by the
    gap between its entitlement fraction (``1/N`` of capacity) and the
    fraction it actually received: under-served agents bank credit,
    over-served agents go into debt.  The next epoch's solve multiplies
    each re-scaled elasticity by ``exp(spend_rate * balance)`` and
    renormalizes per resource, so banked credit buys a larger share
    later while every single epoch stays exactly capacity-feasible.

    Balances are clipped to ``[-max_balance, +max_balance]`` (capacity
    fractions), which bounds both the drift and how hard one epoch can
    be biased; credit that would overflow the bank is forfeited (and
    counted).  Because enforced allocations partition capacity exactly,
    unclipped balance updates are zero-sum per resource.

    With no history the bias is ``exp(0) = 1`` everywhere, so the first
    epoch *is* the REF allocation; the mechanism inherits REF's per-epoch
    PE and trades per-epoch SI/EF for their windowed (horizon) forms —
    see :mod:`repro.experiments.credit_horizon` for the empirical check.
    """

    name = "credit"
    fast_path = True  # one O(N·R) reweighted Eq. 13 pass
    stateful = True
    one_shot = False  # needs history; a single solve is just REF
    hierarchical = True  # within-cell credit under the Eq. 13 split

    #: Fleet series, by the amount each mirrors.
    _METRICS = {
        "banked": Series(
            "counter",
            "repro_credit_banked_total",
            "Credit banked by under-served agents (capacity fractions).",
        ),
        "spent": Series(
            "counter",
            "repro_credit_spent_total",
            "Credit spent by over-served agents (capacity fractions).",
        ),
        "forfeited": Series(
            "counter",
            "repro_credit_forfeited_total",
            "Credit lost to the balance clip (capacity fractions).",
        ),
        "balance": Series(
            "histogram",
            "repro_credit_balance",
            "Every present agent's credit balance after each observe (capacity fractions).",
            ("resource",),
            buckets=tuple(k / 10 for k in range(-5, 6)),  # the default bank bound, in tenths
        ),
    }

    def __init__(self, spend_rate: float = 2.0, max_balance: float = 0.5):
        if spend_rate <= 0 or not np.isfinite(spend_rate):
            raise ValueError(f"spend_rate must be positive, got {spend_rate}")
        if max_balance <= 0 or not np.isfinite(max_balance):
            raise ValueError(f"max_balance must be positive, got {max_balance}")
        self.spend_rate = float(spend_rate)
        self.max_balance = float(max_balance)
        #: agent name -> (R,) balance vector in capacity fractions.
        self._balances: Dict[str, np.ndarray] = {}
        #: (problem, its agents' balances as one (N, R) array), until a
        #: balance changes; the solve and the observe of one tick share it.
        self._gathered: Optional[Tuple[AllocationProblem, np.ndarray]] = None

    def balance(self, name: str, n_resources: int = 2) -> np.ndarray:
        """The agent's current balance vector (zeros when unseen)."""
        stored = self._balances.get(name)
        if stored is None:
            return np.zeros(n_resources)
        return stored.copy()

    def _balance_matrix(self, problem: AllocationProblem) -> np.ndarray:
        """The problem's agents' balances, ``(N, R)`` in row order (zeros when unseen)."""
        gathered = self._gathered
        if gathered is not None and gathered[0] is problem:
            return gathered[1]
        zero = np.zeros(problem.n_resources)
        balances = np.array([self._balances.get(name, zero) for name in problem.names])
        self._gathered = (problem, balances)
        return balances

    def _weights(self, problem: AllocationProblem) -> np.ndarray:
        return np.exp(self.spend_rate * self._balance_matrix(problem))

    def _solve(self, problem: AllocationProblem, context: SolveContext) -> Allocation:
        alpha = problem.rescaled_alpha_matrix()
        alpha = np.where(np.isfinite(alpha) & (alpha > 0.0), alpha, 0.0)
        weights = self._weights(problem)
        # A resource nobody values is split by credit weight alone, so
        # banked credit is still honored (equal split when nobody holds
        # credit either).
        shares = proportional_split(alpha * weights, problem.capacity_vector, fallback=weights)
        return Allocation(problem=problem, shares=shares, mechanism="credit")

    def observe(
        self,
        enforced: Allocation,
        epoch: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Tuple[ObserveEvent, ...]:
        """Update balances from the gap between entitlement and receipt.

        One array pass for the whole fleet: ``delta`` row ``i`` is agent
        ``i``'s entitlement minus its received fraction per resource.
        """
        problem = enforced.problem
        names = problem.names
        delta = 1.0 / problem.n_agents - enforced.shares / problem.capacity_vector
        raw = self._balance_matrix(problem) + delta
        clipped = np.clip(raw, -self.max_balance, self.max_balance)
        forfeited = np.abs(raw - clipped).sum(axis=1)
        self._balances.update(zip(names, clipped))
        self._gathered = None
        if metrics is not None:
            self._export(metrics, problem, delta, forfeited, clipped)
        bound = f" at |balance| = {self.max_balance:g}"
        return tuple(
            ("credit_clipped", name, f"forfeited {amount:.3g}{bound}")
            for name, amount in zip(names, forfeited.tolist())
            if amount > 1e-12
        )

    def _export(
        self,
        metrics: MetricsRegistry,
        problem: AllocationProblem,
        delta: np.ndarray,
        forfeited: np.ndarray,
        clipped: np.ndarray,
    ) -> None:
        """Mirror one observe into the fleet's credit series.

        A counter appears the first epoch its fleet total is positive;
        each resource's balance histogram takes every agent's balance.
        """
        amounts = {
            "banked": delta[delta > 0].sum(),
            "spent": -delta[delta < 0].sum(),
            "forfeited": forfeited.sum(),
        }
        for key, amount in amounts.items():
            if amount > 0:
                metrics.child(self._METRICS[key]).inc(amount)
        balance = self._METRICS["balance"]
        for resource, column in zip(problem.resource_names, clipped.T):
            metrics.child(balance, resource).observe_many(column)

    def forget_agent(self, name: str) -> None:
        self._balances.pop(name, None)
        self._gathered = None

    def state_dict(self) -> Dict[str, Any]:
        return {
            "spend_rate": self.spend_rate,
            "max_balance": self.max_balance,
            "balances": {
                name: [float(v) for v in vector]
                for name, vector in sorted(self._balances.items())
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.spend_rate = float(state.get("spend_rate", self.spend_rate))
        self.max_balance = float(state.get("max_balance", self.max_balance))
        self._balances = {
            name: np.asarray(vector, dtype=float)
            for name, vector in state.get("balances", {}).items()
        }
        self._gathered = None
