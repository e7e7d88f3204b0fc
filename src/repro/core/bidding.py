"""Bidding policies: reactive versus proactive (Section 3.1).

Both policies hold a spot server while it is cheap and run on-demand while
it is not; they differ in *who initiates* the transition off spot:

* **Reactive** bids exactly the on-demand price (``p_b = p_on``). The cloud
  platform revokes the server the moment the spot price exceeds the
  on-demand price, so every transition off spot is a *forced* migration
  executed inside the revocation grace window.
* **Proactive** bids ``k`` times the on-demand price (``k = 4``, the
  provider's cap). The scheduler watches the price itself and *voluntarily*
  migrates — with all the time it needs — when the spot price exceeds the
  on-demand price at a billing boundary. Only a sharp spike past ``k * p_on``
  (before a planned migration can start or finish) forces a migration.

Because spot hours are billed at the start-of-hour price, a mid-hour price
excursion costs a proactive bidder nothing until the next boundary — which
is also why the policy evaluates planned migrations "near the end of a
billing period" rather than instantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.cloud.spot_market import SpotMarket
from repro.errors import ConfigurationError

__all__ = ["BiddingPolicy", "ReactiveBidding", "ProactiveBidding"]


class BiddingPolicy(Protocol):
    """What the scheduler needs from a bidding policy.

    Policies may additionally opt into the vectorized batch engine by
    setting ``vectorizable = True`` and providing
    ``planned_migration_mask(prices, od)`` / ``reverse_migration_mask``
    array twins of the scalar predicates. The contract is strict: the
    bid must be time-invariant within a run and each mask must perform
    the *same float comparisons* as its scalar twin, elementwise. The
    engine treats a missing flag as False and falls back per-event.
    """

    name: str

    def bid_price(self, market: SpotMarket, t: float = 0.0) -> float:
        """The maximum hourly price to bid in ``market`` at time ``t``.

        Static policies ignore ``t``; adaptive ones inspect the market's
        trailing price history up to that instant.
        """
        ...

    def wants_planned_migration(self, spot_price: float, on_demand_price: float) -> bool:
        """Leave the spot market voluntarily at the next boundary?"""
        ...

    def wants_reverse_migration(self, spot_price: float, on_demand_price: float) -> bool:
        """Return to the spot market at the next boundary?"""
        ...

    def explain_bid(self, market: SpotMarket, t: float = 0.0) -> str:
        """One-line rationale for the bid (attached to trace events)."""
        ...

    def dynamics_signature(self, od_prices) -> object | None:
        """Optional: a hashable token identifying the policy's *dynamics*.

        Two policies with equal signatures place the identical bid in
        every market (given the per-market on-demand prices) and apply
        identical migration predicates — so over the same trace catalog,
        strategy, and seed they drive byte-identical runs. The batch
        executor uses this to run one representative of a
        dynamics-identical group and clone the rest. Return ``None`` (or
        omit the method) for stateful or time-varying policies.
        """
        ...


@dataclass(frozen=True)
class ReactiveBidding:
    """Bid the on-demand price; let the provider's revocation do the work."""

    name: str = "reactive"

    #: The vector engine may batch runs under this policy: the bid is
    #: time-invariant and both ``wants_*`` predicates are pure functions
    #: of their arguments (mirrored below as array masks).
    vectorizable = True

    def bid_price(self, market: SpotMarket, t: float = 0.0) -> float:
        return market.on_demand_price

    def wants_planned_migration(self, spot_price: float, on_demand_price: float) -> bool:
        # The bid equals the on-demand price, so the price can never sit
        # strictly between bid and on-demand: planned migrations never fire.
        return False

    def wants_reverse_migration(self, spot_price: float, on_demand_price: float) -> bool:
        return spot_price <= on_demand_price

    def planned_migration_mask(self, spot_prices, on_demand_price: float):
        """Array form of :meth:`wants_planned_migration` (always False)."""
        import numpy as np

        return np.zeros(np.shape(spot_prices), dtype=bool)

    def reverse_migration_mask(self, spot_prices, on_demand_price: float):
        """Array form of :meth:`wants_reverse_migration` — identical
        comparison, elementwise."""
        return spot_prices <= on_demand_price

    def explain_bid(self, market: SpotMarket, t: float = 0.0) -> str:
        return f"match on-demand ${market.on_demand_price:.4f}; platform revokes on crossing"

    def dynamics_signature(self, od_prices) -> tuple:
        """Reactive dynamics depend only on the on-demand prices (the bid
        *is* the on-demand price); the name rides along so default result
        labels stay distinct across differently-named instances."""
        return (self.name, "reactive")

    def dynamics_components(self, od_prices) -> dict:
        """Structured split of :meth:`dynamics_signature` by which part of
        the scheduler consumes each parameter, so capability-aware dedupe
        (:func:`repro.runtime.fused.dedupe_key`) can project out
        components a strategy never evaluates. ``planned`` is ``None``:
        the reactive planned predicate is constant-False. The
        ``*_thresholds`` entries are the numeric per-market thresholds
        each predicate compares trace prices against (``None`` for a
        constant predicate), computed with the same float expressions
        the scalar predicates use."""
        ods = tuple(float(od) for od in od_prices)
        return {
            "name": self.name,
            "bids": ods,
            "planned": None,
            "planned_thresholds": None,
            "reverse": ("od",),
            "reverse_thresholds": ods,
        }

    @property
    def is_proactive(self) -> bool:
        return False


@dataclass(frozen=True)
class ProactiveBidding:
    """Bid ``k * p_on`` and migrate voluntarily when the price passes p_on.

    ``reverse_threshold_frac`` adds a little hysteresis on the way back to
    spot: a reverse migration is only worthwhile when the spot price is
    comfortably below on-demand, otherwise small oscillations around p_on
    would churn migrations.
    """

    k: float = 4.0
    reverse_threshold_frac: float = 0.9
    name: str = "proactive"

    #: Static bid, pure predicates: safe for the vector engine to batch.
    vectorizable = True

    def __post_init__(self) -> None:
        if self.k <= 1.0:
            raise ConfigurationError(f"proactive bid multiplier must exceed 1, got {self.k}")
        if not 0 < self.reverse_threshold_frac <= 1.0:
            raise ConfigurationError("reverse threshold must be in (0, 1]")

    def bid_price(self, market: SpotMarket, t: float = 0.0) -> float:
        return min(self.k * market.on_demand_price, market.bid_cap)

    def wants_planned_migration(self, spot_price: float, on_demand_price: float) -> bool:
        return spot_price > on_demand_price

    def wants_reverse_migration(self, spot_price: float, on_demand_price: float) -> bool:
        return spot_price <= on_demand_price * self.reverse_threshold_frac

    def planned_migration_mask(self, spot_prices, on_demand_price: float):
        """Array form of :meth:`wants_planned_migration`: same strict
        comparison against the same scalar threshold, elementwise."""
        return spot_prices > on_demand_price

    def reverse_migration_mask(self, spot_prices, on_demand_price: float):
        """Array form of :meth:`wants_reverse_migration`. The threshold
        product is computed once as the identical scalar multiplication
        the scalar predicate performs, so the comparisons are bit-equal."""
        return spot_prices <= on_demand_price * self.reverse_threshold_frac

    def explain_bid(self, market: SpotMarket, t: float = 0.0) -> str:
        capped = self.k * market.on_demand_price > market.bid_cap
        return (
            f"{self.k:g} x on-demand ${market.on_demand_price:.4f}"
            + ("; clipped to provider cap" if capped else "; scheduler exits voluntarily")
        )

    def dynamics_signature(self, od_prices) -> tuple:
        """The *effective* bids plus the reverse threshold.

        Bids are clamped at the provider cap (``BID_CAP_MULTIPLIER *
        p_on``), so every ``k`` at or above the cap multiplier yields the
        same bid — and therefore, with equal thresholds, byte-identical
        dynamics. The signature exposes exactly that equivalence: the
        clamped bid per market, computed with the same float ops as
        :meth:`bid_price`.
        """
        from repro.cloud.spot_market import BID_CAP_MULTIPLIER

        bids = tuple(
            min(self.k * float(od), BID_CAP_MULTIPLIER * float(od))
            for od in od_prices
        )
        return (self.name, "proactive", bids, self.reverse_threshold_frac)

    def dynamics_components(self, od_prices) -> dict:
        """Structured split of :meth:`dynamics_signature` (see
        :meth:`ReactiveBidding.dynamics_components`). The planned
        threshold is the per-market on-demand price — parameter-free —
        while the reverse threshold carries ``reverse_threshold_frac``,
        which strategies that never leave spot never evaluate."""
        from repro.cloud.spot_market import BID_CAP_MULTIPLIER

        bids = tuple(
            min(self.k * float(od), BID_CAP_MULTIPLIER * float(od))
            for od in od_prices
        )
        return {
            "name": self.name,
            "bids": bids,
            "planned": ("od",),
            "planned_thresholds": tuple(float(od) for od in od_prices),
            "reverse": ("od-frac", self.reverse_threshold_frac),
            # The scalar predicate computes `od * frac`; same expression here
            # so equal thresholds are bit-equal.
            "reverse_thresholds": tuple(
                float(od) * self.reverse_threshold_frac for od in od_prices
            ),
        }

    @property
    def is_proactive(self) -> bool:
        return True
