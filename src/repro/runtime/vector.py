"""The vectorized batch engine: decision epochs as array scans.

The per-event engine walks every hour-aligned boundary check one
``Timeout`` at a time — for a month-long run that is ~700 generator
resumptions, heap operations and trace bisects per run, almost all of
which conclude "stay put". :class:`VectorScheduler` removes exactly that
no-action machinery and nothing else:

* at the start of each placement tenure it generates the sequence of
  boundary-check instants the event engine would visit (the same
  ``anchor + k·3600 − lead`` floats, from the same
  ``_next_boundary_check`` arithmetic) in geometrically growing windows;
* it evaluates the boundary decision predicate over each window at once
  as NumPy comparisons against the shared :class:`~repro.traces.compiled.
  CompiledTrace` segment tables (a ``markets × epochs`` price matrix for
  the reverse-migration scan), stopping at the first window that acts —
  so a tenure that migrates after a day never touches the month of
  boundaries behind it;
* it parks once — via :class:`~repro.simulator.process.SleepUntil` — at
  the first instant where something *acts* (planned/reverse migration,
  revocation warning, or the horizon), and from there runs the inherited
  scalar :class:`~repro.core.scheduler.CloudScheduler` code unchanged.

Bit-equivalence with the event engine is by construction, not tolerance:

* every acquisition, migration, billing record and RNG draw executes the
  same scalar code at the same instant in the same order;
* the decision predicates are the array twins the bidding policy itself
  provides (``planned_migration_mask`` / ``reverse_migration_mask``) —
  the identical float comparisons, elementwise;
* the event engine's arrival times are chained floats
  (``a_i = a_{i-1} + max(0, t_i - a_{i-1})``), which equal the stop
  instants exactly whenever the addition round-trips. The scan *verifies*
  that vectorized and, at the first hop where rounding would diverge,
  parks on the chained value instead and re-evaluates there — precisely
  what the event engine would have done.

A scan predicate is allowed to over-approximate (flag a boundary where
the scalar decision then says "stay"): landing on a no-action boundary
is a side-effect-free no-op, after which the phase re-enters and the
scan resumes. It must never under-approximate — every rule here either
reproduces the scalar comparison exactly or errs towards stopping.

Eligibility is strict (see :func:`policies_vectorizable`): the strategy
and bidding policy must both declare ``vectorizable`` — static bids and
pure predicates, plus either a zero rate adjustment or the closed-form
dwell-model hooks (``spot_rate_cap``, ``vector_od_adjustment_floor``,
``_vector_dwell``, ``_vector_exact_od_ranking``) that keep the scans
sound over-approximations — and the run must not be narrating to a
trace sink (the event engine emits a ``BillingTick`` per visited
boundary; skipping boundaries would change the narration). Ineligible
configurations transparently degrade: the scheduler simply behaves as a
:class:`CloudScheduler` and reports ``vectorized = False``.
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from repro.cloud.provider import LeaseKind
from repro.core.scheduler import CloudScheduler
from repro.simulator.process import SleepUntil
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "ENGINE_KINDS",
    "VectorScheduler",
    "policies_vectorizable",
    "spec_vector_eligible",
]

#: Valid values of the ``--engine`` selector: ``auto`` runs eligible runs
#: on the vector engine with cross-run fusion, ``event`` forces per-event.
ENGINE_KINDS = ("auto", "event")


def policies_vectorizable(strategy: object, bidding: object) -> bool:
    """May runs under this (strategy, bidding) pair use the vector engine?

    Both must opt in: the strategy via its ``vectorizable`` capability
    flag (greedy ranking, no opportunistic switching) and the bidding
    policy via ``vectorizable`` plus the two array-mask twins of its
    scalar predicates. Missing attributes mean "no".
    """
    return bool(
        getattr(strategy, "vectorizable", False)
        and getattr(bidding, "vectorizable", False)
        and callable(getattr(bidding, "planned_migration_mask", None))
        and callable(getattr(bidding, "reverse_migration_mask", None))
    )


def spec_vector_eligible(spec: object) -> bool:
    """Is a :class:`~repro.runtime.spec.RunSpec` runnable on the vector
    engine at all (capability check only — the executor layers its own
    routing policy for faults/capture/ledger on top)?

    Building the strategy to inspect its flag is safe: factories build a
    fresh instance per call and strategies are cheap by contract.
    """
    factory = getattr(spec, "strategy", None)
    bidding = getattr(spec, "bidding", None)
    if factory is None or bidding is None:
        return False
    try:
        strategy = factory()
    except Exception:
        return False
    return policies_vectorizable(strategy, bidding)


class VectorScheduler(CloudScheduler):
    """Drop-in :class:`CloudScheduler` that batch-scans no-action epochs.

    Overrides only the two *phase* generators. Every decision that acts —
    and therefore everything observable: leases, billing, RNG draws,
    migrations, availability — runs the inherited scalar code at the
    instants the scans select, which is how results stay bit-identical.

    When the configuration is not vectorizable (``vectorized`` is False)
    both phases delegate to the parent and the run is an ordinary
    per-event run.
    """

    def __init__(self, *args, fused=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vectorized = (
            not self.sink.enabled
            and policies_vectorizable(self.strategy, self.bidding)
        )
        #: Boundary-check instants evaluated as array scans (telemetry:
        #: how much per-event machinery the run batched away).
        self.vector_checks = 0
        #: Optional :class:`~repro.runtime.fused.FusedScanContext` shared
        #: with the other runs of a fusion group: boundary-window price
        #: rows are computed once per (trace, anchor, lead) and served to
        #: every aligned run. ``None`` keeps all lookups run-local.
        self._fused = fused if self.vectorized else None
        self._scan_span = None
        #: Per-market envelope of every price the run compared against its
        #: reverse-migration threshold: ``key -> (lo, hi)`` where ``lo`` is
        #: the largest compared price the predicate accepted and ``hi`` the
        #: smallest it rejected. Any threshold in ``[lo, hi)`` makes the
        #: identical accept/reject call at every comparison this run
        #: performed — the batch executor uses that to clone runs that
        #: differ only in a reverse threshold the trajectory never
        #: discriminated (:mod:`repro.runtime.fused`).
        self.reverse_band: dict = {}

    # ------------------------------------------------- reverse-band recording
    def _reverse_wanted(self, key, price: float, od_single: float) -> bool:
        """Scalar reverse predicate, recorded (overrides the base hook)."""
        wanted = self.bidding.wants_reverse_migration(price, od_single)
        lo, hi = self.reverse_band.get(key, (-math.inf, math.inf))
        if wanted:
            if price > lo:
                lo = price
        elif price < hi:
            hi = price
        self.reverse_band[key] = (lo, hi)
        return wanted

    def _note_reverse(self, key, prices: np.ndarray, mask: np.ndarray) -> None:
        """Fold one window of mask comparisons into the market's band."""
        lo, hi = self.reverse_band.get(key, (-math.inf, math.inf))
        if mask.any():
            accepted = float(prices[mask].max())
            if accepted > lo:
                lo = accepted
        if not mask.all():
            rejected = float(prices[~mask].min())
            if rejected < hi:
                hi = rejected
        self.reverse_band[key] = (lo, hi)

    def _scan_prices(self, trace, checks: np.ndarray) -> np.ndarray:
        """Prices at a scan window's boundary checks.

        Delegates to the fusion group's shared boundary table when one is
        attached and a scan is in flight; otherwise (or when the table
        declines) a run-local compiled-trace lookup. Either path returns
        the bit-identical elementwise ``trace.price_at(checks)`` floats.
        """
        if self._fused is not None and self._scan_span is not None:
            anchor, lead, lo = self._scan_span
            prices = self._fused.prices(trace, anchor, lead, lo, checks)
            if prices is not None:
                return prices
        return np.asarray(trace.price_at(checks), dtype=np.float64)

    # ------------------------------------------------------------ scan plumbing
    #: Initial scan window (boundary checks per mask evaluation); doubles
    #: per window up to the cap. Most tenures act within the first window,
    #: so the common phase touches ~64 epochs instead of the whole tenure.
    #: 64 measured best on the 64-run sweep: below it, multi-window setup
    #: overhead dominates; above it, wasted mask work on short tenures.
    _SCAN_WINDOW = 64
    _SCAN_WINDOW_MAX = 512

    def _first_acting_arrival(self, now: float, lead: float, t_hi: float, act_mask) -> float:
        """Chained-arrival instant of the first acting boundary check in
        ``(now, t_hi)`` — or of ``t_hi`` itself when none acts.

        Boundary checks are the bit-identical floats the event engine
        visits: the first is the scalar :meth:`_next_boundary_check`
        answer, the rest advance ``k`` by one per epoch (the recurrence
        the event engine's ceil/guard arithmetic resolves to — its 1e-9
        guard absorbs the sub-nanosecond float error, so consecutive
        checks always step ``k`` by exactly one). They are generated in
        geometrically growing windows; ``act_mask(window)`` marks acting
        instants, and the scan stops at the first.

        The return value replays the event engine's timeout chain: it
        arrives at stop ``s_i`` at ``a_i = a_{i-1} + max(0, s_i −
        a_{i-1})`` — equal to ``s_i`` whenever the float addition
        round-trips (always, once times are within Sterbenz range of each
        other). If some hop would diverge by an ulp, the scan lands on
        the chained value of the first such hop — the phase re-evaluates
        there and continues, exactly as the event engine would have.
        """
        arrive = now
        if t_hi > now:
            assert self.placement is not None
            anchor = self.placement.ready_at
            first = self._next_boundary_check(now, lead)
            if first < t_hi:
                k0 = round((first + lead - anchor) / SECONDS_PER_HOUR)
                # Overshoot the k range by one and trim against t_hi:
                # cheaper than reproducing the ceil-edge analysis, and
                # exact either way.
                k1 = math.ceil((t_hi + lead - anchor) / SECONDS_PER_HOUR) + 1
                k_end = max(k1, k0) + 1
                lo, width = k0, self._SCAN_WINDOW
                while lo < k_end:
                    hi = min(lo + width, k_end)
                    ks = np.arange(lo, hi, dtype=np.float64)
                    checks = anchor + ks * SECONDS_PER_HOUR - lead
                    # checks is strictly increasing: binary-search the
                    # t_hi cutoff and slice (a view).
                    cut = int(checks.searchsorted(t_hi, side="left"))
                    if cut:
                        window = checks[:cut]
                        self.vector_checks += cut
                        self._scan_span = (anchor, lead, lo)
                        try:
                            act = act_mask(window)
                        finally:
                            self._scan_span = None
                        first_stop = float(window[0])
                        if (
                            2.0 * arrive >= first_stop
                            and first_stop >= 2.0 * SECONDS_PER_HOUR
                        ):
                            # Every hop is provably exact (Sterbenz): the
                            # departure point of each hop is within a
                            # factor of two of its stop, so the delta
                            # subtracts exactly and the addition lands on
                            # the stop bit-for-bit. Arrivals == stops; no
                            # walk needed.
                            idx = int(act.argmax())
                            if act[idx]:
                                return float(window[idx])
                            arrive = float(window[-1])
                        else:
                            # Early-sim small times: walk the chain hop by
                            # hop, exactly as the event engine arrives.
                            for stop, acts in zip(window.tolist(), act.tolist()):
                                delta = stop - arrive
                                arrive = arrive + (delta if delta > 0.0 else 0.0)
                                if acts or arrive != stop:
                                    return arrive
                    if cut < hi - lo:
                        break
                    lo, width = hi, min(width * 2, self._SCAN_WINDOW_MAX)
        delta = t_hi - arrive
        return arrive + (delta if delta > 0.0 else 0.0)

    # ----------------------------------------------------------- spot tenure
    def _spot_phase(self) -> Generator:
        if not self.vectorized:
            yield from super()._spot_phase()
            return
        placement = self.placement
        assert placement is not None and placement.kind is LeaseKind.SPOT
        now = self.engine.now
        bid = placement.leases[0].bid
        assert bid is not None
        market = self._market(placement.key)
        lead = self._planned_lead(placement.key)

        warning = market.revocation_warning_time(bid, now)
        t_hi = min(warning if warning is not None else float("inf"), self.horizon)
        if warning is not None:
            # A check within the event engine's 1e-9 epsilon below the
            # warning takes the forced path there regardless of the
            # boundary decision — never skip past it.
            wcut = warning - 1e-9

            def act_mask(checks: np.ndarray) -> np.ndarray:
                act = self._spot_act_mask(market, checks)
                act |= checks >= wcut
                return act

        else:

            def act_mask(checks: np.ndarray) -> np.ndarray:
                return self._spot_act_mask(market, checks)

        yield SleepUntil(self._first_acting_arrival(now, lead, t_hi, act_mask))

        # From here down: the event engine's epilogue, verbatim.
        now = self.engine.now
        if now >= self.horizon:
            return
        if warning is not None and now >= warning - 1e-9:
            yield from self._forced_migration(warning)
        else:
            yield from self._boundary_decision_on_spot(now)

    def _spot_act_mask(self, market, checks: np.ndarray) -> np.ndarray:
        """Which boundary checks act while on spot.

        With an on-demand fallback a planned trigger always migrates
        (exact). Without one (pure spot) it only acts when some sibling
        spot market is grantable at that instant. Opportunistic-switching
        strategies with a closed-form dwell model (``_vector_dwell``)
        additionally act where the dwell gate is open and some in-cap
        sibling beats the current rate by the hysteresis factor — the
        same comparisons ``decide_spot_boundary`` applies, elementwise.
        """
        prices = self._scan_prices(market.trace, checks)
        planned = np.asarray(
            self.bidding.planned_migration_mask(prices, market.on_demand_price),
            dtype=bool,
        )
        strategy = self.strategy
        if strategy.allows_on_demand or not planned.any():
            act = planned
        else:
            placement = self.placement
            assert placement is not None
            alt_any = np.zeros(checks.shape, dtype=bool)
            for key in strategy.candidate_markets(self.provider):
                if key == placement.key:
                    continue
                m = self._market(key)
                b = self.bidding.bid_price(m, self.engine.now)
                m.validate_bid(b)
                alt_any |= self._scan_prices(m.trace, checks) <= b
            act = planned & alt_any
        if strategy.opportunistic_switching:
            act = act | self._opportunistic_mask(prices, checks)
        return act

    def _opportunistic_mask(self, prices: np.ndarray, checks: np.ndarray) -> np.ndarray:
        """Exact array twin of the opportunistic spot-switch decision.

        ``_last_spot_switch`` is constant within a tenure, so the dwell
        gate is one subtract-and-compare per check; candidates are ranked
        by raw fleet rate filtered by grantability and the strategy's
        ``spot_rate_cap`` (the ``_vector_dwell`` contract), and the
        minimum rate is order-independent, so the hysteresis comparison
        uses the scalar ranking's exact winning value.
        """
        strategy = self.strategy
        placement = self.placement
        assert placement is not None
        dwell_ok = (checks - self._last_spot_switch) >= strategy.min_dwell_s
        if not dwell_ok.any():
            return dwell_ok
        cap_fn = getattr(strategy, "spot_rate_cap", None)
        cap = cap_fn(self.provider) if cap_fn is not None else None
        best = np.full(checks.shape, np.inf)
        for key in strategy.candidate_markets(self.provider):
            if key == placement.key:
                continue
            m = self._market(key)
            b = self.bidding.bid_price(m, self.engine.now)
            m.validate_bid(b)
            p = self._scan_prices(m.trace, checks)
            rate = strategy.servers_needed(key) * p
            ok = p <= b
            if cap is not None:
                ok &= rate <= cap
            np.minimum(best, np.where(ok, rate, np.inf), out=best)
        cur = strategy.servers_needed(placement.key) * prices
        return (
            dwell_ok
            & np.isfinite(best)
            & (best < cur * strategy.improvement_factor)
        )

    # ------------------------------------------------------ on-demand tenure
    def _on_demand_phase(self) -> Generator:
        if not self.vectorized:
            yield from super()._on_demand_phase()
            return
        placement = self.placement
        assert placement is not None and placement.kind is LeaseKind.ON_DEMAND
        now = self.engine.now
        lead = self._planned_lead(placement.key)
        yield SleepUntil(
            self._first_acting_arrival(now, lead, self.horizon, self._od_act_builder())
        )

        now = self.engine.now
        if now >= self.horizon:
            return
        decision = self.decide_on_demand_boundary(now)
        if decision.migrates:
            assert decision.target_key is not None
            yield from self._voluntary_migration(
                now, decision.target_key, decision.n_servers,
                LeaseKind.SPOT, "reverse",
            )

    def _od_act_builder(self):
        """Build this tenure's reverse-migration mask function.

        Reproduces :meth:`~repro.core.scheduler.CloudScheduler.
        decide_on_demand_boundary` as array comparisons. The per-tenure
        constants — candidate markets, their (static) bids, unit counts
        and rates — are hoisted here, outside the per-window scan; the
        returned function evaluates one window of boundary checks.
        """
        placement = self.placement
        assert placement is not None
        strategy = self.strategy
        candidates = (
            strategy.candidate_markets(self.provider) if strategy.allows_spot else []
        )
        if not candidates:
            return lambda checks: np.zeros(checks.shape, dtype=bool)
        od_rate = strategy.on_demand_rate(self.provider, placement.key)
        reverse_mask = self.bidding.reverse_migration_mask
        cap_fn = getattr(strategy, "spot_rate_cap", None)
        cap = cap_fn(self.provider) if cap_fn is not None else None

        if not getattr(strategy, "_vector_exact_od_ranking", True):
            # The strategy re-ranks candidates per epoch (LP portfolio,
            # windowed stability adjustment): no exact array twin exists.
            # Sound over-approximation instead — act wherever *some*
            # candidate is grantable, beats on-demand even with the
            # strategy's adjustment floored in, and passes the reverse
            # predicate. The scalar decision re-ranks exactly at every
            # boundary the scan stops on; extra stops are no-ops.
            floor_fn = getattr(strategy, "vector_od_adjustment_floor", None)
            rows = []
            for key in candidates:
                m = self._market(key)
                b = self.bidding.bid_price(m, self.engine.now)
                m.validate_bid(b)
                rows.append(
                    (m, b, strategy.servers_needed(key),
                     self.provider.on_demand_price(key), key)
                )

            def act_any(checks: np.ndarray) -> np.ndarray:
                act = np.zeros(checks.shape, dtype=bool)
                for m, b, units, od_single, key in rows:
                    p = self._scan_prices(m.trace, checks)
                    term = p <= b
                    rate = units * p
                    if cap is not None:
                        term &= rate <= cap
                    floor = (
                        floor_fn(self.provider, key, checks)
                        if floor_fn is not None
                        else None
                    )
                    if floor is None:
                        term &= rate < od_rate
                    else:
                        term &= rate + floor < od_rate
                    rmask = np.asarray(reverse_mask(p, od_single), dtype=bool)
                    self._note_reverse(key, p, rmask)
                    term &= rmask
                    act |= term
                return act

            return act_any

        if len(candidates) == 1:
            # Single-candidate fast path: no ranking matrix needed. The
            # float ops are the scalar loop's, elementwise: ``n * price``
            # for the fleet rate and the policy's own reverse mask.
            # Composed with in-place ``&=`` to avoid intermediate arrays.
            key = candidates[0]
            m = self._market(key)
            b = self.bidding.bid_price(m, self.engine.now)
            m.validate_bid(b)
            units = strategy.servers_needed(key)
            od_price = self.provider.on_demand_price(key)
            trace = m.trace

            def act_single(checks: np.ndarray) -> np.ndarray:
                # _scan_prices returns a float64 ndarray (our own trace
                # code) — no asarray round-trip needed.
                p = self._scan_prices(trace, checks)
                act = p <= b
                rate = units * p
                act &= rate < od_rate
                if cap is not None:
                    act &= rate <= cap
                rmask = np.asarray(reverse_mask(p, od_price), dtype=bool)
                self._note_reverse(key, p, rmask)
                act &= rmask
                return act

            return act_single

        markets = []
        bids = np.empty(len(candidates), dtype=np.float64)
        units = np.empty(len(candidates), dtype=np.float64)
        singles = np.empty(len(candidates), dtype=np.float64)
        for i, key in enumerate(candidates):
            m = self._market(key)
            b = self.bidding.bid_price(m, self.engine.now)
            m.validate_bid(b)
            markets.append(m)
            bids[i] = b
            units[i] = strategy.servers_needed(key)
            singles[i] = self.provider.on_demand_price(key)

        def act_many(checks: np.ndarray) -> np.ndarray:
            # A ``markets × epochs`` price matrix, grantability against
            # the bids (and the strategy's rate cap, when one exists),
            # fleet rates with ineligible cells masked to
            # +inf, a first-occurrence argmin (the scalar loop's
            # strict-``<`` keeps the first minimum too), and the policy's
            # reverse mask on the winning market's price.
            n = checks.shape[0]
            prices = np.empty((len(markets), n), dtype=np.float64)
            for i, m in enumerate(markets):
                prices[i] = self._scan_prices(m.trace, checks)
            grantable = prices <= bids[:, None]
            rates = units[:, None] * prices
            if cap is not None:
                grantable &= rates <= cap
            ranked = np.where(grantable, rates, np.inf)
            best = np.argmin(ranked, axis=0)
            cols = np.arange(n)
            best_rate = ranked[best, cols]
            any_grant = grantable[best, cols]
            win_prices = prices[best, cols]
            reverse = np.asarray(reverse_mask(win_prices, singles[best]), dtype=bool)
            for w in np.unique(best):
                rows = best == w
                self._note_reverse(candidates[w], win_prices[rows], reverse[rows])
            return any_grant & (best_rate < od_rate) & reverse

        return act_many
