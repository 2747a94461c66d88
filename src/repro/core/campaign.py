"""Measurement campaigns.

Implements the paper's data-collection discipline (Sec 4.2): 30 racks (10
per application), and for each rack one randomly chosen port sampled over
one random 2-minute window in every hour of a day, capturing diurnal
variation while respecting data-retention limits.

Collection is *resilient*: the measurement plane is best-effort by design
(Table 1), so :class:`MeasurementCampaign` treats window failures as
first-class — bounded retry with backoff, optional per-window timeouts,
partial results with per-window status, and per-window checkpointing so
an interrupted 24-hour campaign resumes at the windows it had not yet
completed instead of being discarded.

Execution
---------
The paper polls 30 ToR switches *concurrently*, and the campaign has the
same shape.  :func:`shard_plan` splits the plan into (rack, window range)
shards — a layout that depends only on the plan, never on the worker
count — and every shard is collected by one function, in-process when
``workers=1`` and in a ``ProcessPoolExecutor`` otherwise.  Serial is just
the one-worker case; results are scattered back to plan order.

Serial and parallel runs produce **byte-identical** traces because no
randomness depends on execution order: window sources derive their
per-window stream from ``(campaign_seed, rack_id, window_idx)`` and fault
injectors from ``(plan_seed, site)`` (see :mod:`repro.core.seeding`).
Backends are pickled to workers, so any mutable backend state is
shard-local; a conforming backend must therefore key *all* randomness by
window identity.  ``tests/integration/test_parallel_determinism.py``
holds this contract at 1, 2 and 4 workers, under fault injection, and
across checkpoint/resume.

Checkpoint layout
-----------------
One flat directory keyed by the global window index:

* ``checkpoint.json`` — header (``version``, ``plan_digest``,
  ``n_windows``), written before any window is collected;
* ``window_NNNNN.npz`` — the window's trace archive (absent for failed
  windows);
* ``window_NNNNN.json`` — the window's record (``status``, ``attempts``,
  ``error``), written atomically after its archive.

Nothing in it depends on shards or workers, so a checkpoint resumes at
any worker count and any shard size.  A fresh run clears the layout's
own files first; a directory holding anything else is refused.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import re
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from repro.core.samples import CounterTrace
from repro.core.traceio import load_traces, save_traces
from repro.errors import AnalysisError, CollectionError, ConfigError, ReproError
from repro.obs import get_logger
from repro.telemetry.metrics import get_registry, scoped_registry
from repro.telemetry.spans import span
from repro.units import NS_PER_S, seconds

_log = get_logger("campaign")


@dataclass(frozen=True, slots=True)
class CampaignWindow:
    """One (rack, hour) measurement window."""

    rack_id: str
    rack_type: str
    port_name: str
    hour: int
    start_ns: int
    duration_ns: int

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


class WindowSource(Protocol):
    """Anything that can produce counter traces for a campaign window.

    This is the minimal capability a campaign needs; full measurement
    backends (:class:`repro.backends.MeasurementBackend`) are structural
    supersets, so every backend is a valid window source.
    """

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        """Collect traces covering ``window``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class CampaignPlan:
    """The full schedule of windows for a campaign."""

    windows: tuple[CampaignWindow, ...]

    @staticmethod
    def generate(
        racks: Iterable[tuple[str, str]],
        port_chooser: Callable[[str, np.random.Generator], str],
        rng: np.random.Generator,
        hours: int = 24,
        window_duration_ns: int = seconds(120),
    ) -> "CampaignPlan":
        """Random-port / random-window-per-hour schedule.

        Parameters
        ----------
        racks:
            ``(rack_id, rack_type)`` pairs, e.g. 10 each of web / cache /
            hadoop.
        port_chooser:
            Picks the one measured port for a rack (the paper samples a
            single random port per rack).
        """
        if hours <= 0:
            raise ConfigError("campaign needs at least one hour")
        hour_ns = seconds(3600)
        if window_duration_ns <= 0 or window_duration_ns > hour_ns:
            raise ConfigError("window must fit within an hour")
        windows: list[CampaignWindow] = []
        for rack_id, rack_type in racks:
            port = port_chooser(rack_id, rng)
            for hour in range(hours):
                offset = int(rng.integers(0, hour_ns - window_duration_ns + 1))
                windows.append(
                    CampaignWindow(
                        rack_id=rack_id,
                        rack_type=rack_type,
                        port_name=port,
                        hour=hour,
                        start_ns=hour * hour_ns + offset,
                        duration_ns=window_duration_ns,
                    )
                )
        return CampaignPlan(windows=tuple(windows))

    def windows_for_type(self, rack_type: str) -> list[CampaignWindow]:
        return [w for w in self.windows if w.rack_type == rack_type]

    @property
    def total_measured_seconds(self) -> float:
        return sum(w.duration_ns for w in self.windows) / NS_PER_S

    def digest(self) -> str:
        """Stable fingerprint of the schedule (guards checkpoint resume)."""
        blob = json.dumps(
            [
                [w.rack_id, w.rack_type, w.port_name, w.hour, w.start_ns, w.duration_ns]
                for w in self.windows
            ]
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class WindowStatus(enum.Enum):
    """Terminal state of one window's collection."""

    OK = "ok"  # collected on the first attempt, no degradation markers
    DEGRADED = "degraded"  # collected, but retried or with sample loss
    FAILED = "failed"  # retry budget exhausted; no traces

    @property
    def has_traces(self) -> bool:
        return self is not WindowStatus.FAILED


@dataclass(slots=True)
class WindowOutcome:
    """What happened when one window was collected."""

    index: int
    window: CampaignWindow
    status: WindowStatus
    attempts: int = 1
    error: str = ""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for window collection.

    Only :class:`~repro.errors.ReproError` failures are retried —
    anything else is a programming error and propagates.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    window_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigError("max_attempts must be positive")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ConfigError("backoff must be non-negative and non-shrinking")
        if self.window_timeout_s is not None and self.window_timeout_s <= 0:
            raise ConfigError("window timeout must be positive")


@dataclass(slots=True)
class CampaignResult:
    """Collected traces keyed by window, with per-window outcomes.

    ``traces`` stays parallel to ``plan.windows`` — failed windows hold an
    empty dict — so positional pairing is always valid.  ``outcomes`` is
    present for runs executed by the resilient runner (``None`` for
    results assembled by hand).
    """

    plan: CampaignPlan
    traces: list[dict[str, CounterTrace]]
    outcomes: list[WindowOutcome] | None = None

    def _check_aligned(self) -> None:
        if len(self.traces) != len(self.plan.windows):
            raise AnalysisError(
                f"campaign result misaligned: {len(self.traces)} trace sets for "
                f"{len(self.plan.windows)} planned windows — partial results must "
                "keep one (possibly empty) entry per window"
            )

    def by_type(self, rack_type: str) -> list[dict[str, CounterTrace]]:
        self._check_aligned()
        return [
            traces
            for window, traces in zip(self.plan.windows, self.traces)
            if window.rack_type == rack_type
        ]

    def iter_windows(self) -> Iterator[tuple[CampaignWindow, dict[str, CounterTrace]]]:
        self._check_aligned()
        return zip(self.plan.windows, self.traces)

    def completed(
        self, rack_type: str | None = None
    ) -> Iterator[tuple[CampaignWindow, dict[str, CounterTrace]]]:
        """(window, traces) pairs that actually hold data, optionally
        filtered by rack type — the gap-tolerant way to feed analysis."""
        for window, traces in self.iter_windows():
            if not traces:
                continue
            if rack_type is not None and window.rack_type != rack_type:
                continue
            yield window, traces

    def status_counts(self) -> dict[str, int]:
        counts = {status.value: 0 for status in WindowStatus}
        if self.outcomes is None:
            counts[WindowStatus.OK.value] = sum(1 for t in self.traces if t)
            counts[WindowStatus.FAILED.value] = sum(1 for t in self.traces if not t)
        else:
            for outcome in self.outcomes:
                counts[outcome.status.value] += 1
        return counts

    @property
    def n_failed(self) -> int:
        return self.status_counts()[WindowStatus.FAILED.value]

    @property
    def completion_fraction(self) -> float:
        if not self.plan.windows:
            return 1.0
        return 1.0 - self.n_failed / len(self.plan.windows)


@dataclass(frozen=True, slots=True)
class Shard:
    """One unit of work: a slice of the plan's windows.

    ``indices`` are global window indices into ``plan.windows``,
    ascending, so the merge step is a plain scatter.
    """

    shard_id: int
    indices: tuple[int, ...]


def shard_plan(
    plan: CampaignPlan, max_windows_per_shard: int | None = None
) -> tuple[Shard, ...]:
    """Deterministic (rack, window-range) sharding of a campaign plan.

    Windows are grouped by rack (racks in order of first appearance, each
    rack's windows in plan order — the paper's one-poller-per-ToR
    discipline), then optionally split into chunks of at most
    ``max_windows_per_shard`` windows so a single giant rack can still
    fan out.  The layout depends only on ``(plan, max_windows_per_shard)``
    — never on worker count.
    """
    if max_windows_per_shard is not None and max_windows_per_shard <= 0:
        raise ConfigError("max_windows_per_shard must be positive")
    by_rack: dict[str, list[int]] = {}
    for index, window in enumerate(plan.windows):
        by_rack.setdefault(window.rack_id, []).append(index)
    shards: list[Shard] = []
    for indices in by_rack.values():
        step = max_windows_per_shard or len(indices) or 1
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            shards.append(Shard(shard_id=len(shards), indices=tuple(chunk)))
    return tuple(shards)


#: Checkpoint layout version, recorded in the ``checkpoint.json`` header.
_CHECKPOINT_VERSION = 2
_HEADER = "checkpoint.json"
#: Every name the layout writes, including interrupted atomic-write temps.
_LAYOUT_NAME = re.compile(
    r"(?:checkpoint\.json|window_\d+\.(?:npz|json))(?:\.tmp-\d+(?:\.npz)?)?"
)

_ShardResult = tuple[
    list[WindowOutcome], list[dict[str, CounterTrace]], dict[str, int] | None, dict
]


def _write_json_atomic(path: Path, record: dict) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, path)


def _fault_tally(backend: WindowSource) -> dict[str, int] | None:
    """Fault-injection tally of a backend, when it carries an injector."""
    stats = getattr(getattr(backend, "injector", None), "stats", None)
    as_dict = getattr(stats, "as_dict", None)
    return as_dict() if callable(as_dict) else None


def _collect_shard(campaign: "MeasurementCampaign", shard: Shard) -> _ShardResult:
    """Collect one shard's windows: the in-process loop body and the
    process-pool entry point alike.

    Module-level so it pickles; in a pool worker ``campaign`` (and its
    backend) is a process-local copy, which keeps mutable backend state
    shard-local.  Returns the outcomes and traces, the fault tally this
    shard *added* (so in-process shards sharing one backend and pool
    shards holding copies sum the same way), and the snapshot of a
    :func:`~repro.telemetry.scoped_registry` holding exactly this
    shard's telemetry for the parent to merge.
    """
    before = _fault_tally(campaign.backend) or {}
    outcomes: list[WindowOutcome] = []
    traces: list[dict[str, CounterTrace]] = []
    with scoped_registry() as registry:
        for index in shard.indices:
            window = campaign.plan.windows[index]
            with span(
                "campaign.window", rack=window.rack_id, hour=window.hour
            ) as window_span:
                outcome, window_traces = campaign._run_window(index, window)
                window_span.set_attr("status", outcome.status.value)
            registry.counter(
                f"campaign.windows_{outcome.status.value}",
                "window collections by terminal status",
            ).inc()
            campaign._checkpoint_window(outcome, window_traces)
            outcomes.append(outcome)
            traces.append(window_traces)
        snapshot = registry.snapshot()
    after = _fault_tally(campaign.backend)
    added = None
    if after is not None:
        added = {key: value - before.get(key, 0) for key, value in after.items()}
    return outcomes, traces, added, snapshot


class MeasurementCampaign:
    """Executes a plan against a measurement backend, resiliently.

    Parameters
    ----------
    plan / backend:
        The schedule and the data plane to collect from — anything
        satisfying :class:`WindowSource` (a full
        :class:`repro.backends.MeasurementBackend`, a bare synthetic
        source, or a fault-injecting wrapper around either).  With more
        than one worker the backend must be picklable and must derive all
        randomness from window identity (see module docstring).
    retry:
        Retry policy for failed windows.  ``None`` keeps the historical
        fail-fast behaviour (one attempt, errors propagate).
    checkpoint_dir:
        When set, every completed window is persisted there (see the
        module docstring for the layout) and ``run(resume=True)``
        re-collects only the windows it does not hold.
    workers:
        Process count.  ``1`` collects the shards in-process, one after
        another (no pickling requirement); results and checkpoints are
        the same at every worker count.
    max_windows_per_shard:
        Optional cap splitting one rack's windows across several shards.
    sleep:
        Injectable backoff sleep (tests pass a no-op).

    After :meth:`run`, :attr:`fault_stats` holds the fault tally of the
    windows that run collected when the backend carries a
    :class:`~repro.faults.FaultInjector` (``None`` otherwise).
    """

    def __init__(
        self,
        plan: CampaignPlan,
        backend: WindowSource,
        retry: RetryPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
        workers: int = 1,
        max_windows_per_shard: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers <= 0:
            raise ConfigError(f"workers must be positive, got {workers}")
        self.plan = plan
        self.backend = backend
        self.retry = retry
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.workers = workers
        self.shards = shard_plan(plan, max_windows_per_shard)
        self.fault_stats: dict[str, int] | None = None
        self._sleep = sleep

    # -- checkpointing -----------------------------------------------------------

    def _trace_path(self, index: int) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"window_{index:05d}.npz"

    def _record_path(self, index: int) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"window_{index:05d}.json"

    def _open_checkpoint(
        self, resume: bool
    ) -> dict[int, tuple[WindowOutcome, dict[str, CounterTrace]]]:
        """Validate the checkpoint directory and return the windows it
        restores; a fresh run (or a resume of a missing or empty
        directory) clears the layout's files and writes a new header."""
        ckpt = self.checkpoint_dir
        if ckpt is None:
            return {}
        names = sorted(p.name for p in ckpt.iterdir()) if ckpt.is_dir() else []
        foreign = [name for name in names if not _LAYOUT_NAME.fullmatch(name)]
        if foreign:
            raise CollectionError(
                f"checkpoint directory {ckpt} holds entries outside the checkpoint "
                f"layout ({', '.join(foreign[:3])}); refusing to use it"
            )
        header = {
            "version": _CHECKPOINT_VERSION,
            "plan_digest": self.plan.digest(),
            "n_windows": len(self.plan.windows),
        }
        if resume and names:
            try:
                existing = json.loads((ckpt / _HEADER).read_text())
            except (OSError, ValueError) as exc:
                raise CollectionError(
                    f"checkpoint directory {ckpt} has no readable {_HEADER}: {exc}"
                ) from exc
            for key, value in header.items():
                found = existing.get(key) if isinstance(existing, dict) else None
                if found != value:
                    raise CollectionError(
                        f"checkpoint at {ckpt} belongs to a different campaign plan "
                        f"or layout ({key} {found} != {value})"
                    )
            return self._restore()
        ckpt.mkdir(parents=True, exist_ok=True)
        for name in names:
            if name != _HEADER:
                (ckpt / name).unlink()
        _write_json_atomic(ckpt / _HEADER, header)
        return {}

    def _restore(self) -> dict[int, tuple[WindowOutcome, dict[str, CounterTrace]]]:
        """Windows with a readable record (and archive); a missing, torn
        or damaged entry is left out and so re-collected."""
        done: dict[int, tuple[WindowOutcome, dict[str, CounterTrace]]] = {}
        for index, window in enumerate(self.plan.windows):
            try:
                record = json.loads(self._record_path(index).read_text())
                status = WindowStatus(record["status"])
                traces = load_traces(self._trace_path(index)) if status.has_traces else {}
                outcome = WindowOutcome(
                    index=index,
                    window=window,
                    status=status,
                    attempts=int(record["attempts"]),
                    error=str(record["error"]),
                )
            except (OSError, ValueError, KeyError, TypeError, ReproError):
                continue
            done[index] = (outcome, traces)
        return done

    def _checkpoint_window(
        self, outcome: WindowOutcome, traces: dict[str, CounterTrace]
    ) -> None:
        if self.checkpoint_dir is None:
            return
        if traces:
            size = save_traces(self._trace_path(outcome.index), traces)
            get_registry().counter(
                "campaign.checkpoint_bytes", "bytes persisted to window checkpoints"
            ).inc(size)
        _write_json_atomic(
            self._record_path(outcome.index),
            {
                "status": outcome.status.value,
                "attempts": outcome.attempts,
                "error": outcome.error,
            },
        )

    # -- collection --------------------------------------------------------------

    def _collect_once(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        timeout = self.retry.window_timeout_s if self.retry else None
        if timeout is None:
            return self.backend.sample_window(window)
        # One worker per attempt: a hung collection must not poison later
        # windows.  The abandoned worker is left to finish on its own.
        pool = ThreadPoolExecutor(max_workers=1)
        future = pool.submit(self.backend.sample_window, window)
        finished, _ = wait([future], timeout=timeout, return_when=FIRST_COMPLETED)
        if not finished:
            pool.shutdown(wait=False, cancel_futures=True)
            raise CollectionError(
                f"window {window.rack_id}/h{window.hour} timed out after {timeout}s"
            )
        pool.shutdown(wait=False)
        return future.result()

    @staticmethod
    def _is_degraded(traces: dict[str, CounterTrace]) -> bool:
        return any(trace.meta.get("samples_dropped", 0) > 0 for trace in traces.values())

    def _run_window(
        self, index: int, window: CampaignWindow
    ) -> tuple[WindowOutcome, dict[str, CounterTrace]]:
        registry = get_registry()
        retry = self.retry or RetryPolicy(max_attempts=1)
        delay = retry.backoff_s
        last_error = ""
        for attempt in range(1, retry.max_attempts + 1):
            try:
                traces = self._collect_once(window)
            except ReproError as exc:
                last_error = str(exc)
                if self.retry is None:
                    raise
                _log.debug(
                    "window %s/h%d attempt %d failed: %s",
                    window.rack_id, window.hour, attempt, exc,
                )
                if attempt < retry.max_attempts:
                    registry.counter(
                        "campaign.window_retries", "window collection attempts retried"
                    ).inc()
                    if delay > 0:
                        self._sleep(delay)
                    delay *= retry.backoff_factor
                continue
            status = WindowStatus.OK
            if attempt > 1 or self._is_degraded(traces):
                status = WindowStatus.DEGRADED
            outcome = WindowOutcome(
                index=index,
                window=window,
                status=status,
                attempts=attempt,
                error=last_error,
            )
            return outcome, traces
        _log.warning(
            "window %s/h%d failed after %d attempts: %s",
            window.rack_id, window.hour, retry.max_attempts, last_error,
        )
        outcome = WindowOutcome(
            index=index,
            window=window,
            status=WindowStatus.FAILED,
            attempts=retry.max_attempts,
            error=last_error,
        )
        return outcome, {}

    def run(self, resume: bool = False) -> CampaignResult:
        """Collect every window, tolerating per-window failures.

        With ``resume=True`` (and a checkpoint directory) windows the
        checkpoint holds are restored instead of re-collected; because
        backends and fault injectors are keyed by window identity, a
        resumed run reproduces the traces an uninterrupted run would
        have produced, at any worker count.
        """
        registry = get_registry()
        restored = self._open_checkpoint(resume)
        registry.counter(
            "campaign.windows_resumed", "windows restored from checkpoint"
        ).inc(len(restored))
        n = len(self.plan.windows)
        outcomes = {index: outcome for index, (outcome, _) in restored.items()}
        traces = {index: window_traces for index, (_, window_traces) in restored.items()}
        pending = [
            Shard(shard.shard_id, todo)
            for shard in self.shards
            if (todo := tuple(i for i in shard.indices if i not in restored))
        ]
        _log.debug(
            "collecting %d windows in %d shards across %d workers",
            n - len(restored), len(pending), self.workers,
        )
        self.fault_stats = None
        with span("campaign.run", n_windows=n, resumed=len(restored)):
            for shard_outcomes, shard_traces, tally, snapshot in self._execute(pending):
                for outcome, window_traces in zip(shard_outcomes, shard_traces):
                    outcomes[outcome.index] = outcome
                    traces[outcome.index] = window_traces
                if tally is not None:
                    totals = self.fault_stats or {}
                    self.fault_stats = {
                        key: totals.get(key, 0) + value for key, value in tally.items()
                    }
                registry.merge_snapshot(snapshot)
            registry.counter(
                "parallel.shards_completed", "campaign shards merged"
            ).inc(len(pending))
        return CampaignResult(
            plan=self.plan,
            traces=[traces[i] for i in range(n)],
            outcomes=[outcomes[i] for i in range(n)],
        )

    def _execute(self, shards: list[Shard]) -> Iterator[_ShardResult]:
        """Shard results, in-process in plan order or from a process
        pool in completion order."""
        if self.workers == 1 or len(shards) <= 1:
            for shard in shards:
                yield _collect_shard(self, shard)
            return
        with ProcessPoolExecutor(max_workers=min(self.workers, len(shards))) as pool:
            futures = [pool.submit(_collect_shard, self, shard) for shard in shards]
            for future in as_completed(futures):
                yield future.result()
