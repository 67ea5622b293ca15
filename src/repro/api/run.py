"""Spec executors: the one engine behind every front end.

:func:`run_sweep_spec` is the production path of the experiment harness —
``python -m repro sweep``, the ``repro`` console script and the CI smoke
entry all funnel into it.  It owns the orchestration policy:

* **fail fast** — the spec is validated and every scenario name resolved
  *before* any worker forks;
* **resume** — when the target :class:`~repro.api.ResultSet` already holds
  rows, completed ``(scenario, size, seed, params_digest)`` cells are
  reused verbatim and only the missing cells run; the returned table is
  identical to an uninterrupted run (rows follow cross-product order
  either way), and cells stored under a *different* definition of the same
  scenario name (changed params/family/weights) are re-run, not reused;
* **locality** — missing cells are grouped by graph-instance key so one
  worker builds each graph once and serves every scenario over it from the
  per-process cache (see :mod:`repro.sim.experiments`);
* **streaming** — each finished cell is appended (and flushed) to the store
  and reported through the ``progress`` callback as it lands, so an
  interrupted sweep loses at most the in-flight cells;
* **supervision** — parallel groups run under a supervised dispatcher, not
  a bare pool: each worker holds one group at a time, a worker that dies or
  exceeds ``spec.task_timeout`` is detected (via its process sentinel — no
  polling a hung ``imap``), its group is re-dispatched to a fresh worker up
  to ``spec.max_retries`` times, and a group that keeps dying is recorded
  as ``failed`` rows instead of hanging the sweep.  Interrupts and
  exceptions unwind through ``try``/``finally`` so the store always
  flushes and closes;
* **sharding** — a spec with ``shard_index``/``shard_count`` runs only its
  own deterministic partition of the cross product and writes the derived
  per-shard store (see :mod:`repro.api.shard`); independent machines each
  run one shard and :func:`repro.api.merge_shards` reassembles the table.

:func:`run_report_spec` gives the report job the same spec-in,
artifact-out shape.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import time
from collections.abc import Callable
from pathlib import Path

from .resultset import ResultSet, cell_key, failure_record
from .shard import shard_cells, shard_store_path
from .specs import ReportSpec, Spec, SpecError, SweepSpec

__all__ = [
    "run_sweep_spec",
    "run_report_spec",
    "run_spec",
    "smoke_spec",
]

#: Sizes of the fixed tiny CI sweep (``repro sweep --smoke``), which runs
#: **every registered scenario** (``scenarios=None``) through its
#: oracle/validator at these sizes — one seed, small n, full catalog.
SMOKE_SIZES = (12, 18)


def smoke_spec(workers: int | None = None, output: str | None = None) -> SweepSpec:
    """The fixed tiny sweep spec behind ``repro sweep --smoke`` (CI entry).

    ``scenarios=None`` resolves to the full registry at run time, so a
    newly registered scenario is smoke-covered (driver + oracle) with no
    CI edit; any :class:`DriverError`/validator failure fails the sweep.
    """
    return SweepSpec(
        scenarios=None,
        sizes=SMOKE_SIZES,
        seeds=(0,),
        workers=workers or 1,
        output=output,
    )


def _tidy(record: dict, row_fields: tuple) -> dict:
    """Project a stored record onto the tidy row columns, in order.

    Core columns come first in :data:`~repro.sim.experiments.ROW_FIELDS`
    order, then any scenario-specific quality columns in sorted key order —
    the same layout :func:`repro.sim.experiments.run_scenario` emits, so
    store-reloaded rows equal freshly computed ones exactly.

    ``latency_model`` defaults to ``"unit"`` for records stored before the
    column existed: those rows could only have come from the synchronous
    engine, whose network *is* the unit model, so the default is the
    recorded truth, not a guess.  (Their resume digests omit unit latency
    for the same reason — old stores stay resumable; see
    :func:`repro.sim.experiments.scenario_digest`.)
    """
    row = {
        name: record.get(name, "unit") if name == "latency_model" else record[name]
        for name in row_fields
    }
    for key in sorted(record):
        if key not in row and key != "metrics":
            row[key] = record[key]
    return row


#: Supervisor poll ceiling: the longest the dispatcher sleeps between
#: liveness/deadline checks when no worker event arrives first (worker
#: results and deaths wake it immediately via their pipe/process sentinels).
_POLL_SECONDS = 0.2


class _Worker:
    """One supervised worker: a forked process plus its two private pipes.

    Private pipes (not a shared pool queue) are the crux of fault
    isolation: when this process dies mid-write, only *its* result channel
    can hold a torn message, and the supervisor discards the whole channel
    with the worker — a crash can never corrupt another worker's results
    or hang a shared ``imap``.  Each channel has exactly one writer and one
    reader, so plain ``context.Pipe(duplex=False)`` connections (public
    API — ``send``/``recv``/``poll``/``wait`` need no queue locks) carry
    the whole protocol.  The worker holds at most one group at a time, so
    the supervisor always knows exactly which cells a dead worker took
    down.

    Right after the fork the parent closes its copies of the worker-side
    ends — before any later sibling can inherit them — which makes the
    worker the sole writer of its result pipe.  If the worker then dies
    mid-message, the supervisor's ``recv`` hits EOF and raises instead of
    blocking forever on a frame that can never complete;
    :func:`_run_groups_supervised` treats that read failure as the worker
    death it is.
    """

    __slots__ = ("process", "tasks", "results", "group_id", "deadline")

    def __init__(
        self,
        context,
        with_metrics: bool,
        engine: str | None = None,
        latency_model: str | None = None,
        fault_model: str | None = None,
    ):
        from ..sim import experiments

        task_reader, self.tasks = context.Pipe(duplex=False)
        self.results, result_writer = context.Pipe(duplex=False)
        self.group_id: int | None = None
        self.deadline: float | None = None
        self.process = context.Process(
            target=experiments._worker_loop,
            args=(
                task_reader, result_writer, with_metrics, engine, latency_model, fault_model,
            ),
            daemon=True,
        )
        self.process.start()
        # Drop the worker-side ends so the worker is their sole owner.
        task_reader.close()
        result_writer.close()

    def dispatch(self, group_id: int, group: list, timeout: float | None) -> None:
        self.group_id = group_id
        # repro: lint-ok[D105] supervisor stall deadline — scheduling state, never reaches rows
        self.deadline = time.monotonic() + timeout if timeout else None
        self.tasks.send(group)

    def shutdown(self) -> None:
        """Best-effort teardown; never raises (runs on interrupt paths)."""
        try:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        except Exception:
            pass
        for channel in (self.tasks, self.results):
            try:
                channel.close()
            except Exception:
                pass


def _run_groups_supervised(
    group_list: list[list[tuple[int, str, int, int]]],
    *,
    context,
    workers: int,
    with_metrics: bool,
    max_retries: int,
    task_timeout: float | None,
    land: Callable[[int, dict, dict | None], None],
    fail: Callable[[list, int, str], None],
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
) -> None:
    """Dispatch locality groups to supervised fork workers until all settle.

    Each group either lands its cells (``land`` per cell), or — after its
    worker died/stalled ``1 + max_retries`` times — is handed to ``fail``.
    A worker that *reports* an exception (a deterministic driver/oracle
    failure, not a fault) raises :class:`~repro.sim.experiments.SweepError`
    exactly like the sequential path; the caller's ``finally`` handles
    store cleanup.  The wait multiplexes worker result pipes and process
    sentinels, so both results and deaths wake the supervisor immediately —
    a dead worker can never hang the sweep.
    """
    from ..sim.experiments import SweepError

    pending = list(range(len(group_list)))  # LIFO: retried groups go first
    failures = [0] * len(group_list)
    open_groups = len(group_list)
    pool: list[_Worker] = []

    def crashed(group_id: int, cause: str) -> int:
        """Account one fault against ``group_id``; 1 if the group is closed."""
        failures[group_id] += 1
        if failures[group_id] <= max_retries:
            pending.append(group_id)  # retry on a fresh worker
            return 0
        fail(
            group_list[group_id],
            failures[group_id],
            f"{cause} after {failures[group_id]} attempt(s)",
        )
        return 1
    try:
        while open_groups:
            # Replace the fallen and fill up to the target head count.
            retained = []
            for w in pool:
                if w.group_id is None and not w.process.is_alive():
                    w.shutdown()  # reap a worker that died between groups
                else:
                    retained.append(w)
            pool = retained
            target = min(workers, len(pending) + sum(w.group_id is not None for w in pool))
            while sum(w.process.is_alive() for w in pool) < target:
                pool.append(
                    _Worker(context, with_metrics, engine, latency_model, fault_model)
                )
            for worker in pool:
                if worker.group_id is None and pending and worker.process.is_alive():
                    group_id = pending.pop()
                    try:
                        worker.dispatch(group_id, group_list[group_id], task_timeout)
                    except Exception:
                        # Died between the liveness check and the send: the
                        # group was never attempted, but bounded accounting
                        # beats an unbounded requeue loop on a host that
                        # kills every fork.
                        worker.group_id = None
                        worker.shutdown()
                        open_groups -= crashed(
                            group_id,
                            f"worker died before receiving the group "
                            f"(exit code {worker.process.exitcode})",
                        )

            # Sleep until a result lands, a worker dies, or a deadline nears.
            busy = [w for w in pool if w.group_id is not None]
            # repro: lint-ok[D105] stall-detection clock — scheduling state, never reaches rows
            now = time.monotonic()
            deadlines = [w.deadline - now for w in busy if w.deadline is not None]
            wait = max(0.0, min([_POLL_SECONDS, *deadlines]))
            sentinels = [w.results for w in busy] + [w.process.sentinel for w in busy]
            if sentinels:
                multiprocessing.connection.wait(sentinels, timeout=wait)

            # repro: lint-ok[D105] stall-detection clock — scheduling state, never reaches rows
            now = time.monotonic()
            for worker in busy:
                group_id = worker.group_id
                stuck = False
                alive = worker.process.is_alive()
                if alive and not worker.results.poll():
                    if worker.deadline is None or now <= worker.deadline:
                        continue  # still working, within budget
                    # Stuck beyond the per-group budget: treat as dead.
                    worker.process.kill()
                    alive = False
                    stuck = True
                if alive:
                    try:
                        # The worker is the pipe's sole writer (see _Worker),
                        # so a death mid-message surfaces here as EOF/unpickle
                        # failure, never as an indefinitely blocked read.
                        status, payload = worker.results.recv()
                    except Exception:
                        alive = False  # died mid-write: fall through to crash handling
                    else:
                        worker.group_id = None
                        worker.deadline = None
                        if status == "error":
                            raise SweepError(payload)
                        for index, row, metrics in payload:
                            land(index, row, metrics)
                        open_groups -= 1
                        continue
                # The worker died holding this group.  Its result channel
                # may hold a torn message — discard it with the worker.
                # Attribute the fault correctly when giving up: a
                # supervisor kill at the deadline is a stuck driver, not a
                # crash, and the operator's remedy differs (raise the
                # timeout vs chase an OOM/segfault).
                worker.group_id = None
                worker.shutdown()
                open_groups -= crashed(
                    group_id,
                    f"worker stuck beyond task_timeout={task_timeout:g}s, killed"
                    if stuck
                    else f"worker died (exit code {worker.process.exitcode})",
                )
    finally:
        for worker in pool:
            if worker.group_id is None and worker.process.is_alive():
                try:
                    worker.tasks.send(None)  # polite shutdown for idle workers
                except Exception:
                    pass
        for worker in pool:
            worker.shutdown()


def run_sweep_spec(
    spec: SweepSpec,
    *,
    store: ResultSet | None = None,
    progress: Callable[[int, int, dict], None] | None = None,
) -> list[dict]:
    """Execute ``spec``, resuming against its store; return the tidy table.

    ``store`` overrides ``spec.output`` (handy for tests and in-memory
    runs); ``progress(completed, total, row)`` is invoked once per *newly
    executed* cell, where ``completed`` counts reused cells too.  Rows come
    back in cross-product order (scenario-major, then size, then seed) —
    identical at any worker count, with or without resume.

    A sharded spec (``shard_index``/``shard_count``) runs only its own
    partition of the cross product and, when ``spec.output`` is set, writes
    the derived shard store ``<output>.shard-<i>-of-<k>.jsonl`` — the
    canonical path stays free for :func:`repro.api.merge_shards`.

    A cell whose worker died or stalled beyond the retry budget comes back
    as a ``failed`` placeholder row (``row["status"] == "failed"``, see
    :func:`repro.api.resultset.failure_record`) rather than an exception or
    a hang; re-running the spec retries exactly those cells.  The store is
    always flushed and closed — on success, driver errors, and Ctrl-C
    alike.
    """
    from ..sim import experiments

    spec = spec.validate()
    if spec.scenarios is None:
        # "All registered" must include plugin scenarios, so force the
        # discovery scan; explicitly named scenarios defer it — an unknown
        # name triggers discovery lazily inside get_scenario, keeping the
        # common path free of the importlib.metadata scan.
        experiments.ensure_discovered()
    names = (
        list(spec.scenarios) if spec.scenarios is not None
        else experiments.list_scenarios()
    )
    # The fault-tolerance gate: never inject fault kinds an algorithm does
    # not declare surviving (AlgorithmSpec.fault_tolerance).  A catalog-wide
    # sweep auto-restricts to the tolerant scenarios (the CI faulted-smoke
    # contract); explicitly named non-tolerant scenarios are an error —
    # their oracles *will* fire — unless force_faults opts in.
    if spec.fault_model is not None:
        from ..sim.faults import parse_fault_model

        plane = parse_fault_model(spec.fault_model)
        fault_kinds = plane.kinds if plane is not None else frozenset()
        if fault_kinds:
            from .algorithms import get_algorithm_spec

            def _tolerant(name: str) -> bool:
                algo = get_algorithm_spec(experiments.get_scenario(name).algorithm)
                return fault_kinds <= frozenset(algo.fault_tolerance)

            if spec.scenarios is None:
                names = [name for name in names if _tolerant(name)]
                if not names:
                    raise SpecError(
                        f"sweep spec: no registered scenario declares tolerance "
                        f"for fault model {spec.fault_model!r}"
                    )
            elif not spec.force_faults:
                intolerant = [name for name in names if not _tolerant(name)]
                if intolerant:
                    raise SpecError(
                        f"sweep spec: fault_model {spec.fault_model!r} injects "
                        f"fault kinds the algorithms of {intolerant} do not "
                        f"declare tolerance for; drop them from scenarios or "
                        f"pass force_faults=True to watch them break"
                    )
    for name in names:
        scenario = experiments.get_scenario(name)  # fail fast, before forking
        if spec.engine == "round":
            # spec.validate() already rejected a round engine with an
            # explicit non-unit latency_model; a registered scenario can
            # carry its own non-unit model too, so check the effective one.
            from ..sim.events import canonical_latency

            effective = (
                spec.latency_model
                if spec.latency_model is not None
                else scenario.latency_model
            )
            if canonical_latency(effective) != "unit":
                raise SpecError(
                    f"sweep spec: scenario {name!r} uses latency model "
                    f"{effective!r}, which the synchronous 'round' engine "
                    f"cannot express; drop engine='round' or override "
                    f"latency_model='unit'"
                )
    if store is None:
        if spec.output and spec.shard_count is not None:
            store = ResultSet.open(
                shard_store_path(spec.output, spec.shard_index, spec.shard_count)
            )
        elif spec.output:
            store = ResultSet.open(spec.output)
        else:
            store = ResultSet()

    tasks = shard_cells(spec, names)
    total = len(tasks)
    rows: list[dict | None] = [None] * total
    pending: list[tuple[int, str, int, int]] = []
    # Resume keys carry the scenario-definition digest: a store written
    # under different params for the same scenario name misses the lookup,
    # so its stale cells re-run instead of silently polluting the table.
    digests = {
        name: experiments.scenario_digest(
            experiments.get_scenario(name),
            latency_model=spec.latency_model,
            fault_model=spec.fault_model,
        )
        for name in names
    }
    for index, (name, n, seed) in enumerate(tasks):
        record = store.get((name, n, seed, digests[name]))
        if record is not None and "size" not in record:
            # Pre-"size" records were keyed by the BUILT size, which is
            # ambiguous on families that round the request (an n=9 grid
            # row could answer size 9 or size 12).  Like pre-digest
            # records, they are re-run rather than trusted; the fresh
            # record supersedes the stale row in the store.
            record = None
        if record is not None:
            rows[index] = _tidy(record, experiments.ROW_FIELDS)
        else:
            pending.append((index, name, n, seed))

    completed = total - len(pending)

    # Serialized metrics only matter when they will outlive the run — an
    # in-memory store is discarded with its records, so skip the O(E log E)
    # per-cell serialization (and the pool-pipe traffic) on that path.
    with_metrics = store.path is not None

    def land(index: int, row: dict, metrics: dict | None) -> None:
        nonlocal completed
        store.append({**row, "metrics": metrics} if with_metrics else dict(row))
        rows[index] = row
        completed += 1
        if progress is not None:
            progress(completed, total, row)

    def fail(group: list, attempts: int, message: str) -> None:
        nonlocal completed
        for index, name, n, seed in group:
            record = failure_record(name, n, seed, digests[name], message, attempts)
            store.append(record)
            rows[index] = record
            completed += 1
            if progress is not None:
                progress(completed, total, record)

    # Group pending cells by graph-instance key (first-seen order) so each
    # group lands on one worker and hits its per-process graph cache.
    groups: dict[tuple, list[tuple[int, str, int, int]]] = {}
    for index, name, n, seed in pending:
        key = experiments._instance_key(experiments.get_scenario(name), n, seed)
        groups.setdefault(key, []).append((index, name, n, seed))
    group_list = list(groups.values())

    parallel = spec.workers > 1 and len(group_list) > 1
    context = None
    if parallel:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None  # no fork on this platform: run sequentially
    # try/finally, not context managers alone: the store must flush and
    # close on *every* exit — success, a driver exception, or Ctrl-C —
    # or buffered rows of an interrupted sweep would be lost.
    try:
        if context is not None:
            _run_groups_supervised(
                group_list,
                context=context,
                workers=min(spec.workers, len(group_list)),
                with_metrics=with_metrics,
                max_retries=spec.max_retries,
                task_timeout=spec.task_timeout,
                land=land,
                fail=fail,
                engine=spec.engine,
                latency_model=spec.latency_model,
                fault_model=spec.fault_model,
            )
        else:
            run_group = functools.partial(
                experiments._run_cell_group,
                with_metrics=with_metrics,
                engine=spec.engine,
                latency_model=spec.latency_model,
                fault_model=spec.fault_model,
            )
            for group in group_list:
                for index, row, metrics in run_group(group):
                    land(index, row, metrics)
    finally:
        store.close()
    return rows


def run_report_spec(spec: ReportSpec) -> str:
    """Compile the recorded tables per ``spec``; write ``spec.output`` if set."""
    from ..analysis.report import compile_report

    spec = spec.validate()
    text = compile_report(spec.results_dir)
    if spec.output:
        Path(spec.output).write_text(text)
    return text


def run_spec(spec: Spec, **kwargs):
    """Dispatch any spec to its executor (the ``kind``-tag single entry point)."""
    if isinstance(spec, SweepSpec):
        return run_sweep_spec(spec, **kwargs)
    if isinstance(spec, ReportSpec):
        return run_report_spec(spec, **kwargs)
    raise SpecError(f"no executor for spec of type {type(spec).__name__}")
