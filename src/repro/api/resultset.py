"""Durable, streaming, resumable sweep-result stores.

A :class:`ResultSet` is an append-only JSONL file (or a purely in-memory
buffer when ``path=None``): one JSON object per line, one line per completed
``(scenario, size, seed, params_digest)`` cell.  Each record carries the tidy row fields
(:data:`repro.sim.experiments.ROW_FIELDS`) plus a ``"metrics"`` sub-object —
the full serialized :class:`~repro.sim.Metrics` of the run — so downstream
analysis never has to re-execute a cell to recover its cost profile.

Records are flushed line-by-line as cells finish, which makes the store
interruption-safe: a killed sweep leaves at most one truncated trailing
line, which :meth:`ResultSet.open` tolerates and drops on reload (a torn
line *mid*-file — a crash during a concurrent shard write, later appended
past — is skipped with a warning rather than aborting the load).  Resume
(:func:`repro.api.run_sweep_spec`) is key-based — :func:`cell_key` maps a
record to its cell — so finished work is never re-run and the reassembled
table is identical to an uninterrupted run.

Two record classes share the file.  A *successful* record is a tidy row;
a *``failed``* record (``"status": "failed"``, see :func:`failure_record`)
marks a cell whose worker died or timed out beyond the retry budget.
Failed cells are excluded from :meth:`rows`, :meth:`get` and
:meth:`completed` — so tables never mix measurements with placeholders and
a resumed run retries them — and a successful record for the same cell
coordinates supersedes the failure.  :meth:`merge` recombines shard stores
(``<output>.shard-i-of-k.jsonl``, see :mod:`repro.api.shard`) under the
same rules, which makes the merge idempotent.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

__all__ = ["ResultSet", "cell_key", "failure_record", "is_failure"]

#: Marker value of the ``status`` field of a failed-cell record.
FAILED = "failed"


def cell_key(row: dict) -> tuple:
    """The resume key of a record: ``(scenario, size, seed, params_digest)``.

    ``size`` is the *requested* sweep size, not ``row["n"]`` (the built
    instance's node count): graph families may round the request — a grid
    at size 12 builds a 3x3 = 9-node instance — and keying on the actual
    count made every resume lookup miss on such families, silently
    re-running their cells on each resume.  Records from pre-``size``
    stores fall back to ``row["n"]`` (identical whenever the family honors
    the request exactly).

    ``params_digest`` (:func:`repro.sim.experiments.scenario_digest`) pins
    the scenario *definition* — family, algorithm, ``max_weight``, params —
    the cell was computed under.  Without it, resuming a store after a
    scenario's params changed would silently reuse rows computed under the
    old definition; with it, stale cells simply miss the lookup and re-run.
    Records from pre-digest stores key with ``""`` — never matching a
    current definition, so they are re-run rather than trusted.
    """
    return (
        row["scenario"],
        row.get("size", row["n"]),
        row["seed"],
        row.get("params_digest", ""),
    )


def is_failure(record: dict) -> bool:
    """Whether ``record`` is a failed-cell placeholder, not a measurement."""
    return record.get("status") == FAILED


def failure_record(
    scenario: str, n: int, seed: int, params_digest: str, error: str, attempts: int
) -> dict:
    """A ``failed`` placeholder row for a cell the executor gave up on.

    Carries the full resume key plus the last observed ``error`` and the
    number of dispatch ``attempts``, so a merged table documents *why* the
    cell is missing; a later resume retries the cell (failures never
    satisfy a resume lookup) and its success supersedes this record.
    """
    return {
        "scenario": scenario,
        "n": n,
        "seed": seed,
        "size": n,  # the requested size IS the cell address (no graph built)
        "params_digest": params_digest,
        "status": FAILED,
        "error": error,
        "attempts": attempts,
    }


class ResultSet:
    """An append-only store of sweep records with key-based resume.

    ``path=None`` keeps records in memory only.  With a path, every
    :meth:`append` writes and flushes one JSONL line, and construction
    loads any records a previous (possibly interrupted) run left behind.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._rows: list[dict] = []
        self._by_key: dict[tuple, dict] = {}
        # (scenario, n, seed) -> index into _rows, for superseding stale
        # rows recorded under an older scenario definition (digest).
        self._by_coords: dict[tuple, int] = {}
        # (scenario, n, seed) -> failed-cell record; a success at the same
        # coordinates evicts the failure.
        self._failed: dict[tuple, dict] = {}
        self._handle = None
        if self.path is not None and self.path.exists():
            self._load()

    @classmethod
    def open(cls, path: str | Path) -> "ResultSet":
        """Open (creating parent directories) a persistent store at ``path``."""
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        return cls(target)

    def _load(self) -> None:
        # Work on raw bytes so torn-tail truncation offsets are exact on
        # every platform (text mode would newline-translate and shift them).
        raw = self.path.read_bytes()
        lines = raw.decode("utf-8").splitlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except ValueError:
                # A truncated trailing line is the signature of an
                # interrupted run — drop it and resume from the cell
                # before.  Truncate it away on disk too, so the next
                # append starts a fresh line instead of concatenating onto
                # the torn JSON.
                if index == len(lines) - 1 and not raw.endswith(b"\n"):
                    with self.path.open("rb+") as handle:
                        handle.truncate(raw.rfind(b"\n") + 1)
                    break
                # A torn line *mid*-file means a writer crashed and a later
                # run appended past the wreckage (e.g. concurrent shard
                # writes).  Only that one cell is lost — skip it loudly and
                # keep every intact record; the cell re-runs on resume.
                warnings.warn(
                    f"{self.path}:{index + 1}: skipping corrupt result line "
                    f"{stripped[:80]!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._remember(record)

    def _remember(self, record: dict) -> bool:
        """Fold ``record`` into the indexes; True if it changed the store."""
        key = cell_key(record)
        coords = key[:3]  # (scenario, n, seed), digest-independent
        if is_failure(record):
            if coords in self._by_coords or coords in self._failed:
                return False  # a success (or the first failure) wins
            self._failed[coords] = record
            return True
        if key in self._by_key and not (
            "size" in record and "size" not in self._by_key[key]
        ):
            return False  # first write wins: resumed runs may not duplicate cells
        self._failed.pop(coords, None)  # a real measurement beats a placeholder
        index = self._by_coords.get(coords)
        if index is None and "size" in record:
            # A pre-"size" record may sit at this cell's *built*-size
            # address (families that round the request — grid 12 -> 9 nodes
            # — were recorded under n).  Such records are never reused by
            # resume (the addressing is ambiguous: an n=9 legacy row could
            # be the size-9 cell or the size-12 cell), so the first fresh
            # record whose built size matches recycles the stale slot in
            # place — rows() must not keep the superseded measurement
            # beside its replacement.  A record at that address that *has*
            # a size field is a genuinely different live cell (the built
            # size requested exactly) and is left alone.
            legacy_coords = (record["scenario"], record["n"], record["seed"])
            legacy = self._by_coords.get(legacy_coords)
            if legacy is not None and "size" not in self._rows[legacy]:
                index = self._by_coords.pop(legacy_coords)
                self._by_coords[coords] = index
        if index is not None:
            # Same cell coordinates under a *different* scenario definition:
            # the newer record supersedes the stale one in place (keeping
            # the cell's original position — O(1) per supersede), so rows()
            # never mixes old-params and new-params results for one cell.
            # The stale JSONL line stays on disk; reloading replays the
            # appends in order and converges on the same survivor.
            del self._by_key[cell_key(self._rows[index])]
            self._rows[index] = record
        else:
            self._by_coords[coords] = len(self._rows)
            self._rows.append(record)
        self._by_key[key] = record
        return True

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Add one cell record (measurement or failure), streaming it to disk.

        Duplicates — a key already stored, or a failure for a cell that
        already has any record — are ignored without touching the file,
        which is what makes shard merges idempotent.
        """
        if not self._remember(record):
            return
        if self.path is not None:
            if self._handle is None:
                # newline="\n" keeps the on-disk format identical across
                # platforms (and the torn-tail byte math exact).
                self._handle = self.path.open("a", newline="\n")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def merge(cls, output: str | Path, shards: list) -> "ResultSet":
        """Recombine ``shards`` (store paths) into the store at ``output``.

        Successful records from every shard land first, then failures —
        so a cell that failed on one shard but succeeded on another (an
        overlapping or re-run shard) merges as the measurement, never the
        placeholder.  All appends dedupe on the digest resume keys, so
        overlapping shards and repeated merges are harmless; the merged
        store is returned closed, ready for a resume pass or analysis.
        """
        sources = [cls(Path(path)) for path in shards]
        merged = cls.open(output)
        try:
            for source in sources:
                for record in source.rows():
                    merged.append(record)
            for source in sources:
                for record in source.failures():
                    merged.append(record)
        finally:
            merged.close()
        return merged

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def rows(self) -> list[dict]:
        """All successful records, one per ``(scenario, n, seed)`` cell.

        Cells appear in first-append order; a cell re-run under a changed
        scenario definition supersedes its stale predecessor in place, so
        tables and fits built from a store never double-count a cell.
        Failed-cell placeholders are excluded — see :meth:`failures`.
        """
        return list(self._rows)

    def failures(self) -> list[dict]:
        """The ``failed`` placeholder records of cells the executor gave up on."""
        return list(self._failed.values())

    def get(self, key: tuple) -> dict | None:
        """The successful record for cell ``key``, or ``None`` if not yet run.

        Failed cells return ``None`` on purpose: a resume pass must retry
        them, not trust the placeholder.
        """
        return self._by_key.get(key)

    def completed(self) -> set[tuple]:
        """The set of finished :func:`cell_key` tuples (the resume index)."""
        return set(self._by_key)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __contains__(self, key: tuple) -> bool:
        return key in self._by_key

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory"
        failed = f", {len(self._failed)} failed" if self._failed else ""
        return f"ResultSet({where!r}, {len(self)} rows{failed})"
