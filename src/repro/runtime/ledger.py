"""The journaled run ledger: crash-safe, resumable batch execution.

A :class:`RunLedger` is an append-only JSONL file that records a batch's
identity (one *header* record) followed by one *run* record per completed
:class:`~repro.runtime.spec.RunSpec` — its spec fingerprint, distilled
:class:`~repro.core.results.SimulationResult`, telemetry payload, and
attempt count. ``run_batch(..., ledger=path)`` journals as it goes;
``run_batch(..., ledger=path, resume=True)`` validates the header against
the batch being executed, replays every intact journaled run without
re-executing it, and submits only the remainder.

Guarantees
----------
* **Atomic appends.** Each record is one ``\\n``-terminated line written
  with a single ``write`` + ``flush`` + ``fsync``. A crash (SIGKILL, OOM,
  power loss) can tear at most the final line.
* **Torn tails are tolerated.** On load, a trailing record that does not
  parse as JSON (or was never newline-terminated) is truncated from the
  file and its run simply re-executes, so appends made after recovery
  always start on a fresh line — even across repeated crash/resume
  cycles. A corrupt record *before* an intact one means the file was
  edited, not torn — that is a hard :class:`~repro.errors.LedgerError`.
* **Fingerprinted headers.** The header carries the batch fingerprint
  (package version + ordered per-spec content hashes, which subsume each
  run's catalog identity). Resuming against a batch whose fingerprint
  differs is a hard error: a ledger never silently grafts results from
  one experiment onto another.
* **Byte-identical resumption.** Results round-trip through JSON with
  ``repr``-exact floats, so a resumed batch's final report is
  byte-identical to an uninterrupted run at any ``--jobs``.

The file format is documented in ``docs/RESUME.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.results import SimulationResult
from repro.errors import LedgerError
from repro.runtime.telemetry import RunTelemetry

__all__ = ["LEDGER_VERSION", "LedgerRecord", "LedgerState", "RunLedger", "resolve_ledger_path"]

#: Bumped when the record schema changes incompatibly.
LEDGER_VERSION = 1


@dataclasses.dataclass(frozen=True)
class LedgerRecord:
    """One journaled completed run."""

    index: int  #: submission-order position in the batch
    fingerprint: str  #: the run's spec content hash
    result: SimulationResult
    telemetry: RunTelemetry


@dataclasses.dataclass(frozen=True)
class LedgerState:
    """A loaded ledger: header fields plus every intact run record."""

    fingerprint: str  #: batch fingerprint from the header
    version: int  #: ledger schema version
    package_version: str
    runs: int  #: batch size recorded in the header
    records: Dict[int, LedgerRecord]
    dropped_torn_tail: bool  #: a torn trailing record was discarded


def resolve_ledger_path(ledger: Union[str, Path], fingerprint: str) -> Path:
    """Resolve a user-supplied ledger argument to a concrete file path.

    A directory (existing, or a path spelled with a trailing separator)
    holds one ledger per batch, named by batch fingerprint — this is what
    lets ``repro-experiments --ledger DIR`` journal the many independent
    batches one experiment run emits. Anything else is used verbatim as a
    single batch's ledger file.
    """
    path = Path(ledger)
    raw = str(ledger)
    # A trailing "/" spells directory intent on every platform; also honor
    # the native separators so "dir\\" works on Windows.
    trailing_sep = raw.endswith(("/", os.sep)) or (
        os.altsep is not None and raw.endswith(os.altsep)
    )
    if path.is_dir() or trailing_sep:
        path.mkdir(parents=True, exist_ok=True)
        return path / f"batch-{fingerprint[:16]}.jsonl"
    return path


def _header_fingerprint(path: Path) -> Optional[str]:
    """The batch fingerprint in ``path``'s header record, or ``None`` when
    the file is missing or its first line is not an intact header."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except OSError:
        return None
    if not first.endswith(b"\n"):
        return None
    try:
        record = json.loads(first.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("kind") != "header":
        return None
    fingerprint = record.get("fingerprint")
    return str(fingerprint) if fingerprint is not None else None


def _fields_to_dict(obj: Any) -> Dict[str, Any]:
    """A dataclass's fields as a dict, values shared rather than copied.

    ``json.dumps`` encodes this dict exactly as it encodes
    ``dataclasses.asdict(obj)`` (tuples become arrays either way, and
    neither record type nests a dataclass), without ``asdict``'s
    recursive deep copy of every trace-event dict.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(**data)


def _telemetry_from_dict(data: Dict[str, Any]) -> RunTelemetry:
    if data.get("trace_events") is not None:
        data["trace_events"] = tuple(data["trace_events"])
    # Replayed telemetry reports the *original* execution's facts
    # (wall clock, worker pid, attempts) plus the replay marker.
    data["replayed"] = True
    return RunTelemetry(**data)


class RunLedger:
    """Append-only journal of one batch's completed runs.

    Create with :meth:`start` (fresh file, header written immediately) or
    :meth:`load` (parse an existing file for resumption, then keep
    appending to it).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None

    # ------------------------------------------------------------- writing
    @classmethod
    def start(cls, path: Union[str, Path], fingerprint: str, runs: int) -> "RunLedger":
        """Create a fresh ledger and write its batch header.

        Refuses to overwrite an existing ledger whose header names the
        *same* batch fingerprint: that journal is resumable, and silently
        truncating it (e.g. a rerun that forgot ``--resume``) would
        irreversibly destroy completed work. A file holding a different
        batch — or unreadable garbage — is overwritten as before.
        """
        from repro._version import __version__

        ledger = cls(path)
        if _header_fingerprint(ledger.path) == fingerprint:
            raise LedgerError(
                f"ledger {ledger.path} already journals this exact batch; "
                "resume it with resume=True (--resume), or delete the file "
                "to discard the journaled runs and start over"
            )
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger._fh = open(ledger.path, "w", encoding="utf-8")
        ledger._append(
            {
                "kind": "header",
                "version": LEDGER_VERSION,
                "package_version": __version__,
                "fingerprint": fingerprint,
                "runs": runs,
            }
        )
        return ledger

    def record_run(
        self, index: int, fingerprint: str, result: SimulationResult, telemetry: RunTelemetry
    ) -> None:
        """Atomically append one completed run."""
        self._append(
            {
                "kind": "run",
                "index": index,
                "fingerprint": fingerprint,
                "attempts": telemetry.attempts,
                "result": _fields_to_dict(result),
                "telemetry": _fields_to_dict(telemetry),
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- reading
    @classmethod
    def load(cls, path: Union[str, Path]) -> Tuple["RunLedger", LedgerState]:
        """Parse an existing ledger for resumption.

        Returns the ledger (positioned to append further records) and its
        :class:`LedgerState`. Tolerates exactly one torn trailing line —
        unparseable, or never newline-terminated — which is **truncated
        from the file** so that later appends start on a fresh line
        (otherwise the first post-resume record would concatenate onto
        the fragment, corrupting the journal for every subsequent
        resume). Any other structural damage raises :class:`LedgerError`.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise LedgerError(f"cannot read ledger {path}: {exc}") from exc
        terminated = data.endswith(b"\n")
        lines = data.split(b"\n")
        if terminated:
            lines.pop()  # the empty sentinel after the final newline
        if not lines:
            raise LedgerError(f"ledger {path} is empty")

        parsed: list[Dict[str, Any]] = []
        intact_end = 0  # byte offset just past the last intact record
        dropped_torn_tail = False
        for lineno, raw_line in enumerate(lines, start=1):
            last = lineno == len(lines)
            try:
                record = json.loads(raw_line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError) as exc:
                if last:
                    # A crash mid-append tears at most the final line.
                    dropped_torn_tail = True
                    break
                raise LedgerError(
                    f"ledger {path} line {lineno} is corrupt (not a torn "
                    f"tail — the file was modified): {exc}"
                ) from exc
            if last and not terminated:
                # Parses, but the crash cut the trailing newline: the
                # append never completed, so the record is not durable.
                dropped_torn_tail = True
                break
            parsed.append(record)
            intact_end += len(raw_line) + 1

        if not parsed or parsed[0].get("kind") != "header":
            raise LedgerError(f"ledger {path} does not start with a header record")
        header = parsed[0]
        version = header.get("version")
        if version != LEDGER_VERSION:
            raise LedgerError(
                f"ledger {path} has schema version {version!r}; "
                f"this build reads version {LEDGER_VERSION}"
            )

        records: Dict[int, LedgerRecord] = {}
        for record in parsed[1:]:
            if record.get("kind") != "run":
                raise LedgerError(
                    f"ledger {path} contains unknown record kind {record.get('kind')!r}"
                )
            try:
                rec = LedgerRecord(
                    index=int(record["index"]),
                    fingerprint=str(record["fingerprint"]),
                    result=_result_from_dict(record["result"]),
                    telemetry=_telemetry_from_dict(record["telemetry"]),
                )
            except (KeyError, TypeError) as exc:
                raise LedgerError(
                    f"ledger {path} holds a malformed run record: {exc}"
                ) from exc
            records[rec.index] = rec

        state = LedgerState(
            fingerprint=str(header.get("fingerprint", "")),
            version=int(version),
            package_version=str(header.get("package_version", "")),
            runs=int(header.get("runs", 0)),
            records=records,
            dropped_torn_tail=dropped_torn_tail,
        )
        if dropped_torn_tail:
            # Cut the torn fragment out of the file *before* handing back
            # an append handle; appending after a fragment would weld new
            # JSON onto it, and the next load would reject the weld as
            # interior corruption.
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(intact_end)
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                raise LedgerError(
                    f"cannot truncate torn tail of ledger {path}: {exc}"
                ) from exc
        ledger = cls(path)
        return ledger, state
