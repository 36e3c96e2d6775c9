"""Append-only JSONL journal backend (``journal:///path.jsonl``)."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ...exceptions import OptimizationError
from ..trial import FrozenTrial
from .base import StoredStudy, StudyStorage, _encode_value, _decode_value, decode_trial, encode_trial


class JournalStorage(StudyStorage):
    """Append-only JSONL journal with crash-safe replay.

    One JSON record per line; four operations::

        {"op": "create", "study": ..., "directions": [...], "metadata": {...}}
        {"op": "meta",   "study": ..., "metadata": {...}}
        {"op": "start",  "study": ..., "number": n}
        {"op": "finish", "study": ..., "trial": {...full snapshot...}}

    Appends are flushed and fsynced, so a ``kill -9`` loses at most the
    line being written; replay skips any line that fails to decode
    (the torn tail) and applies records in order with last-write-wins
    per trial number.  Several studies can share one journal file.

    Replay cost grows with *history*, not with live trials — every
    re-told trial (resume re-runs, renumbering) adds a line.
    :meth:`compact` rewrites the file to its last-write-wins fixed
    point, making subsequent loads O(live trials) (DESIGN.md §7).
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self._file = None  # lazily opened append handle
        #: parsed-record cache keyed on (st_ino, st_size, st_mtime_ns) —
        #: the journal is append-only and fsynced, so the stat signature
        #: changes on every append, and an atomic-replace rewrite
        #: (:meth:`compact`) changes the inode even when size and mtime
        #: collide; avoids re-decoding the whole file for each of the
        #: several load_study/load_all calls a CLI run makes
        self._records_cache: tuple[tuple[int, int, int], list[dict[str, Any]]] | None = None

    # -- low-level record I/O ---------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        if self._file is not None:
            # Another process may have atomically rewritten the journal
            # (compact()) since this handle was opened; appending to the
            # unlinked old inode would silently discard the record, so
            # detect the swap and reopen.  (Records racing *inside* the
            # compaction window can still be lost — compact quiescent
            # studies; see compact().)
            try:
                same = os.fstat(self._file.fileno()).st_ino == self.path.stat().st_ino
            except FileNotFoundError:
                same = False
            if not same:
                self.close()
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        # NB: no sort_keys — params/distributions dict order is the
        # define-by-run suggestion order, and genetic samplers iterate it
        # when mapping RNG draws to parameters; reordering would break
        # resumed-run determinism.
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the append handle and drop the record cache.

        Both reopen/refill automatically on next use; dropping the cache
        here means a long-lived closed instance can never serve records
        decoded before another process rewrote the file.
        """
        if self._file is not None:
            self._file.close()
            self._file = None
        self._records_cache = None

    def _records(self) -> list[dict[str, Any]]:
        if not self.path.exists():
            return []
        stat = self.path.stat()
        signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if self._records_cache is not None and self._records_cache[0] == signature:
            return self._records_cache[1]
        records: list[dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a crash — replay past it
                if isinstance(rec, dict):
                    records.append(rec)
        self._records_cache = (signature, records)
        return records

    # -- StudyStorage interface -------------------------------------------

    def create_study(
        self, study_name: str, directions: list[str], metadata: dict[str, Any]
    ) -> None:
        if self.load_study(study_name) is not None:
            raise OptimizationError(
                f"study '{study_name}' already exists in {self.path}"
            )
        self._append(
            {
                "op": "create",
                "study": study_name,
                "directions": list(directions),
                "metadata": _encode_value(dict(metadata)),
            }
        )

    def load_study(self, study_name: str) -> StoredStudy | None:
        return self.load_all().get(study_name)

    def update_metadata(self, study_name: str, metadata: dict[str, Any]) -> None:
        if self.load_study(study_name) is None:
            raise OptimizationError(f"unknown study '{study_name}' in {self.path}")
        self._append(
            {"op": "meta", "study": study_name, "metadata": _encode_value(dict(metadata))}
        )

    def record_trial_start(self, study_name: str, trial: FrozenTrial) -> None:
        self._append({"op": "start", "study": study_name, "number": trial.number})

    def record_trial_finish(self, study_name: str, trial: FrozenTrial) -> None:
        self._append(
            {"op": "finish", "study": study_name, "trial": encode_trial(trial)}
        )

    def load_all(self) -> dict[str, StoredStudy]:
        studies: dict[str, StoredStudy] = {}
        for rec in self._records():
            op = rec.get("op")
            name = rec.get("study")
            if not isinstance(name, str):
                continue
            if op == "create":
                if name in studies:
                    continue  # duplicate create: first one wins
                studies[name] = StoredStudy(
                    name=name,
                    directions=[str(d) for d in rec.get("directions", [])],
                    metadata=_decode_value(rec.get("metadata", {})),
                )
            elif op == "meta" and name in studies:
                studies[name].metadata = _decode_value(rec.get("metadata", {}))
            elif op == "start" and name in studies:
                number = int(rec["number"])
                studies[name].trials_by_number[number] = FrozenTrial(number=number)
            elif op == "finish" and name in studies:
                trial = decode_trial(rec["trial"])
                studies[name].trials_by_number[trial.number] = trial
        return studies

    # -- compaction ---------------------------------------------------------

    def compact(self) -> tuple[int, int]:
        """Rewrite the journal to its last-write-wins fixed point.

        Resume re-runs and renumbering re-tell trials under their
        existing numbers, so a long-lived journal accumulates records
        replay immediately overwrites; replaying it costs O(history).
        Compaction keeps exactly what replay keeps — one ``create`` per
        study (first wins) and the final record per trial number (a full
        ``finish`` snapshot, or a bare ``start`` for trials that were
        still RUNNING, which resume must keep discarding) — so loading a
        compacted journal yields byte-identical study state at O(live
        trials) cost, and compacting a compacted journal is a no-op.

        The rewrite is crash-safe: records go to a sibling temp file,
        fsynced, then atomically ``os.replace``d over the journal — a
        kill at any point leaves either the old or the new file, never a
        mix.  Returns ``(records_before, records_after)``.

        Compact **quiescent** studies only: a concurrent writer's
        appends detect the inode swap and land in the rewritten file
        (see ``_append``), but a record committed *during* the
        compaction window itself — after this replay read, before the
        replace — is not in the rewrite and is lost.
        """
        before = len(self._records())
        studies = self.load_all()
        # The append handle (if open) points at the old inode; close it so
        # post-compaction appends land in the rewritten file.  This also
        # drops the record cache, which holds the pre-compaction decode.
        self.close()
        if not studies:
            return before, before

        tmp_path = self.path.with_name(self.path.name + ".compact.tmp")
        with open(tmp_path, "w", encoding="utf-8") as f:
            for name, stored in studies.items():
                f.write(
                    json.dumps(
                        {
                            "op": "create",
                            "study": name,
                            "directions": list(stored.directions),
                            "metadata": _encode_value(dict(stored.metadata)),
                        }
                    )
                    + "\n"
                )
                for trial in stored.trials:
                    if trial.state.is_finished():
                        rec = {"op": "finish", "study": name, "trial": encode_trial(trial)}
                    else:
                        rec = {"op": "start", "study": name, "number": trial.number}
                    f.write(json.dumps(rec) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, self.path)
        self._records_cache = None  # the path now names a different inode
        return before, len(self._records())
