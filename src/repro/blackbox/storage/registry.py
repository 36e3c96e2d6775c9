"""URL-scheme registry: one string names any storage backend.

Everywhere the API takes a storage — ``create_study``,
``OptimizationRunner.run_blackbox``, ``PipelinedDispatcher``, the CLI's
``--storage``/``--journal`` flags — a spec string is accepted and
resolved here (DESIGN.md §7)::

    journal:///study.jsonl      append-only JSONL journal (relative path)
    journal:////abs/study.jsonl   …absolute path (SQLAlchemy convention)
    sqlite:///study.db          relational SQLite backend
    memory://                   process-local in-memory backend
    study.jsonl                 bare path: .db/.sqlite/.sqlite3 → sqlite,
                                anything else → journal

``resolve_storage`` passes :class:`StudyStorage` instances through
untouched, so every call site upgrades from "path argument" to "spec or
backend" without a signature change.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

from ...exceptions import OptimizationError
from .base import StudyStorage
from .journal import JournalStorage
from .memory import InMemoryStorage
from .sqlite import SQLiteStorage

#: file extensions that make a bare path resolve to the SQLite backend
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: scheme name → factory taking the path portion of the URL
_SCHEMES: dict[str, Callable[[str], StudyStorage]] = {
    "journal": JournalStorage,
    "sqlite": SQLiteStorage,
    "memory": lambda path: InMemoryStorage(),
}


def register_scheme(name: str, factory: Callable[[str], StudyStorage]) -> None:
    """Register a custom ``scheme://`` factory (overwrites silently)."""
    _SCHEMES[name] = factory


def _split_url(spec: str) -> "tuple[str, str] | None":
    """``(scheme, path)`` for URL specs, ``None`` for bare paths."""
    if "://" not in spec:
        return None
    scheme, rest = spec.split("://", 1)
    # SQLAlchemy-style paths: sqlite:///rel.db → "rel.db",
    # sqlite:////abs/s.db → "/abs/s.db"; a hostless "scheme://rel.db"
    # is accepted as the relative path too.
    if rest.startswith("/"):
        rest = rest[1:]
    return scheme.lower(), rest


def storage_from_url(spec: "str | os.PathLike[str]") -> StudyStorage:
    """Resolve a storage spec string (or bare path) to a backend."""
    spec = os.fspath(spec)
    parts = _split_url(spec)
    if parts is None:  # bare path: pick the backend from the extension
        suffix = Path(spec).suffix.lower()
        factory = SQLiteStorage if suffix in _SQLITE_SUFFIXES else JournalStorage
        return factory(spec)
    scheme, path = parts
    if scheme not in _SCHEMES:
        raise OptimizationError(
            f"unknown storage scheme '{scheme}://' in {spec!r} "
            f"(known: {', '.join(sorted(_SCHEMES))})"
        )
    if scheme != "memory" and not path:
        raise OptimizationError(f"storage spec {spec!r} names no path")
    return _SCHEMES[scheme](path)


#: historical name for opening a study store by spec, kept for its callers
open_study_storage = storage_from_url


def resolve_storage(
    spec: "StudyStorage | str | os.PathLike[str] | None",
) -> StudyStorage | None:
    """The one resolution path every storage-accepting API goes through.

    ``None`` and ready-made :class:`StudyStorage` instances pass
    through; strings and paths resolve via the scheme registry.
    """
    if spec is None or isinstance(spec, StudyStorage):
        return spec
    return storage_from_url(spec)
