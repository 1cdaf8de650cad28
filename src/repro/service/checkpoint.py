"""Record store for service checkpoints.

:meth:`repro.service.online.DecisionService.checkpoint` persists the
per-function scheduler state -- the KDM's
:class:`~repro.core.kdm.RetiredFunction` archives and the arrival
estimators -- as two :class:`CheckpointStore` directories under the
checkpoint directory, and :meth:`~repro.service.online.DecisionService.restore`
reads them back. A store is pickled records in a flat directory, one
file per function, plus a name -> filename manifest that the checkpoint
writes into its ``manifest.json``. Records round-trip losslessly --
numpy arrays, RNG bit-generator state dicts and counter keys all pickle
exactly -- so a restored service decides bit-identically to one that
never stopped (``tests/test_service.py``). Like the runtime pickle, the
files are trusted local state: restore only checkpoints this service
wrote.

Files use sequential names rather than the function name: function
names are workload-controlled strings and must not reach the
filesystem namespace (length limits, separators, case-folding
collisions). Each new store writes into its own unique subdirectory of
``root`` (``mkdtemp``), so repeated checkpoints into one directory
never clobber each other's records.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile


class CheckpointStore:
    """Pickle-per-record directory with an in-memory name index."""

    def __init__(self, root: str | os.PathLike) -> None:
        base = pathlib.Path(root)
        base.mkdir(parents=True, exist_ok=True)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=base))
        self._paths: dict[str, pathlib.Path] = {}
        self._seq = 0

    def put(self, name: str, record: object) -> None:
        """Write one record (each name once per store)."""
        path = self.root / f"archive-{self._seq:08d}.pkl"
        self._seq += 1
        with open(path, "wb") as fh:
            pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._paths[name] = path

    def peek(self, name: str) -> object:
        """Load one record; the file stays, so a checkpoint can be
        restored from more than once (e.g. a crash loop replaying it)."""
        with open(self._paths[name], "rb") as fh:
            return pickle.load(fh)

    def names(self) -> tuple[str, ...]:
        """Stored names in insertion order."""
        return tuple(self._paths)

    def manifest(self) -> dict[str, str]:
        """Name -> filename map (relative to :attr:`root`), for checkpoints.

        The name index lives only in memory; a checkpoint must persist
        it alongside the record files so :meth:`attach` can rebuild the
        store in a fresh process.
        """
        return {name: path.name for name, path in self._paths.items()}

    @classmethod
    def attach(
        cls, root: str | os.PathLike, files: dict[str, str]
    ) -> "CheckpointStore":
        """Open an existing store from its checkpoint manifest, for reading.

        Unlike the constructor this does not create a fresh
        subdirectory: ``root`` is the exact directory holding the
        record files and ``files`` is a prior :meth:`manifest`.
        """
        store = cls.__new__(cls)
        store.root = pathlib.Path(root)
        store._paths = {}
        for name, filename in files.items():
            path = store.root / filename
            if not path.is_file():
                raise FileNotFoundError(
                    f"checkpoint record missing: {path} (for {name!r})"
                )
            store._paths[name] = path
        return store
