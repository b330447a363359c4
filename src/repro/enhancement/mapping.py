"""Mapping system and inverse mapping (Sec. 3.2.3).

The mapping system records, per column, the bijection from original category
values to their semantically enhanced representations.  Transformation applies
it forward to the training table; after synthesis the inverse mapping restores
the original label space so the synthetic data always comes back "in the same
format as the original data".  To prevent privacy leakage through the mapping
itself, the system supports explicit destruction after use.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from pathlib import Path

from repro.frame.table import Table


class MappingError(ValueError):
    """A mapping is invalid (not a bijection) or used after destruction."""


@dataclass
class ColumnMapping:
    """Bijective mapping for a single column."""

    column: str
    forward: dict = field(default_factory=dict)

    def __post_init__(self):
        self._check_bijective(self.forward)
        self._inverse = {v: k for k, v in self.forward.items()}

    @staticmethod
    def _check_bijective(forward: MappingABC) -> None:
        targets = list(forward.values())
        if len(set(map(str, targets))) != len(targets):
            raise MappingError("mapping targets must be unique within a column")

    @property
    def inverse(self) -> dict:
        """Enhanced value -> original value."""
        return dict(self._inverse)

    def apply(self, value):
        """Forward-map one value (unknown values pass through unchanged)."""
        return self.forward.get(value, value)

    def invert(self, value):
        """Inverse-map one value (unknown values pass through unchanged)."""
        return self._inverse.get(value, value)

    def covers(self, values) -> bool:
        """True when every non-missing value in *values* has a forward mapping."""
        return all(v in self.forward for v in values if v is not None)


class MappingSystem:
    """Collection of per-column mappings with forward/inverse table transforms."""

    def __init__(self):
        self._mappings: dict[str, ColumnMapping] = {}
        self._destroyed = False

    # -- construction ----------------------------------------------------------------

    def add(self, mapping: ColumnMapping) -> "MappingSystem":
        """Register a column mapping (replacing any existing one for the column)."""
        self._require_alive()
        self._mappings[mapping.column] = mapping
        return self

    def add_column(self, column: str, forward: MappingABC) -> "MappingSystem":
        """Convenience: register a mapping from a plain dict."""
        return self.add(ColumnMapping(column=column, forward=dict(forward)))

    # -- introspection ----------------------------------------------------------------

    @property
    def columns(self) -> list[str]:
        """Columns that have a registered mapping."""
        self._require_alive()
        return list(self._mappings.keys())

    @property
    def is_destroyed(self) -> bool:
        return self._destroyed

    def mapping_for(self, column: str) -> ColumnMapping:
        self._require_alive()
        if column not in self._mappings:
            raise MappingError("no mapping registered for column {!r}".format(column))
        return self._mappings[column]

    def all_targets(self) -> set:
        """Every enhanced representation across all columns.

        The differentiability guarantee is exactly that this set has one entry
        per (column, category) pair — no repeats.
        """
        self._require_alive()
        targets = []
        for mapping in self._mappings.values():
            targets.extend(mapping.forward.values())
        return set(targets)

    def guarantees_differentiability(self) -> bool:
        """True when no enhanced representation is shared across (column, category) pairs."""
        self._require_alive()
        targets = []
        for mapping in self._mappings.values():
            targets.extend(str(v) for v in mapping.forward.values())
        return len(set(targets)) == len(targets)

    # -- table transforms ----------------------------------------------------------------

    def transform(self, table: Table) -> Table:
        """Forward-map every registered column of *table*."""
        return self._map_columns(table, "apply")

    def inverse_transform(self, table: Table) -> Table:
        """Inverse-map every registered column of *table* back to the original labels."""
        return self._map_columns(table, "invert")

    def _map_columns(self, table: Table, method: str) -> Table:
        """One table whose registered columns are mapped by ``ColumnMapping.<method>``."""
        self._require_alive()
        mappings = self._mappings
        return Table([column.map(getattr(mappings[column.name], method))
                      if column.name in mappings else column
                      for column in table.columns])

    # -- persistence & destruction ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialisable representation (keys stringified for JSON round-trips)."""
        self._require_alive()
        return {
            column: {str(k): v for k, v in mapping.forward.items()}
            for column, mapping in self._mappings.items()
        }

    def save(self, path) -> Path:
        """Persist the mapping system as JSON (for audit before destruction)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str))
        return path

    @classmethod
    def load(cls, path) -> "MappingSystem":
        """Load a mapping system saved by :meth:`save`.

        JSON stringifies keys; integer-looking keys are parsed back to ints so
        label-encoded columns round-trip.
        """
        data = json.loads(Path(path).read_text())
        system = cls()
        for column, forward in data.items():
            parsed = {}
            for key, value in forward.items():
                try:
                    parsed_key = int(key)
                except (TypeError, ValueError):
                    parsed_key = key
                parsed[parsed_key] = value
            system.add_column(column, parsed)
        return system

    def destroy(self) -> None:
        """Erase all mappings (Sec. 3.2.3's post-synthesis privacy step).

        After destruction every operation raises :class:`MappingError`, so a
        leaked reference cannot be used to invert synthetic data back to the
        original label space.
        """
        self._mappings.clear()
        self._destroyed = True

    def _require_alive(self):
        if self._destroyed:
            raise MappingError("the mapping system has been destroyed after synthesis")
