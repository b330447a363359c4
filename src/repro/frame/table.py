"""Column-oriented in-memory table.

The :class:`Table` is the central data container of the reproduction: every
stage of the GReaTER pipeline (semantic enhancement, cross-table connecting,
textual encoding, fidelity evaluation) consumes and produces tables.  It is a
deliberately small, explicit subset of a DataFrame API — only the operations
the pipeline actually needs.

Row-level operations (filtering, sorting, grouping, de-duplication) take a
vectorized fast path when the involved columns live on a typed storage
backend (see :mod:`repro.frame.backend`) and fall back to the original
per-value Python code otherwise, so ``mixed`` columns and the forced
``"object"`` backend keep their exact legacy behaviour.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.frame.column import Column, coerce_value, is_missing
from repro.frame.errors import (
    ColumnNotFoundError,
    DuplicateColumnError,
    LengthMismatchError,
    SchemaError,
)


class Table:
    """An ordered collection of equally long named columns.

    Construct a table from columns::

        Table({"name": ["Grace", "Yin"], "lunch": [1, 2]})

    or from records::

        Table.from_records([{"name": "Grace", "lunch": 1}])

    A table without columns still has a row count: *num_rows* (0 by
    default), so ``select([])`` of an n-row table has n empty rows.  With
    columns, *num_rows* must match their length when given.
    """

    def __init__(self, columns: Mapping[str, Iterable] | Sequence[Column] | None = None,
                 *, num_rows: int | None = None):
        self._columns: "OrderedDict[str, Column]" = OrderedDict()
        # None until the first column fixes it
        self._rows = None if num_rows is None else int(num_rows)
        if columns is not None:
            if isinstance(columns, Mapping):
                items = [(name, values) for name, values in columns.items()]
            else:
                items = [(col.name, col) for col in columns]
            for name, values in items:
                column = values if isinstance(values, Column) else Column(name, values)
                if column.name != name:
                    column = column.rename(name)
                self._add_column_checked(column)
        if self._rows is None:
            self._rows = 0

    def _add_column_checked(self, column: Column) -> None:
        if column.name in self._columns:
            raise DuplicateColumnError(column.name)
        if self._rows is None:
            self._rows = len(column)
        elif len(column) != self._rows:
            raise LengthMismatchError(self._rows, len(column), name=column.name)
        self._columns[column.name] = column

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Mapping], columns: Sequence[str] | None = None) -> "Table":
        """Build a table from a sequence of row dictionaries.

        Column order follows *columns* when given, otherwise the key order of
        the first record.  Missing keys become ``None``.
        """
        records = list(records)
        if columns is None:
            names: list[str] = []
            seen = set()
            for record in records:
                for key in record:
                    if key not in seen:
                        seen.add(key)
                        names.append(key)
        else:
            names = list(columns)
        data = {name: [record.get(name) for record in records] for name in names}
        return cls(data)

    @classmethod
    def from_columns(cls, columns: Sequence[Column]) -> "Table":
        """Build a table from :class:`Column` objects."""
        return cls(columns)

    def copy(self) -> "Table":
        """Return a deep-enough copy (new column objects, new storage)."""
        return Table([
            Column._from_backend(name, col._backend.copy(), col.dtype)
            for name, col in self._columns.items()
        ], num_rows=self.num_rows)

    # -- introspection ------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns.keys())

    @property
    def columns(self) -> list[Column]:
        """Column objects in order."""
        return list(self._columns.values())

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns)."""
        return (self.num_rows, self.num_columns)

    def dtypes(self) -> dict[str, str]:
        """Mapping from column name to logical dtype."""
        return {name: col.dtype for name, col in self._columns.items()}

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            return self.select(key)
        if isinstance(key, slice):
            indices = range(*key.indices(self.num_rows))
            return self.take(list(indices))
        raise TypeError(
            "table indices must be a column name, a list of column names or a slice, "
            "got {!r}".format(key)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or self.num_rows != other.num_rows:
            return False
        return all(self._columns[name] == other._columns[name] for name in self._columns)

    def __repr__(self) -> str:
        return "Table(rows={}, columns={})".format(self.num_rows, self.column_names)

    def column(self, name: str) -> Column:
        """Return the column called *name* or raise :class:`ColumnNotFoundError`."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.column_names) from None

    def row(self, index: int) -> dict:
        """Return row *index* as an ordered dict of ``{column: value}``."""
        if index < -self.num_rows or index >= self.num_rows:
            raise IndexError("row index {} out of range for {} rows".format(index, self.num_rows))
        return {name: col[index] for name, col in self._columns.items()}

    def iter_rows(self):
        """Yield each row as a dict, in order."""
        if not self._columns:
            for _ in range(self._rows):
                yield {}
            return
        names = self.column_names
        value_lists = [col.values for col in self._columns.values()]
        for row in zip(*value_lists):
            yield dict(zip(names, row))

    def to_records(self) -> list[dict]:
        """All rows as a list of dicts."""
        return list(self.iter_rows())

    def to_dict(self) -> dict[str, list]:
        """Column-oriented dict of value lists."""
        return {name: col.values for name, col in self._columns.items()}

    def head(self, n: int = 5) -> "Table":
        """The first *n* rows."""
        return self[:n]

    # -- column-level manipulation -------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Return a new table containing only *names*, in the given order."""
        return Table([self.column(name) for name in names], num_rows=self.num_rows)

    def drop(self, names: Sequence[str] | str) -> "Table":
        """Return a new table without the given column(s)."""
        if isinstance(names, str):
            names = [names]
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, self.column_names)
        keep = [name for name in self.column_names if name not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a new table with columns renamed according to *mapping*."""
        for old in mapping:
            if old not in self._columns:
                raise ColumnNotFoundError(old, self.column_names)
        new_names = [mapping.get(name, name) for name in self.column_names]
        if len(set(new_names)) != len(new_names):
            raise DuplicateColumnError(
                next(n for n in new_names if new_names.count(n) > 1)
            )
        return Table([
            self._columns[old].rename(new) for old, new in zip(self.column_names, new_names)
        ], num_rows=self.num_rows)

    def with_column(self, name: str, values: Iterable) -> "Table":
        """Return a new table with column *name* added or replaced."""
        column = values if isinstance(values, Column) and values.name == name else Column(name, values)
        if self._columns and len(column) != self.num_rows:
            raise LengthMismatchError(self.num_rows, len(column), name=name)
        columns = [column if existing == name else self._columns[existing]
                   for existing in self.column_names]
        if name not in self._columns:
            columns.append(column)
        return Table(columns)

    def map_column(self, name: str, func) -> "Table":
        """Return a new table with *func* applied to every value of column *name*."""
        return self.with_column(name, [func(v) for v in self.column(name)])

    def reorder(self, names: Sequence[str]) -> "Table":
        """Return a new table with columns ordered as *names* (must be a permutation)."""
        if sorted(names) != sorted(self.column_names):
            raise SchemaError(
                "reorder requires a permutation of the existing columns; "
                "got {} for table with {}".format(list(names), self.column_names)
            )
        return self.select(names)

    # -- row-level manipulation ----------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a new table with the rows at *indices* (in the given order)."""
        if not isinstance(indices, np.ndarray):
            indices = np.asarray(list(indices), dtype=np.intp)
        return Table([col.take(indices) for col in self._columns.values()],
                     num_rows=len(indices))

    def filter(self, predicate) -> "Table":
        """Return the rows for which ``predicate(row_dict)`` is truthy."""
        indices = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.take(indices)

    def where(self, name: str, value) -> "Table":
        """Return the rows whose column *name* equals *value*.

        Missing values (``None``/NaN) match each other, in line with the
        substrate's single missing-value definition.
        """
        column = self.column(name)
        if is_missing(value):
            value = None
        indices = column._indices_equal(value)
        if indices is None:
            indices = [i for i, v in enumerate(column) if v == value]
        return self.take(indices)

    def where_in(self, name: str, values: Iterable) -> "Table":
        """Return the rows whose column *name* is a member of *values*."""
        allowed = {None if is_missing(v) else v for v in values}
        column = self.column(name)
        indices = column._indices_isin(allowed)
        if indices is None:
            indices = [i for i, v in enumerate(column) if v in allowed]
        return self.take(indices)

    def sort_by(self, name: str, reverse: bool = False) -> "Table":
        """Return a new table sorted by column *name* (stable sort, missing last —
        or first when *reverse* is true, matching the previous tuple-key sort)."""
        column = self.column(name)
        indices = column._argsort_indices(reverse)
        if indices is None:
            indices = sorted(
                range(self.num_rows),
                key=lambda i: (column[i] is None, column[i]),
                reverse=reverse,
            )
        return self.take(indices)

    def drop_duplicates(self, subset: Sequence[str] | None = None) -> "Table":
        """Return a new table with duplicate rows removed (first occurrence kept).

        This is the "reduce dimension" primitive of the Cross-table Connecting
        Method (Sec. 3.3.2): once an independent column is removed, repeated
        rows collapse and the flattened table shrinks.
        """
        names = list(subset) if subset is not None else self.column_names
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, self.column_names)
        cols = [self.column(name) for name in names]
        if cols and self.num_rows and all(col.is_vectorized for col in cols):
            indices = _first_occurrence_indices(cols)
            if indices is not None:
                return self.take(indices)
        seen = set()
        indices = []
        for i in range(self.num_rows):
            key = tuple(col[i] for col in cols)
            if key not in seen:
                seen.add(key)
                indices.append(i)
        return self.take(indices)

    def sample_rows(self, n: int, rng: random.Random | None = None, replace: bool = True) -> "Table":
        """Return *n* rows sampled uniformly (with replacement by default)."""
        rng = rng or random.Random()
        if self.num_rows == 0:
            raise ValueError("cannot sample from an empty table")
        if replace:
            indices = [rng.randrange(self.num_rows) for _ in range(n)]
        else:
            if n > self.num_rows:
                raise ValueError(
                    "cannot sample {} rows without replacement from {} rows".format(n, self.num_rows)
                )
            indices = rng.sample(range(self.num_rows), n)
        return self.take(indices)

    def shuffle(self, rng: random.Random | None = None) -> "Table":
        """Return a new table with the rows in random order."""
        rng = rng or random.Random()
        indices = list(range(self.num_rows))
        rng.shuffle(indices)
        return self.take(indices)

    # -- grouping -----------------------------------------------------------------

    def group_by(self, name: str) -> "OrderedDict":
        """Group rows by the value of column *name*.

        Returns an ordered mapping from group key to sub-:class:`Table`, with
        keys in first-seen order.  This is the primitive behind contextual
        variable detection and per-subject bootstrap pools.
        """
        return OrderedDict(
            (key, self.take(indices)) for key, indices in self.group_indices(name).items()
        )

    def group_indices(self, name: str) -> "OrderedDict":
        """Like :meth:`group_by` but returning row indices instead of sub-tables.

        Index lists are ascending; keys (including ``None`` for missing
        values) appear in first-seen order, like a dict keyed on raw values.
        """
        column = self.column(name)
        groups: "OrderedDict[object, list[int]]" = OrderedDict()
        if column.is_vectorized and self.num_rows:
            codes, keys = column._codes_with_missing()
            # numpy's radix sort is ~8x faster on 16-bit keys, and group
            # cardinality rarely exceeds the uint16 range
            sort_codes = codes.astype(np.uint16) if len(keys) <= 0xFFFF else codes
            order = np.argsort(sort_codes, kind="stable")
            # every key occurs at least once and codes are first-seen
            # ordered, so the sorted codes split into len(keys) runs whose
            # boundaries np.unique hands back directly
            starts = np.unique(codes[order], return_index=True)[1]
            flat = order.tolist()
            bounds = starts.tolist() + [len(flat)]
            for index, key in enumerate(keys):
                groups[key] = flat[bounds[index]:bounds[index + 1]]
            return groups
        for i, value in enumerate(column):
            groups.setdefault(value, []).append(i)
        return groups

    def unique_values(self, name: str) -> list:
        """Distinct non-missing values of column *name*, in first-seen order."""
        return self.column(name).unique()

    # -- equality helpers ----------------------------------------------------------

    def equals_ignoring_order(self, other: "Table") -> bool:
        """True when both tables contain the same multiset of rows and columns."""
        if not isinstance(other, Table):
            return False
        if sorted(self.column_names) != sorted(other.column_names):
            return False
        names = sorted(self.column_names)
        mine = sorted(tuple(row[n] for n in names) for row in self.iter_rows())
        theirs = sorted(tuple(row[n] for n in names) for row in other.iter_rows())
        return mine == theirs


def _first_occurrence_indices(cols: Sequence[Column]) -> np.ndarray | None:
    """Ascending indices of the first occurrence of each distinct row.

    Dictionary-encodes every column (missing values get their own key, like a
    Python dict keyed on raw values) and combines the per-column codes into a
    single mixed-radix row key.  Returns ``None`` when the key space is too
    large for an int64 radix encoding.
    """
    combined = None
    radix = 1
    for col in cols:
        codes, keys = col._codes_with_missing()
        cardinality = max(len(keys), 1)
        if radix * cardinality >= 2 ** 62:
            return None
        radix *= cardinality
        combined = codes if combined is None else combined * cardinality + codes
    first = np.unique(combined, return_index=True)[1]
    first.sort()
    return first
