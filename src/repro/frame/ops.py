"""Relational operations over :class:`~repro.frame.Table`.

These are the primitives the Cross-table Connecting Method is built from:
joins (direct flattening of two child tables on the shared subject key),
row concatenation, value counts and contingency tables.

Each operation has a vectorized implementation used when the involved columns
live on typed storage backends, and falls back to the original record-based
code for ``mixed`` columns or the forced ``"object"`` backend.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.frame.backend import CategoricalBackend, NumericBackend
from repro.frame.column import Column
from repro.frame.errors import ColumnNotFoundError, SchemaError
from repro.frame.table import Table


def _disambiguate(names_left: Sequence[str], names_right: Sequence[str], on: str,
                  suffixes: tuple[str, str]) -> dict[str, str]:
    """Return a rename mapping for right-hand columns that clash with the left."""
    clash = (set(names_left) & set(names_right)) - {on}
    mapping = {}
    for name in names_right:
        if name == on:
            continue
        if name in clash:
            mapping[name] = name + suffixes[1]
        else:
            mapping[name] = name
    return mapping


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _join_row_indices(left_key: Column, right_key: Column,
                      keep_unmatched_left: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """Row index pairs realising the join, or ``None`` when not vectorizable.

    Returns ``(left_indices, right_indices)`` where unmatched left rows (only
    present under *keep_unmatched_left*) carry ``-1`` on the right.  Matches
    within a key keep the right table's row order, and output rows follow the
    left table's row order — exactly like the record-based join.
    """
    if not (left_key.is_vectorized and right_key.is_vectorized):
        return None
    lcodes, lkeys = left_key._codes_with_missing()
    rcodes, rkeys = right_key._codes_with_missing()
    n_left = lcodes.shape[0]
    n_lkeys = max(len(lkeys), 1)

    lookup = {key: code for code, key in enumerate(lkeys)}
    try:
        key_map = np.asarray([lookup.get(key, -1) for key in rkeys], dtype=np.int64)
    except TypeError:
        return None
    rmapped = key_map[rcodes] if len(rkeys) else np.full(rcodes.shape, -1, dtype=np.int64)

    matched = rmapped >= 0
    counts = np.bincount(rmapped[matched], minlength=n_lkeys)
    right_order = np.argsort(rmapped, kind="stable")
    right_sorted = right_order[int(np.count_nonzero(~matched)):]
    group_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    per_left = counts[lcodes]
    out_counts = np.maximum(per_left, 1) if keep_unmatched_left else per_left
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(n_left, dtype=np.intp), out_counts)
    block_starts = np.concatenate([[0], np.cumsum(out_counts)[:-1]])
    ramp = np.arange(total, dtype=np.int64) - np.repeat(block_starts, out_counts)
    right_pos = np.repeat(group_starts[lcodes], out_counts) + ramp
    if right_sorted.size:
        gathered = right_sorted[np.clip(right_pos, 0, right_sorted.size - 1)]
    else:
        gathered = np.zeros(total, dtype=np.int64)
    right_idx = np.where(np.repeat(per_left, out_counts) > 0, gathered, -1)
    return left_idx, right_idx.astype(np.intp)


def _assemble_join(left: Table, right: Table, on: str, right_rename: dict[str, str],
                   left_idx: np.ndarray, right_idx: np.ndarray) -> Table:
    columns = [col.take(left_idx) for col in left.columns]
    for name in right.column_names:
        if name == on:
            continue
        columns.append(right.column(name).take_or_missing(right_idx).rename(right_rename[name]))
    return Table(columns)


def _join_records(left: Table, right: Table, on: str, right_rename: dict[str, str],
                  out_columns: list[str], keep_unmatched_left: bool) -> Table:
    """The original record-based join, kept as the mixed-dtype fallback."""
    right_groups = right.group_indices(on)
    right_rows = right.to_records()
    records = []
    for left_row in left.iter_rows():
        key = left_row[on]
        matches = right_groups.get(key, [])
        if not matches and keep_unmatched_left:
            record = dict(left_row)
            for renamed in right_rename.values():
                record[renamed] = None
            records.append(record)
            continue
        for right_index in matches:
            right_row = right_rows[right_index]
            record = dict(left_row)
            for name, renamed in right_rename.items():
                record[renamed] = right_row[name]
            records.append(record)
    return Table.from_records(records, columns=out_columns)


def _join(left: Table, right: Table, on: str, suffixes: tuple[str, str],
          keep_unmatched_left: bool) -> Table:
    if on not in left.column_names:
        raise ColumnNotFoundError(on, left.column_names)
    if on not in right.column_names:
        raise ColumnNotFoundError(on, right.column_names)
    right_rename = _disambiguate(left.column_names, right.column_names, on, suffixes)
    indices = _join_row_indices(left.column(on), right.column(on), keep_unmatched_left)
    if indices is not None:
        return _assemble_join(left, right, on, right_rename, *indices)
    out_columns = list(left.column_names) + [
        right_rename[n] for n in right.column_names if n != on
    ]
    return _join_records(left, right, on, right_rename, out_columns, keep_unmatched_left)


def inner_join(left: Table, right: Table, on: str,
               suffixes: tuple[str, str] = ("_x", "_y")) -> Table:
    """Inner join of two tables on the key column *on*.

    This is the "direct flattening" operation of Sec. 3.3 (Fig. 4, step 0):
    every left row is paired with every right row that shares the key, so a
    2x5 table flattened with a 2x7 table on a shared subject can blow up to a
    13x... table and over-represent engaged subjects.
    """
    return _join(left, right, on, suffixes, keep_unmatched_left=False)


def left_join(left: Table, right: Table, on: str,
              suffixes: tuple[str, str] = ("_x", "_y")) -> Table:
    """Left join of two tables on the key column *on*.

    Rows of *left* with no match keep ``None`` for the right-hand columns.
    """
    return _join(left, right, on, suffixes, keep_unmatched_left=True)


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------

def _concat_column(name: str, parts: list[Column]) -> Column:
    """Stack column parts vertically, preserving typed storage when possible."""
    dtypes = {part.dtype for part in parts}
    if len(dtypes) == 1 and all(part.is_vectorized for part in parts):
        dtype = next(iter(dtypes))
        backends = [part._backend for part in parts]
        if all(isinstance(b, NumericBackend) for b in backends):
            data = np.concatenate([b.data for b in backends])
            if any(b.mask is not None for b in backends):
                mask = np.concatenate([b.validity() for b in backends])
                if data.dtype.kind == "f":
                    data[~mask] = np.nan
                    backend = NumericBackend(data)
                else:
                    backend = NumericBackend(data, mask)
            else:
                backend = NumericBackend(data)
            return Column._from_backend(name, backend, dtype)
        if all(isinstance(b, CategoricalBackend) for b in backends):
            categories: list = []
            index: dict = {}
            translated = []
            for b in backends:
                remap = np.empty(len(b.categories) + 1, dtype=np.int64)
                remap[-1] = -1
                for code, category in enumerate(b.categories):
                    unified = index.get(category)
                    if unified is None:
                        unified = len(categories)
                        index[category] = unified
                        categories.append(category)
                    remap[code] = unified
                translated.append(remap[b.codes])
            backend = CategoricalBackend(np.concatenate(translated), categories, index)
            return Column._from_backend(name, backend, dtype)
    merged: list = []
    for part in parts:
        merged.extend(part.values)
    return Column(name, merged)


def concat_rows(tables: Sequence[Table]) -> Table:
    """Stack tables that share the same column set vertically.

    Column order follows the first table; every subsequent table must have the
    same set of columns (order may differ).  Tables without columns only
    count when every input has none: then their row counts add up.
    """
    with_columns = [t for t in tables if t.num_columns > 0]
    if not with_columns:
        return Table(num_rows=sum(t.num_rows for t in tables))
    tables = with_columns
    reference = tables[0].column_names
    for table in tables[1:]:
        if sorted(table.column_names) != sorted(reference):
            raise SchemaError(
                "cannot concatenate tables with different columns: {} vs {}".format(
                    reference, table.column_names
                )
            )
    return Table([
        _concat_column(name, [table.column(name) for table in tables]) for name in reference
    ])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def ranked_value_counts(values, normalize: bool = False) -> "OrderedDict":
    """Occurrence counts of a value sequence, most frequent first.

    Ties keep first-seen order, exactly like ``Counter.most_common``.  Accepts
    any iterable; :class:`~repro.frame.column.Column` inputs on a typed
    backend count via their dictionary codes instead of hashing every value.
    """
    if getattr(values, "is_vectorized", False):
        codes, categories = values.factorize()
        counts = np.bincount(codes[codes >= 0], minlength=len(categories))
        order = np.argsort(-counts, kind="stable")
        ordered = OrderedDict((categories[i], int(counts[i])) for i in order)
    else:
        counter = Counter(v for v in values if v is not None)
        ordered = OrderedDict(counter.most_common())
    total = sum(ordered.values())
    if normalize and total > 0:
        return OrderedDict((k, v / total) for k, v in ordered.items())
    return ordered


def value_counts(table: Table, name: str, normalize: bool = False) -> "OrderedDict":
    """Occurrence counts (or frequencies) of column *name*, most frequent first."""
    return ranked_value_counts(table.column(name), normalize=normalize)


def crosstab(table: Table, row_name: str, col_name: str) -> tuple[np.ndarray, list, list]:
    """Contingency table of two columns.

    Returns ``(matrix, row_categories, col_categories)`` where ``matrix[i, j]``
    counts rows with ``row_name == row_categories[i]`` and
    ``col_name == col_categories[j]``.  This feeds Cramer's V and the chi-square
    test used to determine cross-table independence.
    """
    rows = table.column(row_name)
    cols = table.column(col_name)
    if rows.is_vectorized and cols.is_vectorized:
        row_codes, row_cats = rows.factorize()
        col_codes, col_cats = cols.factorize()
        valid = (row_codes >= 0) & (col_codes >= 0)
        n_cols = len(col_cats)
        flat = np.bincount(
            row_codes[valid] * n_cols + col_codes[valid],
            minlength=len(row_cats) * n_cols,
        )
        return flat.astype(float).reshape(len(row_cats), n_cols), row_cats, col_cats
    row_cats = rows.unique()
    col_cats = cols.unique()
    row_index = {value: i for i, value in enumerate(row_cats)}
    col_index = {value: j for j, value in enumerate(col_cats)}
    matrix = np.zeros((len(row_cats), len(col_cats)), dtype=float)
    for r, c in zip(rows, cols):
        if r is None or c is None:
            continue
        matrix[row_index[r], col_index[c]] += 1.0
    return matrix, row_cats, col_cats
