"""Dataset-specific transformation (Sec. 4.4.2).

Four DIGIX columns hold values like ``20^35^42^15^5`` — caret-separated lists
of product-category codes the user is interested (or uninterested) in.
Replacing the '^' separator with the word 'and' makes the value read like
natural language ("20 and 35 and 42"), which the paper shows improves the
lower end of the fidelity distribution.  The transform is invertible so the
synthetic output can be returned in the original caret format.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.table import Table

_SEPARATOR = "^"
_JOIN_WORD = " and "


def caret_to_and(value) -> str:
    """Rewrite '20^35^42' as '20 and 35 and 42' (non-strings pass through)."""
    if not isinstance(value, str) or _SEPARATOR not in value:
        return value
    parts = [part.strip() for part in value.split(_SEPARATOR) if part.strip() != ""]
    return _JOIN_WORD.join(parts)


def and_to_caret(value) -> str:
    """Inverse of :func:`caret_to_and` (non-strings and plain values pass through)."""
    if not isinstance(value, str) or _JOIN_WORD not in value:
        return value
    parts = [part.strip() for part in value.split(_JOIN_WORD) if part.strip() != ""]
    return _SEPARATOR.join(parts)


@dataclass
class CaretToAndTransform:
    """Apply the caret→'and' rewrite to an explicit set of columns.

    The columns default to ``None`` meaning "every string column containing a
    caret in at least one value" — which matches how the four interest columns
    were found in the original dataset.
    """

    columns: tuple[str, ...] | None = None

    def select_columns(self, table: Table) -> list[str]:
        """Columns to rewrite."""
        if self.columns is not None:
            missing = [name for name in self.columns if name not in table.column_names]
            if missing:
                raise KeyError("columns not in table: {}".format(missing))
            return list(self.columns)
        selected = []
        for name in table.column_names:
            column = table.column(name)
            if column.dtype == "str" and any(
                isinstance(v, str) and _SEPARATOR in v for v in column
            ):
                selected.append(name)
        return selected

    def transform(self, table: Table) -> Table:
        """Rewrite the selected columns of *table*."""
        return _map_columns(table, set(self.select_columns(table)), caret_to_and)

    def inverse_transform(self, table: Table) -> Table:
        """Restore the caret format on every column containing 'and'-joined lists."""
        names = self.columns if self.columns is not None else table.column_names
        return _map_columns(table, set(names), and_to_caret)


def _map_columns(table: Table, names: set[str], func) -> Table:
    """One table whose columns in *names* are mapped value by value by *func*."""
    return Table([column.map(func) if column.name in names else column
                  for column in table.columns])
