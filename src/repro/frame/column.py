"""Column container and dtype inference.

A :class:`Column` is a named, immutable-length sequence of Python values with
an inferred logical dtype.  The GReaTER pipeline handles multi-modal data
(numbers, label-encoded categories and free strings side by side), so the
column exposes plain Python objects at its API boundary while delegating the
actual storage to a pluggable backend (:mod:`repro.frame.backend`): typed
ndarrays for ``int``/``float``/``bool``, dictionary-encoded arrays for
``str``, and the legacy object list for ``mixed`` data.

Missing values have one definition everywhere: ``None`` and float NaN both
count as missing (see :data:`MISSING_VALUES` and :func:`is_missing`) and are
surfaced as ``None``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.frame.backend import (
    DTYPES,
    MISSING_VALUES,
    CategoricalBackend,
    NumericBackend,
    backend_from_array,
    coerce_value,
    get_default_backend,
    infer_dtype,
    is_missing,
    make_backend,
)

__all__ = [
    "Column",
    "DTYPES",
    "MISSING_VALUES",
    "coerce_value",
    "infer_dtype",
    "is_missing",
]

#: Backwards-compatible alias; :func:`is_missing` is the public name.
_is_missing = is_missing


def _check_name(name) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError("column name must be a non-empty string")


#: dtypes of dictionaries whose entries all have one of these exact types,
#: which need no cleaning: none is missing or a NumPy scalar
_PLAIN_DTYPES = {str: "str", int: "int", bool: "bool"}


def _clean_entries(entries: list) -> tuple[list, str]:
    """*entries* cleaned as ``Column`` cleans values, and their dtype."""
    kinds = set(map(type, entries))
    if len(kinds) == 1 and next(iter(kinds)) in _PLAIN_DTYPES:
        return entries, _PLAIN_DTYPES[next(iter(kinds))]
    cleaned = [None if is_missing(v) else coerce_value(v) for v in entries]
    return cleaned, infer_dtype(cleaned)


def _typed_entries(cleaned: list, np_dtype) -> np.ndarray | None:
    """*cleaned* as an *np_dtype* array with a trailing missing slot, missing
    entries as zero placeholders; None when a value does not fit, where
    ``NumericBackend.from_values`` falls back to object storage."""
    try:
        return np.asarray([0 if v is None else v for v in cleaned] + [0], dtype=np_dtype)
    except (OverflowError, TypeError, ValueError):
        return None


class Column(Sequence):
    """A named sequence of values with an inferred logical dtype.

    Columns are value containers; all relational logic lives on
    :class:`repro.frame.Table`.
    """

    __slots__ = ("name", "_backend", "_dtype")

    def __init__(self, name: str, values: Iterable, dtype: str | None = None):
        _check_name(name)
        if dtype is not None and dtype not in DTYPES:
            raise ValueError("unknown dtype {!r}; expected one of {}".format(dtype, DTYPES))
        self.name = name

        if isinstance(values, np.ndarray):
            if dtype is None and get_default_backend() != "object":
                built = backend_from_array(values)
                if built is not None:
                    self._backend, self._dtype = built
                    return
            values = values.tolist()

        cleaned = [None if is_missing(v) else coerce_value(v) for v in values]
        self._dtype = dtype or infer_dtype(cleaned)
        self._backend = make_backend(cleaned, self._dtype)

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, dictionary: Sequence) -> "Column":
        """The column ``Column(name, [None if c < 0 else dictionary[c] for c in codes])``.

        *codes* index *dictionary* (negative means missing).  The result
        equals the value-built column in dtype, storage, category order,
        mask and NaN placement, but only the dictionary entries the codes
        use are cleaned and inspected: ``infer_dtype`` depends only on the
        kinds of values present, so it runs once over those entries, and
        the rows are gathered from them as arrays.  Mixed entries and the
        ``"object"`` policy take the value path.
        """
        _check_name(name)
        codes = np.asarray(codes, dtype=np.int64)
        distinct = dict.fromkeys(codes.tolist())
        missing_code = -1 in distinct
        distinct.pop(-1, None)
        used = list(distinct)
        if used and min(used) < 0:
            codes = np.maximum(codes, -1)
            missing_code = True
            used = [code for code in used if code >= 0]
        cleaned, dtype = _clean_entries([dictionary[code] for code in used])
        numbers = None
        if dtype in ("int", "bool"):
            numbers = _typed_entries(cleaned, np.int64 if dtype == "int" else np.bool_)
        if (dtype in ("mixed", "empty") or get_default_backend() == "object"
                or (dtype in ("int", "bool") and numbers is None)):
            return cls(name, [None if code < 0 else dictionary[code] for code in codes.tolist()])
        # lookup[code] -> slot; code -1 reads the last slot, which no
        # dictionary entry owns, so it holds the missing value
        lookup = np.full(len(dictionary) + 1, -1, dtype=np.int64)
        if dtype == "str":
            # equal entries share one category, in first-seen row order
            index: dict = {}
            lookup[used] = [-1 if value is None else index.setdefault(value, len(index))
                            for value in cleaned]
            return cls._from_backend(
                name, CategoricalBackend(lookup[codes], list(index), index), dtype)
        lookup[-1] = len(used)
        lookup[used] = range(len(used))
        slots = lookup[codes]
        if dtype == "float":
            table = np.asarray([math.nan if v is None else v for v in cleaned] + [math.nan],
                               dtype=np.float64)
            return cls._from_backend(name, NumericBackend(table[slots]), dtype)
        mask = None
        if missing_code or None in cleaned:
            mask = np.asarray([v is not None for v in cleaned] + [False], dtype=bool)[slots]
        return cls._from_backend(name, NumericBackend(numbers[slots], mask), dtype)

    @classmethod
    def _from_backend(cls, name: str, backend, dtype: str) -> "Column":
        """Internal constructor that adopts an existing storage backend."""
        column = cls.__new__(cls)
        column.name = name
        column._backend = backend
        column._dtype = dtype
        return column

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._backend)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Column._from_backend(self.name, self._backend.slice(index), self._dtype)
        return self._backend.get(index)

    def __iter__(self):
        return self._backend.iter()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self._backend.equals(other._backend)

    def __hash__(self):
        raise TypeError("Column objects are unhashable; hash their values instead")

    def __repr__(self) -> str:
        head = self._backend.slice(slice(0, 5)).tolist()
        preview = ", ".join(repr(v) for v in head)
        suffix = ", ..." if len(self) > 5 else ""
        return "Column({!r}, dtype={!r}, n={}, [{}{}])".format(
            self.name, self._dtype, len(self), preview, suffix
        )

    # -- introspection ------------------------------------------------------------

    @property
    def dtype(self) -> str:
        """Logical dtype of the column (one of :data:`DTYPES`)."""
        return self._dtype

    @property
    def values(self) -> list:
        """A copy of the column values as a plain list (missing as ``None``)."""
        return self._backend.tolist()

    @property
    def is_vectorized(self) -> bool:
        """True when the storage backend exposes typed arrays for fast kernels."""
        return self._backend.vectorized

    @property
    def backend_kind(self) -> str:
        """Storage backend kind: ``"numpy"`` or ``"object"``."""
        return self._backend.kind

    def is_numeric(self) -> bool:
        """True when every non-missing value is an int or a float."""
        return self._dtype in ("int", "float")

    def is_categorical_like(self) -> bool:
        """Heuristic used by the enhancement system.

        A column is "categorical-like" when the number of distinct values is
        small relative to the number of observations, which is the situation
        in which label-encoded categories become ambiguous for the LLM.
        """
        n = len(self)
        if n == 0:
            return False
        distinct = self.nunique()
        return distinct <= max(20, int(0.05 * n))

    def missing_count(self) -> int:
        """Number of missing values in the column."""
        return self._backend.missing_count()

    # -- transformations ----------------------------------------------------------

    def rename(self, name: str) -> "Column":
        """Return a copy of the column under a new name."""
        return Column._from_backend(name, self._backend, self._dtype)

    def map(self, func) -> "Column":
        """Return a new column with *func* applied to every value.

        On dictionary-encoded storage *func* runs once per category in use
        (and once on ``None`` when values are missing) and the result is
        built from the codes with :meth:`from_codes`.
        """
        backend = self._backend
        if not isinstance(backend, CategoricalBackend):
            return Column(self.name, [func(v) for v in self])
        codes, categories = backend.factorize()
        mapped = [func(v) for v in categories]
        missing = codes < 0
        if missing.any():
            mapped.append(func(None))
            codes = np.where(missing, len(categories), codes)
        return Column.from_codes(self.name, codes, mapped)

    def astype(self, dtype: str) -> "Column":
        """Cast the column values to the requested logical dtype.

        Missing values are preserved.  Casting to ``"str"`` uses ``str()``;
        casting to ``"int"``/``"float"`` parses strings when possible.
        """
        if dtype not in ("int", "float", "str"):
            raise ValueError("can only cast to 'int', 'float' or 'str', not {!r}".format(dtype))
        caster = {"int": int, "float": float, "str": str}[dtype]
        converted = [None if v is None else caster(v) for v in self]
        return Column(self.name, converted, dtype=dtype)

    def take(self, indices: Iterable[int]) -> "Column":
        """Return a new column containing the values at *indices* (in order)."""
        return Column._from_backend(self.name, self._backend.take(indices), self._dtype)

    def take_or_missing(self, indices: Iterable[int]) -> "Column":
        """Like :meth:`take` but negative indices produce missing values.

        This is the gather primitive behind vectorized left joins: unmatched
        rows carry the sentinel ``-1`` and come back as ``None``.
        """
        return Column._from_backend(
            self.name, self._backend.take_or_missing(indices), self._dtype
        )

    # -- statistics ---------------------------------------------------------------

    def unique(self) -> list:
        """Distinct non-missing values, in first-seen order."""
        return self._backend.unique()

    def nunique(self) -> int:
        """Number of distinct non-missing values."""
        return len(self.unique())

    def value_counts(self) -> dict:
        """Mapping from value to number of occurrences (missing excluded)."""
        return self._backend.value_counts()

    def factorize(self) -> tuple[np.ndarray, list]:
        """Dictionary-encode the column: ``(codes, categories)``.

        ``codes`` is an int64 array with one entry per row (``-1`` marks a
        missing value); ``categories`` holds the distinct non-missing values
        in first-seen order.  Works on every backend; on dictionary-encoded
        columns it reuses the stored codes.
        """
        return self._backend.factorize()

    def codes(self) -> np.ndarray:
        """Integer codes of a dictionary-encoded view (``-1`` for missing)."""
        return self.factorize()[0]

    def categories(self) -> list:
        """Categories matching :meth:`codes`, in first-seen order."""
        return self.factorize()[1]

    def validity_mask(self) -> np.ndarray:
        """Boolean array, True where a value is present.

        The array may alias backend storage — treat it as read-only.
        """
        return self._backend.validity()

    def as_array(self) -> np.ndarray:
        """Typed ndarray view of a numeric/bool column.

        Float columns return their float64 storage zero-copy (NaN marks
        missing); int/bool columns without missing values return their typed
        storage zero-copy, and are promoted to float64 with NaN otherwise.
        Treat the result as read-only.  Raises ``TypeError`` on non-numeric
        columns — use :meth:`codes` for those.
        """
        if isinstance(self._backend, NumericBackend):
            if self._backend.mask is None:
                return self._backend.data
            return self._backend.as_float_array()
        if self._dtype in ("int", "float", "bool", "empty"):
            return self._backend.as_float_array()
        raise TypeError(
            "as_array() requires a numeric column; {!r} has dtype {!r} "
            "(use codes() for categorical data)".format(self.name, self._dtype)
        )

    def to_numpy(self, dtype=None) -> np.ndarray:
        """Convert the values to a fresh NumPy array.

        Numeric columns become float arrays (missing → NaN); everything else
        becomes an object array.  Unlike :meth:`as_array` the result never
        aliases column storage.
        """
        if dtype is not None:
            return np.asarray(self.values, dtype=dtype)
        if self.is_numeric():
            return self._backend.as_float_array().copy()
        return np.asarray(self.values, dtype=object)

    # -- vectorized helpers used by Table fast paths -------------------------------

    def _indices_equal(self, value) -> np.ndarray | None:
        """Row indices where the column equals *value* (None → fall back).

        *value* must already be normalised: missing is spelled ``None``.
        """
        backend = self._backend
        if isinstance(backend, NumericBackend):
            if value is None:
                return np.flatnonzero(~backend.validity())
            if not isinstance(value, (int, float, bool, np.integer, np.floating, np.bool_)):
                return np.empty(0, dtype=np.intp)
            matches = backend.data == value
            if backend.mask is not None:
                matches &= backend.mask
            return np.flatnonzero(matches)
        if isinstance(backend, CategoricalBackend):
            if value is None:
                return np.flatnonzero(backend.codes < 0)
            try:
                code = backend.category_index().get(value)
            except TypeError:
                return None
            if code is None:
                return np.empty(0, dtype=np.intp)
            return np.flatnonzero(backend.codes == code)
        return None

    def _indices_isin(self, allowed: set) -> np.ndarray | None:
        """Row indices whose value is a member of *allowed* (None → fall back).

        *allowed* must already be normalised: missing is spelled ``None``.
        """
        backend = self._backend
        include_missing = None in allowed
        if isinstance(backend, NumericBackend):
            members = [
                v for v in allowed
                if isinstance(v, (int, float, bool, np.integer, np.floating, np.bool_))
                and v is not None
            ]
            matches = (
                np.isin(backend.data, np.asarray(members)) & backend.validity()
                if members else np.zeros(len(backend), dtype=bool)
            )
            if include_missing:
                matches |= ~backend.validity()
            return np.flatnonzero(matches)
        if isinstance(backend, CategoricalBackend):
            index = backend.category_index()
            member_codes = []
            for value in allowed:
                if value is None:
                    continue
                try:
                    code = index.get(value)
                except TypeError:
                    continue
                if code is not None:
                    member_codes.append(code)
            matches = (
                np.isin(backend.codes, np.asarray(member_codes, dtype=np.int64))
                if member_codes else np.zeros(len(backend), dtype=bool)
            )
            if include_missing:
                matches |= backend.codes < 0
            return np.flatnonzero(matches)
        return None

    def _argsort_indices(self, reverse: bool = False) -> np.ndarray | None:
        """Stable argsort matching ``sorted(..., key=(is_missing, value))``.

        Missing values sort last (first under *reverse*); ties keep their
        original order exactly like Python's stable sort.  Returns ``None``
        when the backend has no vectorized ordering (mixed columns).
        """
        backend = self._backend
        if isinstance(backend, NumericBackend):
            valid = backend.validity()
            data = backend.data
            if data.dtype.kind == "b":
                keys = data.astype(np.int8)
            elif data.dtype.kind == "f":
                keys = np.where(valid, data, 0.0)
            else:
                keys = np.where(valid, data, 0)
        elif isinstance(backend, CategoricalBackend):
            categories = backend.categories
            try:
                order = sorted(range(len(categories)), key=categories.__getitem__)
            except TypeError:
                return None
            valid = backend.codes >= 0
            if categories:
                rank = np.empty(len(categories), dtype=np.int64)
                rank[np.asarray(order, dtype=np.intp)] = np.arange(len(categories))
                keys = np.where(valid, rank[np.maximum(backend.codes, 0)], 0)
            else:
                keys = np.zeros(len(backend), dtype=np.int64)
        else:
            return None
        if not reverse:
            # primary: missing flag ascending (present first); secondary: value
            return np.lexsort((keys, (~valid).astype(np.int8)))
        # reverse sorts the (missing, value) tuple descending: missing rows
        # first, then values descending, ties in original order
        return np.lexsort((-keys, valid.astype(np.int8)))

    def _codes_with_missing(self) -> tuple[np.ndarray, list]:
        """Like :meth:`factorize` but giving missing values their own key.

        Returns ``(codes, keys)`` where ``keys`` lists every distinct value in
        first-seen order *including* ``None`` when the column has missing
        entries, and ``codes[i]`` indexes into ``keys``.  This matches the
        grouping semantics of a Python dict keyed on raw values.
        """
        codes, categories = self.factorize()
        missing = codes < 0
        if not missing.any():
            return codes, list(categories)
        first_missing = int(np.argmax(missing))
        if categories:
            # first occurrence of each code; codes are first-seen ordered so
            # the occurrence positions are ascending in code order
            first_seen = np.unique(codes[~missing], return_index=True)[1]
            positions = np.flatnonzero(~missing)[first_seen]
            insert_at = int(np.searchsorted(positions, first_missing))
        else:
            insert_at = 0
        keys = list(categories[:insert_at]) + [None] + list(categories[insert_at:])
        shifted = codes + (codes >= insert_at)
        shifted[missing] = insert_at
        return shifted, keys
