"""Typed representation and ingestion of mixed datasets.

A dataset column is continuous, integer-valued (counts) or ordinal with a
known number of levels; binary columns are ordinal with two levels.  A
dataset is a delimited text file with a header row (comma, semicolon or
tab, read off the header; written with commas) plus a schema file of
``<name> = <kind>`` lines.  On load the columns are permuted
continuous-first, which is the layout every other module assumes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemaError",
    "DataError",
    "VariableKind",
    "Schema",
    "MixedDataset",
    "parse_schema_text",
    "load_dataset",
    "save_dataset",
    "check_identifiability",
    "IdentifiabilityCheck",
]

CONTINUOUS = "continuous"
INTEGER = "integer"
ORDINAL = "ordinal"


class SchemaError(ValueError):
    """Invalid schema declaration."""


class DataError(ValueError):
    """Data file inconsistent with its declared schema."""


@dataclass(frozen=True)
class VariableKind:
    """Kind of one observed variable.

    ``levels`` is only meaningful for ordinal variables and counts the number
    of ordered modalities (binary = 2).
    """

    tag: str
    levels: int | None = None

    def __post_init__(self):
        if self.tag not in (CONTINUOUS, INTEGER, ORDINAL):
            raise SchemaError(f"unknown variable kind {self.tag!r}")
        if self.tag == ORDINAL:
            if self.levels is None or self.levels < 2:
                raise SchemaError("ordinal variables need at least 2 levels")
        elif self.levels is not None:
            raise SchemaError(f"{self.tag} variables take no level count")

    @property
    def is_discrete(self) -> bool:
        return self.tag != CONTINUOUS

    def __str__(self):
        if self.tag == ORDINAL:
            return f"ordinal:{self.levels}"
        return self.tag


def continuous() -> VariableKind:
    return VariableKind(CONTINUOUS)


def integer() -> VariableKind:
    return VariableKind(INTEGER)


def ordinal(levels: int) -> VariableKind:
    return VariableKind(ORDINAL, levels)


@dataclass(frozen=True)
class Schema:
    """Ordered column declaration, stored continuous-first.

    ``columns`` is a tuple of (name, kind) pairs already permuted so that the
    continuous entries come first and the discrete ones after them.
    ``file_order`` maps the stored position to the original column position,
    so ``stored_row = file_row[file_order]``.
    """

    columns: tuple[tuple[str, VariableKind], ...]
    file_order: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        if self.file_order is None:
            object.__setattr__(self, "file_order", tuple(range(len(self.columns))))
        if len(self.file_order) != len(self.columns):
            raise SchemaError("file_order length mismatch")
        kinds = [k.tag for _, k in self.columns]
        c = kinds.count(CONTINUOUS)
        if any(t == CONTINUOUS for t in kinds[c:]):
            raise SchemaError("columns must be stored continuous-first")

    @classmethod
    def from_pairs(cls, pairs) -> "Schema":
        """Build from (name, kind) pairs in arbitrary order, permuting
        continuous-first and recording the permutation."""
        pairs = list(pairs)
        order = [i for i, (_, k) in enumerate(pairs) if k.tag == CONTINUOUS]
        order += [i for i, (_, k) in enumerate(pairs) if k.tag != CONTINUOUS]
        return cls(tuple(pairs[i] for i in order), tuple(order))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    @property
    def kinds(self) -> tuple[VariableKind, ...]:
        return tuple(k for _, k in self.columns)

    @property
    def n_variables(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class MixedDataset:
    """Complete mixed dataset with its schema.

    ``values`` is an (n, e) float array in schema (continuous-first) order.
    Discrete cells hold non-negative integers; ordinal cells are coded
    1..levels.  No missing values.
    """

    schema: Schema
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.schema.n_variables:
            raise DataError("value matrix shape does not match schema")
        if v.shape[0] < 1:
            raise DataError("dataset needs at least one row")
        if not np.all(np.isfinite(v)):
            raise DataError("missing or non-finite cells are not supported")
        _validate_columns(self.schema, v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _validate_columns(schema: Schema, values: np.ndarray) -> None:
    for j, (name, kind) in enumerate(schema.columns):
        col = values[:, j]
        if kind.tag == CONTINUOUS:
            continue
        if not np.all(col == np.round(col)):
            raise DataError(f"column {name!r}: non-integer value in discrete column")
        if kind.tag == INTEGER:
            if np.any(col < 0):
                raise DataError(f"column {name!r}: negative integer value")
        else:
            if np.any((col < 1) | (col > kind.levels)):
                raise DataError(
                    f"column {name!r}: ordinal value out of range 1..{kind.levels}"
                )


@dataclass(frozen=True)
class IdentifiabilityCheck:
    """Verdict of the schema identifiability guard.

    The mixture parameters are only recoverable from the observed distribution
    when at least one variable is continuous or integer; a schema made of
    ordinal variables alone is rejected before any fitting starts.
    """

    identifiable: bool
    reason: str = ""


def check_identifiability(schema: Schema) -> IdentifiabilityCheck:
    """Pure guard: identifiable iff some column is continuous or integer."""
    if any(k.tag in (CONTINUOUS, INTEGER) for k in schema.kinds):
        return IdentifiabilityCheck(True)
    return IdentifiabilityCheck(
        False, "model not identifiable for this schema: "
        "needs at least one continuous or integer column"
    )


# ---------------------------------------------------------------------------
# schema text format: one `<name> = continuous | integer | ordinal:<m>` per line

def parse_schema_kind(text: str) -> VariableKind:
    text = text.strip().lower()
    if text == CONTINUOUS:
        return continuous()
    if text == INTEGER:
        return integer()
    if text.startswith(ORDINAL):
        _, _, arg = text.partition(":")
        try:
            return ordinal(int(arg))
        except ValueError as exc:
            raise SchemaError(f"bad ordinal level count {arg!r}") from exc
    raise SchemaError(f"unknown variable kind {text!r}")


def parse_schema_text(text: str) -> dict[str, VariableKind]:
    """Parse the key-value schema file into a name -> kind mapping."""
    out: dict[str, VariableKind] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, kind = line.partition("=")
        if not sep:
            raise SchemaError(f"line {lineno}: expected `<name> = <kind>`")
        name = name.strip()
        if name in out:
            raise SchemaError(f"line {lineno}: duplicate column {name!r}")
        out[name] = parse_schema_kind(kind)
    if not out:
        raise SchemaError("schema file declares no columns")
    return out


def _sniff_delimiter(header: str) -> str:
    counts = {d: header.count(d) for d in (",", ";", "\t")}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def load_dataset(data_path, schema_path) -> MixedDataset:
    """Load a delimited text file (header row required) against a schema file.

    The delimiter (comma, semicolon or tab) is read off the header row.
    Columns are permuted continuous-first; ingestion rejects missing cells,
    out-of-range ordinal codes, negative counts and columns the schema does
    not mention.
    """
    with open(schema_path, encoding="utf-8") as fh:
        declared = parse_schema_text(fh.read())
    with open(data_path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty data file")
    delim = _sniff_delimiter(lines[0])
    header = [h.strip() for h in lines[0].split(delim)]
    for name in header:
        if name not in declared:
            raise SchemaError(f"column {name!r} present in data but not in schema")
    for name in declared:
        if name not in header:
            raise SchemaError(f"column {name!r} declared in schema but missing from data")

    schema = Schema.from_pairs((name, declared[name]) for name in header)
    check = check_identifiability(schema)
    if not check.identifiable:
        raise SchemaError(check.reason)

    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        row = []
        for name, cell in zip(header, cells):
            if cell == "" or cell.lower() in ("na", "nan", "?"):
                raise DataError(f"line {lineno}: missing value in column {name!r}")
            try:
                row.append(float(cell))
            except ValueError as exc:
                raise DataError(
                    f"line {lineno}: non-numeric cell {cell!r} in column {name!r}"
                ) from exc
        rows.append(row)
    if not rows:
        raise DataError("data file has a header but no rows")
    raw = np.asarray(rows, dtype=float)
    return MixedDataset(schema, raw[:, list(schema.file_order)])


def save_dataset(dataset: MixedDataset, data_path, schema_path) -> None:
    """Write a dataset back to comma-separated text plus schema file (in
    original file column order), such that a reload round-trips exactly."""
    schema = dataset.schema
    order = sorted(range(schema.n_variables), key=lambda j: schema.file_order[j])
    buf = io.StringIO()
    buf.write(",".join(schema.names[j] for j in order) + "\n")
    for row in dataset.values:
        cells = []
        for j in order:
            v = row[j]
            if schema.kinds[j].is_discrete:
                cells.append(str(int(round(v))))
            else:
                cells.append(repr(float(v)))
        buf.write(",".join(cells) + "\n")
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{schema.names[j]} = {schema.kinds[j]}" for j in order) + "\n")

