"""The mScope XMLtoCSV Converter.

The pipeline's third stage (Section III-B-3): turn a semi-structured
:class:`~repro.transformer.xmlmodel.XmlDocument` into a relational
table using the paper's bottom-up schema materialization —

* the column set is the **union** of all tags in the document;
* each column's type is chosen by the **best-match principle**: the
  *narrowest* type (INTEGER ⊂ REAL ⊂ TEXT) that can store every value
  observed for that tag.

Both rules are defined over whole columns, so the converter works one
column at a time: it gathers each tag's values (one transpose when
every record carries every tag, as nearly every delta does), types the
column with two whole-column scans, and coerces it in one pass.
:class:`TypeLattice` is the type rule's definition and the exact
fallback for a column the scans do not settle.

The converter also writes/reads the CSV + schema artifacts the
downstream mScope Data Importer consumes.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.common.errors import SchemaInferenceError
from repro.transformer.xmlmodel import XmlDocument

__all__ = ["CsvTable", "TypeLattice", "XmlToCsvConverter", "infer_sql_type"]

_CASTS: dict[str, Callable[[str], Any]] = {"INTEGER": int, "REAL": float}

#: Every ASCII byte ``float()`` can accept (digits, signs, point,
#: exponent, underscore, the letters of inf/infinity/nan, whitespace):
#: a value holding any other byte is TEXT.
_REAL_BYTES = b"0123456789+-._eEiInNfFtTyYaA \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _is_int(value: str) -> bool:
    if not value:
        return False
    body = value[1:] if value[0] in "+-" else value
    # isdecimal(), not isdigit(): "²" is a digit int() rejects.
    return body.isdecimal()


def _is_real(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


class TypeLattice:
    """Single-pass narrowing over the INTEGER ⊂ REAL ⊂ TEXT lattice.

    Feed values one at a time with :meth:`observe`; the state only
    ever widens, so the final :meth:`result` equals the narrowest type
    that stores every observed value (the best-match principle)
    without re-scanning the column.
    """

    __slots__ = ("_state", "_saw_value")

    def __init__(self) -> None:
        self._state = "INTEGER"
        self._saw_value = False

    def observe(self, value: str | None) -> None:
        """Narrow the lattice by one value (empty/None are no-ops)."""
        if value is None or value == "":
            return
        self._saw_value = True
        state = self._state
        if state == "TEXT":
            return
        if state == "INTEGER":
            if _is_int(value):
                return
            self._state = "REAL" if _is_real(value) else "TEXT"
        elif not _is_real(value):
            self._state = "TEXT"

    def result(self) -> str:
        """The inferred type (TEXT when no non-empty value was seen)."""
        return self._state if self._saw_value else "TEXT"

    @property
    def settled(self) -> bool:
        """Whether the state is TEXT, which no further value can widen."""
        return self._state == "TEXT"


def infer_sql_type(values: list[str]) -> str:
    """The narrowest SQL type storing every value (best-match principle)."""
    lattice = TypeLattice()
    for value in values:
        lattice.observe(value)
        if lattice.settled:
            break
    return lattice.result()


def _column_type(present: list[str]) -> str:
    """:func:`infer_sql_type` of a column's non-empty values.

    Whole-column scans settle the usual columns: all ASCII digits is
    INTEGER, an ASCII byte no number can hold is TEXT, and ASCII digits
    and dots that ``float()`` accepts is REAL (some value has a dot, so
    not every value is an integer).  A column they do not settle goes
    through the lattice, so the result equals the lattice's on every
    input.
    """
    if not present:
        return "TEXT"
    joined = "".join(present)
    if joined.isascii():
        ascii_bytes = joined.encode()  # bytes.isdigit(): ~7x str.isdigit()
        if ascii_bytes.isdigit():
            return "INTEGER"
        if ascii_bytes.translate(None, _REAL_BYTES):
            return "TEXT"
        if ascii_bytes.replace(b".", b"").isdigit() and all(
            map(_is_real, present)
        ):
            return "REAL"
    return infer_sql_type(present)


def _typed_column(
    values: Sequence[str | None],
) -> tuple[str, Sequence[Any]]:
    """One column's inferred type and its coerced values (as
    :func:`_coerce` gives them, cell by cell)."""
    if all(values):
        present: Sequence[str] = values  # type: ignore[assignment]
    else:
        present = [v for v in values if v]
    sql_type = _column_type(present)  # type: ignore[arg-type]
    cast = _CASTS.get(sql_type)
    if present is values:
        return sql_type, values if cast is None else list(map(cast, values))
    if cast is None:
        return sql_type, [v or None for v in values]
    return sql_type, [cast(v) if v else None for v in values]


def _columns(
    records: list[Mapping[str, str]], tags: list[str]
) -> Sequence[Sequence[str | None]]:
    """Each tag's values down ``records`` (``None`` where a record
    lacks the tag): one transpose when every record carries every tag,
    else one pass per tag."""
    if len(tags) > 1:
        try:
            return list(zip(*map(itemgetter(*tags), records)))
        except KeyError:
            pass
    return [[f.get(tag) for f in records] for tag in tags]


def _coerce(value: str | None, sql_type: str) -> Any:
    if value is None or value == "":
        return None
    if sql_type == "INTEGER":
        return int(value)
    if sql_type == "REAL":
        return float(value)
    return value


@dataclasses.dataclass(slots=True)
class CsvTable:
    """A converted table: inferred schema plus typed rows."""

    name: str
    columns: list[tuple[str, str]]
    rows: list[tuple]
    monitor: str
    source: str

    @property
    def column_names(self) -> list[str]:
        return [c for c, _ in self.columns]

    def __len__(self) -> int:
        return len(self.rows)


class XmlToCsvConverter:
    """Converts enriched XML documents into typed relational tables."""

    def convert(
        self,
        document: XmlDocument,
        table_name: str,
        extra_columns: dict[str, str] | None = None,
    ) -> CsvTable:
        """Infer the schema from ``document`` and materialize the rows.

        ``extra_columns`` adds constant-valued TEXT columns (e.g. the
        hostname the pipeline knows from the log's location).
        """
        records = [record.fields for record in document]
        # The tag union, in first-appearance order.
        union = dict.fromkeys(itertools.chain.from_iterable(records))
        if not union and not extra_columns:
            raise SchemaInferenceError(
                f"document {document.source!r} has no tags to infer from"
            )

        columns: list[tuple[str, str]] = []
        values: list[Sequence[Any]] = []
        for tag, tag_values in zip(union, _columns(records, list(union))):
            sql_type, column = _typed_column(tag_values)
            columns.append((tag, sql_type))
            values.append(column)
        if extra_columns:
            for column, value in extra_columns.items():
                if column in union:
                    # The parser already extracted this field from the
                    # log itself (e.g. SAR's banner hostname); the
                    # log's own value wins.
                    continue
                columns.append((column, "TEXT"))
                values.append([value] * len(records))

        rows = list(zip(*values))
        return CsvTable(
            name=table_name,
            columns=columns,
            rows=rows,
            monitor=document.monitor,
            source=document.source,
        )

    # ------------------------------------------------------------------
    # artifact files

    def write_csv(self, table: CsvTable, path: Path | str) -> Path:
        """Write the CSV artifact plus its ``.schema`` sidecar."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.column_names)
            for row in table.rows:
                writer.writerow(["" if v is None else v for v in row])
        schema_path = path.with_suffix(".schema")
        schema_path.write_text(
            "".join(f"{c} {t}\n" for c, t in table.columns), encoding="utf-8"
        )
        return path

    def read_csv(
        self, path: Path | str, monitor: str = "unknown"
    ) -> CsvTable:
        """Read a CSV + schema artifact pair back into a table."""
        path = Path(path)
        schema_path = path.with_suffix(".schema")
        if not schema_path.exists():
            raise SchemaInferenceError(f"missing schema sidecar for {path}")
        columns: list[tuple[str, str]] = []
        for line in schema_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            column, sql_type = line.rsplit(" ", 1)
            columns.append((column, sql_type))
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header != [c for c, _ in columns]:
                raise SchemaInferenceError(
                    f"CSV header does not match schema sidecar for {path}"
                )
            rows = [
                tuple(
                    _coerce(value, sql_type)
                    for value, (_, sql_type) in zip(row, columns)
                )
                for row in reader
            ]
        return CsvTable(
            name=path.stem,
            columns=columns,
            rows=rows,
            monitor=monitor,
            source=str(path),
        )
