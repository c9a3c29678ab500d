"""Shot-event ingestion: parsing, coordinate normalization, player filtering.

Input files carry one row per field-goal attempt, with court coordinates
in feet. Parsing reads the rows into one column table (:class:`ShotTable`)
and normalizes coordinates onto the unit square; attempts landing outside
it are removed by a separate exclusion pass, and players are retained
only when their attempt count exceeds a threshold.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
import os
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from court_fda.native import available_cores, run_shares

CSV_FIELDS = ("player_id", "player_name", "position", "x_ft", "y_ft", "made", "season")


class Position(enum.Enum):
    """Aggregated positional groups; hybrid labels are merged pairwise."""

    GUARD = "guard"
    FORWARD_GUARD = "forward-guard"
    FORWARD = "forward"
    FORWARD_CENTER = "forward-center"
    CENTER = "center"


#: Canonical category order used wherever positions become partition labels.
POSITION_ORDER: tuple[Position, ...] = tuple(Position)

_POSITION_ALIASES = {
    "guard": Position.GUARD,
    "guard-forward": Position.FORWARD_GUARD,
    "forward-guard": Position.FORWARD_GUARD,
    "forward": Position.FORWARD,
    "forward-center": Position.FORWARD_CENTER,
    "center-forward": Position.FORWARD_CENTER,
    "center": Position.CENTER,
}

_POSITION_INDEX = {p: i for i, p in enumerate(POSITION_ORDER)}


class ParseError(ValueError):
    """Malformed input row; carries the offending row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.reason = row, message

    def __reduce__(self):
        return type(self), (self.row, self.reason)


class IngestError(ValueError):
    """Inconsistent or insufficient player data after parsing."""


@dataclass(frozen=True)
class CourtSpec:
    """Offensive half-court extent in feet.

    width runs sideline to sideline, depth baseline to mid-court.
    """

    width: float = 50.0
    depth: float = 47.0

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.depth > 0):
            raise ValueError(f"court dimensions must be positive, got {self.width}x{self.depth}")


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Shot events as columns, one entry per input row in input order.

    ``player`` and ``name`` index the sorted ``player_ids`` and
    ``player_names``, ``position`` indexes :data:`POSITION_ORDER`; ``x``
    and ``y`` are unit-square coordinates and ``made`` is the outcome.
    """

    player_ids: list[str]
    player_names: list[str]
    player: np.ndarray
    name: np.ndarray
    position: np.ndarray
    x: np.ndarray
    y: np.ndarray
    made: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def select(self, rows: np.ndarray) -> "ShotTable":
        """The rows picked by a boolean mask or an index array."""
        return replace(
            self,
            player=self.player[rows],
            name=self.name[rows],
            position=self.position[rows],
            x=self.x[rows],
            y=self.y[rows],
            made=self.made[rows],
        )


@dataclass
class PlayerRecord:
    """A retained player's attempts, split by outcome.

    Point arrays have shape (n, 2) and hold unit-square coordinates.
    """

    player_id: str
    player_name: str
    position: Position
    made_points: np.ndarray
    missed_points: np.ndarray

    @property
    def attempts(self) -> int:
        return len(self.made_points) + len(self.missed_points)


def normalize_point(x_ft, y_ft, court: CourtSpec = CourtSpec()):
    """Map court coordinates in feet (scalars or arrays) onto the unit square.

    Purely linear (x/width, y/depth); out-of-range inputs pass through
    unclamped so the exclusion step can drop them later.
    """
    return x_ft / court.width, y_ft / court.depth


#: Data rows the csv module splits per batch before they become columns;
#: it bounds the memory its per-row lists hold at a time.
_BATCH_ROWS = 1024

#: CSV bytes each parse process gets at least. On a 2-vCPU x86 VM two processes parse a
#: 0.7 MB export in the time one does (24 against 25 ms) and a 1 MB one in 31 ms against 42,
#: so two start from 1 MiB.
_BYTES_PER_WORKER = 1 << 19

#: Bytes read at a time while looking for range boundaries.
_SCAN_BYTES = 1 << 20


class _TextColumn:
    """A text column, each row coded by its raw value."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.codes = [np.zeros(0, dtype=np.intp)]

    def add(self, values: Sequence[str]) -> None:
        index = self.index
        for v in set(values).difference(index):
            index[v] = len(index)
        self.codes.append(np.fromiter(map(index.__getitem__, values), np.intp, len(values)))

    def coded(self) -> tuple[list[str], np.ndarray]:
        """Sorted distinct stripped values and each row's index into them."""
        raw = list(self.index)
        values = sorted({v.strip() for v in raw})
        index = {v: i for i, v in enumerate(values)}
        return values, np.array([index[v.strip()] for v in raw], dtype=np.intp)[np.concatenate(self.codes)]


class _NumberColumn:
    """A coordinate column converted by ``float``; rows it rejects hold NaN."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.parts = [np.zeros(0)]
        self.rows = 0
        self.rejected: dict[int, str] = {}

    def add(self, values: Sequence[str]) -> None:
        try:
            part = np.fromiter(map(float, values), float, len(values))
        except ValueError:
            part = np.full(len(values), np.nan)
            for i, raw in enumerate(values):
                try:
                    part[i] = float(raw)
                except ValueError:
                    self.rejected[self.rows + i] = raw
        self.parts.append(part)
        self.rows += len(values)

    def checked(self):
        """The values, the mask of invalid rows, and the message for such a row."""
        values = np.concatenate(self.parts)

        def message(i: int) -> str:
            if i in self.rejected:
                return f"non-numeric {self.name} {self.rejected[i].strip()!r}"
            return f"non-finite {self.name} {float(values[i])!r}"

        return values, ~np.isfinite(values), message


def _line_of(reopen: Callable[[], TextIO], index: int) -> int:
    """File line number on which the index-th non-blank data row ends, read afresh."""
    with reopen() as source:
        reader = csv.reader(source)
        next(reader)
        return next(islice((reader.line_num for row in reader if row), index, None))


def parse_events(text: str, court: CourtSpec = CourtSpec()) -> ShotTable:
    """Parse CSV text into a shot table with normalized coordinates.

    The text must start with the exact header
    ``player_id,player_name,position,x_ft,y_ft,made,season``. Fields are
    stripped, blank lines are skipped and rows keep their input order.
    Empty text yields an empty table. An invalid row (wrong field count,
    unknown position, non-numeric or non-finite coordinate, made flag
    other than 0/1) raises :class:`ParseError` carrying the file line
    number of the first such row; within a row the checks run in the
    order position, x_ft, y_ft, made.
    """
    reopen = functools.partial(io.StringIO, text, newline="")
    reader = csv.reader(reopen())
    _check_header(reader)
    return _read_rows(reader, functools.partial(_line_of, reopen), court)


def _check_header(reader: Iterator[list[str]]) -> None:
    """Read the header row, if there is one, and raise :class:`ParseError` unless it names :data:`CSV_FIELDS`."""
    if (header := next(reader, None)) is not None and [h.strip() for h in header] != list(CSV_FIELDS):
        raise ParseError(1, f"expected header {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}")


def _read_rows(rows: Iterable[Sequence[str]], locate: Callable[[int], int], court: CourtSpec) -> ShotTable:
    """CSV data rows as a table; an invalid row reports ``locate(its index among the non-blank rows)``."""
    reader = iter(rows)
    ids, names, labels, flags = _TextColumn(), _TextColumn(), _TextColumn(), _TextColumn()
    xs, ys = _NumberColumn("x_ft"), _NumberColumn("y_ft")
    wrong_count = None  # (data row index, field count) of the first row without seven fields
    while wrong_count is None and (batch := list(islice(reader, _BATCH_ROWS))):
        rows = list(filter(None, batch))  # tolerate blank lines
        if rows and set(map(len, rows)) != {len(CSV_FIELDS)}:
            i = next(i for i, row in enumerate(rows) if len(row) != len(CSV_FIELDS))
            # rows above it may still hold an invalid value, reported first
            wrong_count = (xs.rows + i, len(rows[i]))
            rows = rows[:i]
        if rows:
            for column, values in zip((ids, names, labels, xs, ys, flags), zip(*rows)):
                column.add(values)

    player_ids, player = ids.coded()
    player_names, name = names.coded()
    label_values, label = labels.coded()
    position = np.array(
        [_POSITION_INDEX.get(_POSITION_ALIASES.get(v.lower()), -1) for v in label_values], dtype=np.intp
    )[label]
    flag_values, flag = flags.coded()
    outcome = np.array([{"0": 0, "1": 1}.get(v, -1) for v in flag_values], dtype=np.intp)[flag]
    x_ft, x_bad, x_message = xs.checked()
    y_ft, y_bad, y_message = ys.checked()
    checks = (
        (position < 0, lambda i: f"unknown position label {label_values[label[i]]!r}"),
        (x_bad, x_message),
        (y_bad, y_message),
        (outcome < 0, lambda i: f"made flag must be 0 or 1, got {flag_values[flag[i]]!r}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(locate(i), next(message(i) for mask, message in checks if mask[i]))
    if wrong_count is not None:
        i, count = wrong_count
        raise ParseError(locate(i), f"expected {len(CSV_FIELDS)} fields, got {count}")
    x, y = normalize_point(x_ft, y_ft, court)
    return ShotTable(player_ids, player_names, player, name, position, x, y, outcome == 1)


def parse_events_json(text: str, court: CourtSpec = CourtSpec()) -> ShotTable:
    """Parse a JSON array of shot objects, each with exactly the CSV columns as keys.

    Each object is read as the CSV row of its values' ``str``, so the CSV rules
    hold, except that ``made`` may also be ``true`` or ``false``. Row numbers in
    errors are 1-based positions within the array; an element that is not such
    an object is reported after any invalid value above it, as a short CSV row is.
    The objects are decoded one at a time, and a syntax error anywhere in the
    document is raised before any invalid value or element.
    """
    try:
        # integer digits reach the row checks as the CSV text would
        elements = _json_array(text, json.JSONDecoder(parse_int=str))
    except TypeError:
        raise ParseError(1, "expected a JSON array of shot objects") from None
    stray = []  # the index of the first element that is not a shot object, once one is met

    def shot_rows() -> Iterator[list[str]]:
        for i, obj in enumerate(elements):
            if not isinstance(obj, dict) or set(obj) != set(CSV_FIELDS):
                stray.append(i)
                for _ in elements:  # a syntax error further down is still raised first
                    pass
                return
            row = {k: str(v) for k, v in obj.items()}
            if isinstance(obj["made"], bool):
                row["made"] = str(int(obj["made"]))
            yield [row[k] for k in CSV_FIELDS]

    table = _read_rows(shot_rows(), lambda i: i + 1, court)
    if stray:
        raise ParseError(stray[0] + 1, f"expected an object with keys {','.join(CSV_FIELDS)}")
    return table


def _json_array(text: str, decoder: json.JSONDecoder) -> Iterator:
    """The elements of the JSON array ``text``, each decoded by ``decoder`` when it is asked for.

    Whitespace is skipped and faults are reported as ``json.loads`` does: text it refuses
    raises its ``json.JSONDecodeError``, with the same message and position, once the
    element holding the fault is reached. A document that ``json.loads`` reads as a value
    other than an array is decoded whole and raises ``TypeError`` before any element.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    skip = json.decoder.WHITESPACE.match
    start = skip(text).end()
    if not text.startswith("[", start):
        decoder.decode(text)  # text that json.loads refuses raises its error first
        raise TypeError("the top-level JSON value is not an array")

    def elements(pos: int) -> Iterator:
        # the regex runs only where whitespace is (the empty string at the end of the text counts as some)
        raw_decode, spaces = decoder.raw_decode, json.decoder.WHITESPACE_STR
        if not text.startswith("]", pos):
            while True:
                value, pos = raw_decode(text, pos)
                yield value
                if text[pos:pos + 1] in spaces:
                    pos = skip(text, pos).end()
                if text.startswith("]", pos):
                    break
                if not text.startswith(",", pos):
                    raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
                pos += 1
                if text[pos:pos + 1] in spaces:
                    pos = skip(text, pos).end()
        end = skip(text, pos + 1).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)

    return elements(skip(text, start + 1).end())


def load_events(path: str | Path, court: CourtSpec = CourtSpec()) -> ShotTable:
    """Load shot events from a CSV or JSON file, dispatching on suffix.

    A CSV file is parsed by ``min(available_cores(), size // _BYTES_PER_WORKER)`` processes
    (at least 1; 1 where ``os.fork`` is missing), each streaming one line-aligned byte range
    of it (:func:`_range_bounds`) as strict UTF-8, row batch by row batch. Range 0 is parsed
    by the caller and the others by processes forked from it
    (:func:`court_fda.native.run_shares`), and their tables are joined in file order into the
    table one process gives. The first failing range in file order raises: a
    :class:`ParseError` carries the file line one process reports, found by reading the file
    again, and a decoding or csv module error keeps its type. One process also reads on past
    an invalid value, so it reports an undecodable byte further down instead; split, that
    byte is reported only when no earlier range fails. A JSON file is decoded by one process.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return parse_events_json(path.read_bytes().decode("utf-8"), court)
    size = path.stat().st_size
    workers = min(available_cores(), max(1, size // _BYTES_PER_WORKER)) if hasattr(os, "fork") else 1
    bounds = _range_bounds(path, size, workers)
    ranges = list(zip(bounds, bounds[1:]))
    parts = run_shares(functools.partial(_read_range, path, ranges, court), len(ranges), "parse")
    rows = 0  # non-blank data rows in the ranges before this one
    for part in parts:
        if isinstance(part, ParseError):
            reopen = functools.partial(path.open, newline="", encoding="utf-8")
            raise ParseError(_line_of(reopen, rows + part.row), part.reason)
        if isinstance(part, Exception):
            raise part
        rows += len(part)
    return _join(parts)


def _range_bounds(path: Path, size: int, parts: int) -> list[int]:
    """Offsets ``0 = b_0 < ... < b_k = size`` of at most ``parts`` line-aligned byte ranges of the file.

    ``b_j`` is the byte just past the first newline at or after ``size * j // parts``. It is
    kept only if no quote byte comes before it, since a quoted field may hold a line break,
    and a range that would be empty is dropped. One range is the whole file, which is not read
    here, so a pipe can be parsed.
    """
    if parts == 1:
        return [0, size]
    bounds = [0]
    with path.open("rb") as fh:
        for j in range(1, parts):
            fh.seek(start := size * j // parts)
            cut = _find(fh, b"\n", start, size)
            if cut + 1 >= size:
                break
            if cut + 1 > bounds[-1]:
                bounds.append(cut + 1)
        if len(bounds) > 1:
            fh.seek(0)
            quote = _find(fh, b'"', 0, bounds[-1])
            bounds = [b for b in bounds if b <= quote]
    return bounds + [size]


def _find(fh: BinaryIO, byte: bytes, start: int, stop: int) -> int:
    """Offset of the first ``byte`` at or after ``start`` (where ``fh`` stands) and before ``stop``, else ``stop``."""
    while start < stop:
        chunk = fh.read(min(_SCAN_BYTES, stop - start))
        if not chunk:
            break
        if (at := chunk.find(byte)) >= 0:
            return start + at
        start += len(chunk)
    return stop


class _ByteRange(io.RawIOBase):
    """The next ``count`` bytes of the binary file ``fh``, read from it in place."""

    def __init__(self, fh: BinaryIO, count: int) -> None:
        self.fh, self.left = fh, count

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.fh.readinto(memoryview(buffer)[:self.left])
        self.left -= count
        return count


def _read_range(path: Path, ranges: list[tuple[int, int]], court: CourtSpec, share: int) -> ShotTable | Exception:
    """The table of byte range ``ranges[share]`` of the CSV file ``path``, or the error reading it raised.

    Only range 0 holds the header, whose error is raised. A returned :class:`ParseError`
    carries the invalid row's index among the range's non-blank data rows as its row.
    The last range is read on to the end of the file by the io module's own buffered
    reader, which the text layer checks faster per line than a bounded one.
    """
    start, stop = ranges[share]
    with path.open("rb") as fh:
        if start:  # a pipe, always one range, cannot seek even to 0
            fh.seek(start)
        raw = fh if stop == ranges[-1][1] else _ByteRange(fh, stop - start)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as source:
            reader = csv.reader(source)
            if share == 0:
                _check_header(reader)
            try:
                return _read_rows(reader, lambda index: index, court)
            except (ParseError, UnicodeDecodeError, csv.Error) as exc:
                return exc


def _join(tables: list[ShotTable]) -> ShotTable:
    """The rows of ``tables`` in order, as one table over the union of their players and names."""
    if len(tables) == 1:
        return tables[0]

    def union(values: str, codes: str) -> tuple[list[str], np.ndarray]:
        merged = sorted(set().union(*(getattr(t, values) for t in tables)))
        index = {v: i for i, v in enumerate(merged)}
        remapped = [np.array([index[v] for v in getattr(t, values)], dtype=np.intp)[getattr(t, codes)] for t in tables]
        return merged, np.concatenate(remapped)

    player_ids, player = union("player_ids", "player")
    player_names, name = union("player_names", "name")
    columns = (np.concatenate([getattr(t, c) for t in tables]) for c in ("position", "x", "y", "made"))
    return ShotTable(player_ids, player_names, player, name, *columns)


def exclude_impossible(events: ShotTable) -> ShotTable:
    """Drop attempts outside the unit square; boundary points stay in."""
    return events.select((events.x >= 0.0) & (events.x <= 1.0) & (events.y >= 0.0) & (events.y <= 1.0))


def filter_players(events: ShotTable, min_attempts: int = 1000) -> list[PlayerRecord]:
    """Group events by player and keep players with more than min_attempts.

    The comparison is strict: a player with exactly min_attempts attempts
    is dropped. Output is sorted by player_id, and each player's points
    keep their input order. A player's name and position come from their
    first row; a later row with another position is rejected. A player
    whose retained attempts are all made or all missed is rejected, since
    a density cannot be estimated from an empty point set.
    """
    if min_attempts < 1:
        raise ValueError(f"min_attempts must be at least 1, got {min_attempts}")
    present, first = np.unique(events.player, return_index=True)
    labelled = np.zeros(len(events.player_ids), dtype=np.intp)
    labelled[present] = events.position[first]
    conflicts = np.flatnonzero(events.position != labelled[events.player])
    if conflicts.size:
        row = conflicts[0]
        p = events.player[row]
        start = first[np.searchsorted(present, p)]
        raise IngestError(
            f"conflicting position labels for player {events.player_ids[p]} "
            f"({events.player_names[events.name[start]]}): "
            f"{POSITION_ORDER[labelled[p]].value} vs {POSITION_ORDER[events.position[row]].value}"
        )
    # one stable sort puts each player's made points, then missed points, in input order
    key = 2 * events.player + ~events.made
    order = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=2 * len(events.player_ids)))))
    points = np.column_stack((events.x, events.y))[order]
    records: list[PlayerRecord] = []
    for p, row in zip(present.tolist(), first.tolist()):
        lo, mid, hi = bounds[2 * p], bounds[2 * p + 1], bounds[2 * p + 2]
        if hi - lo <= min_attempts:
            continue
        pid, name = events.player_ids[p], events.player_names[events.name[row]]
        for side, count in (("made", mid - lo), ("missed", hi - mid)):
            if count == 0:
                raise IngestError(f"player {pid} ({name}) has no {side} shots; cannot estimate a density")
        position = POSITION_ORDER[events.position[row]]
        records.append(PlayerRecord(pid, name, position, points[lo:mid], points[mid:hi]))
    return records


def write_players_json(records: Sequence[PlayerRecord], path: str | Path) -> None:
    """Write player records (with point lists) as one deterministic JSON array.

    The bytes are those of the compact, key-sorted encoding of the whole list in one
    call. Each distinct coordinate is formatted once: coordinates are keyed by their
    bit patterns, so ``-0.0`` and ``0.0`` stay apart, and each point list is gathered
    from the formatted values and joined. Players are written one at a time.
    """
    fields = [np.asarray(p, dtype=float).reshape(-1, 2) for r in records for p in (r.made_points, r.missed_points)]
    bits, codes = np.unique(np.concatenate([np.zeros((0, 2)), *fields]).view(np.uint64), return_inverse=True)
    values = bits.view(float)
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = json.dumps(values[i])  # NaN, Infinity or -Infinity
    codes = codes.reshape(-1, 2)
    # an x cell is the bare value; a y cell closes its point and opens the next one
    y_used = np.zeros(len(text), dtype=bool)
    y_used[codes[:, 1]] = True
    y_cells = np.empty(len(text), dtype=object)
    y_cells[y_used] = [f",{text[i]}],[" for i in np.flatnonzero(y_used).tolist()]
    cells = np.empty(codes.shape, dtype=object)
    cells[:, 0] = np.fromiter(text, dtype=object, count=len(text))[codes[:, 0]]
    cells[:, 1] = y_cells[codes[:, 1]]
    ends = np.cumsum([0] + [len(f) for f in fields]).tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("[")
        for i, r in enumerate(records):
            made, missed = (_point_list(cells[ends[j]:ends[j + 1]]) for j in (2 * i, 2 * i + 1))
            names = {"player_id": r.player_id, "player_name": r.player_name, "position": r.position.value}
            tail = json.dumps(names, sort_keys=True, separators=(",", ":"))[1:]
            fh.write(("," if i else "") + '{"made_points":' + made + ',"missed_points":' + missed + "," + tail)
        fh.write("]\n")


def _point_list(cells: np.ndarray) -> str:
    """JSON text of the points whose x and y cells are the rows of ``cells``."""
    text = "".join(cells.ravel().tolist())
    return "[[" + text[:-2] + "]" if text else "[]"


class PlayersFileError(ValueError):
    """A players file that is not what :func:`write_players_json` writes, or lacks a player that is needed."""


def read_players_json(path: str | Path, player_ids: Sequence[str] | None = None) -> list[PlayerRecord]:
    """Inverse of :func:`write_players_json`; with ``player_ids``, only those players, in that order.

    Raises :class:`PlayersFileError` for a document that is not a JSON array, a missing
    key, an unknown position, a point list that is not n x 2 or holds a coordinate that
    is not a finite number, a player id listed twice, or a requested player that the
    file does not hold. Players are decoded and checked one at a time, so a fault in a
    player is reported before a syntax error further down the file.
    """
    try:
        records = {}
        for obj in _json_array(Path(path).read_text(encoding="utf-8"), json.JSONDecoder()):
            pid = str(obj["player_id"])
            if pid in records:
                raise ValueError(f"player {pid!r} is listed twice")
            made, missed = (_point_array(obj[k], f"player {pid!r} {k}") for k in ("made_points", "missed_points"))
            records[pid] = PlayerRecord(pid, str(obj["player_name"]), Position(obj["position"]), made, missed)
        if player_ids is None:
            return list(records.values())
        missing = [pid for pid in player_ids if pid not in records]
        if missing:
            raise ValueError(f"player {missing[0]!r} is not in the file")
        return [records[pid] for pid in player_ids]
    except KeyError as exc:
        raise PlayersFileError(f"players file {path}: a player has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise PlayersFileError(f"players file {path}: {exc}") from exc


def _point_array(cells, name: str) -> np.ndarray:
    points = np.array(cells, dtype=float)
    if points.size and points.shape[1:] != (2,):
        raise ValueError(f"{name} has shape {points.shape}, not (n, 2)")
    if not set(map(type, chain.from_iterable(cells))) <= {int, float}:  # numpy reads "0.5" and true too
        raise ValueError(f"{name} holds a coordinate that is not a number")
    if not np.isfinite(points).all():
        raise ValueError(f"{name} holds a non-finite coordinate")
    return points.reshape(-1, 2)
