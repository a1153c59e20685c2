"""Published-device registry, comparison-figure data emission, and the
package's one CSV reader and one CSV writer.

The bundled registry stores reported transducer performance figures
exactly as tabulated in their sources; the notes column carries any
convention caveat (mode-matching inclusion differs between platforms and
is deliberately not normalised away).  :func:`read_csv_records` reads
every CSV input file (the registry, occupancy records and spectra), and
:func:`float_table` writes every CSV output.
"""

from __future__ import annotations

import csv
import importlib.resources
import warnings
from dataclasses import dataclass
from itertools import chain, compress, pairwise
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .capacity import capacity_contours
from .core import throughput

REGISTRY_HEADER = [
    "label",
    "direction",
    "n_add",
    "eta",
    "bandwidth_hz",
    "duty",
    "source",
    "notes",
]

SCATTER_HEADER = ["throughput_hz", "n_add", "label", "direction"]
CONTOUR_HEADER = ["level", "x_throughput_hz", "y_n_add"]


@dataclass(frozen=True)
class DeviceRecord:
    """One published operating point of one transducer."""

    label: str
    direction: str
    n_add: float
    eta: float
    bandwidth_hz: float
    duty: float
    source: str = ""
    notes: str = ""

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if not self.n_add >= 0:  # written so that nan fails
            raise ValueError(f"n_add must be nonnegative, got {self.n_add}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        throughput(self.eta, self.bandwidth_hz, self.duty)  # checks bandwidth_hz and duty

    @property
    def throughput_hz(self) -> float:
        return throughput(self.eta, self.bandwidth_hz, self.duty)


def bundled_registry_path() -> Path:
    """Path of the registry CSV that ships with the package."""
    return Path(importlib.resources.files("quduct")) / "data" / "registry.csv"


def read_csv_records(path, header, record) -> list:
    """One record per row of the CSV file at ``path``, which starts with ``header``.

    ``record`` turns one row, a dict from each header field to its text,
    into one record.  Blank lines are skipped; every other row must hold
    exactly ``len(header)`` fields.  Every row that fails, and a line that
    cannot be split into fields, which ends the reading, is reported by its
    physical line in one ValueError, ``PATH: line N: ...; line M: ...``.
    """
    records = []
    problems = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{path}: expected header {','.join(header)}, got {found}")
        try:
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    records.append(record(dict(zip(header, row))))
                except ValueError as exc:
                    problems.append(f"line {reader.line_num}: {exc}")
        except csv.Error as exc:  # a line the csv module cannot split ends the file
            problems.append(f"line {reader.line_num}: {exc}")
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return records


def _device_record(row) -> DeviceRecord:
    return DeviceRecord(
        label=row["label"].strip(),
        direction=row["direction"].strip(),
        n_add=float(row["n_add"]),
        eta=float(row["eta"]),
        bandwidth_hz=float(row["bandwidth_hz"]),
        duty=float(row["duty"]),
        source=row["source"].strip(),
        notes=row["notes"].strip(),
    )


def load_registry(path=None) -> list:
    """Load device records from ``path``, or the bundled registry."""
    if path is None:
        path = bundled_registry_path()
    records = read_csv_records(path, REGISTRY_HEADER, _device_record)
    seen = set()
    for key in ((record.label, record.direction) for record in records):
        if key in seen:
            warnings.warn(f"{path}: duplicate record {key}", stacklevel=2)
        seen.add(key)
    return records


def format_float(x) -> str:
    """Shortest decimal that round-trips the float, for deterministic output."""
    return repr(float(x))


def _quoted(field: str) -> str:
    """``field`` as :func:`csv.writer` writes it: in double quotes, each quote
    doubled, when it holds a comma, a quote, a carriage return or a line feed."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


# rows formatted at a time in a long block, so that the memory a table
# takes does not grow with the length of its blocks
_CHUNK_ROWS = 4096


class MaskedBlock(NamedTuple):
    """A :func:`float_table` block that writes only the rows where ``keep`` is true."""

    entries: list
    keep: np.ndarray


def _format_all(values) -> list:
    """The shortest round-trip text of every value of an array or a sequence.

    Every float of a table is formatted here: an array in one ``repr`` pass
    over its float64 values, which is :func:`format_float` of each, and a
    sequence through :func:`format_float`.
    """
    if isinstance(values, np.ndarray):
        return list(map(repr, np.asarray(values, np.float64).tolist()))
    return list(map(format_float, values))


def _is_sequence(entry) -> bool:
    return not isinstance(entry, str) and hasattr(entry, "__len__")


def _unpack(block) -> tuple:
    """(entries, row mask or None) of a :func:`float_table` block."""
    if isinstance(block, MaskedBlock):
        return list(block.entries), np.asarray(block.keep)
    return list(block), None


def float_table(header, blocks):
    """CSV text of a float table: the header line, then the blocks in chunks.

    Each block holds one entry per column, of one of three kinds:

    * a float or str that is the same on every row of the block;
    * a sequence given as the same object in consecutive blocks, such as
      a grid axis, which is formatted once for all of them;
    * a fresh array (or list) of the block's row values.

    A :class:`MaskedBlock` writes only the rows its boolean ``keep`` marks,
    and formats only those of its fresh entries.  Floats go through
    :func:`_format_all`, and a str entry or header field through
    :func:`_quoted`, so the text is what :func:`csv.writer` writes for the
    same rows after :func:`format_float` of every float (no float field
    ever needs quoting).  A block without a sequence is one row.  A block is
    formatted ``_CHUNK_ROWS`` rows at a time; a sequence that recurs is
    kept for the next block as one joined string per chunk.  Blocks are
    read one ahead, to see which sequences recur, so a block's arrays must
    not change once the block is given.  Formatting is all the generator
    does; check and compute every value before the first chunk is written.
    """
    yield ",".join(map(_quoted, header)) + "\r\n"
    shared = {}  # column -> fields joined per chunk, of a sequence repeated from the block before
    end = [((), None)]  # read one block ahead, past the last one too
    for (entries, keep), (upcoming, _) in pairwise(chain(map(_unpack, blocks), end)):
        recurring = {index for index, (entry, following) in enumerate(zip(entries, upcoming))
                     if entry is following and _is_sequence(entry)}
        joined = {index: shared.get(index, []) for index in recurring | shared.keys()}
        entries = [_quoted(entry) if isinstance(entry, str)
                   else entry if hasattr(entry, "__len__") else _format_all([entry])[0]
                   for entry in entries]
        lengths = {len(entry) for entry in entries if _is_sequence(entry)}
        if len(lengths) > 1:
            raise ValueError(f"columns of one block differ in length: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 1
        if keep is not None and (keep.dtype != bool or keep.shape != (n_rows,)):
            raise ValueError(f"a block's keep must be {n_rows} booleans, "
                             f"got {keep.dtype} of shape {keep.shape}")
        for number, start in enumerate(range(0, n_rows, _CHUNK_ROWS)):
            stop = start + _CHUNK_ROWS
            kept = None if keep is None else keep[start:stop]
            flags = None if kept is None else kept.tolist()
            size = min(stop, n_rows) - start if kept is None else flags.count(True)
            columns = []
            for index, entry in enumerate(entries):
                if isinstance(entry, str):
                    columns.append([entry] * size)
                elif index in joined:
                    chunks = joined[index]
                    if number == len(chunks):
                        chunks.append(",".join(_format_all(entry[start:stop])))
                    fields = chunks[number].split(",")
                    columns.append(fields if kept is None else compress(fields, flags))
                else:
                    part = entry[start:stop]
                    if kept is not None:
                        part = (part[kept] if isinstance(part, np.ndarray)
                                else list(compress(part, flags)))
                    columns.append(_format_all(part))
            if size:
                yield "\r\n".join(map(",".join, zip(*columns))) + "\r\n"
        shared = {index: joined[index] for index in recurring}


def scatter_csv(records, direction: str | None = None) -> str:
    """Scatter CSV text of (throughput, noise) for the requested direction."""
    rows = ([r.throughput_hz, r.n_add, r.label, r.direction]
            for r in records if direction is None or r.direction == direction)
    return "".join(float_table(SCATTER_HEADER, rows))


def contour_table(levels, throughput_range_hz, n_add_range=(1e-3, 0.999), n_samples=512):
    """:func:`contour_csv` as the chunks of :func:`float_table`.

    The contours are computed, and their inputs checked, before this returns.
    """
    lines = capacity_contours(levels, throughput_range_hz, n_add_range, n_samples)
    # every line shares one n_add grid, which is formatted once for all of them
    return float_table(CONTOUR_HEADER, (MaskedBlock([line.level, line.theta, line.n_grid],
                                                    line.keep) for line in lines))


def contour_csv(levels, throughput_range_hz, n_add_range=(1e-3, 0.999), n_samples=512) -> str:
    """Contour polyline CSV for the given iso-rate levels."""
    return "".join(contour_table(levels, throughput_range_hz, n_add_range, n_samples))


def emit_comparison(
    records,
    levels,
    out_dir,
    direction: str = "up",
    live_points=(),
    throughput_range_hz=(1e-2, 1e5),
) -> dict:
    """Write the figure-data bundle: scatter CSV plus contour CSV.

    ``live_points`` are extra DeviceRecords computed on the fly from a
    config (rather than tabulated) and are appended to the scatter.
    Empty ``levels`` produce a scatter-only bundle; contours are drawn
    with the defaults of :func:`contour_csv`.  Returns the mapping of
    artifact name to written path.
    """
    if not records and not live_points:
        raise ValueError("nothing to emit: registry and live points both empty")
    # every text is computed before the first write, so a bad input leaves no file
    texts = {"scatter": scatter_csv(list(records) + list(live_points), direction=direction)}
    if levels:
        texts["contours"] = contour_csv(levels, throughput_range_hz)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, text in texts.items():
        written[name] = out_dir / f"{name}_{direction}.csv"
        written[name].write_text(text)
    return written
