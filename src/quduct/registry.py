"""Published-device registry and comparison-figure data emission.

The bundled registry stores reported transducer performance figures
exactly as tabulated in their sources; the notes column carries any
convention caveat (mode-matching inclusion differs between platforms and
is deliberately not normalised away).
"""

from __future__ import annotations

import csv
import importlib.resources
import io
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


class RegistryError(ValueError):
    """Malformed registry content; message lists line numbers."""


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


def _parse_rows(reader, origin: str):
    records = []
    problems = []
    seen = set()
    for line_no, row in enumerate(reader, start=2):
        try:
            record = DeviceRecord(
                label=row["label"].strip(),
                direction=row["direction"].strip(),
                n_add=float(row["n_add"]),
                eta=float(row["eta"]),
                bandwidth_hz=float(row["bandwidth_hz"]),
                duty=float(row["duty"]),
                source=(row.get("source") or "").strip(),
                notes=(row.get("notes") or "").strip(),
            )
        except (TypeError, ValueError, AttributeError, KeyError) as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        key = (record.label, record.direction)
        if key in seen:
            warnings.warn(
                f"{origin} line {line_no}: duplicate record {key}", stacklevel=3
            )
        seen.add(key)
        records.append(record)
    if problems:
        raise RegistryError(f"{origin}: " + "; ".join(problems))
    return records


def load_registry(path=None) -> list:
    """Load device records from ``path``, or the bundled registry."""
    if path is None:
        path = bundled_registry_path()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REGISTRY_HEADER:
            raise RegistryError(
                f"{path}: expected header {','.join(REGISTRY_HEADER)}, "
                f"got {reader.fieldnames}"
            )
        return _parse_rows(reader, str(path))


def format_float(x) -> str:
    """Shortest decimal that round-trips the float, for deterministic output."""
    return repr(float(x))


def csv_text(header, rows) -> str:
    """CSV text of ``header`` and then ``rows``, quoting text that needs it.

    A str field is written as it is, any other through :func:`format_float`.
    """
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else format_float(v) for v in row] for row in rows)
    return out.getvalue()


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
    :func:`_format_all`, so the text is what :func:`csv_text` writes for
    the same rows: no float field ever needs quoting, and a str entry must
    not need it either.  A block without a sequence is one row.  A block is
    formatted ``_CHUNK_ROWS`` rows at a time; a sequence that recurs is
    kept for the next block as one joined string per chunk.  Blocks are
    read one ahead, to see which sequences recur, so a block's arrays must
    not change once the block is given.  Formatting is all the generator
    does; check and compute every value before the first chunk is written.
    """
    yield ",".join(header) + "\r\n"
    shared = {}  # column -> fields joined per chunk, of a sequence repeated from the block before
    end = [((), None)]  # read one block ahead, past the last one too
    for (entries, keep), (upcoming, _) in pairwise(chain(map(_unpack, blocks), end)):
        recurring = {index for index, (entry, following) in enumerate(zip(entries, upcoming))
                     if entry is following and _is_sequence(entry)}
        joined = {index: shared.get(index, []) for index in recurring | shared.keys()}
        entries = [entry if hasattr(entry, "__len__") else _format_all([entry])[0]
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
    rows = ((r.throughput_hz, r.n_add, r.label, r.direction)
            for r in records if direction is None or r.direction == direction)
    return csv_text(SCATTER_HEADER, rows)


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
