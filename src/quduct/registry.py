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
from pathlib import Path

from .capacity import capacity_contours

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
        if self.n_add < 0:
            raise ValueError("n_add must be nonnegative")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.duty <= 1:
            raise ValueError("duty must be in (0, 1]")

    @property
    def throughput_hz(self) -> float:
        return self.eta * self.bandwidth_hz * self.duty


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


def _format_all(values) -> list:
    """:func:`format_float` of every value of an array or a sequence."""
    return list(map(format_float, values.tolist() if hasattr(values, "tolist") else values))


def float_table(header, blocks):
    """CSV text of a float table: the header line, then the blocks in chunks.

    Each block holds one entry per column, of one of three kinds:

    * a float or str that is the same on every row of the block;
    * a sequence given as the same object in consecutive blocks, such as
      a grid axis, which is formatted once for all of them;
    * a fresh array (or list) of the block's row values.

    Floats go through :func:`format_float`, so the text is what
    :func:`csv_text` writes for the same rows: no float field ever needs
    quoting, and a str entry must not need it either.  A block without a
    sequence is one row.  A block of more than ``_CHUNK_ROWS`` rows is
    formatted that many rows at a time, and none of its sequences is kept
    for the next block.  Formatting is all the generator does; check and
    compute every value before the first chunk is written.
    """
    yield ",".join(header) + "\r\n"
    last = {}  # column -> (sequence, its fields) in the block before
    for block in blocks:
        block = [entry if isinstance(entry, str) or hasattr(entry, "__len__")
                 else format_float(entry) for entry in block]
        lengths = {len(entry) for entry in block if not isinstance(entry, str)}
        if len(lengths) > 1:
            raise ValueError(f"columns of one block differ in length: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 1
        for start in range(0, n_rows, _CHUNK_ROWS):
            size = min(n_rows - start, _CHUNK_ROWS)
            columns = []
            for index, entry in enumerate(block):
                if isinstance(entry, str):
                    fields = [entry] * size
                elif n_rows > _CHUNK_ROWS:
                    fields = _format_all(entry[start:start + size])
                else:
                    seen, fields = last.get(index, (None, None))
                    if entry is not seen:
                        fields = _format_all(entry)
                        last[index] = entry, fields
                columns.append(fields)
            yield "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


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
    return float_table(CONTOUR_HEADER,
                       ([line.level, line.throughput_hz, line.n_add] for line in lines))


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
