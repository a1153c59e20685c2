"""Published-device registry and comparison-figure data emission.

The bundled registry stores reported transducer performance figures
exactly as tabulated in their sources; the notes column carries any
convention caveat (mode-matching inclusion differs between platforms and
is deliberately not normalised away).  A separate, initially empty CSV
is the hook for importing upconversion points from external datasets the
user has access to.
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

# Columns that hold text.  Every other column holds a float and is
# written with format_float, whatever the type of the value passed in.
TEXT_COLUMNS = frozenset({"label", "direction", "model", "form", "source", "notes"})


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


def external_upconversion_path() -> Path:
    """Path of the optional user-populated upconversion registry.

    Ships with a header only: points reused from external datasets are
    not tabulated here, so nothing is prefilled.
    """
    return Path(importlib.resources.files("quduct")) / "data" / "registry_upconversion_external.csv"


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


def write_csv(fh, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``fh`` as CSV.

    Fields in :data:`TEXT_COLUMNS` are written as they are; every other
    field goes through :func:`format_float`.
    """
    writer = csv.writer(fh)
    writer.writerow(header)
    text = [name in TEXT_COLUMNS for name in header]
    if any(text):
        rows = ([v if t else format_float(v) for t, v in zip(text, row)] for row in rows)
    else:  # all floats, the common case, and the fast one
        rows = (map(format_float, row) for row in rows)
    writer.writerows(rows)


def csv_text(header, rows) -> str:
    """:func:`write_csv` output as a string."""
    out = io.StringIO()
    write_csv(out, header, rows)
    return out.getvalue()


def write_registry(records, path):
    rows = ((r.label, r.direction, r.n_add, r.eta, r.bandwidth_hz, r.duty, r.source, r.notes)
            for r in records)
    with open(path, "w", newline="") as fh:
        write_csv(fh, REGISTRY_HEADER, rows)


def scatter_csv(records, direction: str | None = None) -> str:
    """Scatter CSV text of (throughput, noise) for the requested direction."""
    rows = ((r.throughput_hz, r.n_add, r.label, r.direction)
            for r in records if direction is None or r.direction == direction)
    return csv_text(SCATTER_HEADER, rows)


def contour_csv(levels, throughput_range_hz, n_add_range=(1e-3, 0.999), n_samples=512) -> str:
    """Contour polyline CSV for the given iso-rate levels."""
    lines = capacity_contours(levels, throughput_range_hz, n_add_range, n_samples)
    rows = ((line.level, theta, n_add)
            for line in lines for theta, n_add in zip(line.throughput_hz, line.n_add))
    return csv_text(CONTOUR_HEADER, rows)


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}

    scatter_path = out_dir / f"scatter_{direction}.csv"
    all_records = list(records) + list(live_points)
    scatter_path.write_text(scatter_csv(all_records, direction=direction))
    written["scatter"] = scatter_path

    if levels:
        contour_path = out_dir / f"contours_{direction}.csv"
        contour_path.write_text(contour_csv(levels, throughput_range_hz))
        written["contours"] = contour_path
    return written
