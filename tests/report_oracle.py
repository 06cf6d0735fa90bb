"""Reference CSV writer for the tests: every report row through csv.writer.

`experiments.report_to_csv` writes each series' rows itself, straight from
the float array a chunk at a time. This oracle writes the whole report
from `to_payload()` with `csv.writer`, rows of Python floats included, so
the tests can compare the two texts byte for byte.
"""

import csv
import io

from stochbisect.experiments import _CELL_COLUMNS, ExperimentReport, _format


def report_to_csv(report: ExperimentReport) -> str:
    """Sectioned CSV: config rows, cell rows, then named series blocks."""
    payload = report.to_payload()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", payload["experiment"]])
    for key, value in payload["config"].items():
        writer.writerow(["config", key, _format(value)])
    for cell in payload["cells"]:
        kind = "scalar" if "value" in cell else "interval"
        fields = {"point": cell.get("value"), **cell}
        writer.writerow(["cell", cell["label"], kind, *(
            _format(fields[key]) if key in fields else "" for key in _CELL_COLUMNS)])
    for note in payload["notes"]:
        writer.writerow(["note", note])
    for name, block in payload["series"].items():
        writer.writerow(["series", name, *block["columns"]])
        writer.writerows(["row", name, *row] for row in block["rows"])
    return buf.getvalue()
