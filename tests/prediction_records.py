"""Test helpers: build EnsembleTables through the one JSONL reader."""

import json
import math

from compdepth import read_predictions


def read_records(records):
    """The table read_predictions makes of record dicts written as JSONL."""
    return read_predictions("".join(json.dumps(r) + "\n" for r in records))


def columns(table):
    """A table's columns as plain values that == compares, NaN z_star as None."""
    return (table.names, table.frame, table.index.tolist(), table.z.tolist(),
            table.sigma.tolist(), table.valid.tolist(),
            [None if math.isnan(v) else v for v in table.z_star.tolist()])
