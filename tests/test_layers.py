"""bench/layers.py's capture pass, untimed: the counts it reads from the package's own calls."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_the_capture_pass_counts_what_the_package_calls():
    tables = {name: [row for row, *_ in rows] for name, rows in layers.capture().items()}
    pinned, e1_e2 = tables["solves"]  # the solve tests/test_geometry.py pins, then e1 -> e2
    assert (e1_e2["calls"], e1_e2["segments"]) == (2, [24, 1496])
    assert (pinned["sweeps"], pinned["stop_reason"], pinned["calls"],
            pinned["chunk_rows"]) == (17, "step-floor", 2, 9326)
    # per field and spec: the starts, a ladder of 17 x 88 single moves, two parity halves
    segments = [row["segments"] for row in tables["segment_kernel"]]
    assert segments == 3 * [24, 1496, 180, 150] + 3 * [36, 1496, 180, 150]
    assert [(row["nodes"], row["converged"]) for row in tables["simpson"]] == [
        (65, True), (65, True), (1025, False)]
