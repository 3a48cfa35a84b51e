"""Fresh-interpreter helpers for the benchmark.

    child.py setup WORKLOAD SEED     time the imports the workload pays for and
                                     its spec building at the reference pace
                                     of pace.py; print one JSON line
    child.py cli OUT -- ARGS...      run finsler_iso.cli.main(ARGS) under the
                                     tracer; write OUT.json (aggregate and
                                     import times) and OUT.npz (spans)

Imports are timed first, before anything else pulls numpy in; pace.py
imports nothing that numpy or the package would.
"""

import pace

_meter = pace.Meter()
_meter.run(lambda: __import__("numpy"))
_numpy_s = _meter.seconds

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(workload: str, seed: int) -> None:
    """setup_s runs from before numpy to the built specs.  A library workload
    pays for `import workloads` too, which imports the package submodules
    it calls; the cli workload pays for what the console script imports."""
    def package():
        import finsler_iso
        if workload == "cli":
            import finsler_iso.cli  # noqa: F401
        return finsler_iso

    def specs():
        if workload != "cli":
            import workloads
            workloads.make(workload, seed, Path.cwd(), {})

    finsler_iso = _meter.run(package)
    package_s = _meter.seconds
    _meter.run(specs)
    workload_s = _meter.seconds
    print(json.dumps({"numpy_import_s": _numpy_s, "package_import_s": package_s,
                      "workload_s": workload_s, "setup_s": _numpy_s + package_s + workload_s,
                      "package_file": finsler_iso.__file__}))


def traced_cli(out: str, argv: list[str]) -> int:
    cli = _meter.run(lambda: __import__("finsler_iso.cli", fromlist=["cli"]))
    package_s = _meter.seconds
    import tracer
    with tracer.Tracer() as t:
        try:
            code = cli.main(argv)
        finally:
            sys.stdout.flush()
    Path(out + ".json").write_text(json.dumps({
        "aggregate": t.aggregate(), "numpy_import_s": _numpy_s, "package_import_s": package_s}))
    t.dump(Path(out + ".npz"))
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli" and sys.argv[3] == "--":
        sys.exit(traced_cli(sys.argv[2], sys.argv[4:]))
    else:
        sys.exit(f"usage: {__doc__}")
