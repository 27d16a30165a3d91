#!/usr/bin/env python3
"""Reproduce every reference table and the singular-spectrum figure data.

Writes table CSVs and the spectrum of fig2.spec's coefficient system to out/
(or a directory given as the first argument).  Equivalent to running
`chebbvp tables <id>` for each table plus `chebbvp diag` on fig2.spec.
The last line of stdout is the process's peak resident memory.
"""

import pathlib
import resource
import sys
import time

from chebbvp.cli import TABLES, builtin_spec_text, reproduce_tables, spectrum
from chebbvp.diagnostics import spectrum_csv
from chebbvp.problems import parse_problem


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    for which in TABLES:
        t0 = time.perf_counter()
        csv = reproduce_tables(which)
        path = outdir / f"table{which}.csv"
        path.write_text(csv)
        print(f"table {which} -> {path} ({time.perf_counter() - t0:.1f}s)")
        print(csv, end="")
    t0 = time.perf_counter()
    report = spectrum(parse_problem(builtin_spec_text("fig2.spec")))
    (outdir / "spectrum_fig2.csv").write_text(spectrum_csv(report))
    print(f"spectrum (fig2.spec) -> {outdir/'spectrum_fig2.csv'} "
          f"({time.perf_counter() - t0:.1f}s); condition {report.condition:.3g}")
    unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes there, KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit:.0f} MB")


if __name__ == "__main__":
    main()
