"""One court-fda process of a benchmark iteration.

Usage (from the root of a checkout):

    python3 perfbench/worker.py REPORT T0 --run -- <court-fda arguments>
    python3 perfbench/worker.py REPORT T0 --trace RUN_ID -- <court-fda arguments>
    python3 perfbench/worker.py REPORT T0 --probe

T0 is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up plus the imports of
numpy and court_fda. The worker then calls ``court_fda.cli.main`` in
process, with spans installed when ``--trace`` is given, and writes a
JSON report: set-up time, wall and CPU seconds of the call, the
process's peak resident set, the exit code, and any spans. With
``--probe`` it stops after the imports and reports the set-up time and
the BLAS thread count.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    report_path, t0 = Path(argv[0]), float(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import court_fda  # noqa: F401
    import court_fda.cli

    ready = time.monotonic()
    import json
    import resource

    report: dict = {"setup_s": ready - t0}
    if argv[2] == "--probe":
        from court_fda.pipeline import PipelineConfig

        report.update(blas_threads=_blas_threads(), threads=PipelineConfig().threads)
        report_path.write_text(json.dumps(report), encoding="utf-8")
        return 0

    cli_argv = argv[argv.index("--") + 1:]
    recorder = None
    if argv[2] == "--trace":
        import spans

        recorder = spans.Recorder(argv[3])
        spans.install(recorder)
        root = recorder.open(spans.subcommand_span(cli_argv))
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = court_fda.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.close(root)
        start, end = root["start"], root["end"]
        report["spans"] = recorder.spans
    report.update(
        exit=code,
        run_s=end - start,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        maxrss_kb=usage1.ru_maxrss,
    )
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
