"""Byte checks of the figures outputs across gradient schedules; not collected by pytest.

Run from the repository root with ``PYTHONPATH=src:.``:

    python tests/figures_bytes.py MODE OUT [OUT ...]
        runs ``bench.workloads.run_figures(0)`` into each OUT, each from its
        own thread, all at once. MODE ``runs`` keeps the runs of datasets
        of ``model.gradient`` and ``model.smooth_objective``; ``whole`` sets
        ``model._RUN_BYTES`` past every stack, so each gradient and each
        objective is taken over the whole stack; ``serial`` asserts that one
        CPU is usable (run it under ``taskset -c 0``), so the caller takes
        every run, and ``threaded`` that two or more are, so one worker
        thread takes every other run of a large stack, and two callers at
        once queue their jobs for it.
    python tests/figures_bytes.py same REF OUT [OUT ...]
        asserts that REF holds a file and that each OUT holds the same files,
        each byte-identical to REF's.

Each run writes only its own slice of the gradient or of the objective's
loss means, and matmul runs each slice's own product, so no run schedule
may move a byte.
"""

import sys
import threading
from pathlib import Path


def run(mode: str, outs: list) -> None:
    from bench.workloads import run_figures
    from stabledp import model

    if mode == "whole":
        model._RUN_BYTES = 1 << 62
    elif mode != "runs":
        assert (model._usable_cpus() > 1) == (mode == "threaded"), model._usable_cpus()
    failed = []

    def call(out):
        try:
            run_figures(0, False, Path(out))
        except BaseException as e:
            failed.append(e)
            raise

    callers = [threading.Thread(target=call, args=(out,)) for out in outs]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert not failed, failed


def files_of(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def same(ref: Path, outs: list) -> None:
    files = files_of(ref)
    assert files, f"{ref} holds no file"
    for out in map(Path, outs):
        got = files_of(out)
        assert got == files, (out, got, files)
        for f in files:
            assert (out / f).read_bytes() == (ref / f).read_bytes(), f"{out / f} differs"


if __name__ == "__main__":
    mode, first, *rest = sys.argv[1:]
    if mode == "same":
        same(Path(first), rest)
    else:
        assert mode in ("runs", "whole", "serial", "threaded"), mode
        run(mode, [first, *rest])
