"""One pass of one workload, in a fresh interpreter.

Run from the checkout root as ``python -m perfbench.worker --workload NAME
--seed N --out DIR --result FILE [--full] [--spans FILE]``.  The pass
writes its outputs under ``DIR`` and a JSON record of the pass to ``FILE``:
per-operation times and errors, peak resident memory, the sha256 of every
output file, self-test outcomes (with ``--full``) and per-layer metrics
(with ``--spans``, which also writes the spans there).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import chiral_diode

from . import checks, tracing
from .workloads import BUILDERS, opdir_name


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_digest(path: Path) -> str:
    """sha256 of a file; a verify report is hashed without its timing."""
    if path.name == "verify_report.json":
        rep = json.loads(path.read_text(encoding="utf-8"))
        rep.pop("elapsed_seconds", None)
        return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_pass(workload: str, seed: int, out: Path, full: bool, spans: Path | None) -> dict:
    ops, selftests = BUILDERS[workload](seed)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    dirs = [out / opdir_name(op.name) for op in ops]

    tracer = None
    if spans is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    values, seconds, errors = [], [], []
    try:
        for k, (op, d) in enumerate(zip(ops, dirs)):
            d.mkdir()
            if tracer is not None:
                tracer.current_op = k
            t0 = perf_counter()
            try:
                value, err = op.run(d), []
            except Exception as exc:  # an operation that raises has failed; keep going
                traceback.print_exc(file=sys.stderr)
                value, err = None, [f"{op.name}: raised {exc!r}"]
            seconds.append(perf_counter() - t0)
            values.append(value)
            errors.append(err)
    finally:
        if tracer is not None:
            tracer.remove()
    wall_s = sum(seconds)
    peak = peak_rss_mb()

    for op, d, value, err in zip(ops, dirs, values, errors):
        if not err:
            try:
                # known defects are checked in full on every pass, so each
                # pass reports them
                err.extend(op.after(value, d, full or op.known_defect is not None))
            except Exception as exc:  # a check that crashes counts as a failed output
                traceback.print_exc(file=sys.stderr)
                err.append(f"{op.name}: check raised {exc!r}")

    selftest_results = []
    if full:
        scratch = out / "selftest"
        scratch.mkdir()
        selftest_results = checks.selftest([
            (name, out / opdir_name(source) / filename,
             scratch / f"{opdir_name(name)}-{filename}", corrupt, check)
            for name, source, filename, corrupt, check in selftests
        ])

    hashes = {
        op.name: {str(p.relative_to(d)): file_digest(p)
                  for p in sorted(d.rglob("*")) if p.is_file()}
        for op, d in zip(ops, dirs)
    }
    record = {
        "workload": workload,
        "seed": seed,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
        "ops": [
            {"name": op.name, "seconds": s, "errors": e, "known_defect": op.known_defect}
            for op, s, e in zip(ops, seconds, errors)
        ],
        "hashes": hashes,
        "selftests": selftest_results,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "chiral_diode": chiral_diode.__version__,
        },
        "layers": None,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s)
        tracer.write(spans)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--full", action="store_true", help="check every output and run the self-tests")
    ap.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(chiral_diode.__file__).resolve().parents:
        print(f"chiral_diode was imported from {chiral_diode.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    record = run_pass(args.workload, args.seed, args.out, args.full, args.spans)
    args.result.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
