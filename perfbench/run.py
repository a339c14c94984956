"""Benchmark of the chiral-diode package, driven from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce|maps|oracle|all \
        --seed N --seconds S --trace 0|1

One run measures set-up first: a fresh interpreter importing
``chiral_diode.cli`` and calling ``build_parser()``, once to warm the
bytecode cache and then ``SETUP_SAMPLES`` timed times.  It then repeats
passes of the workload, each in a fresh interpreter (``perfbench/worker.py``),
until ``--seconds`` have gone by and at least ``MIN_PASSES`` have run.
Every pass runs the same operations on the same inputs, drawn from
``--seed``, one after the other (one client, closed loop).  The first pass
checks every output and runs the self-tests; every later pass must write
byte-identical files.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median over the set-up samples), ``wall_s`` (one pass: the sum over
operations of each operation's median time across passes) and
``peak_rss_mb`` (median over passes of the pass process's peak resident
memory).  With ``--trace 1`` passes alternate untraced and traced, and the
result holds the per-layer metrics of the traced passes (medians), the
tracing overhead (traced minus untraced pass time) and the import times
from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human summary
goes to standard error, and the full record (environment, every sample,
every failure with its cause, the sha256 of every output file) to
``.perfbench_out/results/``.  This file uses the standard library only, so
the parent process stays small.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "maps", "oracle")
SETUP_SAMPLES = 5
# untraced runs: two passes for per-operation medians; traced runs: one
# untraced and one traced pass.  A pass of ``reproduce`` takes 9-16 s on
# two shared cores, so a third pass would not fit the time a run may take.
MIN_PASSES = {False: 2, True: 2}
IMPORTTIME_SAMPLES = 3
SETUP_CODE = "import chiral_diode.cli as cli; cli.build_parser()"
# a run ends within this many seconds, whatever --seconds says
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: the checkout's ``src`` on the path,
    BLAS/OpenMP threads capped at nproc, no ``CHIRAL_DIODE_THREADS``."""
    env = {k: v for k, v in os.environ.items() if k != "CHIRAL_DIODE_THREADS"}
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap
        env[var] = str(min(max(current, 1), cap))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Children of one run, all bounded by one deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = perf_counter() + BUDGET_S

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def run(self, argv, **kwargs) -> subprocess.CompletedProcess:
        timeout = self.remaining()
        if timeout <= 1.0:
            raise BenchError("out of time")
        try:
            return subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env, timeout=timeout, **kwargs
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {argv}") from None


def preflight(runner: Runner) -> None:
    """The package must be importable from this checkout's ``src``."""
    if not (ROOT / "src" / "chiral_diode" / "cli.py").is_file():
        raise BenchError(f"no chiral_diode package under {ROOT / 'src'}")
    proc = runner.run(
        ["-c", f"{SETUP_CODE}; import chiral_diode; print(chiral_diode.__file__)"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import chiral_diode.cli:\n{proc.stderr}")
    where = Path(proc.stdout.strip()).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        raise BenchError(f"chiral_diode resolves to {where}, outside this checkout")


def measure_setup(runner: Runner) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = runner.run(["-c", SETUP_CODE], capture_output=True)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up import failed")
    return samples


def parse_importtime(text: str) -> dict[str, float]:
    """Import costs in seconds: numpy and scipy as the sum of their modules'
    own times, chiral_diode as the cumulative time of the package import."""
    own = {"numpy": 0.0, "scipy": 0.0}
    package = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        name = fields[2].strip()
        top = name.split(".")[0]
        if top in own:
            own[top] += self_us * 1e-6
        if name == "chiral_diode":
            package = cumulative_us * 1e-6
    return {
        "setup.import_numpy_s": own["numpy"],
        "setup.import_scipy_s": own["scipy"],
        "setup.import_chiral_diode_s": package,
    }


def measure_imports(runner: Runner) -> list[dict]:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = runner.run(["-X", "importtime", "-c", SETUP_CODE], capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("set-up import failed")
        samples.append(parse_importtime(proc.stderr))
    return samples


def run_pass(runner: Runner, workload: str, seed: int, index: int, full: bool,
             traced: bool) -> dict:
    work = OUT / workload
    work.mkdir(parents=True, exist_ok=True)
    result = work / "pass.json"
    result.unlink(missing_ok=True)
    argv = ["-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
            "--out", str(work / "out"), "--result", str(result)]
    if full:
        argv.append("--full")
    if traced:
        argv += ["--spans", str(OUT / "trace" / f"{workload}-seed{seed}-spans.csv")]
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
    proc = runner.run(argv)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload} pass {index} exited with {proc.returncode}")
    record = json.loads(result.read_text(encoding="utf-8"))
    record["index"] = index
    record["traced"] = traced
    return record


def pass_time(records: list[dict]) -> float:
    """One pass's time: the sum over operations of each operation's median
    time across ``records``.  With three or more passes the median drops an
    operation slowed by a burst of load from outside; with two it is their
    mean."""
    return sum(median(r["ops"][k]["seconds"] for r in records)
               for k in range(len(records[0]["ops"])))


def summarize(workload: str, seed: int, seconds: int, trace: bool, setup: list[float],
              imports: list[dict], passes: list[dict]) -> dict:
    """Counts, failures and metrics of one run."""
    reference = passes[0]["hashes"]
    attempted = failed = 0
    failures, known = [], []
    for rec in passes:
        for op in rec["ops"]:
            errors = list(op["errors"])
            want = reference.get(op["name"], {})
            got = rec["hashes"].get(op["name"], {})
            if got != want:
                changed = sorted(f for f in set(got) | set(want) if got.get(f) != want.get(f))
                errors.append(f"{op['name']}: files differ from pass 0: {changed}")
            if op["known_defect"]:
                known.append({"pass": rec["index"], "op": op["name"], "errors": errors,
                              "cause": op["known_defect"]})
                continue
            attempted += 1
            if errors:
                failed += 1
                failures.append({"pass": rec["index"], "op": op["name"], "errors": errors})
    selftests = passes[0]["selftests"]
    missed = [t for t in selftests if not t["caught"]]
    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    metrics = {
        "setup_s": median(setup),
        "wall_s": pass_time(plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median(r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = pass_time(traced) - metrics["wall_s"]
        for name in imports[0]:
            layers[name] = median(s[name] for s in imports)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {"nproc": nproc(), "git_sha": git_sha(), **passes[0]["versions"],
                        "thread_caps": {v: child_env()[v] for v in THREAD_VARS}},
        "correct": failed == 0 and not missed and bool(selftests),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "known_defects": known,
        "selftests": selftests,
        "metrics": metrics,
        "layers": layers,
        "samples": {
            "setup_s": setup,
            "wall_s": [r["wall_s"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
        "op_seconds": {op["name"]: [r["ops"][k]["seconds"] for r in plain]
                       for k, op in enumerate(passes[0]["ops"])},
        "sha256": reference,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner()
    preflight(runner)
    setup = measure_setup(runner)
    imports = measure_imports(runner) if trace else []
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        index = len(passes)
        passes.append(run_pass(runner, workload, seed, index, full=index == 0,
                               traced=trace and index % 2 == 1))
        took = perf_counter() - t0
        enough = len(passes) >= MIN_PASSES[trace] and perf_counter() - start >= seconds
        if enough or runner.remaining() < 1.5 * took:
            break
    if len(passes) < MIN_PASSES[trace]:
        raise BenchError(f"time for {len(passes)} passes only, {MIN_PASSES[trace]} needed")
    summary = summarize(workload, seed, seconds, trace, setup, imports, passes)
    # the outputs are large (maps writes ~0.4 GB); their sha256 stay in the record
    shutil.rmtree(OUT / workload / "out", ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    summary["record"] = str(path.relative_to(ROOT))
    return summary


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(summary: dict, spec: dict) -> dict:
    """The JSON object the last line of output carries."""
    if summary["trace"]:
        source, listed = summary["layers"], spec["per_layer"]
    else:
        source, listed = summary["metrics"], spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def describe(summary: dict) -> str:
    m, s = summary["metrics"], summary["samples"]
    env = summary["environment"]
    lines = [
        f"{summary['workload']} (seed {summary['seed']}, nproc {env['nproc']}, "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"git {env['git_sha'][:12]})",
        f"  setup_s      {m['setup_s']:.4f} s   median of {len(s['setup_s'])} fresh interpreters",
        f"  wall_s       {m['wall_s']:.4f} s   per-operation medians over {len(s['wall_s'])} passes",
        f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MiB   median of {len(s['peak_rss_mb'])} passes",
        f"  fail_ratio   {summary['failed']}/{summary['attempted']} = {summary['fail_ratio']:.4f}"
        f"   operations, all passes",
    ]
    for f in summary["failures"]:
        lines.append(f"    FAILED pass {f['pass']}: {f['op']}: {'; '.join(f['errors'])}")
    known = summary["known_defects"]
    if known:
        bad = [k for k in known if k["errors"]]
        total_failed = summary["failed"] + len(bad)
        total = summary["attempted"] + len(known)
        lines.append(
            f"  known-defect operations: {len(bad)}/{len(known)} failed "
            f"(fail_ratio with them: {total_failed}/{total} = {total_failed / total:.4f})"
        )
        for k in bad[:1]:
            lines.append(f"    {k['op']}: {'; '.join(k['errors'])}")
            lines.append(f"    cause: {k['cause']}")
    for t in summary["selftests"]:
        lines.append(f"  self-test {'caught' if t['caught'] else 'MISSED'}: {t['name']}")
    if summary["layers"]:
        lay = summary["layers"]
        shares = ", ".join(
            f"{k[6:-6]} {v:.0%}" for k, v in lay.items()
            if k.startswith("layer.") and k.endswith(".share") and v >= 0.005
        )
        lines.append(f"  self-time shares of traced wall_s: {shares}; "
                     f"uncovered {lay['trace.uncovered_share']:.1%}")
        lines.append(f"  tracing overhead {lay['trace.overhead_s']:+.3f} s "
                     f"({len(s['traced_wall_s'])} traced vs {len(s['wall_s'])} untraced passes)")
    lines.append(f"  record: {summary['record']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spec = load_spec()
        lines = {}
        for w in workloads:
            summary = run_workload(w, args.seed, args.seconds, bool(args.trace))
            print(describe(summary), file=sys.stderr)
            lines[w] = result_line(summary, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
