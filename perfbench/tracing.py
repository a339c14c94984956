"""In-memory spans around the package's layer functions.

The traced passes replace the module bindings that callers use (for
example ``cli.sweep_single`` or ``report.lattice_transmission``) with
wrappers that record a span (name, start, end, parent span, operation id)
and a few counts.  The package source is never modified; ``Tracer.remove``
puts every original binding back.  Spans live in compact arrays while the
pass runs and are written out once, after it.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import defaultdict
from time import perf_counter

import chiral_diode.cli as cli
import chiral_diode.diode_analysis as diode_analysis
import chiral_diode.model as model
import chiral_diode.single_photon as single_photon
import chiral_diode.two_photon as two_photon
import chiral_diode.verification.lattice as lattice
import chiral_diode.verification.report as report

# span name -> package module (the layer) it belongs to
SPAN_LAYER = {
    "sweep_single": "single_photon",
    "chiral_coeffs": "single_photon",
    "write_csv": "io_utils",
    "TwoPhotonField.init": "two_photon",
    "densities": "two_photon",
    "psi_tt": "two_photon",
    "psi_rr": "two_photon",
    "psi_rt": "two_photon",
    "map_two_photon": "two_photon",
    "write_map_csv": "two_photon",
    "write_map_binary": "two_photon",
    "read_map_binary": "two_photon",
    "working_area_single_res": "diode_analysis",
    "working_area_two_res": "diode_analysis",
    "numeric_zero_scan": "diode_analysis",
    "verify_all": "verification.report",
    "residual_suite": "verification.residuals",
    "lattice_transmission": "verification.lattice",
    "lattice_two_photon": "verification.lattice",
}
LAYERS = (
    "cli", "single_photon", "two_photon", "io_utils", "diode_analysis",
    "verification.residuals", "verification.lattice", "verification.report",
)
SUBCOMMANDS = ("single", "twomap", "working-area", "verify", "reproduce")
CHANNELS = ("tt", "rr", "rt")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_lines(path) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    except OSError:
        return 0


class Tracer:
    """Span recorder plus the bindings it has replaced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self._replaced: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a callable of (args, kwargs) giving
        it; ``count(counts, args, kwargs, result)`` runs after the span
        has closed, so its cost is not charged to the layer.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed = None if callable(name) else self.name_index(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_index(name(args, kwargs))
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._replaced.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._replaced.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._replaced):
            setattr(owner, attr, orig)
        self._replaced.clear()

    def write(self, path) -> None:
        """Spans as CSV: index, name, start, end, parent, op (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n"
                )


# ---------------------------------------------------------------------------
# counters, one per instrumented function


def _count_main(counts, args, kwargs, rc):
    cmd = _subcommand(args, kwargs)
    counts[f"main.{cmd}.calls"] += 1
    counts[f"main.{cmd}.failed"] += rc != 0


def _subcommand(args, kwargs) -> str:
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    return argv[0] if argv else "none"


def _count_write_csv(counts, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    counts["write_csv.rows"] += max(_count_lines(path) - 1, 0)
    counts["write_csv.bytes"] += _file_size(path)


def _count_sweep(counts, args, kwargs, rows):
    counts["sweep_single.rows"] += rows.shape[0]


def _count_calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_densities(counts, args, kwargs, result):
    counts["densities.calls"] += 1
    counts["densities.points"] += sum(v.size for v in result.values())


def _count_map(counts, args, kwargs, maps):
    counts["map_two_photon.points"] += sum(v.size for v in maps.values())


def _count_map_csv(counts, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x_grid")
    counts["write_map_csv.rows"] += len(x) ** 2


def _count_map_binary(counts, args, kwargs, result):
    counts["write_map_binary.bytes"] += _file_size(_arg(args, kwargs, 0, "path"))


def _count_read_binary(counts, args, kwargs, result):
    counts["read_map_binary.bytes"] += _file_size(_arg(args, kwargs, 0, "path"))


def _count_two_res(counts, args, kwargs, curve):
    counts["working_area_two_res.points"] += len(curve)


def _count_zero_scan(counts, args, kwargs, result):
    counts["numeric_zero_scan.gamma1_points"] += len(_arg(args, kwargs, 2, "gamma1_grid"))
    counts["numeric_zero_scan.zeros_found"] += len(result.points)


def _count_residual(counts, args, kwargs, result):
    counts["residual_suite.draws"] += _arg(args, kwargs, 0, "n_draws", 1000)


def _count_verify(counts, args, kwargs, rep):
    counts["verify_all.checks"] += len(rep.checks)
    counts["verify_all.checks_passed"] += sum(c.passed for c in rep.checks)


def _count_lattice(counts, args, kwargs, res):
    spec = _arg(args, kwargs, 0, "spec")
    counts["lattice_transmission.calls"] += 1
    counts["lattice_transmission.sites"] += spec.n_sites
    counts["lattice_transmission.converged"] += bool(res.converged)


def _count_lattice_two(counts, args, kwargs, res):
    spec = _arg(args, kwargs, 0, "spec")
    params = _arg(args, kwargs, 1, "params")
    # mode layout of the two-excitation evolver: right channel, left
    # channel when gamma2 > 0, then the cavity; the basis holds the
    # unordered mode pairs
    modes = (2 * spec.n_sites if params.gamma2 > 0.0 else spec.n_sites) + 1
    counts["lattice_two_photon.calls"] += 1
    counts["lattice_two_photon.basis_dim"] += modes * (modes + 1) // 2
    counts["lattice_two_photon.converged"] += bool(res.converged)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at the bindings its callers use."""
    w = tracer.wrap
    w(cli, "main", lambda a, k: "main." + _subcommand(a, k), _count_main)
    w(cli, "sweep_single", "sweep_single", _count_sweep)
    for mod in (cli, single_photon, report):
        w(mod, "chiral_coeffs", "chiral_coeffs", _count_calls("chiral_coeffs.calls"))
    for mod in (cli, single_photon, two_photon, diode_analysis):
        w(mod, "write_csv", "write_csv", _count_write_csv)
    w(cli, "map_two_photon", "map_two_photon", _count_map)
    w(cli, "write_map_csv", "write_map_csv", _count_map_csv)
    w(cli, "write_map_binary", "write_map_binary", _count_map_binary)
    w(two_photon, "read_map_binary", "read_map_binary", _count_read_binary)
    for mod in (cli, report):
        w(mod, "working_area_single_res", "working_area_single_res")
        w(mod, "working_area_two_res", "working_area_two_res", _count_two_res)
    w(report, "numeric_zero_scan", "numeric_zero_scan", _count_zero_scan)
    w(cli, "verify_all", "verify_all", _count_verify)
    w(report, "residual_suite", "residual_suite", _count_residual)
    for mod in (report, lattice):
        w(mod, "lattice_transmission", "lattice_transmission", _count_lattice)
        w(mod, "lattice_two_photon", "lattice_two_photon", _count_lattice_two)
    field = two_photon.TwoPhotonField
    w(field, "__init__", "TwoPhotonField.init", _count_calls("TwoPhotonField.constructions"))
    w(field, "densities", "densities", _count_densities)
    for ch in CHANNELS:
        w(field, f"psi_{ch}", f"psi_{ch}")
    tracer.count_calls(model.ModelParams, "__post_init__", "ModelParams.constructions")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Busy and self times, counts and ratios of one traced pass.

    A span's self time is its duration minus its direct children's.
    ``map_two_photon.<ch>.busy_s`` is the time in ``psi_<ch>`` spans nested
    in a ``map_two_photon`` span.  ``trace.uncovered_share`` is the part of
    ``wall_s`` that no span covers (the benchmark's own glue and wrapper
    cost).
    """
    names = tracer.names
    nid, start, end, parent = tracer.name_id, tracer.start, tracer.end, tracer.parent
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    under_map = [False] * n
    map_id = tracer._ids.get("map_two_photon", -2)
    top = 0.0
    for i in range(n):
        p = parent[i]
        if p < 0:
            top += dur[i]
        else:
            child[p] += dur[i]
            under_map[i] = under_map[p] or nid[p] == map_id

    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i in range(n):
        name = names[nid[i]]
        own = dur[i] - child[i]
        busy[name] += dur[i]
        self_s[name] += own
        layer = "cli" if name.startswith("main.") else SPAN_LAYER[name]
        layer_self[layer] += own
        if under_map[i] and name.startswith("psi_"):
            busy[f"map_two_photon.{name[4:]}"] += dur[i]

    c = tracer.counts
    out: dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for cmd in SUBCOMMANDS:
        out[f"main.{cmd}.calls"] = c[f"main.{cmd}.calls"]
        out[f"main.{cmd}.failed"] = c[f"main.{cmd}.failed"]
        out[f"main.{cmd}.busy_s"] = busy[f"main.{cmd}"]
        out[f"main.{cmd}.self_s"] = self_s[f"main.{cmd}"]
    out["ModelParams.constructions"] = c["ModelParams.constructions"]
    out["sweep_single.busy_s"] = busy["sweep_single"]
    out["sweep_single.rows"] = c["sweep_single.rows"]
    out["chiral_coeffs.calls"] = c["chiral_coeffs.calls"]
    out["chiral_coeffs.busy_s"] = busy["chiral_coeffs"]
    out["write_csv.busy_s"] = busy["write_csv"]
    out["write_csv.rows"] = c["write_csv.rows"]
    out["write_csv.bytes"] = c["write_csv.bytes"]
    out["TwoPhotonField.constructions"] = c["TwoPhotonField.constructions"]
    out["TwoPhotonField.init_s"] = busy["TwoPhotonField.init"]
    out["densities.calls"] = c["densities.calls"]
    out["densities.points"] = c["densities.points"]
    out["densities.busy_s"] = busy["densities"]
    for ch in CHANNELS:
        out[f"map_two_photon.{ch}.busy_s"] = busy[f"map_two_photon.{ch}"]
    out["map_two_photon.busy_s"] = busy["map_two_photon"]
    out["map_two_photon.points"] = c["map_two_photon.points"]
    out["write_map_csv.busy_s"] = busy["write_map_csv"]
    out["write_map_csv.rows"] = c["write_map_csv.rows"]
    out["write_map_binary.busy_s"] = busy["write_map_binary"]
    out["write_map_binary.bytes"] = c["write_map_binary.bytes"]
    out["read_map_binary.busy_s"] = busy["read_map_binary"]
    out["read_map_binary.bytes"] = c["read_map_binary.bytes"]
    out["working_area_single_res.busy_s"] = busy["working_area_single_res"]
    out["working_area_two_res.busy_s"] = busy["working_area_two_res"]
    out["working_area_two_res.points"] = c["working_area_two_res.points"]
    out["numeric_zero_scan.busy_s"] = busy["numeric_zero_scan"]
    out["numeric_zero_scan.gamma1_points"] = c["numeric_zero_scan.gamma1_points"]
    out["numeric_zero_scan.zeros_found"] = c["numeric_zero_scan.zeros_found"]
    out["residual_suite.busy_s"] = busy["residual_suite"]
    out["residual_suite.draws"] = c["residual_suite.draws"]
    out["verify_all.busy_s"] = busy["verify_all"]
    out["verify_all.self_s"] = self_s["verify_all"]
    out["verify_all.checks"] = c["verify_all.checks"]
    out["verify_all.checks_passed_ratio"] = ratio(
        c["verify_all.checks_passed"], c["verify_all.checks"]
    )
    out["lattice_transmission.calls"] = c["lattice_transmission.calls"]
    out["lattice_transmission.busy_s"] = busy["lattice_transmission"]
    out["lattice_transmission.sites"] = c["lattice_transmission.sites"]
    out["lattice_transmission.converged_ratio"] = ratio(
        c["lattice_transmission.converged"], c["lattice_transmission.calls"]
    )
    out["lattice_two_photon.calls"] = c["lattice_two_photon.calls"]
    out["lattice_two_photon.busy_s"] = busy["lattice_two_photon"]
    out["lattice_two_photon.basis_dim"] = c["lattice_two_photon.basis_dim"]
    out["lattice_two_photon.converged_ratio"] = ratio(
        c["lattice_two_photon.converged"], c["lattice_two_photon.calls"]
    )
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
        out[f"layer.{layer}.share"] = ratio(layer_self[layer], wall_s)
    out["trace.spans"] = n
    out["trace.uncovered_share"] = ratio(max(wall_s - top, 0.0), wall_s)
    return out
