"""Command-line interface: argument handling, config merging, exit codes,
output formats, and reproducibility of emitted files."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chiral_diode
from chiral_diode import (
    Direction,
    TwoPhotonField,
    TwoPhotonIn,
    chiral_coeffs,
    make_params,
    map_two_photon,
)
from chiral_diode.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY, build_parser, main
from chiral_diode.model import PhotonIn
from chiral_diode.two_photon import read_map_binary
from chiral_diode.verification.report import VerifyCheck, VerifyReport


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def package_env():
    """The environment with this checkout's package first on the path, for
    a fresh interpreter."""
    src = str(Path(chiral_diode.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestSingleSweep:
    def test_default_sized_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            ["single", "--detuning", "-4:4:401", "--gamma1", "1.0",
             "--kappa", "1.0", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert stdout.strip() == str(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 402
        assert lines[0] == "detuning_over_Gamma,gamma1_over_Gamma,T,R,loss"

    def test_json_format_carries_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run(
            ["single", "--detuning", "0:1:3", "--gamma1", "0.5", "--gamma2", "0.5",
             "--kappa", "0.0", "--format", "json", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["header"][:2] == ["detuning_over_Gamma", "gamma1_over_Gamma"]
        assert len(payload["rows"]) == 3
        # lossless: T + R = 1 on every row
        for row in payload["rows"]:
            assert row[2] + row[3] == pytest.approx(1.0, abs=1e-12)

    def test_values_match_the_library(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(
            ["single", "--detuning", "-1:1:5", "--kappa", "0.6",
             "--gamma1", "1.0", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        mid = out.read_text().splitlines()[3].split(",")  # detuning 0 row
        p = make_params(omega_a=0.0, kappa=0.6, U=0.0, gamma1=1.0, gamma2=0.0)
        ref = chiral_coeffs(p, PhotonIn(omega_k=0.0, direction=Direction.LEFT_INCIDENT))
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == pytest.approx(ref.T, rel=1e-12)
        assert float(mid[3]) == pytest.approx(ref.R, rel=1e-12)


class TestValidationErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--detuning", "abc"],
            ["single", "--detuning", "0:1:0"],
            ["single", "--kappa", "-1.0"],
            ["single", "--direction", "up"],
            ["twomap", "--omega1", "0.5"],
            ["twomap", "--channels", "tt,xx"],
            ["twomap", "--format", "hdf5"],
            ["working-area", "--case", "three-photon"],
            ["verify", "--suite", "everything"],
            ["reproduce", "fig99"],
            ["reproduce", "fig3", "--grid", "1"],
            ["twomap", "--channels", "tt,tt"],
        ],
    )
    def test_bad_arguments_exit_1(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run(argv, capsys)
        assert code == EXIT_VALIDATION
        assert "error" in stderr.lower()

    @pytest.mark.parametrize("grid, value", [("0:1.5:3", "1.5"), ("-0.5:1:401", "-0.5")])
    def test_gamma1_grid_outside_the_total_opens_no_file(self, grid, value, tmp_path, capsys):
        # the sweep is made a block at a time as it is written, but its
        # rates are checked before its file is opened
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(
            ["single", "--detuning=-2:2:401", f"--gamma1-grid={grid}", "-o", str(out)], capsys
        )
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: gamma1 grid value {value} outside [0, Gamma=1.0]\n"
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(
            ["single", "--detuning", "0:1:3",
             "-o", str(tmp_path / "no_such_dir" / "out.csv")],
            capsys,
        )
        assert code == EXIT_IO
        assert "I/O" in stderr

    def test_directory_output_of_a_split_table_exits_3(self, tmp_path, capsys, monkeypatch):
        # 401² rows are split across two CPUs; the output fails to open first
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, _, stderr = run(
            ["single", "--detuning=-2:2:401", "--gamma1-grid=0:1:401", "-o", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_IO
        assert stderr.startswith("I/O error: ")
        assert "Traceback" not in stderr
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "argv", [["single", "--detuning", "0:1:3"], ["twomap", "--x=-2:2:5"]]
    )
    def test_empty_output_path_exits_3(self, argv, tmp_path, capsys, monkeypatch):
        # an empty path names no file; it must not fall back to a default
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run([*argv, "-o", ""], capsys)
        assert code == EXIT_IO
        assert "I/O" in stderr
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("short, long", [
    (["twomap", "--omega1", "-.3", "--omega2", "0.2", "--x=-2:2:5"],
     ["twomap", "--omega1", "-0.3", "--omega2", "0.2", "--x=-2:2:5"]),
    (["single", "--detuning", "-.5:.5:3"], ["single", "--detuning", "-0.5:0.5:3"]),
], ids=["omega1", "detuning"])
def test_negative_values_with_a_leading_point_are_values(short, long, tmp_path, capsys):
    outputs = []
    for k, argv in enumerate((short, long)):
        out = tmp_path / f"out{k}.csv"
        code, _, stderr = run([*argv, "-o", str(out)], capsys)
        assert code == EXIT_OK, stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestConfigMerging:
    def test_flags_beat_config_values(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"kappa": 2.0, "detuning": "-1:1:5", "output": "from_config.csv"}
        ))
        code, stdout, _ = run(
            ["--config", str(cfg), "single", "--kappa", "0.6"], capsys
        )
        assert code == EXIT_OK
        out = tmp_path / "from_config.csv"
        assert stdout.strip() == "from_config.csv"
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # header + the config's 5-point grid
        # the kappa flag must override the config: T(0) = ((kappa-G)/(kappa+G))^2
        t0 = float(lines[3].split(",")[2])
        assert t0 == pytest.approx(((0.6 - 1.0) / (0.6 + 1.0)) ** 2, rel=1e-12)

    def test_unknown_config_keys_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_option": 1}))
        code, _, stderr = run(["--config", str(cfg), "single"], capsys)
        assert code == EXIT_VALIDATION
        assert "bogus_option" in stderr

    def test_non_utf8_config_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code, _, stderr = run(["--config", str(cfg), "single"], capsys)
        assert code == EXIT_VALIDATION
        assert "UTF-8" in stderr

    def test_missing_config_file_is_an_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["--config", str(tmp_path / "absent.json"), "single"], capsys
        )
        assert code in (EXIT_VALIDATION, EXIT_IO)

    @pytest.mark.parametrize(
        "config, argv, option",
        [
            ({"suite": True}, ["verify"], "suite"),
            ({"outdir": 5}, ["reproduce", "fig3"], "outdir"),
            ({"output": ["a"]}, ["single"], "output"),
            ({"direction": ["left"]}, ["twomap"], "direction"),
            ({"convention": "bogus"}, ["twomap", "--channels", "tt"], "convention"),
            ({"kappa": True, "U": False}, ["single"], "kappa"),
            ({"U": False}, ["single"], "U"),
            ({"seed": True, "draws": True}, ["verify", "--suite", "residual"], "draws"),
            ({"seed": True}, ["verify", "--suite", "residual"], "seed"),
        ],
    )
    def test_config_values_are_checked_like_flags(
        self, config, argv, option, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, stdout, stderr = run(["--config", str(cfg), *argv], capsys)
        assert code == EXIT_VALIDATION
        assert stderr.startswith(f"error: {option}: ")
        assert stdout == ""
        assert list(work.iterdir()) == []

    def test_integer_output_from_config_leaves_an_inherited_fd_alone(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": 7}))
        fd7 = tmp_path / "fd7.txt"
        work = tmp_path / "work"
        work.mkdir()
        # the shell opens fd 7 on a file and the CLI inherits it
        proc = subprocess.run(
            ["sh", "-c", '"$@" 7>"$0"', str(fd7), sys.executable, "-m", "chiral_diode.cli",
             "--config", str(cfg), "single", "--detuning", "0:1:3"],
            cwd=work, env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr.startswith("error: output: ")
        assert proc.stdout == ""
        assert fd7.read_bytes() == b""
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--skip-lattice", "--two-photon-lattice"])
    def test_removed_lattice_switches_exit_1(self, flag, capsys):
        code, stdout, stderr = run(["verify", "--suite", "residual", "--draws", "1", flag], capsys)
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: ") and flag in stderr
        assert "Traceback" not in stderr
        assert stdout == ""

    def test_removed_lattice_switch_is_an_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"skip_lattice": False}))
        code, stdout, stderr = run(
            ["--config", str(cfg), "verify", "--suite", "residual", "--draws", "1"], capsys
        )
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: config: unknown keys for 'verify': ['skip_lattice']")
        assert stdout == ""


# Every option string and default of each subcommand, as declared before
# the options were gathered into one table per subcommand (verify's as
# declared since its suites became one ordered choice).
_PARAM_DEFAULTS = {"--omega-a": 0.0, "--kappa": 1.0, "--gamma1": 1.0, "--gamma2": None}
_OPTION_DEFAULTS = {
    "single": {
        **_PARAM_DEFAULTS, "--U": 0.0, "--detuning": "-4:4:401", "--gamma1-grid": None,
        "--direction": "left", "-o --output": "single_sweep.csv", "--format": "csv",
    },
    "twomap": {
        **_PARAM_DEFAULTS, "--U": 10.0, "--resonance": "single-photon", "--omega1": None,
        "--omega2": None, "--direction": "left", "--x": "-5:5:401", "--channels": "tt",
        "--convention": "reconstructed", "-o --output": None, "--format": "csv",
    },
    "working-area": {
        **_PARAM_DEFAULTS, "--U": 10.0, "--case": "single-photon-resonance",
        "--gamma1-grid": "0:1:401", "--gx-ceiling": 20.0, "-o --output": "working_area.csv",
        "--format": "csv",
    },
    "verify": {
        "--suite": "lattice", "--draws": 300, "--seed": 20240817, "-o --output": None,
    },
    "reproduce": {"figure": None, "--grid": 401, "--outdir": "."},
}


class TestOptionTables:
    @pytest.mark.parametrize("command", sorted(_OPTION_DEFAULTS))
    def test_help_lists_the_same_option_strings(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = set(re.findall(r"(?<![\w-])(--?[A-Za-z][\w-]*)", capsys.readouterr().out))
        declared = {f for flags in _OPTION_DEFAULTS[command] for f in flags.split()}
        assert shown == {"-h", "--help"} | (declared - {"figure"})

    @pytest.mark.parametrize("command", sorted(_OPTION_DEFAULTS))
    def test_defaults_are_unchanged(self, command):
        positional = ["fig2"] if command == "reproduce" else []
        args = build_parser().parse_args([command, *positional])
        assert {o.flags: o.default for o in args.options} == _OPTION_DEFAULTS[command]

    def test_benchmark_argument_forms_parse(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        params = ["--omega-a=0.123", "--kappa=0.5", "--U=-10.0", "--gamma1=0.3"]
        for argv in (
            ["single", *params, "--detuning=-5:5:11", "--gamma1-grid=0:1:401",
             "--direction", "right", "--format", "csv", "-o", "s.csv"],
            ["twomap", *params, "--resonance", "two-photon", "--direction", "left",
             "--x=-5:5:21", "--channels", "tt,rr,rt", "--convention", "reconstructed",
             "--format", "csv", "-o", "m.csv"],
            ["working-area", "--case", "two-photon-resonance", *params,
             "--gx-ceiling=20.0", "--format", "csv", "-o", "wa.csv"],
        ):
            assert run(argv, capsys)[0] == EXIT_OK, argv

    @pytest.mark.parametrize(
        "argv, options",
        [
            (["single"], {"detuning": "-1:1:5", "kappa": 0.6, "gamma1": 0.7,
                          "direction": "right", "output": "single.csv"}),
            (["twomap"], {"x": "-2:2:9", "channels": "tt,rr,rt", "gamma1": 0.7, "U": -3.0,
                          "resonance": "two-photon", "format": "csv", "output": "map.csv"}),
            (["working-area"], {"case": "single-photon-resonance", "kappa": 0.0,
                                "gamma1_grid": "0.25:1:7", "output": "wa.csv"}),
            (["working-area"], {"case": "two-photon-resonance", "kappa": 0.4,
                                "gx_ceiling": 5, "output": "wa.csv"}),
            (["reproduce", "fig3"], {"grid": 21, "outdir": "."}),
            (["verify"], {"suite": "residual", "draws": 3, "seed": 7,
                          "output": "report.json"}),
        ],
    )
    def test_config_writes_what_flags_write(self, argv, options, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
        results = []
        for name, full_argv in (
            ("flags", [*argv, *flags]), ("config", ["--config", str(cfg), *argv])
        ):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            code, stdout, _ = run(full_argv, capsys)
            assert code == EXIT_OK
            files = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
            if argv[0] == "verify":
                # the two reports differ only in their run time
                stdout = [json.loads(files.pop("report.json")), json.loads(stdout)]
                for report in stdout:
                    del report["elapsed_seconds"]
            results.append((files, stdout))
        assert results[0] == results[1]
        assert results[0][0] or argv[0] == "verify"


class TestTwomap:
    def test_binary_output_matches_the_library(self, tmp_path, capsys):
        out = tmp_path / "map.bin"
        code, _, _ = run(
            ["twomap", "--x", "-2:2:17", "--format", "binary", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        matrix, x_range = read_map_binary(out)
        p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0)
        field = TwoPhotonField(p, TwoPhotonIn(Direction.LEFT_INCIDENT, 0.0, 0.0))
        ref = map_two_photon(field, np.linspace(-2.0, 2.0, 17))["tt"]
        assert np.array_equal(matrix, ref)
        assert x_range == pytest.approx((-2.0, 2.0, -2.0, 2.0), abs=1e-6)

    def test_binary_format_rejects_more_than_one_channel(self, tmp_path, capsys):
        out = tmp_path / "map.bin"
        code, stdout, stderr = run(
            ["twomap", "--x=-2:2:17", "--channels", "tt,rt", "--format", "binary",
             "-o", str(out)],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: channels: a binary map holds one channel")
        assert stdout == ""
        assert not out.exists()

    def test_rt_defaults_to_the_reconstructed_convention(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code, _, _ = run(
            ["twomap", "--x=-2:2:17", "--channels", "rt", "--gamma1", "0.7", "--gamma2", "0.3",
             "--format", "json", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        m = np.asarray(json.loads(out.read_text())["channels"]["rt"])
        p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=0.7, gamma2=0.3)
        field = TwoPhotonField(p, TwoPhotonIn(Direction.LEFT_INCIDENT, 0.0, 0.0))
        x = np.linspace(-2.0, 2.0, 17)
        assert np.array_equal(m, map_two_photon(field, x, ("rt",), "reconstructed")["rt"])
        assert not np.allclose(m, map_two_photon(field, x, ("rt",), "printed")["rt"])

    def test_two_photon_resonance_stripes_at_zero_gamma1(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code, _, _ = run(
            ["twomap", "--resonance", "two-photon", "--gamma1", "0",
             "--gamma2", "1.0", "--x", "0:0.314159265358979:5",
             "--format", "json", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        m = np.asarray(payload["channels"]["tt"])
        x = np.asarray(payload["x_grid"])
        sep = x[:, None] - x[None, :]
        expect = np.cos(10.0 * sep) ** 2 / (2.0 * np.pi**2)
        assert float(np.max(np.abs(m - expect))) < 1e-14

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        import chiral_diode.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(cli, "map_two_photon", exhausted)
        code, stdout, stderr = run(
            ["twomap", "--x=-5:5:2000000", "-o", str(tmp_path / "map.bin")], capsys
        )
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: out of memory")
        assert stdout == ""


class TestWorkingArea:
    def test_single_res_csv(self, tmp_path, capsys):
        out = tmp_path / "wa.csv"
        code, _, _ = run(
            ["working-area", "--kappa", "0.0", "--gamma1-grid", "0.25:1:4",
             "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma1_over_Gamma,Gamma_abs_x,branch,diverges"
        assert len(lines) == 5
        g, gx, _, div = lines[3].split(",")  # gamma1 = 0.75 row
        assert float(g) == 0.75 and div == "0"
        assert float(gx) == pytest.approx(2.0 * np.log(9.0), rel=1e-12)

    def test_divergences_serialize_as_null_in_json(self, tmp_path, capsys):
        out = tmp_path / "wa.json"
        code, _, _ = run(
            ["working-area", "--kappa", "1.0", "--gamma1-grid", "0.6:1:3",
             "--format", "json", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["case"] == "single-photon-resonance"
        pole = payload["points"][-1]
        assert pole["diverges"] is True and pole["Gamma_abs_x"] is None

    def test_help_says_two_photon_resonance_needs_kappa_below_gamma(self, capsys):
        # with no other flag the default kappa = 1 equals Gamma, and the
        # two-photon-resonance curve is empty
        with pytest.raises(SystemExit):
            main(["working-area", "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        assert "two-photon-resonance needs kappa < Gamma" in shown

    def test_two_res_case(self, tmp_path, capsys):
        out = tmp_path / "wa2.csv"
        code, _, _ = run(
            ["working-area", "--case", "two-photon-resonance", "--kappa", "0.4",
             "--gx-ceiling", "5", "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) > 5
        branches = {int(l.split(",")[2]) for l in lines[1:]}
        assert len(branches) > 3  # several tangent branches below the ceiling

    @pytest.mark.parametrize("gx_ceiling, rows", [("1100", 3498), ("5000", 15912)])
    @pytest.mark.filterwarnings("error")
    def test_two_res_high_ceiling_writes_every_branch(self, gx_ceiling, rows, tmp_path, capsys):
        # past Gamma|x| ~ 700 exp(s |x|/2) overflows float64
        out = tmp_path / "wa.csv"
        code, _, stderr = run(
            ["working-area", "--case", "two-photon-resonance", "--kappa", "0.4",
             "--gx-ceiling", gx_ceiling, "-o", str(out)],
            capsys,
        )
        assert code == EXIT_OK and stderr == ""
        branch = np.loadtxt(out, delimiter=",", skiprows=1, usecols=2, dtype=int)
        assert branch.size == rows
        assert np.unique(branch).tolist() == list(range(branch.min(), branch.max() + 1))

    def test_two_res_branch_count_float64_cannot_resolve_exits_1(self, tmp_path):
        # |U| gx_ceiling ~ 2e301: the walk's step count is past 2**53, and
        # the solver refuses before it allocates a node
        code = (
            "import sys, time; from chiral_diode.cli import main; t = time.perf_counter(); "
            "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
        )
        argv = ["working-area", "--case", "two-photon-resonance", "--kappa", "0.4",
                "--U", "1e300", "-o", str(tmp_path / "wa.csv")]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=package_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "2**53" in proc.stderr
        assert float(proc.stdout) < 2.0
        assert not (tmp_path / "wa.csv").exists()


@pytest.mark.parametrize("argv, option", [
    (["single", "--detuning=-1e308:1e308:3"], "detuning"),
    (["twomap", "--x=-1e308:1e308:3"], "x"),
    (["working-area", "--gamma1-grid=-1e308:1e308:5"], "gamma1-grid"),
], ids=["single", "twomap", "working-area"])
def test_grid_whose_span_overflows_exits_1(tmp_path, argv, option):
    # finite endpoints whose difference overflows: np.linspace gives nan
    # and inf points, which must not reach the computation
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "chiral_diode.cli", *argv, "-o", str(out)],
                          env=package_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith(f"error: {option}: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == "" and not out.exists()


def scaled_command(command, k):
    """A command's argv with each rate, frequency and detuning times 2**k
    and each position times 2**-k, and its scale-free columns."""
    a = 2.0**k

    def rates(**values):
        return [f for name, v in values.items() for f in (f"--{name}", repr(v * a))]

    def grid(lo, hi, n, scale):
        return f"{repr(lo * scale)}:{repr(hi * scale)}:{n}"

    area = ["gamma1_over_Gamma", "Gamma_abs_x", "branch", "diverges"]
    return {
        "single": (["single", *rates(**{"omega-a": 0.3, "kappa": 0.6, "gamma1": 0.7, "gamma2": 0.5}),
                    f"--detuning={grid(-2.0, 2.0, 41, a)}", f"--gamma1-grid={grid(0.0, 1.2, 21, a)}"],
                   ["detuning_over_Gamma", "gamma1_over_Gamma", "T", "R", "loss"]),
        "twomap": (["twomap", *rates(**{"omega-a": 0.3, "kappa": 0.6, "U": 3.0, "gamma1": 0.7,
                                        "gamma2": 0.5}),
                    f"--x={grid(-5.0, 5.0, 41, 1.0 / a)}", "--channels", "tt,rr,rt"],
                   ["psi_tt_sq", "psi_rr_sq", "psi_rt_sq"]),
        "working-area-single": (["working-area", *rates(kappa=0.6, U=10.0, gamma1=0.7, gamma2=0.5),
                                 f"--gamma1-grid={grid(0.0, 1.2, 41, a)}"], area),
        "working-area-two": (["working-area", "--case", "two-photon-resonance",
                              *rates(kappa=0.4, U=10.0, gamma1=0.7, gamma2=0.5)], area),
    }[command]


class TestRateScale:
    # every rate and frequency times 2**k and every position times 2**-k is
    # the same model: the scale-free columns must be bit-identical
    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("command", ["single", "twomap", "working-area-single",
                                         "working-area-two"])
    @pytest.mark.filterwarnings("error")
    def test_scale_free_columns_do_not_depend_on_the_rate_scale(self, command, k, tmp_path,
                                                                capsys):
        def columns(k):
            argv, names = scaled_command(command, k)
            out = tmp_path / f"{k}.csv"
            code, _, stderr = run([*argv, "-o", str(out)], capsys)
            assert code == EXIT_OK and stderr == ""
            lines = out.read_text().splitlines()
            at = [lines[0].split(",").index(name) for name in names]
            return [[row.split(",")[i] for i in at] for row in lines[1:]]

        base = columns(0)
        assert len(base) > 10 and "nan" not in str(base)
        assert columns(k) == base


class TestVerifyCommand:
    def test_residual_suite_passes_and_prints_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["verify", "--suite", "residual", "-o", str(out)], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["all_pass"] is True
        assert json.loads(out.read_text()) == payload

    def test_failing_report_exits_2(self, capsys, monkeypatch):
        import chiral_diode.cli as cli

        failing = VerifyReport(
            checks=(VerifyCheck("synthetic", 1.0, 0.5, False),),
            elapsed_seconds=0.0,
        )
        monkeypatch.setattr(cli, "verify_all", lambda **kw: failing)
        code, stdout, _ = run(["verify", "--suite", "residual"], capsys)
        assert code == EXIT_VERIFY
        assert json.loads(stdout)["all_pass"] is False

    def test_non_finite_values_are_strict_json_nulls(self, tmp_path, capsys, monkeypatch):
        import chiral_diode.cli as cli

        def no_constant(name):
            raise ValueError(f"not JSON: {name}")

        failing = VerifyReport(
            checks=(VerifyCheck("unconverged", float("inf"), 0.02, False),
                    VerifyCheck("broken", float("nan"), 1e-12, False),
                    VerifyCheck("negative_infinity", float("-inf"), 1e-3, False),
                    VerifyCheck("finite", 1e-13, 1e-12, True)),
            elapsed_seconds=0.0,
        )
        monkeypatch.setattr(cli, "verify_all", lambda **kw: failing)
        out = tmp_path / "report.json"
        code, stdout, stderr = run(["verify", "-o", str(out)], capsys)
        assert (code, stderr) == (EXIT_VERIFY, "")
        for text in (stdout, out.read_text()):
            payload = json.loads(text, parse_constant=no_constant)
            assert [c["value"] for c in payload["checks"]] == [None, None, None, 1e-13]
            assert payload["all_pass"] is False

    @pytest.mark.parametrize("argv, n_draws", [(["--draws", "1"], 1), ([], 300)])
    def test_draws_reach_the_residual_suite(self, argv, n_draws, capsys, monkeypatch):
        import chiral_diode.verification.report as report

        seen = []
        real = report.residual_suite

        def spy(**kw):
            seen.append(kw["n_draws"])
            return real(**{**kw, "n_draws": 1})

        monkeypatch.setattr(report, "residual_suite", spy)
        code, _, _ = run(["verify", "--suite", "residual", *argv], capsys)
        assert code == EXIT_OK
        assert seen == [n_draws]

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_non_positive_draws_rejected(self, draws, capsys):
        code, stdout, stderr = run(
            ["verify", "--suite", "analytic", "--draws", draws], capsys
        )
        assert code == EXIT_VALIDATION
        assert "draws" in stderr
        assert stdout == ""

    def test_negative_seed_rejected(self, capsys):
        code, _, stderr = run(["verify", "--suite", "residual", "--seed", "-1"], capsys)
        assert code == EXIT_VALIDATION
        assert "seed" in stderr

    def test_non_integer_draws_from_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": "many"}))
        code, _, stderr = run(["--config", str(cfg), "verify"], capsys)
        assert code == EXIT_VALIDATION
        assert "draws" in stderr


class TestReproduce:
    @pytest.mark.parametrize("grid", ["many", 2.5])
    def test_non_integer_grid_from_config_rejected(self, grid, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}))
        outdir = tmp_path / "out"
        code, stdout, stderr = run(
            ["--config", str(cfg), "reproduce", "fig2", "--outdir", str(outdir)], capsys
        )
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: grid")
        assert stdout == ""
        assert not outdir.exists()

    def test_fig3_emits_four_panels_and_manifest(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["reproduce", "fig3", "--grid", "21", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        names = [line.rsplit("/", 1)[-1] for line in stdout.strip().splitlines()]
        assert names == [
            "fig3a.csv", "fig3b.csv", "fig3c.csv", "fig3d.csv",
            "fig3_manifest.json",
        ]
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        assert manifest["figure"] == "fig3"
        assert manifest["grid_points"] == 21
        for entry in manifest["files"]:
            assert (tmp_path / entry["file"]).exists()

    @pytest.mark.parametrize("figure", [f"fig{k}" for k in range(2, 10)])
    def test_runs_are_byte_identical(self, figure, tmp_path, capsys):
        def digest(d):
            return {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(d.iterdir())
            }

        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            argv = ["reproduce", figure, "--grid", "21", "--outdir", str(d)]
            assert run(argv, capsys)[0] == EXIT_OK
        assert digest(a) == digest(b)
        assert len(digest(a)) > 1

    @pytest.mark.parametrize("figure, n_forks", [
        ("fig2", 0), ("fig3", 0), ("fig4", 1), ("fig5", 0),
        ("fig6", 0), ("fig7", 1), ("fig8", 0), ("fig9", 0),
    ])
    def test_a_figure_forks_once_per_extra_cpu(self, figure, n_forks, tmp_path, capsys,
                                                monkeypatch):
        # fig4's and fig7's four 401 x 401 tables go two to a CPU, written
        # straight into their files; the small tables of the others fork nothing
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pids = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        argv = ["reproduce", figure, "--grid", "401", "--outdir", str(tmp_path)]
        assert run(argv, capsys)[0] == EXIT_OK
        assert len(pids) == n_forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_grid_past_memory_is_an_error_line(self, n_cpus, tmp_path, capfd, monkeypatch):
        # every process that computes a 200000 x 200000 panel runs out of
        # memory; the run exits 1 with one line and leaves the four files
        # with their headers alone
        import chiral_diode.cli as cli

        def exhausted(*args):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                            raising=False)
        monkeypatch.setattr(cli, "_separation_density", exhausted)
        outdir = tmp_path / "out"
        code = main(["reproduce", "fig4", "--grid", "200000", "--outdir", str(outdir)])
        out = capfd.readouterr()
        assert code == EXIT_VALIDATION
        assert out.err == ("error: out of memory (Unable to allocate 596. GiB for an array);"
                           " a smaller grid needs less\n")
        assert out.out == ""
        assert sorted(f.name for f in outdir.iterdir()) == [f"fig4{p}.csv" for p in "abcd"]
        for f in outdir.iterdir():
            assert f.read_text() == "gamma1_over_Gamma,Gamma_x,density\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_out_of_memory_is_an_error_line(self, tmp_path, capfd, monkeypatch):
        import chiral_diode.cli as cli

        parent = os.getpid()
        density = cli._separation_density

        def exhausted_in_a_child(*args):
            if os.getpid() != parent:
                raise MemoryError("Unable to allocate")
            return density(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_separation_density", exhausted_in_a_child)
        code = main(["reproduce", "fig4", "--grid", "401", "--outdir", str(tmp_path)])
        out = capfd.readouterr()
        assert code == EXIT_VALIDATION
        parts = ", ".join(f"{tmp_path / f'fig4{p}.csv'} rows 0-{401**2 - 1}" for p in "cd")
        assert out.err == (f"error: out of memory (in the process writing {parts});"
                           " a smaller grid needs less\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("figure", ["fig4", "fig7"])
    def test_each_panel_is_computed_where_it_is_written(self, figure, n_cpus, tmp_path,
                                                        capsys, monkeypatch):
        # every gamma1 row of every panel is computed once across all the
        # processes, by the process that writes it, and the bytes are those
        # of one CPU
        import chiral_diode.cli as cli
        from chiral_diode import io_utils

        log = tmp_path / "density.log"
        density = cli._separation_density

        def logged(*args):
            params, case, _, incident = args
            rows = " ".join(map(repr, np.ravel(params.gamma1).tolist()))
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{os.getpid()} {case.value} {incident.value} {rows}\n".encode())
            finally:
                os.close(fd)
            return density(*args)

        one = tmp_path / "one"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run(["reproduce", figure, "--outdir", str(one)], capsys)[0] == EXIT_OK
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                            raising=False)
        monkeypatch.setattr(cli, "_separation_density", logged)
        pids = [os.getpid()]
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        outdir = tmp_path / "out"
        assert run(["reproduce", figure, "--outdir", str(outdir)], capsys)[0] == EXIT_OK
        n = 401
        shares = io_utils._block_ranges(*(n * n,) * 4, units=(n,) * 4)
        assert len(shares) == len(pids) == n_cpus
        panels = [(case.value, incident.value) for case in (cli._SPR, cli._TPR)
                  for incident in (Direction.LEFT_INCIDENT, Direction.RIGHT_INCIDENT)]
        row_of = {repr(g): i for i, g in enumerate(np.linspace(0.0, 1.0, n).tolist())}
        made = []
        for line in log.read_text().splitlines():
            pid, case, incident, *rows = line.split()
            made += [(panels.index((case, incident)), row_of[g], int(pid)) for g in rows]
        assert sorted((p, i) for p, i, _ in made) == [(p, i) for p in range(4) for i in range(n)]
        for p, i, pid in made:
            first = (p * n + i) * n
            assert pid == pids[next(k for k, (a, b) in enumerate(shares) if a <= first < b)]
        for f in sorted(one.iterdir()):
            assert (outdir / f.name).read_bytes() == f.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["reproduce", "fig4", "--grid", "{n}", "--outdir", "{out}"],
    ["single", "--detuning=-2:2:{n}", "--gamma1-grid=0:1:{n}", "-o", "{out}/single.csv"],
    ["twomap", "--x=-5:5:{n}", "--channels", "tt,rr,rt", "--format", "csv",
     "-o", "{out}/map.csv"],
], ids=["reproduce", "single", "twomap"])
def test_csv_tables_take_flat_memory(argv, tmp_path, capsys, monkeypatch):
    # 16 times the rows, and the peak of what numpy and Python allocate
    # grows by the O(n) grid values alone.  One CPU, so every row is made
    # in this process; the writer's untouched 4 MiB heap chunk, freed at
    # once, would hide the blocks' allocations under it.
    from chiral_diode import io_utils

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(io_utils, "_keep_block_heap", lambda: None)
    peaks = {}
    for n in (101, 401):
        out = tmp_path / str(n)
        out.mkdir()
        tracemalloc.start()
        try:
            code = main([a.format(n=n, out=out) for a in argv])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    capsys.readouterr()
    assert peaks[401] - peaks[101] < 2**19, peaks


# Flag values for the fuzz test: (valid, invalid) choices per flag, at tiny
# grids.  "Valid" means well formed; a valid draw may still be rejected when
# its values do not fit together (e.g. gamma1 + gamma2 above the total).
_FUZZ_PARAMS = {
    "--omega-a": (["0", "0.5", "-1"], ["nan", "z"]),
    "--kappa": (["1.0", "0", "0.3", "40"], ["-0.5", "inf", "abc"]),
    "--U": (["10", "-10", "0", "2.5"], ["x", "-inf"]),
    "--gamma1": (["1.0", "0.3", "0", "0.7"], ["-1", "1e400", "2"]),
    "--gamma2": (["0", "0.5", "0.3"], ["-0.1", "nan"]),
}
_FUZZ_GRID = (["-4:4:9", "0:1:3", "1:0:2", "0:1:1", "-1:1:6"],
              ["0:1:0", "0:1:-1", "0:1", "a:b:c", "0:1:2.5", "0:inf:3"])
_FUZZ_FLAGS = {
    "single": {
        **_FUZZ_PARAMS, "--detuning": _FUZZ_GRID, "--gamma1-grid": _FUZZ_GRID,
        "--direction": (["left", "right"], ["up"]),
        "--format": (["csv", "json"], ["xml"]),
        "-o": (["out.csv"], ["missing/out.csv", "."]),
    },
    "twomap": {
        **_FUZZ_PARAMS, "--resonance": (["single-photon", "two-photon"], ["none"]),
        "--omega1": (["0", "1.5"], ["q"]), "--omega2": (["0", "-2"], ["nan"]),
        "--direction": (["left", "right"], ["up"]), "--x": _FUZZ_GRID,
        "--channels": (["tt", "rr", "rt", "tt,rr,rt", "rt,tt"], ["xx", "", "tt,tt"]),
        "--convention": (["printed", "reconstructed"], ["other"]),
        "--format": (["csv", "json", "binary"], ["png"]),
        "-o": (["out.bin"], ["missing/out.bin", "."]),
    },
    "working-area": {
        **_FUZZ_PARAMS,
        "--case": (["single-photon-resonance", "two-photon-resonance"], ["x"]),
        "--gamma1-grid": _FUZZ_GRID,
        "--gx-ceiling": (["20", "5", "0", "1e-3"], ["-1", "nan", "inf", "q"]),
        "--format": (["csv", "json"], ["xml"]),
        "-o": (["out.csv"], ["missing/out.csv", "."]),
    },
    "verify": {
        "--suite": (["residual", "analytic"], ["bogus"]),
        "--draws": (["1", "3"], ["0", "-1", "x"]),
        "--seed": (["1", "0"], ["-5", "x"]),
        "-o": (["out.json"], ["missing/out.json", "."]),
    },
    "reproduce": {
        "--grid": (["2", "3", "5"], ["1", "0", "-1", "x"]),
        "--outdir": (["repro"], ["a_file"]),
    },
}
class TestScipyFreeRuntime:
    """The package needs numpy alone: scipy is a test-only dependency."""

    def test_start_up_loads_no_scipy(self):
        code = (
            "import sys; import chiral_diode.cli as cli; cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["verify", "-o", "report.json"],
        ["reproduce", "fig6", "--grid", "41"],
        ["working-area", "--case", "two-photon-resonance", "-o", "wa.csv"],
    ])
    def test_commands_run_with_scipy_unimportable(self, tmp_path, argv):
        # a None entry in sys.modules makes every scipy import raise
        code = (
            "import sys; sys.modules['scipy'] = None; "
            f"from chiral_diode.cli import main; sys.exit(main({argv!r}))"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=package_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr


# always drawn, so no run falls back to a slow default (the lattice suite
# and 300 draws of verify, 401-point grids)
_FUZZ_REQUIRED = {"twomap": ("--x",), "verify": ("--suite", "--draws"), "reproduce": ("--grid",)}
_FUZZ_FIGURES = ([f"fig{k}" for k in range(2, 10)], ["fig1", "fig10", "x"])
# verify has only three flags to vary, so it is drawn less often than the
# other subcommands
_FUZZ_WEIGHTS = {"single": 4, "twomap": 4, "working-area": 4, "verify": 1, "reproduce": 4}


def test_fuzzed_flags_exit_cleanly(tmp_path, monkeypatch, capsys):
    """Seeded random command lines for every subcommand, each flag drawn
    valid or invalid: every run exits 0, 1 or 3 and prints no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("not a directory")
    rng = np.random.default_rng(20240817)

    def draw(choices):
        valid, invalid = choices
        return str(rng.choice(invalid if rng.random() < 0.15 else valid))

    weights = np.array(list(_FUZZ_WEIGHTS.values())) / sum(_FUZZ_WEIGHTS.values())
    codes = []
    for _ in range(120):
        command = str(rng.choice(list(_FUZZ_WEIGHTS), p=weights))
        argv = [command] + ([draw(_FUZZ_FIGURES)] if command == "reproduce" else [])
        for flag, choices in _FUZZ_FLAGS[command].items():
            if flag in _FUZZ_REQUIRED.get(command, ()) or rng.random() < 0.4:
                argv += [flag, draw(choices)]
        try:
            code, _, stderr = run(argv, capsys)
        except Exception as exc:
            pytest.fail(f"{argv}: {exc!r} escaped main")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO), (argv, code, stderr)
        assert "Traceback" not in stderr, (argv, stderr)
        codes.append(code)
    assert {EXIT_OK, EXIT_VALIDATION, EXIT_IO} <= set(codes)


# JSON values that no option takes where its flag would take a string
_FUZZ_NON_STRINGS = [None, True, 5, ["x"]]


def test_fuzzed_config_exits_cleanly(tmp_path, monkeypatch, capsys):
    """Seeded random config files for every subcommand, each key drawn from
    the flag fuzz values or from JSON non-strings: every run exits 0, 1 or
    3 and prints no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("not a directory")
    cfg = tmp_path / "cfg.json"
    rng = np.random.default_rng(20240818)
    keys = {
        command: {
            ("output" if flag == "-o" else flag.lstrip("-").replace("-", "_")): choices
            for flag, choices in flags.items()
        }
        for command, flags in _FUZZ_FLAGS.items()
    }
    required = {
        command: {flag.lstrip("-") for flag in flags} for command, flags in _FUZZ_REQUIRED.items()
    }

    def draw(choices):
        valid, invalid = choices
        r = rng.random()
        pool = _FUZZ_NON_STRINGS if r < 0.05 else invalid if r < 0.2 else valid
        return pool[rng.integers(len(pool))]

    weights = np.array(list(_FUZZ_WEIGHTS.values())) / sum(_FUZZ_WEIGHTS.values())
    codes = []
    for _ in range(200):
        command = str(rng.choice(list(_FUZZ_WEIGHTS), p=weights))
        config = {
            key: draw(choices)
            for key, choices in keys[command].items()
            if key in required.get(command, ()) or rng.random() < 0.4
        }
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), command]
        if command == "reproduce":
            argv.append(str(rng.choice(_FUZZ_FIGURES[rng.random() < 0.15])))
        try:
            code, _, stderr = run(argv, capsys)
        except Exception as exc:
            pytest.fail(f"{config}: {exc!r} escaped main")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO), (argv, config, code, stderr)
        assert "Traceback" not in stderr, (config, stderr)
        codes.append(code)
    assert {EXIT_OK, EXIT_VALIDATION, EXIT_IO} <= set(codes)


# the edges of the stated parameter domain: no loss, either coupling off,
# an attractive Kerr term, and loss far above the coupling
_BOUNDARY_POINTS = {
    "kappa=0": ["--kappa", "0"],
    "gamma1=0": ["--gamma1", "0"],
    "gamma2=0": ["--gamma1", "0.6", "--gamma2", "0"],
    "U=-10": ["--U", "-10"],
    "kappa=1000": ["--kappa", "1000"],
}
_BOUNDARY_COMMANDS = {
    "single": ["single", "--detuning=-2:2:9"],
    "twomap": ["twomap", "--x=-3:3:21", "--channels", "tt,rr,rt"],
    "working-area": ["working-area", "--gamma1-grid", "0:1:9"],
}


@pytest.mark.parametrize("grid, spans", [("0:0.3:4", "[0, 0.3]"), ("0.4:1.1:2", "[0.4, 1.1]")],
                         ids=["below", "straddling"])
def test_working_area_grid_missing_a_nonempty_interval_notes_it(grid, spans, tmp_path, capsys):
    # at kappa = 1 the interval [(kappa + Gamma)/4, Gamma] is [0.5, 1]
    out = tmp_path / "out.csv"
    argv = ["working-area", "--kappa", "1", "--gamma1-grid", grid, "-o", str(out)]
    code, _, stderr = run(argv, capsys)
    assert code == EXIT_OK, stderr
    assert out.read_text().count("\n") == 1
    assert stderr.startswith("note: ") and stderr.count("\n") == 1, stderr
    assert f"grid {spans}" in stderr and "[0.5, 1]" in stderr, stderr


@pytest.mark.parametrize("flags, reason", [
    (["--kappa", "2"], "no gamma1 lies in ((kappa + Gamma)/2, Gamma] = (1.5, 1] "
                       "once kappa >= Gamma"),
    (["--kappa", "0.4", "--U", "0"], "a linear cavity (U = 0) has no two-photon bound state"),
    (["--kappa", "0.4", "--gx-ceiling", "0.1"], "no null has Gamma|x| <= gx_ceiling 0.1"),
    (["--kappa", "0.4"], None),
], ids=["kappa>=Gamma", "U=0", "below-ceiling", "nonempty"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_two_res_working_area_notes_why_it_is_empty(flags, reason, fmt, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["working-area", "--case", "two-photon-resonance", *flags, "--format", fmt,
            "-o", str(out)]
    code, _, stderr = run(argv, capsys)
    assert code == EXIT_OK, stderr
    if fmt == "csv":
        n_points = out.read_text().count("\n") - 1
    else:
        n_points = len(json.loads(out.read_text())["points"])
    if reason is None:
        assert stderr == "" and n_points > 5
    else:
        assert stderr == f"note: the working area is empty: {reason}\n"
        assert n_points == 0


@pytest.mark.parametrize("point", _BOUNDARY_POINTS)
@pytest.mark.parametrize("command", _BOUNDARY_COMMANDS)
def test_domain_boundaries_write_finite_cells_or_an_error_line(command, point, tmp_path, capsys):
    """Each run writes only finite data cells, or exits 1 with an error
    line; the one non-finite cell allowed is the inf of a diverging
    working-area point."""
    out = tmp_path / "out.csv"
    argv = _BOUNDARY_COMMANDS[command] + _BOUNDARY_POINTS[point] + ["-o", str(out)]
    code, _, stderr = run(argv, capsys)
    assert "Traceback" not in stderr, stderr
    if code == EXIT_VALIDATION:
        assert stderr.startswith("error: "), stderr
        return
    assert code == EXIT_OK, (code, stderr)
    # working-area keeps only gamma1 in [(kappa + Gamma)/4, Gamma], so at
    # kappa = 1000 its table is empty, and a note says why
    header, *lines = out.read_text().splitlines()
    empty = command == "working-area" and point == "kappa=1000"
    assert ("note:" in stderr) == empty, stderr
    if empty:
        assert lines == [] and stderr.count("\n") == 1, stderr
        assert "[250.25, 1]" in stderr, stderr
    columns = header.split(",")
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        if cells.get("diverges") == "1":
            assert cells.pop("Gamma_abs_x") == "inf", line
        assert all(np.isfinite(float(cell)) for cell in cells.values()), line
