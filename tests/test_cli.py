import errno
import resource
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cllb import cli, covariance
from cllb.cli import main
from cllb.covariance import TimeGrid
from cllb.errors import NumericalError
from cllb.sampler import build_fbm_cov_matrix, sample


def run_cli(args):
    """In-process invocation; returns (exit_code, captured stdout lines)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue().splitlines()


def assert_validation_error(code, capsys):
    """Exit 2 with one machine-readable validation line, which is returned."""
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("cllb-error kind=validation ")
    return err[0]


def assert_numerical_error(code, capsys):
    """Exit 3 with one machine-readable numerical line, which is returned."""
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("cllb-error kind=numerical ")
    return err[0]


# the fBm covariance overflows at these times: (1e200)^1.8 is inf
_OVERFLOW_ARGV = ["sample", "--process", "fbm", "--hurst-index", "0.9", "--grid-kind",
                  "explicit", "--grid-list", "1e200,2e200", "--count", "2"]


def _poison_draw(monkeypatch):
    """Give ``cllb sample`` a factor with a NaN; return the batch starts its writer sees."""
    factorize, draw = cli.factorize, cli.sample_sup_abs
    batches = []

    def poisoned(cov, **kwargs):
        factor = factorize(cov, **kwargs)
        factor.panels[-1][0, 0] = np.nan
        return factor

    def spied(factor, count, seed, on_batch, **kwargs):
        def seen(start, paths, sups):
            batches.append(start)
            on_batch(start, paths, sups)

        return draw(factor, count, seed, on_batch=seen, **kwargs)

    monkeypatch.setattr(cli, "factorize", poisoned)
    monkeypatch.setattr(cli, "sample_sup_abs", spied)
    return batches


def parse_kv(lines):
    out = {}
    for line in lines:
        if "=" in line:
            key, value = (p.strip() for p in line.lstrip("# ").split("=", 1))
            out[key] = value
    return out


class TestConstants:
    def test_reference_output(self):
        code, lines = run_cli(["constants", "--alpha", "2", "--hurst", "0.5"])
        assert code == 0
        kv = parse_kv(lines)
        assert float(kv["theta"]) == 0.25
        assert float(kv["c21"]) == pytest.approx(0.398942, rel=1e-4)
        assert float(kv["kappa"]) == pytest.approx(0.751126, rel=1e-4)

    def test_package_runs_as_a_module(self):
        out = subprocess.run(
            [sys.executable, "-m", "cllb", "constants"], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert "theta = 0.25" in out.stdout.splitlines()

    def test_invalid_alpha_exits_2_naming_bound(self, capsys):
        code = main(["constants", "--alpha", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "kind=validation" in err
        assert "(1, 2]" in err

    def test_unknown_flag_exits_1(self, capsys):
        code = main(["constants", "--frobnicate", "1"])
        assert code == 1
        assert "kind=usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand", ["constants", "cov-verify", "sample", "smallball", "lil"]
    )
    def test_workers_is_not_an_option(self, subcommand, tmp_path, capsys):
        code = main([subcommand, "--workers", "-1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("cllb-error kind=usage ")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        line = assert_validation_error(main([subcommand, "--config", str(cfg)]), capsys)
        assert "unknown config keys: ['workers']" in line

    def test_out_file_has_header(self, tmp_path):
        out = tmp_path / "c.txt"
        code, _ = run_cli(
            ["constants", "--alpha", "1.5", "--hurst", "0.75", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == "# cllb 0.1.0"
        assert any(l.startswith("# subcommand = constants") for l in text)
        assert any(l.startswith("theta = ") for l in text)


class TestCovVerify:
    def test_csv_matches_contract(self, tmp_path):
        out = tmp_path / "cov.csv"
        code, _ = run_cli(
            ["cov-verify", "--alpha", "2", "--hurst", "0.5", "--grid", "4", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "alpha,H,s,t,closed,quadrature,rel_err"
        assert len(lines) == 1 + 16
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 7
            assert float(fields[6]) < 1e-6


class TestSample:
    def test_csv_determinism(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["sample", "--count", "20", "--seed", "11", "--grid-points", "8",
                "--out", str(out)]
        assert run_cli(args)[0] == 0
        first = out.read_bytes()
        assert run_cli(args)[0] == 0
        assert out.read_bytes() == first

    def test_binary_format_roundtrip(self, tmp_path):
        out = tmp_path / "paths.bin"
        code, _ = run_cli(
            ["sample", "--count", "7", "--seed", "3", "--grid-points", "5",
             "--format", "bin", "--out", str(out)]
        )
        assert code == 0
        blob = out.read_bytes()
        assert blob[:4] == b"CLLB"
        version, = struct.unpack_from("<I", blob, 4)
        rows, cols = struct.unpack_from("<QQ", blob, 8)
        assert (version, rows, cols) == (1, 7, 5)
        data = np.frombuffer(blob, dtype="<f8", offset=24).reshape((rows, cols), order="F")
        # must equal the csv output of the same config
        csv_out = tmp_path / "paths.csv"
        run_cli(["sample", "--count", "7", "--seed", "3", "--grid-points", "5",
                 "--out", str(csv_out)])
        body = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
        csv_vals = np.array([[float(v) for v in row.split(",")] for row in body])
        np.testing.assert_array_equal(data, csv_vals)

    def test_binary_requires_out(self, capsys):
        assert main(["sample", "--format", "bin"]) == 1

    def test_binary_without_out_exits_before_sampling(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the usage check")

        monkeypatch.setattr(cli, "sample", fail)
        monkeypatch.setattr(cli, "sample_sup_abs", fail)
        monkeypatch.setattr(cli, "build_cov_matrix", fail)
        assert main(["sample", "--format", "bin", "--grid-points", "4096"]) == 1

    def test_binary_is_the_column_major_dump_written_per_batch(self, tmp_path, batch_size):
        # 17 paths in batches of 7: two full batches and a short last one
        batch_size(7)
        out = tmp_path / "p.bin"
        argv = ["sample", "--process", "fbm", "--hurst-index", "0.3", "--grid-points", "45",
                "--count", "17", "--seed", "5", "--format", "bin", "--out", str(out)]
        assert main(argv) == 0
        grid = TimeGrid.uniform(1.0 / 45, 1.0, 45)
        paths = sample(build_fbm_cov_matrix(grid, 0.3), 17, seed=5).paths
        blob = out.read_bytes()
        assert blob[:24] == b"CLLB" + struct.pack("<IQQ", 1, 17, 45)
        assert blob[24:] == paths.tobytes(order="F")

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_paths_leave_no_artifact(self, fmt, tmp_path, monkeypatch, capsys,
                                                batch_size):
        batches = _poison_draw(monkeypatch)
        batch_size(7)
        out = tmp_path / "paths"
        argv = ["sample", "--count", "20", "--grid-points", "16", "--format", fmt,
                "--out", str(out)]
        assert "non-finite" in assert_numerical_error(main(argv), capsys)
        assert batches == [] and list(tmp_path.iterdir()) == []
        # an earlier artifact at --out is left as it was
        out.write_text("earlier run\n")
        assert main(argv) == 3
        assert out.read_text() == "earlier run\n" and list(tmp_path.iterdir()) == [out]

    def test_non_finite_paths_write_no_rows_to_stdout(self, monkeypatch, capsys):
        batches = _poison_draw(monkeypatch)
        code, lines = run_cli(["sample", "--count", "20", "--grid-points", "16"])
        assert_numerical_error(code, capsys)
        assert batches == [] and lines and all(line.startswith("#") for line in lines)

    def test_non_finite_grid_exits_2(self, capsys):
        code = main(["sample", "--grid-kind", "explicit", "--grid-list", "0.5,1,inf"])
        assert code == 2
        assert "kind=validation" in capsys.readouterr().err

    @pytest.mark.skipif(covariance._DPOTRF is None, reason="numpy bundles no OpenBLAS")
    def test_sfhe_factorizes_once(self, tmp_path, monkeypatch):
        calls = []
        dpotrf = covariance._DPOTRF

        def counting(uplo, n, *args):
            calls.append(n._obj.value)
            return dpotrf(uplo, n, *args)

        monkeypatch.setattr(covariance, "_DPOTRF", counting)
        code, _ = run_cli(
            ["sample", "--process", "sfhe", "--grid-points", "600", "--count", "4",
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 0
        assert calls == [600]

    def test_sample_leaves_scipy_unimported(self, tmp_path):
        # scipy serves only the cov-verify oracle; the CLI and a draw need none of it
        code = (
            "import sys\n"
            "import cllb.cli\n"
            "argv = ['sample', '--grid-points', '16', '--count', '4', '--out', sys.argv[1]]\n"
            "assert cllb.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s.csv")], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_overflowing_covariance_exits_3(self, capsys):
        # the covariance is rejected, before any path is drawn from it
        assert "non-finite entries" in assert_numerical_error(main(_OVERFLOW_ARGV), capsys)

    def test_overflowing_covariance_prints_one_stderr_line(self):
        # numpy warnings go to stderr only outside pytest's capture
        out = subprocess.run(
            [sys.executable, "-m", "cllb.cli", *_OVERFLOW_ARGV], capture_output=True, text=True
        )
        assert out.returncode == 3
        err = out.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("cllb-error kind=numerical ")

    @pytest.mark.parametrize("grid", [
        ["--grid-points", "3", "--grid-end", "inf"],
        ["--grid-kind", "geometric", "--grid-start", "0.001", "--grid-end", "inf"],
    ])
    def test_infinite_grid_end_prints_one_stderr_line(self, grid, tmp_path):
        # rejected before np.linspace, which warns on a non-finite endpoint
        out = subprocess.run(
            [sys.executable, "-m", "cllb.cli", "sample", *grid, "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            'cllb-error kind=validation detail="grid times must be finite"'
        ]

    @pytest.mark.parametrize("process", ["sfhe", "fbm"])
    def test_time_zero_alone_samples_zeros(self, process, tmp_path):
        # u(0) = 0 exactly: the all-zero covariance factors to zero
        out = tmp_path / "z.csv"
        code, _ = run_cli(
            ["sample", "--process", process, "--grid-kind", "explicit", "--grid-list", "0",
             "--count", "2", "--out", str(out)]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 2 and all(float(v) == 0.0 for v in body)

    def test_fbm_process_and_explicit_grid(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _ = run_cli(
            ["sample", "--process", "fbm", "--hurst-index", "0.5",
             "--grid-kind", "explicit", "--grid-list", "0.5,1.0",
             "--count", "5", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 5 and len(body[0].split(",")) == 2


class TestSmallball:
    def test_determinism_byte_identical(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["smallball", "--process", "fbm", "--hurst-index", "0.5", "--seed", "7",
                "--count", "10000", "--grid-size", "256", "--out", str(out)]
        assert run_cli(args)[0] == 0
        first = out.read_bytes()
        assert run_cli(args)[0] == 0
        assert out.read_bytes() == first

    def test_csv_columns_and_fit_block(self, tmp_path):
        out = tmp_path / "sb.csv"
        code, _ = run_cli(
            ["smallball", "--process", "sfhe", "--count", "10000",
             "--grid-size", "256", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header_idx = lines.index("epsilon,prob,stderr,count,grid_size")
        assert header_idx > 0
        kv = parse_kv(lines)
        assert "fit_exponent" in kv and "fit_constant" in kv
        assert "lambda_hat" in kv

    def test_all_zero_curve_exits_3(self, capsys):
        code = main(
            ["smallball", "--process", "fbm", "--hurst-index", "0.5",
             "--epsilons", "0.05", "--count", "10000", "--grid-size", "256"]
        )
        assert_numerical_error(code, capsys)

    def test_huge_epsilon_runs_without_warnings(self, tmp_path, capsys):
        # the bridge step's image count once squared 2 * eps, which
        # overflowed past eps ~ 1e154 with a RuntimeWarning on stderr
        out = tmp_path / "sb.csv"
        argv = ["smallball", "--process", "fbm", "--hurst-index", "0.5", "--grid-size", "2",
                "--count", "10000", "--epsilons", "1e300,1.0", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        # every path stays in the 1e300 ball
        assert "1e+300,1,0,10000,2" in out.read_text()

    def test_singular_fit_is_reported_unavailable(self, monkeypatch):
        def solve(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        code, lines = run_cli(
            ["smallball", "--process", "fbm", "--hurst-index", "0.5", "--count", "10000",
             "--grid-size", "256", "--seed", "5"]
        )
        assert code == 0
        assert "# fit_unavailable = rate fit design is singular: Singular matrix" in lines

    def test_singular_internal_lil_fit_exits_3(self, monkeypatch, capsys):
        def solve(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        code = main(["lil", "--fit-count", "10000", "--fit-grid-size", "128", "--count", "20"])
        assert "singular" in assert_numerical_error(code, capsys)

    def test_emit_plot_script(self, tmp_path):
        out = tmp_path / "sb.csv"
        code, _ = run_cli(
            ["smallball", "--process", "fbm", "--hurst-index", "0.5", "--count", "10000",
             "--grid-size", "256", "--seed", "5", "--out", str(out), "--emit-plot"]
        )
        assert code == 0
        script = tmp_path / "sb_plot.py"
        assert script.exists()
        assert "matplotlib" in script.read_text()


class TestLil:
    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "lil.csv"
        code, _ = run_cli(
            ["lil", "--count", "40", "--n-max", "6", "--lambda-hat", "5.9",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = (
            "realization,n,sup_u_over_psi,sup_un_over_psi,sup_yn_over_psi,"
            "running_min_un,running_min_u"
        )
        idx = lines.index(header)
        body = [l for l in lines[idx + 1 :] if not l.startswith("#")]
        assert len(body) == 40 * 5  # n = 2..6
        summary = next(l for l in lines if l.startswith("# summary = "))
        import json

        payload = json.loads(summary.split("= ", 1)[1])
        assert "predicted_kappa_lambda_theta" in payload
        assert payload["bracket"][0] == pytest.approx(
            0.5 * payload["predicted_kappa_lambda_theta"]
        )

    def test_header_names_the_slab_grid(self, tmp_path):
        out = tmp_path / "lil.csv"
        code, _ = run_cli(
            ["lil", "--count", "3", "--n-max", "3", "--grid-points", "200",
             "--lambda-hat", "5.9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines.count("# slab_grid = uniform on [t_(n+1), t_n], 200 points") == 1

    def test_invalid_hurst_exits_2(self, capsys):
        assert main(["lil", "--hurst", "1.5", "--lambda-hat", "1.0"]) == 2

    def test_joint_y_at_default_n_max(self, tmp_path):
        out = tmp_path / "lil.csv"
        code, _ = run_cli(["lil", "--count", "20", "--lambda-hat", "5.9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# n_max = 26" in lines
        assert sum(not l.startswith("#") for l in lines) == 1 + 20 * 25

    @pytest.mark.parametrize("hurst", ["0.99", "0.999"])
    def test_hurst_near_one_at_default_n_max(self, tmp_path, hurst):
        out = tmp_path / "lil.csv"
        code, _ = run_cli(
            ["lil", "--hurst", hurst, "--count", "20", "--lambda-hat", "5.9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert f"# hurst = {float(hurst):.17g}" in lines and "# n_max = 26" in lines
        assert sum(not l.startswith("#") for l in lines) == 1 + 20 * 25

    def test_huge_slab_grid_exits_2_before_building_every_grid(self):
        # the 2e6-point unit-grid matrix cannot be allocated; the 25 slab
        # grids (16 MB each) are not built before that, so the child peaks
        # near its 16 MB unit grid, not at their 400 MB
        code = (
            "import resource, sys\n"
            "from cllb.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(status)\n"
        )
        argv = ["lil", "--count", "10", "--grid-points", "2000000", "--lambda-hat", "5"]
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, preexec_fn=_limit_address_space,
        )
        assert out.returncode == 2, out.stderr
        err = out.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("cllb-error kind=validation "), out.stderr
        peak_kib = int(out.stdout.split()[-1])
        assert peak_kib < 200 * 1024

    def test_joint_y_is_gone(self, tmp_path, capsys):
        assert main(["lil", "--joint-y", "--count", "2", "--lambda-hat", "5.9"]) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("joint_y = true\n")
        assert main(["lil", "--config", str(cfg), "--count", "2", "--lambda-hat", "5.9"]) == 2
        assert "unknown config keys: ['joint_y']" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.5\nhurst = 0.75\n# comment\n")
        code, lines = run_cli(["constants", "--config", str(cfg)])
        assert code == 0
        assert float(parse_kv(lines)["theta"]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.5\nhurst = 0.75\n")
        code, lines = run_cli(["constants", "--config", str(cfg), "--alpha", "2"])
        assert code == 0
        # alpha = 2, hurst = 0.75 -> theta = 0.375
        assert float(parse_kv(lines)["theta"]) == pytest.approx(0.375, rel=1e-12)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpa = 1.5\n")
        assert main(["constants", "--config", str(cfg)]) == 2

    def test_config_booleans_are_strict(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        sb = tmp_path / "sb.csv"
        sb_args = ["smallball", "--config", str(cfg), "--process", "fbm", "--count", "10000",
                   "--grid-size", "256", "--seed", "5", "--out", str(sb)]
        cfg.write_text("emit_plot = false\n")
        assert run_cli(sb_args)[0] == 0
        assert "# emit_plot = False" in sb.read_text().splitlines()
        assert not (tmp_path / "sb_plot.py").exists()

        cfg.write_text("emit_plot = FALSE\n")
        lil_out = tmp_path / "lil.csv"
        code, _ = run_cli(["lil", "--config", str(cfg), "--count", "10", "--n-max", "4",
                           "--lambda-hat", "5.9", "--seed", "4", "--out", str(lil_out)])
        assert code == 0
        assert "# emit_plot = False" in lil_out.read_text().splitlines()

        cfg.write_text("emit_plot = yes\n")
        assert main(sb_args) == 2
        assert "kind=validation" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some text\n")
        assert main(["constants", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "line", ["count = abc", "grid_list = 1,a", "process = xyz"],
        ids=["int", "float-list", "choice"],
    )
    def test_config_value_that_does_not_parse_exits_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert_validation_error(main(["sample", "--config", str(cfg)]), capsys)


@pytest.mark.parametrize(
    "argv",
    [["sample", "--grid-points", "0"], ["sample", "--grid-points", "-3"],
     ["cov-verify", "--grid", "0"]],
    ids=["sample-0", "sample-minus-3", "cov-verify-0"],
)
def test_non_positive_grid_size_exits_2(argv, capsys):
    assert_validation_error(main(argv), capsys)


@pytest.mark.parametrize(
    "argv",
    [["cov-verify", "--grid", "2", "--rel-tol", "-1"],
     ["lil", "--count", "2", "--n-max", "3", "--lambda-hat", "inf"],
     ["lil", "--count", "2", "--n-max", "3", "--lambda-hat", "5.9", "--lambda-stderr", "-1"]],
    ids=["rel-tol-minus-1", "lambda-hat-inf", "lambda-stderr-minus-1"],
)
def test_out_of_range_numbers_exit_2(argv, capsys):
    assert_validation_error(main(argv), capsys)


@pytest.mark.parametrize(
    "flags",
    [
        ["--lambda-hat", "inf"],
        ["--lambda-hat", "5.9", "--lambda-stderr", "-1"],
        ["--lambda-stderr", "0.5"],
    ],
    ids=["lambda-hat-inf", "lambda-stderr-minus-1", "lambda-stderr-without-hat"],
)
def test_lil_rejects_lambda_before_sampling(flags, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("sampled before the lambda check")

    monkeypatch.setattr(cli.lil, "simulate_blocks", fail)
    monkeypatch.setattr(cli.smallball, "estimate_curve_sfhe", fail)
    assert_validation_error(main(["lil", "--count", "2000", *flags]), capsys)


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "-1"],
        ["--seed", "-1", "--lambda-hat", "5.9"],
        ["--seed", str(2 ** 64)],
        ["--count", "0"],
        ["--n-min", "1"],
        ["--n-min", "1", "--lambda-hat", "5.9"],
        ["--grid-points", "64"],
    ],
    ids=["seed-minus-1", "seed-minus-1-with-lambda", "seed-2-64", "count-0", "n-min-1",
         "n-min-1-with-lambda", "grid-points-64"],
)
def test_lil_validates_before_sampling(flags, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(cli, "_sfhe_curve", fail)
    monkeypatch.setattr(cli.lil, "simulate_blocks", fail)
    assert_validation_error(main(["lil", "--n-max", "4", "--count", "5", *flags]), capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--process", "sfhe", "--grid-points", "2048", "--seed", "-1"],
        ["sample", "--process", "fbm", "--seed", str(2 ** 64)],
        ["sample", "--process", "sfhe", "--count", "0"],
        ["smallball", "--process", "sfhe", "--grid-size", "2048", "--seed", "-1"],
        ["smallball", "--process", "fbm", "--seed", str(2 ** 64)],
    ],
    ids=["sample-seed-minus-1", "sample-seed-2-64", "sample-count-0",
         "smallball-seed-minus-1", "smallball-seed-2-64"],
)
def test_draw_inputs_are_checked_before_assembly(argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("assembled a covariance before the seed and count checks")

    for module in (cli, cli.smallball):
        monkeypatch.setattr(module, "build_cov_matrix", fail)
        monkeypatch.setattr(module, "build_fbm_cov_matrix", fail)
    assert_validation_error(main(argv), capsys)


def test_lil_fit_seed_wraps_past_the_largest_seed(monkeypatch):
    seeds = []

    def stop(consts, epsilons, count, grid_size, seed):
        seeds.append(seed)
        raise NumericalError("stop after the fit seed is known")

    monkeypatch.setattr(cli, "_sfhe_curve", stop)
    assert main(["lil", "--seed", str(2 ** 64 - 1)]) == 3
    assert main(["lil", "--seed", "7"]) == 3
    assert seeds == [0, 8]


@pytest.mark.parametrize("epsilons", ["inf,0.5,0.4,0.3,0.2", "0.5,0.4,0.3,0.2,nan"],
                         ids=["inf", "nan"])
def test_smallball_rejects_non_finite_epsilons(epsilons, capsys):
    code = main(["smallball", "--process", "fbm", "--count", "10000", "--grid-size", "256",
                 "--epsilons", epsilons])
    assert "epsilons must be finite" in assert_validation_error(code, capsys)


@pytest.mark.parametrize(
    "where", ["config-missing", "out-missing-dir", "out-is-dir-csv", "out-is-dir-bin"]
)
def test_unusable_file_exits_2_naming_it(where, tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    argv = {
        "config-missing": ["constants", "--config", str(missing)],
        "out-missing-dir": ["sample", "--count", "3", "--out", str(missing)],
        "out-is-dir-csv": ["sample", "--count", "3", "--out", str(tmp_path)],
        "out-is-dir-bin": ["sample", "--count", "3", "--format", "bin", "--out", str(tmp_path)],
    }[where]
    assert argv[-1] in assert_validation_error(main(argv), capsys)


def test_unwritable_plot_script_exits_2(tmp_path, capsys):
    script = tmp_path / "sb_plot.py"
    script.mkdir()
    code = main(["smallball", "--process", "fbm", "--count", "10000", "--grid-size", "256",
                 "--out", str(tmp_path / "sb.csv"), "--emit-plot"])
    assert str(script) in assert_validation_error(code, capsys)


def test_failed_text_write_keeps_the_earlier_artifact(tmp_path, monkeypatch, capsys):
    # the disk fills up at row 3 of the CSV: --out keeps the earlier run
    rows = cli._lil_rows

    def full_disk(stats):
        for k, row in enumerate(rows(stats)):
            if k == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield row

    monkeypatch.setattr(cli, "_lil_rows", full_disk)
    out = tmp_path / "lil.csv"
    out.write_text("earlier run\n")
    code = main(["lil", "--count", "2", "--n-max", "4", "--lambda-hat", "5.9",
                 "--grid-points", "128", "--out", str(out)])
    assert "No space left on device" in assert_validation_error(code, capsys)
    assert out.read_text() == "earlier run\n" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
@pytest.mark.parametrize(
    "argv, detail",
    [(["sample", "--count", "2", "--grid-start", "-1e-3"], "grid times must be >= 0"),
     (["smallball", "--epsilons", "-inf,1"], "epsilons must be finite"),
     (["lil", "--lambda-hat", "-inf"], "lambda_hat must be finite and positive")],
    ids=["sample-grid-start", "smallball-epsilons", "lil-lambda-hat"],
)
def test_negative_value_exits_2_in_either_form(argv, detail, joined):
    if joined:
        argv = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    out = subprocess.run(
        [sys.executable, "-m", "cllb.cli", *argv], capture_output=True, text=True
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("cllb-error kind=validation ") and detail in out.stderr


def test_unknown_short_option_exits_1():
    out = subprocess.run(
        [sys.executable, "-m", "cllb.cli", "sample", "-q"], capture_output=True, text=True
    )
    assert out.returncode == 1
    assert out.stderr.startswith("cllb-error kind=usage ") and "-q" in out.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["sample", "--grid-points", "20000", "--count", "1"],
    ["smallball", "--grid-size", "200000"],
], ids=["sample", "smallball"])
def test_allocation_failure_exits_2_with_one_line(argv, tmp_path):
    # each covariance needs over 2 GiB, the address space the child may use,
    # so numpy's allocation fails whatever memory the host has
    out = subprocess.run(
        [sys.executable, "-m", "cllb.cli", *argv, "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
    )
    assert out.returncode == 2, out.stderr
    err = out.stderr.splitlines()
    assert len(err) == 1, out.stderr
    assert err[0].startswith('cllb-error kind=validation detail="out of memory: ')
    assert "Unable to allocate" in err[0]
    assert list(tmp_path.iterdir()) == []


def _example(kind):
    """A non-default value of an option kind: (flag or config text, parsed value)."""
    if kind is cli._bool:
        return "true", True
    if isinstance(kind, tuple):
        return kind[-1], kind[-1]
    return {int: ("3", 3), float: ("0.25", 0.25), str: ("x", "x"),
            cli._float_list: ("0.5,1", [0.5, 1.0])}[kind]


def _header_text(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


@pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
def test_option_table_parity(subcommand, tmp_path, capsys):
    """Each table option is a flag, a config key and a header line showing its default."""
    options = cli._COMMANDS[subcommand][2]

    flags, config, expected = [], [], {}
    for key, (kind, *_) in options.items():
        text, expected[key] = _example(kind)
        flags += ["--" + key.replace("_", "-")] + ([] if kind is cli._bool else [text])
        config.append(f"{key} = {text}")
    cfg = tmp_path / "all.cfg"
    cfg.write_text("\n".join(config) + "\n")
    parser = cli._build_parser()
    assert cli._resolve(parser.parse_args([subcommand, *flags]), options) == expected
    assert cli._resolve(parser.parse_args([subcommand, "--config", str(cfg)]), options) == expected

    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    assert capsys.readouterr().out.count("default:") == len(options)

    out = tmp_path / "out.txt"
    assert run_cli([subcommand, "--out", str(out)])[0] == 0
    header = parse_kv(out.read_text().splitlines()[2 : 2 + len(options)])
    assert list(header) == sorted(options)
    # --out is the one option given; sample resolves an unset grid_start to
    # grid_end / grid_points before writing
    given = {"out": str(out), **({"grid_start": 1.0 / 64} if subcommand == "sample" else {})}
    for key, (_, default, *_) in options.items():
        assert header[key] == _header_text(given.get(key, default)), key


def test_workers_environment_is_ignored(tmp_path, monkeypatch):
    argv = ["sample", "--count", "10", "--grid-points", "6", "--out", str(tmp_path / "s.csv")]
    monkeypatch.delenv("CLLB_WORKERS", raising=False)
    assert run_cli(argv)[0] == 0
    unset = (tmp_path / "s.csv").read_bytes()
    monkeypatch.setenv("CLLB_WORKERS", "abc")
    assert run_cli(argv)[0] == 0
    assert (tmp_path / "s.csv").read_bytes() == unset


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "cllb.cli", "constants", "--alpha", "2", "--hurst", "0.5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "theta = 0.25" in out.stdout
