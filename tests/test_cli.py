import hashlib
import os

import numpy as np
import pytest

from ngwsim import SampleSet, replicate
from ngwsim.cli import _HASH_READ, main, write_manifest


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    assert lines[0].startswith("# ngw-sim v1, columns: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestAnalytic:
    def test_scan_and_schema(self, tmp_path):
        out = tmp_path / "a"
        assert run_cli("analytic", "--scan", "displacement", "--sa-range", "1:2:0.5",
                       "--sb-range", "1:2:0.5", "--out", out) == 0
        header, rows = read_csv(out / "analytic_displacement.csv")
        assert header == ["s_a_db", "s_b_db", "r_a", "r_b", "e_q", "config_hash", "seed"]
        assert len(rows) == 9
        # diagonal matches the closed form 2 e^{2r}
        s_db = 1.0
        r = s_db * np.log(10) / 20
        first = rows[0]
        assert abs(float(first[4]) - 2 * np.exp(2 * r)) < 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        args = ("analytic", "--scan", "phase", "--sa-range", "1:3:1",
                "--sb-range", "1:3:1")
        run_cli(*args, "--out", tmp_path / "r1")
        run_cli(*args, "--out", tmp_path / "r2")
        assert digest(tmp_path / "r1" / "analytic_phase.csv") == \
            digest(tmp_path / "r2" / "analytic_phase.csv")

    @pytest.mark.parametrize("text", ["0:1:nan", "nan:1:0.5", "0:inf:0.5", "0:1:0", "0:1:-0.5"])
    def test_non_finite_range_or_step_is_an_error(self, tmp_path, capsys, text):
        assert run_cli("analytic", "--sa-range", text, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == \
            f"error: range must be finite with a positive step, got {text!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--sa-range", "--sb-range"])
    def test_range_stopping_below_its_start_is_an_error(self, tmp_path, capsys, flag):
        assert run_cli("analytic", flag, "3:1:0.5", "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == \
            "error: range must not stop below its start, got '3:1:0.5'\n"
        assert not (tmp_path / "o").exists()

    def test_one_point_range(self, tmp_path):
        out = tmp_path / "a"
        assert run_cli("analytic", "--sa-range", "2:2:0.5", "--sb-range", "1:2:1",
                       "--out", out) == 0
        _, rows = read_csv(out / "analytic_displacement.csv")
        assert [row[:2] for row in rows] == [["2.0", "1.0"], ["2.0", "2.0"]]

    def test_unknown_generator(self, tmp_path, capsys):
        assert run_cli("analytic", "--scan", "warp", "--out", tmp_path) == 1
        assert "unknown generator" in capsys.readouterr().err

    def test_delta_axis_with_other_generator_is_an_error(self, tmp_path, capsys):
        assert run_cli("analytic", "--scan", "phase", "--delta-axis", 0.2,
                       "--sa-range", "1:2:1", "--sb-range", "1:2:1", "--out", tmp_path) == 1
        assert "--delta-axis" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("phi", ["5", "-0.1", "nan"])
    def test_phi_outside_its_range_is_an_error(self, tmp_path, capsys, phi):
        # the rule and message of fi --phi, checked before the scan
        assert run_cli("analytic", "--phi", phi, "--out", tmp_path / "o") == 1
        assert "phi_sub must lie in [0, pi/2]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    def test_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scan = displacement\nsa-range = 1:2:1\nsb-range = 1:2:1\n"
                       "phi = 0.7853981633974483  # quarter pi\n")
        out = tmp_path / "o1"
        assert run_cli("analytic", "--config", cfg, "--out", out) == 0
        header, rows = read_csv(out / "analytic_displacement.csv")
        assert len(rows) == 4
        out2 = tmp_path / "o2"
        assert run_cli("analytic", "--config", cfg, "--sa-range", "1:3:1",
                       "--out", out2) == 0
        _, rows2 = read_csv(out2 / "analytic_displacement.csv")
        assert len(rows2) == 6

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert run_cli("analytic", "--config", cfg, "--out", tmp_path) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        (["fi"], "samples = 10"),  # a flag of sample and estimate only
        (["reproduce", "fig2"], "target = fig3"),  # the target is positional
        (["analytic"], "eta-range = 0:1:0.1"),  # no subcommand has this flag
    ])
    def test_key_of_no_flag_of_the_subcommand_rejected(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(*command, "--config", cfg, "--out", tmp_path / "o") == 1
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_value_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ra = abc\n")
        assert run_cli("fi", "--config", cfg, "--out", tmp_path) == 1
        assert "'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("analytic", "--ra", "0.3"),
        ("sample", "--sign", "-"),
        ("fi-angles", "--delta-axis", "0.2"),
    ])
    def test_flag_the_command_does_not_read_rejected(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--out", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, settings", [
        (["fi"], {"gen": "displacement", "ra": "0.3", "rb": "0.1", "phi": "0.5",
                  "eta": "0.05", "sign": "-", "delta-axis": "0.2", "phi-a": "0.1",
                  "phi-b": "0.2", "mix": "0.3", "theta0": "0.05"}),
        (["estimate"], {"ra": "0.2", "rb": "-0.2", "sign": "-", "samples": "20000",
                        "reps": "2", "bin": "0.3", "seed": "5", "theta-steps": "12"}),
    ])
    def test_file_and_flags_write_the_same_bundle(self, tmp_path, command, settings):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        flags = [a for k, v in settings.items() for a in (f"--{k}", v)]
        assert run_cli(*command, "--config", cfg, "--out", tmp_path / "file") == 0
        assert run_cli(*command, *flags, "--out", tmp_path / "flags") == 0
        names = sorted(os.listdir(tmp_path / "file"))
        assert names == sorted(os.listdir(tmp_path / "flags")) and len(names) >= 2
        for name in names:
            assert digest(tmp_path / "file" / name) == digest(tmp_path / "flags" / name)

    @pytest.mark.parametrize("args, name", [
        (("fi", "--theta0", "nan"), "theta"),
        (("estimate", "--samples", "1000", "--reps", "1", "--range", "inf"), "half_range"),
        (("estimate", "--samples", "1000", "--reps", "1", "--theta-max", "nan"), "theta grid"),
        (("fi", "--ra", "nan"), "r_a must be finite, got nan"),
        (("fi", "--mix", "inf"), "nonlocal_mix must be finite, got inf"),
    ])
    def test_non_finite_value_names_it(self, tmp_path, capsys, args, name):
        assert run_cli(*args, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "o").exists()

    def test_r_and_db_exclusive(self, tmp_path, capsys):
        assert run_cli("fi", "--ra", 0.2, "--sa-db", 1.0, "--out", tmp_path) == 1
        assert "not both" in capsys.readouterr().err


class TestFi:
    def test_displacement_value(self, tmp_path, capsys):
        out = tmp_path / "fi"
        assert run_cli("fi", "--gen", "displacement", "--ra", 0.2, "--rb", 0.2,
                       "--out", out) == 0
        header, rows = read_csv(out / "fi.csv")
        values = dict(zip(header, rows[0]))
        assert abs(float(values["fi"]) - 6 * np.exp(0.4)) < 1e-4
        assert abs(float(values["qfi"]) - 6 * np.exp(0.4)) < 1e-9
        assert abs(float(values["e_value"]) - 2 * np.exp(0.4)) < 1e-4

    def test_delta_axis_with_other_generator_is_an_error(self, tmp_path, capsys):
        assert run_cli("fi", "--gen", "phase", "--delta-axis", 0.2, "--out", tmp_path) == 1
        assert "delta applies to the displacement generator only" in capsys.readouterr().err

    def test_fi_angles_map(self, tmp_path):
        out = tmp_path / "angles"
        assert run_cli("fi-angles", "--gen", "shear", "--ra", -0.2, "--rb", -0.2,
                       "--step", np.pi / 4, "--out", out) == 0
        header, rows = read_csv(out / "fi_angles_shear.csv")
        assert header[:3] == ["phi_a", "phi_b", "fi"]
        assert len(rows) == 16

    def test_fi_angles_maximum_breaks_ties_like_optimize_angles(self, tmp_path, capsys):
        # the phase map has four maxima equal to roundoff; the printed one is
        # the lexicographically smallest pair, grid point (2, 17)
        assert run_cli("fi-angles", "--gen", "phase", "--ra", 0.2, "--rb", 0.2, "--sign", "-",
                       "--step", np.pi / 20, "--out", tmp_path) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "max FI = 4.0490 at phi_a = 0.3142, phi_b = 2.6704"

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
    def test_fi_angles_bad_step_is_an_error(self, tmp_path, capsys, step):
        assert run_cli("fi-angles", f"--step={step}", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "angle grid step" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestSampleEstimate:
    def test_sample_csv_and_manifest(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("sample", "--ra", 0.2, "--rb", 0.2, "--samples", 2000,
                       "--seed", 9, "--out", out) == 0
        text = (out / "samples.csv").read_text().splitlines()
        assert text[0] == "x_a,x_b"
        assert len(text) == 2001
        manifest = (out / "samples.manifest").read_text()
        # every draw is accepted, so the manifest records no acceptance rate
        assert "acceptance-rate" not in manifest and "sha256" in manifest

    @pytest.mark.parametrize("args", [("sample", "--seed", "-1"),
                                      ("reproduce", "fig5", "--seed", "-2")])
    def test_negative_seed_is_an_error(self, tmp_path, capsys, args):
        assert run_cli(*args, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer, got -")
        assert not (tmp_path / "o").exists()

    def test_failed_sample_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def fail_midway(record, handle):
            handle.write("x_a,x_b\n0.1,0.2\n")
            raise OSError("disk full")

        monkeypatch.setattr("ngwsim.cli.save_samples_csv", fail_midway)
        out = tmp_path / "s"
        assert run_cli("sample", "--samples", 100, "--seed", 1, "--out", out) == 1
        assert "disk full" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_unloadable_record_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def non_finite(state, m, seed):
            return SampleSet(pairs=np.array([[0.1, np.nan]] * m))

        monkeypatch.setattr("ngwsim.cli.sample", non_finite)
        out = tmp_path / "s"
        assert run_cli("sample", "--samples", 10, "--seed", 1, "--out", out) == 1
        assert "non-finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_manifest_digest_of_file_larger_than_one_read(self, tmp_path):
        data = bytes(range(256)) * (3 * _HASH_READ // 256) + b"tail"
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        write_manifest(tmp_path / "big.manifest", "sample", {}, "0" * 12, [path])
        lines = (tmp_path / "big.manifest").read_text().splitlines()
        assert lines[-1] == f"output big.bin sha256 = {hashlib.sha256(data).hexdigest()}"

    def test_estimate_outputs(self, tmp_path):
        out = tmp_path / "e"
        assert run_cli("estimate", "--ra", 0.2, "--rb", 0.2, "--samples", 40000,
                       "--reps", 3, "--bin", 0.2, "--seed", 5, "--out", out) == 0
        _, reps = read_csv(out / "estimate_replicates.csv")
        assert len(reps) == 3
        header, rows = read_csv(out / "estimate_summary.csv")
        summary = dict(zip(header, rows[0]))
        assert float(summary["theory_e"]) == pytest.approx(2 * np.exp(0.4), abs=1e-4)

    @pytest.mark.parametrize("bin_size", ["nan", "0"])
    def test_estimate_rejects_bad_bin(self, tmp_path, capsys, bin_size):
        assert run_cli("estimate", "--samples", 1000, "--reps", 1, "--bin", bin_size,
                       "--out", tmp_path / "e") == 1
        assert "bin size delta must be positive and finite" in capsys.readouterr().err

    def test_estimate_rejects_zero_theta_max(self, tmp_path, capsys):
        assert run_cli("estimate", "--samples", 1000, "--reps", 1, "--theta-max", 0,
                       "--out", tmp_path / "e") == 1
        assert capsys.readouterr().err == \
            "error: theta grid needs a positive finite theta_max, got 0.0\n"
        assert not (tmp_path / "e").exists()

    def test_estimate_bad_range_fails_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("a record was drawn before the inputs were checked")

        monkeypatch.setattr("ngwsim.estimator._draw_block", no_draw)
        assert run_cli("estimate", "--samples", 10**9, "--reps", 2, "--bin", 0.1,
                       "--range", 0.15, "--out", tmp_path / "e") == 1
        assert capsys.readouterr().err == \
            "error: half_range must be a finite positive multiple of delta: 0.15\n"
        assert not (tmp_path / "e").exists()

    def test_estimate_deterministic(self, tmp_path):
        args = ("estimate", "--ra", 0.2, "--rb", 0.2, "--samples", 30000,
                "--reps", 2, "--bin", 0.2, "--seed", 5)
        run_cli(*args, "--out", tmp_path / "d1")
        run_cli(*args, "--out", tmp_path / "d2")
        assert digest(tmp_path / "d1" / "estimate_replicates.csv") == \
            digest(tmp_path / "d2" / "estimate_replicates.csv")


class TestReproduce:
    def test_fig2_bundle(self, tmp_path):
        out = tmp_path / "fig2"
        assert run_cli("reproduce", "fig2", "--out", out) == 0
        header, rows = read_csv(out / "fig2_max_witness.csv")
        assert "displacement_inphase" in header
        assert (out / "plot_fig2.py").exists()
        assert (out / "fig2.manifest").exists()
        # displacement dominates at low squeezing; phase estimation overtakes
        # it near 5.3 dB (shearing crosses just past the 6 dB edge)
        data = {h: [float(r[i]) for r in rows] for i, h in enumerate(header[:-2])}
        s = np.array(data["s_db"])
        disp = np.array(data["displacement_inphase"])
        phase = np.array(data["phase"])
        shear = np.array(data["shear_inphase"])
        assert np.all(disp[s < 5.0] > phase[s < 5.0])
        assert phase[-1] > disp[-1]
        assert np.all(disp > shear)

    def test_fig3a_grid(self, tmp_path):
        out = tmp_path / "fig3"
        assert run_cli("reproduce", "fig3a", "--out", out) == 0
        header, rows = read_csv(out / "fig3a_displacement_inphase.csv")
        assert len(rows) == 60 * 60

    def test_fig3_is_fig3a_and_fig3b(self, tmp_path):
        assert run_cli("reproduce", "fig3", "--out", tmp_path / "both") == 0
        assert run_cli("reproduce", "fig3a", "--out", tmp_path / "parts") == 0
        assert run_cli("reproduce", "fig3b", "--out", tmp_path / "parts") == 0
        for name in ("fig3a_displacement_inphase.csv", "fig3b_displacement_inquad.csv"):
            # the rows differ only in the config_hash column, which hashes the target
            both, parts = read_csv(tmp_path / "both" / name), read_csv(tmp_path / "parts" / name)
            assert both[0] == parts[0]
            assert [r[:-2] + r[-1:] for r in both[1]] == [r[:-2] + r[-1:] for r in parts[1]]

    def test_fig5_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert run_cli("reproduce", "fig5", "--seed", 4, "--out", out1) == 0
        assert run_cli("reproduce", "fig5", "--seed", 4, "--out", out2) == 0
        for name in ("fig5a_frequencies.csv", "fig5b_frequencies.csv"):
            assert digest(out1 / name) == digest(out2 / name)

    def test_appA_delta_curves(self, tmp_path):
        out = tmp_path / "appA"
        assert run_cli("reproduce", "appA", "--out", out) == 0
        header, rows = read_csv(out / "appA_delta_unbalancing.csv")
        by_phi = {}
        for row in rows:
            by_phi.setdefault(float(row[0]), []).append((float(row[1]), float(row[2])))
        for phi, pts in by_phi.items():
            deltas = np.array([p[0] for p in pts])
            values = np.array([p[1] for p in pts])
            base = values[np.argmin(np.abs(deltas))]
            assert np.max(np.abs(values - base * np.cos(2 * deltas))) < 1e-10

    @pytest.mark.parametrize("flag, value", [("--reps", "5"), ("--sample-counts", "1000"),
                                             ("--deltas", "0.2")])
    def test_fig6_flag_with_other_target_is_an_error(self, tmp_path, capsys, flag, value):
        assert run_cli("reproduce", "fig2", flag, value, "--out", tmp_path / "o") == 1
        assert f"{flag} applies to fig6 only" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target, flags, message", [
        ("fig5", ("--sample-counts", "1000"), "--sample-counts applies to fig6 only"),
        ("appB", ("--deltas", "0.2", "--seed", "3"),
         "--seed applies to fig5, fig6 only; --deltas applies to fig6 only"),
        ("fig4", ("--seed", "42"), "--seed applies to fig5, fig6 only"),
    ])
    def test_flag_the_target_does_not_read_is_an_error(self, tmp_path, capsys, target, flags,
                                                       message):
        assert run_cli("reproduce", target, *flags, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_flag_the_target_does_not_read_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        assert run_cli("reproduce", "fig2", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "--seed applies to fig5, fig6 only" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_hashed_only_by_seeded_targets(self, tmp_path, capsys):
        runs = []
        for seed in (3, 4):
            out = tmp_path / f"fig5_{seed}"
            assert run_cli("reproduce", "fig5", "--seed", seed, "--out", out) == 0
            with open(out / "fig5.manifest") as handle:
                runs.append([line for line in handle if line.startswith(("config_hash", "seed"))])
        assert runs[0] != runs[1]
        assert "seed = 3\n" in runs[0] and "seed = 4\n" in runs[1]
        # an unseeded target takes no --seed at all
        capsys.readouterr()
        assert run_cli("reproduce", "fig2", "--seed", 3, "--out", tmp_path / "fig2") == 1
        assert "--seed applies to fig5, fig6 only" in capsys.readouterr().err
        assert not (tmp_path / "fig2").exists()

    def test_fig6_reduced_grid(self, tmp_path):
        out = tmp_path / "fig6"
        assert run_cli("reproduce", "fig6", "--out", out, "--reps", 2,
                       "--sample-counts", "40000", "--deltas", "0.2") == 0
        _, rows = read_csv(out / "fig6_discretization.csv")
        assert len(rows) == 4  # two states x two loss values

    @pytest.mark.parametrize("flag, value", [
        ("--sample-counts", "2.7"), ("--sample-counts", "0"), ("--sample-counts", "-5"),
        ("--sample-counts", "inf"), ("--sample-counts", "1000,many"),
        ("--deltas", "0.2,0"), ("--deltas", "0.2,-0.1"), ("--deltas", "nan"),
        ("--deltas", "0.2,"),
    ])
    def test_fig6_bad_list_is_an_error_before_any_replicate(self, tmp_path, monkeypatch,
                                                            capsys, flag, value):
        def no_replicate(*args, **kwargs):
            raise AssertionError("replicate ran before the lists were checked")

        monkeypatch.setattr("ngwsim.cli.replicate", no_replicate)
        assert run_cli("reproduce", "fig6", "--reps", 1, flag, value,
                       "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} takes comma-separated ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1", "1000,1"])
    def test_fig6_count_below_two_is_an_error_before_any_run(self, tmp_path, monkeypatch,
                                                             capsys, value):
        # a replicate splits its x record in halves, so it needs 2 samples
        def no_run(*args, **kwargs):
            raise AssertionError("an FI or a replicate ran before the counts were checked")

        monkeypatch.setattr("ngwsim.cli.replicate", no_run)
        monkeypatch.setattr("ngwsim.cli._fi_witness", no_run)
        assert run_cli("reproduce", "fig6", "--reps", 1, "--sample-counts", value,
                       "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(
            "error: --sample-counts takes comma-separated integers of at least 2")
        assert not (tmp_path / "o").exists()

    def test_fig6_sample_counts_in_exponent_form(self, tmp_path, monkeypatch):
        calls = []

        def fake_replicate(spec, samples, reps, seed, **kwargs):
            calls.append(samples)
            return replicate(spec, 40, reps, seed, **kwargs)

        monkeypatch.setattr("ngwsim.cli.replicate", fake_replicate)
        out = tmp_path / "fig6"
        assert run_cli("reproduce", "fig6", "--reps", 1, "--sample-counts", "1e6,2000000",
                       "--deltas", "0.4", "--out", out) == 0
        assert calls == [1000000, 2000000] * 4
        assert all(isinstance(m, int) for m in calls)
        _, rows = read_csv(out / "fig6_discretization.csv")
        assert [row[4] for row in rows] == ["1000000", "2000000"] * 4

    @pytest.mark.parametrize("value", ["two", "-1", "1.5"])
    def test_invalid_threads_env_is_an_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("NGW_THREADS", value)
        assert run_cli("estimate", "--samples", 1000, "--reps", 1, "--out", tmp_path) == 1
        assert "NGW_THREADS" in capsys.readouterr().err

    def test_threads_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NGW_THREADS", "2")
        out = tmp_path / "angles"
        assert run_cli("fi-angles", "--gen", "phase", "--ra", 0.2, "--rb", 0.2,
                       "--step", np.pi / 2, "--out", out) == 0
        _, rows = read_csv(out / "fi_angles_phase.csv")
        assert len(rows) == 4
