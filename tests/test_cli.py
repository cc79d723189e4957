import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisysum
from noisysum import cli
from noisysum.cli import main
from noisysum.estimators import improved_estimate_sum
from noisysum.io import load_population
from noisysum.model import draw_samples, pair_from_distributions

SIM_CSV = "index,x,p,q\n1,1.0,0.5,0.75\n2,0.0,0.5,0.25\n"
ID_CSV = "index,x,p,q\n1,1.0,0.5,0.5\n2,0.0,0.5,0.5\n"
NO_Q_CSV = "index,x,p\n1,1.0,0.5\n2,0.0,0.5\n"
ONES_CSV = "index,x\n1,1.0\n2,1.0\n"
# p and q each sum to 1 within the normalization tolerance, from opposite sides.
BIG = "100000000000000000000000"  # 1e23, beyond the int64 range
TIGHT_CSV = ("index,x,p,q\n1,0.0,0.2499999999991,0.2500000000009\n"
             "2,1.0,0.25,0.25\n3,2.0,0.25,0.25\n4,3.0,0.25,0.25\n")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("sim.csv", SIM_CSV), ("id.csv", ID_CSV),
                       ("noq.csv", NO_Q_CSV), ("ones.csv", ONES_CSV)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(files, *argv, out="out"):
    target = files["dir"] / out
    rc = main([*argv, "--output", str(target)])
    text = target.read_text() if target.exists() else None
    return rc, text


class TestEstimate:
    def test_golden_identity_pair(self, files):
        # pinned seed, q = p: frozen full output; estimate within
        # 5*sqrt(var_hh/m) = 0.05 of mu = 1
        rc, text = run(files, "estimate", "--input", files["id.csv"],
                       "--k", "1", "--m", "10000", "--t", "100", "--seed", "123")
        assert rc == 0
        got = json.loads(text)
        assert got == {
            "estimate": 1.0002,
            "k": 1,
            "m": 10000,
            "t": 100,
            "pilot_W": 1.16,
            "xi_values": [-0.15979999999999994],
            "seed": 123,
        }
        assert abs(got["estimate"] - 1.0) <= 0.05

    def test_reruns_are_byte_identical(self, files):
        argv = ("estimate", "--input", files["sim.csv"],
                "--k", "2", "--m", "500", "--seed", "9")
        _, a = run(files, *argv, out="a.json")
        _, b = run(files, *argv, out="b.json")
        assert a == b

    def test_plan_from_accuracy_targets(self, files):
        # measured gamma 0.5, n_tilde 2, var_hh 1 -> k=2, m=6, t=17
        rc, text = run(files, "estimate", "--input", files["sim.csv"],
                       "--eps1", "0.25", "--eps2", "1.0", "--seed", "0")
        assert rc == 0
        got = json.loads(text)
        assert (got["k"], got["m"], got["t"]) == (2, 6, 17)

    def test_gamma_flag_loosens_the_plan(self, files):
        rc, text = run(files, "estimate", "--input", files["sim.csv"],
                       "--gamma", "0.6", "--eps1", "0.25", "--eps2", "1.0")
        assert rc == 0
        got = json.loads(text)
        assert (got["k"], got["m"], got["t"]) == (3, 7, 17)

    def test_gamma_below_measured_rejected(self, files):
        rc, text = run(files, "estimate", "--input", files["sim.csv"],
                       "--gamma", "0.3", "--k", "1", "--m", "10")
        assert rc == 2
        assert text is None

    @pytest.mark.parametrize("command", [
        ("estimate",), ("simulate", "--exp", "trials", "--trials", "3"), ("oracle",),
    ], ids=["estimate", "trials", "oracle"])
    def test_gamma_below_measured_names_both_values(self, files, capsys, command):
        rc, text = run(files, *command, "--input", files["sim.csv"],
                       "--gamma", "0.3", "--k", "1", "--m", "3")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "noisysum: measured max |Q/P - 1| = 0.5 exceeds gamma_bound 0.3\n"
        )

    def test_no_sampling_source_is_infeasible(self, files):
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--k", "1", "--m", "10")
        assert rc == 3
        assert text is None

    def test_needs_plan_or_explicit_sizes(self, files):
        rc, _ = run(files, "estimate", "--input", files["sim.csv"])
        assert rc == 2

    def test_stdout_when_no_output_flag(self, files, capsys):
        rc = main(["estimate", "--input", files["sim.csv"],
                   "--k", "1", "--m", "50", "--seed", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["k"] == 1


class TestEstimateOffline:
    @pytest.fixture
    def samples(self, files):
        p = files["dir"] / "samples.txt"
        p.write_text("1\n1\n2\n1\n2\n2\n1\n1\n")
        return str(p)

    def test_single_stage_frozen(self, files, samples):
        # Y=(5,3), m=8, pilot 0: A_1 = 10/8 * ... = 1.25,
        # A_2 = C(5,2)*4 / C(8,2) = 10/7; zeta_2 = 2.5 - 10/7
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", samples, "--k", "2")
        assert rc == 0
        got = json.loads(text)
        assert got["t"] == 0 and got["m"] == 8
        assert got["estimate"] == pytest.approx(2.5 - 10.0 / 7.0, rel=1e-12)

    def test_pilot_split(self, files, samples):
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", samples, "--k", "2", "--t", "3")
        assert rc == 0
        got = json.loads(text)
        assert got["t"] == 3 and got["m"] == 5
        # pilot from (1,1,2): mean of (2,2,0) = 4/3
        assert got["pilot_W"] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_order_from_accuracy_flags(self, files, samples):
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", samples, "--gamma", "0.5", "--eps1", "0.25")
        assert rc == 0
        assert json.loads(text)["k"] == 2

    def test_needs_k_or_targets(self, files, samples):
        rc, _ = run(files, "estimate", "--input", files["noq.csv"],
                    "--samples", samples)
        assert rc == 2

    def test_pilot_cannot_eat_all_samples(self, files, samples):
        rc, _ = run(files, "estimate", "--input", files["noq.csv"],
                    "--samples", samples, "--k", "1", "--t", "8")
        assert rc == 2

    def test_index_beyond_int64_is_exit_2(self, files, capsys):
        # died with an OverflowError traceback and exit 1
        big = files["dir"] / "big.txt"
        big.write_text("1\n99999999999999999999999\n")
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", str(big), "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err.startswith(f"noisysum: {big}:2: ")

    def test_index_above_n_is_exit_2(self, files, capsys):
        # noq.csv holds N = 2 indices
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n3\n")
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", str(draws), "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: batch contains an index above N=2\n"

    def test_non_utf8_input_names_the_line(self, files, samples, capsys):
        pop = files["dir"] / "latin.csv"
        pop.write_bytes(b"index,x\n1,1.0\n2,\xff2.0\n")
        rc, text = run(files, "estimate", "--input", str(pop),
                       "--samples", samples, "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err.startswith(f"noisysum: {pop}:3: not UTF-8")

    def test_short_row_is_named(self, files, samples, capsys):
        # said "not a number: None"
        pop = files["dir"] / "short.csv"
        pop.write_text("index,x\n1\n")
        rc, text = run(files, "estimate", "--input", str(pop),
                       "--samples", samples, "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            f"noisysum: {pop}:2: fewer fields than the 2 in the header\n"
        )

    def test_pilot_defaults_to_zero_without_w(self, files, samples):
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", samples, "--k", "2")
        assert rc == 0
        assert json.loads(text)["pilot_W"] == 0.0

    @pytest.mark.parametrize("mode", ["offline-pilot", "simulation"])
    def test_w_beside_a_pilot_stage_is_exit_2(self, files, samples, capsys, mode):
        # the pilot stage set W, so --w 7 was ignored and the bytes were those without it
        source = (["--input", files["noq.csv"], "--samples", samples, "--k", "2", "--t", "2"]
                  if mode == "offline-pilot" else
                  ["--input", files["sim.csv"], "--k", "2", "--m", "12"])
        rc, text = run(files, "estimate", *source, "--w", "7")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "noisysum: --w fixes the pilot only with --samples and --t 0; "
            "otherwise the pilot stage of --t samples estimates it\n"
        )

    def test_pilot_split_equals_improved_estimate_sum(self, files):
        # The indices improved_estimate_sum draws, its pilot stream s1 then
        # its main stream s2, give the same report read from a file.
        n, m, t, k, seed = 50, 400, 30, 3, 11
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, n)
        p = rng.uniform(0.5, 1.5, n)
        p /= p.sum()
        d = rng.uniform(-0.3, 0.3, n)
        d -= np.dot(d, p)
        pop_path = files["dir"] / "pop.csv"
        columns = zip(x.tolist(), p.tolist(), ((1.0 + d) * p).tolist())
        pop_path.write_text("index,x,p,q\n" + "".join(
            f"{i},{xi!r},{pi!r},{qi!r}\n" for i, (xi, pi, qi) in enumerate(columns, 1)
        ))
        data = load_population(pop_path)
        pair = pair_from_distributions(data.nominal, data.true_dist)
        want = improved_estimate_sum(data.population, pair, m, t, k, seed).to_json_dict()
        s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
        drawn = [draw_samples(pair, size, s).indices.tolist() for size, s in ((t, s1), (m, s2))]
        samples = files["dir"] / "drawn.txt"
        samples.write_text("".join(f"{i}\n" for i in drawn[0] + drawn[1]))
        rc, text = run(files, "estimate", "--input", str(pop_path), "--samples", str(samples),
                       "--k", str(k), "--t", str(t), "--seed", str(seed))
        assert rc == 0
        assert json.loads(text) == want


class TestSimulate:
    def test_zero_one_csv_schema(self, files):
        rc, text = run(files, "simulate", "--exp", "zero-one", "--n", "100",
                       "--trials", "30", "--gamma", "0.5", "--eps1", "0.25",
                       "--seed", "5")
        assert rc == 0
        header, row = text.strip().split("\n")
        assert header == ("exp,n,gamma,eps1,eps2,k,m,t,T,seed,"
                          "mean,var,q50,q90,q99,success_rate")
        fields = row.split(",")
        assert fields[0] == "zero-one"
        assert fields[5] == "2" and fields[6] == "160"  # k, m
        assert 0.0 <= float(fields[-1]) <= 1.0

    def test_thread_count_never_changes_bytes(self, files):
        argv = ("simulate", "--exp", "zero-one", "--n", "100", "--trials", "40",
                "--gamma", "0.5", "--eps1", "0.25", "--seed", "5")
        _, one = run(files, *argv, "--threads", "1", out="t1.csv")
        _, eight = run(files, *argv, "--threads", "8", out="t8.csv")
        assert one == eight

    def test_bad_thread_values(self, files):
        argv = ("simulate", "--exp", "zero-one", "--n", "50", "--trials", "20",
                "--gamma", "0.5", "--eps1", "0.25")
        rc, _ = run(files, *argv, "--threads", "0")
        assert rc == 2

    def test_trials_mode(self, files):
        rc, text = run(files, "simulate", "--exp", "trials", "--input",
                       files["sim.csv"], "--k", "2", "--m", "50", "--t", "20",
                       "--trials", "25", "--seed", "4",
                       "--functional", "positive_sum", "--eps1", "0.3",
                       "--eps2", "0.3", "--format", "json")
        assert rc == 0
        (row,) = json.loads(text)
        assert row["exp"] == "trials"
        assert (row["k"], row["m"], row["t"], row["T"]) == (2, 50, 20, 25)

    def test_trials_mode_zero_pilot_is_exit_2(self, files):
        # every trial runs the two-stage estimator, so the pilot needs t >= 1
        rc, text = run(files, "simulate", "--exp", "trials", "--input",
                       files["sim.csv"], "--k", "1", "--m", "10", "--t", "0",
                       "--trials", "5")
        assert (rc, text) == (2, None)

    @pytest.mark.parametrize("flag, value", [
        ("--eps1", "nan"), ("--eps1", "-1"), ("--eps1", "inf"), ("--eps2", "-0.5"),
    ])
    def test_trials_mode_unusable_eps_is_exit_2(self, files, capsys, flag, value):
        # exited 0 with success_rate 0.0 (nan, -1) or 1.0 (inf): a meaningless budget
        eps = {"--eps1": "0.1", "--eps2": "0.1", flag: value}
        rc, text = run(files, "simulate", "--exp", "trials", "--input", files["sim.csv"],
                       "--k", "1", "--m", "5", "--trials", "20", "--functional",
                       "positive_sum", *(item for pair in eps.items() for item in pair))
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "noisysum: eps1 and eps2 must be finite and nonnegative\n"
        )

    @pytest.mark.parametrize("command", [("estimate",), ("simulate", "--exp", "trials")])
    def test_zero_m_is_named(self, files, capsys, command):
        # t defaults to m, and both said "the pilot stage needs t >= 1"
        rc, text = run(files, *command, "--input", files["sim.csv"], "--k", "1", "--m", "0")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: m must be at least 1\n"

    def test_bias_decay_gamma_above_one_is_named(self, files, capsys):
        # said "probabilities must be nonnegative", from the perturbed Q
        rc, text = run(files, "simulate", "--exp", "bias-decay", "--input", files["sim.csv"],
                       "--gamma", "1.5")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: gamma must lie in [0, 1)\n"

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_bias_decay_without_orders_is_exit_2(self, files, capsys, kmax):
        # wrote a header-only table and exited 0
        rc, text = run(files, "simulate", "--exp", "bias-decay", "--input", files["ones.csv"],
                       "--gamma", "0.5", "--kmax", kmax)
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: bias decay needs at least one order k\n"

    def test_trials_mode_requires_q(self, files):
        rc, text = run(files, "simulate", "--exp", "trials", "--input",
                       files["noq.csv"], "--k", "1", "--m", "10",
                       "--trials", "5")
        assert rc == 2
        assert text is None  # nothing written on failure

    def test_bias_decay_frozen_table(self, files):
        rc, text = run(files, "simulate", "--exp", "bias-decay", "--input",
                       files["ones.csv"], "--gamma", "0.5", "--kmax", "4")
        assert rc == 0
        assert text == (
            "k,exact_bias,bound,ratio\n"
            "1,0.0,1.0,0.0\n"
            "2,0.5,0.5,1.0\n"
            "3,0.0,0.25,0.0\n"
            "4,0.125,0.125,1.0\n"
        )

    def test_distinguish_json(self, files):
        rc, text = run(files, "simulate", "--exp", "distinguish", "--k", "1",
                       "--gamma", "1/2", "--n0", "30", "--m-grid", "10,40",
                       "--trials", "30", "--seed", "2", "--format", "json")
        assert rc == 0
        rows = json.loads(text)
        assert [r["m"] for r in rows] == [10, 40]
        for r in rows:
            assert set(r) == {"m", "mean_ones_large", "mean_other", "separation_z"}

    def test_distinguish_rejects_empty_grid(self, files):
        rc, _ = run(files, "simulate", "--exp", "distinguish", "--k", "1",
                    "--gamma", "1/2", "--n0", "30", "--m-grid", ",",
                    "--trials", "30")
        assert rc == 2

    @pytest.mark.parametrize("exp, given, message", [
        ("zero-one", ("--gamma", "0.5"), "zero-one needs --gamma and --eps1"),
        ("bias-decay", ("--gamma", "0.5"), "bias-decay needs --input and --gamma"),
        ("distinguish", ("--k", "1", "--n0", "30"), "distinguish needs --k, --gamma, and --n0"),
        ("distinguish", ("--k", "2", "--gamma", "1/2", "--n0", "61", "--m-grid", "2"),
         "every m must be at least k+1 = 3"),
    ])
    def test_missing_experiment_flags_are_exit_2(self, files, capsys, exp, given, message):
        rc, text = run(files, "simulate", "--exp", exp, *given, "--trials", "30")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {message}\n"


class TestOracle:
    def test_frozen_moments(self, files):
        rc, text = run(files, "oracle", "--input", files["sim.csv"],
                       "--m", "2", "--k", "1")
        assert rc == 0
        got = json.loads(text)
        assert got["expectation"] == pytest.approx(1.5, abs=1e-12)
        assert got["variance"] == pytest.approx(0.375, abs=1e-12)
        assert got["outcome_count"] == 4
        assert got["total_prob"] == pytest.approx(1.0, abs=1e-12)

    def test_budget_exceeded_is_exit_3(self, files, tmp_path):
        big = tmp_path / "big.csv"
        lines = ["index,x,q"] + [f"{i},1.0,0.1" for i in range(1, 11)]
        big.write_text("\n".join(lines) + "\n")
        rc, _ = run(files, "oracle", "--input", str(big), "--m", "20", "--k", "1")
        assert rc == 3

    def test_requires_q_column(self, files):
        rc, _ = run(files, "oracle", "--input", files["noq.csv"],
                    "--m", "2", "--k", "1")
        assert rc == 2

    def test_seed_flag_is_exit_2(self, files, capsys):
        # Exact enumeration draws nothing; --seed was accepted and ignored.
        rc, text = run(files, "oracle", "--input", files["sim.csv"],
                       "--m", "2", "--k", "1", "--seed", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "usage: noisysum [-h] {estimate,simulate,oracle,identities,lowerbound} ...\n"
            "noisysum: error: unrecognized arguments: --seed 1\n"
        )

    @pytest.mark.parametrize("rows, m, reason", [
        # C(2000, 1000) ~ 2e600: the multinomial weight does not fit a float
        ("1,1.0,0.5,0.75\n2,0.0,0.5,0.25\n", "2000", "int too large to convert to float"),
        # 2 * 6e307 / 0.5 is beyond the float range: the first outcome's row sum is not finite
        ("1,6e307,0.5,0.5\n2,6e307,0.5,0.5\n", "2", "an outcome's value is not finite"),
        # outcome values +inf and -inf (exited 2 with fsum's "-inf + inf in fsum")
        ("1,6e307,0.5,0.5\n2,-6e307,0.5,0.5\n", "2", "an outcome's value is not finite"),
        # every outcome value is finite, but Q(1) (x_1 / P(1))^2 = 1e-5 * 1e314 is not
        ("1,5e156,0.5,0.00001\n2,0.0,0.5,0.99999\n", "1", "expectation 1e+152, variance inf"),
        # the expectation is finite but its square is not (printed the errno text
        # "(34, 'Numerical result out of range')").  x = (1e200, 1e200) has a true
        # variance of 0 and is refused the same way; only a two-pass variance
        # (ROADMAP item 5) could answer it.
        ("1,1e200,0.5,0.5\n2,1.0,0.5,0.5\n", "2", "expectation 1e+200, second moment inf"),
    ])
    def test_value_beyond_float_range_is_exit_3(self, tmp_path, rows, m, reason):
        # The first two exited 1 with an uncaught OverflowError traceback.
        proc, out = run_oracle(tmp_path, rows, "--m", m, "--k", "1")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"noisysum: oracle moments leave the float range: {reason}\n"
        assert not out.exists()

    def test_non_finite_moment_is_exit_3(self, tmp_path):
        # Order 1 reaches +inf and order 2 -inf: the value inf - inf is nan.
        # This wrote "expectation": NaN with a RuntimeWarning and exited 0.
        rows = "1,1e308,0.5,0.5\n2,1.0,0.5,0.5\n"
        proc, out = run_oracle(tmp_path, rows, "--m", "2", "--k", "2")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "noisysum: oracle moments leave the float range: an outcome's value is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--m", "2", "--k", "1", "--w", "nan"), "pilot must be finite"),  # wrote NaN, exit 0
        (("--m", "0", "--k", "1"), "m must be at least 1"),
        (("--m", "2", "--k", "0"), "need 1 <= k <= m"),
        (("--m", "2", "--k", "3"), "need 1 <= k <= m"),
        (("--m", "2", "--k", "1000000000000"), "need 1 <= k <= m"),
    ])
    def test_unusable_sizes_and_pilot_are_exit_2(self, tmp_path, flags, message):
        proc, out = run_oracle(tmp_path, "1,1.0,0.5,0.75\n2,0.0,0.5,0.25\n", *flags)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"noisysum: {message}\n")
        assert not out.exists()


def run_oracle(tmp_path, rows, *flags):
    """``noisysum oracle`` on the rows, run as a process (see ``run_process``)."""
    pop = tmp_path / "pop.csv"
    pop.write_text("index,x,p,q\n" + rows)
    return run_process(tmp_path, "oracle", "--input", str(pop), *flags)


def run_process(tmp_path, *argv):
    """``noisysum *argv --output out.json`` run as a process, so that any
    warning or traceback would show on stderr."""
    out = tmp_path / "out.json"
    src = str(Path(noisysum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "noisysum.cli", *argv, "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc, out


class TestIdentities:
    def test_clean_run(self, files):
        rc, text = run(files, "identities", "--kmax", "8", "--trials", "20")
        assert rc == 0
        got = json.loads(text)
        assert got["ok"] is True
        assert got["collision_coefficient_mismatches"] == 0
        assert got["tolerance"] == 1e-9
        for key in ("bias_cancellation_max_residual",
                    "centered_product_max_residual",
                    "centered_sum_max_residual"):
            assert got[key] <= 1e-9

    def test_violation_maps_to_exit_1(self, files, monkeypatch):
        def fake(kmax, seed=0, trials=100):
            return {
                "kmax": kmax, "seed": seed, "trials": trials,
                "collision_coefficient_mismatches": 0,
                "bias_cancellation_max_residual": 1e-3,
                "centered_product_max_residual": 0.0,
                "centered_sum_max_residual": 0.0,
            }

        monkeypatch.setattr("noisysum.cli.identity_report", fake)
        rc, text = run(files, "identities", "--kmax", "4")
        assert rc == 1
        assert json.loads(text)["ok"] is False  # report still written

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_exit_2(self, files, capsys, trials):
        # 0 reported "ok": true with no centered draw; -5 failed with numpy's
        # "negative dimensions are not allowed"
        rc, text = run(files, "identities", "--kmax", "4", "--trials", trials)
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: trials must be at least 1\n"


class TestLowerbound:
    def test_exact_strings(self, files):
        rc, text = run(files, "lowerbound", "--k", "2", "--gamma", "1/2",
                       "--n0", "60")
        assert rc == 0
        got = json.loads(text)
        assert (got["n1"], got["n2"], got["gap"]) == ("50", "48", "2")
        assert got["closed_form_gap"] == "2"
        equal_flags = [m["equal"] for m in got["moments"]]
        assert equal_flags == [True, True, False]
        assert got["d1"]["levels"][0]["prob_den"] == 60

    def test_realize_and_instance(self, files):
        rc, text = run(files, "lowerbound", "--k", "2", "--gamma", "1/2",
                       "--n0", "60", "--realize", "--scenario", "ones-large",
                       "--seed", "3")
        assert rc == 0
        got = json.loads(text)
        assert got["realized"]["moment_error"] == 0.0
        assert (got["realized"]["n1"], got["realized"]["n2"]) == (50, 48)
        inst = got["instance"]
        assert inst["N"] == 98
        assert inst["true_sum"] == 50
        assert inst["closeness"] == pytest.approx(0.225)

    def test_scenario_needs_realize(self, files, capsys):
        # the scenario was silently ignored
        rc, text = run(files, "lowerbound", "--k", "2", "--gamma", "1/2", "--n0", "60",
                       "--scenario", "ones-large")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == "noisysum: --scenario needs --realize\n"

    def test_float_gamma_string_must_be_exact(self, files):
        # Fraction("0.5") is exact; arbitrary text is not
        rc, _ = run(files, "lowerbound", "--k", "1", "--gamma", "0.5",
                    "--n0", "4")
        assert rc == 0
        rc, _ = run(files, "lowerbound", "--k", "1", "--gamma", "half",
                    "--n0", "4")
        assert rc == 2

    def test_gamma_domain(self, files):
        rc, _ = run(files, "lowerbound", "--k", "2", "--gamma", "3/4",
                    "--n0", "60")
        assert rc == 2


PLANNED = "is planned from --eps1 and --eps2; give both --k and --m to set the sizes"


class TestUnreadPlanFlags:
    # Each run exited 0 and dropped the flag: the offline estimate printed
    # "m": 5, the plan replaced --k 5 and --t 3 with k = 2 and t = 17, trials
    # ran with m = 6, and zero-one with k = 2 and m = 160.  The last two ran
    # at the sizes given and left the accuracy targets unread.
    @pytest.mark.parametrize("argv, message", [
        (("estimate", "--input", "noq.csv", "--samples", "s.txt", "--k", "1", "--m", "3",
          "--eps2", "0.1"), "estimate --samples does not read --m"),
        (("estimate", "--input", "noq.csv", "--samples", "s.txt", "--k", "1",
          "--eps2", "0.1"), "estimate --samples does not read --eps2"),
        (("estimate", "--input", "sim.csv", "--k", "5", "--t", "3", "--eps1", "0.25",
          "--eps2", "1"), f"--k {PLANNED}"),
        (("estimate", "--input", "sim.csv", "--t", "3", "--eps1", "0.25", "--eps2", "1"),
         f"--t {PLANNED}"),
        (("simulate", "--exp", "trials", "--input", "sim.csv", "--m", "7", "--eps1", "0.25",
          "--eps2", "1", "--trials", "3"), f"--m {PLANNED}"),
        (("simulate", "--exp", "zero-one", "--n", "100", "--gamma", "0.5", "--eps1", "0.25",
          "--trials", "5", "--k", "7", "--m", "3"), "simulate --exp zero-one does not read --k"),
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5",
          "--eps1", "0.1"), "simulate --exp bias-decay does not read --eps1"),
        (("simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0", "30",
          "--m", "200", "--trials", "30"), "simulate --exp distinguish does not read --m"),
        (("estimate", "--input", "sim.csv", "--k", "2", "--m", "12", "--eps1", "0.25",
          "--eps2", "1"), "estimate with --k and --m does not read --eps1"),
        (("estimate", "--input", "noq.csv", "--samples", "s.txt", "--k", "1", "--gamma", "0.5",
          "--eps1", "0.01"), "estimate --samples with --k does not read --gamma"),
    ])
    def test_unread_flag_is_exit_2(self, files, capsys, argv, message):
        samples = files["dir"] / "s.txt"
        samples.write_text("1\n2\n1\n1\n2\n")
        paths = {**files, "s.txt": str(samples)}
        rc, text = run(files, *(paths.get(a, a) for a in argv))
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {message}\n"

    # Each run exited 0 and wrote its row with the experiment flag unread.
    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--exp", "zero-one", "--input", "sim.csv", "--n", "10", "--gamma", "0.5",
          "--eps1", "0.25", "--trials", "1"), "simulate --exp zero-one does not read --input"),
        (("simulate", "--exp", "trials", "--input", "sim.csv", "--k", "1", "--m", "3",
          "--trials", "2", "--kmax", "9", "--n0", "5", "--null", "--fraction-ones", "0.9"),
         "simulate --exp trials does not read --fraction-ones"),
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5",
          "--m-grid", "5"), "simulate --exp bias-decay does not read --m-grid"),
        (("simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0", "30",
          "--trials", "30", "--functional", "mean_abs_dev", "--n", "10"),
         "simulate --exp distinguish does not read --n"),
        # bias-decay draws nothing and runs no workers
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5", "--kmax",
          "2", "--trials", "5", "--threads", "3", "--seed", "9"),
         "simulate --exp bias-decay does not read --trials"),
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5", "--seed",
          "9"), "simulate --exp bias-decay does not read --seed"),
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5",
          "--threads", "1"), "simulate --exp bias-decay does not read --threads"),
    ], ids=["zero-one", "trials", "bias-decay", "distinguish", "bias-decay-trials",
            "bias-decay-seed", "bias-decay-threads"])
    def test_unread_experiment_flag_is_exit_2(self, files, capsys, argv, message):
        rc, text = run(files, *(files.get(a, a) for a in argv))
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {message}\n"

    @pytest.mark.parametrize("command", [
        ("estimate", "--input", "sim.csv", "--eps1", "0.25", "--eps2", "1"),
        ("simulate", "--exp", "zero-one", "--n", "10", "--eps1", "0.25", "--trials", "1"),
    ], ids=["estimate", "zero-one"])
    @pytest.mark.parametrize("constant", [("--cm", "4"), ("--ct", "16")], ids=["cm", "ct"])
    def test_plan_constant_flag_is_exit_2(self, files, capsys, command, constant):
        # The plan constants are fixed at C_M and C_T: the CLI has no flag for them.
        rc, text = run(files, *(files.get(a, a) for a in command), "--gamma", "0.5", *constant)
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "usage: noisysum [-h] {estimate,simulate,oracle,identities,lowerbound} ...\n"
            f"noisysum: error: unrecognized arguments: {' '.join(constant)}\n"
        )


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every flag read from it."""

    def __init__(self, **values):
        super().__init__(**values)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return super().__getattribute__(name)


# The simulate flags in parser order: every dest but the command's own.
SIMULATE_FLAGS = [
    flag for flag in vars(cli.build_parser().parse_args(["simulate"]))
    if flag not in ("command", "run", "exp", "format", "output")
]
# A usable value of each flag, and each experiment's required flags.
FLAG_ARGV = {
    "input": ["sim.csv"], "n": ["10"], "fraction_ones": ["0.5"], "gamma": ["0.5"],
    "eps1": ["0.25"], "eps2": ["0.1"], "k": ["1"], "m": ["3"], "t": ["2"], "trials": ["2"],
    "kmax": ["2"], "n0": ["30"], "m_grid": ["10"], "null": [], "functional": ["positive_sum"],
    "seed": ["1"], "threads": ["1"],
}
NEEDS_ARGV = {
    "zero-one": ["--gamma", "0.5", "--eps1", "0.25"],
    "trials": [],
    "bias-decay": ["--input", "ones.csv", "--gamma", "0.5"],
    "distinguish": ["--k", "1", "--gamma", "1/2", "--n0", "30"],
}
UNREAD_PAIRS = [
    (exp, flag) for exp, (_, reads) in cli._SIMULATE.items()
    for flag in SIMULATE_FLAGS if flag not in reads
]
# Tiny runs: each experiment's required flags, and small sizes.
TINY = {
    "zero-one": {"gamma": "0.5", "eps1": 0.25, "n": 20, "trials": 3},
    "trials": {"input": "sim.csv", "k": 1, "m": 5, "trials": 3},
    "trials-planned": {"input": "sim.csv", "gamma": "0.5", "eps1": 0.5, "eps2": 1.0, "trials": 3},
    "bias-decay": {"input": "ones.csv", "gamma": "0.5", "kmax": 2},
    "distinguish": {"k": 1, "gamma": "1/2", "n0": 30, "m_grid": "10", "trials": 30},
}


class TestSimulateFlagTable:
    """``cli._SIMULATE`` declares the flags each experiment reads; the rest are refused."""

    @pytest.mark.parametrize("case", TINY)
    def test_each_experiment_reads_exactly_its_declared_flags(self, files, case):
        exp = case.removesuffix("-planned")
        run_experiment, reads = cli._SIMULATE[exp]
        values = {**reads, **{flag: files.get(v, v) for flag, v in TINY[case].items()}}
        assert cli._REQUIRED not in values.values()
        args = RecordingNamespace(**values)
        assert run_experiment(args)
        assert args._reads == set(reads)

    def test_every_declared_flag_is_a_simulate_flag(self):
        for _, reads in cli._SIMULATE.values():
            assert set(reads) <= set(SIMULATE_FLAGS)
        assert (len(SIMULATE_FLAGS), len(UNREAD_PAIRS)) == (17, 39)

    @pytest.mark.parametrize("exp, flag", UNREAD_PAIRS, ids=[f"{e}-{f}" for e, f in UNREAD_PAIRS])
    def test_every_unread_flag_is_exit_2(self, files, capsys, exp, flag):
        option = "--" + flag.replace("_", "-")
        argv = [*NEEDS_ARGV[exp], option, *FLAG_ARGV[flag]]
        rc, text = run(files, "simulate", "--exp", exp, *(files.get(a, a) for a in argv))
        assert (rc, text) == (2, None)
        err = capsys.readouterr().err
        assert err == f"noisysum: simulate --exp {exp} does not read {option}\n"


class TestGammaMessage:
    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--exp", "zero-one", "--gamma", "1/2", "--eps1", "0.25"),
         "--gamma must be a float, got '1/2'"),
        (("simulate", "--exp", "trials", "--input", "sim.csv", "--gamma", "1/2", "--k", "1",
          "--m", "3"), "--gamma must be a float, got '1/2'"),
        (("simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5x"),
         "--gamma must be a float, got '0.5x'"),
        (("simulate", "--exp", "distinguish", "--k", "1", "--gamma", "0.5x", "--n0", "30"),
         "--gamma must be an exact rational such as '1/2', got '0.5x'"),
        (("lowerbound", "--k", "2", "--gamma", "0.5x", "--n0", "30"),
         "--gamma must be an exact rational such as '1/2', got '0.5x'"),
        (("lowerbound", "--k", "2", "--gamma", "1/0", "--n0", "30"),
         "--gamma must be an exact rational such as '1/2', got '1/0'"),
    ], ids=["zero-one", "trials", "bias-decay", "distinguish", "lowerbound", "lowerbound-1/0"])
    def test_malformed_gamma_is_named(self, files, capsys, argv, message):
        # "could not convert string to float: '1/2'" and "Invalid literal
        # for Fraction: '0.5x'" named no flag.
        rc, text = run(files, *(files.get(a, a) for a in argv))
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {message}\n"


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ("estimate", "--input", "sim.csv", "--k", "1", "--m", "3"),
        ("estimate", "--input", "noq.csv", "--samples", "s.txt", "--k", "1"),
        ("simulate", "--exp", "zero-one", "--n", "10", "--gamma", "0.5", "--eps1", "0.25"),
        ("simulate", "--exp", "trials", "--input", "sim.csv", "--k", "1", "--m", "3"),
        ("simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0", "30"),
        ("identities", "--kmax", "2", "--trials", "2"),
        ("lowerbound", "--k", "1", "--gamma", "1/2", "--n0", "30", "--realize",
         "--scenario", "ones-large"),
    ], ids=["estimate", "estimate-samples", "zero-one", "trials", "distinguish", "identities",
            "lowerbound"])
    def test_negative_seed_is_exit_2(self, files, capsys, argv):
        # numpy's "expected non-negative integer" named no flag, and
        # estimate --samples exited 0 with "seed": -1.
        samples = files["dir"] / "s.txt"
        samples.write_text("1\n2\n1\n")
        paths = {**files, "s.txt": str(samples)}
        rc, text = run(files, *(paths.get(a, a) for a in argv), "--seed", "-1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err.endswith(
            f"noisysum {argv[0]}: error: argument --seed: must be at least 0, got -1\n"
        )

    def test_lowerbound_seed_without_scenario_is_exit_2(self, files, capsys):
        # printed the same bytes at every --seed and exited 0
        rc, text = run(files, "lowerbound", "--k", "2", "--gamma", "1/2", "--n0", "61",
                       "--realize", "--seed", "5")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            "noisysum: lowerbound without --scenario does not read --seed\n"
        )

    def test_lowerbound_scenario_seed_defaults_to_zero(self, files):
        argv = ("lowerbound", "--k", "1", "--gamma", "1/2", "--n0", "30", "--realize",
                "--scenario", "ones-small")
        rc, default = run(files, *argv, out="default.json")
        assert (rc, default) == run(files, *argv, "--seed", "0", out="zero.json")


class TestHelp:
    @pytest.mark.parametrize("sub", ["estimate", "simulate", "oracle", "identities", "lowerbound"])
    def test_subcommand_help_exits_zero(self, capsys, sub):
        assert main([sub, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: noisysum {sub} ")

    def test_simulate_help_names_every_declared_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapped help text
        assert main(["simulate", "--help"]) == 0
        helps, option = {}, None  # each option's help may start on the line below it
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                option = line.split()[0]
            if line.startswith(" "):
                helps[option] = helps.get(option, "") + line
        for exp, (_, reads) in cli._SIMULATE.items():
            for flag, default in reads.items():
                note = "" if default is None else (
                    " (required)" if default is cli._REQUIRED else f" (default {default})")
                assert f"{exp}{note}" in helps["--" + flag.replace("_", "-")]


class TestArgumentErrors:
    def test_unknown_flag(self, files):
        assert main(["estimate", "--input", files["sim.csv"], "--bogus"]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out


def _json(obj):
    return json.dumps(obj, indent=2) + "\n"


# Full output text and exit code of each command path; None means nothing
# was written.  File names in argv are replaced by the fixture's paths.
FROZEN = [
    pytest.param(
        ["estimate", "--input", "sim.csv", "--k", "2", "--m", "12", "--seed", "9"],
        0,
        _json({"estimate": 0.9494949494949497, "k": 2, "m": 12, "t": 12,
               "pilot_W": 1.8333333333333333,
               "xi_values": [-0.6666666666666665, -0.4494949494949495],
               "seed": 9}),
        id="estimate-explicit-sizes",
    ),
    pytest.param(
        ["estimate", "--input", "sim.csv", "--k", "2", "--m", "12", "--t", "5",
         "--seed", "9"],
        0,
        _json({"estimate": 0.9393939393939394, "k": 2, "m": 12, "t": 5,
               "pilot_W": 2.0,
               "xi_values": [-0.8333333333333334, -0.6060606060606061],
               "seed": 9}),
        id="estimate-explicit-t",
    ),
    pytest.param(
        ["estimate", "--input", "sim.csv", "--gamma", "0.6", "--eps1", "0.25",
         "--eps2", "1.0"],
        0,
        _json({"estimate": 0.857142857142857, "k": 3, "m": 7, "t": 17,
               "pilot_W": 1.411764705882353,
               "xi_values": [0.01680672268907557, 0.42577030812324923,
                             0.672268907563025],
               "seed": 0}),
        id="estimate-planned",
    ),
    pytest.param(
        ["estimate", "--input", "noq.csv", "--samples", "samples.txt", "--k", "2",
         "--t", "3", "--seed", "4"],
        0,
        _json({"estimate": 0.9333333333333333, "k": 2, "m": 5, "t": 3,
               "pilot_W": 1.3333333333333333,
               "xi_values": [-0.1333333333333333, 0.13333333333333336],
               "seed": 4}),
        id="offline-pilot",
    ),
    pytest.param(
        ["estimate", "--input", "noq.csv", "--samples", "samples.txt", "--k", "3",
         "--w", "0.5"],
        0,
        _json({"estimate": 0.892857142857143, "k": 3, "m": 8, "t": 0,
               "pilot_W": 0.5,
               "xi_values": [0.75, 0.9642857142857141, 1.0357142857142854],
               "seed": 0}),
        id="offline-fixed-pilot",
    ),
    pytest.param(
        ["simulate", "--exp", "trials", "--input", "sim.csv", "--eps1", "0.25",
         "--eps2", "1.0", "--trials", "20", "--seed", "4"],
        0,
        "exp,n,gamma,eps1,eps2,k,m,t,T,seed,mean,var,q50,q90,q99,success_rate\n"
        "trials,2,0.5,0.25,1.0,2,6,17,20,4,1.200392156862745,0.10639778222950687,"
        "0.1450980392156862,0.7647058823529411,0.9552941176470585,1.0\n",
        id="trials-planned",
    ),
    pytest.param(
        ["simulate", "--exp", "trials", "--input", "sim.csv", "--gamma", "0.6",
         "--k", "2", "--m", "30", "--trials", "20", "--format", "json"],
        0,
        _json([{"exp": "trials", "n": 2, "gamma": 0.6, "eps1": 0.0, "eps2": 0.0,
                "k": 2, "m": 30, "t": 30, "T": 20, "seed": 0,
                "mean": 1.1202911877394635, "var": 0.006290221100379429,
                "q50": 0.11394636015325665, "q90": 0.22528735632183894,
                "q99": 0.26178390804597684, "success_rate": 0.0}]),
        id="trials-gamma",
    ),
    pytest.param(
        ["simulate", "--exp", "zero-one", "--n", "60", "--gamma", "0.5", "--eps1",
         "0.25", "--trials", "20", "--seed", "3", "--format", "json"],
        0,
        _json([{"exp": "zero-one", "n": 60, "gamma": 0.5, "eps1": 0.25,
                "eps2": 10.606601717798213, "k": 2, "m": 124, "t": 24, "T": 20,
                "seed": 3, "mean": 33.18636900078678, "var": 8.24812351020394,
                "q50": 3.9240755310778823, "q90": 6.285405192761597,
                "q99": 7.102025963808022, "success_rate": 1.0}]),
        id="zero-one-json",
    ),
    pytest.param(
        ["simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma", "0.5",
         "--kmax", "3", "--format", "json"],
        0,
        _json([{"k": 1, "exact_bias": 0.0, "bound": 1.0, "ratio": 0.0},
               {"k": 2, "exact_bias": 0.5, "bound": 0.5, "ratio": 1.0},
               {"k": 3, "exact_bias": 0.0, "bound": 0.25, "ratio": 0.0}]),
        id="bias-decay-json",
    ),
    pytest.param(
        ["simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0",
         "30", "--m-grid", "10,40", "--trials", "30", "--seed", "2"],
        0,
        "m,mean_ones_large,mean_other,separation_z\n"
        "10,25.222222222222218,22.814814814814817,0.35111741586136674\n"
        "40,30.39476495726496,20.18376068376069,5.578702201799388\n",
        id="distinguish-csv",
    ),
    pytest.param(
        ["simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0",
         "30", "--m-grid", "10", "--trials", "30", "--null"],
        0,
        "m,mean_ones_large,mean_other,separation_z\n"
        "10,22.85185185185185,25.03703703703703,0.30345149024898155\n",
        id="distinguish-null",
    ),
    pytest.param(
        ["oracle", "--input", "sim.csv", "--m", "3", "--k", "2", "--w", "0.5",
         "--gamma", "0.6"],
        0,
        _json({"expectation": 0.8750000000000001, "variance": 0.109375,
               "outcome_count": 8, "total_prob": 1.0, "m": 3, "k": 2,
               "pilot_W": 0.5}),
        id="oracle-pilot-gamma",
    ),
    pytest.param(
        ["lowerbound", "--k", "1", "--gamma", "1/2", "--n0", "4", "--realize",
         "--scenario", "ones-small"],
        0,
        _json({
            "k": 1, "gamma": "1/2", "n0": 4, "n1": "4", "n2": "8/3", "gap": "4/3",
            "closed_form_gap": "4/3",
            "d1": {"n0": 4, "levels": [{"i": 0, "prob_num": 1, "prob_den": 4,
                                        "count_num": 4, "count_den": 1}]},
            "d2": {"n0": 4, "levels": [{"i": 1, "prob_num": 3, "prob_den": 8,
                                        "count_num": 8, "count_den": 3}]},
            "moments": [{"ell": 1, "d1": "1", "d2": "1", "equal": True},
                        {"ell": 2, "d1": "1/4", "d2": "3/8", "equal": False}],
            "realized": {
                "n1": 4, "n2": 3, "gap": 1, "moment_error": 0.0,
                "d1": {"n0": 4, "levels": [{"i": 0, "prob_num": 1, "prob_den": 4,
                                            "count_num": 4, "count_den": 1}]},
                "d2": {"n0": 4, "levels": [{"i": 1, "prob_num": 1, "prob_den": 3,
                                            "count_num": 3, "count_den": 1}]},
            },
            "instance": {"scenario": "ones-small", "N": 7, "true_sum": 3,
                         "closeness": 0.16666666666666666},
        }),
        id="lowerbound-ones-small",
    ),
    pytest.param(
        # fractional design counts: rounding leaves a nonzero moment_error
        ["lowerbound", "--k", "2", "--gamma", "1/2", "--n0", "61", "--realize",
         "--scenario", "ones-large", "--seed", "5"],
        0,
        _json({
            "k": 2, "gamma": "1/2", "n0": 61, "n1": "305/6", "n2": "244/5",
            "gap": "61/30", "closed_form_gap": "61/30",
            "d1": {"n0": 61, "levels": [
                {"i": 0, "prob_num": 1, "prob_den": 61, "count_num": 61,
                 "count_den": 2},
                {"i": 2, "prob_num": 3, "prob_den": 122, "count_num": 61,
                 "count_den": 3}]},
            "d2": {"n0": 61, "levels": [
                {"i": 1, "prob_num": 5, "prob_den": 244, "count_num": 244,
                 "count_den": 5}]},
            "moments": [{"ell": 1, "d1": "1", "d2": "1", "equal": True},
                        {"ell": 2, "d1": "5/244", "d2": "5/244", "equal": True},
                        {"ell": 3, "d1": "13/29768", "d2": "25/59536",
                         "equal": False}],
            "realized": {
                "n1": 51, "n2": 49, "gap": 2,
                "moment_error": 0.0008055853920515575,
                "d1": {"n0": 61, "levels": [
                    {"i": 0, "prob_num": 1, "prob_den": 61, "count_num": 31,
                     "count_den": 1},
                    {"i": 2, "prob_num": 3, "prob_den": 122, "count_num": 20,
                     "count_den": 1}]},
                "d2": {"n0": 61, "levels": [
                    {"i": 1, "prob_num": 1, "prob_den": 49, "count_num": 49,
                     "count_den": 1}]},
            },
            "instance": {"scenario": "ones-large", "N": 100, "true_sum": 51,
                         "closeness": 0.22950819672131148},
        }),
        id="lowerbound-ones-large-rounded",
    ),
    pytest.param(
        # the identities call of the perfbench referee workload at seed 0
        ["identities", "--kmax", "32", "--trials", "200", "--seed", "0"],
        0,
        _json({"kmax": 32, "seed": 0, "trials": 200,
               "collision_coefficient_mismatches": 0,
               "bias_cancellation_max_residual": 0.0,
               "centered_product_max_residual": 6.006736830093255e-15,
               "centered_sum_max_residual": 3.137941037184783e-14,
               "tolerance": 1e-09, "ok": True}),
        id="identities-referee-seed-0",
    ),
    pytest.param(["estimate", "--input", "sim.csv", "--k", "2"], 2, None,
                 id="estimate-missing-sizes"),
    pytest.param(["simulate", "--exp", "trials", "--input", "sim.csv", "--m", "10"],
                 2, None, id="trials-missing-sizes"),
    pytest.param(["simulate", "--exp", "trials", "--input", "noq.csv", "--k", "1",
                  "--m", "10"], 2, None, id="trials-without-q"),
    pytest.param(["simulate", "--exp", "trials", "--k", "1", "--m", "10"],
                 2, None, id="trials-without-input"),
    pytest.param(["estimate", "--input", "noq.csv", "--eps1", "0.25", "--eps2", "1.0"],
                 3, None, id="no-sampling-source"),
    pytest.param(["simulate", "--exp", "zero-one", "--gamma", "half", "--eps1", "0.25"],
                 2, None, id="zero-one-bad-gamma"),
    pytest.param(["simulate", "--exp", "trials", "--input", "sim.csv", "--gamma",
                  "half", "--k", "1", "--m", "10"], 2, None, id="trials-bad-gamma"),
    pytest.param(["simulate", "--exp", "bias-decay", "--input", "ones.csv", "--gamma",
                  "half"], 2, None, id="bias-decay-bad-gamma"),
    pytest.param(["simulate", "--exp", "distinguish", "--k", "1", "--gamma", "half",
                  "--n0", "30"], 2, None, id="distinguish-bad-gamma"),
    pytest.param(["simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2",
                  "--n0", "30", "--m-grid", " , "], 2, None, id="empty-m-grid"),
]


class TestFrozenOutputs:
    @pytest.fixture
    def paths(self, files):
        samples = files["dir"] / "samples.txt"
        samples.write_text("1\n1\n2\n1\n2\n2\n1\n1\n")
        return {**files, "samples.txt": str(samples)}

    @pytest.mark.parametrize("argv, code, expected", FROZEN)
    def test_output_and_exit_code(self, paths, argv, code, expected):
        rc, text = run(paths, *(paths.get(a, a) for a in argv))
        assert (rc, text) == (code, expected)


class TestOutOfRange:
    @pytest.mark.parametrize("k", ["2", "5"])
    def test_overflowing_estimate_is_exit_3(self, files, k):
        pop = files["dir"] / "tiny.csv"
        pop.write_text("index,x,p\n1,1,1e-300\n2,1,0.5\n3,1,0.25\n4,1,0.25\n")
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n1\n1\n1\n1\n2\n3\n")
        rc, text = run(files, "estimate", "--input", str(pop), "--samples", str(draws),
                       "--k", k)
        assert (rc, text) == (3, None)

    @pytest.mark.parametrize("argv", [
        ("simulate", "--exp", "zero-one", "--n", "1000", "--trials", "1"),
        ("estimate", "--input", "noq.csv", "--samples", "draws.txt"),
    ])
    def test_planned_order_above_k_max_is_exit_3(self, files, capsys, argv):
        # gamma = 0.5, eps1 = 1e-12 plans k = 40 > K_MAX = 32; both paths
        # exited 2 from the k check in estimate_sum
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n2\n")
        files["draws.txt"] = str(draws)
        rc, text = run(files, *(files.get(a, a) for a in argv),
                       "--gamma", "0.5", "--eps1", "1e-12")
        assert (rc, text) == (3, None)
        assert capsys.readouterr().err == (
            "noisysum: target eps1=1e-12 at gamma=0.5 needs order 40 > 32\n"
        )

    @pytest.mark.parametrize("argv, size", [
        (("estimate", "--eps1", "0.5", "--eps2", "1e-300"),
         "m leaves the float range: math range error"),
        (("simulate", "--exp", "trials", "--eps1", "0.5", "--eps2", "1e-300", "--trials", "1"),
         "m leaves the float range: math range error"),
    ])
    def test_plan_beyond_float_range_is_exit_3(self, files, capsys, argv, size):
        # each exited 1 with an OverflowError traceback
        rc, text = run(files, *argv, "--input", files["sim.csv"], "--gamma", "0.5")
        assert (rc, text) == (3, None)
        assert capsys.readouterr().err == f"noisysum: planned {size}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--eps2", "nan"), "eps2 must be positive"),
    ])
    @pytest.mark.parametrize("command", [("estimate",), ("simulate", "--exp", "trials")])
    def test_nan_plan_input_is_exit_2(self, files, capsys, command, argv, message):
        # each exited 2 with "cannot convert float NaN to integer"
        rc, text = run(files, *command, *argv, "--input", files["sim.csv"], "--gamma", "0.5",
                       "--eps1", "0.5")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {message}\n"

    def test_eps2_square_beyond_float_range_is_planned(self, files):
        # eps2^2 overflows; this exited 3 with
        # "planned t leaves the float range: (34, 'Numerical result out of range')"
        rc, text = run(files, "estimate", "--input", files["sim.csv"], "--gamma", "0.5",
                       "--eps1", "0.5", "--eps2", "1e200")
        assert rc == 0
        report = json.loads(text)
        assert (report["k"], report["m"], report["t"]) == (1, 1, 16)

    @pytest.mark.parametrize("argv, size", [
        (("estimate", "--input", "sim.csv", "--k", "1", "--m", BIG), f"sample size {BIG}"),
        (("simulate", "--exp", "trials", "--input", "sim.csv", "--k", "1", "--m", BIG),
         f"sample size {BIG}"),
        (("simulate", "--exp", "zero-one", "--n", BIG, "--gamma", "0.5", "--eps1", "0.25",
          "--trials", "1"), f"population size {BIG}"),
        (("lowerbound", "--k", "3", "--gamma", "1/3", "--n0", "10000000000000000000",
          "--realize", "--scenario", "ones-small"), "instance size 17261363636363636364"),
        (("lowerbound", "--k", "3", "--gamma", "1/3", "--n0", BIG,
          "--realize", "--scenario", "ones-small"), "instance size 172613636363636363636364"),
        (("simulate", "--exp", "distinguish", "--k", "1", "--gamma", "1/2", "--n0", BIG,
          "--m-grid", "5", "--trials", "30"), "instance size 166666666666666666666667"),
    ], ids=["estimate-m", "trials-m", "zero-one-n", "lowerbound-n0-1e19", "lowerbound-n0-1e23",
            "distinguish-n0-1e23"])
    def test_size_beyond_int64_is_exit_3(self, files, capsys, argv, size):
        # The first three and lowerbound at 1e19 exited 2 with numpy's
        # "Maximum allowed dimension exceeded" or "negative dimensions are not
        # allowed"; the two at 1e23 exited 1 with an uncaught OverflowError.
        rc, text = run(files, *(files.get(a, a) for a in argv))
        assert (rc, text) == (3, None)
        assert capsys.readouterr().err == f"noisysum: {size} is beyond the int64 index range\n"

    @pytest.mark.parametrize("argv, what", [
        (("estimate", "--input", "sim.csv", "--k", "1", "--m", str(2**61)), "sample size"),
        (("simulate", "--exp", "zero-one", "--n", str(2**61), "--gamma", "0.5", "--eps1",
          "0.25", "--trials", "1"), "population size"),
    ], ids=["estimate-m", "zero-one-n"])
    def test_size_beyond_int64_bytes_is_exit_3(self, files, capsys, argv, what):
        # 2^61 is inside the int64 index range, but 8 * 2^61 bytes is not:
        # both exited 2 with numpy's "array is too big" ValueError
        rc, text = run(files, *(files.get(a, a) for a in argv))
        assert (rc, text) == (3, None)
        assert capsys.readouterr().err == (
            f"noisysum: {what} {2**61} needs {2**64} bytes, beyond the int64 byte range\n"
        )

    def test_any_overflow_is_exit_3_without_traceback(self, tmp_path):
        # exited 1 with an OverflowError traceback
        proc, out = run_process(tmp_path, "lowerbound", "--k", "3", "--gamma", "1/3",
                                "--n0", BIG, "--realize", "--scenario", "ones-small")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "noisysum: instance size 172613636363636363636364 is beyond the int64 index range\n"
        )
        assert not out.exists()

    def test_unallocatable_population_is_exit_3(self, files, capsys):
        # --n 1e12 asks for 8 TB of float64.  The address-space cap makes
        # that allocation fail at once, whatever the kernel's overcommit policy.
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            rc, text = run(files, "simulate", "--exp", "zero-one", "--n", "1000000000000",
                           "--gamma", "0.5", "--eps1", "0.25", "--trials", "1")
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert (rc, text) == (3, None)
        err = capsys.readouterr().err
        assert err.startswith("noisysum: Unable to allocate") and err.count("\n") == 1


class TestZeroNominalColumn:
    # With p_2 = 0, dividing q / p would print a numpy RuntimeWarning and
    # fail with "deviations must be finite".  The process is run for real so
    # that its stderr is exactly what a user sees.
    @pytest.mark.parametrize("argv", [
        ["oracle", "--m", "2", "--k", "1"],
        ["estimate", "--k", "1", "--m", "10"],
        ["simulate", "--exp", "trials", "--k", "1", "--m", "10", "--trials", "2"],
    ], ids=["oracle", "estimate", "trials"])
    def test_exit_2_without_runtime_warning(self, tmp_path, argv):
        pop = tmp_path / "zero_p.csv"
        pop.write_text("index,x,p,q\n1,1.0,1.0,0.75\n2,0.0,0.0,0.25\n")
        src = str(Path(noisysum.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "noisysum.cli", *argv, "--input", str(pop)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert "strictly positive" in proc.stderr
        assert proc.stdout == ""


class TestStatisticsBeyondFloatRange:
    # At p = 5e-324, x/p and 1/p overflow: n_tilde and var_hh are inf.  Each
    # command printed numpy RuntimeWarnings or measured against an inf or nan.
    TINY = "index,x,p,q\n1,1.0,5e-324,5e-324\n2,1.0,1.0,1.0\n"

    @staticmethod
    def run_on(tmp_path, rows, *argv):
        pop = tmp_path / "pop.csv"
        pop.write_text(rows)
        return run_process(tmp_path, *argv, "--input", str(pop))

    def test_plan_names_the_statistics(self, tmp_path):
        # failed with "planned m = nan is not an integer below 2^63"
        proc, out = self.run_on(tmp_path, self.TINY, "estimate", "--eps1", "0.5", "--eps2", "1",
                                "--gamma", "0.5")
        assert (proc.returncode, proc.stdout, out.exists()) == (3, "", False)
        assert proc.stderr == (
            "noisysum: plan inputs n_tilde = inf, var_hh = inf leave the float range\n"
        )

    def test_trials_refuse_the_budget_before_running(self, tmp_path):
        # measured every trial against a nan budget: success_rate 0.0, exit 0
        proc, out = self.run_on(tmp_path, self.TINY, "simulate", "--exp", "trials", "--k", "1",
                                "--m", "5", "--trials", "3")
        assert (proc.returncode, proc.stdout, out.exists()) == (3, "", False)
        assert proc.stderr == (
            "noisysum: mean absolute deviation E_P|x/P - mu| = inf is not finite\n"
        )

    def test_subnormal_p_refuses_the_deviations_quietly(self, tmp_path):
        # Q/P overflowed with a numpy RuntimeWarning before the refusal
        proc, out = self.run_on(tmp_path, "index,x,p,q\n1,1.0,5e-324,0.5\n2,1.0,1.0,0.5\n",
                                "estimate", "--k", "1", "--m", "5")
        assert (proc.returncode, proc.stdout, out.exists()) == (2, "", False)
        assert proc.stderr == "noisysum: deviations must be finite\n"

    @pytest.mark.parametrize("rows, argv, message", [
        # sum_i |x_i| = inf made the budget inf: success_rate 1.0, exit 0
        ("1,1e308,0.5,0.5\n2,-1e308,0.5,0.5\n", ["--m", "5", "--functional", "positive_sum"],
         "sum of absolute values sum_i |x_i| = inf"),
        # numpy warned "overflow encountered in square" and the row held var=inf
        ("1,1e160,0.5,0.5\n2,-1e160,0.5,0.5\n", ["--m", "5", "--t", "5", "--trials", "5"],
         "empirical variance of the estimates = inf"),
        # seed 0 draws index 2 for both stages: the estimate -1.7e308 lies
        # 3e308 from mu = 1.33e308, and the row held nan error quantiles
        ("1,1.5e308,0.9,0.85\n2,-1.7e307,0.1,0.15\n",
         ["--m", "1", "--t", "1", "--trials", "1", "--functional", "positive_sum"],
         "largest error |estimate - mu| = inf"),
    ], ids=["positive-sum-budget", "variance", "error"])
    def test_trials_refuse_a_value_beyond_float_range(self, tmp_path, rows, argv, message):
        proc, out = self.run_on(tmp_path, "index,x,p,q\n" + rows, "simulate", "--exp", "trials",
                                "--k", "1", "--eps1", "0.1", "--eps2", "0", *argv)
        assert (proc.returncode, proc.stdout, out.exists()) == (3, "", False)
        assert proc.stderr == f"noisysum: {message} is not finite\n"

    def test_bias_decay_needs_only_the_sums(self, tmp_path):
        proc, out = self.run_on(tmp_path, "index,x,p\n1,1.0,0.5\n2,1.0,5e-324\n3,1.0,0.5\n",
                                "simulate", "--exp", "bias-decay", "--gamma", "0.5", "--kmax", "2")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == (
            "k,exact_bias,bound,ratio\n1,0.5,1.5,0.3333333333333333\n2,0.75,0.75,1.0\n"
        )

    @pytest.mark.parametrize("x, argv, message", [
        # wrote "bound": Infinity, invalid JSON, and exited 0
        ("1e308,-1e308", ["--format", "json"],
         "sum of absolute values sum_i |x_i| = inf is not finite"),
        # numpy warned "overflow encountered in multiply" and the row read 1,inf,6.5e+307,inf
        ("1.3e308,0.0", [], "the order-1 closed-form expectation leaves the float range"),
    ], ids=["mu-plus", "expectation"])
    def test_bias_decay_refuses_a_value_beyond_float_range(self, tmp_path, x, argv, message):
        rows = "".join(f"{i},{v},0.5\n" for i, v in enumerate(x.split(","), 1))
        proc, out = self.run_on(tmp_path, "index,x,p\n" + rows, "simulate", "--exp", "bias-decay",
                                "--gamma", "0.5", "--kmax", "2", *argv)
        assert (proc.returncode, proc.stdout, out.exists()) == (3, "", False)
        assert proc.stderr == f"noisysum: {message}\n"

    def test_bias_decay_exact_weights_have_zero_bias(self, tmp_path):
        # At gamma = 0 the closed form is the correctly rounded sum; mu was
        # np.sum, so the bias read 8.9e-16 and the ratio Infinity (invalid JSON).
        x = np.random.default_rng(0).normal(size=64).tolist()
        rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(x, 1))
        proc, out = self.run_on(tmp_path, "index,x\n" + rows, "simulate", "--exp", "bias-decay",
                                "--gamma", "0", "--kmax", "2", "--format", "json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        rows = [{"k": k, "exact_bias": 0.0, "bound": 0.0, "ratio": 0.0} for k in (1, 2)]
        assert out.read_text() == json.dumps(rows, indent=2) + "\n"


class TestJsonBoolValue:
    def test_bool_x_is_exit_2(self, files):
        # {"x": true} loaded as x = 1.0 and the oracle answered with exit 0
        pop = files["dir"] / "bool.json"
        pop.write_text(json.dumps([{"x": True, "p": 0.5, "q": 0.5},
                                   {"x": 0.0, "p": 0.5, "q": 0.5}]))
        rc, text = run(files, "oracle", "--input", str(pop), "--m", "2", "--k", "1")
        assert (rc, text) == (2, None)


class TestJsonTextValue:
    @pytest.mark.parametrize("value", ["7", "1_0"])
    def test_string_x_is_exit_2(self, files, value):
        # "7" loaded as 7.0 and the oracle answered with exit 0
        pop = files["dir"] / "text.json"
        pop.write_text(json.dumps([{"x": value, "p": 0.5, "q": 0.5},
                                   {"x": 0.0, "p": 0.5, "q": 0.5}]))
        rc, text = run(files, "oracle", "--input", str(pop), "--m", "2", "--k", "1")
        assert (rc, text) == (2, None)


class TestSpacedCsvHeader:
    def test_offline_estimate_matches_unspaced(self, files, capsys):
        # "index, x, p" passed the header check, then the rows were read
        # with unstripped keys and the run died with a KeyError
        spaced = files["dir"] / "spaced.csv"
        spaced.write_text("index, x, p\n1, 1.0, 0.5\n2, 0.0, 0.5\n")
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n1\n2\n1\n2\n2\n1\n1\n")
        outputs = []
        for pop in (files["noq.csv"], str(spaced)):
            rc = main(["estimate", "--input", pop, "--samples", str(draws),
                       "--k", "2", "--t", "2"])
            outputs.append((rc, capsys.readouterr().out))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


class TestLongCsvRow:
    def test_extra_field_is_exit_2(self, files, capsys):
        # the 9 was dropped and the estimate written with exit 0
        pop = files["dir"] / "long.csv"
        pop.write_text("index,x\n1,1.0\n2,1.0,9\n")
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n2\n1\n")
        rc, text = run(files, "estimate", "--input", str(pop), "--samples", str(draws),
                       "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            f"noisysum: {pop}:3: more fields than the 2 in the header\n"
        )


class TestUnknownCsvColumn:
    def test_misspelled_p_is_exit_2(self, files, capsys):
        # "P" was ignored: the estimate 1.333 came from a uniform p, with exit 0
        pop = files["dir"] / "upper.csv"
        pop.write_text("index,x,P\n1,1.0,0.9\n2,0.0,0.1\n")
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n1\n2\n")
        rc, text = run(files, "estimate", "--input", str(pop), "--samples", str(draws),
                       "--k", "1")
        assert (rc, text) == (2, None)
        assert capsys.readouterr().err == (
            f"noisysum: {pop}: unknown column 'P'; expected index, x, p, q\n"
        )


class TestRepeatedNames:
    # the last of the repeated values was kept: estimates 11.33 and 6.67, with exit 0
    @pytest.mark.parametrize("name, text, message", [
        ("twice.csv", "index,x,x\n1,1.0,5.0\n2,0.0,7.0\n", "repeated column 'x'"),
        ("twice.json", '[{"x": 1.0, "x": 5.0}, {"x": 0.0}]', "repeated key 'x'"),
    ])
    def test_repeated_name_is_exit_2(self, files, capsys, name, text, message):
        pop = files["dir"] / name
        pop.write_text(text)
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n1\n2\n")
        rc, out = run(files, "estimate", "--input", str(pop), "--samples", str(draws),
                      "--k", "1")
        assert (rc, out) == (2, None)
        assert capsys.readouterr().err == f"noisysum: {pop}: {message}\n"


class TestUnusablePaths:
    def test_output_under_missing_directory_is_exit_2(self, files, capsys):
        missing = files["dir"] / "missing"
        rc = main(["oracle", "--input", files["sim.csv"], "--m", "2", "--k", "1",
                   "--output", str(missing / "out.json")])
        assert rc == 2
        assert not missing.exists()
        assert capsys.readouterr().err.startswith("noisysum: cannot write ")

    def test_directory_as_input_is_exit_2(self, files, capsys):
        rc, text = run(files, "oracle", "--input", str(files["dir"]), "--m", "2",
                       "--k", "1")
        assert (rc, text) == (2, None)
        assert sorted(p.name for p in files["dir"].iterdir()) == sorted(
            ["sim.csv", "id.csv", "noq.csv", "ones.csv"])
        assert capsys.readouterr().err.startswith("noisysum: ")


class TestExactWeights:
    # q = p measures gamma 0, which the planner rejected as outside (0, 1)
    @pytest.mark.parametrize("extra", [[], ["--gamma", "0"]], ids=["measured", "flag"])
    def test_plan_uses_order_one(self, files, extra):
        rc, text = run(files, "estimate", "--input", files["id.csv"],
                       "--eps1", "0.1", "--eps2", "1", *extra)
        assert rc == 0
        assert json.loads(text)["k"] == 1

    def test_offline_order_from_gamma_zero(self, files):
        draws = files["dir"] / "draws.txt"
        draws.write_text("1\n1\n2\n1\n2\n2\n1\n1\n")
        rc, text = run(files, "estimate", "--input", files["noq.csv"],
                       "--samples", str(draws), "--gamma", "0", "--eps1", "0.1")
        assert rc == 0
        assert json.loads(text)["k"] == 1


class TestNormalizationRounding:
    # sum_i d_i P(i) = sum Q - sum P is 1.8e-12 here, past NORMALIZATION_ATOL,
    # although each column alone passes it: the pair must still be accepted.
    @pytest.mark.parametrize("argv", [
        ("estimate", "--k", "1", "--m", "10"),
        ("oracle", "--m", "2", "--k", "1"),
        ("simulate", "--exp", "trials", "--k", "1", "--m", "10", "--trials", "5"),
    ], ids=["estimate", "oracle", "trials"])
    def test_columns_off_by_rounding_run(self, files, argv):
        tight = files["dir"] / "tight.csv"
        tight.write_text(TIGHT_CSV)
        rc, text = run(files, *argv, "--input", str(tight))
        assert rc == 0
        assert text


class TestByteOrderMarkCsv:
    def test_bom_csv_matches_plain(self, files, capsys):
        bom = files["dir"] / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + SIM_CSV.encode())
        outputs = []
        for pop in (files["sim.csv"], str(bom)):
            rc = main(["estimate", "--input", pop, "--k", "2", "--m", "12", "--seed", "9"])
            outputs.append((rc, capsys.readouterr().out))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

