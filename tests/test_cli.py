import json
import math
import warnings

import pytest

from safemean import montecarlo
from safemean.cli import main, parse_distribution, parse_schedule, UsageError
from safemean.core import Pareto, ScaledBernoulli


@pytest.fixture
def two_point(tmp_path):
    path = tmp_path / "two_point.txt"
    path.write_text("0\n2\n")
    return str(path)


def test_parse_distribution():
    assert parse_distribution("pareto:2.5:1") == Pareto(2.5, 1.0)
    assert parse_distribution("bern:0.5:2") == ScaledBernoulli(0.5, 2.0)
    assert parse_distribution("point:3") == ScaledBernoulli(1.0, 3.0)
    with pytest.raises(UsageError):
        parse_distribution("pareto:2.5")
    with pytest.raises(UsageError):
        parse_distribution("cauchy:1:1")
    with pytest.raises(UsageError):
        parse_distribution("pareto:0.5:1")  # invalid shape


def test_parse_schedule():
    assert parse_schedule("logn").lam(100) == pytest.approx(math.log(100))
    assert parse_schedule("logn:2").lam(100) == pytest.approx(2 * math.log(100))
    assert parse_schedule("power:1:0.5").lam(9) == 3.0
    with pytest.raises(UsageError):
        parse_schedule("weekly")
    with pytest.raises(UsageError):
        parse_schedule("const:3")  # a constant exponent is --lambda


def test_estimate_kl_two_point(two_point, capsys):
    code = main(["estimate", "--estimator", "kl", "--r", "0.6931", "--input", two_point])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(0.13397, abs=1e-3)
    assert doc["estimator"] == "kl"
    assert "alpha_star" in doc["diagnostics"]


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


def test_estimate_kl_zero_radius_prints_valid_json(two_point, capsys):
    # alpha* is infinite at r = 0; the output must still be strict JSON
    assert main(["estimate", "--estimator", "kl", "--r", "0", "--input", two_point]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["value"] == 1.0
    assert doc["diagnostics"]["alpha_star"] is None


def test_estimate_kl_extreme_magnitude(tmp_path, capsys):
    path = tmp_path / "extreme.txt"
    path.write_text("0\n1e308\n")
    assert main(["estimate", "--estimator", "kl", "--r", "0.3", "--input", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert 0.0 < value < 1e308


def test_estimate_mean(two_point, capsys):
    assert main(["estimate", "--estimator", "mean", "--input", two_point]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0


def test_estimate_trunc(two_point, capsys):
    code = main(
        ["estimate", "--estimator", "trunc", "--a", "2", "--A", "1", "--lambda", "0.02", "--input", two_point]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.9)


def test_estimate_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n-3\n")
    code = main(["estimate", "--estimator", "mean", "--input", str(bad)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_estimate_missing_file(capsys):
    assert main(["estimate", "--estimator", "mean", "--input", "/nonexistent/x.txt"]) == 2


def test_estimate_conflicting_radius_flags(two_point, capsys):
    code = main(
        ["estimate", "--estimator", "kl", "--r", "0.1", "--lambda", "2", "--input", two_point]
    )
    assert code == 2
    assert "give at most one of r, lam, schedule" in capsys.readouterr().err
    # the configuration checks every field for every kind: no radius, or a negative delta, is a usage error
    assert main(["estimate", "--estimator", "tv", "--input", two_point]) == 2
    assert "needs one of r, lam, schedule" in capsys.readouterr().err
    assert main(["estimate", "--estimator", "mean", "--delta", "-1", "--input", two_point]) == 2
    assert "delta must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [(["mean", "--r", "0.5"], "r"), (["mean", "--lambda-schedule", "logn"], "schedule"),
     (["kl", "--r", "0.1", "--delta", "0"], "delta"), (["varreg", "--lambda", "1", "--a", "2"], "a"),
     (["varreg", "--lambda", "1", "--A", "5"], "A")],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
def test_flag_the_estimator_never_reads_is_usage_error(two_point, tmp_path, capsys, flags, field):
    # --delta, --a and --A default to not given, so naming one is a choice
    # the estimator would silently ignore
    assert main(["estimate", "--estimator", *flags, "--input", two_point]) == 2
    assert f"does not take {field}" in capsys.readouterr().err
    simulate = ["simulate", "--dist", "point:1", "--n", "5", "--trials", "3", "--out", str(tmp_path / "s.csv")]
    assert main([*simulate, "--estimator", *flags]) == 2
    assert f"does not take {field}" in capsys.readouterr().err


def test_simulate_point_mass_zero_rows(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--dist", "point:3", "--estimator", "kl", "--r", "0.1",
            "--n", "5,10", "--trials", "50", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "estimator,n,trials,hits,p_hat,ci_lo,ci_hi,bound,seed"
    for row in body[1:]:
        assert row.split(",")[3] == "0"  # zero hits


def test_simulate_rerun_byte_identical(tmp_path):
    args = [
        "simulate", "--dist", "pareto:2.5:1", "--estimator", "kl",
        "--lambda-schedule", "logn", "--n", "30", "--trials", "200", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # bound column filled for the KL estimator with lambda > 1
    body = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert body[1].split(",")[7] != ""


@pytest.mark.parametrize(
    "estimator,hits",
    [(["kl"], ["20", "2"]), (["varreg", "--event", "conservatism", "--b", "0.5"], ["1050", "54"])],
    ids=["kl", "varreg"],
)
def test_simulate_multi_batch_seeded_hits(tmp_path, estimator, hits):
    # five harness batches at each n (4096 and 4000 rows), streamed tile by
    # tile; the counts are those of the whole-batch harness
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--dist", "pareto:2.5:1", "--estimator", *estimator, "--lambda-schedule", "logn",
        "--n", "100,1000", "--trials", "20000", "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row.split(",")[3] for row in body[1:]] == hits


def test_simulate_threads_do_not_change_output(tmp_path):
    base = [
        "simulate", "--dist", "pareto:2.5:1", "--estimator", "varreg",
        "--lambda", "2", "--n", "50", "--trials", "300", "--seed", "11",
    ]
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def _config_line(path):
    (line,) = [line for line in path.read_text().splitlines() if line.startswith("# config: ")]
    return json.loads(line.removeprefix("# config: "))


def test_simulate_config_line_records_every_estimator_field(tmp_path):
    # the moment bound changes the estimate, so two runs that differ only in --A write different config lines
    argv = [
        "simulate", "--dist", "pareto:2.5:1", "--estimator", "trunc", "--lambda", "1",
        "--n", "50", "--trials", "200", "--seed", "1", "--threads", "1",
    ]
    docs = []
    for bound in ("0.01", "1"):
        out = tmp_path / f"A{bound}.csv"
        assert main([*argv, "--A", bound, "--out", str(out)]) == 0
        docs.append(_config_line(out))
    keys = {"b": None, "dist": "pareto:2.5:1", "estimator": "trunc", "event": "disappointment", "lambda": 1.0,
            "lambda_schedule": None, "n": [50], "r": None, "seed": 1, "trials": 200}
    for doc, bound in zip(docs, (0.01, 1.0)):
        assert doc == {**keys, "delta": None, "a": 2.0, "A": bound}  # a filled with its default
    # a kind that reads none of delta, a and A records them as null; mean records its resolved delta
    out = tmp_path / "mean.csv"
    assert main(["simulate", "--dist", "point:1", "--estimator", "mean", "--n", "5", "--trials", "3", "--out", str(out)]) == 0
    assert {k: _config_line(out)[k] for k in ("delta", "a", "A")} == {"delta": 0.0, "a": None, "A": None}


def test_simulate_bound_overflow_is_usage_error_before_any_trial(monkeypatch, capsys):
    # lambda = r * n = 1e309 overflows; the bound rejects it before the harness runs a trial
    def no_trials(*args):
        raise AssertionError("trials ran")

    monkeypatch.setattr(montecarlo, "_run_event_trials", no_trials)
    argv = ["simulate", "--dist", "pareto:2.5:1", "--estimator", "kl", "--r", "1e307", "--n", "100", "--trials", "50"]
    assert main(argv) == 2
    assert "bound requires lambda > 1 and finite" in capsys.readouterr().err


def test_simulate_conservatism_requires_b(capsys):
    code = main(
        [
            "simulate", "--dist", "pareto:2.5:1", "--estimator", "varreg",
            "--lambda", "2", "--n", "20", "--trials", "10",
            "--event", "conservatism",
        ]
    )
    assert code == 2


def test_validate_passes(capsys):
    assert main(["validate", "--instances", "15", "--seed", "1", "--probes", "300"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_validate_reports_gap_relative_to_value(capsys):
    # the fields before the value-relative gap are unchanged; that gap is the
    # ratio CertificateReport.passed bounds by 1e-9
    assert main(["validate", "--instances", "15", "--seed", "1", "--probes", "300"]) == 0
    line = capsys.readouterr().out.strip()
    head, tail = line.split(", max duality gap / |value| ")
    assert head.startswith("validate: 15 instances, 0 failures, max kl gap ")
    assert head.endswith(", probe violations 0")
    assert 0.0 <= float(tail) <= 1e-9


def test_validate_zero_instances(capsys):
    assert main(["validate", "--instances", "0"]) == 2


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_validate_rejects_non_positive_probes(capsys, probes):
    assert main(["validate", "--instances", "1", "--probes", probes]) == 2
    assert capsys.readouterr().err.strip() == "error: --probes must be >= 1"


def test_validate_inject_mismatch_fails(capsys):
    code = main(
        ["validate", "--instances", "1", "--seed", "1", "--probes", "100", "--inject-radius-mismatch"]
    )
    assert code == 1


def test_rates_from_synthetic_csv(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    rows = ["n,p_hat"] + [f"{n},{n**-1.5:.17g}" for n in (10, 100, 1000, 10000)]
    csv.write_text("\n".join(rows) + "\n")
    assert main(["rates", "--from-csv", str(csv), "--axis", "log-log"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == pytest.approx(-1.5, abs=1e-12)
    assert doc["r_squared"] == pytest.approx(1.0)


def test_rates_too_few_points(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("n,p_hat\n10,0.1\n100,0\n1000,0\n")
    assert main(["rates", "--from-csv", str(csv)]) == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("100\n", 1),
        ("n,p_hat\n100,0.1\n200\n", 3),
        ("# run 7\nn,p_hat\n10,x\n", 3),
        ("10,0.5\n20,x\n", 2),
        ("n,p_hat\n10,0.1\n100,inf\n1000,0.001\n10000,1e-4\n", 3),
        ("n,p_hat\nnan,0.1\n100,0.01\n1000,0.001\n", 2),
    ],
)
def test_rates_short_or_non_numeric_row_is_usage_error(tmp_path, capsys, text, line):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    assert main(["rates", "--from-csv", str(csv)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {csv}: line {line}: ")


@pytest.mark.parametrize(
    "text, line, axis",
    [
        ("n,p_hat\n0,0.1\n100,0.01\n1000,0.001\n", 2, "log-log"),
        ("n,p_hat\n10,0.1\n-5,0.01\n1000,0.001\n", 3, "log-linear"),
        ("n,p_hat\n10,0.1\n100,0.01\n1000,0.001\n0.5,0\n", 5, "log-log"),
    ],
)
def test_rates_sample_size_below_one_is_usage_error(tmp_path, capsys, text, line, axis):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    assert main(["rates", "--from-csv", str(csv), "--axis", axis]) == 2
    assert capsys.readouterr().err.startswith(f"error: {csv}: line {line}: n must be >= 1, not ")


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_simulate_rejects_fewer_than_one_thread(capsys, threads):
    argv = ["simulate", "--dist", "pareto:2.5:1", "--estimator", "mean", "--n", "20", "--trials", "10"]
    assert main(argv + ["--threads", threads]) == 2
    assert capsys.readouterr().err.strip() == "error: threads must be >= 1"


def test_rates_cramer(tmp_path, capsys):
    assert main(["rates", "--cramer", "--dist", "bern:0.5:2", "--b", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rate"] == pytest.approx(math.log(2.0), abs=1e-8)
    # the artifact honours --out and carries the version; the rate of an impossible event is null, strict JSON
    out = tmp_path / "rate.json"
    assert main(["rates", "--cramer", "--dist", "bern:0.5:2", "--b", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert set(doc) == {"b", "dist", "rate", "version"} and doc["b"] == 0.5 and doc["dist"] == "bern:0.5:2"
    assert main(["rates", "--cramer", "--dist", "bern:0.5:2", "--b", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text(), parse_constant=_reject_constant)["rate"] is None


def test_rates_variance_ratio(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["rates", "--variance-ratio", "--dist", "bern:0.5:2", "--r-grid", "1e-3", "--out", str(out)]
    )
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "r,ratio"
    ratio = float(body[1].split(",")[1])
    assert 1.8 <= ratio <= 2.1


@pytest.mark.parametrize("dist", ["point:2", "bern:1:2"])
def test_rates_variance_ratio_of_a_point_mass_is_zero(tmp_path, dist):
    out = tmp_path / "curve.csv"
    assert main(["rates", "--variance-ratio", "--dist", dist, "--r-grid", "1e-2,1e-3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-3:] == ["r,ratio", "0.01,0", "0.001,0"]


def test_rates_cramer_of_an_impossible_event_at_the_minimum_is_null(capsys):
    # mu - b = 0 is the minimum of uniform:0:1 with no atom there, so the event is impossible
    assert main(["rates", "--cramer", "--dist", "uniform:0:1", "--b", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["rate"] is None


@pytest.mark.parametrize("dist", ["bern:0.5:0", "bern:0:2"])
def test_rates_variance_ratio_of_a_law_at_zero_is_that_of_point_0(tmp_path, dist):
    # z = 0 almost surely, spelled three ways: the same rows, a ratio of 0
    rows = {}
    for spelling in (dist, "point:0"):
        out = tmp_path / "curve.csv"
        assert main(["rates", "--variance-ratio", "--dist", spelling, "--r-grid", "1e-2", "--out", str(out)]) == 0
        rows[spelling] = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[dist] == rows["point:0"] == ["r,ratio", "0.01,0"]


def test_rates_requires_a_mode(capsys):
    assert main(["rates"]) == 2


def test_simulate_oversized_lognormal_is_usage_error(capsys):
    # exp(mu + sigma^2/2) overflows: a bad --dist, not a validation failure
    code = main(
        [
            "simulate", "--dist", "lognormal:0:1000", "--estimator", "mean",
            "--n", "10", "--trials", "5", "--seed", "1",
        ]
    )
    assert code == 2
    assert "lognormal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "estimator",
    [
        ["varreg", "--lambda-schedule", "logn"],
        ["trunc", "--a", "2", "--A", "5", "--lambda", "3"],
    ],
)
def test_simulate_overflowing_draws_are_numeric_failure(tmp_path, capsys, estimator):
    # exp(709 + z) overflows for z > 0.78: varreg's estimate would be NaN and
    # trunc's would cap the infinite draws, so each counted a wrong answer
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--dist", "lognormal:709:1", "--estimator", *estimator,
            "--n", "100", "--trials", "2000", "--seed", "7",
            "--event", "conservatism", "--b", "0.5", "--out", str(out),
        ]
    )
    assert code == 3
    assert not out.exists()
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("event", [[], ["--event", "conservatism", "--b", "1"]], ids=["disappointment", "conservatism"])
def test_simulate_varreg_at_1e300_is_finite(tmp_path, event):
    # the deviations from a mean of twenty 1e300 values are not zero, and their squares overflowed
    out = tmp_path / "out.csv"
    args = ["simulate", "--dist", "point:1e300", "--estimator", "varreg", "--n", "20", "--trials", "10", "--lambda", "1"]
    assert main(args + event + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("varreg,20,10,")


@pytest.mark.parametrize("dist", ["point:1e300", "bern:1:1e300", "bern:1:0.1"])
@pytest.mark.parametrize("estimator", [["mean"], ["varreg", "--lambda", "1"]], ids=lambda e: e[0])
def test_simulate_point_mass_never_disappoints(tmp_path, estimator, dist):
    # twenty 1e300 or 0.1 values sum to a mean one ulp above them; a row mean is
    # held within its row's min and max, so the estimate never exceeds mu
    out = tmp_path / "out.csv"
    args = ["simulate", "--dist", dist, "--estimator", *estimator, "--n", "20", "--trials", "10"]
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith(f"{estimator[0]},20,10,0,")


@pytest.mark.parametrize("estimator", [["mean"], ["varreg", "--lambda", "1"]], ids=lambda e: e[0])
def test_simulate_point_mass_is_never_conservative(tmp_path, estimator):
    # three 0.7 values average to one ulp below 0.7 = mu - 1e-17 in floats; neither
    # estimate moves below a constant sample's value (KL at r > 0 does: v exp(-r))
    out = tmp_path / "out.csv"
    args = ["simulate", "--dist", "bern:1:0.7", "--estimator", *estimator, "--event", "conservatism", "--b", "1e-17"]
    assert main(args + ["--n", "3", "--trials", "10", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith(f"{estimator[0]},3,10,0,")


NON_FINITE_LAWS = {
    "bern:0.5:inf": "high value must be finite and non-negative",
    "point:inf": "high value must be finite and non-negative",
    "bern:0.5:nan": "high value must be finite and non-negative",
    "pareto:2.5:inf": "scale must be finite and positive",
    "uniform:0:inf": "bounds must be finite",
    "lognormal:nan:1": "mu and sigma must be finite",
    "pareto:1.0000000000000002:1e300": "mean shape*scale/(shape-1) overflows a float",
}


@pytest.mark.parametrize("dist", list(NON_FINITE_LAWS))
def test_simulate_non_finite_law_is_usage_error(tmp_path, capsys, dist):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--dist", dist, "--estimator", "mean", "--n", "3", "--trials", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert NON_FINITE_LAWS[dist] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["simulate", "--estimator", "mean", "--n", "3", "--trials", "3"], ["rates", "--variance-ratio", "--r-grid", "1e-2"]],
    ids=["simulate", "rates"],
)
def test_lognormal_whose_mean_underflows_is_usage_error(capsys, command):
    # simulate ran on mu = 0, and rates exited 2 with "math domain error" from scaling the law by its mean
    assert main(command + ["--dist", "lognormal:-800:1"]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: invalid distribution 'lognormal:-800:1': LogNormal mean exp(mu + sigma^2/2) underflows to 0"
    )


def test_simulate_non_finite_estimate_is_numeric_failure(tmp_path, capsys):
    # every draw is finite, but the sum behind the sample mean overflows
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--dist", "uniform:0:1e308", "--estimator", "mean",
            "--n", "10", "--trials", "20", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 3
    assert not out.exists()
    assert "non-finite mean estimate" in capsys.readouterr().err


def test_numeric_failure_without_a_solve_reports_no_bracket(capsys):
    # the draws overflow before any dual solve runs: there is no bracket to report
    code = main(
        [
            "simulate", "--dist", "lognormal:709:1", "--estimator", "varreg", "--lambda-schedule", "logn",
            "--n", "100", "--trials", "20", "--seed", "7",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "overflows" in err
    assert "nan" not in err and "bracket" not in err


@pytest.mark.parametrize("dist", ["lognormal:0:1", "lognormal:0:30"])
def test_rates_cramer_lognormal(capsys, dist):
    assert main(["rates", "--cramer", "--dist", dist, "--b", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isfinite(doc["rate"]) and doc["rate"] >= 0.0


@pytest.mark.parametrize(
    "estimator",
    [["wasserstein", "--r", "-1"], ["trunc", "--lambda", "-1"], ["trunc", "--lambda", "0"]],
    ids=["wasserstein_r_negative", "trunc_lambda_negative", "trunc_lambda_zero"],
)
def test_simulate_rejects_negative_radius_and_zero_truncation_exponent(tmp_path, capsys, estimator):
    # a negative radius lifts every estimate above its sample mean; trunc needs r > 0
    # for its truncation level r**(-1/a)
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--dist", "pareto:2.5:1", "--estimator", *estimator,
            "--n", "20", "--trials", "200", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "estimator",
    [["mean"], ["wasserstein", "--r", "0.1"], ["varreg", "--lambda", "1"], ["tv", "--lambda", "1"], ["kl", "--r", "0"]],
    ids=lambda e: e[0],
)
def test_estimate_non_finite_value_is_numeric_failure(tmp_path, capsys, estimator):
    # every value is finite, but the sum behind the sample mean overflows
    path = tmp_path / "huge.txt"
    path.write_text("1.7e308\n" * 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["estimate", "--estimator", *estimator, "--input", str(path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: solver failure: non-finite" in captured.err and "estimate" in captured.err


def test_simulate_varreg_at_zero_lambda_has_no_conservatism_bound(tmp_path):
    # at r = 0 varreg is the plain sample mean; the bound's b sqrt(n / 2r) is undefined
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--dist", "pareto:2.5:1", "--estimator", "varreg", "--lambda", "0",
        "--event", "conservatism", "--b", "0.5", "--n", "20", "--trials", "200", "--seed", "1", "--out", str(out),
    ]
    assert main(args) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert row[0] == "varreg" and row[7] == ""


def test_loglogn_schedule_with_a_coefficient_runs(tmp_path):
    argv = ["simulate", "--dist", "pareto:2.5:1", "--estimator", "kl", "--lambda-schedule", "loglogn:2"]
    assert main(argv + ["--n", "20", "--trials", "5", "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 0


SIMULATE = ["simulate", "--dist", "point:1", "--trials", "3", "--estimator"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SIMULATE, "kl", "--lambda-schedule", "power:1:2", "--n", "5"], "beta in (0, 1)"),
        ([*SIMULATE, "mean", "--n", "0"], "--n must be"),
        (["rates", "--variance-ratio", "--dist", "bern:0.5:2"], "--variance-ratio requires"),
        (["rates", "--cramer", "--dist", "bern:0.5:2"], "--cramer requires"),
        (["simulate", "--dist", "point:1", "--estimator", "mean", "--n", "5"], "required: --trials"),
        ([*SIMULATE, "kl", "--lambda-schedule", "logn:nan", "--n", "5"], "schedule coefficient must be positive"),
        ([*SIMULATE, "kl", "--lambda-schedule", "power:nan:0.5", "--n", "5"], "schedule coefficient must be positive"),
        ([*SIMULATE, "trunc", "--A", "nan", "--lambda", "3", "--n", "5"], "moment bound A must be positive"),
        ([*SIMULATE, "mean", "--event", "conservatism", "--b", "nan", "--n", "5"], "b must be positive"),
        (["rates", "--cramer", "--dist", "pareto:2.5:1", "--b", "nan"], "b must be non-negative"),
        (["rates", "--variance-ratio", "--dist", "pareto:1.5:1", "--r-grid", "nan"], "radii must be positive"),
        ([*SIMULATE, "mean", "--event", "conservatism", "--b", "inf", "--n", "5"], "b must be positive and finite"),
        ([*SIMULATE, "trunc", "--A", "inf", "--lambda", "3", "--n", "5"], "moment bound A must be positive and finite"),
        ([*SIMULATE, "kl", "--r", "inf", "--n", "5"], "radius r must be non-negative and finite"),
        ([*SIMULATE, "kl", "--lambda", "inf", "--n", "5"], "lambda must be non-negative and finite"),
        ([*SIMULATE, "kl", "--lambda-schedule", "logn:inf", "--n", "5"], "coefficient must be positive and finite"),
        ([*SIMULATE, "mean", "--delta", "inf", "--n", "5"], "delta must be non-negative and finite"),
        (["rates", "--cramer", "--dist", "pareto:2.5:1", "--b", "inf"], "b must be non-negative and finite"),
        (["rates", "--from-csv", "pts.csv", "--cramer", "--dist", "bern:0.5:2", "--b", "0.5"], "not allowed with"),
        (["rates", "--cramer", "--variance-ratio", "--dist", "pareto:1.5:1", "--r-grid", "0.01", "--b", "0.5"],
         "not allowed with"),
        (["rates", "--from-csv", "pts.csv", "--dist", "pareto:2.5:1"], "rates --from-csv does not take --dist"),
        (["rates", "--cramer", "--dist", "bern:0.5:2", "--b", "0.5", "--axis", "log-log"], "does not take --axis"),
        ([*SIMULATE, "mean", "--b", "0.5", "--n", "5"], "--event disappointment does not take --b"),
        (["simulate", "--dist", "pareto:x:1", "--estimator", "mean", "--n", "5", "--trials", "3"],
         "error: invalid distribution 'pareto:x:1': "),
        (["simulate", "--dist", "cauchy:x", "--estimator", "mean", "--n", "5", "--trials", "3"],
         "error: cannot parse distribution 'cauchy:x'"),
        (["simulate", "--dist", "pareto:2.5:1:", "--estimator", "mean", "--n", "5", "--trials", "3"],
         "error: cannot parse distribution 'pareto:2.5:1:'"),
        ([*SIMULATE, "mean", "--n", "10,x"], "error: --n must be a comma-separated list of positive integers, not '10,x'"),
        (["rates", "--variance-ratio", "--dist", "pareto:1.5:1", "--r-grid", "1e-2,x"],
         "error: --r-grid must be a comma-separated list of radii, not '1e-2,x'"),
        ([*SIMULATE, "kl", "--lambda-schedule", "logn:x", "--n", "5"], "error: invalid schedule 'logn:x': "),
        ([*SIMULATE, "kl", "--lambda-schedule", "power:1", "--n", "5"], "error: cannot parse schedule 'power:1'"),
        (["rates", "--from-csv", "one-n.csv"], "at 2 or more distinct n, got 3 at 1"),
        (["rates", "--variance-ratio", "--dist", "uniform:0:1", "--r-grid", "1e-305"],
         "error: radius 1e-305 has no population dual point"),
        (["rates", "--variance-ratio", "--dist", "bern:0.5:2", "--r-grid", "1e-305"],
         "error: radius 1e-305 has no population dual point"),
        (["rates", "--variance-ratio", "--dist", "pareto:1.0001:1", "--r-grid", "1e-200"],
         "error: radius 1e-200 has no population dual point"),
        (["rates", "--variance-ratio", "--dist", "bern:1e-300:2", "--r-grid", "1e-2"],
         "error: radius 0.01 has no population dual point"),
    ],
    ids=[
        "power-beta",
        "n-zero",
        "variance-ratio-no-grid",
        "cramer-no-b",
        "argparse-missing-trials",
        "logn-schedule-nan",
        "power-schedule-nan",
        "trunc-A-nan",
        "conservatism-b-nan",
        "cramer-b-nan",
        "variance-ratio-r-nan",
        "conservatism-b-inf",
        "trunc-A-inf",
        "kl-r-inf",
        "kl-lambda-inf",
        "logn-schedule-inf",
        "mean-delta-inf",
        "cramer-b-inf",
        "rates-from-csv-and-cramer",
        "rates-cramer-and-variance-ratio",
        "rates-from-csv-reads-no-dist",
        "rates-cramer-reads-no-axis",
        "disappointment-b",
        "dist-non-numeric-parameter",
        "dist-unknown-name-non-numeric",
        "dist-trailing-colon",
        "n-non-numeric-item",
        "r-grid-non-numeric-item",
        "schedule-non-numeric-coefficient",
        "schedule-missing-beta",
        "rates-from-csv-one-n",
        "variance-ratio-uniform-below-the-bracket",
        "variance-ratio-bernoulli-below-the-bracket",
        "variance-ratio-pareto-below-the-bracket",
        "variance-ratio-bernoulli-nan-at-the-bracket-end",
    ],
)
def test_missing_or_invalid_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one-n.csv").write_text("n,p_hat\n100,0.1\n100,0.01\n100,0.001\n")  # three points at one n
    assert main(argv) == 2
    assert message in capsys.readouterr().err
