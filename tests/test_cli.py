"""Command-line surface: formats, manifests, exit codes, reproducibility."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclat
from fraclat import Sequence, delta, format_sequence, heat_semigroup, sup_dist
from fraclat import cli
from fraclat.cli import main
from fraclat.kernel import MAX_ORDER


def _data_rows(path):
    """CSV data rows (comments stripped), as raw strings."""
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


def _run_python(args):
    """Run a fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _run_cli(argv):
    return _run_python(["-W", "default", "-m", "fraclat.cli", *argv])


def _as_sequence(rows):
    pairs = [row.split(",") for row in rows[1:]]
    ns = [int(n) for n, _ in pairs]
    vals = np.zeros(max(ns) - min(ns) + 1)
    for n, v in pairs:
        vals[int(n) - min(ns)] = float(v)
    return Sequence(min(ns), vals)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_dump(tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    rc = main(["kernel", "--s", "0.5", "--radius", "64", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "A_s = 1.2732395447" in stdout
    rows = _data_rows(out)
    assert rows[0] == "k,K_s_k"
    assert rows[1] == "0,0.0"
    assert len(rows) == 66


def test_kernel_integer_order_rows_vanish(tmp_path):
    out = tmp_path / "k1.csv"
    assert main(["kernel", "--s", "1", "--radius", "8", "--out", str(out)]) == 0
    rows = _data_rows(out)
    for row in rows[3:]:  # k >= 2
        assert row.endswith(",0.0")


def test_kernel_invalid_order_exits_2(tmp_path):
    assert main(["kernel", "--s", "-1", "--radius", "8", "--out", str(tmp_path / "x")]) == 2


def test_kernel_tiny_order(tmp_path):
    # s > 0 has no lower cutoff: K_s(k) ~ s / k and A_s ~ 1
    out = tmp_path / "k.csv"
    assert main(["kernel", "--s", "1e-10", "--radius", "8", "--out", str(out)]) == 0
    values = [float(row.split(",")[1]) for row in _data_rows(out)[1:]]
    assert values[0] == 0.0
    assert all(0.0 < v < 1e-9 for v in values[1:])


_HUGE = 10**15  # beyond any address space: an allocation would fail at once


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--s", "0.5", "--radius", str(_HUGE)],
        ["apply", "--s", "0.5", "--radius", str(_HUGE)],
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", str(_HUGE)],
        ["evolve", "--s", "0.5", "--t", "1", "--dt", "0.1", "--window", str(_HUGE)],
        ["kernel", "--s", "0.5", "--radius", str(cli._MAX_SIZE + 1)],
    ],
    ids=["kernel", "apply", "localize", "evolve", "kernel-limit"],
)
def test_huge_size_exits_2_before_allocating(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    flag, value = argv[-2:]
    assert f"{flag} {value} exceeds the size limit {cli._MAX_SIZE}" in capsys.readouterr().err
    assert not out.exists()


# a small run, should the limit let the seeds through
_SMALL_LOCALIZE = ["localize", "--s", "0.5", "--c", "1", "--window", "16"]
_SMALL_LOCALIZE += ["--kernel-radius", "4", "--depth", "1"]


@pytest.mark.parametrize(
    "argv, flag, limit",
    [
        (_SMALL_LOCALIZE + ["--seeds", f"1..{_HUGE}"], "--seeds", cli._MAX_SEEDS),
        (_SMALL_LOCALIZE + ["--seeds", f"0,1..{cli._MAX_SEEDS}"], "--seeds", cli._MAX_SEEDS),
    ],
    ids=["seeds", "seeds-limit"],
)
def test_huge_count_exits_2_before_allocating(argv, flag, limit, tmp_path, capsys):
    # checked before the seed range is expanded
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and str(limit) in err
    assert not out.exists()


def test_kernel_rerun_reproduces_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["kernel", "--s", "0.75", "--radius", "32", "--out", str(a)])
    main(["kernel", "--s", "0.75", "--radius", "32", "--out", str(b)])
    assert _data_rows(a) == _data_rows(b)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_binomial_stencil(tmp_path):
    out = tmp_path / "apply.csv"
    rc = main(["apply", "--s", "2", "--path", "binomial", "--out", str(out)])
    assert rc == 0
    rows = _data_rows(out)
    assert rows == ["n,value", "-2,1.0", "-1,-4.0", "0,6.0", "1,-4.0", "2,1.0"]


def test_apply_series_on_file_input(tmp_path):
    seq_file = tmp_path / "u.txt"
    seq_file.write_text(format_sequence(delta(0)), encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main(
        ["apply", "--s", "0.5", "--radius", "64", "--input", str(seq_file), "--out", str(out)]
    )
    assert rc == 0
    result = _as_sequence(_data_rows(out))
    assert result.at(0) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_apply_quadrature_agrees_with_series(tmp_path):
    a, b = tmp_path / "ser.csv", tmp_path / "quad.csv"
    assert main(["apply", "--s", "0.5", "--radius", "16", "--path", "series", "--out", str(a)]) == 0
    assert main(["apply", "--s", "0.5", "--radius", "16", "--path", "quadrature", "--out", str(b)]) == 0
    assert sup_dist(_as_sequence(_data_rows(a)), _as_sequence(_data_rows(b))) < 1e-6


def test_apply_composed_path_exits_2(tmp_path, capsys):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--s", "2", "--path", "composed", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'composed'" in capsys.readouterr().err
    assert not out.exists()


def test_apply_quadrature_custom_scheme(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(
        [
            "apply",
            "--s",
            "0.5",
            "--radius",
            "12",
            "--path",
            "quadrature",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    got = _as_sequence(_data_rows(out))
    assert got.at(0) == pytest.approx(4.0 / math.pi, abs=1e-6)


def test_apply_quadrature_next_to_integer_exits_2(tmp_path):
    # the oracle integrates against 1/Gamma(-sigma), so it refuses orders
    # within NEAR_INTEGER_TOL of an integer: one usage line, no traceback
    out = tmp_path / "q.csv"
    done = _run_cli(["apply", "--s", "2.0000000001", "--path", "quadrature", "--out", str(out)])
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: path 'quadrature' requires a non-integer order"]
    assert not out.exists()


# A_s, and so C(2m, m), leaves the doubles past kernel.MAX_ORDER (about
# 514.66); each of these exited 1 ("math range error", or "int too large to
# convert to float" for evolve) before the order had a ceiling
@pytest.mark.parametrize(
    "argv, s",
    [
        (["apply", "--path", "binomial"], "1e9"),
        (["apply", "--path", "quadrature"], "1000000000.5"),
        (["apply", "--path", "binomial"], "520"),
        (["kernel", "--radius", "600"], "520.5"),
        (["evolve", "--window", "4", "--t", "0.01", "--dt", "0.01"], "1.7976931348623157e308"),
    ],
    ids=["binomial-1e9", "quadrature-1000000000.5", "binomial-520", "kernel-520.5", "evolve"],
)
def test_order_past_the_ceiling_exits_2_naming_s(tmp_path, argv, s):
    out = tmp_path / "x.csv"
    done = _run_cli([*argv, f"--s={s}", "--out", str(out)])
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: --s: order must be at most {MAX_ORDER!r}, where the kernel sum A_s"
        f" leaves the doubles, got {float(s)!r}"
    ]
    assert not out.exists()


def test_apply_budget_exceeded_exits_3(tmp_path):
    rc = main(
        [
            "apply",
            "--s",
            "0.5",
            "--radius",
            "16",
            "--budget",
            "1e-12",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 3


def test_apply_parse_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n2.0\n", encoding="utf-8")
    rc = main(["apply", "--s", "0.5", "--input", str(bad), "--out", str(tmp_path / "y.csv")])
    assert rc == 2


def test_apply_quadrature_overflow_exits_1(tmp_path, capsys):
    # the two rules overflow to inf, so their drift is NaN, which no tolerance test passes
    big = tmp_path / "big.txt"
    big.write_text(format_sequence(Sequence(0, np.array([1e308, -1e308, 1e308]))), encoding="utf-8")
    out = tmp_path / "q.csv"
    argv = ["apply", "--s", "0.5", "--path", "quadrature", "--radius", "4", "--input", str(big)]
    assert main(argv + ["--out", str(out)]) == 1
    assert "differ by nan" in capsys.readouterr().err
    assert not out.exists()


def test_apply_quadrature_overflow_prints_one_message(tmp_path):
    # numpy's overflow warnings stay silent; stderr holds the failure alone
    big = tmp_path / "big.txt"
    big.write_text(format_sequence(Sequence(0, np.array([1e308, -1e308, 1e308]))), encoding="utf-8")
    argv = ["apply", "--s", "0.5", "--path", "quadrature", "--radius", "4", "--input", str(big)]
    done = _run_cli(argv + ["--out", str(tmp_path / "q.csv")])
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "numerical failure: the 65- and 129-node rules differ by nan (limit 1e-6)"
    ]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_quick(capsys):
    import time

    t0 = time.perf_counter()
    rc = main(["validate", "--level", "quick"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert elapsed < 30.0
    assert "PASS" in out and "FAIL" not in out
    assert "convention in use" in out
    assert "identity" in out


def test_validate_detects_tampered_gamma(monkeypatch):
    # a non-uniform perturbation of Gamma must trip the partial-sum identity
    import fraclat.checks
    import fraclat.kernel

    real = fraclat.kernel.gamma
    monkeypatch.setattr(
        fraclat.kernel, "gamma", lambda z: real(z) * (1.0 + 1e-6 * z)
    )
    result = fraclat.checks._check_partial_sum()
    assert not result.passed


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_parity_and_determinism(tmp_path, capsys):
    args = [
        "localize",
        "--s",
        "1",
        "--c",
        "0",
        "--seeds",
        "1,2",
        "--window",
        "32",
        "--kernel-radius",
        "4",
        "--depth",
        "3",
        "--probes",
        "odd",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    rows = _data_rows(a)
    assert rows[0] == "seed,probe_id,depth,residual"
    assert len(rows) == 1 + 2 * 3
    for row in rows[1:]:
        assert float(row.split(",")[-1]) == pytest.approx(1.0, abs=1e-10)
    assert _data_rows(a) == _data_rows(b)
    summary = capsys.readouterr().out
    assert "probe_id,depth,mean,min,max" in summary


def test_localize_seed_range_shape(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "localize",
            "--s",
            "0.5",
            "--c",
            "1",
            "--seeds",
            "1..4",
            "--window",
            "48",
            "--kernel-radius",
            "12",
            "--depth",
            "2",
            "--probes",
            "odd,delta:0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert len(_data_rows(out)) == 1 + 4 * 2 * 2


def test_localize_bad_probe_exits_2(tmp_path):
    rc = main(
        [
            "localize",
            "--s",
            "0.5",
            "--c",
            "0",
            "--seeds",
            "1",
            "--probes",
            "sideways",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2


def test_localize_empty_probe_list_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1..3", "--window", "64"]
        + ["--depth", "4", "--probes", ",", "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()
    assert "probes must name at least one probe" in capsys.readouterr().err


def test_localize_nan_amplitude_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["localize", "--s", "0.5", "--c", "nan", "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_localize_nan_residual_tol_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", "16"]
        + ["--kernel-radius", "4", "--depth", "2", "--residual-tol", "nan", "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()
    assert "residual_tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "1", "-1"])
def test_localize_residual_tol_outside_unit_interval_exits_2(tmp_path, capsys, tol):
    # a tolerance >= 1 stops the orbit before delta_0 and every residual reads 1
    out = tmp_path / "x.csv"
    rc = main(
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", "16"]
        + ["--kernel-radius", "4", "--depth", "2", "--residual-tol", tol, "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()
    assert "residual_tol" in capsys.readouterr().err


def test_localize_kernel_radius_below_table_minimum_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", "16"]
        + ["--kernel-radius", "1", "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()
    assert "radius 1 too small" in capsys.readouterr().err


def test_localize_depth_beyond_window_exits_2(tmp_path, capsys):
    # a window of radius 16 holds at most 33 orthonormal directions
    out = tmp_path / "x.csv"
    rc = main(
        ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", "16"]
        + ["--kernel-radius", "4", "--depth", "34", "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()
    assert "depth 34 exceeds the 33 basis vectors" in capsys.readouterr().err


# the ids match those of the earlier (flag, environment variable) cases
@pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
def test_localize_bad_worker_count_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    args = ["localize", "--s", "0.5", "--c", "1", "--seeds", "1", "--window", "16"]
    args += ["--kernel-radius", "4", "--depth", "2", "--out", str(out), "--threads", flag]
    assert main(args) == 2
    assert not out.exists()
    want = f"worker count must be a positive integer, got {flag}"
    assert want in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_time_unchanged(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(
        ["evolve", "--s", "1", "--t", "0", "--dt", "0.1", "--out", str(out)]
    )
    assert rc == 0
    assert _data_rows(out) == ["n,value", "0,1.0"]


def test_evolve_matches_semigroup(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(
        [
            "evolve",
            "--s",
            "1",
            "--c",
            "0",
            "--sign",
            "minus",
            "--t",
            "1",
            "--dt",
            "0.005",
            "--window",
            "64",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    got = _as_sequence(_data_rows(out))
    want = heat_semigroup(delta(0), 1.0, 64)
    assert sup_dist(got, want) < 1e-6


def test_evolve_unstable_step_exits_3(tmp_path):
    rc = main(
        ["evolve", "--s", "1", "--t", "1", "--dt", "0.5", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--s", "0.5", "--t", "1", "--dt", "0.01", "--input", "BIG"],
        ["localize", "--s", "0.5", "--c", "1e308", "--seeds", "1"]
        + ["--window", "8", "--kernel-radius", "4"],
        ["apply", "--s", "2", "--path", "binomial", "--input", "BIG"],
    ],
    ids=["evolve-nan", "localize-overflow", "binomial-overflow"],
)
def test_overflow_exits_1_with_one_message(argv, tmp_path):
    # numpy raises on overflow and invalid operations, so no run writes inf or
    # nan, or a warning, and then exits 0
    big = tmp_path / "big.txt"
    big.write_text("offset 0\n1e308\n1e308\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = [str(big) if a == "BIG" else a for a in argv]
    done = _run_cli(argv + ["--out", str(out)])
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numerical failure: overflow")
    assert not out.exists()


def test_evolve_step_limit_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_STEPS", 99)
    out = tmp_path / "x.csv"
    rc = main(["evolve", "--s", "0.5", "--t", "1", "--dt", "0.01", "--out", str(out)])
    assert rc == 2
    assert "--t 1.0 / --dt 0.01 exceeds the step limit 99" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_subnormal_step_exits_2(tmp_path, capsys):
    # t / dt is inf, which the step limit rejects before round() would fail on it
    out = tmp_path / "x.csv"
    argv = ["evolve", "--s", "0.5", "--c", "1e308", "--t", "1", "--dt", "1e-310"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--t" in err and "--dt" in err and str(cli._MAX_STEPS) in err
    assert not out.exists()


def test_evolve_infinite_amplitude_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["evolve", "--s", "1", "--c", "inf", "--t", "1", "--dt", "0.01", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "times",
    [
        ("--t", "inf", "--dt", "0.01"),
        ("--t", "nan", "--dt", "0.01"),
        ("--t", "1", "--dt", "nan"),
        ("--t", "inf", "--dt", "0.01", "--snapshot-every", "0.5"),
    ],
)
def test_evolve_non_finite_time_exits_2(tmp_path, capsys, times):
    out = tmp_path / "x.csv"
    rc = main(["evolve", "--s", "0.5", "--window", "32", *times, "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("every", ["nan", "inf"])
def test_evolve_non_finite_snapshot_interval_exits_2(tmp_path, capsys, every):
    out = tmp_path / "x.csv"
    rc = main(
        ["evolve", "--s", "0.5", "--window", "32", "--t", "1", "--dt", "0.01"]
        + ["--snapshot-every", every, "--out", str(out)]
    )
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("every", ["0", "-1"])
def test_evolve_snapshot_interval_below_dt_exits_2(tmp_path, capsys, every):
    out = tmp_path / "x.csv"
    rc = main(
        ["evolve", "--s", "1", "--t", "1", "--dt", "0.01"]
        + ["--snapshot-every", every, "--out", str(out)]
    )
    assert rc == 2
    assert "snapshot interval must be at least dt" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evolve_zero_time_validates_dt(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["evolve", "--s", "1", "--t", "0", "--dt", "nan", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    rc = main(
        ["evolve", "--s", "1", "--t", "0", "--dt", "0.1", "--snapshot-every", "0.5"]
        + ["--out", str(out)]
    )
    assert rc == 0
    assert _data_rows(out) == ["n,value", "0,1.0"]


def test_evolve_small_window(tmp_path):
    # any window is valid: evolve has no kernel radius to fit inside it
    out = tmp_path / "e.csv"
    rc = main(["evolve", "--s", "0.5", "--t", "1", "--dt", "0.01", "--window", "16", "--out", str(out)])
    assert rc == 0
    assert len(_data_rows(out)) == 1 + 33


def _manifest_value(path, key):
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln.startswith(f"# {key} = ")]


def test_evolve_snapshots(tmp_path):
    argv = ["evolve", "--s", "1", "--t", "1", "--dt", "0.01", "--sign", "minus", "--window", "32"]
    out, direct = tmp_path / "e.csv", tmp_path / "direct.csv"
    assert main(argv + ["--snapshot-every", "0.25", "--out", str(out)]) == 0
    assert main(argv + ["--out", str(direct)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["direct.csv", "e.csv", "e.csv.t0.25.csv", "e.csv.t0.5.csv", "e.csv.t0.75.csv"]
    # one integration: snapshots leave the final rows and trunc_bound untouched
    assert _data_rows(out) == _data_rows(direct)
    assert _manifest_value(out, "trunc_bound") == _manifest_value(direct, "trunc_bound")


def test_evolve_snapshot_interval_below_the_snapped_step(tmp_path):
    # 0.5 / 0.12 rounds to 4 steps of h = 0.125 > every = 0.12, so checkpoint
    # j sits on step round(j * 0.96): steps 1, 2, 3, each written once
    argv = ["evolve", "--s", "0.5", "--t", "0.5", "--dt", "0.12", "--window", "16"]
    out, direct = tmp_path / "e.csv", tmp_path / "direct.csv"
    assert main(argv + ["--snapshot-every", "0.12", "--out", str(out)]) == 0
    assert main(argv + ["--out", str(direct)]) == 0
    snaps = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("e.csv.t"))
    assert snaps == ["e.csv.t0.125.csv", "e.csv.t0.25.csv", "e.csv.t0.375.csv"]
    for name, t in zip(snaps, (0.125, 0.25, 0.375)):
        assert _manifest_value(tmp_path / name, "snapshot_t") == [f"# snapshot_t = {t!r}"]
    assert _data_rows(out) == _data_rows(direct)


def test_snapshot_names_tell_distinct_steps_apart():
    assert [cli._snapshot_path("e.csv", t) for t in (0.2, 0.25, 0.5, 0.75)] == [
        "e.csv.t0.2.csv", "e.csv.t0.25.csv", "e.csv.t0.5.csv", "e.csv.t0.75.csv"
    ]  # fmt: skip
    times = [10000.0 + k * 0.01 for k in range(1, 4)]
    assert len({cli._snapshot_path("e.csv", t) for t in times}) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--s", "0.5", "--path", "series", "--radius", "2"],
        ["evolve", "--s", "0.5", "--t", "0.1", "--dt", "0.01", "--window", "8"],
    ],
    ids=["apply", "evolve"],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "inf.txt"
    bad.write_text("offset 0\ninf\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(argv + ["--input", str(bad), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _finite(lo, hi):
    """Finite doubles: ordinary ones in [lo, hi], so that runs reach the
    numerics, or any of either sign, subnormals and the largest included."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi),
        st.sampled_from([5e-324, 1e-300, 1e-10, 2.0000000001, 1e300, 1.7976931348623157e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@st.composite
def _small_command(draw):
    """argv of one small run: window <= 32, at most 500 steps and 2 seeds.

    Floats go in ``--flag=value`` form, so argparse takes -1e300 as a value.
    """
    command = draw(st.sampled_from(["kernel", "series", "binomial", "evolve", "localize"]))
    argv = [f"--s={draw(_finite(0.01, 30.0))!r}"]
    if command == "kernel":
        return ["kernel", *argv, "--radius", str(draw(st.integers(0, 32)))], False
    if command in ("series", "binomial"):
        return ["apply", *argv, "--path", command, "--radius", str(draw(st.integers(1, 32)))], True
    argv += [f"--c={draw(_finite(0.0, 10.0))!r}", "--window", str(draw(st.integers(1, 32)))]
    if command == "evolve":
        dt = draw(_finite(1e-4, 0.05))
        t = draw(st.integers(0, 500)) * dt
        sign = draw(st.sampled_from(["plus", "minus"]))
        return ["evolve", *argv, f"--t={t!r}", f"--dt={dt!r}", "--sign", sign], True
    seeds = draw(st.sampled_from(["1", "1,2"]))
    argv += ["--seeds", seeds, "--kernel-radius", str(draw(st.integers(1, 32)))]
    argv += ["--depth", str(draw(st.integers(1, 8))), "--probes", "odd,delta:1"]
    return ["localize", *argv], False


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_small_command(), st.lists(_finite(-1.0, 1.0), min_size=1, max_size=4))
def test_cli_extreme_values_exit_cleanly(command, values):
    # every run ends in a documented exit code, and no run that exits 0
    # writes nan or inf, whatever finite order, amplitude, step or input
    argv, takes_input = command
    with tempfile.TemporaryDirectory() as tmp:
        if takes_input:
            path = os.path.join(tmp, "u.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_sequence(Sequence(0, np.array(values))))
            argv = [*argv, "--input", path]
        out = os.path.join(tmp, "o.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([*argv, "--out", out])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if rc == 0:
            # the manifest also echoes the arguments, the default --budget inf among them
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            written = [ln for ln in lines if ln[2:].partition(" = ")[0] in _COMPUTED or ln[0] != "#"]
            assert not _NON_FINITE.search("\n".join([*written, stdout.getvalue()])), argv


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

# manifest keys that are not arguments: the tool version and computed values
_COMPUTED = {
    "version", "A_s", "tail_bound", "trunc_bound", "mass", "snapshot_t", "elapsed_seconds"
}


def _rerun_argv(command, path):
    """The argv that the ``# key = value`` argument lines of ``path`` record."""
    argv = [command]
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key, sep, value = line[2:].partition(" = ")
            if line.startswith("# ") and sep and key not in _COMPUTED and value != "None":
                argv += ["--" + key.replace("_", "-"), value]
    return argv


@pytest.mark.parametrize(
    "argv, suffixes",
    [
        (["kernel", "--s", "0.75", "--radius", "32"], [""]),
        (["apply", "--s", "0.5", "--radius", "16", "--path", "series"], [""]),
        (["apply", "--s", "0.5", "--path", "quadrature", "--radius", "8"], [""]),
        (
            ["localize", "--s", "0.5", "--c", "1", "--seeds", "1..2", "--window", "24"]
            + ["--kernel-radius", "4", "--depth", "3", "--probes", "odd,delta:1"],
            [""],
        ),
        (
            ["evolve", "--s", "0.5", "--c", "1", "--seed", "3", "--t", "0.5", "--dt", "0.01"]
            + ["--window", "24", "--input", "{u}"]
            + ["--snapshot-every", "0.2"],
            ["", ".t0.2.csv"],
        ),
    ],
    ids=["kernel", "apply-series", "apply-quadrature", "localize", "evolve"],
)
def test_manifest_reruns_to_the_same_rows(tmp_path, argv, suffixes):
    u = tmp_path / "u.txt"
    u.write_text(format_sequence(Sequence(-2, np.array([0.5, -1.0, 2.0]))), encoding="utf-8")
    argv = [str(u) if a == "{u}" else a for a in argv]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(argv + ["--out", str(first)]) == 0
    parser = cli._build_parser()
    for suffix in suffixes:
        path = f"{first}{suffix}"
        with open(path, "r", encoding="utf-8") as fh:
            assert sum(ln.startswith("# version") for ln in fh) == 1
        rerun = _rerun_argv(argv[0], path)
        # every parsed argument is recorded
        recorded = vars(parser.parse_args(rerun + ["--out", str(second)]))
        assert recorded == vars(parser.parse_args(argv + ["--out", str(second)]))
        assert main(rerun + ["--out", str(second)]) == 0
        assert _data_rows(f"{second}{suffix}") == _data_rows(path)


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    code = "import sys, fraclat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = _run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
