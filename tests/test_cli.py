"""End-to-end checks of the command line interface via main(argv)."""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from sunint import cli, haar_mc, largen
from sunint.cli import main
from sunint.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------- coeffs

def test_coeffs_shifted_table_json(capsys):
    code, payload = run_json(capsys, "coeffs", "--family", "su-shifted",
                             "--n", "2")
    assert code == 0
    assert payload["family"] == "su-shifted"
    entries = {e["partition"]: e["value"] for e in payload["entries"]}
    assert entries == {"1^2": "(N + 1)/N", "2^1": "-1/N"}


def test_coeffs_default_method_weingarten(capsys):
    code, payload = run_json(capsys, "coeffs", "--family", "weingarten",
                             "--n", "1")
    assert code == 0
    assert payload["entries"] == [{"partition": "1^1", "value": "1/N"}]


def test_coeffs_recursion_agrees_with_default(capsys):
    _, by_char = run_json(capsys, "coeffs", "--family", "weingarten",
                          "--n", "3")
    _, by_rec = run_json(capsys, "coeffs", "--family", "weingarten",
                         "--n", "3", "--method", "recursion")
    assert by_char == by_rec


def test_coeffs_csv_and_latex(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "weingarten",
                       "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,value"
    assert "1^2,1/(N^2 - 1)" in lines

    code, out, _ = run(capsys, "coeffs", "--family", "su-shifted",
                       "--n", "2", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{array}")
    assert r"[2^1] & \frac{-1}{N} \\" in out
    # a polynomial entry prints bare, with no fraction
    assert run(capsys, "coeffs", "--family", "su-shifted", "--n", "1",
               "--format", "latex") == (
        0, "\\begin{array}{ll}\n[1^1] & 1 \\\\\n\\end{array}\n", "")


def test_coeffs_method_family_mismatch(capsys):
    code, out, err = run(capsys, "coeffs", "--family", "weingarten",
                         "--n", "2", "--method", "shift")
    assert code == 2
    assert out == ""
    assert "does not apply" in err


def test_coeffs_weight_out_of_range(capsys):
    code, _, _ = run(capsys, "coeffs", "--family", "weingarten", "--n", "0")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- largen

def test_largen_wd_order_3(capsys):
    code, payload = run_json(capsys, "largen", "wd", "--order", "3")
    assert code == 0
    assert payload["method"] == "closed"
    got = {(t["grade"], t["partition"]): t["coefficient"]
           for t in payload["terms"]}
    assert got == {
        (1, "1^1"): "1",
        (2, "1^2"): "1/2", (2, "2^1"): "-1/2",
        (3, "1^3"): "1/3", (3, "1^1 2^1"): "-1", (3, "3^1"): "2/3",
    }
    assert all(t["kappa_power"] == t["grade"] for t in payload["terms"])


def test_largen_ww_order_2(capsys):
    code, payload = run_json(capsys, "largen", "ww", "--order", "2")
    assert code == 0
    assert payload["trace_symbol"] == "tau"
    got = {(t["grade"], t["partition"]): t["coefficient"]
           for t in payload["terms"]}
    assert got == {(1, "1^1"): "1", (2, "1^2"): "1/2", (2, "2^1"): "-1/2"}
    assert all(t["kappa_power"] == 2 * t["grade"] for t in payload["terms"])


def test_largen_latex_text(capsys):
    wd = [r"\tilde\kappa^{1} \cdot 1 \, t_1",
          r"\tilde\kappa^{2} \cdot \frac{1}{2} \, t_1^{2}",
          r"\tilde\kappa^{2} \cdot -\frac{1}{2} \, t_2",
          r"\tilde\kappa^{3} \cdot \frac{1}{3} \, t_1^{3}",
          r"\tilde\kappa^{3} \cdot -1 \, t_1 t_2",
          r"\tilde\kappa^{3} \cdot \frac{2}{3} \, t_3"]
    ww = [r"\tilde\kappa^{2} \cdot 1 \, \tau_1",
          r"\tilde\kappa^{4} \cdot \frac{1}{2} \, \tau_1^{2}",
          r"\tilde\kappa^{4} \cdot -\frac{1}{2} \, \tau_2"]
    assert run(capsys, "largen", "wd", "--order", "3", "--format",
               "latex") == (0, "\n".join(wd) + "\n", "")
    assert run(capsys, "largen", "ww", "--order", "2", "--format",
               "latex") == (0, "\n".join(ww) + "\n", "")


def _closed_with_one_term_changed(order):
    series = largen.shifted_free_energy_closed(order)
    terms = dict(series.terms)
    terms[(2, Partition.from_string("2^1"))] = Fraction(1, 2)
    return largen.TraceSeries(order, terms)


def test_largen_compare_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(largen, "shifted_free_energy_fixedpoint",
                        _closed_with_one_term_changed)
    code, payload = run_json(capsys, "largen", "wd", "--order", "3",
                             "--compare")
    assert code == 1
    assert payload["compare"] == {
        "methods": ["fixedpoint", "finite-n"],
        "identical": False,
        "mismatches": [{"method": "fixedpoint", "grade": 2,
                        "partition": "2^1", "expected": "-1/2",
                        "got": "1/2"}]}
    # in latex the series is printed as usual and only the status reports
    _, latex, _ = run(capsys, "largen", "wd", "--order", "3",
                      "--format", "latex")
    assert run(capsys, "largen", "wd", "--order", "3", "--compare",
               "--format", "latex") == (1, latex, "")


def test_largen_compare_routes_identical(capsys):
    code, payload = run_json(capsys, "largen", "wd", "--order", "4",
                             "--compare")
    assert code == 0
    assert payload["compare"]["identical"] is True
    assert set(payload["compare"]["methods"]) == {"fixedpoint", "finite-n"}
    assert payload["compare"]["mismatches"] == []


def test_largen_finite_n_order_cap(capsys):
    code, out, err = run(capsys, "largen", "wd", "--order", "5",
                         "--method", "finite-n")
    assert code == 2
    assert "order <= 4" in err


def test_largen_order_caps(capsys):
    # every route ends in bounded time: past its cap the CLI exits 2
    for argv, cap in ((("wd",), 38), (("ww",), 38),
                      (("wd", "--method", "fixedpoint"), 27),
                      (("wd", "--compare"), 27),
                      (("wd", "--method", "closed", "--compare"), 27)):
        code, out, err = run(capsys, "largen", *argv, "--order",
                             str(cap + 1))
        assert code == 2, argv
        assert out == ""
        assert "order <= %d" % cap in err, argv
    code, out, err = run(capsys, "largen", "wd", "--order", "100000")
    assert code == 2 and "order <= 38" in err


def test_largen_compare_below_finite_n_cap(capsys):
    # above order 4 the finite-N route drops out of --compare silently
    code, payload = run_json(capsys, "largen", "wd", "--order", "5",
                             "--compare")
    assert code == 0
    assert payload["compare"]["methods"] == ["fixedpoint"]
    assert payload["compare"]["identical"] is True


def test_largen_ww_rejects_compare(capsys):
    code, _, _ = run(capsys, "largen", "ww", "--order", "2", "--compare")
    assert code == 2


# -------------------------------------------------------------------- mc

def test_mc_charge_mismatch_sector(capsys):
    code, payload = run_json(capsys, "mc", "--p", "2", "--n", "1",
                             "--N", "3", "--samples", "2000",
                             "--seed", "11")
    assert code == 0
    assert payload["sector"] == "charge-mismatch"
    assert payload["exact"] == [0.0, 0.0]
    assert payload["comparison"]["pass"] is True


def test_mc_balanced_with_matrices_file(capsys, tmp_path):
    eye = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "src.json"
    path.write_text(json.dumps({"N": 2, "J": eye, "K": eye}))
    code, payload = run_json(capsys, "mc", "--p", "1", "--n", "1",
                             "--N", "2", "--group", "unitary",
                             "--samples", "4000", "--seed", "5",
                             "--matrices", str(path))
    assert code == 0
    assert payload["sector"] == "balanced"
    # tr(U) tr(U-dagger) averages to exactly 1 on U(2)
    assert payload["exact"] == [1.0, 0.0]
    assert payload["comparison"]["pass"] is True


def test_mc_matrices_dimension_mismatch(capsys, tmp_path):
    eye = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "src.json"
    path.write_text(json.dumps({"N": 2, "J": eye, "K": eye}))
    code, _, err = run(capsys, "mc", "--p", "1", "--n", "1", "--N", "3",
                       "--samples", "2000", "--matrices", str(path))
    assert code == 2
    assert "N=2" in err


# Every branch of the (group, p, n, N) sector rule, as mc reports it.  The
# exact values are pinned as printed, so a change to the sector dispatch or
# to the table-weighted sums shows here bit for bit.
@pytest.mark.parametrize("group, p, n, dim, sector, exact", [
    ("unitary", 2, 1, 3, "unbalanced", [0.0, 0.0]),
    ("special-unitary", 2, 1, 3, "charge-mismatch", [0.0, 0.0]),
    ("special-unitary", 0, 0, 3, "balanced", [1.0, 0.0]),
    ("unitary", 0, 0, 2, "balanced", [1.0, 0.0]),
    ("special-unitary", 1, 1, 3, "balanced",
     [0.09605459414849252, -0.18359445629574903]),
    ("unitary", 2, 2, 3, "balanced",
     [-0.042755854749760805, -0.03484492624799758]),
    ("special-unitary", 3, 3, 3, "balanced",
     [-0.0017171716096663556, -0.0325570453189751]),
    ("unitary", 3, 3, 3, "balanced",
     [-0.0017171716096663556, -0.0325570453189751]),
    ("special-unitary", 9, 9, 10, "balanced", None),
    ("special-unitary", 3, 0, 3, "shifted",
     [-0.028863103971991672, 0.39375673173055853]),
    ("special-unitary", 4, 1, 3, "shifted",
     [0.2085573580109028, 0.1293637468210834]),
    ("special-unitary", 5, 2, 3, "shifted",
     [0.10360132297384726, -0.08918268414974188]),
    ("special-unitary", 6, 0, 3, "outside-range", None),
    ("special-unitary", 0, 3, 3, "outside-range", None),
    ("special-unitary", 6, 3, 3, "shifted",
     [0.01806947344597823, -0.04434262964733511]),
    ("special-unitary", 19, 9, 10, "shifted", None),
])
def test_mc_sector_table(capsys, group, p, n, dim, sector, exact):
    code, payload = run_json(capsys, "mc", "--p", str(p), "--n", str(n),
                             "--N", str(dim), "--group", group,
                             "--samples", "200")
    assert code == 0
    assert payload["sector"] == sector
    assert payload["exact"] == exact
    assert (payload["comparison"] is None) == (exact is None)


def test_sector_is_the_charge_rule():
    # five labels, read off the group and the charge p - n: a weight with no
    # implemented value (above MAX_WEIGHT) keeps the label of the one below
    labels = {"unbalanced", "charge-mismatch", "balanced", "shifted",
              "outside-range"}
    seen = set()
    for group in ("unitary", "special-unitary"):
        for dim in range(1, 6):
            for p in range(13):
                for n in range(13):
                    seen.add(cli._sector(group, p, n, dim))
            for charge in range(-cli.MAX_WEIGHT, 13):
                at_cap, above = (cli._sector(group, w + charge, w, dim)
                                 for w in (cli.MAX_WEIGHT, cli.MAX_WEIGHT + 1))
                assert at_cap == above, (group, dim, charge)
    assert seen == labels


EYE2 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _nested(dim):
    """The row-of-rows layout of the dim x dim identity (not accepted)."""
    return [[[float(i == j), 0.0] for j in range(dim)] for i in range(dim)]


FLAT = "flat list of N*N [re, im] pairs"
NEED_N = "source matrices need N as an integer >= 1"


@pytest.mark.parametrize("dim, text, message", [
    (2, json.dumps({"N": 2, "J": [["1", "0"]] + EYE2[1:], "K": EYE2}), ""),
    (2, json.dumps({"J": EYE2, "K": EYE2}), ""),
    (2, json.dumps([2, EYE2, EYE2]), ""),
    (2, json.dumps({"N": 2, "J": [[float("nan"), 0.0]] + EYE2[1:],
                    "K": EYE2}), ""),
    (2, json.dumps({"N": 2, "J": [[1.0, 0.0, 0.0]] + EYE2[1:], "K": EYE2}),
     FLAT),
    (1, json.dumps({"N": 1, "J": _nested(1), "K": _nested(1)}), FLAT),
    (3, json.dumps({"N": 3, "J": _nested(3), "K": _nested(3)}), FLAT),
    (2, json.dumps({"N": -2, "J": EYE2, "K": EYE2}), NEED_N),
    (1, json.dumps({"N": 0, "J": [], "K": []}), NEED_N),
    (2, json.dumps({"N": 2.5, "J": EYE2, "K": EYE2}), NEED_N),
    (2, json.dumps({"N": "2", "J": EYE2, "K": EYE2}), NEED_N),
    (1, json.dumps({"N": True, "J": [[1.0, 0.0]], "K": [[1.0, 0.0]]}),
     NEED_N),
    (1, json.dumps({"N": 1, "J": [[True, False]], "K": [[1, 0]]}),
     "entries as [re, im] numbers"),
    (1, json.dumps({"N": 1, "J": [[10 ** 400, 0]], "K": [[1, 0]]}),
     "entries as [re, im] numbers"),
    # deeper than json.load can recurse: a RecursionError, not a traceback
    (2, "[" * 100_000 + "]" * 100_000,
     "source matrices must be an object with N, J and K"),
    # a valid file padded one byte past the cap: refused before parsing
    (2, json.dumps({"N": 2, "J": EYE2, "K": EYE2}).ljust(
        haar_mc._MAX_MATRICES_BYTES + 1), "matrices file is over"),
], ids=["string-entry", "missing-N", "top-level-list", "nan-entry",
        "wrong-arity", "nested-N1", "nested-N3", "negative-N", "zero-N",
        "float-N", "string-N", "bool-N", "bool-entry", "huge-int-entry",
        "deep-nesting", "over-size-cap"])
def test_mc_malformed_matrices_exit_2(capsys, tmp_path, dim, text, message):
    path = tmp_path / "src.json"
    path.write_text(text)
    code, out, err = run(capsys, "mc", "--p", "1", "--n", "1",
                         "--N", str(dim), "--samples", "200",
                         "--matrices", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_mc_output_deterministic(capsys):
    args = ("mc", "--p", "1", "--n", "1", "--N", "2", "--samples", "2000",
            "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------- tensor

def test_tensor_balanced_pair(capsys):
    code, payload = run_json(capsys, "tensor", "--N", "3",
                             "--u", "1:1", "--udagger", "1:1")
    assert code == 0
    assert payload["sector"] == "balanced"
    assert payload["exact"] == "1/3"


def test_tensor_epsilon_sector_signs(capsys):
    code, payload = run_json(capsys, "tensor", "--N", "2",
                             "--u", "1:1,2:2")
    assert code == 0
    assert payload["sector"] == "epsilon"
    assert payload["exact"] == "1/2"

    _, payload = run_json(capsys, "tensor", "--N", "2", "--u", "1:2,2:1")
    assert payload["exact"] == "-1/2"


def test_tensor_charge_mismatch_is_zero(capsys):
    code, payload = run_json(capsys, "tensor", "--N", "3", "--u", "1:1")
    assert code == 0
    assert payload["sector"] == "charge-mismatch"
    assert payload["exact"] == "0"


def test_tensor_unbalanced_unitary_is_zero(capsys):
    code, payload = run_json(capsys, "tensor", "--N", "3", "--u", "1:1",
                             "--group", "unitary")
    assert code == 0
    assert payload["sector"] == "unbalanced"
    assert payload["exact"] == "0"


def test_tensor_u11_moment_law(capsys):
    # E |U_11|^(2n) = 1 / C(N + n - 1, n) at every weight, n >= N included
    for dim in range(1, 5):
        for n in range(1, 7):
            pairs = ",".join(["1:1"] * n)
            code, payload = run_json(capsys, "tensor", "--N", str(dim),
                                     "--u", pairs, "--udagger", pairs,
                                     "--group", "unitary")
            assert code == 0
            assert payload["sector"] == "balanced"
            assert payload["exact"] == str(Fraction(1, comb(dim + n - 1, n)))


@pytest.mark.parametrize("group, u, udagger, dim, sector, exact", [
    ("unitary", "1:1", "", 3, "unbalanced", "0"),
    ("special-unitary", "1:1", "", 3, "charge-mismatch", "0"),
    ("special-unitary", "1:1", "1:1", 3, "balanced", "1/3"),
    ("special-unitary", "", "", 2, "balanced", "1"),
    ("unitary", "", "", 1, "balanced", "1"),
    ("unitary", "1:2,2:1", "2:1,1:2", 3, "balanced", "1/8"),
    ("special-unitary", "1:1,2:2", "1:1,2:2", 2, "balanced", "1/3"),
    ("unitary", "1:1,2:2", "1:1,2:2", 2, "balanced", "1/3"),
    ("special-unitary", "1:2,2:1", "", 2, "epsilon", "-1/2"),
    ("special-unitary", "1:1,2:2,3:3", "", 3, "epsilon", "1/6"),
    ("special-unitary", "1:1,2:2,1:1", "1:1", 2, "shifted", None),
    ("special-unitary", "1:1,1:1", "", 1, "outside-range", None),
    ("special-unitary", "", "1:1,2:2", 2, "outside-range", None),
])
def test_tensor_sector_table(capsys, group, u, udagger, dim, sector, exact):
    code, payload = run_json(capsys, "tensor", "--N", str(dim), "--u", u,
                             "--udagger", udagger, "--group", group)
    assert code == 0
    assert payload["sector"] == sector
    assert payload["exact"] == exact


def test_tensor_mc_cross_check(capsys):
    code, payload = run_json(capsys, "tensor", "--N", "2",
                             "--u", "1:1", "--udagger", "1:1",
                             "--mc-samples", "3000", "--seed", "4")
    assert code == 0
    assert payload["exact"] == "1/2"
    assert payload["comparison"]["pass"] is True


def _pairs(rows, cols):
    return ",".join("%d:%d" % pair for pair in zip(rows, cols))


def _perm_sign(perm):
    inversions = sum(a > b for x, a in enumerate(perm) for b in perm[x + 1:])
    return (-1) ** inversions


@pytest.mark.parametrize("dim", [7, 8, 128])
def test_tensor_epsilon_above_the_weight_cap(capsys, dim):
    # the epsilon integral has p = N factors of U and no U-dagger, so the
    # cap on U-dagger factors does not bound it
    rows = list(range(dim, 0, -1))
    cols = [2, 1] + list(range(3, dim + 1))
    code, payload = run_json(capsys, "tensor", "--N", str(dim),
                             "--u", _pairs(rows, cols))
    assert code == 0
    assert payload["sector"] == "epsilon"
    expected = Fraction(_perm_sign(rows) * _perm_sign(cols), factorial(dim))
    assert payload["exact"] == str(expected)


@pytest.mark.parametrize("dim, u, udagger", [
    (10, 9, 9),
    (10, 0, 9),
    (7, 9, 0),
    (129, 129, 0),
], ids=["udagger-9", "udagger-9-alone", "u-9-at-N7", "u-129-at-N129"])
def test_tensor_factor_caps_exit_2(capsys, monkeypatch, dim, u, udagger):
    def integrate_anyway(*args):
        raise AssertionError("integrated past a factor cap")

    # the refusal comes before the double coset is enumerated
    monkeypatch.setattr(cli, "monomial_integral", integrate_anyway)
    code, out, err = run(capsys, "tensor", "--N", str(dim), "--group",
                         "unitary", "--u", _pairs([1] * u, [1] * u),
                         "--udagger", _pairs([1] * udagger, [1] * udagger))
    assert code == 2
    assert out == ""
    assert err.startswith("error: at most 8 U-dagger factors and ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("mc", "--p", "1", "--n", "1", "--N", "0", "--samples", "200"),
    ("mc", "--p", "0", "--n", "0", "--N", "-1", "--samples", "200"),
    ("tensor", "--N", "0"),
    ("tensor", "--N", "-2", "--u", "1:1"),
])
def test_dimension_below_1_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--N must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("--N", "3", "--u", "5:5", "--udagger", "5:5", "--group", "unitary"),
    ("--N", "2", "--u", "1:3,2:1"),
    ("--N", "2", "--u", "1:1", "--udagger", "0:1"),
])
def test_tensor_index_outside_range_exits_2(capsys, argv):
    code, out, err = run(capsys, "tensor", *argv)
    assert code == 2
    assert out == ""
    assert "indices must be in 1.." in err


@pytest.mark.parametrize("sigmas", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ("mc", "--p", "1", "--n", "1", "--N", "3", "--samples", "200"),
    ("tensor", "--N", "2", "--u", "1:1", "--udagger", "1:1",
     "--mc-samples", "200"),
], ids=["mc", "tensor"])
def test_bad_sigmas_exit_2_before_sampling(capsys, monkeypatch, argv,
                                           sigmas):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled despite a bad --sigmas")

    monkeypatch.setattr(haar_mc, "estimate_trace_moment", no_sampling)
    monkeypatch.setattr(haar_mc, "estimate_monomial", no_sampling)
    code, out, err = run(capsys, *argv, "--sigmas", sigmas)
    assert code == 2
    assert out == ""
    assert err == "error: --sigmas must be finite and > 0\n"


@pytest.mark.parametrize("argv", [
    ("mc", "--p", "1", "--n", "1", "--N", "3",
     "--samples", str(cli._MAX_SAMPLED_ENTRIES // 9 + 1)),
    ("mc", "--p", "1", "--n", "1", "--N", "3", "--samples", "100000000000"),
    ("mc", "--p", "1", "--n", "1", "--N", str(cli._MAX_SAMPLED_N + 1),
     "--samples", "1"),
    ("mc", "--p", "1", "--n", "1", "--N", "128",
     "--samples", str(cli._MAX_SAMPLED_ENTRIES // 128 ** 2 + 1)),
    ("tensor", "--N", "2", "--u", "1:1", "--udagger", "1:1",
     "--mc-samples", str(cli._MAX_SAMPLED_ENTRIES // 4 + 1)),
    ("tensor", "--N", str(cli._MAX_SAMPLED_N + 1), "--u", "1:1",
     "--udagger", "1:1", "--mc-samples", "1"),
    ("verify", "--suite", "mc",
     "--samples", str(cli._MAX_SAMPLED_ENTRIES // 9 + 1)),
    ("verify", "--samples", "100000000000"),
    ("verify", "--suite", "mc",
     "--samples", str(cli._MAX_SAMPLED_ENTRIES // 71 + 1)),
], ids=["mc-samples", "mc-1e11", "mc-N", "mc-samples-N128",
        "tensor-samples", "tensor-N", "verify-mc", "verify-all",
        "verify-mc-suite-total"])
def test_sampling_above_cap_exits_2_before_sampling(capsys, monkeypatch,
                                                    argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled above the cap")

    for name in ("estimate_trace_moment", "estimate_monomial",
                 "random_source_matrices"):
        monkeypatch.setattr(haar_mc, name, no_sampling)
    monkeypatch.setattr(cli, "_suite_tables", no_sampling)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sampling_at_cap_is_admitted(capsys, monkeypatch):
    calls = []

    def fake_estimate(*args, samples, seed):
        calls.append(samples)
        raise ValueError("stop")

    monkeypatch.setattr(haar_mc, "estimate_trace_moment", fake_estimate)
    cap = cli._MAX_SAMPLED_ENTRIES // cli._MAX_SAMPLED_N ** 2
    code, _, err = run(capsys, "mc", "--p", "1", "--n", "1",
                       "--N", str(cli._MAX_SAMPLED_N), "--samples", str(cap))
    assert calls == [cap]
    assert (code, err.splitlines()[-1]) == (2, "error: stop")


def test_verify_mc_sampling_bound_counts_the_whole_suite(capsys,
                                                        monkeypatch):
    # seven trace moments on SU(3) and two bare pairs on SU(2): 7*9 + 2*4
    assert cli._SUITE_MC_ENTRIES == 71
    calls = []

    def fake_estimate(*args, samples, seed):
        calls.append(samples)
        raise ValueError("stop")

    monkeypatch.setattr(haar_mc, "estimate_trace_moment", fake_estimate)
    cap = cli._MAX_SAMPLED_ENTRIES // 71
    code, out, err = run(capsys, "verify", "--suite", "mc",
                         "--samples", str(cap))
    assert calls == [cap]
    assert (code, err.splitlines()[-1]) == (2, "error: stop")


@pytest.mark.parametrize("argv, message", [
    (("mc", "--p", "1", "--n", "1", "--N", "3", "--samples", "0"),
     "need at least 100 samples"),
    (("tensor", "--N", "2", "--u", "1:1", "--udagger", "1:1",
      "--mc-samples", "99"), "need at least 100 samples"),
    (("verify", "--suite", "all", "--samples", "50"),
     "need at least 100 samples"),
    (("verify", "--suite", "mc", "--seed", "-1"),
     "seed must satisfy 0 <= seed < 2**63"),
], ids=["mc-samples", "tensor-samples", "verify-all-samples",
        "verify-mc-seed"])
def test_sample_and_seed_refusals_come_before_any_work(capsys, argv,
                                                       message):
    # one stderr line: no progress line and no suite ran before the refusal
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, line", [
    (("coeffs", "--family", "weingarten", "--n", "2", "--method", "shift"),
     "method 'shift' does not apply to family 'weingarten'"),
    (("coeffs", "--family", "su-shifted", "--n", "9", "--method",
      "character"),
     "method 'character' does not apply to family 'su-shifted'"),
    (("coeffs", "--family", "weingarten", "--n", "0"), "--n must be in 1..8"),
    (("coeffs", "--family", "su-shifted", "--n", "9"), "--n must be in 1..8"),
    (("largen", "wd", "--order", "0"), "--order must be >= 1"),
    (("largen", "ww", "--order", "0", "--method", "fixedpoint"),
     "--order must be >= 1"),
    (("largen", "ww", "--order", "2", "--method", "finite-n"),
     "target 'ww' supports only --method closed"),
    (("largen", "ww", "--order", "2", "--compare"),
     "--compare applies to target 'wd' only"),
    (("largen", "ww", "--order", "39", "--compare"),
     "--compare applies to target 'wd' only"),
    (("largen", "wd", "--order", "28", "--method", "fixedpoint"),
     "--method fixedpoint supports --order <= 27"),
    (("largen", "wd", "--order", "28", "--compare"),
     "--compare runs --method fixedpoint, which supports --order <= 27"),
    (("mc", "--p", "-1", "--n", "1", "--N", "3"),
     "--p and --n must be >= 0"),
    (("mc", "--p", "1", "--n", "1", "--N", "3", "--samples", "200",
      "--matrices", "{matrices}"), "matrices file has N=2, not 3"),
    (("tensor", "--N", "2", "--u", "1-1"),
     "index lists look like '1:2,3:1'"),
    (("tensor", "--N", "0", "--udagger", "1:x"),
     "index lists look like '1:2,3:1'"),
], ids=["coeffs-method", "coeffs-method-before-n", "coeffs-n0", "coeffs-n9",
        "largen-order0", "largen-order-first", "largen-ww-method",
        "largen-ww-compare", "largen-ww-compare-before-cap",
        "largen-cap", "largen-compare-cap", "mc-negative-p",
        "mc-matrices-N", "tensor-syntax", "tensor-syntax-before-N"])
def test_refusal_table(capsys, tmp_path, argv, line):
    # each refusal is exactly one stderr line, in the order the checks run
    path = tmp_path / "src.json"
    path.write_text(json.dumps({"N": 2, "J": EYE2, "K": EYE2}))
    argv = [arg.format(matrices=path) for arg in argv]
    assert run(capsys, *argv) == (2, "", "error: %s\n" % line)


@pytest.mark.parametrize("p", ["1000", "5000"])
def test_mc_overflowing_moment_exits_2(capsys, p):
    # |tr KU|^p leaves double range: at p = 1000 the batch moments are
    # finite but the merge overflows, at p = 5000 the samples are inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "mc", "--p", p, "--n", "0", "--N", "2",
                             "--group", "unitary", "--samples", "200")
    assert (code, out) == (2, "")
    assert "RuntimeWarning" not in err
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("p", ["160", "200"])
def test_mc_first_batch_mean_is_not_squared(capsys, tmp_path, p):
    # every SU(1) sample of (tr KU)^p with K = 10 is 10^p.  At p = 160 the
    # mean is finite and only squaring it (a merge term of weight zero for
    # the first batch) would overflow; at p = 200 the batch's own second
    # moment overflows, so the call is refused
    path = tmp_path / "src.json"
    path.write_text(json.dumps({"N": 1, "J": [[1, 0]], "K": [[10, 0]]}))
    code, out, err = run(capsys, "mc", "--p", p, "--n", "0", "--N", "1",
                         "--samples", "100", "--matrices", str(path))
    if p == "200":
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "error: estimate is not finite: sampled values overflow double "
            "precision")
        return
    assert code == 0
    payload = json.loads(out)
    assert payload["sector"] == "outside-range"
    assert payload["estimate"]["mean"][0] == pytest.approx(1e160, rel=1e-12)
    assert payload["estimate"]["stderr_real"] == 0.0


def test_mc_su1_shifted_passes_despite_rounding(capsys):
    # every SU(1) sample is the identity, so the estimate equals det K up to
    # rounding and its stderr is rounding too; that is not a deviation
    code, payload = run_json(capsys, "mc", "--p", "1", "--n", "0",
                             "--N", "1", "--samples", "100")
    assert payload["sector"] == "shifted"
    assert payload["comparison"]["pass"] is True
    assert code == 0


def test_tensor_bad_index_syntax(capsys):
    code, _, err = run(capsys, "tensor", "--N", "2", "--u", "1-1")
    assert code == 2


# ---------------------------------------------------------------- verify

def test_verify_tables_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert payload["pass"] is True
    names = [c["name"] for c in payload["suites"]["tables"]["checks"]]
    assert "weingarten n=4 vs packaged" in names
    assert "su-shifted n=5 dual route" in names
    assert "weingarten n=7 dual route" in names
    assert "su-shifted n=7 dual route" in names
    assert "weingarten n=8 dual route" in names
    assert "su-shifted n=8 dual route" in names


def test_verify_tables_suite_fails_on_a_missing_packaged_entry(
        capsys, monkeypatch):
    from sunint import reference
    whole = reference.reference_table

    def one_entry_short(family, n):
        table = whole(family, n)
        if (family, n) == ("weingarten", 3):
            del table[Partition.from_string("1^3")]
        return table

    monkeypatch.setattr(reference, "reference_table", one_entry_short)
    code, payload = run_json(capsys, "verify", "--suite", "tables")
    assert code == 1 and payload["pass"] is False
    failed = [c["name"] for c in payload["suites"]["tables"]["checks"]
              if not c["pass"]]
    assert failed == ["weingarten n=3 vs packaged"]


def test_verify_largen_suite_fails_when_a_route_differs(capsys, monkeypatch):
    monkeypatch.setattr(largen, "shifted_free_energy_fixedpoint",
                        _closed_with_one_term_changed)
    code, payload = run_json(capsys, "verify", "--suite", "largen")
    assert code == 1 and payload["pass"] is False
    failed = [c["name"] for c in payload["suites"]["largen"]["checks"]
              if not c["pass"]]
    assert failed == ["wd closed == fixedpoint to order 8"]


def test_verify_shift_suite_fails_on_a_row_that_is_not_ok(capsys,
                                                         monkeypatch):
    from sunint import su_shifted
    whole = su_shifted.check_shift_identity

    def one_row_off(n):
        rows = whole(n)
        if n == 3:
            rows[-1] = dict(rows[-1], ok=False)
        return rows

    monkeypatch.setattr(su_shifted, "check_shift_identity", one_row_off)
    code, payload = run_json(capsys, "verify", "--suite", "shift")
    assert code == 1 and payload["pass"] is False
    failed = [c["name"] for c in payload["suites"]["shift"]["checks"]
              if not c["pass"]]
    assert failed == ["shift identity n=3"]


def test_verify_shift_and_largen_suites(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "shift")
    assert code == 0 and payload["pass"] is True
    code, payload = run_json(capsys, "verify", "--suite", "largen")
    assert code == 0 and payload["pass"] is True


def test_verify_mc_suite_small(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "mc",
                             "--samples", "3000", "--seed", "2")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["suites"]["mc"]["checks"]) == 9


def test_exact_cli_outputs_match_goldens(capsys):
    # the sha256 of stdout for each exact CLI call pinned by the benchmark
    goldens_path = Path(__file__).resolve().parents[1] / "bench/goldens.json"
    goldens = json.loads(goldens_path.read_text())
    assert len(goldens) == 17
    differ = []
    for call, want in sorted(goldens.items()):
        code, out, _ = run(capsys, *call.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != want:
            differ.append(call)
    assert differ == []


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "coeffs", "--family", "weingarten",
                       "--n", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["entries"][0]["value"] == "1/N"


# ------------------------------------------------------------ numpy-free

def _fresh_python(script: str, *args: str) -> dict:
    """Run script in a new interpreter that imports this sunint, and
    return the JSON object it prints last."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_CLI_MAIN = """
import contextlib, io, json, sys
argvs, block_numpy = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if block_numpy:
    sys.modules["numpy"] = None  # from here on every numpy import raises
from sunint import cli
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "numpy" and module is not None]
submodules = sorted(name.partition(".")[2] for name in sys.modules
                    if name.startswith("sunint."))
print(json.dumps({"codes": codes, "numpy": loaded, "sunint": submodules}))
"""


def test_exact_commands_run_with_numpy_blocked():
    calls = [
        ["coeffs", "--family", "weingarten", "--n", "4"],
        ["coeffs", "--family", "su-shifted", "--n", "3",
         "--method", "recursion"],
        ["largen", "wd", "--order", "4", "--compare"],
        ["largen", "ww", "--order", "3"],
        ["tensor", "--N", "3", "--u", "1:1,2:2", "--udagger", "1:1,2:2"],
        ["tensor", "--N", "2", "--u", "1:1,2:2"],
        ["verify", "--suite", "tables"],
        ["verify", "--suite", "shift"],
        ["verify", "--suite", "largen"],
    ]
    # refusals take the same raise path through main, which loads no numpy
    refusals = [
        ["coeffs", "--family", "weingarten", "--n", "9"],
        ["largen", "ww", "--order", "39"],
        ["tensor", "--N", "3", "--u", "5:5", "--group", "unitary"],
    ]
    facts = _fresh_python(_CLI_MAIN, json.dumps(calls + refusals), "true")
    assert facts["codes"] == [0] * len(calls) + [2] * len(refusals)
    assert facts["numpy"] == []


# cli, and weingarten with the two modules it imports, load on every command
_EVERY_COMMAND = ["cli", "exactmath", "partitions", "weingarten"]


@pytest.mark.parametrize("argv, more", [
    (["coeffs", "--family", "weingarten", "--n", "4"], ["su_shifted"]),
    (["largen", "wd", "--order", "4", "--compare"],
     ["largen", "su_shifted"]),
    (["tensor", "--N", "3", "--u", "1:1,2:2", "--udagger", "1:1,2:2"], []),
    (["tensor", "--N", "2", "--u", "1:1,2:2"], ["su_shifted"]),
    (["tensor", "--N", "2", "--u", "1:1", "--udagger", "1:1",
      "--mc-samples", "200"], ["haar_mc"]),
    (["mc", "--p", "1", "--n", "1", "--N", "3", "--samples", "200"],
     ["haar_mc"]),
    # reference reads its JSON through the sunint.data package
    (["verify", "--suite", "tables"], ["data", "reference", "su_shifted"]),
    (["verify", "--suite", "shift"], ["su_shifted"]),
    (["verify", "--suite", "largen"], ["largen", "su_shifted"]),
    (["verify", "--suite", "mc", "--samples", "200"],
     ["haar_mc", "su_shifted"]),
    (["verify", "--suite", "all", "--samples", "200"],
     ["data", "haar_mc", "largen", "reference", "su_shifted"]),
], ids=lambda v: "-".join(v).replace("--", "") or "none")
def test_each_command_loads_only_its_modules(argv, more):
    # numpy stays blocked for every command that does not sample
    facts = _fresh_python(_CLI_MAIN, json.dumps([argv]),
                          json.dumps("haar_mc" not in more))
    assert facts["codes"] == [0]
    assert facts["sunint"] == sorted(_EVERY_COMMAND + more)


_LAZY_PACKAGE = """
import importlib, json, sys
import sunint
facts = {"submodules": [name for name in sys.modules
                        if name.startswith("sunint.")]}
sunint.Partition
facts["after_partition"] = sorted(name for name in sys.modules
                                  if name.startswith("sunint."))
facts["numpy_before_numeric_name"] = "numpy" in sys.modules
from sunint import estimate_trace_moment
facts["numpy_after_numeric_name"] = "numpy" in sys.modules
facts["unresolved"] = [name for name in sunint.__all__
                       if not hasattr(sunint, name)]
facts["not_home_object"] = [
    name for home, names in sunint._EXPORTS.items() for name in names
    if getattr(sunint, name)
    is not getattr(importlib.import_module("sunint." + home), name)]
facts["uncached"] = [name for name in sunint.__all__
                     if name not in vars(sunint)]
star = {}
exec("from sunint import *", star)
facts["unbound_by_star"] = [name for name in sunint.__all__
                            if name not in star]
facts["all_in_dir"] = set(sunint.__all__) <= set(dir(sunint))
facts["listed_once"] = (sum(map(len, sunint._EXPORTS.values()))
                        == len(sunint.__all__))
try:
    sunint.no_such_name
    facts["unknown_raises"] = False
except AttributeError:
    facts["unknown_raises"] = True
print(json.dumps(facts))
"""


def test_import_sunint_loads_numpy_on_first_numeric_name():
    assert _fresh_python(_LAZY_PACKAGE) == {
        "submodules": [],
        "after_partition": ["sunint.exactmath", "sunint.partitions"],
        "numpy_before_numeric_name": False,
        "numpy_after_numeric_name": True,
        "unresolved": [], "not_home_object": [], "uncached": [],
        "unbound_by_star": [], "all_in_dir": True, "listed_once": True,
        "unknown_raises": True}
