"""Figure presets, emitters, and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles as orc
from gillum import (CurveSet, NoiseModel, ScenarioParams, SweepConfig, hypothesis_pair,
                    make_thermal, make_tmsv, qcb, run_figure, to_csv, to_json, to_svg)
from gillum.emit import emit
from gillum.figures import _PRESETS, FIGURE_NAMES, ConfigError, NumericalError


# child interpreters find the checkout's package without an install
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def small(figure, **kw):
    kw.setdefault("points", 12)
    return run_figure(SweepConfig(figure=figure, **kw))


def test_fig1_labels_and_ordering():
    cs = small("fig1")
    assert list(cs.curves) == ["Coh", "OB", "nOB", "PC", "OPA", "DH"]
    assert np.all(cs.curves["OB"] >= cs.curves["nOB"] - 1e-9 * cs.curves["OB"])
    assert np.all(cs.curves["OB"] >= cs.curves["PC"] - 1e-9 * cs.curves["OB"])


def test_fig2_difference_curves():
    cs = small("fig2")
    assert list(cs.curves) == ["OB-Coh", "PC-Coh"]
    assert np.all(cs.curves["OB-Coh"] >= cs.curves["PC-Coh"] - 1e-9)


def test_fig2_gap_values_at_bright_signal():
    # a sweep whose first point sits exactly at N_S = 7
    cs = run_figure(SweepConfig(figure="fig2", points=2,
                                sweep_min=7.0, sweep_max=10.0))
    by = {label: y[0] for label, y in cs.curves.items()}
    assert abs(by["OB-Coh"] - 376.0) <= 37.6
    assert abs(by["PC-Coh"] - 185.0) <= 18.5


def test_fig3_nonconstant_bound_dominates():
    cs = small("fig3", points=8)
    for other in ("nOB", "PC", "OPA", "DH"):
        assert np.all(cs.curves["OB"] >= cs.curves[other] * (1 - 1e-9))


def test_fig4_coherent_outperforms_heterodyne_variants():
    cs = small("fig4", points=16)
    for label in ("dHTD after BS", "separate HTD", "HD product"):
        assert np.all(cs.curves["Coh&HD"] > cs.curves[label])


def test_fig5a_bound_attainment():
    cs = small("fig5a", points=10)
    for ns, ni in ((1, 1), (1, 2)):
        q = cs.curves[f"QCB N_S={ns:g} N_I={ni:g}"]
        o = cs.curves[f"O_off N_S={ns:g} N_I={ni:g}"]
        assert np.max(np.abs(o / q - 1)) <= 0.10


@pytest.mark.parametrize("model", list(NoiseModel))
@pytest.mark.parametrize("n_b,kappa", [(30.0, 0.01), (100.0, 0.1), (0.0, 0.01)])
def test_fig5a_qcb_columns_equal_one_stacked_qcb_sweep_per_curve(model, n_b, kappa):
    # the gate for computing fig5a as a stack: one qcb_sweep on the hypothesis
    # pair of one probe over the whole kappa axis gives each per-point QCB
    # column byte for byte, with no decomposition memoized between the two
    from gillum import hypothesis_pair, make_cct, qcb_sweep
    from gillum.chernoff import _decompose_bytes

    config = SweepConfig(figure="fig5a", n_b=n_b, kappa=kappa, points=25, noise=model)
    _decompose_bytes.cache_clear()
    curves = run_figure(config).curves
    for ns, ni in ((1.0, 1.0), (1.0, 2.0)):
        _decompose_bytes.cache_clear()
        stacked = qcb_sweep(hypothesis_pair(make_cct(ns, ni), config.params),
                            config.params.m_modes)
        assert stacked.exponent.tobytes() == curves[f"QCB N_S={ns:g} N_I={ni:g}"].tobytes()


def test_fig5b_coherent_bound_on_top():
    cs = small("fig5b", points=8)
    assert np.all(cs.curves["Coh QCB"] >= cs.curves["CCT QCB"] * (1 - 1e-9))


def test_s1_matches_closed_form():
    from gillum import ScenarioParams, optimal_beta_closed

    cs = small("s1", points=6)
    for x, y in zip(cs.x, cs.curves["|beta|"]):
        p = ScenarioParams(kappa=0.01, n_s=float(x), n_b=30.0)
        assert abs(y - optimal_beta_closed(p)) < 1e-12


@pytest.mark.parametrize("kappa,n_b", [(0.01, 30.0), (1e-3, 100.0)])
def test_s1_cells_are_correctly_rounded(kappa, n_b):
    # |beta| in 50-digit arithmetic from the unrationalized closed form
    # (1 + 2 N_S)/sqrt(kappa N_S (N_S+1)^3) [f - sqrt(f (f - kappa (N_S+1)))]
    mp = pytest.importorskip("mpmath")
    cs = run_figure(SweepConfig(figure="s1", kappa=kappa, n_b=n_b))
    rows = to_csv(cs).splitlines()[1:]
    eps = np.finfo(float).eps
    with mp.workdps(50):
        k, nb = mp.mpf(kappa), mp.mpf(n_b)
        for x, y, row in zip(cs.x, cs.curves["|beta|"], rows):
            ns = mp.mpf(float(x))
            f = 1 + ns + nb + 2 * ns * nb
            ref = (1 + 2 * ns) / mp.sqrt(k * ns * (ns + 1) ** 3) * (
                f - mp.sqrt(f * (f - k * (ns + 1))))
            assert abs(mp.mpf(float(y)) / ref - 1) <= 8 * eps, x
            cell = row.split(",")[1]
            assert cell == "{:.12g}".format(float(mp.nstr(ref, 12))), (x, cell)


BOUND_FORM_SCENARIOS = [(30.0, 0.01), (100.0, 0.1), (1.0, 1e-3), (3.7, 0.042)]


def _assert_bound_form_cells(figure, n_b, kappa, ob_weights, extra_refs=lambda p: {}):
    """Every bound-family cell of ``figure`` within 1e-13 of 50-digit mpmath.

    nOB, DH and OB (at ``ob_weights(p)``) are the bound observable at fixed
    weights; PC adds its conjugation vacuum noise (mu/nu)^2 N_S to both
    variances; OPA is the printed amplifier form.
    """
    pytest.importorskip("mpmath")
    from dataclasses import replace

    from gillum.receivers import OPA_GAIN, PC_MU, PC_NU

    config = SweepConfig(figure=figure, kappa=kappa, n_b=n_b)
    cs = run_figure(config)
    for k, x in enumerate(cs.x):
        p = replace(config.params, n_s=float(x))
        refs = {"nOB": orc.bound_snr_mp(p, 0, 0), "DH": orc.bound_snr_mp(p, -1, -1),
                "OB": orc.bound_snr_mp(p, *ob_weights(p)),
                "PC": orc.bound_snr_mp(p, 0, 0, extra_var=(PC_MU / PC_NU) ** 2 * p.n_s),
                "OPA": orc.opa_printed_snr_mp(p, OPA_GAIN), **extra_refs(p)}
        for label, ref in refs.items():
            assert abs(cs.curves[label][k] / ref - 1) <= 1e-13, (label, x)


@pytest.mark.parametrize("n_b,kappa", BOUND_FORM_SCENARIOS)
def test_fig4_engine_cells_match_mpmath(n_b, kappa):
    # the three moment-engine columns against stats' formula in 50-digit
    # mpmath on the scenario's TMSV pair (within 7e-16 when written); Coh&HD
    # is the homodyne closed form M 2 kappa N_S / (8 (N_B + 1/2))
    mp = pytest.importorskip("mpmath")
    from dataclasses import replace

    from gillum.figures import _HETERODYNE

    config = SweepConfig(figure="fig4", kappa=kappa, n_b=n_b, points=8)
    cs = run_figure(config)
    for k, x in enumerate(cs.x):
        p = replace(config.params, n_s=float(x))
        refs = {label: orc.tmsv_moment_snr_mp(obs, p) for label, obs in _HETERODYNE.items()}
        with mp.workdps(50):
            m, kap, ns, nb = (mp.mpf(v) for v in (p.m_modes, p.kappa, p.n_s, p.n_b))
            refs["Coh&HD"] = m * 2 * kap * ns / (8 * (nb + mp.mpf(0.5)))
        assert sorted(refs) == sorted(cs.curves)
        for label, ref in refs.items():
            assert abs(cs.curves[label][k] / ref - 1) <= 1e-12, (label, x)


@pytest.mark.parametrize("noise", list(NoiseModel))
def test_cct_qcb_cells_match_mpmath(noise):
    # fig5a's two QCB curves and fig5b's CCT QCB at four points each, against
    # the CCT bound written from the model in 40-digit mpmath: each unrounded
    # value within the search's own error estimate, 64 eps / xi relative at
    # per-copy exponent xi (12 oracle calls per noise model)
    pytest.importorskip("mpmath")
    from dataclasses import replace

    eps = np.finfo(float).eps
    for figure, probes in (("fig5a", {"QCB N_S=1 N_I=1": (1.0, 1.0),
                                      "QCB N_S=1 N_I=2": (1.0, 2.0)}),
                           ("fig5b", {"CCT QCB": None})):
        config = SweepConfig(figure=figure, noise=noise, points=25)
        cs = run_figure(config)
        for k in (0, 8, 16, 24):
            x = float(cs.x[k])
            for label, n_s_i in probes.items():
                n_s, n_i = n_s_i or (x, x)
                p = replace(config.params, n_s=n_s, n_i=n_i,
                            **({"kappa": x} if figure == "fig5a" else {}))
                ref = orc.cct_exponent_mp(p, p.m_modes)
                xi = ref / p.m_modes
                assert abs(cs.curves[label][k] / ref - 1) <= 64 * eps / xi, (figure, label, x)


@pytest.mark.parametrize("n_b,kappa", BOUND_FORM_SCENARIOS)
def test_fig1_bound_form_cells_match_mpmath(n_b, kappa):
    # OB at the closed-form idler weight; Coh is the coherent bound
    # M kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2
    mp = pytest.importorskip("mpmath")
    from gillum import optimal_beta_closed

    def coh(p):
        with mp.workdps(50):
            m, k, ns, nb = (mp.mpf(v) for v in (p.m_modes, p.kappa, p.n_s, p.n_b))
            return {"Coh": m * k * ns * (mp.sqrt(nb + 1) - mp.sqrt(nb)) ** 2}

    _assert_bound_form_cells("fig1", n_b, kappa, lambda p: (0, -optimal_beta_closed(p)), coh)


@pytest.mark.parametrize("n_b,kappa", BOUND_FORM_SCENARIOS)
def test_fig3_bound_form_cells_match_mpmath(n_b, kappa):
    # OB at the optimizer's weights; OPA's gap 2C - sqrt((G-1)/G) kappa
    # (N_B - N_S) crosses zero in the sweep at (100, 0.1), where OPA keeps
    # the fewest digits
    from gillum import optimize_alpha_beta_nonconstant

    _assert_bound_form_cells("fig3", n_b, kappa,
                             lambda p: optimize_alpha_beta_nonconstant(p)[:2])


# s2 cells that differ from the correctly rounded stationary point at 200
# points: (row, label), each unrounded value within the tolerance below
S2_MISROUNDED = {(30.0, 0.01): {(87, "beta")}, (1.0, 1e-3): {(36, "beta"), (150, "beta")}}


@pytest.mark.parametrize("n_b,kappa", BOUND_FORM_SCENARIOS)
def test_s2_weights_match_mpmath(n_b, kappa):
    # The printed weights against the 50-digit stationary point.  The Grams'
    # round-off bounds how well double precision fixes the weights: the worst
    # measured errors are 1.3e-13 at the defaults and 6.1e-13 at (100, 0.1),
    # so 1e-12 is that floor, not slack for the search.  A printed cell may
    # differ from the correctly rounded value only where the two straddle a
    # rounding boundary, and each such cell is listed in S2_MISROUNDED.
    mp = pytest.importorskip("mpmath")
    from dataclasses import replace

    config = SweepConfig(figure="s2", kappa=kappa, n_b=n_b)
    cs = run_figure(config)
    rows = to_csv(cs).splitlines()[1:]
    misrounded = set()
    for k, x in enumerate(cs.x):
        p = replace(config.params, n_s=float(x))
        refs = orc.optimal_weights_mp(p, cs.curves["alpha"][k], cs.curves["beta"][k])
        for label, ref, cell in zip(("alpha", "beta"), refs, rows[k].split(",")[1:]):
            assert abs(cs.curves[label][k] / ref - 1) <= 1e-12, (label, x)
            if cell != "{:.12g}".format(float(mp.nstr(ref, 12))):
                misrounded.add((k, label))
    assert misrounded == S2_MISROUNDED.get((n_b, kappa), set())


def test_s2_emits_optimizer_curves():
    cs = small("s2", points=5)
    assert list(cs.curves) == ["alpha", "beta"]
    assert np.all(cs.curves["alpha"] < 0)


def test_receiver_subset_selection():
    cs = small("fig1", receivers=("OB", "DH"))
    assert list(cs.curves) == ["OB", "DH"]
    with pytest.raises(ConfigError):
        small("fig1", receivers=("never-heard-of-it",))


@pytest.mark.parametrize("figure", FIGURE_NAMES)
def test_every_preset_draws_its_declared_labels_in_order(figure):
    *_, models, labels = _PRESETS[figure]
    for model in models:
        assert tuple(small(figure, points=3, noise=model).curves) == labels, model


def test_cli_refuses_an_unknown_receiver_before_the_row_runs(monkeypatch, capsys):
    # before: fig5a ran its whole per-point sweep, then exited 2
    from gillum import cli as climod
    import gillum.figures as figmod

    def row(params):
        raise AssertionError("the row ran")

    monkeypatch.setitem(figmod._PRESETS, "fig5a", (row, *figmod._PRESETS["fig5a"][1:]))
    assert climod.main(["figure", "fig5a", "--receivers", "QCB N_S=1 N_I=1,Nope"]) == 2
    assert "unknown receivers ['Nope']" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown receivers"):
        SweepConfig(figure="fig1", receivers=("OB", "CCT QCB"))


def test_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(figure="fig9")
    with pytest.raises(ConfigError):
        SweepConfig(figure="fig1", points=1)
    with pytest.raises(ConfigError):
        SweepConfig(figure="fig1", sweep_min=2.0, sweep_max=1.0)
    with pytest.raises(ConfigError):  # above the preset's default upper edge
        SweepConfig(figure="fig1", sweep_min=20.0)
    with pytest.raises(ConfigError):
        SweepConfig(figure="fig1", n_b=float("nan"))
    with pytest.raises(ConfigError):  # fig5a's kappa sweep would leave [0, 1]
        SweepConfig(figure="fig5a", sweep_max=2.0)
    assert SweepConfig(figure="fig1", points=np.int64(3)).params.n_s.size == 3


@pytest.mark.parametrize("overrides,message", [
    ({"figure": "fig1", "noise": "constant"}, r"noise must be a NoiseModel.*'constant'"),
    ({"figure": "fig2", "noise": "bogus"}, r"noise must be a NoiseModel.*'bogus'"),
    ({"figure": "fig1", "points": 2.5}, r"points must be a whole number.*2\.5"),
    ({"figure": "fig1", "points": "5"}, r"points must be a whole number.*'5'"),
    ({"figure": "fig1", "receivers": "OB"}, r"receivers must be a sequence of labels.*'OB'"),
    ({"figure": "fig1", "receivers": None}, r"receivers must be a sequence of labels.*None"),
], ids=["noise-value-string", "noise-bogus", "points-fraction", "points-string",
        "receivers-string", "receivers-none"])
def test_config_refuses_mistyped_values_by_name(overrides, message):
    # before: a self-contradicting noise message, NumPy's TypeError for
    # points, a bare string read letter by letter as receiver labels, and
    # receivers=None, which the label check would iterate
    with pytest.raises(ConfigError, match=message):
        SweepConfig(**overrides)


def _qcb_with_m(m_modes):
    pair = hypothesis_pair(make_tmsv(0.1), ScenarioParams(kappa=0.1, n_s=0.1, n_b=1.0))
    return qcb(pair, m_modes)


@pytest.mark.parametrize("call,error,message", [
    (lambda: SweepConfig("fig1", kappa="0.1"), ConfigError, r"kappa must be a real.*'0\.1'"),
    (lambda: SweepConfig("fig1", n_b="30"), ConfigError, r"n_b must be a real.*'30'"),
    (lambda: SweepConfig("fig1", m_modes="1e7"), ConfigError, r"m_modes must be a real.*'1e7'"),
    (lambda: SweepConfig("fig1", sweep_min="0.1"), ConfigError, r"sweep_min must be a real"),
    (lambda: SweepConfig("fig1", kappa=None), ConfigError, r"kappa must be a real.*None"),
    (lambda: SweepConfig("fig1", n_b=np.array([1.0, 2.0])), ConfigError, r"n_b must be a"),
    (lambda: ScenarioParams(kappa="0.1", n_s=0.1, n_b=1.0), ValueError,
     r"kappa must be a real.*'0\.1'"),
    (lambda: ScenarioParams(kappa=0.1, n_s=0.1, n_b=1.0, m_modes="7"), ValueError,
     r"m_modes must be a whole number.*'7'"),
    (lambda: make_thermal("1"), ValueError, r"n_mean must be a real.*'1'"),
    (lambda: make_tmsv(None), ValueError, r"n_s must be a real.*None"),
    (lambda: _qcb_with_m("5"), ValueError, r"m_modes must be a whole number.*'5'"),
], ids=["config-kappa", "config-n_b", "config-m_modes", "config-sweep_min", "config-kappa-none",
        "config-n_b-array", "params-kappa", "params-m_modes", "thermal", "tmsv", "qcb-m_modes"])
def test_mistyped_scenario_values_are_refused_by_name(call, error, message):
    # before: each comparison raised a bare TypeError ("'<=' not supported
    # ..."); an n_b array stays refused, since a figure has one background
    with pytest.raises(error, match=message):
        call()


def test_curveset_rejects_empty_and_nonfinite():
    x = np.array([1.0, 2.0])
    with pytest.raises(ConfigError):
        CurveSet("x", "y", x, {})
    with pytest.raises(ConfigError):
        CurveSet("x", "y", np.array([]), {"c": np.array([])})
    with pytest.raises(NumericalError, match="curve 'c' contains non-finite values"):
        CurveSet("x", "y", x, {"c": np.array([1.0, np.inf])})
    with pytest.raises(NumericalError):
        CurveSet("x", "y", np.array([1.0, np.nan]), {"c": np.array([1.0, 1.0])})
    with pytest.raises(ConfigError):
        CurveSet("x", "y", x[::-1], {"c": np.array([1.0, 1.0])})
    with pytest.raises(ConfigError):
        CurveSet("x", "y", x, {"c": np.array([1.0, 1.0, 1.0])})


def test_emit_rejects_before_writing(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(ConfigError):
        emit(small("fig2", points=4), "nope", str(target))
    assert not target.exists()


def test_csv_round_trip(tmp_path):
    cs = small("fig1", points=10)
    path = tmp_path / "fig1.csv"
    emit(cs, "csv", str(path))
    rows = path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[0] == "x"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    for k, (label, y) in enumerate(cs.curves.items()):
        assert header[k + 1] == label
        assert np.max(np.abs(data[:, 0] - cs.x) / np.abs(cs.x)) < 1e-10
        assert np.max(np.abs(data[:, k + 1] - y)
                      / np.maximum(np.abs(y), 1e-300)) < 1e-10


def test_json_mirrors_curves(tmp_path):
    cs = small("fig5b", points=5)
    path = tmp_path / "c.json"
    emit(cs, "json", str(path))
    payload = json.loads(path.read_text())
    assert payload["x_label"] == cs.x_label
    assert [c["label"] for c in payload["curves"]] == list(cs.curves)
    got = np.array(payload["curves"][0]["points"])
    assert np.max(np.abs(got[:, 1] - cs.curves["CCT QCB"])
                  / np.abs(cs.curves["CCT QCB"])) < 1e-10


def test_svg_structure():
    two_point = CurveSet("x", "y", np.array([1.0, 2.0]), {
        "a": np.array([0.5, 1.5]),
        "b": np.array([1.0, 2.0]),
    })
    svg = to_svg(two_point)
    assert svg.count("<polyline") == 2
    first = svg.split("<polyline")[1].split('points="')[1].split('"')[0]
    assert len(first.split()) == 2  # two coordinate pairs per curve
    assert "</svg>" in svg and "width=\"800\"" in svg and "height=\"600\"" in svg


@pytest.mark.parametrize("x,y,points", [
    ([0.3], [1.0], "70.00,526.36"),  # one point: a unit-wide x axis with one tick
    ([1.0, 2.0], [1.0, 1.0], "70.00,526.36 630.00,526.36"),  # constant: a unit-high y axis
])
def test_svg_of_a_degenerate_axis(x, y, points):
    svg = to_svg(CurveSet("x", "y", np.array(x), {"a": np.array(y)}))
    assert f'<polyline points="{points}"' in svg
    assert "nan" not in svg and "inf" not in svg


def test_svg_drops_x_ticks_that_round_outside_the_axis():
    # at x ~ 6e9 the tick k * step rounds 1e-6 below the first x, beyond the
    # 1e-9 tolerance: it is skipped, so every x tick lies on the plot's edge or inside
    svg = to_svg(CurveSet("x", "y", np.array([6186788384.648035, 6186788384.648063]),
                          {"a": np.array([0.0, 1.0])}))
    ticks = [float(line.split('"')[1]) for line in svg.splitlines()
             if line.startswith("<line x1=") and 'y1="550"' in line]
    assert ticks and all(70.0 <= xp <= 630.0 for xp in ticks)


def test_emitters_deterministic():
    a = small("fig4", points=10)
    b = small("fig4", points=10)
    assert to_csv(a) == to_csv(b)
    assert to_json(a) == to_json(b)
    assert to_svg(a) == to_svg(b)


def run_cli(*args):
    # as in the test run itself, a RuntimeWarning is an error
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "gillum.cli",
                           *args], capture_output=True, text=True, env=ENV)


def test_cli_csv_stdout():
    res = run_cli("figure", "fig2", "--points", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "x,OB-Coh,PC-Coh"
    assert len(lines) == 6


def test_cli_writes_files(tmp_path):
    out = tmp_path / "fig.svg"
    res = run_cli("figure", "s1", "--points", "4", "--format", "svg",
                  "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().startswith("<svg")


def test_cli_exit_codes(tmp_path):
    assert run_cli("figure", "fig1", "--points", "1").returncode == 2
    for figure in ("fig1", "s1"):
        assert run_cli("figure", figure, "--receivers", "XX",
                       "--points", "4").returncode == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense\n")
    assert run_cli("figure", "fig1", "--config", str(bad_cfg)).returncode == 2


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("points=4\nkappa=0.02\nformat=json\n")
    res = run_cli("figure", "s1", "--config", str(cfg))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert len(payload["curves"][0]["points"]) == 4
    # flags win over the file
    res2 = run_cli("figure", "s1", "--config", str(cfg), "--points", "3")
    assert len(json.loads(res2.stdout)["curves"][0]["points"]) == 3


def test_cli_parser_is_built_once_and_leaks_no_option(tmp_path, capsys):
    # main reuses one parser per process; every call's bytes equal those of a
    # call on a freshly built parser, whatever the calls before it set
    from gillum import cli

    cfg = tmp_path / "opts.cfg"
    cfg.write_text("points=3\nnb=5\nformat=json\n")
    calls = (
        ["figure", "fig1", "--points", "4", "--nb", "3", "--kappa", "0.1", "--format", "json"],
        ["figure", "fig1", "--points", "4"],
        ["figure", "fig2", "--config", str(cfg)],
        ["figure", "fig2", "--points", "3"],
        ["figure", "fig1", "--config", str(cfg), "--format", "csv", "--receivers", "DH,OB"],
        ["figure", "s1", "--points", "1"],  # exit 2
        ["figure", "fig1", "--points", "4", "--noise", "nonconstant"],
        ["figure", "fig1", "--points", "4"],
    )

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert reused[1] == reused[-1] and reused[0] != reused[1]
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 0]


@pytest.mark.parametrize("text,code,message", [
    ("# a comment\n\npoints=3\n", 0, ""),
    ("points=3\ncolour=red\n", 2, "error: unknown config key 'colour'\n"),
    ("points=three\n", 2, "error: bad value for 'points': 'three'\n"),
    ("nonsense\n", 2, "error: {path}:1: expected key=value, got 'nonsense'\n"),
    (None, 2, "error: cannot read config file {path}: "
              "[Errno 2] No such file or directory: '{path}'\n"),
])
def test_cli_config_file_lines(tmp_path, capsys, text, code, message):
    # text None: the config file does not exist
    from gillum import cli

    cfg = tmp_path / "opts.cfg"
    if text is not None:
        cfg.write_text(text)
    assert cli.main(["figure", "fig2", "--config", str(cfg)]) == code
    out = capsys.readouterr()
    assert out.err == message.format(path=cfg)
    assert len(out.out.splitlines()) == (4 if code == 0 else 0)  # header and 3 points


def test_cli_rejects_out_of_range_parameters():
    assert run_cli("figure", "fig1", "--kappa", "1.5",
                   "--points", "4").returncode == 2


def test_cli_rejects_noise_a_preset_ignores(capsys):
    from gillum import cli as climod

    # fig2, fig4 and s1 are defined for constant noise only, s2 for nonconstant
    for figure, other in (("fig2", "nonconstant"), ("fig4", "nonconstant"),
                          ("s1", "nonconstant"), ("s2", "constant")):
        assert climod.main(["figure", figure, "--noise", other, "--points", "3"]) == 2
    for figure, model in (("fig2", "constant"), ("s2", "nonconstant"),
                          ("fig1", "nonconstant"), ("fig3", "constant"),
                          ("fig5a", "nonconstant"), ("fig5b", "nonconstant")):
        assert climod.main(["figure", figure, "--noise", model, "--points", "3"]) == 0


def test_cli_rejects_bad_modes_instead_of_clamping(capsys):
    from gillum import cli as climod

    for modes in ("-3", "0", "0.5", "2.7", "nan", "inf"):
        assert climod.main(["figure", "fig1", "--modes", modes, "--points", "3"]) == 2
    capsys.readouterr()
    assert climod.main(["figure", "fig1", "--points", "3"]) == 0
    default = capsys.readouterr().out
    assert climod.main(["figure", "fig1", "--modes", "1e7", "--points", "3"]) == 0
    assert capsys.readouterr().out == default
    assert climod.main(["figure", "fig1", "--modes", "1", "--points", "3"]) == 0


@pytest.mark.parametrize("option, value", [("--nb", "nan"), ("--nb", "inf"),
                                           ("--ns-max", "inf")])
def test_cli_rejects_nonfinite_scenario(option, value):
    res = run_cli("figure", "fig1", option, value, "--points", "3")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stdout == ""


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "s1"])
def test_cli_rejects_constant_noise_unit_reflectance(figure, capsys):
    from gillum import cli as climod

    # every preset defined for constant noise, fig5a too although it sweeps kappa
    assert climod.main(["figure", figure, "--noise", "constant", "--kappa", "1",
                        "--points", "3"]) == 2
    assert "undefined at kappa = 1" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    from gillum import cli as climod

    def explode(config):
        raise NumericalError("synthetic non-finite sweep value")

    monkeypatch.setattr(climod, "run_figure", explode)
    assert climod.main(["figure", "fig1", "--points", "4"]) == 3


@pytest.mark.parametrize("figure, kappa", [("fig5b", "1e-8"), ("fig3", "1e-12")])
def test_cli_refuses_chernoff_bounds_below_double_resolution(figure, kappa):
    # per-copy exponents near 1e-14 leave Q_s within a few eps of 1: fig5b
    # printed a CCT QCB 1.052x the oracle, fig3 a Coh above OB
    res = run_cli("figure", figure, "--kappa", kappa)
    assert res.returncode == 3, res.stderr
    assert "double precision" in res.stderr and res.stdout == ""


def test_refused_coherent_bound_fails_before_the_optimizer(monkeypatch):
    # fig3's Coh column refuses kappa = 1e-12; it runs before OB, so the
    # optimizer never starts on a sweep that will be refused, and on a sweep
    # that passes it runs once for the whole sweep
    import gillum.figures as figmod

    calls = []
    optimize = figmod.optimize_alpha_beta_nonconstant
    monkeypatch.setattr(figmod, "optimize_alpha_beta_nonconstant",
                        lambda p: calls.append(p) or optimize(p))
    with pytest.raises(NumericalError, match="double precision"):
        run_figure(SweepConfig(figure="fig3", kappa=1e-12))
    assert calls == []
    assert list(small("fig3", points=3).curves) == ["Coh", "OB", "nOB", "PC", "OPA", "DH"]
    assert len(calls) == 1


@pytest.mark.parametrize("nb", [[], ["--nb", "0"]])
@pytest.mark.parametrize("figure, names", [(["fig5b"], ["CCT QCB", "Coh QCB"]),
                                           (["fig3", "--noise", "nonconstant"], ["Coh"])])
def test_cli_chernoff_columns_vanish_without_a_target(figure, names, nb):
    # at kappa = 0 the hypotheses are identical in every row of the sweep:
    # the Chernoff columns are 0 throughout, with no warning or refusal
    res = run_cli("figure", *figure, "--kappa", "0", *nb, "--points", "5")
    assert res.returncode == 0, res.stderr
    header, *rows = [line.split(",") for line in res.stdout.strip().split("\n")]
    columns = [header.index(name) for name in names]
    assert len(rows) == 5
    assert all(row[c] == "0" for row in rows for c in columns)


def test_cli_keeps_chernoff_bounds_at_the_benchmark_corner():
    # fig5b's weakest point in the benchmark's range: estimated error 1.7e-5
    res = run_cli("figure", "fig5b", "--kappa", "1e-3", "--nb", "100")
    assert res.returncode == 0, res.stderr


def test_cli_coherent_bound_where_q_underflows(tmp_path):
    # at N_S = 1e6 the coherent per-copy overlap underflows to 0; the closed
    # form's exponent stays finite, so the sweep succeeds
    from gillum import cli as climod

    out = tmp_path / "fig1.csv"
    assert climod.main(["figure", "fig1", "--kappa", "0.5", "--ns-max", "1e6",
                        "--out", str(out)]) == 0


def test_figure_run_does_not_import_scipy():
    # NumPy is the only runtime dependency; SciPy serves the tests alone
    code = ("import contextlib, io, sys, gillum, gillum.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = gillum.cli.main(['figure', 'fig5a', '--points', '2'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 []"


def test_json_equals_the_standard_encoder():
    from gillum.emit import _FMT

    x = np.logspace(-2, 1, 7)
    cs = CurveSet('x "quoted"', "back\\slash κ", x, {
        'say "hi"': np.sin(x) * 1e300,
        "a\\b é中 \U0001f600 \n\t": -np.exp(-x) * 1e-300,
        "plain": np.array([0.0, -0.0, 1.0, 123456789012345.0, 1e16, 3.0, 0.1])})
    payload = {
        "x_label": cs.x_label,
        "y_label": cs.y_label,
        "curves": [{"label": label,
                    "points": [[float(_FMT.format(a)), float(_FMT.format(b))]
                               for a, b in zip(cs.x, y)]} for label, y in cs.curves.items()],
    }
    assert to_json(cs) == json.dumps(payload, indent=2) + "\n"
