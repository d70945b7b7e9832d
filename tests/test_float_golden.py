"""Golden outputs of the value commands (bounds, collar, ypiece, corollary)
and of ``certify --families all``.

Each command's JSON output is compared exactly. JSON renders every float
at 17 significant digits, which round-trips binary64, so these pins hold
each value bit for bit: the float closed forms of corollary and of the
Hermite and Minkowski rows of bounds, the midpoints of the interval
enclosures that the other bounds rows, collar and ypiece print, and every
field of every certify row: slack ends, witnesses, counts and tail notes.
A refactor of them must leave every value here unchanged, not merely close.
The csv and table stdout of the same commands, and of minima and exclude on
the E8 fixture, are compared byte for byte with ``data/golden_text.json``.
"""

import json
from pathlib import Path

import pytest

from oracles import CERTIFY_ALL, CERTIFY_KEYS
from schottky_gauge import cli

_DATA = Path(__file__).resolve().parent / "data"

_BOUND_NAMES = (
    "thm_bs_upper", "thm_main_m1", "thm_main_m2", "systole_gamma1",
    "systole_gamma2", "hyperelliptic", "bavard", "hermite_lower",
    "hermite_upper", "minkowski_product_log",
)

_BOUNDS = {
    2: (1.7110042581561342, 1.791759469228055, 6.811396189742281,
        3.58351893845611, 6.591673732008659, 2.4382923105989276,
        3.0571418389619964, 0.6366197723675813, 1.800632632314212,
        2.352552262201852),
    3: (2.1988067966382836, 2.302585092994046, 8.78296136657427,
        4.605170185988092, 8.49964003216865, 2.4382923105989276,
        3.7101542706381743, 0.7287477205202306, 2.313629796346483,
        5.032905790079054),
    4: (2.5201141146669945, 2.639057329615259, 9.978515057091423,
        5.278114659230518, 9.656627474604603, 2.4382923105989276,
        4.041990932781287, 0.8378387385447049, 2.8181423672117463,
        8.288623462859814),
    5: (2.7601017158543133, 2.8903717578961645, 10.839173440546089,
        5.780743515792329, 10.48952268439944, 2.4382923105989276,
        4.245100247620143, 0.9525600768317929, 3.317006845837267,
        11.990628238268998),
    6: (2.951728114553252, 3.091042453358316, 11.512073406783355,
        6.182084906716632, 11.140716200112923, 2.4382923105989276,
        4.3826918576535485, 1.0696553704608471, 3.8118183935819934,
        16.05727612726609),
    7: (3.111253014580261, 3.2580965380214817, 12.064642924142943,
        6.516193076042963, 11.67546089433188, 2.4382923105989276,
        4.482207877841179, 1.1878813406958346, 4.303568962423014,
        20.432225375917696),
    8: (3.247904254336463, 3.4011973816621555, 12.533458930287107,
        6.802394763324311, 12.129153803503652, 2.4382923105989276,
        4.5575862507939, 1.306679092380278, 4.7929200435349,
        25.074237409818345),
    9: (3.3674262517007483, 3.5263605246161616, 12.940600536676477,
        7.052721049232323, 12.523161809686911, 2.4382923105989276,
        4.616682567686026, 1.425769607129011, 5.2803360991541455,
        29.951815515031765),
    10: (3.4736389094587143, 3.6375861597263857, 13.300424267560015,
         7.275172319452771, 12.871378323445175, 2.4382923105989276,
         4.664269484612322, 1.5450033668127237, 5.766156453086859,
         35.040114651560835),
}

_COLLAR_21 = {
    "separation": 0.7307456296975858,
    "width_lower_config1": 0.8727024485233056,
    "width_lower_config2": 1.3169578969248166,
    "capacity_at_config1_width": 1.347453022972186,
}


def _named(pairs):
    return [{"name": k, "value": v} for k, v in pairs]


def _piece(g, n, bound, variant, m_mix, denom):
    return {"g": g, "n": n, "bound": bound, "bound_plus3_variant": variant,
            "log_argument_discrepancy": True, "M": m_mix,
            "denominator": denom}


_GOLDEN = [
    *((["bounds", "--g", str(g)], _named(zip(_BOUND_NAMES, values)))
      for g, values in _BOUNDS.items()),
    (["collar", "--gamma", "2.1"], _named(_COLLAR_21.items())),
    (["collar", "--gamma", "2.1", "--g", "2"],
     _named([*_COLLAR_21.items(), ("width_area_upper", 1.8159113788850179)])),
    (["ypiece", "--gamma", "2", "--w", "1", "--config", "1"],
     _named([("nu", 3.389802325183405), ("eta_bound", 3.0),
             ("coarse_bound", 8.0)])),
    (["ypiece", "--gamma", "4", "--w", "1", "--config", "2"],
     _named([("nu1_bound", 1.6949011625917025), ("coarse_bound", 4.0)])),
    # M below its 1/2 cap; the pieces take the log branch of the max
    (["corollary", "--t", "0.8", "--piece", "2,1", "--piece", "3,0",
      "--piece", "1,1"],
     [_piece(2, 1, 6.5904121617412414, 8.68697531994032,
             0.3799489622552249, 2.3621104128834185),
      _piece(3, 0, 3.720782170642187, 4.585814763496181,
             0.3799489622552249, 2.3621104128834185),
      _piece(1, 1, 3.720782170642187, 7.441564341284374,
             0.3799489622552249, 2.3621104128834185)]),
    # M at its cap; the (1,1) piece's literal bound takes the t branch
    (["corollary", "--file", "{decomposition}"],
     [_piece(1, 1, 5.729577951308233, 8.392779661585436,
             0.5, 2.0943951023931953),
      _piece(2, 2, 12.589169492378154, 15.515984723271048,
             0.5, 2.0943951023931953)]),
    (["certify", "--families", "all"],
     [dict(zip(CERTIFY_KEYS, row)) for row in CERTIFY_ALL]),
]


def _run(capsys, tmp_path, argv, fmt):
    """The exit code and stdout of ``argv`` in format ``fmt``, with
    ``{decomposition}`` a decomposition file and ``{e8}`` the E8 fixture."""
    decomposition = tmp_path / "decomposition.json"
    decomposition.write_text(json.dumps(
        {"t": 6.0, "pieces": [[1, 1], [2, 2]], "n_cut": 3}))
    e8 = _DATA / "e8_skew48_seed39.json"
    argv = [a.format(decomposition=decomposition, e8=e8) for a in argv]
    code = cli.main(argv + ["--format", fmt])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,expected", _GOLDEN,
                         ids=[" ".join(a) for a, _ in _GOLDEN])
def test_json_output_exact(capsys, tmp_path, argv, expected):
    code, out = _run(capsys, tmp_path, argv, "json")
    assert code == 0
    assert json.loads(out) == expected


# csv and table stdout byte for byte: the digits (17 in csv, 12 in a
# table), headers, separators and padding
_TEXT = json.loads((_DATA / "golden_text.json").read_text())
_TEXT_ARGV = [*(a for a, _ in _GOLDEN), ["minima", "{e8}"], ["exclude", "{e8}"]]


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("argv", _TEXT_ARGV, ids=" ".join)
def test_text_output_exact(capsys, tmp_path, argv, fmt):
    assert _run(capsys, tmp_path, argv, fmt) == (
        0, _TEXT[" ".join([*argv, "--format", fmt])])
