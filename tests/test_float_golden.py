"""Golden outputs of the value commands (bounds, collar, ypiece, corollary)
and of ``certify --families all``.

Each command's JSON output is compared exactly. JSON renders every float
at 17 significant digits, which round-trips binary64, so these pins hold
each value bit for bit: the float closed forms of corollary and of the
Hermite and Minkowski rows of bounds, the midpoints of the interval
enclosures that the other bounds rows, collar and ypiece print, and every
field of every certify row: slack ends, witnesses, counts and tail notes.
A refactor of them must leave every value here unchanged, not merely close.
"""

import json

import pytest

from schottky_gauge import cli

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


# certify --families all, row for row as the CLI prints it: family,
# status, min_slack_lo, min_slack_hi, witness, cells_processed, max_depth,
# tail_status, tail_note, vacuous_cells, g_max, note.
_CERTIFY_KEYS = (
    "family", "status", "min_slack_lo", "min_slack_hi", "witness",
    "cells_processed", "max_depth", "tail_status", "tail_note",
    "vacuous_cells", "g_max", "note",
)

_CERTIFY_ALL = [
    ("CF-A", "Certified", 0.00016126374367431135, 1.6594792220014374,
     {"g": 134.51154586901777, "gamma": 0.9203884727313851}, 13965, 14,
     "Proven",
     "slack floor 0.563163 beyond g_max: log-majorization of "
     "arccosh, g-free floor", 0, 1000000.0, ""),
    ("CF-B", "Certified", 1.2619250327438143, 17.787721660631842,
     {"g": 733.6982606712725, "gamma": 1.1780972450961729}, 65, 8, "Proven",
     "slack floor 3.89772 beyond g_max: log-majorization of "
     "arccosh, g-free floor", 0, 1000000.0, ""),
    ("CF-C", "Certified", 0.004228468457058709, 0.06969841203736539,
     {"alpha1": 1.134765625}, 15, 7, "Proven",
     "slack floor 1.92718 beyond g_max: width floor for alpha1 >= "
     "10.0 (covers every genus cap)", 0, 1000000.0, ""),
    ("CF-D", "Certified", 0.39614213042225893, 1.9460857476240199,
     {"g": 2.227570395565804}, 13, 6, "Proven",
     "slack floor 24.4794 beyond g_max: log-coefficient "
     "comparison, increasing in g", 0, 1000000.0, ""),
    ("CF-E", "Certified", 0.04575316208483659, 0.7180151419936297,
     {"g": 2.107957758926668, "gamma2": 7.037265076609534}, 99, 14, "Proven",
     "slack floor 7.41344 beyond g_max: two-regime split at "
     "gamma2 = 10, increasing in g", 7, 1000000.0, ""),
    ("CF-F", "Certified", 0.0023534994471079425, 0.8297787935919817,
     {"g": 228.1198022454164, "gamma": 13.355825070810221}, 350, 15,
     "Proven",
     "slack floor 0.0807552 beyond g_max: capacity ceiling 3 "
     "gamma/(2 pi) above K, g-free", 38, 1000000.0, ""),
    ("CF-G", "Certified", 0.0007456296975852926, 0.0007456296975865141,
     {}, 1, 0, "N/A",
     "", 0, 1000000.0, ""),
    ("CF-H", "Certified", 0.009025234112393197, 0.49869362156288827,
     {"gamma2": 2.5523437499999995}, 13, 6, "Proven",
     "slack floor 13.7461 beyond g_max: width floor for gamma2 >= "
     "60 (covers every genus cap)", 0, 1000000.0, ""),
    ("CF-I", "Certified", 4.5677823514722596e-06, 2.0496056345593994,
     {"g": 500001.0}, 1, 0, "Proven",
     "slack floor 0 beyond g_max: theta(g) > pi/12 strictly for "
     "every finite g", 0, 1000000.0, ""),
    ("CF-J", "Certified", 0.0013066739078548826, 0.010572490680081816,
     {"alpha1": 1.50830078125}, 19, 9, "Proven",
     "slack floor 2.12474 beyond g_max: width floor for alpha1 >= "
     "10.0", 0, 1000000.0, ""),
]


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
     [dict(zip(_CERTIFY_KEYS, row)) for row in _CERTIFY_ALL]),
]


@pytest.mark.parametrize("argv,expected", _GOLDEN,
                         ids=[" ".join(a) for a, _ in _GOLDEN])
def test_json_output_exact(capsys, tmp_path, argv, expected):
    decomposition = tmp_path / "decomposition.json"
    decomposition.write_text(json.dumps(
        {"t": 6.0, "pieces": [[1, 1], [2, 2]], "n_cut": 3}))
    argv = [a.format(decomposition=decomposition) for a in argv]
    assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == expected
