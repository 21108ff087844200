"""Golden reports: every suite's schema-1 report at order 14, at its
defaults and with one parameter override, frozen from the suites as they
were before they were declared through ``@identity``, together with the
number of checks each run made."""

import pytest

from lagrange_kit.identities import identity_names, run_identity

# (name, overrides, checks, reported order, params, details)
GOLDEN = [
    ("abel", {}, 2205, 8,
     {"n_max": 8,
      "x_range": [-3, -2, -1, 0, 1, 2, 3],
      "y_range": [-3, -2, -1, 0, 1, 2, 3],
      "z_range": [-2, -1, 0, 1, 2]},
     None),
    ("abel", {"n_max": 4}, 1225, 4,
     {"n_max": 4,
      "x_range": [-3, -2, -1, 0, 1, 2, 3],
      "y_range": [-3, -2, -1, 0, 1, 2, 3],
      "z_range": [-2, -1, 0, 1, 2]},
     None),
    ("catalan", {}, 1698, 14,
     {"conv_n_max": 24, "k_range": [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]}, None),
    ("catalan", {"conv_n_max": 12}, 1266, 14,
     {"conv_n_max": 12, "k_range": [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]}, None),
    ("fc-polynomial", {}, 18, 14, {"i": 0, "j": 2, "p": 3},
     {"branch": "vanishing",
      "degree": 1,
      "empirical": False,
      "i": 0,
      "j": 2,
      "p": 3,
      "polynomial": [2, -1],
      "scale": "4",
      "u_polynomial": ["1/2", "-1/4"]}),
    ("fc-polynomial", {"i": 2, "j": 1, "p": 2}, 12, 14, {"i": 2, "j": 1, "p": 2},
     {"branch": "damped",
      "degree_bound": 1,
      "empirical": True,
      "i": 2,
      "j": 1,
      "p": 2,
      "polynomial": [1, 0],
      "scale": "1/2",
      "u_polynomial": ["2", 0]}),
    ("finite-difference-lemma", {}, 204, 6, {"d_max": 6, "seed": 5, "trials": 3}, None),
    ("finite-difference-lemma", {"seed": 3}, 204, 6,
     {"d_max": 6, "seed": 3, "trials": 3}, None),
    ("fuss-catalan", {}, 670, 14,
     {"inverse_order": 20,
      "k_range": [-3, -2, -1, 0, 1, 2, 3, 4, 5],
      "p_range": [2, 3, 4, 5],
      "small_order": 15},
     None),
    ("fuss-catalan", {"p_range": (2, 3)}, 334, 14,
     {"inverse_order": 20,
      "k_range": [-3, -2, -1, 0, 1, 2, 3, 4, 5],
      "p_range": [2, 3],
      "small_order": 15},
     None),
    ("fuss-narayana", {}, 315, 5,
     {"degree_bound": 5,
      "k_values": [1, 2, 3],
      "r_profiles": [[1, 1], [2, 1], [2, -1]],
      "s_profiles": [[1, 1], [2, 2]]},
     None),
    ("fuss-narayana", {"degree_bound": 3}, 150, 3,
     {"degree_bound": 3,
      "k_values": [1, 2, 3],
      "r_profiles": [[1, 1], [2, 1], [2, -1]],
      "s_profiles": [[1, 1], [2, 2]]},
     None),
    ("hirzebruch-residue", {}, 130, 24, {"n_max": 20, "pair_trials": 30, "seed": 11},
     None),
    ("hirzebruch-residue", {"n_max": 8}, 106, 12,
     {"n_max": 8, "pair_trials": 30, "seed": 11}, None),
    ("jensen", {}, 18, 8, {"j": 1, "n_max": 8, "p": 3, "r": 10}, None),
    ("jensen", {"j": 0, "n_max": 5, "p": 2, "r": 3}, 12, 5,
     {"j": 0, "n_max": 5, "p": 2, "r": 3}, None),
    ("lacasse", {}, 59, 14, {}, None),
    ("lacasse", {"order": 20}, 65, 20, {}, None),
    ("narayana", {}, 312, 6, {"degree_bound": 6, "k_values": [1, 2, 3]}, None),
    ("narayana", {"degree_bound": 4}, 164, 4,
     {"degree_bound": 4, "k_values": [1, 2, 3]}, None),
    ("p-l", {}, 35, 14, {"k_values": [1, 2, 3, 4], "l_max": 4}, None),
    ("p-l", {"l_max": 3}, 27, 14, {"k_values": [1, 2, 3, 4], "l_max": 3}, None),
    ("q-l", {}, 6, 14, {"l_max": 3}, None),
    ("q-l", {"l_max": 2}, 4, 14, {"l_max": 2}, None),
    ("r-m", {}, 67, 14, {"k_values": [-1, 0, 1, 2, 3], "m_max": 4, "series_m_max": 3},
     None),
    ("r-m", {"m_max": 3}, 63, 14,
     {"k_values": [-1, 0, 1, 2, 3], "m_max": 3, "series_m_max": 3}, None),
    ("raney", {}, 821, 9, {"i_total_max": 5, "k_values": [1, 2]}, None),
    ("raney", {"i_total_max": 4}, 411, 7, {"i_total_max": 4, "k_values": [1, 2]}, None),
    ("rational-expansion", {}, 170, 12, {"n_max": 12, "r": 1, "s": 2}, None),
    ("rational-expansion", {"r": 2, "s": 1}, 170, 12, {"n_max": 12, "r": 2, "s": 1},
     None),
    ("rothe-hagen", {}, 6485, 8,
     {"k_range": [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6],
      "l_range": [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6],
      "n_max": 8,
      "p_range": [2, 3, 4]},
     None),
    ("rothe-hagen", {"n_max": 5}, 4409, 5,
     {"k_range": [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6],
      "l_range": [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6],
      "n_max": 5,
      "p_range": [2, 3, 4]},
     None),
    ("schur-jabotinsky", {}, 122, 14, {"seed": 7, "trials": 20}, None),
    ("schur-jabotinsky", {"seed": 3}, 122, 14, {"seed": 3, "trials": 20}, None),
    ("tree-function", {}, 3369, 14, {"k_range": [-3, -2, -1, 0, 1, 2, 3, 4, 5]}, None),
    ("tree-function", {"k_range": range(0, 3)}, 3159, 14, {"k_range": [0, 1, 2]}, None),
    ("weighted-stirling", {}, 555, 14, {"j_max": 4, "k_values": [-2, -1, 0, 1, 2, 3]},
     None),
    ("weighted-stirling", {"j_max": 3}, 448, 14,
     {"j_max": 3, "k_values": [-2, -1, 0, 1, 2, 3]}, None),
]


def test_golden_covers_every_suite_twice():
    assert sorted({case[0] for case in GOLDEN}) == identity_names()
    assert len(GOLDEN) == 2 * len(identity_names())


@pytest.mark.parametrize(
    "name, overrides, checks, order, params, details",
    GOLDEN,
    ids=["%s-%s" % (case[0], "override" if case[1] else "default") for case in GOLDEN],
)
def test_report_matches_golden(name, overrides, checks, order, params, details):
    kwargs = dict(overrides)
    report = run_identity(name, order=kwargs.pop("order", 14), **kwargs)
    want = {
        "identity": name,
        "params": params,
        "order": order,
        "status": "pass",
        "first_failure": None,
    }
    if details is not None:
        want["details"] = details
    assert report.to_dict() == want
    assert report.checks == checks
