"""Byte-identity corpus for ``charid analyze`` and ``charid generate``.

Each case runs :func:`charid.cli.main` in process on fixtures that
``generate`` writes into a temporary directory, and compares stdout, stderr
and the exit code with literals recorded from the implementation this corpus
was introduced on.  A refactor that means to keep behaviour must pass it
unchanged; a deliberate change of output re-records the affected cases and
says so in CHANGES.md.  The temporary directory appears as ``{tmp}`` in the
recorded text.

``PYTHONPATH=src python tests/test_cli_golden.py NAME...`` prints the named
cases' literals in the format of ``GOLDEN``, for pasting; it never writes
this file, so a changed output still fails until someone re-records it.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from charid.cli import main

#: fixture file name -> ``generate`` arguments
FIXTURES = {
    "t64.json": ["--mode", "torus", "--freq", "3", "--grid", "64"],
    "t64n.json": ["--mode", "torus", "--freq", "-5", "--grid", "64",
                  "--noise", "0.3", "--seed", "1"],
    "t16x16.json": ["--mode", "torus", "--freq", "3,-2", "--grid", "16,16"],
    "t16x16n.json": ["--mode", "torus", "--freq", "1,7", "--grid", "16,16",
                     "--noise", "1.0", "--seed", "4"],
    "line.json": ["--mode", "line", "--freq", "-2.5", "--grid", "64"],
    "linen.json": ["--mode", "line", "--freq", "1.25,-3.75", "--grid", "12,10",
                   "--noise", "0.2", "--seed", "2"],
    "t16.csv": ["--mode", "torus", "--freq", "2", "--grid", "16"],
    "z64.json": ["--mode", "finite", "--freq", "5", "--grid", "64"],
    "z64n.json": ["--mode", "finite", "--freq", "17", "--grid", "64",
                  "--noise", "0.4", "--seed", "3"],
    "z64j.json": ["--mode", "finite", "--freq", "5", "--grid", "64",
                  "--noise", "1e-11", "--seed", "1"],
    "z6x10.json": ["--mode", "finite", "--freq", "2,7", "--grid", "6,10"],
    "z48.csv": ["--mode", "finite", "--freq", "11", "--grid", "48"],
    # every all-pairs route, on both sides of ALL_PAIRS_CAP = 65536
    "z400.json": ["--mode", "finite", "--freq", "2", "--grid", "400"],
    "z401.json": ["--mode", "finite", "--freq", "1", "--grid", "401"],
    "z20x20.json": ["--mode", "finite", "--freq", "1,3", "--grid", "20,20"],
    "z367c.json": ["--mode", "finite", "--freq", "0", "--grid", "367"],
    "z65536.json": ["--mode", "finite", "--freq", "16384", "--grid", "65536"],
    "z65537.json": ["--mode", "finite", "--freq", "5", "--grid", "65537"],
}

#: fixture file name -> (fixture it copies, index of the one entry negated)
NEGATED = {
    "z401neg.json": ("z401.json", 100),
}

#: hand-written inputs: file name -> contents
RAW = {
    "malformed.json": "{not json",
    "truncated.json": "[[",
    "nonunit.json": json.dumps({"mode": "torus", "dim": 1, "grid": [4],
                                "values": [[1, 0], [0.5, 0.5], [1, 0], [0, 2]]}),
    "nonunit_finite.json": json.dumps({"mode": "finite", "dim": 1, "grid": [3],
                                       "values": [[1, 0], [1, 0], [0.6, 0.6]]}),
    "nan_finite.json": '{"mode":"finite","dim":1,"grid":[2],"values":[[1,0],[NaN,0]]}',
    "nonunit_ep.json": json.dumps({"mode": "line", "dim": 1, "grid": [4],
                                   "values": [[1, 0]] * 4,
                                   "endpoint_values": [[0.9, 0]]}),
    "noep.json": json.dumps({"mode": "line", "dim": 1, "grid": [4],
                             "values": [[1, 0]] * 4}),
    "short.json": json.dumps({"mode": "torus", "dim": 1, "grid": [4],
                              "values": [[1, 0]] * 3}),
    "badrow.csv": "index,re,im\n0,1,0\n1,x,0\n",
    # JSON layouts: every spelling of the same document decodes to the same values
    "pretty.json": json.dumps({"mode": "torus", "dim": 1, "grid": [4],
                               "values": [[1, 0], [0, 1], [-1, 0], [0, -1]]}, indent=2),
    "values_first.json": '{"values":[[1,0],[0,1],[-1,0],[0,-1]],"mode":"torus","dim":1,"grid":[4]}',
    "dup_values.json": ('{"mode":"torus","dim":1,"grid":[4],"values":[[1,0],[1,0],[1,0],[1,0]],'
                        '"values":[[1,0],[0,1],[-1,0],[0,-1]]}'),
    "decoy.json": ('{"meta":{"values":[[1,0]]},"mode":"torus","dim":1,"grid":[4],'
                   '"values":[[1,0],[0,-1],[-1,0],[0,1]]}'),
    "escaped_key.json": '{"mode":"torus","dim":1,"grid":[4],"val\\u0075es":[[1,0],[0,1],[-1,0],[0,-1]]}',
    "spellings.json": '{"mode":"finite","dim":1,"grid":[2],"values":[[1E+0,-0],[-1.0e0,0.0]]}',
    "int_pairs.json": '{"mode":"finite","dim":1,"grid":[4],"values":[[1,0],[0,1],[-1,0],[0,-1]]}',
    "outside_pair.json": '{"mode":"torus","dim":1,"grid":[2],"values":[5[1,0],[1,0]]}',
    "nan_pair.json": '{"mode":"torus","dim":1,"grid":[2],"values":[[1,0],[NaN,0]]}',
    "true_pair.json": '{"mode":"torus","dim":1,"grid":[2],"values":[[1,0],[true,0]]}',
    "short_compact.json": '{"mode":"torus","dim":1,"grid":[4],"values":[[1,0],[0,1],[-1,0]]}',
    # check order: the grid, then values, then endpoint_values; shape errors
    # before unit violations
    "grid1_bad_values.json": '{"mode":"torus","dim":1,"grid":[1],"values":"x"}',
    "finite_grid0.json": '{"mode":"finite","dim":1,"grid":[0],"values":"x"}',
    "line_short_noep.json": '{"mode":"line","dim":1,"grid":[4],"values":[[1,0]]}',
    "line_nonunit_bad_ep.json": ('{"mode":"line","dim":1,"grid":[2],"values":[[1,0],[0.5,0]],'
                                 '"endpoint_values":"x"}'),
    "one_row.csv": "index,re,im\n0,1,0\n",
}


def _analyze(name, mode, *flags):
    return ["analyze", "--input", "{tmp}/" + name, "--mode", mode, *flags]


_ENDPOINT = ["--endpoint", "0.5,0.8660254037844386"]

#: case name -> argv, with ``{tmp}`` standing for the fixture directory
CASES = {
    "torus64": _analyze("t64.json", "torus"),
    "torus64_text": _analyze("t64.json", "torus", "--format", "text"),
    "torus64_knobs": _analyze("t64.json", "torus", "--trials", "7", "--seed", "5",
                              "--floor", "0.8", "--tau-exact", "1e-6"),
    "torus64_noisy": _analyze("t64n.json", "torus"),
    "torus64_noisy_text": _analyze("t64n.json", "torus", "--format", "text"),
    "torus16x16": _analyze("t16x16.json", "torus"),
    "torus16x16_text": _analyze("t16x16.json", "torus", "--format", "text"),
    "torus16x16_noisy": _analyze("t16x16n.json", "torus"),
    "line64": _analyze("line.json", "line"),
    "line64_text": _analyze("line.json", "line", "--format", "text"),
    "line2d_noisy": _analyze("linen.json", "line", "--seed", "9"),
    "line_csv_endpoint": _analyze("t16.csv", "line", *_ENDPOINT),
    "line_csv_endpoint_text": _analyze("t16.csv", "line", *_ENDPOINT, "--format", "text"),
    "torus_csv": _analyze("t16.csv", "torus"),
    "finite64": _analyze("z64.json", "finite"),
    "finite64_text": _analyze("z64.json", "finite", "--format", "text"),
    "finite64_noisy": _analyze("z64n.json", "finite"),
    # worst defect above HOM_TOL, within tau_exact: the law holds as on the torus
    "finite64_jittered": _analyze("z64j.json", "finite"),
    "finite6x10": _analyze("z6x10.json", "finite"),
    "finite6x10_text": _analyze("z6x10.json", "finite", "--format", "text"),
    "finite48_csv": _analyze("z48.csv", "finite"),
    "finite48_csv_text": _analyze("z48.csv", "finite", "--format", "text"),
    "malformed": _analyze("malformed.json", "torus"),
    "truncated_text": _analyze("truncated.json", "torus", "--format", "text"),
    "nonunit": _analyze("nonunit.json", "torus"),
    "nonunit_finite_text": _analyze("nonunit_finite.json", "finite", "--format", "text"),
    "nan_finite": _analyze("nan_finite.json", "finite"),
    "nonunit_endpoint": _analyze("nonunit_ep.json", "line"),
    "missing_endpoints": _analyze("noep.json", "line"),
    "csv_line_no_endpoint": _analyze("t16.csv", "line"),
    "short_values": _analyze("short.json", "torus"),
    "bad_csv_row": _analyze("badrow.csv", "torus"),
    "json_pretty": _analyze("pretty.json", "torus"),
    "json_values_first": _analyze("values_first.json", "torus"),
    "json_duplicate_values": _analyze("dup_values.json", "torus"),
    "json_nested_decoy": _analyze("decoy.json", "torus"),
    "json_escaped_key": _analyze("escaped_key.json", "torus"),
    "json_number_spellings": _analyze("spellings.json", "finite"),
    "json_integer_pairs": _analyze("int_pairs.json", "finite"),
    "json_number_outside_pair": _analyze("outside_pair.json", "torus"),
    "json_nan_pair": _analyze("nan_pair.json", "torus"),
    "json_true_pair": _analyze("true_pair.json", "torus"),
    "json_one_pair_short": _analyze("short_compact.json", "torus"),
    "grid_before_values": _analyze("grid1_bad_values.json", "torus"),
    "finite_grid_before_values": _analyze("finite_grid0.json", "finite"),
    "values_before_endpoints": _analyze("line_short_noep.json", "line"),
    "endpoint_shape_before_unit": _analyze("line_nonunit_bad_ep.json", "line"),
    "csv_one_row": _analyze("one_row.csv", "torus"),
    "mode_mismatch": _analyze("t64.json", "line"),
    "missing_file": _analyze("absent.json", "torus"),
    "missing_file_text": _analyze("absent.csv", "finite", "--format", "text"),
    "floor_out_of_range": _analyze("t64.json", "torus", "--floor", "1.5"),
    # one-period walk with the walk axis cut
    "finite400_period": _analyze("z400.json", "finite"),
    # full threaded walk
    "finite401": _analyze("z401.json", "finite"),
    # sparse-corruption certificate
    "finite401_negated": _analyze("z401neg.json", "finite"),
    # multi-block 2-D walk
    "finite20x20": _analyze("z20x20.json", "finite"),
    "finite367_constant": _analyze("z367c.json", "finite"),
    # one-period walk at the cap
    "finite65536_period": _analyze("z65536.json", "finite"),
    # sampled check above the cap
    "finite65537_sampled": _analyze("z65537.json", "finite"),
    "finite65537_sampled_text": _analyze("z65537.json", "finite", "--format", "text"),
    "generate_aliasing": ["generate", "--mode", "torus", "--freq", "40", "--grid", "64",
                          "--output", "{tmp}/never.json"],
    # the builders' own wording, since generate passes --freq to them unchecked
    "generate_fractional_freq": ["generate", "--mode", "finite", "--freq", "2.5",
                                 "--grid", "8", "--output", "{tmp}/never.json"],
    "generate_freq_length": ["generate", "--mode", "torus", "--freq", "1,2", "--grid", "8",
                             "--output", "{tmp}/never.json"],
}

GOLDEN = {
    'torus64': (
        0,
        '{"verdict":"ExactCharacter","frequency":[3],"hom_residual":1.2008898127460164e-15,"spectral_peak":1,"peaks":[[[3],1],[[-5],7.7811201866366627e-17],[[11],7.7811201866366627e-17],[[7],6.429862472237122e-17],[[-9],5.8090619013354543e-17]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'torus64_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [3]\nhom_residual: 1.2008898127460164e-15\nspectral_peak: 1\npeaks:\n  [3]: 1\n  [-5]: 7.7811201866366627e-17\n  [11]: 7.7811201866366627e-17\n  [7]: 6.429862472237122e-17\n  [-9]: 5.8090619013354543e-17\nconfig: {"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}\n',
        '',
    ),
    'torus64_knobs': (
        0,
        '{"verdict":"ExactCharacter","frequency":[3],"hom_residual":1.1957467920563633e-15,"spectral_peak":1,"peaks":[[[3],1],[[-5],7.7811201866366627e-17],[[11],7.7811201866366627e-17],[[7],6.429862472237122e-17],[[-9],5.8090619013354543e-17]],"config":{"mode":"torus","tau_exact":9.9999999999999995e-07,"floor":0.80000000000000004,"hom_trials":7,"seed":5}}\n',
        '',
    ),
    'torus64_noisy': (
        0,
        '{"verdict":"ApproxCharacter","frequency":[-5],"hom_residual":0.77598148845379133,"spectral_peak":0.98553468529014365,"peaks":[[[-5],0.98553468529014365],[[23],0.041768494279404718],[[16],0.041590958801518224],[[-26],0.041352531532148941],[[31],0.040997933394700002]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'torus64_noisy_text': (
        0,
        'verdict: "ApproxCharacter"\nfrequency: [-5]\nhom_residual: 0.77598148845379133\nspectral_peak: 0.98553468529014365\npeaks:\n  [-5]: 0.98553468529014365\n  [23]: 0.041768494279404718\n  [16]: 0.041590958801518224\n  [-26]: 0.041352531532148941\n  [31]: 0.040997933394700002\nconfig: {"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}\n',
        '',
    ),
    'torus16x16': (
        0,
        '{"verdict":"ExactCharacter","frequency":[3,-2],"hom_residual":1.4946834900704542e-15,"spectral_peak":1,"peaks":[[[3,-2],1],[[-1,-2],1.0251949004050263e-16],[[7,-2],9.8597047043861314e-17],[[2,-2],9.2682212449489969e-17],[[4,-2],6.9336792607796e-17]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'torus16x16_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [3,-2]\nhom_residual: 1.4946834900704542e-15\nspectral_peak: 1\npeaks:\n  [3,-2]: 1\n  [-1,-2]: 1.0251949004050263e-16\n  [7,-2]: 9.8597047043861314e-17\n  [2,-2]: 9.2682212449489969e-17\n  [4,-2]: 6.9336792607796e-17\nconfig: {"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}\n',
        '',
    ),
    'torus16x16_noisy': (
        0,
        '{"verdict":"NotCharacter","frequency":null,"hom_residual":1.8263098499678854,"spectral_peak":0.8459953022735115,"peaks":[[[1,7],0.8459953022735115],[[7,-2],0.071645619616549513],[[-5,0],0.070956569043563469],[[-4,-8],0.070442367442763471],[[6,-1],0.066054743901213103]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'line64': (
        0,
        '{"verdict":"ExactCharacter","frequency":[-2.5],"beta":[0.50000000000000011],"hom_residual":2.3420180361420893e-15,"spectral_peak":1,"peaks":[[[-3],1],[[31],1.6544181886377704e-16],[[28],1.4613653595057641e-16],[[30],1.4517375273014991e-16],[[27],1.2549816678683799e-16]],"config":{"mode":"line","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'line64_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [-2.5]\nbeta: [0.50000000000000011]\nhom_residual: 2.3420180361420893e-15\nspectral_peak: 1\npeaks:\n  [-3]: 1\n  [31]: 1.6544181886377704e-16\n  [28]: 1.4613653595057641e-16\n  [30]: 1.4517375273014991e-16\n  [27]: 1.2549816678683799e-16\nconfig: {"mode":"line","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}\n',
        '',
    ),
    'line2d_noisy': (
        0,
        '{"verdict":"ApproxCharacter","frequency":[1.2236513144487005,-3.7656017187225208],"beta":[0.22365131444870046,0.23439828127747925],"hom_residual":0.59561274186337909,"spectral_peak":0.99225170109091154,"peaks":[[[1,-4],0.99225170109091154],[[-5,-4],0.029451129331346037],[[4,-4],0.022317732682768609],[[-5,2],0.021448417431708493],[[-5,0],0.021104095516829489]],"config":{"mode":"line","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":9}}\n',
        '',
    ),
    'line_csv_endpoint': (
        0,
        '{"verdict":"ApproxCharacter","frequency":[2.1666666666666665],"beta":[0.16666666666666666],"hom_residual":1.0000000000000004,"spectral_peak":0.9551001221587303,"peaks":[[[2],0.9551001221587303],[[1],0.1918408126928228],[[3],0.13761896370150145],[[0],0.088715388924483038],[[4],0.075719572828238838]],"config":{"mode":"line","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'line_csv_endpoint_text': (
        0,
        'verdict: "ApproxCharacter"\nfrequency: [2.1666666666666665]\nbeta: [0.16666666666666666]\nhom_residual: 1.0000000000000004\nspectral_peak: 0.9551001221587303\npeaks:\n  [2]: 0.9551001221587303\n  [1]: 0.1918408126928228\n  [3]: 0.13761896370150145\n  [0]: 0.088715388924483038\n  [4]: 0.075719572828238838\nconfig: {"mode":"line","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}\n',
        '',
    ),
    'torus_csv': (
        0,
        '{"verdict":"ExactCharacter","frequency":[2],"hom_residual":3.5357508897063751e-16,"spectral_peak":1,"peaks":[[[2],1],[[-6],1.1570407089160212e-16],[[0],4.3087406683712138e-17],[[4],3.2956829898713059e-17],[[-8],3.172940582209656e-17]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'finite64': (
        0,
        '{"verdict":"ExactCharacter","frequency":[5],"hom_residual":1.2008898127460164e-15,"spectral_peak":1,"peaks":[[[5],1],[[13],7.5656855599750995e-17],[[61],7.5656855599750995e-17],[[49],5.6141759513820564e-17],[[0],4.7975154041374338e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite64_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [5]\nhom_residual: 1.2008898127460164e-15\nspectral_peak: 1\npeaks:\n  [5]: 1\n  [13]: 7.5656855599750995e-17\n  [61]: 7.5656855599750995e-17\n  [49]: 5.6141759513820564e-17\n  [0]: 4.7975154041374338e-17\nconfig: {"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}\n',
        '',
    ),
    'finite64_noisy': (
        0,
        '{"verdict":"ApproxCharacter","frequency":[17],"hom_residual":1.0123824846227927,"spectral_peak":0.97735351405075888,"peaks":[[[17],0.97735351405075888],[[41],0.056910936155251939],[[57],0.056673874176924266],[[38],0.049907434658444598],[[50],0.048988456445826598]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite64_jittered': (
        0,
        '{"verdict":"ExactCharacter","frequency":[5],"hom_residual":2.724816734545525e-11,"spectral_peak":1,"peaks":[[[5],1],[[48],1.3944161324210105e-12],[[26],1.3944083080694368e-12],[[33],1.3925108814344391e-12],[[41],1.3925092531691039e-12]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite6x10': (
        0,
        '{"verdict":"ExactCharacter","frequency":[2,7],"hom_residual":1.2225062931717345e-15,"spectral_peak":1,"peaks":[[[2,7],1],[[4,7],1.9818388462314343e-16],[[0,7],1.8592374611165639e-16],[[2,4],4.84743660089559e-17],[[4,3],4.4916929432799447e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite6x10_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [2,7]\nhom_residual: 1.2225062931717345e-15\nspectral_peak: 1\npeaks:\n  [2,7]: 1\n  [4,7]: 1.9818388462314343e-16\n  [0,7]: 1.8592374611165639e-16\n  [2,4]: 4.84743660089559e-17\n  [4,3]: 4.4916929432799447e-17\nconfig: {"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}\n',
        '',
    ),
    'finite48_csv': (
        0,
        '{"verdict":"ExactCharacter","frequency":[11],"hom_residual":2.0411201962889075e-15,"spectral_peak":1,"peaks":[[[11],1],[[43],1.1841754166531102e-16],[[0],1.1068524639845461e-16],[[5],1.0942328997579775e-16],[[22],1.0606385134263049e-16]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite48_csv_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [11]\nhom_residual: 2.0411201962889075e-15\nspectral_peak: 1\npeaks:\n  [11]: 1\n  [43]: 1.1841754166531102e-16\n  [0]: 1.1068524639845461e-16\n  [5]: 1.0942328997579775e-16\n  [22]: 1.0606385134263049e-16\nconfig: {"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}\n',
        '',
    ),
    'malformed': (
        3,
        '',
        'charid: error: input is not valid JSON\n',
    ),
    'truncated_text': (
        3,
        '',
        'charid: error: input is not valid JSON\n',
    ),
    'nonunit': (
        4,
        '',
        'charid: error: values violate unit modulus at 2 point(s); first at index (1,) with deviation 0.293\n',
    ),
    'nonunit_finite_text': (
        4,
        '',
        'charid: error: values violate unit modulus at 1 point(s); first at index (2,) with deviation 0.151\n',
    ),
    'nan_finite': (
        4,
        '',
        'charid: error: values violate unit modulus at 1 point(s); first at index (1,) with deviation nan\n',
    ),
    'nonunit_endpoint': (
        4,
        '',
        'charid: error: endpoint_values violate unit modulus at 1 point(s); first at index (0,) with deviation 0.1\n',
    ),
    'missing_endpoints': (
        3,
        '',
        'charid: error: endpoint_values must be an array of [re, im] pairs\n',
    ),
    'csv_line_no_endpoint': (
        3,
        '',
        'charid: error: line mode csv input needs --endpoint re,im\n',
    ),
    'short_values': (
        3,
        '',
        'charid: error: values has 3 entries, expected 4\n',
    ),
    'bad_csv_row': (
        3,
        '',
        "charid: error: csv row is not numeric: '1,x,0'\n",
    ),
    'mode_mismatch': (
        3,
        '',
        "charid: error: file declares mode 'torus' but 'line' was requested\n",
    ),
    'missing_file': (
        2,
        '',
        'charid: error: no such file: {tmp}/absent.json\n',
    ),
    'missing_file_text': (
        2,
        '',
        'charid: error: no such file: {tmp}/absent.csv\n',
    ),
    'floor_out_of_range': (
        1,
        '',
        'charid: error: need 0 < tau_exact < floor <= 1, got tau_exact=1e-09 floor=1.5\n',
    ),
    'generate_aliasing': (
        1,
        '',
        'charid: error: |k|=40 aliases on an axis of 64 samples\n',
    ),
    'generate_fractional_freq': (
        1,
        '',
        'charid: error: k must be integers, got 2.5\n',
    ),
    'generate_freq_length': (
        1,
        '',
        'charid: error: k has 2 entries for a 1-axis grid\n',
    ),
    'finite400_period': (
        0,
        '{"verdict":"ExactCharacter","frequency":[2],"hom_residual":2.0859196845419631e-15,"spectral_peak":1,"peaks":[[[2],1],[[74],3.9895370418680863e-17],[[78],3.8784889640942187e-17],[[10],3.8101735568654372e-17],[[26],3.8086994407179798e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite401': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":2.1897020778056687e-15,"spectral_peak":1,"peaks":[[[1],1],[[240],1.318952140757936e-16],[[163],8.6877948366011717e-17],[[2],7.9377962991293862e-17],[[235],6.5368544807132463e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite401_negated': (
        0,
        '{"verdict":"ApproxCharacter","frequency":[1],"hom_residual":2,"spectral_peak":0.99501246882793015,"peaks":[[[1],0.99501246882793015],[[78],0.0049875311720699363],[[81],0.0049875311720698739],[[390],0.0049875311720698739],[[276],0.0049875311720698704]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite20x20': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1,3],"hom_residual":3.1517648628938487e-15,"spectral_peak":1,"peaks":[[[1,3],1],[[16,3],1.1452621242873756e-16],[[1,8],9.823695099172752e-17],[[7,3],9.6510012853522049e-17],[[1,13],9.254589816241187e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite367_constant': (
        0,
        '{"verdict":"ExactCharacter","frequency":[0],"hom_residual":0,"spectral_peak":0.99999999999999989,"peaks":[[[0],0.99999999999999989],[[105],8.797009046045382e-17],[[262],7.5561850095824057e-17],[[337],6.916296390822529e-17],[[157],5.2953617366408068e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite65536_period': (
        0,
        '{"verdict":"ExactCharacter","frequency":[16384],"hom_residual":2.4492935982947064e-16,"spectral_peak":1,"peaks":[[[16384],1],[[0],4.3297802811774658e-17],[[32768],4.3297802811774658e-17],[[49152],3.061616997868383e-17],[[1],0]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite65537_sampled': (
        0,
        '{"verdict":"ExactCharacter","frequency":[5],"hom_residual":2.2037297810228127e-15,"spectral_peak":0.99999999999999933,"peaks":[[[5],0.99999999999999933],[[13054],1.0776392031599948e-16],[[52493],6.8729089005136008e-17],[[39298],6.8674414753303075e-17],[[10],6.4565641903548275e-17]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'finite65537_sampled_text': (
        0,
        'verdict: "ExactCharacter"\nfrequency: [5]\nhom_residual: 2.2037297810228127e-15\nspectral_peak: 0.99999999999999933\npeaks:\n  [5]: 0.99999999999999933\n  [13054]: 1.0776392031599948e-16\n  [52493]: 6.8729089005136008e-17\n  [39298]: 6.8674414753303075e-17\n  [10]: 6.4565641903548275e-17\nconfig: {"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}\n',
        '',
    ),
    'json_pretty': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[-2],0],[[-1],0],[[0],0]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'json_values_first': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[-2],0],[[-1],0],[[0],0]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'json_duplicate_values': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[-2],0],[[-1],0],[[0],0]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'json_nested_decoy': (
        0,
        '{"verdict":"ExactCharacter","frequency":[-1],"hom_residual":0,"spectral_peak":1,"peaks":[[[-1],1],[[-2],0],[[0],0],[[1],0]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'json_escaped_key': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[-2],0],[[-1],0],[[0],0]],"config":{"mode":"torus","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002,"hom_trials":256,"seed":0}}\n',
        '',
    ),
    'json_number_spellings': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[0],0]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'json_integer_pairs': (
        0,
        '{"verdict":"ExactCharacter","frequency":[1],"hom_residual":0,"spectral_peak":1,"peaks":[[[1],1],[[0],0],[[2],0],[[3],0]],"config":{"mode":"finite","tau_exact":1.0000000000000001e-09,"floor":0.90000000000000002}}\n',
        '',
    ),
    'json_number_outside_pair': (
        3,
        '',
        'charid: error: input is not valid JSON\n',
    ),
    'json_nan_pair': (
        4,
        '',
        'charid: error: values violate unit modulus at 1 point(s); first at index (1,) with deviation nan\n',
    ),
    'json_true_pair': (
        3,
        '',
        'charid: error: values must be an array of [re, im] number pairs\n',
    ),
    'json_one_pair_short': (
        3,
        '',
        'charid: error: values has 3 entries, expected 4\n',
    ),
    'grid_before_values': (
        3,
        '',
        'charid: error: grid counts must all be >= 2, got (1,)\n',
    ),
    'finite_grid_before_values': (
        3,
        '',
        'charid: error: factor orders must be >= 1, got (0,)\n',
    ),
    'values_before_endpoints': (
        3,
        '',
        'charid: error: values has 1 entries, expected 4\n',
    ),
    'endpoint_shape_before_unit': (
        3,
        '',
        'charid: error: endpoint_values must be an array of [re, im] pairs\n',
    ),
    'csv_one_row': (
        3,
        '',
        'charid: error: grid counts must all be >= 2, got (1,)\n',
    ),
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_fixtures(directory):
    for name, args in FIXTURES.items():
        assert run(["generate", *args, "--output", str(directory / name)]) == (0, "", "")
    for name, text in RAW.items():
        (directory / name).write_text(text, encoding="utf-8")
    for name, (source, index) in NEGATED.items():
        doc = json.loads((directory / source).read_text(encoding="utf-8"))
        doc["values"][index] = [-x for x in doc["values"][index]]
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def run_case(directory, name):
    tmp = str(directory)
    code, out, err = run([a.replace("{tmp}", tmp) for a in CASES[name]])
    return code, out.replace(tmp, "{tmp}"), err.replace(tmp, "{tmp}")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


def test_corpus_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(fixture_dir, name):
    assert run_case(fixture_dir, name) == GOLDEN[name]


def print_literals(names):
    """Print each named case's (code, stdout, stderr) as a ``GOLDEN`` entry,
    for pasting into this file; nothing is written to it."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        write_fixtures(directory)
        for name in names:
            code, out, err = run_case(directory, name)
            print(f"    {name!r}: (\n        {code},\n        {out!r},\n        {err!r},\n    ),")


if __name__ == "__main__":
    # python tests/test_cli_golden.py NAME...  (with charid importable)
    print_literals(sys.argv[1:])
