"""Golden CLI output: the sha256 of the schema-1 stdout of ``coeffs``,
``invert``, ``oracle``, ``identity`` and ``list``.  The ``coeffs`` and ``invert`` entries were
frozen from the fixed-point solver and the power-table reversion that came
before form A and the one-power walk, so a rewrite of the series kernels
must reproduce every coefficient byte for byte.  The order-200 sparse
rational and order-120 exp entries were frozen from the Fraction power
walk and Horner composition that came before the integer walk and the
baby-step/giant-step composition.  The order-200 entries of degree 0, 2,
3 and 4 (``2``, ``one-plus-t-squared``, ``1,1,1``, ``1,3,3,1`` and
``1,1/2,0,0,-1/3``) were frozen from the full power walk, before each
power was formed only on the entries a later coefficient reads.  The
two order-200 csv rows and the ``--k 150`` and ``--k 250`` rows (k above
the order: every row is 0) were frozen from binary powering of f and the
Fraction-built rows, before ``coeffs`` read f^k from the power walk and
wrote each row from the stored form.  The
``oracle`` entries were frozen from the edge-subset scan for trees, the
multi-pass Prufer checks and the sorted-entry ordered census, so a
rewrite of the tree searches must reproduce every row.  The ``identity``
and ``list`` entries were frozen while each command still wrote its own
JSON and CSV, before the commands shared one writer per format."""

import hashlib
import io

import pytest

from lagrange_kit import cli

# (command line, sha256 of stdout)
GOLDEN = [
    ("coeffs --R exp --k 1 --order 30 --format json",
     "2ac96a0b01d76789f1a5bd89d05cc5bf054a0044d3d8ab415a709e0c94e89ab1"),
    ("coeffs --R exp --k 2 --order 30 --format json",
     "905190a8c9230d7998e2e0d0e9c877a12ccd137a0ff39315b04edfff77c41cb6"),
    ("coeffs --R exp --k 3 --order 30 --format json",
     "ea547a145eec6ad049225ca25760a0aa27f99d4edc1ab11b5ccb16f19609791f"),
    ("coeffs --R exp --k 1 --order 60 --format json",
     "70b298472effa015580634ac2ea98a8527545ceb26099d12e36a71176f19ec37"),
    ("coeffs --R exp --k 2 --order 60 --format json",
     "948b515b5b80aefac28596941742b6d37239774d67c55bf400aabb1171cf23ea"),
    ("coeffs --R exp --k 3 --order 60 --format json",
     "e76788a368f5d20f5ff87214a43a2197a66bd7b069575ffe5461da0b95abd5f6"),
    ("coeffs --R geom --k 1 --order 30 --format json",
     "9fce4acd0f1f01263222f355b93640ddc8401ca56a30371e68534ffc534df141"),
    ("coeffs --R geom --k 2 --order 30 --format json",
     "14c392ec9f392ef1fecab91512ad67b41cb3a244290a12b9880dda709fe11eb6"),
    ("coeffs --R geom --k 3 --order 30 --format json",
     "678b1114f0a7c7fa393723b5c42ad726e430f06b11eeef9bcc05236149fde900"),
    ("coeffs --R geom --k 1 --order 60 --format json",
     "fdfdf8d8ee15e2e5661b6c6a3f87ffefe761963a1f4e26b23a2153857c13be9f"),
    ("coeffs --R geom --k 2 --order 60 --format json",
     "5ddfb8ade06989abc1b7b4dcc35d54621861d279aaeb67a903f24197cebe64b1"),
    ("coeffs --R geom --k 3 --order 60 --format json",
     "e41c757cfbb27fdf71ceba15b972be0d7273e446f371b93b8df450ea81fd11e9"),
    ("coeffs --R one-plus-t-squared --k 1 --order 30 --format json",
     "632a3e1f948b117254ea26851ed5d0f9a07ba727d89a1d06dde786b7fbc61a2b"),
    ("coeffs --R one-plus-t-squared --k 2 --order 30 --format json",
     "657b927d4aaa9a1d494b4c18dd2f0b879c2956e890fb0f2e0f8536c29046907f"),
    ("coeffs --R one-plus-t-squared --k 3 --order 30 --format json",
     "4fcf97172cec47e6aebdc8fb3943ab2db7b10aa6d15b239bd0c5a6f5789e151d"),
    ("coeffs --R one-plus-t-squared --k 1 --order 60 --format json",
     "09559ead041e34515f3f4009f3a8aedafd8acc3c6e53d5ebb8fad5183752b5f3"),
    ("coeffs --R one-plus-t-squared --k 2 --order 60 --format json",
     "b011dca32c76b8aa1c0bd60866569d1e31f2679a45cad5303fbe90dedcf663c1"),
    ("coeffs --R one-plus-t-squared --k 3 --order 60 --format json",
     "f3a6344022a718f037a64ac6f32d0a9203330babf3cfec627fb24bc06ae94157"),
    ("coeffs --R 1,0,0,1 --k 1 --order 30 --format json",
     "bdd3013a1401beb7183bd08a7770a9db0bf38dbe6fc2e52f4a226d8cae079a2e"),
    ("coeffs --R 1,0,0,1 --k 2 --order 30 --format json",
     "9d418908225fc205109c7b35e65c3f83ab7fe29c6482a665ef0e36c55842b9fb"),
    ("coeffs --R 1,0,0,1 --k 3 --order 30 --format json",
     "a9d9702d90b0ab5bf71c5981f58163a3829f943f0565a8e986aacac0feacb7ff"),
    ("coeffs --R 1,0,0,1 --k 1 --order 60 --format json",
     "798c70b4a4e8b79862c3330c7e836b1665826fe7cc21878aed09ce7cb88693ad"),
    ("coeffs --R 1,0,0,1 --k 2 --order 60 --format json",
     "b95718c8e83714c26ea6e561acd3608b5bc4830345535cf5b7a5d45d6e695464"),
    ("coeffs --R 1,0,0,1 --k 3 --order 60 --format json",
     "b5aae2c8ef6bb11f29c15497ef5936e2538f40877d5506531e692f7ca0ef2f8c"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 1 --order 30 --format json",
     "668885f58c24c395f107a8b8642aeaea1205ebb46c9c47daf8654a0c79589fde"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 2 --order 30 --format json",
     "b7a06f471814f122b1c82a371108953df55f96a771f871bdf58849af5377584a"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 3 --order 30 --format json",
     "7819732d7e8d9f4a57c7243ac58b31264aeabfa1ec9be33cd110c5c90fbff7df"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 1 --order 60 --format json",
     "bc956634f51d2b30f43f1cbc95343387235807838d4c2535fb19efea8b22cc6c"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 2 --order 60 --format json",
     "27b5b42b9efe19a751fe61874c76450028bc02075aea55c05fbbe5ef6a12cb89"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 3 --order 60 --format json",
     "0c44ba4ed312f5f031f5328dd75f8738425ed112ab096e0dc294ba5718ebb894"),
    ("coeffs --R 3,-2/3 --k 1 --order 200 --format json",
     "95d879206c8200bae0e4c8c61163eaaf42353cb200a4fbef47326b263672a063"),
    ("coeffs --R 3/2,3 --k 3 --order 200 --format json",
     "7d4f1591ac9da353c868e2cd7822ce5a555362c6588e42845961b844f83b4fb4"),
    ("coeffs --R exp --k 2 --order 120 --format json",
     "3d6fbe7d634064556017b8a2db5e9de3710d3cb26e968c340027f7ae710d1504"),
    ("invert --R 0,1,1 --order 30 --format json",
     "308f97187b374e62e8128f9ee1035aaf6e5f6f4fa54b252cff7c3afaadcdf294"),
    ("invert --R 0,1,1 --order 120 --format json",
     "97a196137cdc224f1ba53f60fa70150579f4ecaaa9e3ed77f15e3665de48b529"),
    ("invert --R 0,1,-1,1/2 --order 30 --format json",
     "5304e110c0fabc82f18d4d6e1055bf628f673dbe96be05e8be8c165118e992ab"),
    ("invert --R 0,1,-1,1/2 --order 120 --format json",
     "48faf012435f7cd80681272275f993ec80c23bb9d1c4100aa6dbdb1ade6a7f91"),
    ("invert --R 0,1,1/2,1/6,1/24 --order 30 --format json",
     "1476b8754d88c48ab1c775d7c134e07bfc14494f318338e5fc16c32dfecb0ff9"),
    ("invert --R 0,1,1/2,1/6,1/24 --order 120 --format json",
     "85b4de2e1aa77cbb726b9640004712d5fd98787e2e972e65594fe3c684f55e98"),
    ("coeffs --R 2 --k 1 --order 200 --format json",
     "a476e4582bdea327dcd1dfa77a421d1ca3000f4772f8eeda3a37ad55e9c20edd"),
    ("coeffs --R one-plus-t-squared --k 2 --order 200 --format json",
     "bf7d19e0f21ab69625cef4cb90692c0bf1cf108e0a9cb69127c2cd907e2db598"),
    ("coeffs --R 1,1,1 --k 1 --order 200 --format json",
     "872bcd9c1616633195a4e9f30e3405b2876722b608d8ff8fccb049a647eba1c5"),
    ("coeffs --R 1,3,3,1 --k 2 --order 200 --format json",
     "7621e7e1a3a4366e9d35c4adf075381be20ee35ff532b25dbc2c4be7cbd47085"),
    ("coeffs --R 1,1/2,0,0,-1/3 --k 1 --order 200 --format json",
     "cc620e8d7318fa8c2ba57a9b6548eea57707a2dd9312cb300e21e74d2a1298f6"),
    ("coeffs --R 3,-2/3 --k 1 --order 200 --format csv",
     "a1047ae5d6942c493b8f18fc6044c0d3df594ffdeb8bd66fb4fcf57cb9bfb55f"),
    ("invert --R=0,1,1/3,-2/3 --order 200 --format csv",
     "cca45af6aacdba4b0ae3e7b493bcad333c771abe334e9ab0df4d2e729e43ac9f"),
    ("coeffs --R=2/3,-3/2 --k 150 --order 200 --format json",
     "5c5078b252b850f20f5c3758009255b94569edf2b47198424d48411b774d9ec6"),
    ("coeffs --R 1,1,1 --k 250 --order 200 --format json",
     "ad76de3f23d90120ba5a6719624f1445cd9a6e43dff07a2a96bdc934ef633f1d"),
    ("oracle ordered-forest --n 12 --k 3 --format json",
     "a594ebebe71937a2285237798ee492a345f27bae0ce58109b98cc462877d5281"),
    ("oracle ordered-forest --n 12 --k 3 --format csv",
     "1d144d8c946a2ae5f94f92e670fd5a927794534bd08b8a9b99a9c21420f30065"),
    ("oracle labeled-forest --n 7 --k 2 --format json",
     "692bbe747b83f429356b52034aa2f0a9d47fc014bd35cbdd86b90eb0d7bd5b32"),
    ("oracle labeled-forest --n 7 --k 2 --format csv",
     "4cf02eb901b3be6cd6e31576455c9bc6f39f10ba7aad161a34d5f92bef23d7d2"),
    ("oracle prufer --m 7 --format json",
     "eb64b33fd82ee2e5c93f140faa10d830b6ced2325d3695953d44d843ec209e81"),
    ("oracle prufer --m 7 --format csv",
     "cd499d20d172319789d6155e925b89d6597fff44855596116ec74c196803b2d8"),
    ("oracle degree-trees --m 7 --format json",
     "0b2975ea5cc5ffc25ff32d2773016ce35430aaf30c210b47636abf10cf2005f8"),
    ("oracle degree-trees --m 7 --format csv",
     "50e98abe82c540f68a646ba6aa48ed409973a88df91f6aa7d088007654482b79"),
    ("oracle cycle-lemma --len 8 --format json",
     "3cc9c7937d7f34a1470bc209c13f4c67c2fd3d94037871aa9e2a6d17d233141b"),
    ("oracle cycle-lemma --len 8 --format csv",
     "6e9a4e9e0c25b913139ae58d0b288d040dab32b68208fc7c2c6fb6e5d4f520bd"),
    ("identity catalan --format json",
     "7653e857c52fb7873ad65ef719678758932bd21318234280146f56e6442abf5e"),
    ("identity catalan --format csv",
     "ad44ac04b7b8ccd6ef3cb56ccee10ab626860e88fae0de0e8d3b21f6b3468e51"),
    ("identity fc-polynomial --p 2 --i 2 --j 1 --format json",
     "b947e43a71bc97014b1e4fe4b16a155765dcb22218b63689f7187ad18c5dfdb9"),
    ("identity r-m --format csv",
     "fb028b5548854b475d27ba017cc055afbc95dcfc4ddfcfe640b912b851df07c8"),
    ("list --format json",
     "7c0c410506e16e390644df9683eddae1ee123dcd8010f3323ad0102e137f4e24"),
    ("list --format csv",
     "c2d2ba59bf55fd05752b62ac7688dfd6e213987feeb489c628d68591e9b5d589"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_matches_golden(command, digest):
    out = io.StringIO()
    assert cli.main(command.split(), out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
