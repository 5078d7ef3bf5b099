"""Golden outputs: engine states and snapshots must stay byte-identical.

The digests below are SHA-256 of ``StreamState.to_json_str()`` and of the
compact, key-sorted JSON of the snapshot's ``sample_to_json``, for each
test stream style, each family at a small n, and eps 1/4 and 1/2.  They
were recorded before halvings started being skipped by the singleton error
bound, so a pass showed that skipping changes no output.  A change that
alters outputs on purpose must re-record them, and say so.

22 snapshot digests were re-recorded when every halving's coloring came to
be guided by projection prefixes, where halvings of at most 72 points had
been guided by every induced halfplane or quadrant subset, and when the
float precheck that skipped some halving attempts was deleted.  No state
digest changed.  ``SNAPSHOT_SIZES`` holds each case's snapshot size from
the code before that change, and a snapshot may not grow past it.

Two larger halfplane streams at eps 1/4 reach paths the small ones do not:
256 uniform points, whose snapshot halvings of more than 72 points were
guided by projection prefixes already, and the same stream mapped by
v -> 128*v + 3*2^27 into [2^27, 5*2^27], whose range sums ran on the exact
Python sweep while the int64 sweep stopped at |coordinate| 2^25.  Their
digests were recorded from an unmodified copy of the code before range
masks were decoded with numpy and before the int64 sweep was extended to
|coordinate| < 2^30, so a pass here shows both changes keep every output;
the guidance and precheck change kept them too.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from epsstream import Point2, StreamState, engine, make_config, sampler
from epsstream.engine import snapshot_of_exact
from epsstream.sampler import sample_to_json, singleton_error_bound
from epsstream.stats import (
    FitLine,
    lms_location,
    lms_regression,
    max_regression_depth_fit,
    regression_depth,
    simplicial_depth_estimate,
    slope_rank_estimate,
    theil_sen_fit,
    tukey_depth,
    tukey_median,
)
from streams import STYLES, make_stream

SIZES = {"halfplane": 48, "quadrant": 48, "disk": 32, "slab": 32, "wedge": 32,
         "dwedge": 32, "vpar": 12}
SEED = 31

GOLDEN = {
    ("halfplane", "uniform", "1/4"): (
        "ab58940ac00df03ab1c4f6293f505303889b2b7738d8cb7def2743ba4c32c22c",
        "186940e22804b2654c1ed6b13e607884502df2cd79f65d06d99a9382e3bad6b3"),
    ("halfplane", "uniform", "1/2"): (
        "771c9055ce9922e69a6925dae179bc08038122e5b5f556ed658c681957447d51",
        "86ab67293795dc33b90ef7ddc7ee343a84446da9d9105aa755dfaf8db705b9ed"),
    ("halfplane", "sorted", "1/4"): (
        "56bcabb97385833af88e08fb57dff8f51b777d2dbbde237841c59cc74e887a81",
        "eed94ac0b6ea3e44d73b3b8ea51a8950a666a6ccfa1dbf8072c0a10fbe21ceb5"),
    ("halfplane", "sorted", "1/2"): (
        "53fb1eeda44198ea4ab08ca8db3031a4916740afb9b4cebf0d806b9b6546ce3b",
        "2fbc768547e1cee9b56df0dbacbafb5d03a025baae972cb5d5c08dd85436252f"),
    ("halfplane", "clustered", "1/4"): (
        "f4fb7bd79eb9c1acc766eacdeb7e8c629990f0e006751f70a4d51cfbcdc96ef4",
        "39a38ee7ab700553f9a95cf82ef91d8292524921948bb81afe08478248cba675"),
    ("halfplane", "clustered", "1/2"): (
        "a62da1368aa6f60b1fdc78f1fc0739aca5deda9cc63eb20f76cb0d53ab26f2f3",
        "7c2af12b2eb6604698928dda7661b464d32f6751feaa92ede73e64db6fab1a10"),
    ("halfplane", "duplicates", "1/4"): (
        "1e5af5937e96b40e82bc707311893fc31cdaabeb9d6b946eee07a8ed877c0657",
        "65746f2cc3db7ef8cfd541dc7f8464a0e1f076a943fcf939edb36d612fb79b45"),
    ("halfplane", "duplicates", "1/2"): (
        "b23d3fe9b62e0782b424644f4b3d208f887575a944146d54306558e85caf9fc8",
        "65746f2cc3db7ef8cfd541dc7f8464a0e1f076a943fcf939edb36d612fb79b45"),
    ("quadrant", "uniform", "1/4"): (
        "0b316bf81d778a180ce9521ce156acd991bd46c269991f58305ce73c6ae91113",
        "ebeae70031a7d8cc1062b652ac3656d25afcc5e6679062d61140deba5e15c67a"),
    ("quadrant", "uniform", "1/2"): (
        "311d01b5fab8dcfdda4a34db7b01f94af5ae9b47f057e7cb5a92f73c1c15eda1",
        "a9fb35ff6cee53a124c2ed5a4c2c94f39163b348f0405271831a8769886207d0"),
    ("quadrant", "sorted", "1/4"): (
        "621890079f0f9a1b230f7a0d01e18caf9ba70a388eee1b04dbc62b1b8eaf5b57",
        "dfc9f12155be6f76e4f2acb8d5bb904e580f2707faff2a90a7444b94145c317c"),
    ("quadrant", "sorted", "1/2"): (
        "8041cacb6c3fc40e8cf088783b3a09167809f2e8a7eb69a6b7bc6eeaad8b6a62",
        "7a00ab236d11250964763cbdfdf129071a409d6c3878feb2d1611c83f641e6f4"),
    ("quadrant", "clustered", "1/4"): (
        "a26ddf0f8f888d0701d62a122f1e6c294f756ec24aff8c6ac572859b31880b28",
        "cf23fa525d2f85b8c6bdf86c60cedef375d078f10c59abac0441cc3be435fff7"),
    ("quadrant", "clustered", "1/2"): (
        "0db8dc7825b65faa41b41b376e7e10a9635f81e27b4375c57b8c9ab6990075e7",
        "cc377da3add53e1214b0ad76c80d52f06b96f9d68eb700d6c02f183145b73f42"),
    ("quadrant", "duplicates", "1/4"): (
        "f2803be80d50dc454a5781034425e598d6426ea677cda6be52297af7c04e0aaa",
        "3d7c633970b3f7419ff95bd1101950304ca54f39067fab0113f964f7b1e3bab6"),
    ("quadrant", "duplicates", "1/2"): (
        "05eb787d61c3e3c12592b996cc6d20798290943f9a46d167d14a3826ef190ca7",
        "3d7c633970b3f7419ff95bd1101950304ca54f39067fab0113f964f7b1e3bab6"),
    ("disk", "uniform", "1/4"): (
        "ba4e61a3809dd40e717f614a8960d55b704f2d9dfbfd2e11e0d496b14f9aa76f",
        "589dd9b65e5ebe2d5092877de73534f43659339d865c1e755e129565804ca2cc"),
    ("disk", "uniform", "1/2"): (
        "badf32807a0e138169a407779e9d9f1914ee69dfd46b91db0c9069dff37feae2",
        "4e2d8ca2608bfd7c3694ddcf5e79b2f502598599545821678659de9fc8815eb8"),
    ("disk", "sorted", "1/4"): (
        "d5c97a06ba90a900fe73342ba38eb2654c5155617d280de777333c74213315de",
        "fda51817641f1822dd1c554d6ff11e4e2237487bcbb12750479e1f0b7852ff64"),
    ("disk", "sorted", "1/2"): (
        "08497ecae4a53015508c95115acb328f87fa45bc3dd8e451ac1460bc5c015a3e",
        "577498486e6cef5e4717e4be6b6ec264889b35673092138c69015138e435bff7"),
    ("disk", "clustered", "1/4"): (
        "a476af9c29ba967780fdfa495d04c4429285f49231b8d1c6f2d9ea86bc86c83b",
        "679c32fc7545f36ab58eb2c0dea087ba3038c82c027d58d668e7aabc95d7431c"),
    ("disk", "clustered", "1/2"): (
        "d78bb1909b101adc1dd5c79c8f1e1775ca872603e8b489a814d498a2f7f4feae",
        "07ca32a235319052b4bbf368d3d3a39de80952380737e898bac50c372161fb24"),
    ("disk", "duplicates", "1/4"): (
        "a2e94cdfb6ca816b59335a5e4bfc66df023ed7c1505aa125c9af106886eb0b77",
        "f22ca021d3d4d59431b8d6e2223559b803beff25c2176d916a43f56c50fb60c7"),
    ("disk", "duplicates", "1/2"): (
        "f5060716544da746de5f90c0e4e074ac202325132c7b1233d3080fced5abbc52",
        "da06235f49aa84151b045f79d2fe4244b46ecf04143ba243066bde0621c5ef0f"),
    ("slab", "uniform", "1/4"): (
        "63ceb162b1b1af022a166c896e0c3372edc41ee8bfe967db923db116bf4b34c4",
        "8fcf3cb175d4dc64efe87ddb693285c68188a0a05625ea26312f426dc79e786d"),
    ("slab", "uniform", "1/2"): (
        "7948254228f557d3dfa295fb6030f6dce5a6786790f5388745834f29afb49a71",
        "d0ebca6aff5fffbe4d7c51c625fa8f2d8a41dab8ccd68e415adbd54b9490d57c"),
    ("slab", "sorted", "1/4"): (
        "c7fdb699d60a5190a84cefd600061aae2dac908a3dac2fb5789cac779ae50df5",
        "01e91ee8577d5925d17cdee1220660443c0e31c809e0d6bf2bba1e26ef1881c5"),
    ("slab", "sorted", "1/2"): (
        "3c6e3398b7956cfabc21176887514302fb09c44a708d611847de2dc00958f506",
        "19a2c81469d52d9c877e2901a4f9860f21e317c69313f98a6b1671fd3612ef18"),
    ("slab", "clustered", "1/4"): (
        "61fc918866cdcc7e6d1d8b26f1ecb23c3976c932032121cecbadd59dcd88afd9",
        "0342175f3e9412db0e887b985e3c740fdb239b57fb042d652207d7e527a86f70"),
    ("slab", "clustered", "1/2"): (
        "0fb528fa0d939c512d0f8065b58a6c326f35efbfde1c7eaf5c5e7981a1991fc7",
        "52e53b332e3002a13bc03b3e04726d036dac2336b0b68e690bf3157f4b46714e"),
    ("slab", "duplicates", "1/4"): (
        "babb347f3473fdf2f1771cf62efc9ff0f43e08cae4a5bded17c0a1f518ca3234",
        "065e18a75d9b117a43eb135c3f1ac0449dca906a768fecbdb3d28432e4a843f3"),
    ("slab", "duplicates", "1/2"): (
        "7ebdc57e8fb0c1856a1b248dcf75cedda7b6f9546f777a9b16eaa5e5e1d09d28",
        "6f8263c24dffb5feedc26f27bd7af2e74241fca09f46e2983422f26cfa982f8f"),
    ("wedge", "uniform", "1/4"): (
        "13c0fdb784c24531a9bb856662a675cce6be1e2d80338de62564942b9c1c5ea4",
        "d8ff251f2a7cc10dc7c3c74feabf0630314834e7845fa269b896156abad4539c"),
    ("wedge", "uniform", "1/2"): (
        "94a26f717ee0a3c995b74dc0d712e418a646bb12cd480ff0aa9c909726955809",
        "b191ede34547dd639889eb3b920f410155b27a6c1c47ce2d1f4df59c744a5482"),
    ("wedge", "sorted", "1/4"): (
        "0d218ba5e063e92a211206195448dfb9f4e0cf6e8057a6cdefe08a670416dc70",
        "e4729e0000fa849cc979b86ab94bdcc5a945eb79ec037bdca9417b8b217cd12e"),
    ("wedge", "sorted", "1/2"): (
        "6e00b52d423e56ffe26f7a09be44a17368cf8e2de67d68d70cbf186279382549",
        "975c7633bc054e7b7090d82ef96d21da55b0ca708245fe4a353795ba72246be2"),
    ("wedge", "clustered", "1/4"): (
        "99236b3c8f5573f84a2dad1165fe329f0a423a53a92311ac34245e287df9fddc",
        "102125600016ff37363e1815410d33e0a09fac56c0eb5b27a9020ce79bcc09e6"),
    ("wedge", "clustered", "1/2"): (
        "1e6db4afc68a37c6d7ef715f51258debc06ae352263cabdb0ba806c720c59a94",
        "caf82d3dfe9df0c945ed8e05c44dfd59e99b77ae09ba515f2fc8b1ab9f2d85a8"),
    ("wedge", "duplicates", "1/4"): (
        "322e3711aa4b197e2478dd650b027c141d1a9a0d9913c0f0bbfaeb1df695126d",
        "b81584d9af0a02790a4c7c9b6a9336d1690169547e4b0c343bc43f8100349122"),
    ("wedge", "duplicates", "1/2"): (
        "ad05e31e6cb26052e3be93c5d882e2ecd15890b1a1b1bf2ee32fe094243fb547",
        "b81584d9af0a02790a4c7c9b6a9336d1690169547e4b0c343bc43f8100349122"),
    ("dwedge", "uniform", "1/4"): (
        "e5a3e36fa323e7097b6e20872f3b57ca10eb13d85ff27a4b12a9c3ddde7acd04",
        "b0834e85801d626865531816fcaaef75cd11abaa376f5adb95437f2f52709da4"),
    ("dwedge", "uniform", "1/2"): (
        "262d4c8f80c464a2906122e028d47a4865bf34ee2b6be2d280935f887077187c",
        "2bfd4118939acf1af9cf6c69b366feaabba8de1c098affc558c4e8b6ef3abab8"),
    ("dwedge", "sorted", "1/4"): (
        "ad81ce984b6ed7f05a1ff08b78fbfeb52d1d483b0e117382a251df91138cdde8",
        "705e4afe7e63a99871e5c52c1d1493595147d0e0e358b7d96c2c8bdaadfd9747"),
    ("dwedge", "sorted", "1/2"): (
        "5ca09ad69702ab5b7890d28f73d0e33ad91ad01b3765f7fd61951248900e699a",
        "f68936aa584b0b252491cbd5c42872f34b9230df1c18b77f515ac03714a44bf9"),
    ("dwedge", "clustered", "1/4"): (
        "90ef0cd7d88f60b906ad952243f46a6aacaad03d6bfc67ec4d6dc31f1477f8a8",
        "747b681a99b5caa7707698d327828f27088df7680d3ac688b2a27a05c20e0a16"),
    ("dwedge", "clustered", "1/2"): (
        "915ecb2321b10384a8bacced044e375043007423e305a3a2a8c7edad43e4b04c",
        "44808661dc6565221291f10735a1f850ca7246edb4088bf9ae71e6c9ac4fd8f6"),
    ("dwedge", "duplicates", "1/4"): (
        "1c729caf60597e603d23d884c75ee997c60a96a9224e8910f9dc2fdf86b59d0c",
        "3dcc33d1b6a917e78aac7e5980a8f2c6620feb34e5ba9262ce04e7e2995e6840"),
    ("dwedge", "duplicates", "1/2"): (
        "b75c946855af0ff619b290b1ee321bedeccf648094f43eede90fa3963a8896b7",
        "3dcc33d1b6a917e78aac7e5980a8f2c6620feb34e5ba9262ce04e7e2995e6840"),
    ("vpar", "uniform", "1/4"): (
        "8124ac28e50cbdf2c06c43cb218ad7b3f1b5a72d7f0a06758b260d86983aaf4b",
        "f96c222770eaa5d47cf6e44f38c77b2111411fdf5e8b26710a9677ab6f347e17"),
    ("vpar", "uniform", "1/2"): (
        "d02a9534d340202f8a78c443b697545eb398cffedbd3e4a7d79aa1c8b36d1c54",
        "dc8a463e5fb16bc8efd7d2c8e641a936e91dd8f1cef5ac6b2ffeb1f514062362"),
    ("vpar", "sorted", "1/4"): (
        "b35e80cae797dadb4bbcd6237a9520c943a1443f60dd0217ddac9ab44b9506c1",
        "61ca093d39263d1c16c363dd271f864c708de069aaed88dd5d7eae70bbf5e606"),
    ("vpar", "sorted", "1/2"): (
        "2ff45a870663cea26c28aff5338562278c15694cd94f54024e243a5c5dff21f0",
        "61ca093d39263d1c16c363dd271f864c708de069aaed88dd5d7eae70bbf5e606"),
    ("vpar", "clustered", "1/4"): (
        "3f5b7e4514d287f13b9bf74d9dcb49491fb8511be127cba9880a23e08286d855",
        "1656f9a30277eaae3c4377fad3a680f152a3b30882e95f60e5e363e0ac9d5d10"),
    ("vpar", "clustered", "1/2"): (
        "c847ee205441e77f608239b13bedb02773bd1bd7c8af1ad09a599d36f9c626a1",
        "1656f9a30277eaae3c4377fad3a680f152a3b30882e95f60e5e363e0ac9d5d10"),
    ("vpar", "duplicates", "1/4"): (
        "6cf8c932d739f7575d74025a8610132e4aa1f1e306e90183e74d8b0a79afbf9c",
        "80b614c5e6c1db107b0156cb4aeb74af94d34f5ed9c7982fcb40db4ea0183f06"),
    ("vpar", "duplicates", "1/2"): (
        "c59384badb38e5ff95edd33c57ad92531e733ffb73f45e2c0d7d2844a486e1c8",
        "80b614c5e6c1db107b0156cb4aeb74af94d34f5ed9c7982fcb40db4ea0183f06"),
}

# Snapshot sizes before projection prefixes guided every halving, per
# family and style at eps 1/4 and 1/2; a re-recorded digest may not grow them.
SNAPSHOT_SIZES = {
    "halfplane": {"uniform": (24, 12), "sorted": (24, 12), "clustered": (24, 12),
                  "duplicates": (24, 12)},
    "quadrant": {"uniform": (24, 12), "sorted": (24, 12), "clustered": (24, 12),
                 "duplicates": (24, 12)},
    "disk": {"uniform": (32, 16), "sorted": (32, 16), "clustered": (32, 16), "duplicates": (16, 8)},
    "slab": {"uniform": (32, 16), "sorted": (32, 16), "clustered": (32, 16), "duplicates": (16, 8)},
    "wedge": {"uniform": (32, 16), "sorted": (32, 16), "clustered": (32, 16),
              "duplicates": (16, 16)},
    "dwedge": {"uniform": (32, 16), "sorted": (32, 16), "clustered": (32, 16),
               "duplicates": (16, 16)},
    "vpar": {"uniform": (12, 6), "sorted": (12, 12), "clustered": (12, 12), "duplicates": (6, 6)},
}


def _wide(points):
    return [Point2(128 * p.x + 3 * (1 << 27), 128 * p.y + 3 * (1 << 27)) for p in points]


GOLDEN_LARGE = {
    "uniform-256": (
        lambda: make_stream("uniform", 256, seed=SEED),
        "e4b67edc4bf9dc2100c3cbcfaee4148d0396e96a0882a78ff503ad1beff976a1",
        "13cfb0dcd34eb4c82b056c506395f422006933d7a69e5cb1f254edc3956c8348"),
    "wide-256": (
        lambda: _wide(make_stream("uniform", 256, seed=SEED)),
        "d3f217d7545085c5d80305f546903035865471337dc527c075b8e7e75e02ed3c",
        "737147c448c0a9e444601a767db1dc2b28999b3ccccefd16d3921cd29c4acf69"),
}
LARGE_SNAPSHOT_SIZES = {"uniform-256": 64, "wide-256": 64}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(fam, eps, points):
    """The snapshot's size, then the state and snapshot digests."""
    state = StreamState(make_config(Fraction(eps), fam)).extend(points)
    snap = state.snapshot()
    blob = json.dumps(sample_to_json(snap.sample, snap.family), sort_keys=True,
                      separators=(",", ":"))
    return len(snap.sample), _sha(state.to_json_str()), _sha(blob)


@pytest.mark.parametrize("fam,style,eps", sorted(GOLDEN))
def test_outputs_match_golden_digests(fam, style, eps):
    points = make_stream(style, SIZES[fam], seed=SEED)
    size, *digests = _digests(fam, eps, points)
    assert size <= SNAPSHOT_SIZES[fam][style][("1/4", "1/2").index(eps)]
    assert tuple(digests) == GOLDEN[(fam, style, eps)]


@pytest.mark.parametrize("name", sorted(GOLDEN_LARGE))
def test_large_halfplane_outputs_match_golden_digests(name):
    points, state_digest, snapshot_digest = GOLDEN_LARGE[name]
    size, *digests = _digests("halfplane", "1/4", points())
    assert size <= LARGE_SNAPSHOT_SIZES[name]
    assert tuple(digests) == (state_digest, snapshot_digest)


@pytest.mark.parametrize("fam", sorted(SIZES))
def test_reductions_roll_back_at_most_one_halving(fam, monkeypatch):
    """A reduction stops at the reduce size, at the singleton bound, or at
    its first rolled-back halving; no other rule skips an attempt."""
    real_reduce, real_halve = engine.reduce_with_budget, sampler.halve
    calls = []

    def halve(sample, fam_):
        out = real_halve(sample, fam_)
        calls[-1].append(out[1])
        return out

    def reduce_with_budget(sample, fam_, budget):
        calls.append([])
        current, spent = real_reduce(sample, fam_, budget)
        errors = calls[-1]
        if sum(errors) > budget:  # the last halving was rolled back
            assert spent == sum(errors[:-1])
        else:
            assert spent == sum(errors)
            assert (not 2 <= len(current) <= fam_.reduce_size
                    or singleton_error_bound(current) > budget - spent)
        return current, spent

    monkeypatch.setattr(sampler, "halve", halve)
    monkeypatch.setattr(engine, "reduce_with_budget", reduce_with_budget)
    for style in STYLES:
        for eps in ("1/4", "1/2"):
            StreamState(make_config(Fraction(eps), fam)).extend(
                make_stream(style, SIZES[fam], seed=SEED)).snapshot()
    assert any(calls), "no reduction halved anything"


# Statistics on fixed snapshots: the nine estimators, each on reduced
# snapshots of three stream styles (weighted Fraction support), on one
# exact snapshot with duplicates and a collinear run, and on an exact
# lattice snapshot; the depth statistics also probe Fraction query points.
# The digest is SHA-256 of the outputs' reprs, one per line.  Recorded from
# an unmodified copy of the code before Tukey depth moved onto the
# halfplane apex sweep and the statistics' private direction, collapse and
# depth helpers were replaced by the shared ones; the lattice digests were
# recorded before regression depth moved onto one column sweep and the
# slope statistics onto one pair-slope table.  The halfplane uniform and
# duplicates digests were re-recorded with the snapshot digests above, and
# ``STATS_SNAPSHOT_SIZES`` holds the reduced snapshots' sizes from before.

STATS_STYLES = ("uniform", "clustered", "duplicates")
STATS_SIZES = {"halfplane": 64, "wedge": 32, "dwedge": 16, "vpar": 12, "disk": 24, "slab": 32}
STATS_SNAPSHOT_SIZES = {  # one size per style of STATS_STYLES
    "disk": (24, 24, 12),
    "dwedge": (16, 16, 8),
    "halfplane": (32, 32, 16),
    "slab": (32, 32, 16),
    "vpar": (12, 12, 6),
    "wedge": (32, 32, 16),
}

# exact snapshot: a collinear run, coincident points and a few off-line points
_EXACT_STATS_POINTS = ([Point2(3 * i, 2 * i - 5) for i in range(-3, 5)]
                       + [Point2(0, -5), Point2(0, -5), Point2(6, -1), Point2(6, -1)]
                       + [Point2(-7, 4), Point2(8, -9), Point2(1, 7), Point2(-2, -8)])

# lattice snapshot: distinct points sharing an x (vertical pairs), tied pair
# slopes, collinear triples on every row, column and diagonal, two doubled points
_LATTICE_STATS_POINTS = ([Point2(x, y) for x in range(-2, 3) for y in range(-4, 1)]
                         + [Point2(0, -2), Point2(2, 0)])


def _stats_snapshots(fam):
    for style in STATS_STYLES:
        points = make_stream(style, STATS_SIZES[fam], seed=SEED)
        yield style, StreamState(make_config(Fraction(1, 4), fam)).extend(points).snapshot()
    yield "exact", snapshot_of_exact(_EXACT_STATS_POINTS, make_config(Fraction(1, 8), fam))
    yield "lattice", snapshot_of_exact(_LATTICE_STATS_POINTS, make_config(Fraction(1, 8), fam))


def _probe_points(snap):
    pts = snap.sample.points
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    mid = Point2(xs[len(xs) // 2], ys[len(ys) // 2])
    return [mid, pts[0], pts[len(pts) // 2], pts[-1],
            Point2(Fraction(pts[0].x + pts[-1].x, 2), Fraction(pts[0].y + pts[-1].y, 3)),
            Point2(xs[-1] + 1, ys[0]), Point2(0, 0)]


def _tukey_outputs(snap):
    median, dv = tukey_median(snap)
    out = [(median, dv)]
    out += [tukey_depth(snap, q) for q in _probe_points(snap) + [median]]
    return out


def _simplicial_outputs(snap):
    return [simplicial_depth_estimate(snap, q, delta)
            for q in _probe_points(snap) for delta in (None, Fraction(1, 8))]


def _regression_outputs(snap):
    lines = [FitLine(Fraction(0), Fraction(0)), FitLine(Fraction(1, 2), Fraction(-3)),
             FitLine(Fraction(-2), Fraction(7, 3))]
    fit, dv = max_regression_depth_fit(snap)
    return [regression_depth(snap, line) for line in lines] + [(fit, dv)]


def _slope_outputs(snap):
    ranks = [slope_rank_estimate(snap, s) for s in (Fraction(0), Fraction(1, 2), Fraction(-3))]
    return ranks + [theil_sen_fit(snap)]


STATS_OUTPUTS = {
    "halfplane": _tukey_outputs,
    "wedge": _simplicial_outputs,
    "dwedge": _regression_outputs,
    "vpar": _slope_outputs,
    "disk": lambda snap: [lms_location(snap)],
    "slab": lambda snap: [lms_regression(snap)],
}

GOLDEN_STATS = {
    "disk": {
        "uniform": "7101638b145a6940b593e7c7f7c32c0bd40f9dc32282a5ecea7f75fc6226e0b7",
        "clustered": "dbd37f5b573f7c99a0b3d70a24726595ce9f04a99d970219740906a85024880c",
        "duplicates": "a480b2e7f1947cba1b4fcd318960c9aad0474c2aff9bfab266bd152c00bdf12f",
        "exact": "3ef8ec9e6b6906f0bd16e3a68b3f84ec659d7c43b992e8c015ab05a2e446b0ad",
        "lattice": "3f02b193ff7922e130cc427d7aedc42b9f2557d1714ced2d5b692084fc4928b6",
    },
    "dwedge": {
        "uniform": "3fc1b63a48389b7ceb63db05f56634cc5d1c30674118ca44e4503725fedbec32",
        "clustered": "35e64436692f3d7ff768acafdcf8a39f097f56950a2d1f4ff0772daac1952e5f",
        "duplicates": "47db4c404b7c52f20e4b5944c71652fab76a5048fd50e89c9e016ec0f3654d5f",
        "exact": "ed534d94e503e10c3665a7f51ad2d50236ea44c673c61c77dc236a2481b2111d",
        "lattice": "a174933519b9714c4d28784930a40d89f9bbb2dae7ea9033f5ef7152996c5696",
    },
    "halfplane": {
        "uniform": "ee9f01614d26702ed6ba8c587f0d6f34a794979e3c512c1e8bb50cfa3e0915a4",
        "clustered": "904edea547b0a1ce56b230f94f05d8e0744a12dbce828bda31a8663a04045c16",
        "duplicates": "4d17755fef41bb47c471c0b64fb5e473e4e146c724175bbf595c54e24868fe70",
        "exact": "f7ff05848be9b0778fff49b23d09b29969cd63b4d6dc95d1ccdcb7ca850e1e98",
        "lattice": "106a326b802e28e814311a2833676f5ca14873750802fffc2b097d293043ffc6",
    },
    "slab": {
        "uniform": "8b032c738322346192af9c2d488bad5d460fa21f4298c5e90c3073593884ec05",
        "clustered": "9ec71f0d15a939185c81c3a21eb76afb6ccf8795e7d03c96d76473f59a06e086",
        "duplicates": "f7289be3a7daf623802d4885d3524370cca6af1badca70a24998278e5a396e6f",
        "exact": "709d7d414dca51631b3f385a45a1ebb32127952e42a5cb8bd0e992e7da9906fe",
        "lattice": "c690d8bcee8fdc7b5cd7be955028145d7df9e6ee41f1cc8bd25d78439a4a7c0d",
    },
    "vpar": {
        "uniform": "18ea421a57b5b1f8f01da731e2c19d246ac846f05825846ec60d7db275c859cf",
        "clustered": "b382487c3ba086d18b26376bf97684fcbf58eb126f54fb92dc10d12786bd2f79",
        "duplicates": "840e9c343e143b309756f751ec3bb53cb9177cced04c7c6addeb0f01d8f8aba4",
        "exact": "03f3f87d2de7a274d3f438649a3a69c0394fef179e71467414287bf825d551eb",
        "lattice": "3f85500b96ac8912fbce78682f42115bc9c2ca3569193e7c705942b34850d9f0",
    },
    "wedge": {
        "uniform": "7bc68337799724039ac6ce90583b7879687d5955f0abb1ffbba278607033e628",
        "clustered": "31f88e9f5222109504d86319c85bc4649d106e795201c345b3d0a2a73dc02cfd",
        "duplicates": "f0e170efd4ceac4cf93ccd67d0d2004f943c05218d44552a4b494cc3c0f9752e",
        "exact": "af3029f22af7ff222d6c78799105ef0edad6c9b0ba7b1924bc0a444d7c2dff6c",
        "lattice": "68e1c3765b67a769e5cc60ed45205e51f4f39035269cce3652cb3b5dd2245606",
    },
}


def _stats_digest(fam, snap):
    return _sha("\n".join(repr(v) for v in STATS_OUTPUTS[fam](snap)))


@pytest.mark.parametrize("fam", sorted(STATS_OUTPUTS))
def test_statistics_match_golden_digests(fam):
    snaps = dict(_stats_snapshots(fam))
    for style, cap in zip(STATS_STYLES, STATS_SNAPSHOT_SIZES[fam]):
        assert len(snaps[style].sample) <= cap
    digests = {style: _stats_digest(fam, snap) for style, snap in snaps.items()}
    assert digests == GOLDEN_STATS[fam]
