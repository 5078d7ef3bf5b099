"""Golden outputs: engine states and snapshots must stay byte-identical.

The digests below are SHA-256 of ``StreamState.to_json_str()`` and of the
compact, key-sorted JSON of the snapshot's ``sample_to_json``, for each
test stream style, each family at a small n, and eps 1/4 and 1/2.  They
were recorded before halvings started being skipped by the singleton error
bound, so a pass here shows that skipping changes no output.  A change that
alters outputs on purpose must re-record them, and say so.

Two larger halfplane streams at eps 1/4 reach paths the small ones do not:
256 uniform points, whose snapshot halvings are guided by projection
prefixes (more than 72 points), and the same stream mapped by
v -> 128*v + 3*2^27 into [2^27, 5*2^27], whose range sums ran on the exact
Python sweep while the int64 sweep stopped at |coordinate| 2^25.  Their
digests were recorded from an unmodified copy of the code before range
masks were decoded with numpy and before the int64 sweep was extended to
|coordinate| < 2^30, so a pass here shows both changes keep every output.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from epsstream import Point2, StreamState, make_config
from epsstream.engine import snapshot_of_exact
from epsstream.sampler import sample_to_json
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
from streams import make_stream

SIZES = {"halfplane": 48, "quadrant": 48, "disk": 32, "slab": 32, "wedge": 32,
         "dwedge": 32, "vpar": 12}
SEED = 31

GOLDEN = {
    ("halfplane", "uniform", "1/4"): (
        "ab58940ac00df03ab1c4f6293f505303889b2b7738d8cb7def2743ba4c32c22c",
        "a83809acd6d4d3f98d96d4e459f0fc22301b7e7faf1207d552f743a2c8b77bff"),
    ("halfplane", "uniform", "1/2"): (
        "771c9055ce9922e69a6925dae179bc08038122e5b5f556ed658c681957447d51",
        "930cb1e61659da972759c4f4ca128bbed44321a8c5ff6ef0ba453888be5b0444"),
    ("halfplane", "sorted", "1/4"): (
        "56bcabb97385833af88e08fb57dff8f51b777d2dbbde237841c59cc74e887a81",
        "74e7aa26cf15153f5add63c9aebbace95f44b99e1f820f4983116ea7b9ca242d"),
    ("halfplane", "sorted", "1/2"): (
        "53fb1eeda44198ea4ab08ca8db3031a4916740afb9b4cebf0d806b9b6546ce3b",
        "7b6f5fe3b6d7ae786cbc27ce26ffe172a991005c4b95ee1c0b077bbe91eae355"),
    ("halfplane", "clustered", "1/4"): (
        "f4fb7bd79eb9c1acc766eacdeb7e8c629990f0e006751f70a4d51cfbcdc96ef4",
        "39a38ee7ab700553f9a95cf82ef91d8292524921948bb81afe08478248cba675"),
    ("halfplane", "clustered", "1/2"): (
        "a62da1368aa6f60b1fdc78f1fc0739aca5deda9cc63eb20f76cb0d53ab26f2f3",
        "71c682a68a8a875c433c3d33f31498200a9247a22224a5c444c122814c857339"),
    ("halfplane", "duplicates", "1/4"): (
        "1e5af5937e96b40e82bc707311893fc31cdaabeb9d6b946eee07a8ed877c0657",
        "e8bbf1fc281434eb4ffaf8d8a9b36ff0ad5abe2b3b9a7b02793791047d0d32ea"),
    ("halfplane", "duplicates", "1/2"): (
        "b23d3fe9b62e0782b424644f4b3d208f887575a944146d54306558e85caf9fc8",
        "592a2273381700a6f271021dd68ef34c1366d4c07e881622767ebef16ab53242"),
    ("quadrant", "uniform", "1/4"): (
        "0b316bf81d778a180ce9521ce156acd991bd46c269991f58305ce73c6ae91113",
        "e120cf8135a870fcdba6683a462fd605fe68c16c8520b2fe45e8eec8596a7eb0"),
    ("quadrant", "uniform", "1/2"): (
        "311d01b5fab8dcfdda4a34db7b01f94af5ae9b47f057e7cb5a92f73c1c15eda1",
        "3faa0de866470f31b871b74acf9da44ee64c75cbdba806baf8e50daf91a86822"),
    ("quadrant", "sorted", "1/4"): (
        "621890079f0f9a1b230f7a0d01e18caf9ba70a388eee1b04dbc62b1b8eaf5b57",
        "a3c2987c9a319bac4c4021743ee075cc0c8d6ccac397eef7b31148dd8ff8cbe6"),
    ("quadrant", "sorted", "1/2"): (
        "8041cacb6c3fc40e8cf088783b3a09167809f2e8a7eb69a6b7bc6eeaad8b6a62",
        "165e508684bf0b6135c11b22ba38185bfb23eb59e544f1ff9218f7b41c66f784"),
    ("quadrant", "clustered", "1/4"): (
        "a26ddf0f8f888d0701d62a122f1e6c294f756ec24aff8c6ac572859b31880b28",
        "c12c08250029057564680ad5ea95dee6db67c282f236d7f198967b12e66ded7a"),
    ("quadrant", "clustered", "1/2"): (
        "0db8dc7825b65faa41b41b376e7e10a9635f81e27b4375c57b8c9ab6990075e7",
        "34f3c70bc6fbf9e1d2c006732fc88c20bd94e8b83b2f1d0e1aaf42772199f2e2"),
    ("quadrant", "duplicates", "1/4"): (
        "f2803be80d50dc454a5781034425e598d6426ea677cda6be52297af7c04e0aaa",
        "b52a3d598b7f4126c47066a7a21920d6783a8e6c69f23e93d08a3b539cd561cf"),
    ("quadrant", "duplicates", "1/2"): (
        "05eb787d61c3e3c12592b996cc6d20798290943f9a46d167d14a3826ef190ca7",
        "3e50bb390ffa37ab8a11f022e039bd1200517949b36a24d7de20a0de0043908e"),
    ("disk", "uniform", "1/4"): (
        "ba4e61a3809dd40e717f614a8960d55b704f2d9dfbfd2e11e0d496b14f9aa76f",
        "589dd9b65e5ebe2d5092877de73534f43659339d865c1e755e129565804ca2cc"),
    ("disk", "uniform", "1/2"): (
        "badf32807a0e138169a407779e9d9f1914ee69dfd46b91db0c9069dff37feae2",
        "f4a11db1bc556848c654d4d3b6da09aa7d5bbb10009816c13e996268a46925f9"),
    ("disk", "sorted", "1/4"): (
        "d5c97a06ba90a900fe73342ba38eb2654c5155617d280de777333c74213315de",
        "fda51817641f1822dd1c554d6ff11e4e2237487bcbb12750479e1f0b7852ff64"),
    ("disk", "sorted", "1/2"): (
        "08497ecae4a53015508c95115acb328f87fa45bc3dd8e451ac1460bc5c015a3e",
        "d5f7dff10c62e9f9bfd3195a6bbe45e9f93767aa34ef02ab7a9b60fcbd1b8395"),
    ("disk", "clustered", "1/4"): (
        "a476af9c29ba967780fdfa495d04c4429285f49231b8d1c6f2d9ea86bc86c83b",
        "679c32fc7545f36ab58eb2c0dea087ba3038c82c027d58d668e7aabc95d7431c"),
    ("disk", "clustered", "1/2"): (
        "d78bb1909b101adc1dd5c79c8f1e1775ca872603e8b489a814d498a2f7f4feae",
        "a388bf2f6e9987a0f6552041d1ad8bfad4fa4ca2480f59b8dffad1a0e6490414"),
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
        "d075385e5def7ecdc9cfad913d09f5a693f44e9244da5224bbffb6ca6876b0c0"),
    ("wedge", "clustered", "1/4"): (
        "99236b3c8f5573f84a2dad1165fe329f0a423a53a92311ac34245e287df9fddc",
        "102125600016ff37363e1815410d33e0a09fac56c0eb5b27a9020ce79bcc09e6"),
    ("wedge", "clustered", "1/2"): (
        "1e6db4afc68a37c6d7ef715f51258debc06ae352263cabdb0ba806c720c59a94",
        "d417e8492b8c3bd799a9f8e6d55ac9fba7321736e2751ab60ffcb77a2a7b9ce1"),
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
        "8f34fc2c79e18f7860d94f9f564f2b06101ba843a1a2fd3d40d7479d4b84ab1e"),
    ("dwedge", "clustered", "1/4"): (
        "90ef0cd7d88f60b906ad952243f46a6aacaad03d6bfc67ec4d6dc31f1477f8a8",
        "747b681a99b5caa7707698d327828f27088df7680d3ac688b2a27a05c20e0a16"),
    ("dwedge", "clustered", "1/2"): (
        "915ecb2321b10384a8bacced044e375043007423e305a3a2a8c7edad43e4b04c",
        "bcae12313b45151210cfe20936c9cfe72578d0d439e1352e239f0188a5b737cc"),
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(fam, eps, points):
    state = StreamState(make_config(Fraction(eps), fam)).extend(points)
    snap = state.snapshot()
    blob = json.dumps(sample_to_json(snap.sample, snap.family), sort_keys=True,
                      separators=(",", ":"))
    return _sha(state.to_json_str()), _sha(blob)


@pytest.mark.parametrize("fam,style,eps", sorted(GOLDEN))
def test_outputs_match_golden_digests(fam, style, eps):
    points = make_stream(style, SIZES[fam], seed=SEED)
    assert _digests(fam, eps, points) == GOLDEN[(fam, style, eps)]


@pytest.mark.parametrize("name", sorted(GOLDEN_LARGE))
def test_large_halfplane_outputs_match_golden_digests(name):
    points, state_digest, snapshot_digest = GOLDEN_LARGE[name]
    assert _digests("halfplane", "1/4", points()) == (state_digest, snapshot_digest)


# Statistics on fixed snapshots: the nine estimators, each on reduced
# snapshots of three stream styles (weighted Fraction support), on one
# exact snapshot with duplicates and a collinear run, and on an exact
# lattice snapshot; the depth statistics also probe Fraction query points.
# The digest is SHA-256 of the outputs' reprs, one per line.  Recorded from
# an unmodified copy of the code before Tukey depth moved onto the
# halfplane apex sweep and the statistics' private direction, collapse and
# depth helpers were replaced by the shared ones; the lattice digests were
# recorded before regression depth moved onto one column sweep and the
# slope statistics onto one pair-slope table.

STATS_STYLES = ("uniform", "clustered", "duplicates")
STATS_SIZES = {"halfplane": 64, "wedge": 32, "dwedge": 16, "vpar": 12, "disk": 24, "slab": 32}

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
        "uniform": "396b45893c8083c70eb6cdecc4f6fce214a78f3ee3883ee7d51fbda65b8d67da",
        "clustered": "904edea547b0a1ce56b230f94f05d8e0744a12dbce828bda31a8663a04045c16",
        "duplicates": "80bf18ae939198880178ddff5da9049fc6eb51a289fedc198798d09d2679ddfd",
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
    digests = {style: _stats_digest(fam, snap) for style, snap in _stats_snapshots(fam)}
    assert digests == GOLDEN_STATS[fam]
