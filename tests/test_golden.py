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
from epsstream.sampler import sample_to_json
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
