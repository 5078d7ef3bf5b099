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

All 58 state digests were re-recorded for state format version 2, which
drops each slot's ``delta`` (a copy of its sample's ``eps_bound``) and the
config's ``c`` (the budget schedule is fixed at k^-2).  Before that, each
new state file was checked to equal the old version-1 file with exactly
three edits: both fields dropped and the version set to 2.  No snapshot
digest changed.

Nine halfplane snapshot digests (seven small cases and both large ones)
were re-recorded when halfplane halvings moved from the cosh-guided
coloring and the z-order pairing to three curve pairings (z-order,
Hilbert, shifted Hilbert).  No state digest changed: no level halves at
these sizes.  ``SNAPSHOT_SIZES`` and ``LARGE_SNAPSHOT_SIZES`` were not
edited, and every snapshot stays within them.

Eight of them (six small cases and both large ones) and the halfplane
duplicates statistics digest were re-recorded again when the shifted
Hilbert pairing gave way to the Hilbert curve's other three orientations
(transposed, flipped top to bottom, flipped left to right and
transposed).  The size guards were not edited; the duplicates snapshot at
eps 1/4 shrank from 24 to 12 points.
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
        "89e9d211dc0b1694fb0de5d2e1320f21d8ed48611509937274ffc45b49257504",
        "186940e22804b2654c1ed6b13e607884502df2cd79f65d06d99a9382e3bad6b3"),
    ("halfplane", "uniform", "1/2"): (
        "4c1a3d8ba564a228bfd7c025bbbc706667a407e67dba24f08a1f053c285281f1",
        "be7f00561fe9f52d5cfe81597bae0d7d1f0ec38238f5fcf631d613de73b109ae"),
    ("halfplane", "sorted", "1/4"): (
        "c4130e43a42e32508f64077e5a33388eca3de783e215e0c3e4cdb9b687d931fe",
        "0bb4f2a09c2e44a8e96ccfe493e715029cbbc6ed229dce9d030a62faf6843dcd"),
    ("halfplane", "sorted", "1/2"): (
        "721b8e0179d9b5d9a413596d2649f05a65874995255af4023668dc2ac4862ed9",
        "6fc4c930c012c377375913dad574cc683718d1d63fd95c67e4e95762faa9a3bd"),
    ("halfplane", "clustered", "1/4"): (
        "2716f0e5ca0e90c6ac0e73b464755d24c02462b780843aa01d00ec2d0e5c6b99",
        "3f4f43548bc484d56ec68e8f201289109557d64253e5c0a792d5419707c9360d"),
    ("halfplane", "clustered", "1/2"): (
        "b2c0b8f133e5c67f6fdac695e5ab5950bc3055293e6ce5abc8be3e1b684ffd43",
        "f195f12ff3c0c846793e31eb1adaf34851d00522fdccd4e7597dc071c28ed77a"),
    ("halfplane", "duplicates", "1/4"): (
        "9f04d37cb594f039cce5cd2cb569a284f27648b2366ea844fe8a20f49ce18c98",
        "02afb37b1b43f5744d91bed44bd77a7b2e0b1c5929541aab98f9b3f6479bd74d"),
    ("halfplane", "duplicates", "1/2"): (
        "d6e72e09612282eb5b35ac16ffef0e051c3576db754a38d7e0323582dba1f2f7",
        "02afb37b1b43f5744d91bed44bd77a7b2e0b1c5929541aab98f9b3f6479bd74d"),
    ("quadrant", "uniform", "1/4"): (
        "8728db70c20aa858e64929b642fd1827fdd366096ebf9e299c6310fc3e1193ee",
        "ebeae70031a7d8cc1062b652ac3656d25afcc5e6679062d61140deba5e15c67a"),
    ("quadrant", "uniform", "1/2"): (
        "69898e0cc83aeb979d925bdf0aa020f3ba20239855547f8bf109b0bb5aac408b",
        "a9fb35ff6cee53a124c2ed5a4c2c94f39163b348f0405271831a8769886207d0"),
    ("quadrant", "sorted", "1/4"): (
        "4628b3068decd5fc80933b5c473356dd194b5759ff4a616eef006a43fa5d7848",
        "dfc9f12155be6f76e4f2acb8d5bb904e580f2707faff2a90a7444b94145c317c"),
    ("quadrant", "sorted", "1/2"): (
        "b4eddecef08de2de865c288c196f36628dada7acf7fb271bc2b9e92c0f351650",
        "7a00ab236d11250964763cbdfdf129071a409d6c3878feb2d1611c83f641e6f4"),
    ("quadrant", "clustered", "1/4"): (
        "1deec315a167304415a2c91bb528333ba65c485768132e0b64593c31e4b9fc41",
        "cf23fa525d2f85b8c6bdf86c60cedef375d078f10c59abac0441cc3be435fff7"),
    ("quadrant", "clustered", "1/2"): (
        "9742ddce665cc642001e157882d4311a5a009a2a978a8d32df848081f7ed335b",
        "cc377da3add53e1214b0ad76c80d52f06b96f9d68eb700d6c02f183145b73f42"),
    ("quadrant", "duplicates", "1/4"): (
        "fa1ba49c03a61c43b49ce20b1ac65ddaf9fc51d0f7f2d75d219f9c89a2886e90",
        "3d7c633970b3f7419ff95bd1101950304ca54f39067fab0113f964f7b1e3bab6"),
    ("quadrant", "duplicates", "1/2"): (
        "867b685e2e65dee934f7d6bfd583a2a9cdaf5dc7483c6418244e3ec91116fb24",
        "3d7c633970b3f7419ff95bd1101950304ca54f39067fab0113f964f7b1e3bab6"),
    ("disk", "uniform", "1/4"): (
        "63ce1892e66c5e3b890a01d9db6a9969e91d4c8a016b1343bb6cd55213cd8e85",
        "589dd9b65e5ebe2d5092877de73534f43659339d865c1e755e129565804ca2cc"),
    ("disk", "uniform", "1/2"): (
        "db8ffd8ec4373c32591f3e7974f7d25b084642f348a4e0f2209187e9a27f7748",
        "4e2d8ca2608bfd7c3694ddcf5e79b2f502598599545821678659de9fc8815eb8"),
    ("disk", "sorted", "1/4"): (
        "15dcd2daac314d1d39d0905f3d6d65b4a146cd00889336b4e90964f302cae1da",
        "fda51817641f1822dd1c554d6ff11e4e2237487bcbb12750479e1f0b7852ff64"),
    ("disk", "sorted", "1/2"): (
        "1ab7db6aff7c009700c4eb688ca0e0f99119698f49accb85155e3e9dcac262fe",
        "577498486e6cef5e4717e4be6b6ec264889b35673092138c69015138e435bff7"),
    ("disk", "clustered", "1/4"): (
        "060172c36e9622e3e47a2c27cfad75ff0a402197a38d7190c177cb2a6aad257c",
        "679c32fc7545f36ab58eb2c0dea087ba3038c82c027d58d668e7aabc95d7431c"),
    ("disk", "clustered", "1/2"): (
        "54e274fe31df417f3947a8cf3aa1bc0fc2d8f8d7c33ebd4b756be664b14133dd",
        "07ca32a235319052b4bbf368d3d3a39de80952380737e898bac50c372161fb24"),
    ("disk", "duplicates", "1/4"): (
        "fe728f58442eb911d412c52b2d482a9b09773e056f758af780cfb76ffdda12fa",
        "f22ca021d3d4d59431b8d6e2223559b803beff25c2176d916a43f56c50fb60c7"),
    ("disk", "duplicates", "1/2"): (
        "dcb40860b04a8085f1d7ef62af8a1e73cb77513b3da4257e02751edd894652ed",
        "da06235f49aa84151b045f79d2fe4244b46ecf04143ba243066bde0621c5ef0f"),
    ("slab", "uniform", "1/4"): (
        "0328e299fbfeb4713fb6603535636b152c3b73a14b65f260bdd829e1cd58e193",
        "8fcf3cb175d4dc64efe87ddb693285c68188a0a05625ea26312f426dc79e786d"),
    ("slab", "uniform", "1/2"): (
        "3b35aef4385576870bc28a6e52ed0991d67094b5c571a3a0922752f993155546",
        "d0ebca6aff5fffbe4d7c51c625fa8f2d8a41dab8ccd68e415adbd54b9490d57c"),
    ("slab", "sorted", "1/4"): (
        "62a53f96149d78f779ebda59ad8a5bdc646085b650e16463ec2d8a924c7ac14c",
        "01e91ee8577d5925d17cdee1220660443c0e31c809e0d6bf2bba1e26ef1881c5"),
    ("slab", "sorted", "1/2"): (
        "f416ff6f15fd63b43832395df9057fd6045bbbdd14cfa3bd4757b034c239784d",
        "19a2c81469d52d9c877e2901a4f9860f21e317c69313f98a6b1671fd3612ef18"),
    ("slab", "clustered", "1/4"): (
        "e76f9d4d579450d0331635ac741722dfdca58f71fece03f4ebb028cb78222bb3",
        "0342175f3e9412db0e887b985e3c740fdb239b57fb042d652207d7e527a86f70"),
    ("slab", "clustered", "1/2"): (
        "4eef40dfbe53293910e6dfcd4c626818637c258e7bec60ce789b34c15a52810b",
        "52e53b332e3002a13bc03b3e04726d036dac2336b0b68e690bf3157f4b46714e"),
    ("slab", "duplicates", "1/4"): (
        "0ce5ff8119f6cacbe3fe457ca5320b643137cee57140a33d68541865e5445a33",
        "065e18a75d9b117a43eb135c3f1ac0449dca906a768fecbdb3d28432e4a843f3"),
    ("slab", "duplicates", "1/2"): (
        "caf27cd2b30bae8a5fd962c781939999fc0f1fedecd8ec806f3af1d6c00867f1",
        "6f8263c24dffb5feedc26f27bd7af2e74241fca09f46e2983422f26cfa982f8f"),
    ("wedge", "uniform", "1/4"): (
        "74db73b26d9668d0052cff6f8256d06e75dc2c8cf8dd4ba44dc8db8a191c561d",
        "d8ff251f2a7cc10dc7c3c74feabf0630314834e7845fa269b896156abad4539c"),
    ("wedge", "uniform", "1/2"): (
        "6de8d340475058a67e0271ff3018cc1611f72be57b39f3fae6d093e703bf09c7",
        "b191ede34547dd639889eb3b920f410155b27a6c1c47ce2d1f4df59c744a5482"),
    ("wedge", "sorted", "1/4"): (
        "d9a78d2ccee55fe8252cb05e87eecc1f00d8e66c31f1f3664343a81d2cc64e79",
        "e4729e0000fa849cc979b86ab94bdcc5a945eb79ec037bdca9417b8b217cd12e"),
    ("wedge", "sorted", "1/2"): (
        "4bb75b9719e854b9f55510e62b3a918a005deed2cc39a546760daee392c8f8c4",
        "975c7633bc054e7b7090d82ef96d21da55b0ca708245fe4a353795ba72246be2"),
    ("wedge", "clustered", "1/4"): (
        "008859d4ec4c8805a3f53ba924f698d1fc970dab04b90552f953f850f2816eee",
        "102125600016ff37363e1815410d33e0a09fac56c0eb5b27a9020ce79bcc09e6"),
    ("wedge", "clustered", "1/2"): (
        "6ffbafa3232990fc862032d40478fbf4aba41ef45c01373a99b99360f59e5e3f",
        "caf82d3dfe9df0c945ed8e05c44dfd59e99b77ae09ba515f2fc8b1ab9f2d85a8"),
    ("wedge", "duplicates", "1/4"): (
        "53f93b0b0fcda562edd7ee7f7852bddf8bca809ab08021f5e51bca580f7723c3",
        "b81584d9af0a02790a4c7c9b6a9336d1690169547e4b0c343bc43f8100349122"),
    ("wedge", "duplicates", "1/2"): (
        "42223fa4a6eb64fb8fd2d07991535f5fd2fe7c8caf7be850b25542a394731f57",
        "b81584d9af0a02790a4c7c9b6a9336d1690169547e4b0c343bc43f8100349122"),
    ("dwedge", "uniform", "1/4"): (
        "a58991074da924c9f7f2543fb4c7b8b60064b920a050b465723ee7f59f060841",
        "b0834e85801d626865531816fcaaef75cd11abaa376f5adb95437f2f52709da4"),
    ("dwedge", "uniform", "1/2"): (
        "656425debdba752aac983303074402fc37abbe4293eb2f1a0d7ffede9339aad1",
        "2bfd4118939acf1af9cf6c69b366feaabba8de1c098affc558c4e8b6ef3abab8"),
    ("dwedge", "sorted", "1/4"): (
        "07da5d1a2d6378b88c7d2cc6afa7109de7652c3531c0194cb6929884bedba053",
        "705e4afe7e63a99871e5c52c1d1493595147d0e0e358b7d96c2c8bdaadfd9747"),
    ("dwedge", "sorted", "1/2"): (
        "aeee4d27df137ca1c67dc9cd969583471f981d37529a747752040c7149a2418c",
        "f68936aa584b0b252491cbd5c42872f34b9230df1c18b77f515ac03714a44bf9"),
    ("dwedge", "clustered", "1/4"): (
        "953a037e58d6901658199869a42aed5cea063b4251dc02a1f5927495a531f25d",
        "747b681a99b5caa7707698d327828f27088df7680d3ac688b2a27a05c20e0a16"),
    ("dwedge", "clustered", "1/2"): (
        "68938bf338e3ee2e8db27fb298fdbabe3951c7cd7b85e448c52f04d809272ba9",
        "44808661dc6565221291f10735a1f850ca7246edb4088bf9ae71e6c9ac4fd8f6"),
    ("dwedge", "duplicates", "1/4"): (
        "f026c2274e1a752b94fe762161430b4cc28ab38ff19e6a5bfc0053a8b6cdb3cd",
        "3dcc33d1b6a917e78aac7e5980a8f2c6620feb34e5ba9262ce04e7e2995e6840"),
    ("dwedge", "duplicates", "1/2"): (
        "af5a57c771c6153e490dad16d972c51c52313cb9a82eebaca5d3595f9789c1b1",
        "3dcc33d1b6a917e78aac7e5980a8f2c6620feb34e5ba9262ce04e7e2995e6840"),
    ("vpar", "uniform", "1/4"): (
        "3cb59cdc26ec5956e1bb1c86e8155d84f741ffd85162ae8f97307382123747d8",
        "f96c222770eaa5d47cf6e44f38c77b2111411fdf5e8b26710a9677ab6f347e17"),
    ("vpar", "uniform", "1/2"): (
        "2ff1e367157b297b5d5a8ba6163ba98dc5e2d6ab34dc468aaedab5d6a1dae5bb",
        "dc8a463e5fb16bc8efd7d2c8e641a936e91dd8f1cef5ac6b2ffeb1f514062362"),
    ("vpar", "sorted", "1/4"): (
        "9e27b04b55c42b7f273a9a094723d05fdfc0e0b2598388083f343834c09de30d",
        "61ca093d39263d1c16c363dd271f864c708de069aaed88dd5d7eae70bbf5e606"),
    ("vpar", "sorted", "1/2"): (
        "edc8b61affbfa394b0e320841579eb764a3d18fbb9bf0ab3c4efed22293f63a1",
        "61ca093d39263d1c16c363dd271f864c708de069aaed88dd5d7eae70bbf5e606"),
    ("vpar", "clustered", "1/4"): (
        "4ef207d0421e4769e906e2f1233a53530373275482d089f100562875a337bbe5",
        "1656f9a30277eaae3c4377fad3a680f152a3b30882e95f60e5e363e0ac9d5d10"),
    ("vpar", "clustered", "1/2"): (
        "8f52227cd60644d3dd881287771b6b73ab011e618fdc8160d2219f1270ae3bab",
        "1656f9a30277eaae3c4377fad3a680f152a3b30882e95f60e5e363e0ac9d5d10"),
    ("vpar", "duplicates", "1/4"): (
        "10b100f4ab16482a594078259cca4ad7d2cc2435755dd7ec37a7aa6c2d8b4127",
        "80b614c5e6c1db107b0156cb4aeb74af94d34f5ed9c7982fcb40db4ea0183f06"),
    ("vpar", "duplicates", "1/2"): (
        "87d81e30420a0371f846607db97775f1240df74e2827a65be63546e41b117ea0",
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
        "76fb0bac08b6d1a44473f38d3de21ec66ff584e2d33806813876cad2a844a446",
        "4e6f656f8293e4b7c472e8fd52e2dea9f1fe267e6b2572f460c0937b2e12bcee"),
    "wide-256": (
        lambda: _wide(make_stream("uniform", 256, seed=SEED)),
        "e6f5e810651080d7b665d08744db9453b79b72b770d6058b4dd8d875317512a2",
        "3c624bf8abb5ef47c3b59447f2aaf8b4c3770146826bae61e71387f9f0677659"),
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
# ``STATS_SNAPSHOT_SIZES`` holds the reduced snapshots' sizes from before;
# the halfplane uniform and clustered digests again with the curve
# pairings, their snapshots within those sizes.

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
        "uniform": "16c79edd0e30e14351ccddb6a12932362f2f0f9bb0ed293ea3a5ba6bc46f70d1",
        "clustered": "7da39a44ea80897e2500309b217f9797d7eb0e1ebd04e123ba3261e88013d2cf",
        "duplicates": "5820b6b9e99cab8ec93c9b29de26731a29a5852a94294aeeaed7c23ee4e1fbba",
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
