"""Golden CLI outputs: stdout digests of fixed requests.

perfbench/data/reference.json holds, for a frozen pool of point
descriptions, the sha256 of each `subspace` stdout, and the digests of a
few small `enumerate` requests.  Replaying the whole pool (one looping
test; the first four points of every group also run one test each, so a
failure names its group) and those requests through the CLI keeps
"byte-identical output" a tier-1 check on every point the benchmark can
draw.  Every payload written on the way is also written by
json.dumps(..., indent=2, sort_keys=True), the oracle of the CLI's JSON
writer.  The reference file is only read.
The `check` digests and exit codes below are literals, recorded before
the Hecke normal forms moved to integer coefficients; the standalone
`rank`/`injectivity` digests, `check all` on B3 and the B4 boundary
strata were recorded before sampling moved to one point stream per
request and the layer walk to Hermite insertion; the B3 and F4 boundary
strata and the C4 and F4 layer posets before the boundary strata were
read from one walk of the full arrangement, the walk inserted one root
per class of Z^n/L and the poset read its candidates from an index; the
standalone `commutativity` and `typea` digests before the spin-chain
operators were built from their action on basis indices; the
standalone `hecke` digests on A1, A2, A4, B2, B4, C4, G2 and F4 before
the normal form was read off one exchange formula; the `commutativity`
and `typea` digests on B2, G2 and F4 and `check all --samples 1` on A2
before those two checks moved from rational to integer arithmetic.
"""

import hashlib
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from trigbethe import bethe, cli, roots
from trigbethe.bethe import HolonomySpace, PointStream, XPoint, integer_kernel
from trigbethe.cli import main
from trigbethe.field import CyclotomicField
from trigbethe.hecke import HeckeAlgebra
from trigbethe.layers import building_set, enumerate_layers, subset_layers
from trigbethe.nested import Chart, maximal_nested_sets
from trigbethe.roots import RootSystem, root_chain, root_system

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "data" / "reference.json").read_text(encoding="utf-8"))

# the first PER_GROUP pool entries of each group, in pool order
PER_GROUP = 4
_GROUPS: dict[str, list] = {}
for _entry in REFERENCE["pool"]:
    _GROUPS.setdefault(_entry["group"], []).append(_entry)
GOLDEN_POINTS = [e for entries in _GROUPS.values() for e in entries[:PER_GROUP]]

ENUMERATE = [
    ["enumerate", "layers", "--type", "A2"],
    ["enumerate", "boundary-strata", "--type", "G2"],
    ["enumerate", "building-set", "--type", "B2"],
    ["enumerate", "layers", "--type", "G2", "--format", "dot"],
    # the benchmark's census requests
    ["enumerate", "layers", "--type", "B4", "--format", "dot"],
    ["enumerate", "boundary-strata", "--type", "C4"],
    ["enumerate", "building-set", "--type", "D4"],
    ["enumerate", "layers", "--type", "A4"],
]


# argv -> (exit code, stdout sha256); `check all` on A2 at seed 14 exits 1
# on the known injectivity collision
CHECK = {
    "check all --type A2 --seed 1":
        (0, "3b28bdf1b9aa7521719aa73418a65e5205405a89926035a535972056433a3576"),
    "check all --type A2 --seed 2":
        (0, "ead3216ad2b7baf9a6949dd2aa6ead21ac30ee12af0cfea4f7d709ee915c5ab3"),
    "check all --type B2 --seed 1":
        (0, "5c742a26b6c30e893aa1fffc783965388f0c709409cf7c44761a136e270090ff"),
    "check all --type B2 --seed 2":
        (0, "5b13a48c7cef4592518e940a22149eee47eab02d12a33d8183d11dd38b9d8451"),
    "check all --type G2 --seed 1":
        (0, "7db29609c982a06077629fb73122e649b62cf910d7f62d201a050f63c50a9b6f"),
    "check all --type G2 --seed 2":
        (0, "432dbbf854367114d9274f23ab3548d3f09092b139ad287f63654a77ce6500d2"),
    "check all --type A3 --seed 1":
        (0, "677cef9b1ef163eb730cc7e6b5adcccee3982fb6d0ef0edb610df115bc16a086"),
    "check all --type A3 --seed 2":
        (0, "682b981bacbcf4987feb02f0beb7dc83ca4a814793fbc4e3d02cecf1d34acfb8"),
    "check all --type A2 --seed 14":
        (1, "3e061c29ba935ae974b7c7591cbdc25de5bb29b20e76789f772e1e9186b9921b"),
    "check hecke --type B3":
        (0, "b1633a34491586167801ea6ce46353ca760b75fbcd92f9c0d14897090d39d580"),
    "check hecke --type C3":
        (0, "0709309970dc9aeed7f1362723f9c177e73281550ab0abe89b220ba117dd8a35"),
    "check hecke --type D4":
        (0, "5eca6f50917072403004fa6163acd3d720cc04d69197178521386aea8a5a2f10"),
    # standalone hecke on further types
    "check hecke --type A1":
        (0, "9e757ec810f18cca0a2503e5bbec4e0f835156bc8b1cb1c4d66171060aa5c634"),
    "check hecke --type A2":
        (0, "5887b6ad3e414de2a80e53b21c4023297c7be58ea6dbdc1566643c4ac49ced53"),
    "check hecke --type A4":
        (0, "738e822ba5b226c365300269fa05f8688ceb86eda06342b29af17572d3b8b942"),
    "check hecke --type B2":
        (0, "548a3ea93cc64b6482797fd00061f8b45321d09eab29c3061adb4907a9c6b53d"),
    "check hecke --type B4":
        (0, "ff7aa93964920476493a52e26bebf86dd00548084cca979f39cabaf5ad19f0ba"),
    "check hecke --type C4":
        (0, "2ef9f8844e86631c6a9b6a779921f9e5c075d2bff508450d95becca858da3345"),
    "check hecke --type G2":
        (0, "f0af413e8c3308d5ae4f30697db5eaacec647b65c70002e6acf015404a4c7219"),
    "check hecke --type F4":
        (0, "75a59bf6bc53c722feb780c95a475121572f353589aea7f041d0f38ff1bdb04d"),
    # standalone rank and injectivity, each drawing its own points
    "check rank --type A2 --seed 3":
        (0, "ca2272fa2299cd0384ff56b8b68b7bdb289b331baffd4ebbcf7fdc2444fa15ab"),
    "check injectivity --type A2 --seed 3":
        (0, "cddc76cc06021dae2d3897d18f87a91bb33f2a26b52bc8ed387333dba24e2fc0"),
    "check rank --type G2 --seed 3":
        (0, "1a68b18f1b5a9115a3aec3260f47cf253040cf759383cb0eca2ecfdbacc47ca7"),
    "check injectivity --type G2 --seed 3":
        (0, "833cbad32cf28ab0305ebeb5e9a85c20db73b32cc117f9c8179c1e5208f218cb"),
    "check rank --type B3 --seed 3":
        (0, "3e67c6ed548d501796855575a45844fad211bb988efa61f1aae4288f067eca3c"),
    "check injectivity --type B3 --seed 3":
        (0, "47588e5e352ecd333f04e9a3978864ccebbe38ec7b89fc9beec9a5ffbeaf5d18"),
    "check all --type B3 --seed 1":
        (0, "c419419bbb06fc517f68de4e487af99133baaa849f6d0828df23d65982e857de"),
    # standalone spin-chain and type-A checks at several sample counts
    "check commutativity --seed 0 --samples 1":
        (0, "cd01a3dde2cf9c015ef955a173571745629cad5f136b0201aa059fd9bf21d5ad"),
    "check commutativity --seed 0 --samples 3":
        (0, "f2c6a2b8a38ba25054720e3e304baaf9ccd395c67eaa2cb03fbc736512d07b46"),
    "check commutativity --seed 0 --samples 9":
        (0, "55d78fba718494e389344c4c99529380fcc06851fd860272b3a03584ceef7c02"),
    "check commutativity --seed 1 --samples 1":
        (0, "e9f6bf9e11eb4d0bbaedecc7175b198daeacc04cead0e929a26a3f7f8eabdb89"),
    "check commutativity --seed 1 --samples 3":
        (0, "7d044f748ac2ccea1091fe5d024bb0cd8afdb0879042c1816f11074261d21787"),
    "check commutativity --seed 1 --samples 9":
        (0, "8ec1fe68355be6aa1c8a94ebec52dc10072657030f6c156ee57d50fa1f9306ab"),
    "check commutativity --seed 2 --samples 1":
        (0, "9c04d8afcf66540ffae9321c3d099555eec02dff0fc83454649431238ce55b93"),
    "check commutativity --seed 2 --samples 3":
        (0, "b7f932d7be5331174e255481eff441b6e03858c64563b778cac42a443c42cde1"),
    "check commutativity --seed 2 --samples 9":
        (0, "bcf36e26d05078e283ac817459fbc1e7c4115b31288e9775db15b13666f83471"),
    "check commutativity --seed 3 --samples 1":
        (0, "e097a8d792db4ac86ea45a23d40936358531ddfd821a84d99ab75d9b15226a0f"),
    "check commutativity --seed 3 --samples 3":
        (0, "52e7cf71e2167ae2491d30cfb224c538e49f0e1b05cb5ba2bf2bd300c00d110b"),
    "check commutativity --seed 3 --samples 9":
        (0, "84085ccfb415f4f18e7cd02169f647ad0521e06ad18fcf7960dffc184ef517db"),
    "check typea --seed 0 --samples 1":
        (0, "31751dacec28760c1764a75be37cdc40d560dafbb4dda57ffcc4332ce2d3932e"),
    "check typea --seed 0 --samples 3":
        (0, "15d3a2e41877337079bb4e53a125818df9174b370881c758cf9f318473bf45ff"),
    "check typea --seed 0 --samples 9":
        (0, "9690ce6622fd839828ce067347a65026fcad6f5167bbee5b01cbac724e9ece4d"),
    "check typea --seed 1 --samples 1":
        (0, "c374abd4926a6ecfed44981440bda2bb34656b903c3721e2b2e794712c173d8d"),
    "check typea --seed 1 --samples 3":
        (0, "91ff8c3aee749bdad0ea1cb5c35689947d00568b2f2303647032dbde6dc8d461"),
    "check typea --seed 1 --samples 9":
        (0, "c5ed8ce88f6cab7faf6c8c1b62aa993dc8100d1b050b9135cfb512bb799a8d82"),
    "check typea --seed 2 --samples 1":
        (0, "08dea7edeede3340251bdb8c588b87dac5e4cbe0d8cf690b123288b6245543a0"),
    "check typea --seed 2 --samples 3":
        (0, "9bad018fbc6af8ff80a4688324f454fcc5aac24ebbfae08d7003ff1822726faf"),
    "check typea --seed 2 --samples 9":
        (0, "f30eb17ae0e3c61f241978546d56ea2aa3a0f26f2b5dd417ca8c0b6d58b39425"),
    "check typea --seed 3 --samples 1":
        (0, "dbd338e72bc3dae0b160a56003d68c0e32016910c2cc9d336d0cf74c2ec1aac2"),
    "check typea --seed 3 --samples 3":
        (0, "35873cc21d705fabeb01f80b9e578cbf12d6de00da4aa0f146d6a6baad822e43"),
    "check typea --seed 3 --samples 9":
        (0, "3bea978e1f1f3276248200fd5d2919df01ae6802aa6ba41dfe2663c080dcfb81"),
    # the type-independent checks on further types, and check all at
    # one sample
    "check commutativity --type B2 --seed 0":
        (0, "787977f6e59bc2cbb3d86186e071dceb9bf6fbce9372c3b4d22ca0c4255c2d0e"),
    "check commutativity --type B2 --seed 1":
        (0, "b429160075d74c0005f4f4143bc9bdea32f0724f7fe8788056bda01ca7d525db"),
    "check commutativity --type B2 --seed 2":
        (0, "0ff847cf8bae4a45a7ae370dc37bc1b2975cb4820ba4e986d74606f3babfabfa"),
    "check commutativity --type B2 --seed 3":
        (0, "ca4a2ebb1383f5509974297c39bfc3ff59b6c7cf4521eb46721e21d09e4cfbe1"),
    "check commutativity --type G2 --seed 0":
        (0, "3688fd21e854f55e46a07fd0af6606b582d397904c2f67dc4030afbd8046f6bc"),
    "check commutativity --type G2 --seed 1":
        (0, "0c8d2816d4fc1264d6e1a5472697e1f002d68062ca1de17ace27bf7c912c320f"),
    "check commutativity --type G2 --seed 2":
        (0, "135b6b3c877c5f5798b937bc02087b58928e3775ed4ae23882efa14b0c7b781f"),
    "check commutativity --type G2 --seed 3":
        (0, "4038859d451972d12ed468c3053622ce222b07000dc123ee2a3d79d6e9a12f82"),
    "check commutativity --type F4 --seed 0":
        (0, "018337ae21cb5f9454014a5846dd9cebe08729d8497cc87d50bfe14c8dd20fa6"),
    "check commutativity --type F4 --seed 1":
        (0, "4ad37f6767c2fc907f32cbf3b09f7bd1a6fc48933b85ce7b846607c8a418f721"),
    "check commutativity --type F4 --seed 2":
        (0, "6fa5ba882aa17e82d2b5b22f7b1560cf3656eb0981c4f0c55dcf0136093b373a"),
    "check commutativity --type F4 --seed 3":
        (0, "90c582b1d6c84df4b60e9a18f1b833a01715b2fc7066419a709e59aa3027b7a0"),
    "check typea --type B2 --seed 0":
        (0, "ec244c455ff9270e6830efc5c655e2a69b3f6150ab94dc392786198388f0d7d6"),
    "check typea --type B2 --seed 1":
        (0, "3582e7f95e141707e5369a57cf2b65bb0aa780b2fb04e36fe1ebbbb6edd3caf6"),
    "check typea --type B2 --seed 2":
        (0, "9c332d21e8047d5bebe22f9e77401d5d7aac6128ce3146c73dc27c6c1bc22523"),
    "check typea --type B2 --seed 3":
        (0, "f0419d33b9a9d2f49457c3ee794aaeba5b288d10d25c6a0ea22fe18ddf05005e"),
    "check typea --type G2 --seed 0":
        (0, "a37942e0849c90c6c873e551f563b7de72a3d539860f985114f561444ee17112"),
    "check typea --type G2 --seed 1":
        (0, "c8edba3e0fc28b3df9b04118cd7f8fa46e21e2f86aaabee21a9a45c65811d13e"),
    "check typea --type G2 --seed 2":
        (0, "2ba11f1a14b0292bf368002bab9d0d32135a449efcc0c2c00f29aeebc3794f45"),
    "check typea --type G2 --seed 3":
        (0, "d891bed6cf434b0e3abb4f61be85cf31c594260023965c5e5d508a24bd55e42b"),
    "check typea --type F4 --seed 0":
        (0, "906fe8e44f009186257fd937136db646b6bbb51487058d9e737255e0e5c2ad79"),
    "check typea --type F4 --seed 1":
        (0, "642520a6d4c55f750538f37f79a772289415c13c2e62a71961dc3e76e0ba99d5"),
    "check typea --type F4 --seed 2":
        (0, "d0a2b38ed5a6306ad380b0d4ba576c2267ca10b8fb3e8a5485e2fce055ce3f5a"),
    "check typea --type F4 --seed 3":
        (0, "bb45a471d843c5c9c1b33307028a747da2b2593ae97b61247064a979595d49a2"),
    "check all --type A2 --samples 1":
        (0, "573f157b5ef5025c39a734556cb98bb906dbca10f15508acc16b46ac27a4991e"),
}

# argv -> stdout sha256 of census requests outside the reference file
ENUMERATE_LITERAL = {
    "enumerate boundary-strata --type B4":
        "9013612df9885e1c38dbfc6c6c8ddb1bd9f0e707f8aeb1682be9c7e4e0a1207e",
    "enumerate boundary-strata --type B3":
        "db05f6640318b00d478244faab71ba582312e0b24b66a162a5003cddfab0e208",
    "enumerate boundary-strata --type F4":
        "c6c114c00b928d4a0f25cbd3a31a97587ed57f1d0f519b0e0629735ffb373263",
    "enumerate layers --type C4 --format dot":
        "c24ff7a059710a378ea09f3f2ea9a6ec937f9ea050bcaf153c0a61cdeb0aa505",
    "enumerate layers --type F4 --format dot":
        "b16d1c897aa11f2233d8ffd6577e636ccbc01a0e85dd4bce2fe00ea993e43f73",
}


@pytest.fixture(autouse=True)
def writer_oracle(monkeypatch):
    """Check each payload the CLI emits against json.dumps, then emit it."""
    emit = cli._emit

    def checked(args, payload):
        if not isinstance(payload, str):
            out: list[str] = []
            cli._write_json(payload, "\n", out)
            assert "".join(out) == json.dumps(payload, indent=2,
                                              sort_keys=True)
        emit(args, payload)

    monkeypatch.setattr(cli, "_emit", checked)


def run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_pool_has_one_entry_per_group():
    assert len(GOLDEN_POINTS) == 32 * PER_GROUP
    assert len({e["group"] for e in GOLDEN_POINTS}) == 32
    assert len({e["spec"] for e in GOLDEN_POINTS}) == 32 * PER_GROUP


def _entry_id(entry) -> str:
    # the first entry keeps the bare group name as its id
    k = _GROUPS[entry["group"]].index(entry)
    return entry["group"] if k == 0 else f"{entry['group']}-{k}"


@pytest.mark.parametrize("entry", GOLDEN_POINTS, ids=_entry_id)
def test_subspace_output_matches_reference(entry, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
    assert run(capsys, ["subspace", "-"]) == (0, entry["sha256"])


def test_whole_pool_matches_reference(capsys, monkeypatch):
    assert len(REFERENCE["pool"]) == 1280
    wrong = []
    for entry in REFERENCE["pool"]:
        monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
        if run(capsys, ["subspace", "-"]) != (0, entry["sha256"]):
            wrong.append(entry["spec"])
    assert not wrong, (len(wrong), wrong[:3])


def _fresh_root_systems() -> None:
    """Empty the one per-type cache, so every type looked up next is a new
    root system whose tables start empty."""
    roots._of_type.cache_clear()


def _count_point_work(monkeypatch) -> Counter:
    """Count the calls that build a point: XPoint.at, e^alpha, the
    centralizer base, the nested families a draw picks from, the chart and
    its residuals, which the genericity test reads."""
    counts: Counter = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(XPoint, "at")
    counting(RootSystem, "base_of")
    counting(bethe, "maximal_nested_sets")
    counting(bethe, "stratum_values")
    counting(Chart, "__init__")
    counting(Chart, "residuals")
    return counts


def _count_table_work(monkeypatch) -> tuple[Counter, Counter]:
    """Count, per table, the reads of RootSystem.memo and the builds those
    reads start."""
    reads, builds = Counter(), Counter()
    memo = RootSystem.memo

    def counted(self, table, key, build):
        reads[table] += 1

        def counted_build():
            builds[table] += 1
            return build()
        return memo(self, table, key, counted_build)
    monkeypatch.setattr(RootSystem, "memo", counted)
    return reads, builds


def _tabled(labels: set[str], table: str) -> int:
    return sum(len(root_system(label).tables.get(table, {}))
               for label in labels)


def test_each_point_is_built_once(capsys, monkeypatch):
    _fresh_root_systems()
    counts = _count_point_work(monkeypatch)
    entries = REFERENCE["pool"][::107]
    assert len(entries) == 12
    labels = {json.loads(entry["spec"])["type"] for entry in entries}
    for requests in (12, 24):
        for entry in entries:
            monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
            assert run(capsys, ["subspace", "-"]) == (0, entry["sha256"])
        # XPoint.at tests genericity of outside input once per request, on
        # the residuals that the chart family reads too
        assert counts["at"] == counts["stratum_values"] \
            == counts["residuals"] == requests
        # each distinct centralizer base and chart is built once, into its
        # root system's tables, so the replay builds nothing new
        assert 0 < counts["base_of"] == _tabled(labels, "centralizer") <= 12
        assert 0 < counts["__init__"] == _tabled(labels, "chart") <= 12
    assert set(counts) == {"at", "base_of", "stratum_values", "__init__",
                           "residuals"}

    streams: list[bethe.PointStream] = []
    init = bethe.PointStream.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        streams.append(self)
    monkeypatch.setattr(bethe.PointStream, "__init__", recorded)
    for label in ("A2", "B2", "G2", "A3"):
        _fresh_root_systems()
        counts.clear()
        streams.clear()
        assert main(["check", "all", "--type", label, "--seed", "1"]) == 0
        capsys.readouterr()
        built = sum(s.built for s in streams)
        assert built > 0
        # check triangularity builds one chart per maximal nested set of
        # the simple roots, and no point; every drawn point is built by
        # XPoint.at, whose genericity test evaluates its residuals once (a
        # cached_property keeps them in the instance dict)
        rs = root_system(label)
        charts = len(maximal_nested_sets(
            rs.rank, rs.nonorthogonal_edges(rs.simple_roots)))
        points = [x for s in streams for x in s.points]
        assert all("residuals" in vars(x) for x in points)
        assert 0 < sum(s.reductions for s in streams) <= len(points) <= built
        # a drawn point reads its base, its nested families and its chart
        # from the tables, which hold one entry per distinct centralizer,
        # base and chart drawn (a repeated draw repeats its point's base)
        distinct = {tuple(x.centralized) for x in points}
        assert counts["base_of"] == len(rs.tables["centralizer"]) \
            == len(distinct)
        bases = {rs.tables["centralizer"][cen][0] for cen in distinct}
        assert counts["maximal_nested_sets"] == len(rs.tables["families"]) \
            == len(bases)
        assert counts["__init__"] == len(rs.tables["chart"]) + charts
        assert len(rs.tables["chart"]) <= built
        assert counts["at"] == counts["stratum_values"] \
            == counts["residuals"] == built

    # rho(w) reads the tables of w once: over the pool's twisted points,
    # the "element" table is read once per rho(w) built, and by no other
    _fresh_root_systems()
    reads, builds = _count_table_work(monkeypatch)
    for entry in REFERENCE["pool"]:
        if entry["group"].endswith("/twisted"):
            monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
            assert run(capsys, ["subspace", "-"]) == (0, entry["sha256"])
    assert 0 < builds["rho"] == reads["element"] == builds["element"]


def test_pool_replays_forward_then_reversed(capsys, monkeypatch):
    # on new root systems each request reads the tables the earlier ones
    # filled; in either order every point prints its reference digest
    _fresh_root_systems()
    pool = REFERENCE["pool"]
    wrong = []
    for entry in pool + pool[::-1]:
        monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
        if run(capsys, ["subspace", "-"]) != (0, entry["sha256"]):
            wrong.append(entry["spec"])
    assert not wrong, (len(wrong), wrong[:3])


def _documented_tables() -> list[str]:
    """The table names the RootSystem docstring lists, in its order."""
    return re.findall(r'^    - "(\w+)"', RootSystem.__doc__, re.M)


def test_readme_lists_the_documented_tables():
    # README "Library API" lists the tables of the RootSystem docstring,
    # each bullet naming one or more before its first comma
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("Table, key and reader:\n", 1)[1]
    bullets = re.findall(r'^  - (.*)', section.split("\n\n", 1)[0], re.M)
    named = [name for bullet in bullets
             for name in re.findall(r'"(\w+)"', bullet.split(",", 1)[0])]
    assert sorted(named) == sorted(_documented_tables())


def test_requests_leave_the_shared_tables_as_built(capsys, monkeypatch):
    # check all runs the weyl report, whose sign control flips columns of
    # rho(s_1), and check hecke for both relation signs, on the tables
    # the twisted subspace then reads, and the building set reads the
    # root graph: every entry of every table must still equal one built
    # on a new root system
    _fresh_root_systems()
    assert main(["check", "all", "--type", "B3", "--seed", "1"]) == 0
    assert main(["enumerate", "building-set", "--type", "B3"]) == 0
    capsys.readouterr()
    entry = next(e for e in REFERENCE["pool"] if e["group"] == "B3/6/twisted")
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
    assert run(capsys, ["subspace", "-"]) == (0, entry["sha256"])
    tables, new = root_system("B3").tables, RootSystem("B", 3)
    assert new.tables == {}
    listed = _documented_tables()
    assert set(tables) == set(listed) and len(listed) == 14
    assert list(tables["weyl"][None].items()) == \
        list(new.weyl_elements().items())
    for w, element in tables["element"].items():
        assert element.word == new.word_of(w)
        assert element == new.element(w)
    for alpha, refl in tables["reflection"].items():
        assert refl == new.reflection_in_root(alpha)
    for (v, w), vw in tables["product"].items():
        assert vw == new.product(v, w)
    for subset, chain in tables["chain"].items():
        assert chain == tuple(root_chain(new.roots_with_support_in(subset),
                                         new.simple_roots))
    for cen, (base, kernel) in tables["centralizer"].items():
        assert base == tuple(new.base_of(cen))
        assert kernel == tuple(integer_kernel(cen, new.rank))
    for (cen, members), chart in tables["chart"].items():
        # the key names all a chart is built from: its base is the base
        # of the key's roots, whatever order a caller had them in; members
        # that are not nested have no chart
        fresh = bethe.chart_of(new, cen, members)
        if chart is None:
            assert fresh is None
            continue
        assert chart.base == tuple(new.base_of(cen))
        assert vars(chart) == vars(fresh)
    for base, families in tables["families"].items():
        assert families == maximal_nested_sets(
            len(base), new.nonorthogonal_edges(base))
    for field, space in tables["space"].items():
        assert space.labels() == HolonomySpace.of(new, field).labels()
    # rho(w) is kept once for every field: each entry is what a new root
    # system builds over either field
    twisted = 0
    for w, cols in tables["rho"].items():
        for order in (6, 12):
            fresh = HolonomySpace(RootSystem("B", 3), CyclotomicField(order))
            assert cols == fresh.rho(w)
        twisted += w != new.identity
    assert twisted > new.rank
    for (field, h), pattern in tables["pattern"].items():
        assert pattern == HolonomySpace.of(new, field).bethe_pattern(h)
    assert {sign for sign, _, _ in tables["x_comm"]} == {1, -1}
    for (sign, k, b), comm in tables["x_comm"].items():
        assert comm == HeckeAlgebra(new, sign).x_reflection_commutator(k, b)
    for field, (_, _, layers, by_subset) in tables["draw"].items():
        walked = enumerate_layers(new, field)
        assert layers == walked and by_subset == subset_layers(walked)
    building_set(new, CyclotomicField(6))
    assert tables["graph"] == new.tables["graph"]
    # the first draw of a stream on the new root system fills its draw table
    PointStream(new, CyclotomicField(6), 0).point(0, 40)
    assert tables["draw"] == new.tables["draw"]


@pytest.mark.parametrize("argv", ENUMERATE, ids=" ".join)
def test_enumerate_output_matches_reference(argv, capsys):
    assert run(capsys, argv) == (0, REFERENCE["census"][" ".join(argv)])


@pytest.mark.parametrize("request_line", CHECK)
def test_check_output_matches_golden(request_line, capsys):
    assert run(capsys, request_line.split()) == CHECK[request_line]


def test_type_independent_payloads_do_not_depend_on_type(capsys):
    for name in ("commutativity", "typea"):
        for seed in range(4):
            entries = []
            for label in ("A2", "B2", "G2", "F4"):
                assert main(["check", name, "--type", label,
                             "--seed", str(seed)]) == 0
                entries.append(json.loads(capsys.readouterr().out)["checks"])
            assert all(e == entries[0] for e in entries), (name, seed)


@pytest.mark.parametrize("request_line", ENUMERATE_LITERAL)
def test_enumerate_output_matches_golden(request_line, capsys):
    assert run(capsys, request_line.split()) == \
        (0, ENUMERATE_LITERAL[request_line])
