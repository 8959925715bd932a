"""Golden answers: the whole chain, run through ``cargokg.cli.main``, writes
byte-identical files to those pinned here.

At each seed the chain runs ``gen`` on the anchor-sweep benchmark's settings
(300 itineraries, 300 ports, 300 vessels, transshipment rate 0.5, five
injected anomalies of each kind), ``ingest``, ``build-kb`` with its three
dumps and ``detect --out`` for every (pattern, variant) cell, and every file
written must have its pinned SHA-256. Seed 7 is the input on which the
filtered and unfiltered Loop forms differ (see
``patterns._direction_holds``).

A change that means to alter an output updates its digest here and says why;
any other change must leave every digest as it is.
"""

import hashlib

import pytest

from cargokg.cli import main

GOLDEN = {
    42: {
        "csm.csv":
            "7c267db3e8d99e6bdc3523303a979da62dfb283832203f7211fe8f880800cf0e",
        "truth.csv":
            "87b3207ba2dfdf65a07a4041739e457bfb859b79b15d4f8363d52c5e8eb34842",
        "itineraries.jsonl":
            "cda43bff63c150d5a7add71789f0c03b8d584f959b533bd5c51fadb6e524bbb9",
        "events.jsonl":
            "f0427b44c97523465e0487ca0445df5fe8b8537d1d06197e110fb96d4677758e",
        "graph.kb":
            "e55b69ef1c31c50da8727995fe4fab40a5320f1d913c9806f4697c9d29a92352",
        "vessel_events.jsonl":
            "b9a8f924f43982563669dbd233876cd9a9205a25a003fcc0fca46ef52ce1f172",
        "trips.jsonl":
            "9f38a08e0de7c1d2801b3e192606370a4d5dbf885142c5e9b273438caea57872",
        "bindings.tsv":
            "594ec28fe9f8d90566779a728b9a2779b188c9db48c92d5435269123aefe46ec",
        "loop-filtered.csv":
            "17aa4a760f17f3b36f1e4f099c5e9abe957f8b7d57a199cd01fbf6c1118b4e5a",
        "loop-unfiltered.csv":
            "17aa4a760f17f3b36f1e4f099c5e9abe957f8b7d57a199cd01fbf6c1118b4e5a",
        "loop-intermediate-filtered.csv":
            "25a8ef88f03944877d2afb3cab6489160867436cb5c19ecd2b48d3ad65936836",
        "loop-intermediate-unfiltered.csv":
            "25a8ef88f03944877d2afb3cab6489160867436cb5c19ecd2b48d3ad65936836",
        "unnecessary-transshipment-filtered.csv":
            "cdca7ffd58e09da75f3b06a913c7f81a492d6c81b6392fd35d82e78a86076623",
        "unnecessary-transshipment-unfiltered.csv":
            "cdca7ffd58e09da75f3b06a913c7f81a492d6c81b6392fd35d82e78a86076623",
    },
    7: {
        "csm.csv":
            "27daeb7250544df91117e8213f8fc9a02fcdd66c251a6afb4bd3609c70d6d2f2",
        "truth.csv":
            "39fb6042ecab4252bc101125fd639b1063366d4b4e1b5214b45939e18eff8057",
        "itineraries.jsonl":
            "f7ec3cc35db0961c62d583e3a9dcbadaf34a3fc9dbf8be2bdbd39c7a8c29626d",
        "events.jsonl":
            "f8b9c2cd7a44ac4676e0949aeea54702ad4538fbdc20ca86863a2140451029cf",
        "graph.kb":
            "6eaf9aaaf114e5ff34330883eae3f4301c196244fb3a5b94f7521acc0877519f",
        "vessel_events.jsonl":
            "4ccf6cffc5172c79f56abafdc3d3b2669b16c592d18ab0f6ec3716ee5d0119ec",
        "trips.jsonl":
            "57a7fbcdda2eb55755c1bbd8831d507fd962d6468daf42bc5ba07e238439eb0b",
        "bindings.tsv":
            "cbb337e89b633c2f317d0e55236d527cfd75c7cff4371b630f202d2bc9b6285b",
        "loop-filtered.csv":
            "7ba8099b6a48510f886cf54179feeeb3a25fcc3bda408964cace811f70a2ae7c",
        "loop-unfiltered.csv":
            "f32e1d5573cb4163d1b66c64099c88208536c538b6cdb161506fd6cdc3fe7f44",
        "loop-intermediate-filtered.csv":
            "c71269be6d5736081edeadc01d2941485afec8cbcc879a4e0266949b2890fdc0",
        "loop-intermediate-unfiltered.csv":
            "c71269be6d5736081edeadc01d2941485afec8cbcc879a4e0266949b2890fdc0",
        "unnecessary-transshipment-filtered.csv":
            "f10d180ac842c17639f4cf2658fd4e3cadfbc64252c626d065fc7b671c70564d",
        "unnecessary-transshipment-unfiltered.csv":
            "f10d180ac842c17639f4cf2658fd4e3cadfbc64252c626d065fc7b671c70564d",
    },
}

CELLS = [
    (pattern, variant)
    for pattern in ("loop", "loop-intermediate", "unnecessary-transshipment")
    for variant in ("filtered", "unfiltered")
]


def _run(*argv):
    assert main(list(argv)) == 0, argv


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_chain_outputs_match_their_golden_digests(seed, tmp_path):
    path = lambda name: str(tmp_path / name)  # noqa: E731
    _run("gen", "--seed", str(seed), "--itineraries", "300", "--ports", "300",
         "--vessels", "300", "--transshipment-rate", "0.5", "--loops", "5",
         "--unnecessary", "5", "--out", path("csm.csv"), "--truth", path("truth.csv"))
    _run("ingest", "--input", path("csm.csv"), "--out-itineraries", path("itineraries.jsonl"),
         "--out-events", path("events.jsonl"))
    _run("build-kb", "--itineraries", path("itineraries.jsonl"), "--events", path("events.jsonl"),
         "--out", path("graph.kb"), "--out-vessel-events", path("vessel_events.jsonl"),
         "--out-trips", path("trips.jsonl"), "--out-bindings", path("bindings.tsv"))
    for pattern, variant in CELLS:
        _run("detect", pattern, "--kb", path("graph.kb"), "--variant", variant, "--quiet",
             "--out", path("%s-%s.csv" % (pattern, variant)))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[seed]
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN[seed])
    assert digests == GOLDEN[seed]
