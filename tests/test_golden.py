"""Golden digests of seeded outputs.

The `run` and `stable_husbands` digests were pinned before the chain's draws
moved to block reads and before the free-boy counter in `stable_husbands`
(the n = 4096 `run` digest later, before the chain's tried sets became byte
rows); the report and instance digests before the chain was folded into one
kernel and the experiment kinds and gates became a table; the instance
digests at n = 2, 3 and 1024 before `generate_uniform` moved to block reads.

The `run` digests of the 15 cases with pair tracking on, all but the n = 1
run capped at 5 (whose only pair is already a repeat), were re-pinned once
when `RunStats.pair_counts` came to keep only repeated pairs (`REPINNED`);
the change dropped the count-1 entries a fresh proposal used to write, and
the draws, the outputs and every other field stayed as they were. All 21
were re-pinned a second time when `RunStats` dropped `proposals_per_girl`,
`proposals_per_boy` and `runs_per_boy`, which `entity_totals` now derives
from the tracked logs, and `run_lengths` came to record the run in
progress at the stop even when empty (`REPINNED_TOTALS`). All 21 were
re-pinned a third time when `redundant_proposals`, `first_output_time` and
`acceptances_by_girl` became properties derived from the other fields, which
`dataclasses.asdict` leaves out, and `pair_counts` became one map keyed by
(boy, girl), whose tuple keys JSON cannot encode (`REPINNED_DERIVED`). So the
digest document lists the three derived values itself and gives the pair
counts as sorted [boy, girl, count] triples.

A digest covers everything a call returns: for `run`, the outputs, every
RunStats field and the three derived counts; for `stable_husbands`, the
husbands, every matching, the full trace and the counters; for a campaign,
its whole `report_json`, gate failure strings included. Any change to a
draw, its order or its use changes a digest. Re-pin only in a change that
means to alter seeded outputs, and say why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from stablematch.harness import (
    ExperimentConfig,
    report_json,
    run_experiment,
    write_outputs,
)
from stablematch.instance import generate_uniform
from stablematch.matching import stable_husbands
from stablematch.random_model import run

# (n, girl, seed, stop, max_proposals, pairs, runs, digest): pairs and runs
# say whether the digest covers stats.pair_counts and stats.run_lengths as
# recorded, or as None. The three cases with one of the two were pinned when
# each record had its own tracking switch; they run with tracking on.
# max_proposals is passed to "cap" cases only: case (3, 0, 27) was pinned
# with a proposal limit on "natural", which its run never reached, and keeps
# that limit in its tuple, and so in its test id.
RUN_CASES = [
    (1, 0, 4242, "natural", None, True, True,
     "94872f4688193face4c70f5c7c398b6a2eac6c43e2fe73e572dcec7133e9d6e0"),
    (1, 0, 7, "cap", 5, True, True,
     "83cdc9d4ffa58aaa03691bcd2b9a10c68d8435a198dc4b1c7662d968ea1f190c"),
    (1, 0, 8, "first_output", None, True, True,
     "f74833543c9e6efb162babcafa183e5c7a58350ffc931ae9b996489ba6b7f156"),
    (2, 0, 11, "natural", None, True, True,
     "1ccec2611405927d9e27e1d1cae51e5879e1f91e0a8083206cb8ea4a0d5746fa"),
    (2, 1, 12, "natural", None, False, False,
     "cf1830dae6df49e3658843f7d7cbdd8d1c6a1a61da8b5a9a538e236bd61bcd25"),
    (2, 0, 13, "cap", 50, True, True,
     "84129a20bcf77af1b7a5de426485dce95b0c2025b23d8076f7971003e7123f2d"),
    (2, 1, 14, "first_output", None, True, True,
     "88bc46c813a883f71b9ede3cac91dcce661f9347453ad97a3030501c7f58004f"),
    (3, 0, 21, "natural", None, True, True,
     "4844f9c168cc85cbac6708f7b4669fb84ad171189315be0d10506d77d79f36f7"),
    (3, 1, 22, "natural", None, True, True,
     "1a36befa9402d9b84a27ecea1d768ad779bc8a2a56324b816b07fd2158091895"),
    (3, 2, 23, "natural", None, False, True,
     "464180199adc9e3b8ef424064b7870a0d3777c3deed67dd5becf8433bf71ca92"),
    (3, 0, 24, "cap", 400, True, True,
     "3276f3f42434084639aa5297789dc01e38d1669e573c7024f52a6d9e6f6c21ea"),
    (3, 0, 25, "first_output", None, True, True,
     "5c2617b78c863a9722523bfdb8412597d8779a58c94937a3f7ed7cc58eb1992c"),
    (3, 0, 27, "natural", 100000, True, False,
     "fa0234f9d7b835fac86e82c83399a6de04a754a3e4d0d5b28f062f793e8c13fa"),
    (64, 0, 31, "natural", None, True, True,
     "c569946c87ccf0bdbf5c5790855eafb3892324a92208b6fb1314ceddcb22dbfe"),
    (64, 5, 32, "natural", None, False, False,
     "c1b9e27c36f43443090ab09ad6dc23b03f8cccc92b8de5ee9d6143fdb4cef1a5"),
    (64, 0, 33, "cap", 2000, True, True,
     "bb584e4db1ad5574fdfc0658e5435f6b70ac346872728f04e21ba8c6d1d047ae"),
    (64, 63, 34, "first_output", None, True, True,
     "ad1c0218cdd9b7b72f00348e166d2da1b01686aad4c21fe12131d36106709a0e"),
    (1024, 0, 41, "natural", None, False, False,
     "b3464aa7ff9699c0b0b5ba8195029a9723862e5cf8c038ab59db840cd2d4df02"),
    (1024, 0, 42, "cap", 8192, True, True,
     "eb2bc8fab456cdeef2549a71bc4c02836b9a1b778dae9ea50025390626b284ac"),
    (1024, 7, 43, "first_output", None, False, True,
     "28cab8732e185925e6a4ef9f4a17cf572cd3a1a3d86d56389ae620fe2fef098a"),
    # 1,805,387 proposals, 4 husbands.
    (4096, 0, 45, "natural", None, False, False,
     "9edf75b269f3fb7331097257382f934100b0e791133c56ef9d708365a5d41685"),
]

# The 14 pair-tracking cases whose digests moved when RunStats.pair_counts
# came to hold only the pairs a boy proposed to more than once (a pair
# proposed to once is recorded by his tried row alone). Each new digest was
# computed from the previous kernel's output, with its pair counts
# restricted to counts >= 2, before the kernel changed; nothing else in
# those outputs moved. A case keeps its first digest in RUN_CASES, and with
# it its test id; this maps that digest to the one now expected.
REPINNED = {
    "94872f4688193face4c70f5c7c398b6a2eac6c43e2fe73e572dcec7133e9d6e0":
        "610d4fc3dfbe9058eb651e346c41875f7061329a102d7e792259be55e3784e5d",
    "f74833543c9e6efb162babcafa183e5c7a58350ffc931ae9b996489ba6b7f156":
        "7efe216f43e0f4863c7868ec19ce8ff9a8750759bcf4643cc639db98afddab3f",
    "1ccec2611405927d9e27e1d1cae51e5879e1f91e0a8083206cb8ea4a0d5746fa":
        "de932ddcd2415be0bf25edbc62c90cf720fffdc8b2f7203f4100ff0fcf690b78",
    "84129a20bcf77af1b7a5de426485dce95b0c2025b23d8076f7971003e7123f2d":
        "ca999a560582485787580df2a949dd2e8ad990d4a9d0da817d7258194dafe21f",
    "88bc46c813a883f71b9ede3cac91dcce661f9347453ad97a3030501c7f58004f":
        "65576518fd10f17c6917931d766b222f94d665ed075b0a089c84c2f263727f85",
    "4844f9c168cc85cbac6708f7b4669fb84ad171189315be0d10506d77d79f36f7":
        "539376526d7f0b463a29f28d26aa8374f7e853a2b96431e5e85a9d9be7a7b08f",
    "1a36befa9402d9b84a27ecea1d768ad779bc8a2a56324b816b07fd2158091895":
        "fa54d5f44a0310ae09e3d2586c3d97ae83ed700e4cd5b8bb436568030250a18b",
    "3276f3f42434084639aa5297789dc01e38d1669e573c7024f52a6d9e6f6c21ea":
        "762951d8e7b0c1dfcb255c80a3da929913ec0a26df1051845819c32f4dfe108c",
    "5c2617b78c863a9722523bfdb8412597d8779a58c94937a3f7ed7cc58eb1992c":
        "15935fdabd8ac979ee93a0deafce3e15d2b485dac794784acd546e084f7406bc",
    "fa0234f9d7b835fac86e82c83399a6de04a754a3e4d0d5b28f062f793e8c13fa":
        "4c6ce417056a121685e4901e984e72bd5ffd8f9065e3a8a22fb4702aa3eae498",
    "c569946c87ccf0bdbf5c5790855eafb3892324a92208b6fb1314ceddcb22dbfe":
        "cb1ee52e282577e4da1fc9fb155d99acd514d9c203d77af5919dfc4cd22f8f80",
    "bb584e4db1ad5574fdfc0658e5435f6b70ac346872728f04e21ba8c6d1d047ae":
        "b713e01d1d9d37ade4761c6864898b57693ceb2d092428b5ce1edc6265be3553",
    "ad1c0218cdd9b7b72f00348e166d2da1b01686aad4c21fe12131d36106709a0e":
        "91bea55220b0f7feb5e0f577169b5caff31f525122d27d3cfc8c8150ebb2a0fc",
    "eb2bc8fab456cdeef2549a71bc4c02836b9a1b778dae9ea50025390626b284ac":
        "1a38b3424bbe023a85d0ef99e22154911ea81627e02da74bfbdf6e507de70270",
}

# All 21 cases, re-pinned when RunStats stopped storing the per-entity
# totals that `entity_totals` derives from the tracked logs. Each new digest
# was computed from the previous kernel's output before the kernel changed:
# the three arrays proposals_per_girl, proposals_per_boy and runs_per_boy
# dropped, and, in the 8 cases whose final proposer had begun a run with no
# proposal yet (his runs_per_boy one more than his run_lengths entries), his
# empty final run (boy, 0, 0) appended to run_lengths where it is recorded.
# The same computation checked, for every case on a tracked run of its seed,
# that the three stored arrays equal what `entity_totals` derives. The draws,
# the outputs and every other field stayed as they were. This maps each
# case's digest before that change (its REPINNED entry, or its RUN_CASES
# digest) to the one now expected.
REPINNED_TOTALS = {
    "610d4fc3dfbe9058eb651e346c41875f7061329a102d7e792259be55e3784e5d":
        "90bb0da7339830bc4dbb799ad9761fb3740537dad0f12c63c314f9e583f5fa34",
    "83cdc9d4ffa58aaa03691bcd2b9a10c68d8435a198dc4b1c7662d968ea1f190c":
        "f4570952b8a927dc4d44b964bc8cecdc3c22f5872b2bacb31f7993a4b753863f",
    "7efe216f43e0f4863c7868ec19ce8ff9a8750759bcf4643cc639db98afddab3f":
        "72252b8a3cee05634e39119be177f6722803ba51ab5fdebfd143b2f680e7827e",
    "de932ddcd2415be0bf25edbc62c90cf720fffdc8b2f7203f4100ff0fcf690b78":
        "ca3e57676e606bad1512e58f055c806d50f5ef6a081d438810465f9ce379fcab",
    "cf1830dae6df49e3658843f7d7cbdd8d1c6a1a61da8b5a9a538e236bd61bcd25":
        "049d4bf059d85c5483ba206575061b2757ff7013086afdd6308c7f30eac326c9",
    "ca999a560582485787580df2a949dd2e8ad990d4a9d0da817d7258194dafe21f":
        "cf1431fcf8b0bcd6ee8a916b49134308f278cc9d482c7658fbef8b1f3bc9ff16",
    "65576518fd10f17c6917931d766b222f94d665ed075b0a089c84c2f263727f85":
        "2c2da68f4ca8d70cb7108e282f41852a8b0935cdf6aed2a6eba59d7798223bb7",
    "539376526d7f0b463a29f28d26aa8374f7e853a2b96431e5e85a9d9be7a7b08f":
        "70edcc687e42e33d432b911f34b61cadd6dd0fddfa85313d7ef427e4a222d15d",
    "fa54d5f44a0310ae09e3d2586c3d97ae83ed700e4cd5b8bb436568030250a18b":
        "8f1442facda5b716c5b4060c6f7597843cd3bf483655e4deaf67b984ba751ab6",
    "464180199adc9e3b8ef424064b7870a0d3777c3deed67dd5becf8433bf71ca92":
        "d67c212d9614d41805409347a97353a295d47557e5033a9552763cfbc96b5248",
    "762951d8e7b0c1dfcb255c80a3da929913ec0a26df1051845819c32f4dfe108c":
        "189044b1b2a8cdd093859411cb1b996632b5a9aa99a432bee8145433373cbf2e",
    "15935fdabd8ac979ee93a0deafce3e15d2b485dac794784acd546e084f7406bc":
        "9ede25e8a82938e7f2195a87e963e0ac2cadd35e12495c2805f655739f0f9807",
    "4c6ce417056a121685e4901e984e72bd5ffd8f9065e3a8a22fb4702aa3eae498":
        "d566ea0c4ed4e9565a2cb51e0e3b608e2a62341432fd6a502feb7479c1cbd87f",
    "cb1ee52e282577e4da1fc9fb155d99acd514d9c203d77af5919dfc4cd22f8f80":
        "b2bcb1c33e900cc3b439131c63ca68ed93027c2908ba7c25239c373c3d83d106",
    "c1b9e27c36f43443090ab09ad6dc23b03f8cccc92b8de5ee9d6143fdb4cef1a5":
        "1a7b8ba25be0ea98de576cf0c5179316c7c7d098c380c89eb8f086de5db02bb3",
    "b713e01d1d9d37ade4761c6864898b57693ceb2d092428b5ce1edc6265be3553":
        "9559bad70c83ef87acd5ea0ebf83c340396885213459dabd87403a0fd9c3c289",
    "91bea55220b0f7feb5e0f577169b5caff31f525122d27d3cfc8c8150ebb2a0fc":
        "ebc972930bace8e06d33621c74d7e9b8585f49bffd5fe5b09f76ff00367fd660",
    "b3464aa7ff9699c0b0b5ba8195029a9723862e5cf8c038ab59db840cd2d4df02":
        "6be4a75be820594f81f08b7f0ab75ac292e3c142d9ea600a7148da7b5ac289a8",
    "1a38b3424bbe023a85d0ef99e22154911ea81627e02da74bfbdf6e507de70270":
        "fd0191286a3621b49e66e9cc132722d5148af1c5f424b6d4f7fb17b23cbbb279",
    "28cab8732e185925e6a4ef9f4a17cf572cd3a1a3d86d56389ae620fe2fef098a":
        "5ddd75ef7674788941e1bc67dede42efb2726ede6a36f30ee1aeea528e079eb4",
    "9edf75b269f3fb7331097257382f934100b0e791133c56ef9d708365a5d41685":
        "470beee332b61a9a2de83049167e346fbba70773b7b1a32ff1eff213312bde6e",
}

# All 21 cases, re-pinned when RunStats came to derive redundant_proposals,
# first_output_time and acceptances_by_girl, and pair_counts became one map
# from (boy, girl) to count. Each new digest was computed from the previous
# kernel's output before the kernel changed, with the three stored values
# listed as themselves and each boy's pair dict written as [boy, girl,
# count] triples in sorted order; the same computation checked, on every
# case, that each stored value equals its derivation: t minus the fresh
# proposals, the first output's time (None with no output), and the outputs
# plus pre_output_acceptances. The draws, the outputs and every other field
# stayed as they were. This maps each case's REPINNED_TOTALS digest to the
# one now expected.
REPINNED_DERIVED = {
    "90bb0da7339830bc4dbb799ad9761fb3740537dad0f12c63c314f9e583f5fa34":
        "9808b9d79561ab859b8990e111d8833da26cd8c8f188becad2bbdb43ce15da75",
    "f4570952b8a927dc4d44b964bc8cecdc3c22f5872b2bacb31f7993a4b753863f":
        "8f74d7a244d56f951749b49379e6309b45bc72599bf55e081ec6bc3496a176cf",
    "72252b8a3cee05634e39119be177f6722803ba51ab5fdebfd143b2f680e7827e":
        "2f88ebce60f1ea4a39a7c0ded80df101322cecc17dd972c88c667bb7cdd84c58",
    "ca3e57676e606bad1512e58f055c806d50f5ef6a081d438810465f9ce379fcab":
        "9bebbfdb67afac8aca3995638aebe475ececba54315ed9f0f49b5a94c9f6ae94",
    "049d4bf059d85c5483ba206575061b2757ff7013086afdd6308c7f30eac326c9":
        "049d4bf059d85c5483ba206575061b2757ff7013086afdd6308c7f30eac326c9",
    "cf1431fcf8b0bcd6ee8a916b49134308f278cc9d482c7658fbef8b1f3bc9ff16":
        "c26c565fe7e5e31d50bb96caa2be20d7534237447014c5d55ab5e7ba9d84248d",
    "2c2da68f4ca8d70cb7108e282f41852a8b0935cdf6aed2a6eba59d7798223bb7":
        "53b132e237aee9a1dd160eb48f7bca6e48419693a7f9e027612bff655b53075e",
    "70edcc687e42e33d432b911f34b61cadd6dd0fddfa85313d7ef427e4a222d15d":
        "365e38a7afa48fd6cf58dad0c626c1f39581b272d1281be44227f49aca609ea6",
    "8f1442facda5b716c5b4060c6f7597843cd3bf483655e4deaf67b984ba751ab6":
        "05f538cf5f76e0d9fcd8b5388a075f26353c95a7821506df266766128a3f8800",
    "d67c212d9614d41805409347a97353a295d47557e5033a9552763cfbc96b5248":
        "d67c212d9614d41805409347a97353a295d47557e5033a9552763cfbc96b5248",
    "189044b1b2a8cdd093859411cb1b996632b5a9aa99a432bee8145433373cbf2e":
        "925ee69fa2c21ef4057daacbbf9fafcae962e955e3777b4dcfc38f6b55ce6e52",
    "9ede25e8a82938e7f2195a87e963e0ac2cadd35e12495c2805f655739f0f9807":
        "4f257054d08d8746e6335b14da0017a0c41c035ff055b737c1cf8fc967e896a4",
    "d566ea0c4ed4e9565a2cb51e0e3b608e2a62341432fd6a502feb7479c1cbd87f":
        "1d077ddb7c1db34a2aa83cf259356df911e61302c78aa9b1a9cc80ba7232701c",
    "b2bcb1c33e900cc3b439131c63ca68ed93027c2908ba7c25239c373c3d83d106":
        "bda1cdbdcfccfe7f11aec7916aeac79c59440338de7fa16c7665e366d92a0763",
    "1a7b8ba25be0ea98de576cf0c5179316c7c7d098c380c89eb8f086de5db02bb3":
        "1a7b8ba25be0ea98de576cf0c5179316c7c7d098c380c89eb8f086de5db02bb3",
    "9559bad70c83ef87acd5ea0ebf83c340396885213459dabd87403a0fd9c3c289":
        "3f55ecc4b92421c2ff34e136f8062a7d0fb7f615a6e0fdc77aa17daefa61b6c1",
    "ebc972930bace8e06d33621c74d7e9b8585f49bffd5fe5b09f76ff00367fd660":
        "f066c55e4f9018f19d2c16fee9be99d91d3713988d8cc8a118a02b105078dde9",
    "6be4a75be820594f81f08b7f0ab75ac292e3c142d9ea600a7148da7b5ac289a8":
        "6be4a75be820594f81f08b7f0ab75ac292e3c142d9ea600a7148da7b5ac289a8",
    "fd0191286a3621b49e66e9cc132722d5148af1c5f424b6d4f7fb17b23cbbb279":
        "974a91a62cbe28b04d06ce12eebe7e59b3cd306967d8927b4b9fe58430a122ad",
    "5ddd75ef7674788941e1bc67dede42efb2726ede6a36f30ee1aeea528e079eb4":
        "5ddd75ef7674788941e1bc67dede42efb2726ede6a36f30ee1aeea528e079eb4",
    "470beee332b61a9a2de83049167e346fbba70773b7b1a32ff1eff213312bde6e":
        "470beee332b61a9a2de83049167e346fbba70773b7b1a32ff1eff213312bde6e",
}

# (n, instance seed, girl, digest)
ENUMERATION_CASES = [
    (1, 1, 0,
     "f3b32ab29176e03e56b1f14130bcc3bb06af218cdf848ebe97b63149d29c8239"),
    (2, 2, 1,
     "50b1c207570092a35425e807dd75dcf35cfd871e545b38df12fbebc543252eb2"),
    (5, 3, 2,
     "f321a205f65df02be4b2ed4f5f6d2f823d87109fb538ffcd0ebbcf0b26498225"),
    (64, 4, 0,
     "fabc7503652cde7fde5ccf00bbc1f7568d7e5f06a27f0f1f04e42016230f761c"),
    (64, 5, 63,
     "af58c38d51c300c35568f8ef8e55a378a65ba75666317c61052287c329ed485e"),
    (256, 6, 17,
     "fdf68c0072889862abe2c0c94721f6f521dedd5a65d2cfd8069cacb44c66a190"),
]


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _run_case_id(case) -> str:
    """A case's test id: its fields joined by "-", with "True" after the
    cap, the chain's one proposal rule, as when the cases also ran a
    memoryful variant; so each case keeps its id."""
    n, girl, seed, stop, cap, pairs, runs, digest = case
    fields = (n, girl, seed, stop, cap, True, pairs, runs, digest)
    return "-".join(map(str, fields))


@pytest.mark.parametrize(
    "n,girl,seed,stop,cap,pairs,runs,digest",
    RUN_CASES,
    ids=map(_run_case_id, RUN_CASES),
)
def test_run_digest(n, girl, seed, stop, cap, pairs, runs, digest):
    outputs, stats = run(
        n, girl, seed, stop=stop, max_proposals=cap if stop == "cap" else None,
        track=pairs or runs,
    )
    if not pairs:
        stats.pair_counts = None
    if not runs:
        stats.run_lengths = None
    fields = dataclasses.asdict(stats)
    if stats.pair_counts is not None:
        pairs = sorted(stats.pair_counts.items())
        fields["pair_counts"] = [[b, j, c] for (b, j), c in pairs]
    for name in ("redundant_proposals", "first_output_time", "acceptances_by_girl"):
        fields[name] = getattr(stats, name)
    doc = {"outputs": outputs, "stats": fields}
    expected = REPINNED_TOTALS[REPINNED.get(digest, digest)]
    assert _digest(doc) == REPINNED_DERIVED[expected]


@pytest.mark.parametrize("n,seed,girl,digest", ENUMERATION_CASES)
def test_stable_husbands_digest(n, seed, girl, digest):
    enum = stable_husbands(generate_uniform(n, seed), girl, keep_trace=True)
    doc = {
        "husbands": enum.husbands,
        "matchings": [m.husband_of for m in enum.matchings],
        "trace": [dataclasses.astuple(e) for e in enum.trace],
        "counts": [
            enum.proposal_count,
            enum.first_output_time,
            enum.acceptances_by_girl,
            enum.pre_output_acceptances,
        ],
    }
    assert _digest(doc) == digest


# One tiny campaign of each kind, each with a gate that fails on one key (or
# one block of a size sweep) and passes on the other, so the failure strings
# are pinned too: (id, config, failures expected, digest of report_json).
REPORT_CASES = [
    ("theorem_a",
     {"kind": "theorem", "n": 8, "trials": 6, "master_seed": 3, "method": "a",
      "gate": {"min_inside_fraction": 1.5, "median_range": [0, 10]}},
     1,
     "0a5c8771055f5ac073b5a7beaeff186ba45efd5e5bf94f05037522651fabcac7"),
    ("theorem_b",
     {"kind": "theorem", "n": 8, "trials": 6, "master_seed": 3, "method": "b",
      "gate": {"min_inside_fraction": 0.5, "median_range": [3, 5]}},
     1,
     "c5ec2cb25a5ea59c423fb43324192eac89d8603e698be0af4a31fb881f0b802e"),
    ("equivalence_w1",
     {"kind": "equivalence", "n": [2, 3], "trials": 40, "master_seed": 5,
      "workers": 1, "gate": {"max_tv": 0.06}},
     1,
     "e9c5300fe1a03d77a81a77525755b41a2434095e7375001925cc287ec725c26b"),
    ("equivalence_w2",
     {"kind": "equivalence", "n": [2, 3], "trials": 40, "master_seed": 5,
      "workers": 2, "gate": {"max_tv": 0.06}},
     1,
     "e9c5300fe1a03d77a81a77525755b41a2434095e7375001925cc287ec725c26b"),
    ("lemma_audit",
     {"kind": "lemma_audit", "n": [8, 16], "trials": 3, "master_seed": 7,
      "params": {"delta": 0.3}, "gate": {"min_all_pass_rate": 0.2}},
     1,
     "5ba600cc351bdeb2e995e76eb1f92418226f7307b57195acff7ae52e9d814cf4"),
    ("coupon",
     {"kind": "coupon", "n": 16, "trials": 5, "master_seed": 9,
      "gate": {"max_mean_relative_error": 0.1, "min_window_fraction": 0.5}},
     1,
     # Re-pinned once when the block gained mean_error_in_stderr and
     # harmonic came to sum by math.fsum, which moved the last bits of
     # expected_mean and mean_relative_error; it hashed to 74fa29b3...1e1057.
     "7334874036b53a100271190a09f46f71b88e440f772ee1e955e44250f2cc6db8"),
    ("acceptance_dist",
     {"kind": "acceptance_dist", "n": 1, "trials": 20, "master_seed": 11,
      "params": {"m": 50, "eps": 0.5},
      "gate": {"max_mean_error_stderr": 0.0, "tail_within_bound": True}},
     1,
     # Re-pinned once when the sampler moved from numpy PCG64 to SplitMix64
     # blocks; the PCG64 report hashed to 9e81bf2f...d9e814cf4. Re-pinned
     # again when harmonic and harmonic_second came to sum by math.fsum,
     # which moved the last bits of expected_mean, expected_variance and
     # the values derived from them; it hashed to e3b6d999...cb18bd95.
     "bb456f244d1f845a08c36dbc675135837fd7ce78ba972f6922e376fa8f1c2a29"),
]

# (n, seed, digest of the preference rows)
INSTANCE_CASES = [
    (1, 51,
     "13de47d28530c2a834838a80a1c7218afa913e0d37436b7d4b66da7a362f30fb"),
    (2, 54,
     "4f70d2c91cf665c10b1576afa2170ddfa425039a7b3b4f6d6eaf5696b8732296"),
    (3, 55,
     "99e18d3b2d1d196e71bd876a7425a20244762760eba692a7ce4de33f7e62f3c6"),
    (5, 52,
     "d2a43a956dadba4d7d36215683c60726c7114ae90abf33f7d21101f7138eab0c"),
    (64, 53,
     "a78b106eca57490e18900c2c1de9dd3b38c2d116c4f8a6728bf04b3c2b7b0062"),
    (1024, 56,
     "b63728a01d88c5b1735c1cf2c663fab48ab838f728cf36ce4310d04ac28eb0b2"),
]


@pytest.mark.parametrize(
    "doc,failures,digest",
    [case[1:] for case in REPORT_CASES],
    ids=[case[0] for case in REPORT_CASES],
)
def test_report_digest(doc, failures, digest):
    report, _ = run_experiment(ExperimentConfig.from_dict(doc))
    assert len(report["gate_failures"]) == failures
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == digest


@pytest.mark.parametrize("n,seed,digest", INSTANCE_CASES)
def test_generate_uniform_digest(n, seed, digest):
    inst = generate_uniform(n, seed)
    assert _digest([inst.girl_prefs, inst.boy_prefs]) == digest


# Campaigns whose trials CSV files are pinned byte for byte, apart from the
# elapsed_us column, which is a wall-clock time: (id, config, digest over
# every CSV the campaign writes, in name order). The lemma_audit campaign's
# window of floor(64^1.4) = 337 proposals ends before the first output in
# trial 1, whose first_output_time field is empty; an acceptance_dist row
# has no first output at all; a size sweep writes one trials_n{N}.csv per
# size.
TRIALS_CSV_CASES = [
    ("lemma_audit",
     {"kind": "lemma_audit", "n": 64, "trials": 6, "master_seed": 41,
      "params": {"delta": 0.4}},
     "41b6c174f11528fc500a51305a0a399a5266409602af73579c8df1caf2c880c9"),
    ("acceptance_dist",
     {"kind": "acceptance_dist", "n": 1, "trials": 20, "master_seed": 11,
      "params": {"m": 50}},
     "a02c25e766139c29f9507579ab01a27bd2f4c25bbc1a36987c0a11b1e30a282c"),
    ("theorem_sweep",
     {"kind": "theorem", "n": [8, 16], "trials": 5, "master_seed": 9,
      "method": "b", "workers": 2},
     "58257973002daae3ff5389ef15aad131e21e0c9bc05bd7ef5927c2429960e278"),
]


def _csv_without_elapsed(path) -> bytes:
    """The file's bytes with the last field of every line cut off."""
    lines = path.read_bytes().split(b"\r\n")
    return b"\r\n".join(line.rpartition(b",")[0] for line in lines)


@pytest.mark.parametrize(
    "doc,digest",
    [case[1:] for case in TRIALS_CSV_CASES],
    ids=[case[0] for case in TRIALS_CSV_CASES],
)
def test_trials_csv_digest(tmp_path, doc, digest):
    config = ExperimentConfig.from_dict({**doc, "out_dir": str(tmp_path)})
    report, rows = run_experiment(config)
    paths = sorted(p for p in write_outputs(config, report, rows) if p.suffix == ".csv")
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\n" + _csv_without_elapsed(path) + b"\n")
    assert h.hexdigest() == digest
