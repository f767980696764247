"""Pinned sha256 digests of the byte-stable outputs, one small plan per subcommand.

The replay test compares the code with itself, so a change that moves a
reported number still passes it.  These pins compare every report, CSV,
environment and activation-table file with the bytes recorded when the pins
were written.  Change a pin only for an intended change of output, and
record why in CHANGES.md.  ``plan.json`` carries the software version and
``run.log`` the wall clock, so neither is pinned.
"""

import hashlib

import pytest

from frogsim.cli import main

CASES = {
    "sample-env": (
        ["sample-env", "--law", "poisson:1.0", "--radius", "6", "--seed", "7", "--condition"],
        {"environment.json": "8892db1ad088caa6e1ec2e2671a6149e06ca912d1679ff3cdeb5725838337bf0"},
    ),
    "sample-env-3d": (
        ["sample-env", "--law", "geometric:0.5", "--dim", "3", "--radius", "4", "--seed", "11"],
        {"environment.json": "cae240c486b1727f762d7f476723d9d34589f4d6c1ea77b6b8d1f83ff534c509"},
    ),
    "passage": (
        ["passage", "--law", "bernoulli:0.7", "--radius", "8", "--x", "3,0", "--horizon", "40",
         "--seed", "9", "--check-oracle", "--dump-table"],
        {
            "activation_table.json": "8e5dfcdded9e6824ced6e17721fcb4af89ddf6f0795589d9c7323321b11009af",
            "report.json": "360cb4db355aa141f8d2ebbd4fdffc1724d9319703fc23ed642c29800efea73c",
        },
    ),
    "passage-3d": (
        ["passage", "--law", "bernoulli:0.5", "--dim", "3", "--radius", "5", "--x", "2,1,0",
         "--horizon", "40", "--seed", "4", "--check-oracle", "--dump-table"],
        {
            "activation_table.json": "2698464f514d784653798a033b788884650fe8a7ff0f1f06258ad67d2bb0e271",
            "report.json": "0a30b240a51c875ed162299c86c5906ec458fb40dfa26ff3f9c368de0f78e367",
        },
    ),
    "mu": (
        ["mu", "--law", "poisson:1.0", "--k", "4,8", "--replicas", "12", "--seed", "21"],
        {
            "per_k.csv": "e9072a43a97887fbda3db6503aad6af59755088d181b6b2db7a0cd9e49be6a01",
            "report.json": "2596d3abbe9d83275ade2332c64021c51659038c20f080ca72bd13969806d06e",
        },
    ),
    "tails": (
        ["tails", "--law", "bernoulli:0.7", "--k", "4,6", "--replicas", "20", "--epsilon", "0.5",
         "--mu-hat", "2.5", "--seed", "3"],
        {
            "report.json": "0d86a675d4af7f8f78ae1927f87cac9831ff2d3635db99ac30b7f98a6ca6483e",
            "tail_lower.csv": "beb9dbc6a5329f1ccc158185d680b5ff49efa11a141c4cb3de0c531395905756",
            "tail_upper.csv": "ac96af9684f0956312cec30e2cf149871192d7026497fb8d74d297c3d6171f9f",
        },
    ),
    "concentration": (
        ["concentration", "--law", "constant:1", "--k", "4,8", "--replicas", "10", "--seed", "5"],
        {
            "concentration.csv": "f2beea915fe5af0958bb2a6c5005cff8bb4fa573dc89818d1f77f91971498a0a",
            "report.json": "df6e6c0985b68a2f0161cbcf11cc4efa6c23d465df6d415398098df71952a992",
        },
    ),
    "truncation": (
        ["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2,4", "--replicas", "4",
         "--mu-hat", "1.5", "--seed", "7"],
        {
            "agreement.csv": "bf18e97a3f442f7494b86fbb343d79c202b7f19c16caa1f6259e9ea6d999b271",
            "report.json": "23dfa9b99ac1405e203b096117bddbb4352c7d31c303bbfacf7424a229facf9e",
        },
    ),
    "percolation": (
        ["percolation", "--p", "0.6", "--radius", "15", "--replicas", "20", "--targets", "8,0;0,8",
         "--white-n", "3", "--white-replicas", "4", "--white-subbox", "1", "--seed", "2"],
        {
            "chemical_ratio.csv": "64fbbb96640f55b01559413a4e898c339826d2a42f003607cf9a70f282a1c085",
            "hole_tail.csv": "0a61bab428006beaa1d48d6847101be086f4ba0dbcd35a9ce95f51ca6034778c",
            "report.json": "6dae38947ef97af7d3f0123b34ba6017456a342fd32a5bd175d7ecf11a58c493",
            "white_marginal.csv": "b68215e3af2a6613b884b0b3b37b133ddeacc3d6e81a43caaba78791e09aad9d",
        },
    ),
    "audit": (
        ["audit", "--law", "bernoulli:0.8", "--triples", "4", "--horizon", "30", "--seed", "2"],
        {"report.json": "6357fae729e56d1672e8a5425bb9fa292ced1163b81f22c810d087cf3fac543f"},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    argv, pins = CASES[name]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name not in ("plan.json", "run.log")
    }
    assert got == pins
