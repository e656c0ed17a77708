"""Golden artifacts: fixed commands must reproduce pinned SHA-256 digests.

The determinism tests compare two runs of the same tree; these compare each
run with digests recorded from an earlier tree, so a change that alters any
CSV, SVG, binary or summary byte (a float format, a column order, an RNG
stream) fails here. A change that alters artifacts on purpose re-pins the
digests and says so in CHANGES.md. The digests were recorded with NumPy 2.4;
manifest.json is left out because it records the run's duration and paths.
"""

import hashlib

import pytest

from smirsim.cli import main

PIPELINE = [
    "--synthetic", "--counties", "4", "--sample", "0.05", "--k-bar", "10",
    "--steps", "15", "--reps", "2", "--initial-infected", "20", "--seed", "7",
]

# case -> (argv, {artifact path under --out: SHA-256})
GOLDEN = {
    "meanfield single": (
        ["meanfield", "--lambda", "3", "--svg"],
        {
            "trajectory.csv":
                "12db19fb89f292e72923ce75401fcf6218b56159729423dfa844cbdfa06c6a80",
            "trajectory.svg":
                "48024a95bbac41a51088a2aa1e28606489800bdc435ff87f6e17eabfc731997e",
        },
    ),
    "meanfield lambda sweep": (
        ["meanfield", "--sweep", "lambda=1:2:0.5", "--svg"],
        {
            "sweep_infected.svg":
                "567e0790b6b67e74ae31e14447e2e0347e4babc4c2188df2e851aff942ed677a",
            "sweep_summary.csv":
                "9696eb0dc06ed17103c142eb8d88500902d7626d3d495135fe6e8bc89d4b5bd2",
            "trajectories/traj_lambda_1.5.csv":
                "b3201a901135ebf407a879cc0da3828a1a00aadcdc788788e0d111995c0c98f3",
            "trajectories/traj_lambda_1.csv":
                "5e859074f1ba72146a621d0b047221cd0d3bad02ded86b54e28dfa67ee693267",
            "trajectories/traj_lambda_2.csv":
                "3d124c6085c1759e15b21ab3cf7cb52a31dbff7d4ca850f1cd168e13d9bbb8d6",
        },
    ),
    # The benchmark's first meanfield command: rk4 trajectories pinned day by
    # day, not just the final states a grid keeps.
    "meanfield rk4 sweep": (
        ["meanfield", "--beta-o", "0.3", "--gamma", "0.2", "--alpha", "0.75",
         "--method", "rk4", "--sweep", "lambda=1:5:2"],
        {
            "sweep_summary.csv":
                "ed7c9572277d17da2375ef2023521d9f5ead2ae1d741eef152d0c97720b1ce94",
            "trajectories/traj_lambda_1.csv":
                "7432e927d9e1cd45ff2cd0cd408746d46f8cfc9f99ff3260be1a7353b3e2d0d6",
            "trajectories/traj_lambda_3.csv":
                "66f3bc77150737bc5a15deddca604206af9f1191f2d2ff0adcdab53bf496aade",
            "trajectories/traj_lambda_5.csv":
                "d9651f2d361fa16ce085e55ab49ff174c99845a81d82571c22e7d23453fd5df8",
        },
    ),
    "meanfield rk4 grid": (
        ["meanfield", "--lambda", "3", "--method", "rk4",
         "--sweep", "alpha=0.5:1:0.25", "--grid", "beta-o=0.1:0.3:0.1", "--svg"],
        {
            "grid.csv":
                "8a4d4465c53d9aa71bdea19f09a0f9a1448766966a9ad0cb31d0d693038a7ef9",
            "grid_argmax.csv":
                "1ba6e4486dfd1cfa0eb45d10daf3cb8279478a77e8d4112208249e1a5f0a3731",
            "grid_misinformed.svg":
                "610d79393d34ae44f21c6bfcc2adc0035bf5b5ea3ff1fdc9f135ef5edfa6595d",
            "grid_ordinary.svg":
                "c5b7f377fcf397ac092457035dd584744ac36a677abd35b470a8469231ef9ddc",
            "grid_overall.svg":
                "6a8428fdf206ab984a7267170ce7959cacd88729c6c9cb36742b8e3ee387e699",
        },
    ),
    "gen-scenario": (
        ["gen-scenario", "--counties", "20", "--seed", "3"],
        {
            "counties.csv":
                "f1c6859d0eff9fa63e3aed91e78ec385835aed252517164a2f68a1a5d14cadc2",
            "infonet_edges.csv":
                "24d4aa25189e5e7b17a45fca21308263c6993d57c81f57861cfad3f3a4a20f7c",
            "infonet_nodes.csv":
                "dd9a988f1ec3eafda8610ab53ee5d3bca14318e7cdb4ebcb8de0322d83f724dc",
            "mobility.csv":
                "0b4a357e1f6dc43dd9295fc9263a8677abb6ce07e60a40d50220e7ff46f507ae",
        },
    ),
    # The scenario the benchmark's pipelines start from: 341 counties, 181,202
    # accounts, 870,958 retweet edges.
    "gen-scenario default": (
        ["gen-scenario", "--seed", "1"],
        {
            "counties.csv":
                "a2e2326f66782dbc5eca99aef066d2a233e7a9393834d37cdd5df0a5f129a243",
            "infonet_edges.csv":
                "f1f8dd3140e07be8c00ef3a55b266b23cf43231c69b5e302e842747f7feaec87",
            "infonet_nodes.csv":
                "e902709f4ccb4970c527434477d57688ebe72e89f35d86575d2aa12a92eec55a",
            "mobility.csv":
                "b8b82c65d8e3f8b90aeb6b56a9c20f746ce8562582207a3a3ccd215f4904ce3c",
        },
    ),
    "pipeline": (
        ["pipeline", *PIPELINE, "--svg"],
        {
            "contactnet.bin":
                "3d5ae6d178656184576ce77c3d4daa0b8cde0a2f92656bb871f0f9be7c1642ac",
            "counties.csv":
                "842ef89cb39a40123cadad3b5cf079a923cb8c3cd0e6e2d6da4bb8b64095b5b3",
            "epidemic.svg":
                "d61e8869df45e485fcc843bc2db8dea70fa333e44e4281be082b33ec3a56552d",
            "infonet_edges.csv":
                "e052e31483d32eb8f3f575ca4a3a2cbb6d0181872b61da774be0cd374443224e",
            "infonet_nodes.csv":
                "122fe0483f0690734ff2b0318d4a1b47d768d2e6a6b9b466612bb869f6747164",
            "mobility.csv":
                "413a39f382f3f3264497caa03b61c3feeef03578eb80f3ef68da8933109ff8a0",
            "result.csv":
                "d5cdf063df9095d355c31b77124382f8b18aa454002c3c17f6c01e6302568fbf",
            "summary.json":
                "2530ad3b4529b0da0ccdd97614637777ceda07f0155602f896b2c3a1aeb46a3a",
        },
    ),
    "phi sweep": (
        ["sweep", *PIPELINE, "--vary", "phi", "--values", "1,3", "--svg"],
        {
            "counties.csv":
                "842ef89cb39a40123cadad3b5cf079a923cb8c3cd0e6e2d6da4bb8b64095b5b3",
            "infonet_edges.csv":
                "e052e31483d32eb8f3f575ca4a3a2cbb6d0181872b61da774be0cd374443224e",
            "infonet_nodes.csv":
                "122fe0483f0690734ff2b0318d4a1b47d768d2e6a6b9b466612bb869f6747164",
            "mobility.csv":
                "413a39f382f3f3264497caa03b61c3feeef03578eb80f3ef68da8933109ff8a0",
            "rows/phi_1/contactnet.bin":
                "3d5ae6d178656184576ce77c3d4daa0b8cde0a2f92656bb871f0f9be7c1642ac",
            "rows/phi_1/result.csv":
                "d5cdf063df9095d355c31b77124382f8b18aa454002c3c17f6c01e6302568fbf",
            "rows/phi_3/contactnet.bin":
                "107b1a8f50ac368f969c85b7ef7c2f326fa36a49fe0a2fa41942096c0ad7f1c6",
            "rows/phi_3/result.csv":
                "1debe6b10301235bfc428c60065d22dd333c14199ab64995e908350302189ca0",
            "sweep_cumulative.svg":
                "bb9bf711f44c75295aba669a233cd695cc31cadd7005ecb30e95b9e0db1adb9c",
            "sweep_summary.csv":
                "af8b6658ba65cbbbfd647fad8f5429266b093139bb3ed83784906012dec5eede",
        },
    ),
}


def artifact_digests(out) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.mark.parametrize("case", list(GOLDEN))
def test_artifacts_match_pinned_digests(tmp_path, case):
    argv, expected = GOLDEN[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert artifact_digests(tmp_path) == expected
