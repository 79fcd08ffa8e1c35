"""Golden sha256 digests of every CLI verb's outputs on a small corpus.

Each case runs one `rolewire` command and hashes every file it writes
plus its stdout. The digests were recorded once and are compared
byte for byte, so a refactor that changes any output fails here even
when each run still agrees with the next one.

To print the digests of the current code (for example after a change
that is meant to alter an output format):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rolewire.cli import main

VARIANTS = ("full", "repnodes", "repedges", "mn")

# A two-column feature table for the 31-node tree.
TREE_FEATURES = "node,f0,f1\n" + "".join(
    f"{u},{u % 3}.0,{(7 * u) % 5 / 4}\n" for u in range(31))

# A one-column table for the same tree with cells at the edges of the
# six-decimal format: a negative zero, a negative value that rounds to
# zero, and a value with nine integer digits.
EDGE_FEATURES = "node,f0\n" + "".join(
    f"{u},{('-0.0', '-1e-9', '123456789.125')[u % 3]}\n" for u in range(31))

ACCURACY = "percentile,accuracy\n0,0.9\n25,0.8\n50,0.75\n75,0.6\n100,0.5\n"

# (case, argv); "{out}" is the case's output directory, "{tree}"/"{lobster}"
# the generated graph directories, "{root}" the shared working directory.
CASES: list[tuple[str, list[str]]] = [
    ("gen-tree", ["gen", "--family", "tree", "--n", "31", "--classes", "3",
                  "--out", "{tree}"]),
    ("gen-lobster", ["gen", "--family", "lobster", "--n", "40", "--classes", "3",
                     "--seed", "1", "--out", "{lobster}"]),
]
for _g in ("tree", "lobster"):
    CASES += [
        (f"partition-{_g}-eps0", ["partition", "--graph", f"{{{_g}}}/graph.txt",
                                  "--eps", "0", "--out", "{out}"]),
        (f"partition-{_g}-p25", ["partition", "--graph", f"{{{_g}}}/graph.txt",
                                 "--percentile", "25", "--out", "{out}"]),
    ]
for _v in VARIANTS:
    CASES += [
        (f"rewire-tree-{_v}", ["rewire", "--graph", "{tree}/graph.txt",
                               "--percentile", "25", "--variant", _v,
                               "--out", "{out}"]),
        (f"rewire-tree-{_v}-features", ["rewire", "--graph", "{tree}/graph.txt",
                                        "--percentile", "25", "--variant", _v,
                                        "--features", "{root}/features.csv",
                                        "--out", "{out}"]),
        (f"rewire-lobster-{_v}", ["rewire", "--graph", "{lobster}/graph.txt",
                                  "--percentile", "25", "--variant", _v,
                                  "--out", "{out}"]),
    ]
CASES += [
    ("srl-tree-p25", ["srl", "--graph", "{tree}/graph.txt",
                      "--labels", "{tree}/labels.csv", "--percentile", "25",
                      "--out", "{out}"]),
    ("srl-tree-full-eps0", ["srl", "--graph", "{tree}/graph.txt",
                            "--labels", "{tree}/labels.csv", "--eps", "0",
                            "--variant", "full",
                            "--out", "{out}"]),
    ("srl-lobster-mn", ["srl", "--graph", "{lobster}/graph.txt",
                        "--labels", "{lobster}/labels.csv", "--eps", "0",
                        "--variant", "mn", "--out", "{out}"]),
    ("select-eps-tree", ["select-eps", "--graph", "{tree}/graph.txt",
                         "--labels", "{tree}/labels.csv", "--out", "{out}"]),
    ("select-eps-lobster-stdout", ["select-eps", "--graph", "{lobster}/graph.txt",
                                   "--labels", "{lobster}/labels.csv",
                                   "--variant", "repedges"]),
    ("effres-tree-baseline", ["effres", "--graph", "{tree}/graph.txt"]),
    ("effres-tree-repnodes", ["effres", "--graph", "{tree}/graph.txt",
                              "--variant", "repnodes", "--percentile", "25",
                              "--out", "{out}"]),
    ("effres-lobster-mn", ["effres", "--graph", "{lobster}/graph.txt",
                           "--variant", "mn", "--eps", "0", "--out", "{out}"]),
    ("ts-sim", ["ts-sim", "--families", "star,path", "--n", "12",
                "--epochs", "50", "--out", "{out}"]),
    ("srl-correlate", ["srl-correlate",
                       "--table", "{root}/select-eps-tree/candidates.csv",
                       "--accuracy", "{root}/accuracy.csv", "--out", "{out}"]),
    ("gen-er-p", ["gen", "--family", "er", "--n", "30", "--p", "0.15",
                  "--classes", "3", "--out", "{out}"]),
    ("gen-grid-no-classes", ["gen", "--family", "grid", "--n", "12", "--out", "{out}"]),
    ("partition-tree-eps1.5", ["partition", "--graph", "{tree}/graph.txt",
                               "--eps", "1.5", "--out", "{out}"]),
    ("rewire-tree-full-edge-features", ["rewire", "--graph", "{tree}/graph.txt",
                                        "--percentile", "25", "--variant", "full",
                                        "--features", "{root}/edge-features.csv",
                                        "--out", "{out}"]),
]


def run_cases(root: Path) -> dict[str, dict[str, str]]:
    """Run every case in order under `root`; return case -> {file: sha256}."""
    (root / "features.csv").write_text(TREE_FEATURES)
    (root / "edge-features.csv").write_text(EDGE_FEATURES)
    (root / "accuracy.csv").write_text(ACCURACY)
    dirs = {"root": root, "tree": root / "gen-tree", "lobster": root / "gen-lobster"}
    digests = {}
    for case, template in CASES:
        out = root / case
        argv = [a.format(out=out, **dirs) for a in template]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, (case, code)
        files = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
        if out.is_dir():
            for path in sorted(out.rglob("*")):
                files[str(path.relative_to(out))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        digests[case] = files
    return digests


GOLDEN: dict[str, dict[str, str]] = {
    "gen-tree": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.txt":
            "25fb28a20a33b2b5a0b388616489a642291e96158689319533d6c0117fc712bc",
        "labels.csv":
            "a5c3f01333f772c34e93bd916a25f21d2b8cfaa29b115435c9337c2c332dda49",
        "meta.txt":
            "22f293edd4281b9172a063b2329573d9fdb7ce4874265b330f72103a6c709753",
    },
    "gen-lobster": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.txt":
            "04cd9590e7cc0cd5482f62f0a35c18bfde112fb2c40fe14fd49fe90b12b9f4b3",
        "labels.csv":
            "a17f81183a88cd9b2c1a51a8a9a03943185ed0bb7957c186bfad512cbd1632c1",
        "meta.txt":
            "116fd3a07a508805926d4da081b694a60860d4c12921992a68b6a60b008d53b9",
    },
    "partition-tree-eps0": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "meta.txt":
            "d8127c10cbbee111eaf77f26fab02633efb1b06e721554b1fe4f232700f506cf",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "quotient.csv":
            "b0c5d3688239a17e42e1de87a4d08e3562939e5abf8a9ed5b3dec5483fe730f9",
    },
    "partition-tree-p25": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "meta.txt":
            "89b2eb1533adb1d6ea55058aa3feea1835b7c1353f9520c8c55c5ead52cfb5f7",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "quotient.csv":
            "f2cb777f723db883b12a282982b659d8846f71661c9f14dc0328bfcf6476a498",
    },
    "partition-lobster-eps0": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "meta.txt":
            "7244fe2ca7789d77f5840b6b6fd2bed6f1baeb474f3c308f528dfdcb9ec676c7",
        "partition.csv":
            "7df9f903059314e1d85c5b67ae18b4bbd04803539846c227a8bafe9e3ac6fc84",
        "quotient.csv":
            "9a82511b985af04c32fa8ae05c6e0694996a87206dcbca3a6ce3368bf8139926",
    },
    "partition-lobster-p25": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "meta.txt":
            "b8099003e7cbaa1e2234aa1067be12d39f46c3316e55ff5cc87bccdf6045f3d2",
        "partition.csv":
            "7e8b13433e360668d1ac7b982777d35f4deab40a7d8c2a294a0abd78d2485bca",
        "quotient.csv":
            "fca29db69535932c42cbc812bc9fc2824ed424a998acf03067dd40c6d49c79c6",
    },
    "rewire-tree-full": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "644d68f365f68757e56853e387d4fb14868f1e745f6658d520ea87d0dc8408ae",
        "meta.txt":
            "eb3dca89f2c58f559c2f911f7e152902ec681b19e02dbe0ee9ef0fd0f400c0bd",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "660c8bd6ca1bb5d6781f52f232e6b2f04cb6f645abdf74804a365ccd4260e879",
        "rewired.txt":
            "a6daeab0ef0db0d016a921b69b658f92766d10a2f42661231f274fae674d44b2",
    },
    "rewire-tree-full-features": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "d252da17faf2802a3a3741eef507a18d7ebf55c8e8a397e9cde87df195aed355",
        "meta.txt":
            "eb3dca89f2c58f559c2f911f7e152902ec681b19e02dbe0ee9ef0fd0f400c0bd",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "660c8bd6ca1bb5d6781f52f232e6b2f04cb6f645abdf74804a365ccd4260e879",
        "rewired.txt":
            "a6daeab0ef0db0d016a921b69b658f92766d10a2f42661231f274fae674d44b2",
    },
    "rewire-lobster-full": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "da4d63c83c92badec42fd31267bc4612a80b78e1077adc21898c690bff124f86",
        "meta.txt":
            "74de2d5593ef935236a5ddda89207466752725d0c5cffdc09834ec7e1c4d5bb3",
        "partition.csv":
            "7e8b13433e360668d1ac7b982777d35f4deab40a7d8c2a294a0abd78d2485bca",
        "rewired.meta":
            "4cd0b7dea6b8c4c79a1a3693333430ed079d301327fc47e9914415aa25964b2d",
        "rewired.txt":
            "158557f8189f526bd7ae91b545e6081c36e44cbd9730107d599042bc4d4d242d",
    },
    "rewire-tree-repnodes": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "644d68f365f68757e56853e387d4fb14868f1e745f6658d520ea87d0dc8408ae",
        "meta.txt":
            "9b8c06b7f30aecfca5c9bf29c91afb3cfe5b66289a8fe0c535cc545ea151f4d2",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "5d3cc47777b42e46ee02354cf467148d5ec692df05d83162af55dbaa7a6902aa",
        "rewired.txt":
            "b312dcfc90a901466108931091e507c08cc32c935e90f15c3c0a86e6164e332e",
    },
    "rewire-tree-repnodes-features": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "d252da17faf2802a3a3741eef507a18d7ebf55c8e8a397e9cde87df195aed355",
        "meta.txt":
            "9b8c06b7f30aecfca5c9bf29c91afb3cfe5b66289a8fe0c535cc545ea151f4d2",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "5d3cc47777b42e46ee02354cf467148d5ec692df05d83162af55dbaa7a6902aa",
        "rewired.txt":
            "b312dcfc90a901466108931091e507c08cc32c935e90f15c3c0a86e6164e332e",
    },
    "rewire-lobster-repnodes": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "da4d63c83c92badec42fd31267bc4612a80b78e1077adc21898c690bff124f86",
        "meta.txt":
            "590a5bb87fe46d277d452c4864871ad682674c30a2c8926326737407a1452ef2",
        "partition.csv":
            "7e8b13433e360668d1ac7b982777d35f4deab40a7d8c2a294a0abd78d2485bca",
        "rewired.meta":
            "52b415e22687e103599c30ca8fa529553359e8cd46f9f4a22f8dd8ae51d66413",
        "rewired.txt":
            "b3dc5c8cec58d8e0422f514adbbece3cc87c829676bc9300a8c3614d591927a4",
    },
    "rewire-tree-repedges": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "644d68f365f68757e56853e387d4fb14868f1e745f6658d520ea87d0dc8408ae",
        "meta.txt":
            "d01e989fb61dea06f900d3bb328c6221a3e4514134ad0fb25187e15e453ca93d",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "7a892e93fa17e1ce59efd9c24eaa5e185b25887859edb033d04580ead6f58a65",
        "rewired.txt":
            "e64574151e66400d6542c320ce8e614b000e0036fb6403cf717b757d921a0d2c",
    },
    "rewire-tree-repedges-features": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "d252da17faf2802a3a3741eef507a18d7ebf55c8e8a397e9cde87df195aed355",
        "meta.txt":
            "d01e989fb61dea06f900d3bb328c6221a3e4514134ad0fb25187e15e453ca93d",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "7a892e93fa17e1ce59efd9c24eaa5e185b25887859edb033d04580ead6f58a65",
        "rewired.txt":
            "e64574151e66400d6542c320ce8e614b000e0036fb6403cf717b757d921a0d2c",
    },
    "rewire-lobster-repedges": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "da4d63c83c92badec42fd31267bc4612a80b78e1077adc21898c690bff124f86",
        "meta.txt":
            "9e8f2e2f7dca176870195976604aa352a8973c0c923b07e531736b68fd9f6535",
        "partition.csv":
            "7e8b13433e360668d1ac7b982777d35f4deab40a7d8c2a294a0abd78d2485bca",
        "rewired.meta":
            "0c5b8f5838ec64221107425f969b711209d9d4b78b7461a780945aeee1f3cf6e",
        "rewired.txt":
            "c0901126e8412e4279a3feacfe80be6255ecaa4c2807978ad4612e5beeb202ff",
    },
    "rewire-tree-mn": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "90175c43787fc00c0518311980b93d2aa83fd61d1ac54aec52c4c0d9af28cf81",
        "meta.txt":
            "86b53f02e59d41d56b62b3f0f6361cdab9b4a7708878d9634d6acd372c55717e",
        "partition.csv":
            "9acfaf486554d655441b21938b3a35a00dad755200182da3442fa0b281c5b167",
        "rewired.meta":
            "009030fb8bf74aa084c06d8cc01a2f6dfc88208dbb5779d801f601d034f946f8",
        "rewired.txt":
            "ff7b33519d8536e65d8c9dd04deede29b436d61637c9057159646a1aaf283cc8",
    },
    "rewire-tree-mn-features": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "bc11805e7c6c0e6088854f86065ab7a748ab01505116925dabeb84d65bfd61c1",
        "meta.txt":
            "86b53f02e59d41d56b62b3f0f6361cdab9b4a7708878d9634d6acd372c55717e",
        "partition.csv":
            "9acfaf486554d655441b21938b3a35a00dad755200182da3442fa0b281c5b167",
        "rewired.meta":
            "009030fb8bf74aa084c06d8cc01a2f6dfc88208dbb5779d801f601d034f946f8",
        "rewired.txt":
            "ff7b33519d8536e65d8c9dd04deede29b436d61637c9057159646a1aaf283cc8",
    },
    "rewire-lobster-mn": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "5b1a46d6f972278162cc981814fd745dbc5b83ff5c984da5b2a3c164e76d3e41",
        "meta.txt":
            "0d201c7655895b64f1a2a17e72948e0f30679d92a4a0f87ec0549858dd38cfa1",
        "partition.csv":
            "895391e943ff3a877cd8648420bbb4541366d41f2d40eeefafeffa42fb78434a",
        "rewired.meta":
            "4729e13cebc7b21dca4ef205180239a8c94df6a58c75940f404ecb52f5680a83",
        "rewired.txt":
            "fa7fd44cccde284b8139787d9b476ab23945a3fc8f02ea545cef35dea58fba19",
    },
    "srl-tree-p25": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "srl.csv":
            "cd3c09f522163213f26739eaaad8fbe62066412087508589fb636a921c6ad59f",
    },
    "srl-tree-full-eps0": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "srl.csv":
            "d32f6ec77b4a769ad0edf718481c3f72f04639d073b7d8e2c16cb36fcdd25121",
    },
    "srl-lobster-mn": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "srl.csv":
            "1b0f2bf8bfb3a874fd8a963efd2ae1737beaf5dcaae2ae3af548483eb332ecc7",
    },
    "select-eps-tree": {
        "stdout":
            "57368159d1c314be12e08e77b7f57708292c773f0a55469b92dd79cd2175651c",
        "candidates.csv":
            "a72c0b8fe24728b295cc9ff3613db2ffe024053b32214c6a8d4b76d3edc16fcf",
    },
    "select-eps-lobster-stdout": {
        "stdout":
            "699879cf4582de5876e5996183d440a64efc1efd61f73ddb97e3e4af457169d5",
    },
    "effres-tree-baseline": {
        "stdout":
            "05281b829a001287d460d70b97756fb9fc66095ca00084c5e55a3708ebaff381",
    },
    "effres-tree-repnodes": {
        "stdout":
            "4e1c77ec821529e82490ec0dedbba6c13411df7a252353e212b5dee6e7f81c59",
        "effres.csv":
            "ce301b8cb4d51d1218fc790ccddd59e1c3de431820e2eae08911e0b798ead24c",
    },
    "effres-lobster-mn": {
        "stdout":
            "9c86e01aba068c15eb24633a1e1cc6be117d03e6606d648c37e17ae3441f5285",
        "effres.csv":
            "f65e43169393fe68cebb657f1ec89a8903bf2b2a15a66b654cec626e562ce9ab",
    },
    "ts-sim": {
        "stdout":
            "a10ffb8bab1246465de771a7b03d5f4bc18ab7ac946c2334e2a144c097c4ea60",
        "ts.csv":
            "2232a9cdabbb1f9fcc1b99b3035f70ae2fd5ca83bb00274d98f13dd37d2cac0c",
    },
    "srl-correlate": {
        "stdout":
            "7f9a065436ab2c379d697415e19d15361a19e061933df7a899dd87e97f358bff",
        "correlation.csv":
            "2bd9af020f59195ca315cd384a78bae79143349ad77189e02e2a5a1eaf0bb8b0",
    },
    "gen-er-p": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.txt":
            "12bc5ef3cb93900e990a10963c6999bfc7c724987dafa0c3d991bacd72ef48a8",
        "labels.csv":
            "a127f12add4d285c6597cd689dc033b425ffa29bed7fcaf31c86cda4f8e9b984",
        "meta.txt":
            "5def0d27a6e53a127a8ef5e64787989b943ab77b01691ca065df3ac5f985340e",
    },
    "gen-grid-no-classes": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graph.txt":
            "1e8e04e28cad555cae85ab26718294a543060f67f60c83378f4834f5a2098e38",
        "meta.txt":
            "b2e5d94f619c5ed82d19149f2b82eda3d1c4dd0a9fa8948bcca03eadfd7c793d",
    },
    "partition-tree-eps1.5": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "meta.txt":
            "6bb9c3b78c3fad14b9809882d0e3cd534f4a0c069458bd3b43988fda6670abd5",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "quotient.csv":
            "60444b7185b6916ae3a1a00da0f96e7453b9d8d8c44298cd09473a32e7add78d",
    },
    "rewire-tree-full-edge-features": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "features.csv":
            "43c4d1b7a7d080d48aa416180b6b33a0e1860db17aa94df14655cd0463f3311d",
        "meta.txt":
            "eb3dca89f2c58f559c2f911f7e152902ec681b19e02dbe0ee9ef0fd0f400c0bd",
        "partition.csv":
            "beda93246fcaab00ce100dc299c14bbeda0a57daf6f735905463d81a719cf71d",
        "rewired.meta":
            "660c8bd6ca1bb5d6781f52f232e6b2f04cb6f645abdf74804a365ccd4260e879",
        "rewired.txt":
            "a6daeab0ef0db0d016a921b69b658f92766d10a2f42661231f274fae674d44b2",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, dict[str, str]]:
    return run_cases(tmp_path_factory.mktemp("golden"))


def test_every_case_has_a_digest():
    assert [case for case, _ in CASES] == list(GOLDEN)


@pytest.mark.parametrize("case", [case for case, _ in CASES])
def test_outputs_match_golden_digests(outputs, case):
    assert outputs[case] == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_cases(Path(tmp)), sys.stdout, indent=4)
        print()
