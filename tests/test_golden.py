"""Golden artifact digests: the bytes every CLI command writes, pinned across commits.

The determinism tests compare reruns of one checkout; this one compares
against a table, so a change that moves any artifact's bytes fails here and
names the artifact.  All eight commands run at 96x80 for seeds 7 and 11.

A change that alters output on purpose regenerates the table in the same
commit (`PYTHONPATH=src python tests/test_golden.py` prints it) and says
which digests moved and why.  `expm` and `np.log` results can differ
between numpy/scipy builds, so the failure message prints the versions the
table was made with beside the running ones.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import scipy

from evmeshflow.cli import main

MADE_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

SIZE = ("width=96", "height=80")
SCENES = {
    "gen-translation": ("velocity=12,-5",),
    "gen-affine": ("motion=affine", "generator=0.035,-0.07,4.5,0.07,0.025,-3.5"),
    "gen-homography": (
        "motion=homography", "generator=0.02,-0.02,6,0.02,0.02,-3,2e-4,-2e-4", "t_end=0.5",
    ),
}
SWEEP = ("velocity=12,-5", "thresholds=0.05,0.2,50")


def _commands(root: Path):
    """(output directory name, argv) for every command, in dependency order."""
    gen = root / "gen-translation"
    flow, mesh = gen / "flow_0000_0001.flo1", gen / "mesh_0000_0001.msh1"
    events = [root / "simulate" / f"events_{k:02d}_c{c}.evt1" for k, c in enumerate(("0.05", "0.2", "50"))]
    commands = [(name, ("gen", *SIZE, *args)) for name, args in SCENES.items()]
    commands += [
        ("simulate", ("simulate", *SIZE, *SWEEP)),
        ("density", ("density", *SIZE, *SWEEP)),
        ("select", ("select", "candidates=" + ",".join(map(str, events)), f"flow={flow}")),
        ("meshflow", ("meshflow", f"flow={flow}", "visualize=1")),
        ("eval-flow", (
            "eval", f"pred={root / 'gen-affine' / 'flow_0000_0001.flo1'}", f"gt={flow}",
        )),
        ("eval-meshflow", (
            "eval", "kind=meshflow", f"pred={root / 'meshflow' / 'meshflow.msh1'}",
            f"gt={mesh}", *SIZE,
        )),
        ("warp-flow", (
            "warp", f"image={gen / 'frame_0001.pgm'}",
            f"reference={gen / 'frame_0000.pgm'}", f"flow={flow}",
        )),
        ("warp-mesh", (
            "warp", f"image={gen / 'frame_0001.pgm'}",
            f"reference={gen / 'frame_0000.pgm'}", f"flow={mesh}",
        )),
        ("subsample-spatial", (
            "subsample", f"events={events[0]}", f"flow={flow}", "mode=spatial", "keep_ratio=0.25",
        )),
        ("subsample-temporal", (
            "subsample", f"events={events[1]}", f"flow={flow}", "mode=temporal", "keep_ratio=0.5",
        )),
    ]
    return commands


def digests(root: Path) -> dict[str, str]:
    """Run every command for each seed under root; map seed/dir/file to its sha256."""
    found = {}
    for seed in (7, 11):
        base = root / str(seed)
        for name, argv in _commands(base):
            out = base / name
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*map(str, argv), "--out", str(out), "--seed", str(seed)])
            assert code == 0, f"{seed}/{name}: {err.getvalue()}"
            for path in sorted(out.iterdir()):
                if path.is_file():
                    found[f"{seed}/{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def test_artifacts_match_golden_digests(tmp_path):
    found = digests(tmp_path)
    differ = sorted(k for k in GOLDEN.keys() & found.keys() if GOLDEN[k] != found[k])
    missing = sorted(GOLDEN.keys() - found.keys())
    extra = sorted(found.keys() - GOLDEN.keys())
    versions = (
        f"table made with numpy {MADE_WITH['numpy']}, scipy {MADE_WITH['scipy']}; "
        f"running numpy {np.__version__}, scipy {scipy.__version__}"
    )
    assert not (differ or missing or extra), (
        f"{len(differ)} differ: {differ}\n{len(missing)} missing: {missing}\n"
        f"{len(extra)} new: {extra}\n{versions}"
    )


GOLDEN = {
    "7/gen-translation/flow_0000_0001.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0001_0002.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0002_0003.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0003_0004.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0004_0005.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0005_0006.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0006_0007.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0007_0008.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0008_0009.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0009_0010.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0010_0011.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0011_0012.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/flow_0012_0013.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "7/gen-translation/frame_0000.pgm":
        "c764f4a53ceaa2a3dae121cec4b7c4b6e58e00fb970f0cbd7c716f92f7994925",
    "7/gen-translation/frame_0001.pgm":
        "b57a3596b8c53085c5124842b7836417d6aa0a32c1cc5dc6e856e3b86a1096e9",
    "7/gen-translation/frame_0002.pgm":
        "ebc96e6f3157becd09191d74eeeb0abc10956a70f5fa601a5e1c60adb4ff5992",
    "7/gen-translation/frame_0003.pgm":
        "e51d047bc71ba75bbdcbe526036c49943a32b32ca33964b88a60112857c81424",
    "7/gen-translation/frame_0004.pgm":
        "4f77a797a93ce6f4387d5d9f6a09e2de60aa03f721a6c2daac3c2ebb062f3803",
    "7/gen-translation/frame_0005.pgm":
        "9698bb17f0df11a2ec5e1c73212041d954307b2ddb714ef24cdad16d2a81839e",
    "7/gen-translation/frame_0006.pgm":
        "a60bfe5d3d893af974ef126bdcf285ffc1568452d5a426a3655dd4057ab8cc33",
    "7/gen-translation/frame_0007.pgm":
        "081c5841a007bc53e082dc6120b5097fcd604da5f507e80c24597582ed8fa2e0",
    "7/gen-translation/frame_0008.pgm":
        "bf789d934dd96dce903cf1f8e1e3b403fd43260f7058feceebe6b1abaa603154",
    "7/gen-translation/frame_0009.pgm":
        "401da32334bbf80a08d90ea78492c8866b560921638c5943a5666466cf44ad8f",
    "7/gen-translation/frame_0010.pgm":
        "9ce85ce195e271f97639edcaef7160a8a5bcfbf6a92edd6d5dc16de6331623bf",
    "7/gen-translation/frame_0011.pgm":
        "3a8e03b802c0d3f9f350853ac500bb481ccddb1b9eeff86232646964b897e97d",
    "7/gen-translation/frame_0012.pgm":
        "a0d48931707e503ac03668044a634981a6b637ae5c19d7c95a01e7cd4eb1ae12",
    "7/gen-translation/frame_0013.pgm":
        "52986ae3bafff18f44d2f6ee6559931e3d6e6c7b74d67a059f56427ece7cb3fb",
    "7/gen-translation/manifest.txt":
        "5c959a474c1fd11641e54b948344d6dfcb5b307e688af334e9100f8821e2fb65",
    "7/gen-translation/mesh_0000_0001.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0001_0002.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0002_0003.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0003_0004.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0004_0005.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0005_0006.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0006_0007.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0007_0008.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0008_0009.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0009_0010.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0010_0011.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0011_0012.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/mesh_0012_0013.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/gen-translation/times.csv":
        "fc15150efbecbad0a931c593dfa82600b5f5fb987c5e5e39e6af658e5de04895",
    "7/gen-affine/flow_0000_0001.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0001_0002.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0002_0003.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0003_0004.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0004_0005.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0005_0006.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0006_0007.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0007_0008.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "7/gen-affine/flow_0008_0009.flo1":
        "7e40711465a9599df1db8a8dfa2c4f99279d96d32c7722a6d32f9ca964d40631",
    "7/gen-affine/frame_0000.pgm":
        "c764f4a53ceaa2a3dae121cec4b7c4b6e58e00fb970f0cbd7c716f92f7994925",
    "7/gen-affine/frame_0001.pgm":
        "452d0aa37ac490cc82d7a3a5343e194febdae7ceed81311f2f9ade555b8eed26",
    "7/gen-affine/frame_0002.pgm":
        "63a4aac0c0cb3d47d08a0be8ee74fdcf0e2d048b18e58b9c95d49c01e4dd21ee",
    "7/gen-affine/frame_0003.pgm":
        "eed8a9bfd09903c51b42e4caf9c5b4da2d3a298e3a8e0b3c6a4b3b92ab284021",
    "7/gen-affine/frame_0004.pgm":
        "a3b8e140880361458bf5c10cbd0d24678d19794eb1198025694be2fee6f4cbb9",
    "7/gen-affine/frame_0005.pgm":
        "bbafab8042bd2fd1d8b74b70b8cf49dfb46d054edaaa922b535e8916a5ac1bd6",
    "7/gen-affine/frame_0006.pgm":
        "7752b7234acabe31da7bc8ce6dedbe6089a9e7d4e2d413605da6622520886f46",
    "7/gen-affine/frame_0007.pgm":
        "b286478f886b74cdcf106e5cc936efbb72c916f3e2ed9841e71ac69e1fc02c07",
    "7/gen-affine/frame_0008.pgm":
        "7d6353ac48eb3afabad0350ae5c39839a5663b8f5b8f4a3a9ee43528182e5239",
    "7/gen-affine/frame_0009.pgm":
        "d98ec745af81f5a87f02f17d68003707ad43fd6d4037752b4a5d583cffd5a86e",
    "7/gen-affine/manifest.txt":
        "240343b8f6fd13f759d15103735b1ab207aafa9872fb9cc1e84100a45bfc9249",
    "7/gen-affine/mesh_0000_0001.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0001_0002.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0002_0003.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0003_0004.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0004_0005.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0005_0006.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0006_0007.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0007_0008.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "7/gen-affine/mesh_0008_0009.msh1":
        "f1a9deea7154e0142da862aebeecf692e66f45bf493118c348fdc1cda5e29dad",
    "7/gen-affine/times.csv":
        "56bbb06bf127bdb2e1c998cd66a186114fb8fff0974e7bb9a07d052a7f314bd2",
    "7/gen-homography/flow_0000_0001.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "7/gen-homography/flow_0001_0002.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "7/gen-homography/flow_0002_0003.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "7/gen-homography/flow_0003_0004.flo1":
        "3b7533e65ea2214e8e11fb4866f8e6db85696ec008359da56f6c5b566307d822",
    "7/gen-homography/frame_0000.pgm":
        "c764f4a53ceaa2a3dae121cec4b7c4b6e58e00fb970f0cbd7c716f92f7994925",
    "7/gen-homography/frame_0001.pgm":
        "f62c019e4a638836ab801bb3dc156fb29d2169b9313e340ac2728c61ba3d4ee6",
    "7/gen-homography/frame_0002.pgm":
        "bc0c74bb1ab75cdc54d97acfe9ac759d1bf31081b7843e45ff673ddc2588b89f",
    "7/gen-homography/frame_0003.pgm":
        "de385389256588746ba1f4a42ffafc07ae1bcf87f1dc8da05aecdbdf2edf4fee",
    "7/gen-homography/frame_0004.pgm":
        "1728813904e4239944a0a561cddedb31ae911a6b97b80ea55e15315d5c45e4ac",
    "7/gen-homography/manifest.txt":
        "16beb4fce07670109dbff942ae2024226667c183a6d7885f318c229263ea77d1",
    "7/gen-homography/mesh_0000_0001.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "7/gen-homography/mesh_0001_0002.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "7/gen-homography/mesh_0002_0003.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "7/gen-homography/mesh_0003_0004.msh1":
        "733a196192396b5881179e5a120c1459d2db96727fbb7e3a50531d817136a43d",
    "7/gen-homography/times.csv":
        "4fa94b87ec981939bd5bd98c03e434d9755fdc5c984d1cb4b3d069a6a3066444",
    "7/simulate/density.csv":
        "7508dd7b627375aee57cbc0b487ae59c69f629c47df243dda5ecee2bc9482d45",
    "7/simulate/events_00_c0.05.evt1":
        "5f8d333fc8c0007d520c3f82bed922f1af78b847fcfa12eb6fc1a5d9a48544fb",
    "7/simulate/events_01_c0.2.evt1":
        "ef3ab25833eb1fd133b05c70d41d8486c78fcc5180faaeacade5b40b77c81c5c",
    "7/simulate/events_02_c50.evt1":
        "a0d84da235578e0c5510332da82ef159f9911ef5b1ecca4ad9ffcd314fef454b",
    "7/simulate/manifest.txt":
        "d86ef154a366e640b2660a106bd0a7ec43add75b72661473a716bdd698f3000d",
    "7/density/density.csv":
        "7508dd7b627375aee57cbc0b487ae59c69f629c47df243dda5ecee2bc9482d45",
    "7/density/manifest.txt":
        "69d8d1e5b07979e1278abf63782ab6be5e5ed60b16051fb5f9a6598dd1f456c5",
    "7/select/manifest.txt":
        "6aad2b9f283da29da6cd6e2a167d0bc346af0afa73bd3a829d5432d437149718",
    "7/select/scores.csv":
        "4cc6e27c38fc9c22cab0fcd31f678b1307f0843728683f2c7e8e6cb6dbcf4392",
    "7/select/selected.txt":
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "7/meshflow/manifest.txt":
        "baf572daa86382e3d51ef4868914ae323884ccd8dec67baaa6d5adb2e22dcc63",
    "7/meshflow/meshflow.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "7/meshflow/meshflow.ppm":
        "66e4c192f80cd9df2a2a525724402b8069ebc976f1cc637e86d007a53d9cc4aa",
    "7/eval-flow/manifest.txt":
        "bc8a77593ea8b337f4f61b96cfe4df9035f9d1a3db63c72daa22a991e15ee5a9",
    "7/eval-flow/metrics.csv":
        "992e7f0c3d5d861b2cbd16e78fb46622ea45f4c0acaa693d50887a8db7e3efe4",
    "7/eval-meshflow/manifest.txt":
        "90ffd47b02d5e56348fe55dca6d7fc06033ad49706a1a08041e254919e2b324d",
    "7/eval-meshflow/metrics.csv":
        "053448a2d2ddd1a2a2c5f3cf7a7f6e11c63d03c8552a6ea9ea4afd482968bd3f",
    "7/warp-flow/alignment.csv":
        "156c41feb69746257460f6e05f8bff34ed15c77cc5a0f4789afd70343dca8509",
    "7/warp-flow/manifest.txt":
        "0824e7abdf73089409d180914aa5798b9b60e03343bb1a7d03e74897c1b12ad8",
    "7/warp-flow/warped.pgm":
        "df866274d40097dd80ac1ad3598033057072cf04bfac6813ebb3d621ed226472",
    "7/warp-mesh/alignment.csv":
        "156c41feb69746257460f6e05f8bff34ed15c77cc5a0f4789afd70343dca8509",
    "7/warp-mesh/manifest.txt":
        "0824e7abdf73089409d180914aa5798b9b60e03343bb1a7d03e74897c1b12ad8",
    "7/warp-mesh/warped.pgm":
        "df866274d40097dd80ac1ad3598033057072cf04bfac6813ebb3d621ed226472",
    "7/subsample-spatial/manifest.txt":
        "cffaeed21da35239051b21b3a8768bb09ee2d2874c1654885e88973f100811ea",
    "7/subsample-spatial/subsampled.evt1":
        "75211e522c83b30334fe905e44e3cc47db511ddc952bc978db72fa000a578d3e",
    "7/subsample-temporal/manifest.txt":
        "237cc96c9c89e2f06a66b025a2fe5ead98039b20c78c67afb68068cfdc65dead",
    "7/subsample-temporal/subsampled.evt1":
        "b32c5e37be325c200fcf2fabc8625f2f8523439446962d4cf97308a14236d1ad",
    "11/gen-translation/flow_0000_0001.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0001_0002.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0002_0003.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0003_0004.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0004_0005.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0005_0006.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0006_0007.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0007_0008.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0008_0009.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0009_0010.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0010_0011.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0011_0012.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/flow_0012_0013.flo1":
        "76476a20da039600abf068cc8a4cb3f951b87350874785d4591e0567deab405b",
    "11/gen-translation/frame_0000.pgm":
        "f89298ec15414ff4f8e8caa5a056ceeacf96ae17e20d17ccaf52c15aab079fc1",
    "11/gen-translation/frame_0001.pgm":
        "0ae0a1b7107d20855ed968f62000b5ec345dbfcb02ed21f8009f1e4fc0b0551a",
    "11/gen-translation/frame_0002.pgm":
        "bd0380515d814065d90008261149a221cbc95b09d2680760a49fc05d8320f2d4",
    "11/gen-translation/frame_0003.pgm":
        "e20c3c3b8a4ddb25e081aa08778b26a7ab32a8ea62a9c814e5655701059e8ba0",
    "11/gen-translation/frame_0004.pgm":
        "708e16a3adfec996857660958167aecd32e476a6214317a3373e7764842d0d98",
    "11/gen-translation/frame_0005.pgm":
        "11517a267d66af9d6749c67abdfb3c2ff04569db8a3215e92f8447fd6780f8e6",
    "11/gen-translation/frame_0006.pgm":
        "52c9a4e283f527c2a7eb8f5ec9171d3a37229bcc7ff3d74a53221cd64bf4caff",
    "11/gen-translation/frame_0007.pgm":
        "0fc9b81ea8a6e7e7dc6cfc90653aed7483c2c4112283fa36b8a1779a851785e0",
    "11/gen-translation/frame_0008.pgm":
        "4035fee1aacacb32e5366c5e4d8ab0e81e552871094cd0b9cffc7ca25bf5d9cf",
    "11/gen-translation/frame_0009.pgm":
        "21af7b5b70c969dbfe84efebc7e360a789ee27c8f017ed04573ae302bdbbab41",
    "11/gen-translation/frame_0010.pgm":
        "586524e3539f328d33d43af618efd0134acf35867ae7326bbf4e85ca6bca73ad",
    "11/gen-translation/frame_0011.pgm":
        "ed453fde323143a147e4062e468895eee49401d7eef05fbfcecca2933f834509",
    "11/gen-translation/frame_0012.pgm":
        "db0dbf2c26f487959f8d8085f2bb2708664f49b19babb1a89325abf7e9575a0d",
    "11/gen-translation/frame_0013.pgm":
        "5bd1b193d777cacba29c1c8c672b0226ce36187b3d737780d6f0308443f9cf53",
    "11/gen-translation/manifest.txt":
        "5c959a474c1fd11641e54b948344d6dfcb5b307e688af334e9100f8821e2fb65",
    "11/gen-translation/mesh_0000_0001.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0001_0002.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0002_0003.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0003_0004.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0004_0005.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0005_0006.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0006_0007.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0007_0008.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0008_0009.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0009_0010.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0010_0011.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0011_0012.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/mesh_0012_0013.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/gen-translation/times.csv":
        "fc15150efbecbad0a931c593dfa82600b5f5fb987c5e5e39e6af658e5de04895",
    "11/gen-affine/flow_0000_0001.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0001_0002.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0002_0003.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0003_0004.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0004_0005.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0005_0006.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0006_0007.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0007_0008.flo1":
        "e9e3f0145538b793eb4937c78d5c3c93b3982fe2ae3555da289f302312a6f01e",
    "11/gen-affine/flow_0008_0009.flo1":
        "7e40711465a9599df1db8a8dfa2c4f99279d96d32c7722a6d32f9ca964d40631",
    "11/gen-affine/frame_0000.pgm":
        "f89298ec15414ff4f8e8caa5a056ceeacf96ae17e20d17ccaf52c15aab079fc1",
    "11/gen-affine/frame_0001.pgm":
        "2acc8b4affa1ed6bb6a298c2f08b242e260d33091ad969361b6855d81adf5508",
    "11/gen-affine/frame_0002.pgm":
        "744a306f9bcb79e8d119c3e6b001972dcda436aa8eed875fda43a681da7649ee",
    "11/gen-affine/frame_0003.pgm":
        "5a2706f164a3540513646666276e1968327520242a3df8b15b55d56e9e9675a9",
    "11/gen-affine/frame_0004.pgm":
        "c78de25a19f171ba00c89f26b860fa8242df7a04ca914f479958b3c6fda4bb55",
    "11/gen-affine/frame_0005.pgm":
        "a7fa3a33da4407e38debb4ca0107d4458e922980c052d1b9bed2a67b19f7808f",
    "11/gen-affine/frame_0006.pgm":
        "88267faf3a7975cbd7efdb02b05541843f8e25db25f6695fbdc92ba6622bc02f",
    "11/gen-affine/frame_0007.pgm":
        "68cdc47d0d5b7540a9787c70be64c5a63741a572abb1bd7b2dcabc6bd5036d75",
    "11/gen-affine/frame_0008.pgm":
        "50d3bf9cba37b3a0adb11e53181773cd0a147d084b2d14bd3471400e6c62f7d1",
    "11/gen-affine/frame_0009.pgm":
        "08138e067b20b77a8677e7d6f3bc07ad82318daced59bacb4cae16a9c21a89e2",
    "11/gen-affine/manifest.txt":
        "240343b8f6fd13f759d15103735b1ab207aafa9872fb9cc1e84100a45bfc9249",
    "11/gen-affine/mesh_0000_0001.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0001_0002.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0002_0003.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0003_0004.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0004_0005.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0005_0006.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0006_0007.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0007_0008.msh1":
        "a9a43af30b2b97d1cd084707dbf0353c49c34aa0d0d50cb16921bddbae490059",
    "11/gen-affine/mesh_0008_0009.msh1":
        "f1a9deea7154e0142da862aebeecf692e66f45bf493118c348fdc1cda5e29dad",
    "11/gen-affine/times.csv":
        "56bbb06bf127bdb2e1c998cd66a186114fb8fff0974e7bb9a07d052a7f314bd2",
    "11/gen-homography/flow_0000_0001.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "11/gen-homography/flow_0001_0002.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "11/gen-homography/flow_0002_0003.flo1":
        "25d6d1380c66ed00b7dfed872c4cd729e8aea741a83c566a782393c70c9f8e0a",
    "11/gen-homography/flow_0003_0004.flo1":
        "3b7533e65ea2214e8e11fb4866f8e6db85696ec008359da56f6c5b566307d822",
    "11/gen-homography/frame_0000.pgm":
        "f89298ec15414ff4f8e8caa5a056ceeacf96ae17e20d17ccaf52c15aab079fc1",
    "11/gen-homography/frame_0001.pgm":
        "9a56ffa42907a5ef5c18e0beec14f2bc4f2918812f1d1f2211a70cde5798cb8e",
    "11/gen-homography/frame_0002.pgm":
        "a2de3c12cf390e7d21e5a316dc35817aeeeea88a65da2aff34524dbdcf87cc38",
    "11/gen-homography/frame_0003.pgm":
        "aef0407adfc47bdb34d29ea8f5fb5a826616ee690d8f04cbcc1ae29147f2f8a9",
    "11/gen-homography/frame_0004.pgm":
        "3e149e4118bfac9e6670b6e2bb62360c7495361b89596277d66a1be3b5fdaa51",
    "11/gen-homography/manifest.txt":
        "16beb4fce07670109dbff942ae2024226667c183a6d7885f318c229263ea77d1",
    "11/gen-homography/mesh_0000_0001.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "11/gen-homography/mesh_0001_0002.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "11/gen-homography/mesh_0002_0003.msh1":
        "0f98d46a0651281ea8a0e7dca8a07223ba807b3502e142071571ab39aebdd17e",
    "11/gen-homography/mesh_0003_0004.msh1":
        "733a196192396b5881179e5a120c1459d2db96727fbb7e3a50531d817136a43d",
    "11/gen-homography/times.csv":
        "4fa94b87ec981939bd5bd98c03e434d9755fdc5c984d1cb4b3d069a6a3066444",
    "11/simulate/density.csv":
        "3fbdd34ab4f9b79513c883f38514793329171de4f05748d1f23cb5e930997d84",
    "11/simulate/events_00_c0.05.evt1":
        "f17a7b776185e7ff3a2cdadcc244475185f3825cfd0a783a57011a4de08ad7c8",
    "11/simulate/events_01_c0.2.evt1":
        "5af7c7e73b20151949acc0b1ca64eb62652dfd461b4c9f8b384884c72e4d19dd",
    "11/simulate/events_02_c50.evt1":
        "a0d84da235578e0c5510332da82ef159f9911ef5b1ecca4ad9ffcd314fef454b",
    "11/simulate/manifest.txt":
        "e6ea13a868328c9b55dae812cddb53657ed5820ec208e57aa54b106059e05f39",
    "11/density/density.csv":
        "3fbdd34ab4f9b79513c883f38514793329171de4f05748d1f23cb5e930997d84",
    "11/density/manifest.txt":
        "69d8d1e5b07979e1278abf63782ab6be5e5ed60b16051fb5f9a6598dd1f456c5",
    "11/select/manifest.txt":
        "6aad2b9f283da29da6cd6e2a167d0bc346af0afa73bd3a829d5432d437149718",
    "11/select/scores.csv":
        "d7add9164328b40ee80ffe4bcc2d5a14bb794c005590c873003c7259f172bd93",
    "11/select/selected.txt":
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "11/meshflow/manifest.txt":
        "baf572daa86382e3d51ef4868914ae323884ccd8dec67baaa6d5adb2e22dcc63",
    "11/meshflow/meshflow.msh1":
        "e07457371f6862f8d03d414c33249a439a814e3debd983d8e902f1144e899b3f",
    "11/meshflow/meshflow.ppm":
        "66e4c192f80cd9df2a2a525724402b8069ebc976f1cc637e86d007a53d9cc4aa",
    "11/eval-flow/manifest.txt":
        "bc8a77593ea8b337f4f61b96cfe4df9035f9d1a3db63c72daa22a991e15ee5a9",
    "11/eval-flow/metrics.csv":
        "992e7f0c3d5d861b2cbd16e78fb46622ea45f4c0acaa693d50887a8db7e3efe4",
    "11/eval-meshflow/manifest.txt":
        "90ffd47b02d5e56348fe55dca6d7fc06033ad49706a1a08041e254919e2b324d",
    "11/eval-meshflow/metrics.csv":
        "053448a2d2ddd1a2a2c5f3cf7a7f6e11c63d03c8552a6ea9ea4afd482968bd3f",
    "11/warp-flow/alignment.csv":
        "d27781c634f763ebecfc4537b1ea393b8ab228fc8d294240806e724c79fcc502",
    "11/warp-flow/manifest.txt":
        "9b699c28edbd8be3fc4355868a56f600b03b9dcdee3869c31b56b0a9ba841bdb",
    "11/warp-flow/warped.pgm":
        "34aaf67fbd33513939831fde8e07717037abafb040267e6f9fb7449aa423f6cb",
    "11/warp-mesh/alignment.csv":
        "d27781c634f763ebecfc4537b1ea393b8ab228fc8d294240806e724c79fcc502",
    "11/warp-mesh/manifest.txt":
        "9b699c28edbd8be3fc4355868a56f600b03b9dcdee3869c31b56b0a9ba841bdb",
    "11/warp-mesh/warped.pgm":
        "34aaf67fbd33513939831fde8e07717037abafb040267e6f9fb7449aa423f6cb",
    "11/subsample-spatial/manifest.txt":
        "db9156dcf4bf27834b0e572eb02c12b99da76cfb7a89216286eb17f6eb7cec27",
    "11/subsample-spatial/subsampled.evt1":
        "0f710ad7ad9a2ab38afaf6c34db4fcd75b1cc2793110c6615bb04d7c64dc11c1",
    "11/subsample-temporal/manifest.txt":
        "6ebc1f0b3f3f0f84f9a20dee8683ee93f8d932152c5e8fded30d47bed99d2af8",
    "11/subsample-temporal/subsampled.evt1":
        "2146a7343ce9f10f844deb288ad9a6f3285ace7d5a5ee607d70d68dbcc516b7a",
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    print("GOLDEN = {")
    for key, value in table.items():
        print(f'    "{key}":\n        "{value}",')
    print("}")
    print(f"# {len(table)} artifacts; numpy {np.__version__}, scipy {scipy.__version__}", file=sys.stderr)
