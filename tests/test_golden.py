"""Byte-for-byte regression pins on CLI output.

The sha256 of each command's stdout (or its --out file, for `enumerate`) was
recorded before the change it guards: the first 23 before extension
enumeration gained orbit pruning, the next 14 before the algebra and rank
layers were merged, the next five before the per-kind decisions of the
differentials moved into one table, and the last four before the in-process
enumeration was restricted to a spec's simple and loopless tags.  These pins are regression references
only: they say the output has not changed, not that it is right.  The other
tests check the numbers themselves.  A change that means to alter an output
must re-record its pin and say why.
"""

import hashlib

import pytest

from matroidc.cli import main

KINDS = ("del", "clp", "con", "lp", "del-tot", "con-tot")
SPECS = ("simple", "loopless", "binary", "regular", "graphic", "cographic")
SUITES = ("square", "anticommute", "duality", "homotopy", "freealg", "hopf")

GOLDEN = {
    **{
        ("enumerate", "--n", str(n)): digest
        for n, digest in enumerate((
            "0fb2f2d5faf1dad38876140c3c4d283fc5eb4aa85bcb9862a36ad7f39b53931e",
            "81cefbd259fa2a9d0cf7661c9c75a3ab4ad99b7ecf7b92f74a10d81f7bb877a7",
            "373140fbb5eb32e507f7d5d09581f0d3437cac2a312a45d3994098a98812c6d2",
            "1d3225cdb2d53d534af5bddd23b63858af5b51043e4cafce4d17fd2cea542009",
            "1f5892ffbc2142bf914102c3dc06934091a62766e191990b88d94b926b1056a7",
            "38cb4ae3cf059f75fb3141d865b1fba31da2f4af663658c06845db45cd18c7e4",
            "d564c0dfc429dfaf85a782796dced2b375522d5680452a89be17a90d32ed22a8",
            "7f41bb1017594b5123515d5e803eef83934ed9452b907b68b58f868fb5eeacb5",
        ))
    },
    ("dims", "--spec", "all", "--max-n", "7"):
        "4ae61eec350b3558b2d818c7f8612f1f161042dfb8d64652993901bd2ca71cb1",
    **{
        ("homology", "--spec", "all", "--kind", kind, "--max-n", "7"): digest
        for kind, digest in zip(KINDS, (
            "ea61e30e79b5fb782182677c8c471015544049cddefa07397f3e06525cc19a3c",
            "00e7a499385cba70fa1804df1d9faa38e4127a0b2447f8f33e48c493ad6976a8",
            "7b53379f900ad79902e7f62ce9c73348dad180791a0625885aca856afca4f174",
            "62401e30eeb7b645a9b2bcea1fe3817f5a7ba0e7d64497c0cee402f96956c53a",
            "af2b38cefa6379c675da8ef788c2f34a8c62cbc985a8e7f662634d541e4a2b79",
            "c984da102530e7550cf0608ab443b3d709dee3c55411fd5eff3d847032aeee13",
        ))
    },
    **{
        ("homology", "--spec", spec, "--kind", "del", "--max-n", "7"): digest
        for spec, digest in zip(SPECS, (
            "b1aa605f0095953bb559bd812112813af03127f4f8baa086bff6469990795a6c",
            "3add36ee1c6451526498ab13d0702d5b62b7f55910b3c8cdd47163fb535c22ed",
            "29320e4fb52827508b43b5d6df032880a74b715ab69265efd330ff85a44abb3e",
            "14e362af2f996eb0c42729469f5d80d5d22c2d8742da7adcb3e26e0115520508",
            "c94e12c6acb5a464a0b597b89c405b24d75c3ea92eaba7ce5cc094f9c345d922",
            "b5a8785038466f449f9c82ed6b150749240b6bfa12a5d19a447b68d65c5664d2",
        ))
    },
    ("export-matrix", "--kind", "del-tot", "--n", "7"):
        "6c704cd673bc4237ae57c8243ba24bbe73ae05bc474108382587f9eb9af02883",
    ("verify", "--suite", "hopf", "--max-n", "6"):
        "6f1e6ad014c4ec117245ffc828dd67495d09bd3a1d560606bb3dc94e9000eadf",
    # Recorded before the algebra and rank layers were merged into one sparse
    # vector, one boundary-term generator and one elimination kernel.
    **{
        ("verify", "--suite", suite, "--max-n", "7"): digest
        for suite, digest in zip(SUITES, (
            "1f8f99b36451a8de65481fd7d797d0e7c55375c783d54d8029699a2eb63b4b4e",
            "abe9a148f32fb715d0509a081dc95022f9e3bc2091f9331278e9b6206af99cdd",
            "ca099d1ff46595dd8c5820d270dc84d652ccb39f615bb2fc173809432478146c",
            "5ff3a56bba503ed5a9069006838dc7ed7b233efc566bc4ef72552d7ba83b54a7",
            "e44076e75b2298deca9c793fb6446a8f97f9dbd0e9498fe1c758929831274eff",
            "328d038b896b01bbec3f8b7efd1caad9d152e282ef3ebd149a1b0c4ff70b30d5",
        ))
    },
    **{
        ("export-matrix", "--kind", kind, "--n", "7"): digest
        for kind, digest in zip(("del", "clp", "con", "lp", "con-tot"), (
            "1b83559a002ffc6c4a31bdbca89c085084ab31ce4e254cb1c1a6257664f6e1cf",
            "5b929d212cb5ad5d24c71a172dd4bb7658265820a9b22956fe013c2752ac16b2",
            "f6ccf3e2e6ed30a0c025eef861548263bf043c64ab06b4888b81c92279b7ecf4",
            "6d70ab92e09deb57cf8f8cafcdda1322429d2e94fbc7be12567a86d35cd0a605",
            "abc527bc8688410b42c7a1a4d2120678ca4398c2355359242ec71968b0628e0a",
        ))
    },
    ("homology", "--spec", "regular,simple,connected", "--kind", "del", "--max-n", "7"):
        "e2d2c1cc5edebea8d5101b47a2c5ed5c90e4bd6d6341314c634301e0d42bdf39",
    ("homology", "--spec", "simple", "--kind", "del", "--bidegree", "6,3"):
        "4cd95067b9542e7fcdff02fb88bd397325b341c127f6cd10a2c9b41a37512518",
    ("homology", "--spec", "simple", "--kind", "del", "--max-n", "7", "--format", "json"):
        "ca9aadc16fe44263c7e22ada48cfff5e62d386b47970b41bfd38cc9faa859015",
    # Recorded before the per-kind decisions moved into one table on
    # DifferentialKind; 7,3 is an upper_bound row.
    ("homology", "--spec", "regular,simple,connected", "--kind", "del", "--bidegree", "6,3"):
        "66dabab8d37d0890256b7160e3031daff04cf4239dae9237cd4387a677af65ad",
    ("homology", "--kind", "con", "--bidegree", "2,1"):
        "64712b39a4aa5eac697552112b6a00d47667caf55059d946d130e90d28fc8236",
    ("homology", "--kind", "lp", "--bidegree", "6,3"):
        "bd5df1f5e75b12a4f6992a874a80798b4c1b18fe014eaaf338cdf2347c586a3b",
    ("homology", "--kind", "clp", "--bidegree", "6,3"):
        "3dab2fb5c41b3e61d0d41d45d5c05cc82312acffaaf42cbe3cc8fa8495dbb53c",
    ("homology", "--kind", "del", "--bidegree", "7,3"):
        "c5f2e7d4d657db8192bfd5dd27d458a17e8cddbf562dffa85dff02bd015bb7b4",
    # Recorded before the in-process enumeration was restricted to the
    # simple and loopless tags of the spec.
    ("dims", "--spec", "simple", "--max-n", "7"):
        "c0e49e322198d136a2de8ab45063e1510b820eb3d506fba571c9141a7fb4cb9b",
    ("homology", "--spec", "loopless,connected", "--kind", "clp", "--max-n", "7"):
        "b23cb0734ccc07366a1b03d79a1bf1aa765a44a050e7da00a8f69a0686e8fb9c",
    ("verify", "--suite", "square", "--spec", "simple", "--max-n", "7"):
        "1f8f99b36451a8de65481fd7d797d0e7c55375c783d54d8029699a2eb63b4b4e",
    ("export-matrix", "--spec", "simple", "--kind", "con", "--n", "7"):
        "fe67b6ce1a7e1d4f2338e463851ec13e22645c36c0641a5d09ddbb34c12c19ea",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_unchanged(argv, capsys, tmp_path):
    if argv[0] == "enumerate":
        path = tmp_path / "out.mtrd"
        assert main([*argv, "--out", str(path)]) == 0
        data = path.read_bytes()
    else:
        assert main(list(argv)) == 0
        data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[argv]
