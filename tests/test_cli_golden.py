"""Golden digests of the one-vector CLI commands.

``classify``, ``product``, ``tangent``, ``ortho`` (every relation),
``auerbach`` and ``distance --nodes 16`` print what the single-vector entry
points (``norm``, ``sip``, ``product_plus``, ``product_minus``,
``classify``, ``lift``) and the solvers behind them return;
``counterexample`` prints both vectors of the max-norm plane witness, which
the ``verify`` CSV gives only u of.  Their stdout
on the three stock configs is pinned by SHA-256 at 17 significant digits;
a change meant to be bit-identical must keep every digest.
"""

import hashlib

import pytest

from sipmink.cli import main
from sipmink.ortho import OrthoRelation

STOCK_CONFIGS = {
    "euclidean": 'space.s.norm = "euclidean"\n',
    "pnorm3": 'space.s.norm = "pnorm"\nspace.s.p = 3\n',
    "max": 'space.s.norm = "max"\n',
}

# arguments after --config; "--" lets vectors start with a minus sign
COMMANDS = {
    "classify": [
        ["classify", "--", "1,0,1", "0.3,0.2,1", "2,1,0.5", "0,0,0", "-0.5,0.5,-2", "1e-9,0,0", "1,0,1.0000000001"]
    ],
    "product": [["product", "--", "1,2,0.5", "0.3,-1,2"], ["product", "--", "1,1,1", "0,0,0"]],
    "tangent": [["tangent", "--", "0.3,-0.7"], ["tangent", "--", "0,0"]],
    "ortho": [["ortho", "--", rel.value, x, y] for rel in OrthoRelation for x, y in (("1,0.3", "0.2,1"), ("-1,0.5", "0.5,1"))],
    "auerbach": [["auerbach"]],
    "distance": [["distance", "--nodes", "16", "--", "0.2,-0.4", "-0.6,0.5"]],
    "counterexample": [["counterexample"], ["counterexample", "--seed", "7"]],
}

GOLDEN_SHA256 = {
    ("euclidean", "classify"): "f3de2f9dc6d04197b94abed1df4d58f96a9ea4f9d6e4895254ee61e6038563bd",
    ("euclidean", "product"): "5d63fc4f6f80d494a59d3e5e5769c942b4a9f86fdfb53810e8827a45d189f50f",
    ("euclidean", "tangent"): "1b30e41c1f08bbe82f1b5f1827363cd235eedf7ae7f7bf32721f032c9f613cf8",
    ("euclidean", "ortho"): "284e3289b32f8d71a985232fcfea8fd3a25c6f26b3b695d19960818e7da3a34e",
    ("euclidean", "auerbach"): "e4dcdf75dcba4541068a663a1b0705c3f0c7c4f25f289ff50f701d6c3831001f",
    ("euclidean", "distance"): "4ad507bea2c61034f2f9773861371e051b07ac7f1a1f0932e9778b57fb5b5997",
    ("euclidean", "counterexample"): "ac35a3ada53c06048b04b4ac729d4787c810d1215648a524f1bf8c704af65b95",
    ("pnorm3", "classify"): "f6b93883213bb277f100d4b4205dec69e45077a5acb04350d1a20ad14b2c2bde",
    ("pnorm3", "product"): "f839e1af112966bbf850ed78346e27d708e99c942a393246bc3505cf9d8dee7b",
    ("pnorm3", "tangent"): "18b909c8425c02c5e3a04ebd7e539e8bb03ba8bd138f9e0b48ab3d8fbf1dc516",
    ("pnorm3", "ortho"): "d38a84111b8cdda2dbf9a9946425931732c857866f0956d82bcd6212f0476c92",
    ("pnorm3", "auerbach"): "1a1dcb231ee028ccfda3f140fc752a50e93786883331516c21707567d4f7c48e",
    ("pnorm3", "distance"): "1acbea633eecbed0d8d03fa028fb9a1bfca2a8af83a3a9c5e52eb35e783cd1e1",
    ("pnorm3", "counterexample"): "ac35a3ada53c06048b04b4ac729d4787c810d1215648a524f1bf8c704af65b95",
    ("max", "classify"): "2855064f0dfb5003a1ed0854f700558174b3f43566b6d8b5b2764aa4de929231",
    ("max", "product"): "a5989497f5c5850cc6752dc1be62de34e12803661926212d61ebec0990bf7929",
    ("max", "tangent"): "b7001ba0e9624002b66db78eb60dc76b1483a50e924ba212b5c56ca34fd77e05",
    ("max", "ortho"): "e8a0ade518445ed3271f4659fc5f56d0785f65259173a7401c516a9e4de68615",
    ("max", "auerbach"): "e4dcdf75dcba4541068a663a1b0705c3f0c7c4f25f289ff50f701d6c3831001f",
    ("max", "distance"): "29ce6600236ce2ef57c696e3c61778958b9a85508683f213e9a75a9b99fc3c1b",
    ("max", "counterexample"): "ac35a3ada53c06048b04b4ac729d4787c810d1215648a524f1bf8c704af65b95",
}


def _stdout(capsys, tmp_path, label: str, command: str) -> str:
    cfg = tmp_path / f"{label}.cfg"
    cfg.write_text(STOCK_CONFIGS[label])
    out = []
    for args in COMMANDS[command]:
        assert main([args[0], "--config", str(cfg), *args[1:]]) == 0
        out.append(capsys.readouterr().out)
    return "".join(out)


@pytest.mark.parametrize("label, command", sorted(GOLDEN_SHA256), ids=lambda v: v)
def test_command_stdout_digest(capsys, tmp_path, label, command):
    digest = hashlib.sha256(_stdout(capsys, tmp_path, label, command).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(label, command)]
