"""Golden values of the constructions and of the files built from them.

Each digest is a SHA-256 recorded when the values were taken. A rewrite of
orbit enumeration, sampling, the certificates, the verifier or the report
writers must leave the removed edges, the certificate sets, the written
graph and sidecar bytes, the ``verify`` output and the series CSV exactly
as they were.
"""

import hashlib
import json

import pytest

from capforge import (
    JumpParams,
    MultiJumpSpec,
    certificate_for,
    independence_series,
    multi_jump_product,
    sample_jump_graph,
    sample_simple_jump_graph,
)
from capforge.cli import main
from capforge.io import meta_path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _removed_digest(nu: int, n: int) -> str:
    removed = [sample_jump_graph(JumpParams(nu=nu, n=n, seed=s)).removed.tolist() for s in range(4)]
    return _sha(json.dumps(removed).encode())


# (nu, n) -> SHA-256 of the JSON list of removed_edges for seeds 0-3
REMOVED = {
    (2, 2): "9938c087b1e2c679a8a1e2dea8656505303606f9a47f6e471eedde2a39d1d15f",
    (2, 3): "87cc95910e72d4b5fde5afcd4c109e6772f61390b6e702afe5351681b02ff4d9",
    (2, 4): "a9660539c58b103cd8bbb43ac037fa9c4fdb173edcb934cc4962e70159e513cd",
    (2, 5): "15462cd741519d07957901a738540186f036c8254b43764b6ac11bc19fe78eab",
    (2, 6): "3edd5b508e63bfebb1570991894fa95e9e645930b3729f716477499a34d4e48a",
    (2, 7): "ee0c1abcc56253f8d3aee52fce13214c8909b578406016242728f31dfa13abd5",
    (2, 8): "64a15f9eb1b327caea800242006625d535931fdccb7b6c6c1a421d6b0baa2216",
    (3, 2): "c30bf70bd33ec5df511e8cae9c4a44ef96c1d8116e5c6213c65fdc50b3da9a2a",
    (3, 3): "7ff73053d6acb673e1e3201432ff8f340b2f2a17654181cfe0b852765a0056df",
    (3, 4): "13aa554fb7faa8b6ec985125dfd3c3292ce678b23fc05d2f72a83bf39632ee18",
    (3, 5): "dbc1432d5690e256b0c8168b947742c391045d2670cdb7e39437337520ced49b",
    (3, 6): "49f2c70e5829476d04220f4963e9f42a731c1c6e6f9c82dc1c48908d4680fc29",
    (3, 7): "c7cf6a99da4d5da300ee04db1de61b068475e63987c7cd0c41c20b1dcaab5631",
    (3, 8): "816ad1b256f066552da4ba9abb460df85428d017ff514a6277b2e24aa5fc4a0d",
    (4, 2): "2547cbe1417d841107b922164d84c3bde44c46dd25c83b3e83f324b38b331b6e",
    (4, 3): "127c8845dcc8279db7e346b240fe6096dff25b7326f7dac27cf45c119159090b",
    (4, 4): "57cda8443ccc188db9dbe3f690c5fd7995b5f8bf3568048fb826c6108fac9cbd",
    (4, 5): "c7287a2c7389d544b9eec84098c5b4116b0e404b90de18ec1f0c4620affaa584",
    (4, 6): "7e237198abfc28f85cd349778d68798bf756c23c92777eb0ca35481982839b95",
    (4, 7): "fa4290a1c5af2db608139c61c790cf73ca17ba2cf0308ca8c2ef93ac668d6e30",
    (4, 8): "4e5956a683c87a554153956cc6dbb8c8adbfbceaaca1d392ecc1b1ba4a8499f3",
    (5, 2): "4b18fcbae662377b0a0057e51b88da6742e6030b1abf399c363a92c0c4ffc5da",
    (5, 3): "e4d81b3811c3e5744ebe43bbe32965fd56bc3863f546d41448319e5b03da304b",
    (5, 4): "8fb4adf24ae7a82837c076dbf3da88c109d744cff1533f5b8f45d09945e15de5",
    (5, 5): "fb9d87beeb084b51503e1fac350c2e90f20e85bb097a70d47d6d40334941127f",
    (5, 6): "d9bce36666c73e51c91a9d91ac5b373237fcd7b31ee0279b6ea224a61cb8da5b",
    (5, 7): "6941dab8fab49c0eff7c28b0eaf3122f741611b0b364653f5c5c5abe9ac3dce3",
    (5, 8): "c5f93c2f152e09a66bccbf62714b5b84dc86d0467b9a20e6f407560426a351e2",
    (6, 2): "c304f10c8de05c318db7c5c0a6f1d147569143abef7f2d7952e82ba1378b7ba1",
    (6, 3): "2aa50835cb7874f22f138e6a9acbcb98b3bcf1a3e5ad43175b35210158e42e06",
    (6, 4): "7478b72ffadf5d45d4e38a165f809c4e32be94ede767e14d1369cc7f96c1eb9c",
    (6, 5): "d783e94cbc65650d010bb2a0731ba6aeb18e0dcc4826a673fa0324480b843e3e",
    (6, 6): "d5838ee0e5efd18e1887e667daa086a4a776c855b32c2d6392b2d9197a18bfb2",
    (6, 7): "c700d64a0d94d45d4b95dc80fa86dd1ba0e92b36ffe1aa78c94626996eb24b6d",
    (6, 8): "4081141a5a7dfe3394736034810b0c06af4cc43ff1d5b5b7507d1614bae9226a",
}


@pytest.mark.parametrize("nu,n", sorted(REMOVED))
def test_removed_edges(nu, n):
    assert _removed_digest(nu, n) == REMOVED[(nu, n)]


def _construction(kind: str, nu, n):
    if kind == "product":
        return multi_jump_product(MultiJumpSpec(nus=nu, n1=n, alpha=1.5, seeds=(7, 8)))
    sample = sample_jump_graph if kind == "canonical" else sample_simple_jump_graph
    return sample(JumpParams(nu=nu, n=n, seed=1))


EMPTY = _sha(b"[]")
# (kind, nu, n) -> SHA-256 of json.dumps(sorted(certificate_for(cg, k))) for
# k = 1, 2, ...: canonical graphs at seed 1 up to k = 2 nu + 1, simple graphs
# at seed 1 up to k = nu, and the product of nus (2, 3), n1 = 2, seeds 7, 8
# up to k = 6
CERTIFICATES = {
    ("canonical", 2, 2): (
        EMPTY,
        "9ce3ea4491e092a966855e4181977a4a0ddbcf236f2fcaf135e6b52c7610bc93",
        "51150a2e06395487980c6f53d8bec048740f3d363a313c3b8db4941dfaa1028b",
        "04811bf6b972081d8507414b8e5502e02b56d6425df7ad2430e1635c7db0d27f",
        "4aecf2d73c8249aad2ba03fcbac3ac674474d6c97323a15858d865669d4c20ba",
    ),
    ("simple", 2, 2): (
        EMPTY,
        "72b51f0d1a57e54ee5f792c9617e75b218aa4dffce916945eb4387ad20e173dd",
    ),
    ("canonical", 2, 3): (
        EMPTY,
        "59ee4997db61d05784233a059b4a533f389693ed5a8037daa3fca3f8f977696e",
        "99edd9cf10101bb7e18eef786267844fd6ce9829173c12772f4ec077a2d224d5",
        "24d40bf47f16f58e823dd4270c8e852909b7bc9eb36b77bfa295759ea0647654",
        "f040b52b384725ddea79a195ab0d34bb669e6c0a0f14df816a5d3b13eabdbd07",
    ),
    ("simple", 2, 3): (
        EMPTY,
        "27b647309813e2bbdfe79bf2aecf5c6b34d4c297f230a6f13008d86830c20f35",
    ),
    ("canonical", 3, 2): (
        EMPTY,
        EMPTY,
        "cbf90a33e895899c6710acbe0535d68f24aeda161d03836973e62b7ba94f8edf",
        "f510ab90e90240b764a0465fec3e319c9486ab4454822538c5e7182faa2cf5b9",
        "9a3ed6b6ef58b9f686c2a4b9894867b639b0ae40d033148e79cd189abd211c64",
        "28352e17f605807cd89bcd9cefb7cf5fc6cba60ea11253ff2e6321513559c020",
        "902c3a25653755a810623e862f1234d9c29cf8f23a463a0c90473b1d39f762b5",
    ),
    ("simple", 3, 2): (
        EMPTY,
        EMPTY,
        "d42ef3a453691152af9df3974094032f222579d3757a55de4baf2ae3aef6da0c",
    ),
    ("canonical", 4, 2): (
        EMPTY,
        EMPTY,
        EMPTY,
        "0230068d357881279c4f4fdbb7ec4cf8f65ab38ae768803db8697191e9a7d7d4",
        "76fe7eb46a7a16f84e75ce83c6cbb4fb3daa5a5b9869350e537447ae32e89c1b",
        "97a52cfeb82f70ad1d5fac11640cf7758cd1d44d6e779f886476d20737eaa76d",
        "fe5e805853498a97c7b59ffd5043ae11bb68e2ee9ff675e0817b1446e630795e",
        "2d26d30dfec998de1717050cddd4a3718426317daca49a7a064af93c28daee85",
        "323de81e1fa22705648b85ea48c62d19c454d2266798507386d73e3d9aad1f29",
    ),
    ("simple", 4, 2): (
        EMPTY,
        EMPTY,
        EMPTY,
        "249bcf1fac24e5fa4e6b26a062c8c168453841f8f051d65cd3702242691fa42f",
    ),
    ("product", (2, 3), 2): (
        EMPTY,
        "b2e5be5f4e3e7012e53b79fa20c54cf96ec918fb455192c0153d4968480c7336",
        "71243587e12b8742a986d734d2ad42d6b452e171f2714ea90babe550a3d9da8e",
        "b9574d27aea4eca7f14ffee09e013e71a3599f5ca9e236c4d0ee113d243761ea",
        "7b08ea80452df63d2076a41d3293e974dd28fb46dd8e49bb9dd3a36cf8c4e950",
        "c7829c646fef67fe19434050a0de4fe7dbd67cebe72e7bf19cdd6d847a58ac91",
    ),
}


@pytest.mark.parametrize("key", sorted(CERTIFICATES, key=str))
def test_certificate_sets(key):
    cg = _construction(*key)
    got = tuple(_sha(json.dumps(sorted(certificate_for(cg, k))).encode()) for k in range(1, len(CERTIFICATES[key]) + 1))
    assert got == CERTIFICATES[key]


CONSTRUCT_ARGS = {
    "canonical": ["--nu", "3", "--n", "4", "--seed", "5"],
    "simple": ["--simple", "--nu", "3", "--n", "4", "--seed", "5"],
    "product": ["--multi", "--nus", "2,3", "--n1", "2", "--seeds", "1,2"],
}

# kind -> (graph file, sidecar, verify stdout) SHA-256
FILES = {
    "canonical": (
        "6d5673f373c20fc39bdf3bc70d4b6641267c558bafb1958f06e8d6a65733776c",
        "9ed00711f98502f03431f128cf37e63a28e40fee6e9760f35384a3bd35384172",
        "69172a4ed283994fa754fb24838d5ca94d5ddcef64b92b825f4e3b8c467b73be",
    ),
    "product": (
        "2710612878079445805c94d8e90dab41587ad6f267f0bb5619d77bb0959f5742",
        "b842db8a3415e93e5bdb904a00801e951fbcecbb7de12d3132e23836255bff54",
        "f10c8b17b1d78101de523bf0d546ac56bcf2a4396b9786ae1c627c63b28f4a38",
    ),
    "simple": (
        "196f6d4652e8581df215879c5205ac26ed7676ccf14acb74dde1ed81794fb0b3",
        "a43e70ca68060e8bbd62793b21a2d7559689e8cd39c54eae70e6be834dc80ade",
        "8f5821dcae9f07bcd8176fb3c4408903f875d25606123e8aa60dbb1b436b187a",
    ),
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCT_ARGS))
def test_construct_files_and_verify_output(kind, tmp_path, capsys):
    g = tmp_path / "g.col"
    assert main(["construct", *CONSTRUCT_ARGS[kind], "--out", str(g)]) == 0
    capsys.readouterr()
    assert main(["verify", str(g)]) == 0
    verify_out = capsys.readouterr().out
    got = (_sha(g.read_bytes()), _sha(meta_path(g).read_bytes()), _sha(verify_out.encode()))
    assert got == FILES[kind]


SERIES_CSV = "e4da81d47a7c556209cbac616f94850324993085491c84290f382b144fcaf60f"


def test_series_csv(tmp_path):
    cg = sample_jump_graph(JumpParams(nu=2, n=3, seed=1))
    path = tmp_path / "series.csv"
    independence_series(cg, 3, mode="exact").write_csv(path)
    assert _sha(path.read_bytes()) == SERIES_CSV
