"""Golden values of the branch-and-bound solver.

Each case records what ``max_independent_set`` returned when the values were
taken: a SHA-256 of the sorted members, the size, the status, the certified
upper bound and the number of search nodes. A rewrite of the solver's set-up
or search loop must return the same set after visiting the same nodes, so
every field must match exactly.
"""

import hashlib
import random

import pytest

from capforge import JumpParams, SolverBudget, make_graph, max_independent_set, sample_jump_graph, strong_power

BUDGETS = {
    "none": None,
    "nodes7": SolverBudget(max_nodes=7),
    "target3": SolverBudget(target=3),
    "target6": SolverBudget(target=6),
}


def _random_graph(seed: int):
    rng = random.Random(seed)
    n = rng.randint(5, 40)
    density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return make_graph(n, edges)


def _solve(case: str):
    kind, *rest = case.split("-")
    if kind == "random":
        return max_independent_set(_random_graph(int(rest[0])), BUDGETS[rest[1]])
    if kind == "jump":  # the mc-alpha-128 solves: N=128, untargeted
        return max_independent_set(sample_jump_graph(JumpParams(nu=2, n=64, seed=int(rest[1]))).graph)
    if kind == "refute":  # targeted solves on N=256, as jump-demo runs them; target 16 = ceil(sqrt(256))
        target = int(rest[2][1:]) if len(rest) > 2 else 16
        g = sample_jump_graph(JumpParams(nu=2, n=128, seed=int(rest[1]))).graph
        return max_independent_set(g, SolverBudget(target=target))
    # the series-64 solve: G^2 of the N=64 seed-7 graph, 4096 vertices
    g = strong_power(sample_jump_graph(JumpParams(nu=2, n=32, seed=7)).graph, 2)
    return max_independent_set(g, SolverBudget(max_nodes=2000))


# (case, (sha256 of sorted members, size, status, certified_upper, search_nodes))
GOLDEN = [
    ("random-0-none", ("4d19eaf401c32696e7beb88214bc960f774cf038dc7712a179ae3ce4f162a15c", 7, "exact", None, 11)),
    ("random-0-nodes7", ("4e91451e90fd59a125f3d2816d7c536d047ea05f7744dab78818e0903a0d96e6", 5, "lower_bound", None, 8)),
    ("random-0-target3", ("4e91451e90fd59a125f3d2816d7c536d047ea05f7744dab78818e0903a0d96e6", 5, "lower_bound", None, 0)),
    ("random-0-target6", ("4d19eaf401c32696e7beb88214bc960f774cf038dc7712a179ae3ce4f162a15c", 7, "lower_bound", None, 11)),
    ("random-1-none", ("e0aee7627349ef46e00de3f17168a41957744cc66d4ada468e0279157da177b9", 4, "exact", None, 4)),
    ("random-1-nodes7", ("e0aee7627349ef46e00de3f17168a41957744cc66d4ada468e0279157da177b9", 4, "exact", None, 4)),
    ("random-1-target3", ("7b0812f6cdda6b3a3b5f262e353edda5713df68db9293f9de3ebaf142edbb52b", 3, "lower_bound", None, 0)),
    ("random-1-target6", ("7b0812f6cdda6b3a3b5f262e353edda5713df68db9293f9de3ebaf142edbb52b", 3, "upper_bound_certified", 5, 1)),
    ("random-2-none", ("b4503a6c0af74d75b6945cb09cbc922f3fbd1f21ebb704fd71022c6ba2c2a095", 5, "exact", None, 1)),
    ("random-2-nodes7", ("b4503a6c0af74d75b6945cb09cbc922f3fbd1f21ebb704fd71022c6ba2c2a095", 5, "exact", None, 1)),
    ("random-2-target3", ("b4503a6c0af74d75b6945cb09cbc922f3fbd1f21ebb704fd71022c6ba2c2a095", 5, "lower_bound", None, 0)),
    ("random-2-target6", ("b4503a6c0af74d75b6945cb09cbc922f3fbd1f21ebb704fd71022c6ba2c2a095", 5, "exact", 5, 1)),
    ("random-3-none", ("dee26ae467e73b09d1a9933e412254c8108e28c3a91908068e9e0d22048b7d62", 4, "exact", None, 2)),
    ("random-3-nodes7", ("dee26ae467e73b09d1a9933e412254c8108e28c3a91908068e9e0d22048b7d62", 4, "exact", None, 2)),
    ("random-3-target3", ("dee26ae467e73b09d1a9933e412254c8108e28c3a91908068e9e0d22048b7d62", 4, "lower_bound", None, 0)),
    ("random-3-target6", ("dee26ae467e73b09d1a9933e412254c8108e28c3a91908068e9e0d22048b7d62", 4, "upper_bound_certified", 5, 1)),
    ("random-4-none", ("6bc99c1f0cfb28c507bc7b4fdd935c83cf51c1b3ded99b76f89f3d1ad137ea94", 7, "exact", None, 7)),
    ("random-4-nodes7", ("6bc99c1f0cfb28c507bc7b4fdd935c83cf51c1b3ded99b76f89f3d1ad137ea94", 7, "exact", None, 7)),
    ("random-4-target3", ("6bc99c1f0cfb28c507bc7b4fdd935c83cf51c1b3ded99b76f89f3d1ad137ea94", 7, "lower_bound", None, 0)),
    ("random-4-target6", ("6bc99c1f0cfb28c507bc7b4fdd935c83cf51c1b3ded99b76f89f3d1ad137ea94", 7, "lower_bound", None, 0)),
    ("random-5-none", ("8dc4c79e3d572fafde7e9525387d89d9eb4d315692847367defe433dd1080c09", 8, "exact", None, 11)),
    ("random-5-nodes7", ("95dc95b61a6c6fe5e48c988f531742802627ad3fd917b2fcd9bc9b2562ae9f4a", 7, "lower_bound", None, 8)),
    ("random-5-target3", ("95dc95b61a6c6fe5e48c988f531742802627ad3fd917b2fcd9bc9b2562ae9f4a", 7, "lower_bound", None, 0)),
    ("random-5-target6", ("95dc95b61a6c6fe5e48c988f531742802627ad3fd917b2fcd9bc9b2562ae9f4a", 7, "lower_bound", None, 0)),
    ("random-6-none", ("a633b52b28af28a0355bcdd8898c23163f82b0831d79bafdff929fa93c8057ce", 4, "exact", None, 1)),
    ("random-6-nodes7", ("a633b52b28af28a0355bcdd8898c23163f82b0831d79bafdff929fa93c8057ce", 4, "exact", None, 1)),
    ("random-6-target3", ("a633b52b28af28a0355bcdd8898c23163f82b0831d79bafdff929fa93c8057ce", 4, "lower_bound", None, 0)),
    ("random-6-target6", ("a633b52b28af28a0355bcdd8898c23163f82b0831d79bafdff929fa93c8057ce", 4, "upper_bound_certified", 5, 1)),
    ("random-7-none", ("25f6d5e28297ce45917cf318703a97009bc3b70b43d716b25128809abc0da92d", 10, "exact", None, 2)),
    ("random-7-nodes7", ("25f6d5e28297ce45917cf318703a97009bc3b70b43d716b25128809abc0da92d", 10, "exact", None, 2)),
    ("random-7-target3", ("25f6d5e28297ce45917cf318703a97009bc3b70b43d716b25128809abc0da92d", 10, "lower_bound", None, 0)),
    ("random-7-target6", ("25f6d5e28297ce45917cf318703a97009bc3b70b43d716b25128809abc0da92d", 10, "lower_bound", None, 0)),
    ("random-8-none", ("5e2bf7228c532079bc14b33a6174583e2657822127775b7265aad5b5e2f73df4", 7, "exact", None, 13)),
    ("random-8-nodes7", ("5271c1ce51be742d8cb242330c455dd4bd7bea1f08c3d654aaf1e278a5edd31f", 6, "lower_bound", None, 8)),
    ("random-8-target3", ("24ef94b77db6dc22f848f90887474e73ddb83d0de001129936da93537cf20b1c", 5, "lower_bound", None, 0)),
    ("random-8-target6", ("5271c1ce51be742d8cb242330c455dd4bd7bea1f08c3d654aaf1e278a5edd31f", 6, "lower_bound", None, 6)),
    ("random-9-none", ("ba05774132327b3eb4742f30285ec4abbf7494fad9fe424ffedd7885b5930d53", 4, "exact", None, 12)),
    ("random-9-nodes7", ("ba05774132327b3eb4742f30285ec4abbf7494fad9fe424ffedd7885b5930d53", 4, "lower_bound", None, 8)),
    ("random-9-target3", ("ba05774132327b3eb4742f30285ec4abbf7494fad9fe424ffedd7885b5930d53", 4, "lower_bound", None, 0)),
    ("random-9-target6", ("ba05774132327b3eb4742f30285ec4abbf7494fad9fe424ffedd7885b5930d53", 4, "upper_bound_certified", 5, 7)),
    ("random-10-none", ("67d1beb8292ec5a3c35659a4db90a71c461c1f6d3fc9a0760c983b14b2975bb6", 2, "exact", None, 1)),
    ("random-10-nodes7", ("67d1beb8292ec5a3c35659a4db90a71c461c1f6d3fc9a0760c983b14b2975bb6", 2, "exact", None, 1)),
    ("random-10-target3", ("67d1beb8292ec5a3c35659a4db90a71c461c1f6d3fc9a0760c983b14b2975bb6", 2, "exact", 2, 1)),
    ("random-10-target6", ("67d1beb8292ec5a3c35659a4db90a71c461c1f6d3fc9a0760c983b14b2975bb6", 2, "upper_bound_certified", 5, 1)),
    ("random-11-none", ("0ed1bbaead167d436f6a32cc06cc00ea5bab7bd988808d769e3d85af59eddb46", 4, "exact", None, 6)),
    ("random-11-nodes7", ("0ed1bbaead167d436f6a32cc06cc00ea5bab7bd988808d769e3d85af59eddb46", 4, "exact", None, 6)),
    ("random-11-target3", ("0ed1bbaead167d436f6a32cc06cc00ea5bab7bd988808d769e3d85af59eddb46", 4, "lower_bound", None, 0)),
    ("random-11-target6", ("0ed1bbaead167d436f6a32cc06cc00ea5bab7bd988808d769e3d85af59eddb46", 4, "upper_bound_certified", 5, 3)),
    ("random-12-none", ("b705bbe94cf7a4ee16edd8917531b04ea2fb0a4de6caad9abdabdf7cfadc693b", 11, "exact", None, 13)),
    ("random-12-nodes7", ("928ebce953587dd8c594595d426461ecfd3876d8019898b8717aa1475328692a", 10, "lower_bound", None, 8)),
    ("random-12-target3", ("928ebce953587dd8c594595d426461ecfd3876d8019898b8717aa1475328692a", 10, "lower_bound", None, 0)),
    ("random-12-target6", ("928ebce953587dd8c594595d426461ecfd3876d8019898b8717aa1475328692a", 10, "lower_bound", None, 0)),
    ("random-13-none", ("4cdfa9d08fcf73c2b134b1a5fb30a6fd6a091af2e2550805b296a9f3a637049e", 7, "exact", None, 9)),
    ("random-13-nodes7", ("fe0f1ed19e33b8fa28e61f51b87e30c590bdc208e8d7c572d02b65b2fbf3548e", 6, "lower_bound", None, 8)),
    ("random-13-target3", ("fe0f1ed19e33b8fa28e61f51b87e30c590bdc208e8d7c572d02b65b2fbf3548e", 6, "lower_bound", None, 0)),
    ("random-13-target6", ("fe0f1ed19e33b8fa28e61f51b87e30c590bdc208e8d7c572d02b65b2fbf3548e", 6, "lower_bound", None, 0)),
    ("random-14-none", ("810e586d1f0898b19f91ce4f607e2b95d2943207c258c4331c3852cf4c52eb82", 3, "exact", None, 3)),
    ("random-14-nodes7", ("810e586d1f0898b19f91ce4f607e2b95d2943207c258c4331c3852cf4c52eb82", 3, "exact", None, 3)),
    ("random-14-target3", ("810e586d1f0898b19f91ce4f607e2b95d2943207c258c4331c3852cf4c52eb82", 3, "lower_bound", None, 3)),
    ("random-14-target6", ("923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836", 2, "upper_bound_certified", 5, 1)),
    ("random-15-none", ("f2b5141665d49f297b529122233db2d782756c63b0e745e7b6baacded892aebb", 10, "exact", None, 1)),
    ("random-15-nodes7", ("f2b5141665d49f297b529122233db2d782756c63b0e745e7b6baacded892aebb", 10, "exact", None, 1)),
    ("random-15-target3", ("f2b5141665d49f297b529122233db2d782756c63b0e745e7b6baacded892aebb", 10, "lower_bound", None, 0)),
    ("random-15-target6", ("f2b5141665d49f297b529122233db2d782756c63b0e745e7b6baacded892aebb", 10, "lower_bound", None, 0)),
    ("random-16-none", ("5f58e260fe3040bebebae04369d2fe3200ed86c06648b21c17f53d4c28fe2f43", 6, "exact", None, 7)),
    ("random-16-nodes7", ("5f58e260fe3040bebebae04369d2fe3200ed86c06648b21c17f53d4c28fe2f43", 6, "exact", None, 7)),
    ("random-16-target3", ("155f5a8782dc593a3c80f2999bc3f8a6b54029c2868cb29802089150d7ee5aed", 5, "lower_bound", None, 0)),
    ("random-16-target6", ("5f58e260fe3040bebebae04369d2fe3200ed86c06648b21c17f53d4c28fe2f43", 6, "lower_bound", None, 6)),
    ("random-17-none", ("6dcc7263a39fa04fd5671de2b30affb485e8e4ed05cc17732f69a3b488077b7d", 7, "exact", None, 14)),
    ("random-17-nodes7", ("03412dca1c84e4ddba40dbc9e7a4df50f1f49ea12d97d3043f5713e6bc7a5a9a", 6, "lower_bound", None, 8)),
    ("random-17-target3", ("03412dca1c84e4ddba40dbc9e7a4df50f1f49ea12d97d3043f5713e6bc7a5a9a", 6, "lower_bound", None, 0)),
    ("random-17-target6", ("03412dca1c84e4ddba40dbc9e7a4df50f1f49ea12d97d3043f5713e6bc7a5a9a", 6, "lower_bound", None, 0)),
    ("random-18-none", ("e7570e547e0021c24f430f470e91e90ea3fd5d936d70d7da5a8a6ba21b6dcb66", 12, "exact", None, 1)),
    ("random-18-nodes7", ("e7570e547e0021c24f430f470e91e90ea3fd5d936d70d7da5a8a6ba21b6dcb66", 12, "exact", None, 1)),
    ("random-18-target3", ("e7570e547e0021c24f430f470e91e90ea3fd5d936d70d7da5a8a6ba21b6dcb66", 12, "lower_bound", None, 0)),
    ("random-18-target6", ("e7570e547e0021c24f430f470e91e90ea3fd5d936d70d7da5a8a6ba21b6dcb66", 12, "lower_bound", None, 0)),
    ("random-19-none", ("c026d822c6c805d7cbd0893bbfcaf8d5d185728e71d0cb625b752221ad6502f7", 3, "exact", None, 1)),
    ("random-19-nodes7", ("c026d822c6c805d7cbd0893bbfcaf8d5d185728e71d0cb625b752221ad6502f7", 3, "exact", None, 1)),
    ("random-19-target3", ("c026d822c6c805d7cbd0893bbfcaf8d5d185728e71d0cb625b752221ad6502f7", 3, "lower_bound", None, 0)),
    ("random-19-target6", ("c026d822c6c805d7cbd0893bbfcaf8d5d185728e71d0cb625b752221ad6502f7", 3, "upper_bound_certified", 5, 1)),
    ("random-20-none", ("d96d563647f55c69b47c227a4da66ab9bb412d16e705ff95ddfdfe4991566f17", 5, "exact", None, 3)),
    ("random-20-nodes7", ("d96d563647f55c69b47c227a4da66ab9bb412d16e705ff95ddfdfe4991566f17", 5, "exact", None, 3)),
    ("random-20-target3", ("d96d563647f55c69b47c227a4da66ab9bb412d16e705ff95ddfdfe4991566f17", 5, "lower_bound", None, 0)),
    ("random-20-target6", ("d96d563647f55c69b47c227a4da66ab9bb412d16e705ff95ddfdfe4991566f17", 5, "exact", 5, 3)),
    ("random-21-none", ("55b4a5effb4f0b4e40e50fa8b331661b6028edaa2ee8b4e89ffe98b46ef72892", 5, "exact", None, 5)),
    ("random-21-nodes7", ("55b4a5effb4f0b4e40e50fa8b331661b6028edaa2ee8b4e89ffe98b46ef72892", 5, "exact", None, 5)),
    ("random-21-target3", ("c45984c6104c84f47e31f7e04ea7ba0f0bd94032de6a2535ae5d74175408e386", 4, "lower_bound", None, 0)),
    ("random-21-target6", ("c45984c6104c84f47e31f7e04ea7ba0f0bd94032de6a2535ae5d74175408e386", 4, "upper_bound_certified", 5, 1)),
    ("random-22-none", ("483f49e13f7735485a06577d17e9a5bd2cebb1deb50c0ca1eb7d29afe3a52860", 8, "exact", None, 8)),
    ("random-22-nodes7", ("11fc11db5d7aff9d81bc6d48e12850946220cd8098bf7eea6ffb44843b1bcfec", 7, "lower_bound", None, 8)),
    ("random-22-target3", ("11fc11db5d7aff9d81bc6d48e12850946220cd8098bf7eea6ffb44843b1bcfec", 7, "lower_bound", None, 0)),
    ("random-22-target6", ("11fc11db5d7aff9d81bc6d48e12850946220cd8098bf7eea6ffb44843b1bcfec", 7, "lower_bound", None, 0)),
    ("random-23-none", ("435ad311d62cd7445edc2bcf21df4dd687a9399549a3c056eb5b0a552d6e1f80", 11, "exact", None, 11)),
    ("random-23-nodes7", ("5c1b4a58bfb47089fecde4a38da5ebd83c3fc9b72789eeb92e5bc8d4cc234993", 10, "lower_bound", None, 8)),
    ("random-23-target3", ("5c1b4a58bfb47089fecde4a38da5ebd83c3fc9b72789eeb92e5bc8d4cc234993", 10, "lower_bound", None, 0)),
    ("random-23-target6", ("5c1b4a58bfb47089fecde4a38da5ebd83c3fc9b72789eeb92e5bc8d4cc234993", 10, "lower_bound", None, 0)),
    ("jump-128-0", ("ef9030a7d4bb634cce619d265e968fedac2ed164fed3ae47e608322391e5c022", 10, "exact", None, 904)),
    ("jump-128-1", ("8fd112dc83c20d59c2c8645987e46e07dcb60287c87237d7cf125ae900d5d121", 10, "exact", None, 1215)),
    ("jump-128-2", ("b269ae612cf836ae9e51c284dbedeeee35ba5654b83738fd563e0ffde977f6fd", 10, "exact", None, 1024)),
    ("jump-128-3", ("31f01ae52a95829192ec7a17064b53cdb769b13a9ac5fdf5490aa894a88bb22b", 10, "exact", None, 738)),
    ("jump-128-4", ("021c812d60f743beb5790b32a9ae802d8f7e9efbe4dec6be0003eff871922b65", 10, "exact", None, 851)),
    ("refute-256-0", ("3fd1df87be3ccd10fe3ec29b47b469062425392b18072bf9327d05fbac2b7022", 7, "upper_bound_certified", 15, 3393)),
    ("refute-256-1", ("1a6f37bede2e588ea33ad13bf8b9f9c4b57fcc820bc0484a9740fdb845505ccc", 8, "upper_bound_certified", 15, 3326)),
    ("refute-256-2", ("57af31a42e83d4eba6b5a095460307be0d11fd3201ed6299058de58ab62f58bb", 8, "upper_bound_certified", 15, 3219)),
    ("refute-256-3", ("c7f94dabbaa247804786974f545219ee4f55c1e1f51d242330110d49309cea54", 9, "upper_bound_certified", 15, 3216)),
    ("refute-256-4", ("ff806cef4f8be79520de890949bc14ba10bfbdc8e819cdb8c7f325f5d46c58d4", 9, "upper_bound_certified", 15, 3334)),
    # the search reaches the target partway through
    ("refute-256-0-t11", ("c4da546878077f49bed309a3fc4f09c92e4996a28f743dfb02c5e7617449a609", 11, "lower_bound", None, 1058)),
    # the greedy incumbent already meets the target: no node is searched
    ("refute-256-0-t7", ("3fd1df87be3ccd10fe3ec29b47b469062425392b18072bf9327d05fbac2b7022", 7, "lower_bound", None, 0)),
    ("power-4096", ("43c4718bb16c0cd7f98c30e1c74ec6bd7d4aa23af8609f1129d8f22c82dfa9e2", 49, "lower_bound", None, 2001)),
]


@pytest.mark.parametrize("case,expected", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_solver_golden(case, expected):
    res = _solve(case)
    digest = hashlib.sha256(repr(sorted(res.members)).encode()).hexdigest()
    assert (digest, res.size, res.status, res.certified_upper, res.search_nodes) == expected
