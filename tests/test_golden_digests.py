"""Golden report digests: every benchmark-scope command must keep writing
byte-identical reports.

The first commands and sha256 digests are those listed under "Report
digests" in perfbench/README.md, except the seven specialize reports, which
lost their unused "window" field and were re-pinned, and the three
controls reports, whose payload now states the scope the controls ran at
(window 1, max-degree at most 2), which were re-pinned; the random-strategy
controls, toroidal and
glzero runs, the random loop acceptance scope, the symbolic loop,
toroidal and glzero acceptance scopes and three n = 4 scopes (loop,
random toroidal and controls, which pin psi modes at n = 4) follow. A
digest that moves
means a verdict, an entry count or a serialized value changed (the failing
random controls pin the residual strings of the random strategy). Every verify command also runs with one and with
two workers, and both runs must give the same bytes. The op-matrix reports
pin plain f/e coefficient values of both modules, and the V(mu) blocks pin
specialized matrix values away from the vacuum.
"""

import hashlib
import json

import pytest

from laumonk.cli import main
from laumonk.specialization import LevelWeight, build_Vmu_block

VERIFY = {
    "loop-symbolic": (
        ["verify", "--suite", "loop", "-n", "3", "-D", "3", "-R", "1",
         "--strategy", "symbolic"],
        "40c2e4e82eb25157c1b3a0280d6f44e5038e61a764a703bc9e17f3a74e1023ee"),
    "loop-random": (
        ["verify", "--suite", "loop", "-n", "3", "-D", "3", "-R", "1",
         "--strategy", "random", "--seed", "7", "--trials", "5"],
        "d9a35292e23cf2435c09c2ef2d4ed012f44522ac0a620877617ac0e1b23d41c6"),
    "toroidal": (
        ["verify", "--suite", "toroidal", "-n", "3", "-D", "1", "-R", "1"],
        "5a3e610a4ef610658931e87cb91ddab8ae1de53d8febec8d77c8dc5b14408818"),
    "controls": (
        ["verify", "--suite", "controls", "-n", "3", "-D", "1"],
        "4cf23a55e2bee33ed3cd88e24fa364c9253f98696645e6225289ae38c95be723"),
    "oracle": (
        ["verify", "--suite", "oracle", "-n", "3", "-D", "2"],
        "b24232f34cb1de8af6cf16b7cb91af92cefc89d3349df59939c6c3afdf282b7f"),
    "controls-random": (
        ["verify", "--suite", "controls", "-n", "3", "-D", "1",
         "--strategy", "random", "--seed", "7", "--trials", "5"],
        "dee0222b7188169a9a02e192c8b737012d8ea9048e832fd876f6af4200e5054f"),
    "toroidal-random": (
        ["verify", "--suite", "toroidal", "-n", "3", "-D", "1", "-R", "1",
         "--strategy", "random", "--seed", "7", "--trials", "5"],
        "ca2cd5662098596afb15e3e08b962e96157eb0607223fb1e27a452d92a82eca9"),
    "glzero-random": (
        ["verify", "--suite", "glzero", "-n", "4", "-D", "2",
         "--strategy", "random", "--seed", "11", "--trials", "3"],
        "b0283f40ba403570da75878f3193ebedaf0ee312ea563917dc7f8e8fb1754d04"),
    "loop-random-acceptance": (
        ["verify", "--suite", "loop", "-n", "3", "-D", "3", "-R", "2",
         "--strategy", "random", "--seed", "7", "--trials", "5"],
        "9dbbabdc6672a945381c15318da366b12e7f517ab44700030558e5d787c8cbef"),
    "loop-symbolic-acceptance": (
        ["verify", "--suite", "loop", "-n", "3", "-D", "3", "-R", "2",
         "--strategy", "symbolic"],
        "322140b5338388f083649ee72a2b1f2ef32aeba5e2c9adec0b6544c218e98641"),
    "toroidal-acceptance": (
        ["verify", "--suite", "toroidal", "-n", "3", "-D", "2", "-R", "2"],
        "3745bb788d7d6cc68e8132b9365d9ce2a910f05d80b0322b1a5f94a98cbbff57"),
    "glzero-acceptance": (
        ["verify", "--suite", "glzero", "-n", "4", "-D", "3"],
        "81efcb82db803e5307a6f7c017dfaacdcf259a913a3c718f2a99b78d5ea2e3b4"),
    "loop-n4": (
        ["verify", "--suite", "loop", "-n", "4", "-D", "3", "-R", "1"],
        "fc197a068705b339b58472abb441c31e7bb6b637d64bb4454cbe7fc20f4d1fac"),
    "toroidal-n4-random": (
        ["verify", "--suite", "toroidal", "-n", "4", "-D", "2", "-R", "1",
         "--strategy", "random", "--seed", "7", "--trials", "5"],
        "412026a6d76452e23436abe0cf28a06bb2e3e4cb31d658ca0892d65633e432b8"),
    "controls-n4": (
        ["verify", "--suite", "controls", "-n", "4", "-D", "2"],
        "bf6f4d2fb11a2a0016de2a01a475323010866b14cc7bc655528d478cdfd471e2"),
}

OTHER = {
    "sources-0": (
        ["patterns", "--affine", "-n", "3", "--total", "0"],
        "ec4187e7c72526980e0a9eeb6df82ab58bf8edf1f2f5005605908b7e8e6213fe"),
    "sources-1": (
        ["patterns", "--affine", "-n", "3", "--total", "1"],
        "af45af6dea510b6710371f17617d8e29bb85fe1b0a64cc897e2aa68208263072"),
    "sources-2": (
        ["patterns", "--affine", "-n", "3", "--total", "2"],
        "046242cf21fe38b6d7eb51962dada367be5923e74c13bdba08debf0247c185d0"),
    "specialize-K1-000": (
        ["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
         "--max-degree", "3"],
        "251b1e56997739b94ec1f2428fb300a5ed39eacfbb624a4d32d4b932152701cf"),
    "specialize-K1-100": (
        ["specialize", "-n", "3", "-K", "1", "--mu", "1,0,0",
         "--max-degree", "3"],
        "46e043f6c46218677d9c62db2ca59e165a5bd27d567d218114db63273bff6c13"),
    "specialize-K1-110": (
        ["specialize", "-n", "3", "-K", "1", "--mu", "1,1,0",
         "--max-degree", "3"],
        "f30bc87a7e3c93a3d6fb722a9f05f3f456feeef77419ea216b65c499453c4758"),
    "specialize-K2-000": (
        ["specialize", "-n", "3", "-K", "2", "--mu", "0,0,0",
         "--max-degree", "3"],
        "3e04e6e21099430caef1f1680caea9d6c654adeb9abda2c1d536b2fcdff451ff"),
    "specialize-K2-100": (
        ["specialize", "-n", "3", "-K", "2", "--mu", "1,0,0",
         "--max-degree", "3"],
        "28cdc5394383859a0be44385f17f279d910a993ab635782e8b16e3f6469a6054"),
    "specialize-K2-110": (
        ["specialize", "-n", "3", "-K", "2", "--mu", "1,1,0",
         "--max-degree", "3"],
        "a51ddcff7673d800ac95a3dfae034864cdcd43f6093b2b6256b08242802b31f3"),
    "specialize-wrong-u": (
        ["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
         "--max-degree", "3", "--wrong-u"],
        "978ee63baf83b4c269deb96c1cfb8a5ad8bd57c89aa9613dd7a26e0db12698fa"),
    "op-matrix-finite-f": (
        ["op-matrix", "-n", "3", "--kind", "f", "--node", "2", "-r", "1",
         "-d", "1,2"],
        "5a4e817fcac49088c838123c5f607da30f9aaf5a12018cff9d48c1d0f9a61b84"),
    "op-matrix-finite-e": (
        ["op-matrix", "-n", "3", "--kind", "e", "--node", "2", "-r", "-1",
         "-d", "1,2"],
        "6a5be85e4fff5ce204e783ce2556096d1f05595ec3da0536147b94b3aae771de"),
    "op-matrix-finite-f-n4": (
        ["op-matrix", "-n", "4", "--kind", "f", "--node", "3", "-r", "2",
         "-d", "1,1,2"],
        "f6d7bbe5c5b22aa1c1996a87aa3c291f31fc28e9fee2825bd4b6da9ca6935ee3"),
    "op-matrix-affine-f": (
        ["op-matrix", "-n", "3", "--affine", "--kind", "f", "--node", "3",
         "-r", "1", "-d", "1,1,1"],
        "c196baf51342cbc0e3dd46cd3d9d5c7d337edcf662b50520b2497a7710bb8fc8"),
    "op-matrix-affine-e": (
        ["op-matrix", "-n", "3", "--affine", "--kind", "e", "--node", "1",
         "-r", "-2", "-d", "2,1,1"],
        "2a833d40af0d8bed68c385b30cbd2cf98d157d3826247f32c1da215e440fe018"),
    "op-matrix-affine-e-n4": (
        ["op-matrix", "-n", "4", "--affine", "--kind", "e", "--node", "4",
         "-r", "0", "-d", "1,2,1,1"],
        "45cd8b82bd54d052b54b9ed20569feed04784a7ba52a735da2adcad546eede76"),
}

# name -> ((K, mu, degree, wrong_u), sha256 of the sorted-key JSON block);
# all at n = 3 with window 2
VMU_BLOCKS = {
    "K1-000-111": (
        (1, (0, 0, 0), (1, 1, 1), False),
        "ae0a91b332866c154659cf96ba0a3a34893b79c3bb1c13f744064a4790507d87"),
    "K2-100-111": (
        (2, (1, 0, 0), (1, 1, 1), False),
        "0c67f7f351d066a80bc35854fafb5d9b1e0f352d18bacd53c5775054b7eeac96"),
    "K2-100-211": (
        (2, (1, 0, 0), (2, 1, 1), False),
        "6b38a87a00f5f65afb8f2a2c804788a4f9ff04f5761697181b3efd5ed6b7be7e"),
    "K1-000-111-wrong-u": (
        (1, (0, 0, 0), (1, 1, 1), True),
        "d5a962ae0bb18c90493ec264479b35879be50e8c4f5f0a1dfd768613e2e0dbc6"),
}


def _digest(argv, path):
    main(argv + ["--out", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_digest_with_one_and_two_workers(name, tmp_path):
    argv, digest = VERIFY[name]
    for workers in ("1", "2"):
        path = tmp_path / ("%s-w%s.json" % (name, workers))
        assert _digest(argv + ["--workers", workers], path) == digest, workers


@pytest.mark.parametrize("name", sorted(OTHER))
def test_report_digest(name, tmp_path):
    argv, digest = OTHER[name]
    assert _digest(argv, tmp_path / (name + ".json")) == digest


@pytest.mark.parametrize("name", sorted(VMU_BLOCKS))
def test_vmu_block_digest(name):
    (K, mu, deg, wrong_u), digest = VMU_BLOCKS[name]
    block = build_Vmu_block(LevelWeight(3, K, mu), deg, window=2,
                            wrong_u=wrong_u)
    text = json.dumps(block, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
