"""Golden trajectories: the first 20 rounds of each strategy on the bundled
default config, seed 0.

A change that moves a training trajectory, on purpose or not, fails here.
The eval losses are compared at a relative tolerance of 1e-12: a change of
summation order inside a BLAS kernel moves them by a few 1e-15, while any
change to the algorithm (batches, step, regulariser, pruning, aggregation)
moves them by far more. Rank histories are compared exactly.
"""

import dataclasses
import functools

import pytest

from hetlora.baselines import run_strategy
from hetlora.config import load_config

RTOL = 1e-12
ROUNDS = 20

EVAL_LOSSES = {
    "hetlora": [
        0.0747193453276952, 0.07555975280434621, 0.07576030546443457,
        0.07560996351299085, 0.07556233659001821, 0.07526469355400384,
        0.07534367780557225, 0.07536026865448399, 0.07532613189243903,
        0.075590320623334, 0.07589487441455087, 0.07618193299808114,
        0.07668039064503554, 0.0766915265087294, 0.0764621549378495,
        0.07701103252165531, 0.07664168782232744, 0.07735940878485627,
        0.07726392211160447, 0.07716299155919214,
    ],
    "homlora": [
        0.07438449913156968, 0.0732753375816625, 0.07260782592471302,
        0.07240916099065663, 0.07241747463631047, 0.0714911250400449,
        0.07041042681259321, 0.06974814602763442, 0.06901796056841142,
        0.0673822191487597, 0.06704628628827741, 0.06626240112948362,
        0.06594357922873512, 0.06576316384401602, 0.06396279706584271,
        0.06443689947692426, 0.0625539581163182, 0.061720600898564,
        0.06052118832644747, 0.0588366456977423,
    ],
    "full_ft": [
        0.0666755983507333, 0.05929205291977893, 0.056034854949626255,
        0.053583125374069805, 0.05204007063297687, 0.050070223305191036,
        0.04631064850030886, 0.04709418553629638, 0.04546138674230818,
        0.042264570583998386, 0.040196422328305906, 0.04080007374916397,
        0.043020910169013694, 0.043398218200166455, 0.04451911276873721,
        0.04570099409425202, 0.0450513547818716, 0.04556665064243711,
        0.04588582765395464, 0.04612591614864012,
    ],
    "recon_svd": [
        0.07457454101257639, 0.07417881319242839, 0.07384429885124383,
        0.07349272841180514, 0.07313862074000338, 0.07252703796613937,
        0.07179738170582182, 0.07087383776270283, 0.0701225693828798,
        0.06883667042781917, 0.0678178453178957, 0.06673219513005962,
        0.06545683293087598, 0.06430079895114545, 0.06261978228425796,
        0.06049482864600708, 0.058729743521332506, 0.05662306948566746,
        0.05420596299848883, 0.05167856654592739,
    ],
}

# hetlora's 100 client ranks after round 1, then the (client, new rank)
# drops of each later round
HETLORA_RANKS_ROUND_1 = (
    5, 4, 3, 12, 3, 3, 8, 3, 7, 2, 2, 4, 12, 4, 6, 2, 9, 12, 3, 2,
    7, 8, 4, 7, 2, 8, 10, 7, 3, 10, 7, 2, 4, 9, 15, 3, 5, 2, 3, 14,
    12, 2, 2, 3, 3, 2, 2, 5, 12, 2, 10, 8, 13, 3, 13, 3, 9, 4, 3, 11,
    3, 2, 2, 8, 8, 7, 5, 2, 3, 3, 2, 8, 6, 2, 3, 13, 15, 6, 3, 5,
    8, 3, 3, 6, 4, 6, 12, 16, 3, 8, 5, 9, 2, 6, 2, 4, 3, 2, 6, 10,
)
HETLORA_RANK_DROPS = {
    4: [(31, 1)],
    5: [(1, 3), (47, 4)],
    6: [(19, 1), (55, 2)],
    7: [(51, 7), (62, 1)],
    8: [(13, 3), (42, 1), (66, 4)],
    9: [(14, 5)],
    10: [(11, 3), (78, 2)],
    11: [(9, 1), (70, 1), (83, 5)],
    12: [(11, 2), (43, 2), (72, 5)],
    13: [(4, 2), (32, 3), (43, 1)],
    14: [(21, 7)],
    15: [(28, 2), (94, 1)],
    16: [(85, 5)],
    17: [(36, 4)],
    18: [(4, 1), (10, 1), (69, 2), (72, 4)],
    19: [(23, 6), (27, 6), (47, 3), (79, 4)],
    20: [(30, 6), (35, 2)],
}


@functools.cache
def golden_run(strategy: str):
    cfg = dataclasses.replace(load_config("default"), strategy=strategy,
                              rounds=ROUNDS)
    return run_strategy(cfg, 0)


@pytest.mark.parametrize("strategy", sorted(EVAL_LOSSES))
def test_first_eval_losses(strategy):
    run = golden_run(strategy)
    assert run.completed
    got = [r.eval_loss for r in run.records]
    assert got == pytest.approx(EVAL_LOSSES[strategy], rel=RTOL, abs=0)


def test_hetlora_rank_history():
    want = [HETLORA_RANKS_ROUND_1]
    for t in range(2, ROUNDS + 1):
        ranks = list(want[-1])
        for k, r in HETLORA_RANK_DROPS.get(t, []):
            ranks[k] = r
        want.append(tuple(ranks))
    assert [r.client_ranks for r in golden_run("hetlora").records] == want
